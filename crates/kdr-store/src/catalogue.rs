//! The sampled cost catalogue: roofline priors refined online.
//!
//! A catalogue entry predicts one tile's share of a solver iteration
//! — keyed `(operator structure, kernel kind, piece count)` — in
//! seconds, so the entries of a session's tiles add up to the wall
//! time of one of its iterations: kernels, vector sweeps, reductions
//! and runtime overhead alike. Before any observation lands,
//! [`CostCatalogue::predict`] answers from the machine model's
//! roofline ([`MachineConfig::kernel_prior_seconds`]), which prices
//! the tile's kernel alone: deliberately optimistic, so cold-start
//! admission never rejects a feasible job. Each observation (a
//! scheduling slice's wall time per iteration, split evenly over the
//! session's tiles) folds in with an exponential moving average, and
//! the returned [`CostEstimate`] carries the sample count so
//! consumers can weigh model guesses against measurements.
//!
//! Structure keys are coarse on purpose (log2 buckets, a four-way
//! variance class): tiles of the same shape share entries, so one
//! tenant's measurements warm the prediction for the next tenant's
//! structurally-similar operator.

use std::collections::BTreeMap;
use std::sync::Arc;

use kdr_machine::MachineConfig;
use kdr_sparse::{KernelKind, StructureKey};
use parking_lot::Mutex;

/// EWMA weight of each new observation after the first.
const EWMA_ALPHA: f64 = 0.2;

/// Amortized bytes per stored entry for assembled kernels (8-byte
/// value + index + vector traffic shares), the prior's traffic term.
const ASSEMBLED_BYTES_PER_ENTRY: f64 = 12.0;

/// Amortized bytes per (virtual) entry for matrix-free stencil
/// kernels: vector traffic only, zero stored values.
const STENCIL_BYTES_PER_ENTRY: f64 = 8.0;

/// One catalogue key: operator structure × kernel kind × piece count.
///
/// Piece counts are log2-bucketed like the structure's counts — a
/// tile's share of an iteration on a 7-piece and an 8-piece partition
/// of the same operator are interchangeable for scheduling purposes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CatalogueKey {
    /// Bucketed structural signature of the tile.
    pub structure: StructureKey,
    /// Kernel kind the tile was (or would be) lowered into.
    pub kernel: KernelKind,
    /// log2 bucket of the partition's piece count.
    pub pieces_log2: u8,
}

impl CatalogueKey {
    /// Key for `structure` lowered as `kernel` over a `pieces`-piece
    /// partition.
    pub fn new(structure: StructureKey, kernel: KernelKind, pieces: usize) -> Self {
        CatalogueKey {
            structure,
            kernel,
            pieces_log2: (64 - (pieces as u64).leading_zeros()) as u8,
        }
    }
}

/// A cost prediction: a tile's seconds per iteration, plus how it was
/// made.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Predicted seconds of one tile's share of an iteration.
    pub seconds: f64,
    /// Observations backing the estimate; 0 means the roofline prior
    /// answered (a catalogue *miss* in the hit/miss counters).
    pub samples: u64,
}

impl CostEstimate {
    /// Whether any measurement backs this estimate.
    pub fn is_observed(&self) -> bool {
        self.samples > 0
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    samples: u64,
    mean_seconds: f64,
}

/// The sampled cost catalogue. See the module docs.
#[derive(Clone, Debug)]
pub struct CostCatalogue {
    machine: MachineConfig,
    entries: BTreeMap<CatalogueKey, Entry>,
}

impl CostCatalogue {
    /// An empty catalogue whose priors come from `machine`'s
    /// roofline.
    pub fn new(machine: MachineConfig) -> Self {
        CostCatalogue {
            machine,
            entries: BTreeMap::new(),
        }
    }

    /// Predict a tile's share of an iteration under `key`.
    /// Observed keys answer with their running mean; unobserved keys
    /// fall back to the roofline prior for the key's representative
    /// entry count.
    pub fn predict(&self, key: &CatalogueKey) -> CostEstimate {
        match self.entries.get(key) {
            Some(e) if e.samples > 0 => CostEstimate {
                seconds: e.mean_seconds,
                samples: e.samples,
            },
            _ => CostEstimate {
                seconds: self.prior_seconds(key),
                samples: 0,
            },
        }
    }

    /// The roofline prior for `key` (what [`CostCatalogue::predict`]
    /// answers with zero samples).
    pub fn prior_seconds(&self, key: &CatalogueKey) -> f64 {
        // Bucket b holds counts in [2^(b-1), 2^b); its geometric
        // middle is the representative.
        let nnz = if key.structure.nnz_log2 == 0 {
            0
        } else {
            3u64 << key.structure.nnz_log2.saturating_sub(2).min(61)
        };
        let bytes_per_entry = if key.structure.stencil != 0 {
            STENCIL_BYTES_PER_ENTRY
        } else {
            ASSEMBLED_BYTES_PER_ENTRY
        };
        self.machine.kernel_prior_seconds(nnz, bytes_per_entry)
    }

    /// Fold one measured share (seconds) into `key`'s running mean.
    /// Non-finite or non-positive samples are ignored.
    pub fn observe(&mut self, key: CatalogueKey, seconds: f64) {
        if !seconds.is_finite() || seconds <= 0.0 {
            return;
        }
        let e = self.entries.entry(key).or_insert(Entry {
            samples: 0,
            mean_seconds: 0.0,
        });
        if e.samples == 0 {
            e.mean_seconds = seconds;
        } else {
            e.mean_seconds += EWMA_ALPHA * (seconds - e.mean_seconds);
        }
        e.samples += 1;
    }

    /// Install an entry wholesale (store restore path).
    pub fn insert_entry(&mut self, key: CatalogueKey, samples: u64, mean_seconds: f64) {
        if samples == 0 || !mean_seconds.is_finite() || mean_seconds <= 0.0 {
            return;
        }
        self.entries.insert(
            key,
            Entry {
                samples,
                mean_seconds,
            },
        );
    }

    /// Every observed entry as `(key, samples, mean seconds)`, in key
    /// order (the store export path).
    pub fn export(&self) -> Vec<(CatalogueKey, u64, f64)> {
        self.entries
            .iter()
            .map(|(k, e)| (*k, e.samples, e.mean_seconds))
            .collect()
    }

    /// Number of observed keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A thread-safe handle to one shared [`CostCatalogue`].
///
/// The service stores one of these per fleet: every shard observes
/// into and predicts from the same catalogue, so measurements merge
/// across shards by construction.
#[derive(Clone)]
pub struct SharedCatalogue {
    inner: Arc<Mutex<CostCatalogue>>,
}

impl std::fmt::Debug for SharedCatalogue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("SharedCatalogue")
            .field("keys", &g.len())
            .finish()
    }
}

impl SharedCatalogue {
    /// An empty shared catalogue with `machine`'s roofline priors.
    pub fn new(machine: MachineConfig) -> Self {
        SharedCatalogue {
            inner: Arc::new(Mutex::new(CostCatalogue::new(machine))),
        }
    }

    /// See [`CostCatalogue::predict`].
    pub fn predict(&self, key: &CatalogueKey) -> CostEstimate {
        self.inner.lock().predict(key)
    }

    /// See [`CostCatalogue::observe`].
    pub fn observe(&self, key: CatalogueKey, seconds: f64) {
        self.inner.lock().observe(key, seconds);
    }

    /// See [`CostCatalogue::insert_entry`].
    pub fn insert_entry(&self, key: CatalogueKey, samples: u64, mean_seconds: f64) {
        self.inner.lock().insert_entry(key, samples, mean_seconds);
    }

    /// See [`CostCatalogue::export`].
    pub fn export(&self) -> Vec<(CatalogueKey, u64, f64)> {
        self.inner.lock().export()
    }

    /// Number of observed keys.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no key has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kind: KernelKind) -> CatalogueKey {
        let s = StructureKey {
            nnz_log2: 10,
            diag_log2: 2,
            row_var_bucket: 0,
            dense_block: 0,
            stencil: 0,
        };
        CatalogueKey::new(s, kind, 4)
    }

    #[test]
    fn prior_then_refinement() {
        let mut c = CostCatalogue::new(MachineConfig::lassen(1));
        let k = key(KernelKind::Csr);
        let prior = c.predict(&k);
        assert!(!prior.is_observed());
        assert!(prior.seconds > 0.0);
        c.observe(k, 1e-3);
        let e = c.predict(&k);
        assert!(e.is_observed());
        assert_eq!(e.samples, 1);
        assert!((e.seconds - 1e-3).abs() < 1e-12);
        // EWMA moves toward later samples.
        c.observe(k, 2e-3);
        let e2 = c.predict(&k);
        assert!(e2.seconds > e.seconds && e2.seconds < 2e-3);
        assert_eq!(e2.samples, 2);
    }

    #[test]
    fn bad_samples_ignored() {
        let mut c = CostCatalogue::new(MachineConfig::lassen(1));
        let k = key(KernelKind::Dia);
        c.observe(k, f64::NAN);
        c.observe(k, -1.0);
        c.observe(k, 0.0);
        assert!(c.is_empty());
    }
}
