//! The durable plan/session store: a versioned, checksummed on-disk
//! format.
//!
//! # Record layout (format version 1)
//!
//! ```text
//! header:  magic "KDRSTORE" (8) | version u32 | record_count u64
//! record:  tag u8 | payload_len u64 | payload | fnv1a64(tag ∥ payload) u64
//! ```
//!
//! All integers little-endian; `f64` round-trips through
//! [`f64::to_bits`] so reloaded values are bit-identical. Three
//! record tags exist in version 1: catalogue entry (1), tenant (2),
//! session (3). Unknown tags, unknown wire codes, length overruns,
//! checksum mismatches, trailing bytes, and a catalogue key, tenant id
//! or session id that a second record repeats all surface as typed
//! [`StoreError`]s — decoding never panics and never silently
//! returns partial data. A version bump is rejected with
//! [`StoreError::UnsupportedVersion`] before any record is read.

use std::collections::BTreeSet;
use std::path::Path;

use kdr_sparse::{KernelKind, StructureKey};

use crate::catalogue::CatalogueKey;

/// The store format version this build writes and accepts.
pub const STORE_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"KDRSTORE";

const TAG_CATALOGUE: u8 = 1;
const TAG_TENANT: u8 = 2;
const TAG_SESSION: u8 = 3;

/// Kernel wire code meaning Auto, the only code this build writes.
const KERNEL_CODE_AUTO: u8 = 255;

/// Typed failure loading or saving a store. Every malformed input
/// maps to one of these — decoding never panics.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure reading or writing the store file.
    Io(std::io::Error),
    /// The file does not start with the store magic — not a store
    /// file at all (or its header was corrupted).
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file ends before the declared data does.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: usize,
    },
    /// A record's checksum does not match its contents.
    ChecksumMismatch {
        /// Byte offset of the failing record.
        offset: usize,
    },
    /// A record decoded to structurally invalid data.
    Malformed {
        /// Byte offset of the failing record (or region).
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a kdr store file (bad magic)"),
            StoreError::UnsupportedVersion { found } => write!(
                f,
                "unsupported store format version {found} (this build reads {STORE_FORMAT_VERSION})"
            ),
            StoreError::Truncated { offset } => {
                write!(f, "store file truncated at byte {offset}")
            }
            StoreError::ChecksumMismatch { offset } => {
                write!(f, "store record checksum mismatch at byte {offset}")
            }
            StoreError::Malformed { offset, what } => {
                write!(f, "malformed store record at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One persisted tenant: id and scheduler weight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreTenant {
    /// Tenant id.
    pub tenant: u64,
    /// Stride-scheduler weight.
    pub weight: u32,
}

/// The operator of a persisted session.
#[derive(Clone, PartialEq, Debug)]
pub enum StoreOperator {
    /// A matrix-free stencil descriptor: `(kind code, nx, ny, nz)`.
    Stencil {
        /// [`kdr_sparse::StencilKind`] wire code.
        kind: u8,
        /// Grid extent in x.
        nx: u64,
        /// Grid extent in y.
        ny: u64,
        /// Grid extent in z.
        nz: u64,
    },
    /// An assembled matrix as sorted COO triplets (bit-exact values).
    Assembled {
        /// Row-space size.
        rows: u64,
        /// Column-space size.
        cols: u64,
        /// `(row, col, value)` triplets in registration order.
        entries: Vec<(u64, u64, f64)>,
    },
}

/// One persisted session: everything the service needs to rebuild
/// (and pre-warm) it identically after a restart.
#[derive(Clone, PartialEq, Debug)]
pub struct StoreSession {
    /// Session id (global across shards).
    pub session: u64,
    /// Owning tenant.
    pub tenant: u64,
    /// Unknown count.
    pub unknowns: u64,
    /// Partition piece count.
    pub pieces: u64,
    /// Solver wire code (service-defined mapping).
    pub solver_code: u8,
    /// First integer solver parameter (restart length, s, …).
    pub solver_p0: u64,
    /// First float solver parameter (bit-exact).
    pub solver_f0: f64,
    /// Second float solver parameter (bit-exact).
    pub solver_f1: f64,
    /// Kernel wire byte: written as Auto (255); a code in an older
    /// file ([`KernelKind::code`]) is validated, not used. A reopened
    /// session's tiles pick their kernels from their structure alone.
    pub kernel_code: u8,
    /// Jobs the session had completed (trace metadata: a nonzero
    /// count marks the plan warm).
    pub jobs_completed: u64,
    /// Step traces the session's backend had captured (trace
    /// metadata).
    pub steps_captured: u64,
    /// The operator to re-register.
    pub operator: StoreOperator,
}

/// Everything one `save_store` call persists: the cost catalogue plus
/// per-tenant session state.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct StoreBundle {
    /// Observed catalogue entries `(key, samples, mean seconds)`.
    pub catalogue: Vec<(CatalogueKey, u64, f64)>,
    /// Registered tenants in id order.
    pub tenants: Vec<StoreTenant>,
    /// Sessions in id order.
    pub sessions: Vec<StoreSession>,
}

// ---------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------

/// FNV-1a over `tag ∥ payload` — cheap, dependency-free, and plenty
/// to catch corruption (integrity, not authentication).
fn fnv1a(tag: u8, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut step = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    };
    step(tag);
    for &b in payload {
        step(b);
    }
    h
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn push_record(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(tag, payload).to_le_bytes());
}

/// Encode a bundle into the on-disk byte format.
pub fn encode(bundle: &StoreBundle) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    let count = bundle.catalogue.len() + bundle.tenants.len() + bundle.sessions.len();
    out.extend_from_slice(&(count as u64).to_le_bytes());

    for (key, samples, mean) in &bundle.catalogue {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&key.structure.to_bytes());
        w.u8(key.kernel.code());
        w.u8(key.pieces_log2);
        w.u64(*samples);
        w.f64(*mean);
        push_record(&mut out, TAG_CATALOGUE, &w.buf);
    }
    for t in &bundle.tenants {
        let mut w = Writer { buf: Vec::new() };
        w.u64(t.tenant);
        w.u32(t.weight);
        push_record(&mut out, TAG_TENANT, &w.buf);
    }
    for s in &bundle.sessions {
        let mut w = Writer { buf: Vec::new() };
        w.u64(s.session);
        w.u64(s.tenant);
        w.u64(s.unknowns);
        w.u64(s.pieces);
        w.u8(s.solver_code);
        w.u64(s.solver_p0);
        w.f64(s.solver_f0);
        w.f64(s.solver_f1);
        w.u8(s.kernel_code);
        w.u64(s.jobs_completed);
        w.u64(s.steps_captured);
        match &s.operator {
            StoreOperator::Stencil { kind, nx, ny, nz } => {
                w.u8(0);
                w.u8(*kind);
                w.u64(*nx);
                w.u64(*ny);
                w.u64(*nz);
            }
            StoreOperator::Assembled {
                rows,
                cols,
                entries,
            } => {
                w.u8(1);
                w.u64(*rows);
                w.u64(*cols);
                w.u64(entries.len() as u64);
                for (r, c, v) in entries {
                    w.u64(*r);
                    w.u64(*c);
                    w.f64(*v);
                }
            }
        }
        push_record(&mut out, TAG_SESSION, &w.buf);
    }
    out
}

// ---------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------

/// Bounds-checked little-endian reader over a payload slice.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// File offset of `data[0]`, for error reporting.
    base: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.data.len() {
            return Err(StoreError::Malformed {
                offset: self.base + self.pos,
                what: "record payload shorter than its fields",
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn finish(&self) -> Result<(), StoreError> {
        if self.pos != self.data.len() {
            return Err(StoreError::Malformed {
                offset: self.base + self.pos,
                what: "record payload longer than its fields",
            });
        }
        Ok(())
    }
}

/// Decode a byte buffer produced by [`encode`]. Any corruption,
/// truncation, or version mismatch returns a typed error; this
/// function never panics on arbitrary input.
pub fn decode(data: &[u8]) -> Result<StoreBundle, StoreError> {
    let mut pos = 0usize;
    let need = |pos: usize, n: usize| -> Result<(), StoreError> {
        if pos + n > data.len() {
            Err(StoreError::Truncated { offset: data.len() })
        } else {
            Ok(())
        }
    };
    need(pos, 8)?;
    if &data[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    pos += 8;
    need(pos, 4)?;
    let version = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
    if version != STORE_FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    pos += 4;
    need(pos, 8)?;
    let count = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
    pos += 8;

    let mut bundle = StoreBundle::default();
    // Duplicate-key screens: a corrupt record must not silently
    // shadow a good one. Catalogue entries are keyed by their
    // catalogue key, tenants and sessions by their ids.
    let mut cat_seen: BTreeSet<CatalogueKey> = BTreeSet::new();
    let mut tenants_seen: BTreeSet<u64> = BTreeSet::new();
    let mut sessions_seen: BTreeSet<u64> = BTreeSet::new();

    for _ in 0..count {
        let rec_off = pos;
        need(pos, 1 + 8)?;
        let tag = data[pos];
        let len = u64::from_le_bytes(data[pos + 1..pos + 9].try_into().unwrap());
        pos += 9;
        let len = usize::try_from(len).map_err(|_| StoreError::Truncated { offset: rec_off })?;
        if len > data.len().saturating_sub(pos) {
            return Err(StoreError::Truncated { offset: data.len() });
        }
        let payload = &data[pos..pos + len];
        pos += len;
        need(pos, 8)?;
        let checksum = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
        pos += 8;
        if fnv1a(tag, payload) != checksum {
            return Err(StoreError::ChecksumMismatch { offset: rec_off });
        }
        let mut r = Reader {
            data: payload,
            pos: 0,
            base: rec_off + 9,
        };
        match tag {
            TAG_CATALOGUE => {
                let sk = StructureKey::from_bytes(r.take(5)?.try_into().unwrap());
                let kernel =
                    KernelKind::from_code(r.u8()?).ok_or(StoreError::Malformed {
                        offset: rec_off,
                        what: "unknown kernel code in catalogue entry",
                    })?;
                let pieces_log2 = r.u8()?;
                let samples = r.u64()?;
                let mean = r.f64()?;
                r.finish()?;
                let key = CatalogueKey {
                    structure: sk,
                    kernel,
                    pieces_log2,
                };
                if !cat_seen.insert(key) {
                    return Err(StoreError::Malformed {
                        offset: rec_off,
                        what: "duplicate catalogue key",
                    });
                }
                bundle.catalogue.push((key, samples, mean));
            }
            TAG_TENANT => {
                let tenant = r.u64()?;
                let weight = r.u32()?;
                r.finish()?;
                if !tenants_seen.insert(tenant) {
                    return Err(StoreError::Malformed {
                        offset: rec_off,
                        what: "duplicate tenant id",
                    });
                }
                bundle.tenants.push(StoreTenant { tenant, weight });
            }
            TAG_SESSION => {
                let session = r.u64()?;
                let tenant = r.u64()?;
                let unknowns = r.u64()?;
                let pieces = r.u64()?;
                let solver_code = r.u8()?;
                let solver_p0 = r.u64()?;
                let solver_f0 = r.f64()?;
                let solver_f1 = r.f64()?;
                let kernel_code = r.u8()?;
                if kernel_code != KERNEL_CODE_AUTO && KernelKind::from_code(kernel_code).is_none()
                {
                    return Err(StoreError::Malformed {
                        offset: rec_off,
                        what: "unknown kernel code in session",
                    });
                }
                let jobs_completed = r.u64()?;
                let steps_captured = r.u64()?;
                let operator = match r.u8()? {
                    0 => StoreOperator::Stencil {
                        kind: r.u8()?,
                        nx: r.u64()?,
                        ny: r.u64()?,
                        nz: r.u64()?,
                    },
                    1 => {
                        let rows = r.u64()?;
                        let cols = r.u64()?;
                        let nnz = r.u64()?;
                        // A flipped count must not trigger a huge
                        // allocation: every entry is 24 bytes, so the
                        // remaining payload bounds it.
                        let remaining = payload.len().saturating_sub(r.pos);
                        if (nnz as u128) * 24 > remaining as u128 {
                            return Err(StoreError::Malformed {
                                offset: rec_off,
                                what: "entry count exceeds record payload",
                            });
                        }
                        let mut entries = Vec::with_capacity(nnz as usize);
                        for _ in 0..nnz {
                            entries.push((r.u64()?, r.u64()?, r.f64()?));
                        }
                        StoreOperator::Assembled {
                            rows,
                            cols,
                            entries,
                        }
                    }
                    _ => {
                        return Err(StoreError::Malformed {
                            offset: rec_off,
                            what: "unknown operator discriminant",
                        })
                    }
                };
                r.finish()?;
                if !sessions_seen.insert(session) {
                    return Err(StoreError::Malformed {
                        offset: rec_off,
                        what: "duplicate session id",
                    });
                }
                bundle.sessions.push(StoreSession {
                    session,
                    tenant,
                    unknowns,
                    pieces,
                    solver_code,
                    solver_p0,
                    solver_f0,
                    solver_f1,
                    kernel_code,
                    jobs_completed,
                    steps_captured,
                    operator,
                });
            }
            _ => {
                return Err(StoreError::Malformed {
                    offset: rec_off,
                    what: "unknown record tag",
                })
            }
        }
    }
    if pos != data.len() {
        return Err(StoreError::Malformed {
            offset: pos,
            what: "trailing bytes after final record",
        });
    }
    Ok(bundle)
}

/// Encode `bundle` and write it to `path` atomically (write to a
/// sibling temp file, then rename).
pub fn save(path: &Path, bundle: &StoreBundle) -> Result<(), StoreError> {
    let bytes = encode(bundle);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and decode the store at `path`.
pub fn load(path: &Path) -> Result<StoreBundle, StoreError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> StoreBundle {
        let sk = StructureKey {
            nnz_log2: 12,
            diag_log2: 3,
            row_var_bucket: 1,
            dense_block: 4,
            stencil: 0,
        };
        StoreBundle {
            catalogue: vec![
                (
                    CatalogueKey {
                        structure: sk,
                        kernel: KernelKind::Dia,
                        pieces_log2: 3,
                    },
                    7,
                    1.25e-4,
                ),
                (
                    CatalogueKey {
                        structure: sk,
                        kernel: KernelKind::Csr,
                        pieces_log2: 3,
                    },
                    2,
                    -0.0, // sign bit must round-trip
                ),
            ],
            tenants: vec![
                StoreTenant {
                    tenant: 1,
                    weight: 1,
                },
                StoreTenant {
                    tenant: 2,
                    weight: 4,
                },
            ],
            sessions: vec![
                StoreSession {
                    session: 10,
                    tenant: 1,
                    unknowns: 4096,
                    pieces: 4,
                    solver_code: 0,
                    solver_p0: 0,
                    solver_f0: 0.0,
                    solver_f1: 0.0,
                    kernel_code: KernelKind::Dia.code(),
                    jobs_completed: 3,
                    steps_captured: 5,
                    operator: StoreOperator::Stencil {
                        kind: 1,
                        nx: 64,
                        ny: 64,
                        nz: 1,
                    },
                },
                StoreSession {
                    session: 11,
                    tenant: 2,
                    unknowns: 3,
                    pieces: 1,
                    solver_code: 2,
                    solver_p0: 30,
                    solver_f0: 1e-8,
                    solver_f1: f64::NEG_INFINITY,
                    kernel_code: 255,
                    jobs_completed: 0,
                    steps_captured: 0,
                    operator: StoreOperator::Assembled {
                        rows: 3,
                        cols: 3,
                        entries: vec![(0, 0, 2.0), (1, 1, -0.0), (2, 2, f64::MIN_POSITIVE)],
                    },
                },
            ],
        }
    }

    #[test]
    fn round_trip_bitwise() {
        let b = sample_bundle();
        let bytes = encode(&b);
        let b2 = decode(&bytes).unwrap();
        assert_eq!(b, b2);
        // -0.0 and subnormals must keep their exact bits.
        let (_, _, mean) = b2.catalogue[1];
        assert_eq!(mean.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn version_bump_rejected() {
        let mut bytes = encode(&sample_bundle());
        bytes[8] = 2; // version lives right after the magic
        match decode(&bytes) {
            Err(StoreError::UnsupportedVersion { found: 2 }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample_bundle());
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(StoreError::BadMagic)));
    }

    #[test]
    fn empty_bundle_round_trips() {
        let b = StoreBundle::default();
        assert_eq!(decode(&encode(&b)).unwrap(), b);
    }

    #[test]
    fn truncation_always_typed_error() {
        let bytes = encode(&sample_bundle());
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(r.is_err(), "truncated at {cut} decoded successfully");
        }
    }

    #[test]
    fn a_repeated_tenant_id_is_malformed() {
        let mut b = sample_bundle();
        // Tenant 2 twice, at weights 4 and 7: neither may win silently.
        b.tenants.push(StoreTenant {
            tenant: 2,
            weight: 7,
        });
        assert!(matches!(
            decode(&encode(&b)),
            Err(StoreError::Malformed {
                what: "duplicate tenant id",
                ..
            })
        ));
    }

    #[test]
    fn a_repeated_session_id_is_malformed() {
        let mut b = sample_bundle();
        // Session 10 again, now owned by the other tenant.
        let mut twin = b.sessions[1].clone();
        twin.session = b.sessions[0].session;
        b.sessions.push(twin);
        assert!(matches!(
            decode(&encode(&b)),
            Err(StoreError::Malformed {
                what: "duplicate session id",
                ..
            })
        ));
    }

    #[test]
    fn save_load_file() {
        let dir = std::env::temp_dir().join("kdr_store_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.kdrstore");
        let b = sample_bundle();
        save(&path, &b).unwrap();
        assert_eq!(load(&path).unwrap(), b);
        std::fs::remove_file(&path).unwrap();
    }
}
