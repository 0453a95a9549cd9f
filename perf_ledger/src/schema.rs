//! What the benchmark declares: workloads, metrics, bounds. The
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`perf_ledger --write-manifest`) and a test keeps the two
//! equal, so the numbers a run prints and the numbers the manifest
//! promises cannot drift apart.

use std::fmt::Write as _;

use crate::spans::Layer;

/// About how long one run's fixed work takes on this host, in seconds:
/// the manifest's `run_seconds`. A run is never cut short or stretched
/// to it; `--seconds` is accepted and changes nothing.
pub const RUN_SECONDS: u64 = 24;

/// How much fixed work a run of a workload does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Rounds: each starts from fresh state and times its cold set-ups
    /// apart from its blocks.
    pub rounds: usize,
    /// Timed blocks per round.
    pub blocks: usize,
    /// Operations per block.
    pub k: usize,
}

/// A workload and its frozen shape.
pub struct WorkloadDecl {
    pub name: &'static str,
    pub shape: Shape,
    pub why: &'static str,
}

/// The four workloads. Each shape was picked once from probe runs so
/// that a run's fixed work takes about [`RUN_SECONDS`], then frozen.
///
/// A block of the warm sequences spans four planners of three solves
/// each ([`crate::workloads::seq::SOLVES_PER_PLANNER`]), so its p90 is
/// the eleventh of twelve samples and a run has 20 or 24 set-ups.
pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "seq_kernel",
        shape: Shape {
            rounds: 5,
            blocks: 1,
            k: 12,
        },
        why: "warm CG solves, lap3d27 40^3 in 4 pieces, 1 worker (5 rounds x 1 block x k=12, 3 solves per planner): kernels take their largest share of an iteration here, so kernel and format work shows here first",
    },
    WorkloadDecl {
        name: "seq_tax",
        shape: Shape {
            rounds: 13,
            blocks: 1,
            k: 12,
        },
        why: "the same calls on lap2d 96^2, 16 pieces, 1 worker (13 rounds x 1 block x k=12): ~103 tasks and two reduction waits around 30 us of kernels per iteration, so task-path work shows here only",
    },
    WorkloadDecl {
        name: "cold_irregular",
        shape: Shape {
            rounds: 8,
            blocks: 2,
            k: 10,
        },
        why: "a fresh planner per operation over a seeded scatter matrix, n=16384, 24 BiCGStab iterations (8 rounds x 2 blocks x k=10): co-partitioning, lowering, capture, no replay; registration work is paid here",
    },
    WorkloadDecl {
        name: "fleet_mixed",
        shape: Shape {
            rounds: 12,
            blocks: 3,
            k: 40,
        },
        why: "2-shard service, 14 small 4-piece tenants and 2 large matrix-free ones, closed loop, fixed quotas (12 rounds x 3 blocks x k=40 jobs): scheduler, store and session ageing, little solver work",
    },
];

/// The frozen shape of `workload`.
pub fn shape_of(workload: &str) -> Option<Shape> {
    WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map(|w| w.shape)
}

/// Whether a larger or a smaller value of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: `bound` is the share of the parent's median
/// by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The six end-to-end metrics, all measured with tracing off. The five
/// timings are at the host's reference speed
/// ([`crate::host::CALIBRATION_REF_MS`]).
///
/// Every bound is 0.25, the most a bound may be. The host moves between
/// speeds a quarter to a half apart, every few seconds to minutes; as
/// the clock reads them, ten runs of `seq_tax` spread (interquartile
/// range over median) by 7% in a calm hour and by 25% in a restless
/// one, the service rounds by 26%. Divided by the calibration probe's
/// slowdown the same runs spread by 2% to 8%, with the restless hours at
/// the top of that range, and a bound has to hold in those. The README's
/// resolution table gives the spread of every metric on every workload:
/// a difference inside it is unresolved, not "unchanged".
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A single-layer metric (no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric except the nine `<layer>.span_self_ms`
/// (see [`per_layer_names`]). A ledger run prints all of them.
pub const PER_LAYER: [PerLayer; 67] = [
    lower("index.copartition_ms", "ms"),
    lower("index.halo_intervals", "count"),
    lower("sparse.lower_csr_ns_per_nnz", "ns"),
    lower("sparse.lower_dia_ns_per_nnz", "ns"),
    lower("sparse.spmv_dia_us", "us"),
    lower("sparse.spmv_csr_us", "us"),
    lower("sparse.spmv_bcsr_us", "us"),
    lower("sparse.spmv_ell_us", "us"),
    lower("sparse.spmv_stencil_us", "us"),
    higher("sparse.spmv_dia_gbps", "GB/s"),
    higher("sparse.spmv_dia_roof_frac", "ratio"),
    lower("sparse.value_bytes", "bytes"),
    lower("runtime.empty_task_us", "us"),
    lower("runtime.chain_task_us", "us"),
    lower("runtime.replay_task_us", "us"),
    lower("runtime.fence_us", "us"),
    lower("runtime.tasks_per_iter", "count"),
    lower("runtime.queue_wait_p50_us", "us"),
    higher("runtime.worker_busy_frac", "ratio"),
    lower("runtime.steal_frac", "ratio"),
    lower("runtime.crit_path_frac", "ratio"),
    lower("core.finalize_ms", "ms"),
    lower("core.first_solve_ms", "ms"),
    lower("core.iters_per_op", "count"),
    lower("core.iter_us", "us"),
    lower("core.kernel_floor_us", "us"),
    lower("core.runtime_tax", "ratio"),
    lower("core.fences_per_iter", "count"),
    lower("core.reduction_stall_frac", "ratio"),
    higher("core.trace_hit_rate", "ratio"),
    lower("core.analyzed_frac", "ratio"),
    lower("core.true_resid_rel", "ratio"),
    lower("core.fusedcg_ratio", "ratio"),
    lower("core.iter_us_256x64", "us"),
    lower("baselines.bsp1_iter_us", "us"),
    lower("baselines.bsp_ratio", "ratio"),
    lower("machine.modeled_iter_us", "us_modeled"),
    lower("machine.sim_wall_ms", "ms"),
    lower("store.save_ms", "ms"),
    lower("store.open_ms", "ms"),
    lower("store.bytes", "bytes"),
    lower("store.warm_ttfi_ms", "ms"),
    higher("store.catalogue_hit_rate", "ratio"),
    lower("store.prediction_err_pct", "%"),
    lower("service.submit_us", "us"),
    lower("service.queue_wait_p50_ms", "ms"),
    lower("service.ttfi_cold_ms", "ms"),
    lower("service.ttfi_warm_ms", "ms"),
    lower("service.turnaround_p50_ms", "ms"),
    higher("service.iters_per_s", "1/s"),
    lower("service.sched_tax", "ratio"),
    lower("service.job_age_slope", "ratio"),
    lower("service.large_job_p50_ms", "ms"),
    lower("service.supervise_us", "us"),
    lower("service.shard_imbalance", "ratio"),
    lower("service.fairness_ratio", "ratio"),
    lower("service.retries", "count"),
    lower("service.rejects", "count"),
    higher("bench.triad_gbps", "GB/s"),
    lower("bench.calib_ms", "ms"),
    lower("bench.calib_ratio", "ratio"),
    lower("bench.op_cv", "ratio"),
    higher("bench.ops", "count"),
    higher("bench.nproc", "count"),
    higher("bench.untraced_ops_per_s", "1/s"),
    higher("bench.traced_ops_per_s", "1/s"),
    lower("bench.trace_overhead_frac", "ratio"),
];

/// Name of a layer's span self-time metric.
pub fn span_self_name(layer: Layer) -> String {
    format!("{}.span_self_ms", layer.prefix())
}

/// `(name, unit, better)` of every per-layer metric, in ledger order.
pub fn per_layer_names() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit, m.better))
        .collect();
    all.extend(
        Layer::ALL
            .iter()
            .map(|&l| (span_self_name(l), "ms", Better::Lower)),
    );
    all
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perf_ledger/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perf_ledger\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("String write");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .expect("String write");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        )
        .expect("String write");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer_names();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better.word()
        )
        .expect("String write");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declarations_meet_the_manifest_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            let shape = format!(
                "{} rounds x {} block{} x k={}",
                w.shape.rounds,
                w.shape.blocks,
                if w.shape.blocks == 1 { "" } else { "s" },
                w.shape.k
            );
            assert!(
                w.why.contains(&shape),
                "{}: why states the frozen shape",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit));
            assert!(names.insert(m.name.to_string()), "{} repeats", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let layers = per_layer_names();
        assert!((1..=128).contains(&layers.len()));
        for (name, unit, _) in &layers {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(names.insert(name.clone()), "{name} repeats");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn manifest_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest_json(), "regenerate with --write-manifest");
    }
}
