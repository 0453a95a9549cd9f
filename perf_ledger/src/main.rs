//! `perf_ledger` — the repository's benchmark.
//!
//! ```text
//! perf_ledger --workload <name> --seed <n> [--seconds <s>] --trace <0|1|2>
//! perf_ledger --selfcheck
//! perf_ledger --write-manifest <path>
//! ```
//!
//! A run's work is fixed per workload (`schema::WORKLOADS`). `--seconds`
//! is part of the driver's command line and is accepted, but sets
//! nothing: the same flags always do the same work.
//!
//! `--trace 0` measures the six end-to-end metrics with tracing off.
//! `--trace 1` is the ledger pass: one untraced and one traced round
//! of the workload, one round of a companion workload for the layers
//! the workload never enters, and the single-layer probes, printing
//! every per-layer metric; no end-to-end figure comes from it. `--trace 2`
//! does both. Every metric is printed by name with its unit; the last
//! line of standard output is the result as one JSON object.

mod host;
mod inputs;
mod layers;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::{Layer, Recorder};
use stats::Block;
use workloads::{Notes, Round, RoundCtx};

/// Directory for the files a run leaves behind (spans, the selfcheck
/// table, the fleet's store file): `perf_ledger/out/`.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

/// A measured value with its unit.
type Metric = (f64, &'static str);

/// What one invocation reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// The end-to-end pass: every round of the shape, untraced.
fn end_to_end(workload: &str, seed: u64, out: &mut Outcome) {
    let shape = schema::shape_of(workload).expect("the workload name was checked");
    let mut w = workloads::build(workload, seed).expect("the workload name was checked");
    let rec = Recorder::new(false);
    let ctx = RoundCtx {
        blocks: shape.blocks,
        k: shape.k,
        rec: &rec,
        trace: false,
    };
    let rounds: Vec<Round> = (0..shape.rounds).map(|_| w.round(&ctx)).collect();
    let blocks: Vec<Block> = rounds
        .iter()
        .flat_map(|r| r.blocks.iter().cloned())
        .collect();
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setups_s.iter().copied())
        .collect();
    let list = |v: &[f64], digits: usize| -> String {
        let items: Vec<String> = v.iter().map(|t| format!("{t:.digits$}")).collect();
        items.join(" ")
    };
    for (r, round) in rounds.iter().enumerate() {
        println!("# round {r}: set-ups [{}] s", list(&round.setups_s, 3));
        for (b, block) in round.blocks.iter().enumerate() {
            println!(
                "# round {r} block {b}: calib {:.2} ms (host x{:.2}), cpu/op {:.1} ms, ops [{}] ms",
                block.calib_ms,
                block.calib_ms / host::CALIBRATION_REF_MS,
                block.cpu_ms / block.op_ms.len() as f64,
                list(&block.op_ms, 1)
            );
        }
    }
    for decl in &schema::END_TO_END {
        let value = match decl.name {
            "setup_s" => stats::median(&setups),
            "ops_per_s" => stats::block_median_throughput(&blocks),
            "op_p50_ms" => stats::pooled_median_ms(&blocks),
            "op_p90_ms" => stats::block_median_p90_ms(&blocks),
            "cpu_ms_per_op" => stats::pooled_cpu_ms_per_op(&blocks),
            "peak_rss_mb" => host::peak_rss_mb(),
            other => unreachable!("no estimator for the declared metric {other}"),
        };
        out.metrics
            .insert(decl.name.to_string(), (value, decl.unit));
    }
    out.attempted += rounds.iter().map(|r| r.attempted).sum::<u64>();
    out.failed += rounds.iter().map(|r| r.failed).sum::<u64>();
    let samples: usize = blocks.iter().map(|b| b.op_ms.len()).sum();
    let slowdowns: Vec<f64> = blocks
        .iter()
        .map(|b| b.calib_ms / host::CALIBRATION_REF_MS)
        .collect();
    println!(
        "# {workload}: {} rounds x {} blocks x k={}; setup_s = median of {} set-ups, op_p50_ms over \
         {samples} operations, op_p90_ms = median of {} per-block p90s, block_cv = {:.3}, \
         core.iters_per_op = {}; every time is divided by the host's slowdown around it, whose \
         median over the blocks was x{:.3} (x{:.3} to x{:.3})",
        shape.rounds,
        shape.blocks,
        shape.k,
        setups.len(),
        blocks.len(),
        stats::block_cv(&blocks),
        rounds[0].notes["core.iters_per_op"],
        stats::median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
    );
}

/// The ledger pass: one untraced and one traced round of the
/// workload, one untraced round of a companion workload, the probes.
///
/// The companion (`fleet_mixed`, or `seq_tax` when the workload is the
/// fleet) fills in the layers the workload itself never enters, so that
/// every ledger prints a measured value for every per-layer metric.
fn ledger(workload: &str, seed: u64, out: &mut Outcome) {
    let round_of = |name: &str, rec: &Recorder, trace: bool| {
        let shape = schema::shape_of(name).expect("a declared workload");
        workloads::build(name, seed)
            .expect("a declared workload")
            .round(&RoundCtx {
                blocks: shape.blocks,
                k: shape.k,
                rec,
                trace,
            })
    };
    let quiet = Recorder::new(false);
    let rec = Recorder::new(true);
    let untraced = round_of(workload, &quiet, false);
    let traced = round_of(workload, &rec, true);
    let companion = if workload == "fleet_mixed" {
        "seq_tax"
    } else {
        "fleet_mixed"
    };
    let mut probes = Notes::new();
    layers::probe_all(&mut probes, &rec, &layers::problem_of(workload, seed), seed);
    let filler = round_of(companion, &rec, false);

    // Timings come from the untraced round; the traced round adds only
    // what needs the event log; the companion only what is still missing.
    let mut notes: Notes = untraced.notes.clone();
    for name in [
        "runtime.queue_wait_p50_us",
        "runtime.worker_busy_frac",
        "runtime.crit_path_frac",
    ] {
        if let Some(v) = traced.notes.get(name) {
            notes.insert(name, *v);
        }
    }
    for (name, value) in &filler.notes {
        notes.entry(name).or_insert(*value);
    }
    notes.extend(probes);

    let p50_ms = stats::pooled_median_ms(&untraced.blocks);
    let iter_us = if workload == "fleet_mixed" {
        1e6 / notes["service.iters_per_s"]
    } else {
        p50_ms * 1e3 / notes["core.iters_per_op"]
    };
    notes.insert("core.iter_us", iter_us);
    notes.insert("core.runtime_tax", iter_us / notes["core.kernel_floor_us"]);
    notes.insert(
        "baselines.bsp_ratio",
        iter_us / notes["baselines.bsp1_iter_us"],
    );
    let calib: Vec<f64> = [&untraced, &traced, &filler]
        .iter()
        .flat_map(|r| r.blocks.iter().map(|b| b.calib_ms))
        .collect();
    let (lo, hi) = calib.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
        (lo.min(c), hi.max(c))
    });
    let op_ms: Vec<f64> = untraced
        .blocks
        .iter()
        .flat_map(|b| b.op_ms.iter().copied())
        .collect();
    let mean_ms = op_ms.iter().sum::<f64>() / op_ms.len() as f64;
    let var = op_ms.iter().map(|t| (t - mean_ms).powi(2)).sum::<f64>() / op_ms.len() as f64;
    let untraced_ops = stats::block_median_throughput(&untraced.blocks);
    let traced_ops = stats::block_median_throughput(&traced.blocks);
    notes.insert("bench.calib_ms", stats::median(&calib));
    notes.insert("bench.calib_ratio", hi / lo);
    notes.insert("bench.op_cv", var.sqrt() / mean_ms);
    notes.insert("bench.ops", op_ms.len() as f64);
    notes.insert("bench.nproc", host::nproc() as f64);
    notes.insert("bench.untraced_ops_per_s", untraced_ops);
    notes.insert("bench.traced_ops_per_s", traced_ops);
    notes.insert("bench.trace_overhead_frac", 1.0 - traced_ops / untraced_ops);
    for &layer in &Layer::ALL {
        out.metrics
            .insert(schema::span_self_name(layer), (rec.self_ms(layer), "ms"));
    }
    for m in &schema::PER_LAYER {
        // A metric no layer produced is reported as NaN, which `main`
        // refuses to print as a result.
        let value = notes.get(m.name).copied().unwrap_or(f64::NAN);
        out.metrics.insert(m.name.to_string(), (value, m.unit));
    }
    out.attempted += untraced.attempted + traced.attempted + filler.attempted;
    out.failed += untraced.failed + traced.failed + filler.failed;

    let spans_path = out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&spans_path, rec.to_json_lines()));
    match written {
        Ok(()) => println!("# {} spans written to {}", rec.len(), spans_path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}

/// Run one workload; `trace` is 0 (end to end), 1 (ledger) or 2 (both).
fn run(workload: &str, seed: u64, trace: u8) -> Outcome {
    let mut out = Outcome::default();
    if trace != 1 {
        end_to_end(workload, seed, &mut out);
    }
    if trace != 0 {
        ledger(workload, seed, &mut out);
    }
    out
}

/// The result as the single-line JSON object the driver reads.
fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, (name, (value, unit))) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("String write");
    }
    s.push_str("}}");
    s
}

/// Value of `name` in a result line printed by [`result_json`].
fn metric_in(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// A/A self-check: every workload five times — each run a process of
/// its own, so that `peak_rss_mb` is that run's — dealt alternately
/// into two sets; fails if any end-to-end median differs between the
/// sets by more than the metric's bound. The table goes to
/// `out/selfcheck.txt`.
fn selfcheck() -> ExitCode {
    const RUNS: usize = 5;
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut table = String::new();
    let mut ok = true;
    for w in &schema::WORKLOADS {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for run_no in 0..RUNS {
            let child = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &(1000 + run_no).to_string()])
                .output()
                .expect("the benchmark can start itself");
            let stdout = String::from_utf8_lossy(&child.stdout);
            let result = stdout.lines().last().unwrap_or_default();
            ok &= child.status.success() && result.contains("\"correct\": true");
            for m in &schema::END_TO_END {
                let value = metric_in(result, m.name).unwrap_or(f64::NAN);
                ok &= value.is_finite();
                sets[run_no % 2].entry(m.name).or_default().push(value);
            }
        }
        for m in &schema::END_TO_END {
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let (qa, qb) = (stats::quartiles(a), stats::quartiles(b));
            let diff = (ma - mb).abs() / ma.min(mb);
            let verdict = if diff <= m.bound { "ok" } else { "DIFFERS" };
            ok &= diff <= m.bound;
            writeln!(
                table,
                "{:<15} {:<14} A n={} median {:>10.4} [{:>10.4}, {:>10.4}]  B n={} median {:>10.4} [{:>10.4}, {:>10.4}]  diff {:>6.2}% bound {:>4.0}% {verdict}",
                w.name, m.name, a.len(), ma, qa.0, qa.1, b.len(), mb, qb.0, qb.1,
                diff * 100.0, m.bound * 100.0,
            )
            .expect("String write");
        }
    }
    print!("{table}");
    let path = out_dir().join("selfcheck.txt");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &table))
    {
        eprintln!("selfcheck table not written to {}: {e}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf_ledger --workload <{}> --seed <n> [--seconds <s>] --trace <0|1|2>\n       \
         perf_ledger --selfcheck\n       \
         perf_ledger --write-manifest <path>",
        schema::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    if let Some(path) = value_of("--write-manifest") {
        return match std::fs::write(path, schema::manifest_json()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.iter().any(|a| a == "--selfcheck") {
        return selfcheck();
    }
    let (Some(workload), Some(Ok(seed)), Some(Ok(trace))) = (
        value_of("--workload"),
        value_of("--seed").map(str::parse::<u64>),
        value_of("--trace").map(str::parse::<u8>),
    ) else {
        return usage();
    };
    if schema::shape_of(workload).is_none() || trace > 2 {
        return usage();
    }
    match value_of("--seconds").map(str::parse::<u64>) {
        None => {}
        Some(Ok(seconds)) if seconds == schema::RUN_SECONDS => {}
        Some(Ok(seconds)) => println!(
            "# --seconds {seconds} sets nothing: the work is fixed (about {} s)",
            schema::RUN_SECONDS
        ),
        Some(Err(_)) => return usage(),
    }
    host::pin_mmap_threshold();
    host::run_on_one_cpu();
    let out = run(workload, seed, trace);
    let missing: Vec<&str> = out
        .metrics
        .iter()
        .filter(|(_, (value, _))| !value.is_finite())
        .map(|(name, _)| name.as_str())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "no result: not produced or not finite: {}",
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    for (name, (value, unit)) in &out.metrics {
        if *value != 0.0 && value.abs() < 1e-3 {
            println!("{name:<32} {value:>16.6e} {unit}");
        } else {
            println!("{name:<32} {value:>16.6} {unit}");
        }
    }
    println!("failed / attempted = {} / {}", out.failed, out.attempted);
    println!("{}", result_json(&out));
    // A printed result exits 0 even with failed operations: the
    // result line carries them.
    ExitCode::SUCCESS
}
