//! Integration tests for the observability layer: span nesting,
//! never-blocking ring buffers, Chrome-trace schema stability, metrics
//! consistency with the traced-stepping contract, and what the event
//! layer adds to a replayed step, off and on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kdr_core::{solve_traced, CgSolver, ExecBackend, PhaseSplit, Planner, SolveControl, Solver};
use kdr_index::{IntervalSet, Partition};
use kdr_runtime::{
    chrome_trace_json, critical_path, Buffer, Provenance, Runtime, TaskBuilder, TaskSpan,
};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

// ----- helpers ------------------------------------------------------

fn exec_planner(s: Stencil, pieces: usize, events: bool) -> Planner<f64> {
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let backend = ExecBackend::<f64>::new(4);
    backend.set_event_logging(events);
    let mut planner = Planner::new(Box::new(backend));
    let part = Partition::equal_blocks(n, pieces);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 11));
    planner
}

fn with_exec<R>(planner: &mut Planner<f64>, f: impl FnOnce(&mut ExecBackend<f64>) -> R) -> R {
    planner.with_backend(|b| f(b.as_any().downcast_mut::<ExecBackend<f64>>().unwrap()))
}

// ----- span lifecycle -----------------------------------------------

/// Every span's timestamps are properly nested (submit ≤ ready ≤
/// start ≤ end ≤ retire) and every recorded dependence edge is
/// honored in time: a predecessor's body finishes before its
/// successor becomes ready.
#[test]
fn spans_nest_and_respect_dependences() {
    let rt = Runtime::new(3);
    rt.enable_events(true);
    let a = Buffer::filled(64, 0.0f64);
    for wave in 0..20 {
        // Alternating full-buffer writes: a strict chain.
        rt.submit(
            TaskBuilder::new(if wave % 2 == 0 { "even" } else { "odd" })
                .write_all(&a)
                .body(move |ctx| {
                    let w = ctx.write::<f64>(0);
                    w.set(0, wave as f64);
                }),
        )
        .unwrap();
    }
    let spans = rt.take_spans();
    assert_eq!(spans.len(), 20);
    let by_id: std::collections::HashMap<u64, &TaskSpan> =
        spans.iter().map(|s| (s.id, s)).collect();
    for s in &spans {
        assert!(
            s.submit_ns <= s.ready_ns,
            "submit>{}ready task {}",
            s.ready_ns,
            s.id
        );
        assert!(s.ready_ns <= s.start_ns, "ready>start task {}", s.id);
        assert!(s.start_ns <= s.end_ns, "start>end task {}", s.id);
        assert!(s.end_ns <= s.retire_ns, "end>retire task {}", s.id);
        assert_eq!(s.provenance, Provenance::Analyzed);
        for d in &s.deps {
            let pred = by_id[d];
            assert!(
                pred.end_ns <= s.ready_ns,
                "dep {} must finish before {} is ready",
                d,
                s.id
            );
        }
    }
    // The chain produced 19 edges; the critical path is the chain.
    let cp = critical_path(&spans);
    assert_eq!(cp.path.len(), 20, "chain critical path spans every task");
}

/// Replayed submissions carry Replayed provenance in their spans.
#[test]
fn replayed_spans_carry_provenance() {
    let rt = Runtime::new(2);
    rt.enable_events(true);
    let v = Buffer::filled(4, 0.0f64);
    let step = |v: &Buffer<f64>| {
        TaskBuilder::new("inc").write_all(v).body(|ctx| {
            let w = ctx.write::<f64>(0);
            w.set(0, w.get(0) + 1.0);
        })
    };
    rt.begin_trace().unwrap();
    rt.submit(step(&v)).unwrap();
    rt.submit(step(&v)).unwrap();
    let trace = rt.end_trace().unwrap();
    rt.replay(&trace, vec![step(&v), step(&v)]).unwrap();
    let spans = rt.take_spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].provenance, Provenance::Analyzed);
    assert_eq!(spans[1].provenance, Provenance::Analyzed);
    assert_eq!(spans[2].provenance, Provenance::Replayed);
    assert_eq!(spans[3].provenance, Provenance::Replayed);
    // The replayed edge was recorded in the span deps.
    assert_eq!(spans[3].deps, vec![spans[2].id]);
}

// ----- ring buffer never blocks -------------------------------------

/// With a ring far smaller than the task count, every task still
/// executes (recording overwrites, never blocks) and the loss is
/// reported as a drop count.
#[test]
fn ring_overflow_drops_instead_of_blocking() {
    const WORKERS: usize = 2;
    const CAPACITY: usize = 8;
    const TASKS: usize = 300;
    let rt = Runtime::with_event_capacity(WORKERS, CAPACITY);
    rt.enable_events(true);
    let v = Buffer::filled(1, 0.0f64);
    for _ in 0..TASKS {
        rt.submit(TaskBuilder::new("inc").write_all(&v).body(|ctx| {
            let w = ctx.write::<f64>(0);
            w.set(0, w.get(0) + 1.0);
        }))
        .unwrap();
    }
    let spans = rt.take_spans();
    // Nothing blocked: all 300 bodies ran.
    assert_eq!(v.snapshot(), vec![300.0]);
    // Retention is bounded by ring capacity: one ring per worker, and
    // a third for the driver lane — the thread waiting in `take_spans`
    // runs ready bodies itself and records them there (`SpanLog`'s
    // last lane, `worker == num_workers`).
    let retained = (WORKERS + 1) * CAPACITY;
    assert!(spans.len() <= retained, "retained {} spans", spans.len());
    let m = rt.metrics();
    assert_eq!(m.tasks_executed, 300);
    assert_eq!(m.events_recorded, 300);
    assert_eq!(m.events_dropped + spans.len() as u64, 300);
    assert!(m.events_dropped >= (TASKS - retained) as u64);
}

/// Event logging off: nothing recorded, nothing retained.
#[test]
fn disabled_events_record_nothing() {
    let rt = Runtime::new(2);
    let v = Buffer::filled(1, 0.0f64);
    for _ in 0..10 {
        rt.submit(TaskBuilder::new("inc").write_all(&v).body(|ctx| {
            let w = ctx.write::<f64>(0);
            w.set(0, w.get(0) + 1.0);
        }))
        .unwrap();
    }
    let spans = rt.take_spans();
    assert!(spans.is_empty());
    let m = rt.metrics();
    assert_eq!(m.events_recorded, 0);
    assert_eq!(m.events_dropped, 0);
    assert_eq!(m.tasks_executed, 10);
}

// ----- Chrome trace golden schema -----------------------------------

/// Replace the value after every occurrence of `key` with `#` —
/// timestamps and durations vary run to run; everything else in the
/// export is deterministic for a 1-worker runtime.
fn canonicalize(json: &str, keys: &[&str]) -> String {
    let mut out = json.to_string();
    for key in keys {
        let pat = format!("\"{key}\":");
        let mut result = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(&pat) {
            let after = pos + pat.len();
            result.push_str(&rest[..after]);
            let tail = &rest[after..];
            let num_len = tail
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(tail.len());
            result.push('#');
            rest = &tail[num_len..];
        }
        result.push_str(rest);
        out = result;
    }
    out
}

/// The canonicalized Chrome-trace export of a fixed DAG matches the
/// committed golden file — any schema change must be deliberate.
/// Regenerate with `BLESS=1 cargo test -p kdr-integration chrome_trace_schema`.
#[test]
fn chrome_trace_schema_matches_golden() {
    // One worker, held inside `hold` (task 0) until the DAG behind it
    // has run: the thread draining the log fences first, finds the
    // DAG ready and the worker busy, and runs it itself, in order. So
    // the export has both kinds of track — `worker 0` with one slice
    // and `driver` (tid 1, one past the last worker) with four — and
    // deterministic lanes, order and task ids.
    let rt = Runtime::new(1);
    rt.enable_events(true);
    let held = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (arrived, gate) = (Arc::clone(&held), Arc::clone(&release));
    rt.submit(TaskBuilder::new("hold").body(move |_| {
        arrived.store(true, Ordering::Release);
        while !gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }))
    .unwrap();
    while !held.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let a = Buffer::filled(8, 0.0f64);
    let b = Buffer::filled(8, 0.0f64);
    rt.submit(TaskBuilder::new("load").write_all(&a).body(|_| {}))
        .unwrap();
    rt.submit(
        TaskBuilder::new("compute")
            .read_all(&a)
            .write(&b, IntervalSet::from_range(0, 4))
            .body(|_| {}),
    )
    .unwrap();
    rt.submit(
        TaskBuilder::new("compute")
            .read_all(&a)
            .write(&b, IntervalSet::from_range(4, 8))
            .body(|_| {}),
    )
    .unwrap();
    rt.submit(
        TaskBuilder::new("store")
            .read_all(&b)
            .body(move |_| release.store(true, Ordering::Release)),
    )
    .unwrap();
    let spans = rt.take_spans();
    assert_eq!(spans.len(), 5);
    let json = chrome_trace_json(&spans);
    let canon = canonicalize(&json, &["ts", "dur", "queue_wait_us"]);

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/chrome_trace.golden");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(golden_path, &canon).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with BLESS=1 to create");
    assert_eq!(
        canon, golden,
        "Chrome trace schema drifted from golden file"
    );
}

// ----- minimal JSON validity parser ---------------------------------

/// A tiny recursive-descent JSON parser: validates syntax only (no
/// value model), enough to prove the export is well-formed without a
/// JSON dependency.
struct Json<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Json<'a> {
    fn new(s: &'a str) -> Self {
        Json {
            s: s.as_bytes(),
            i: 0,
        }
    }
    fn ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }
    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }
    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }
    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.string()?;
            self.eat(b':')?;
            self.value()?;
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object at {:?} byte {}", other, self.i)),
            }
        }
    }
    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                other => return Err(format!("bad array at {:?} byte {}", other, self.i)),
            }
        }
    }
    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => self.i += 1, // skip escaped char
                c if c < 0x20 => return Err(format!("raw control byte {c} in string")),
                _ => {}
            }
        }
        Err("unterminated string".into())
    }
    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        if self.i == start {
            Err(format!("empty number at byte {start}"))
        } else {
            Ok(())
        }
    }
    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.ws();
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
    fn parse_complete(mut self) -> Result<(), String> {
        self.value()?;
        self.ws();
        if self.i == self.s.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.i))
        }
    }
}

/// A real traced CG solve with events on produces well-formed Chrome
/// trace JSON with the required event fields.
#[test]
fn cg_trace_json_is_valid_and_complete() {
    let mut planner = exec_planner(Stencil::lap2d(16, 16), 4, true);
    let mut solver = CgSolver::new(&mut planner);
    let (report, _trace) = solve_traced(&mut planner, &mut solver, SolveControl::fixed(5));
    assert_eq!(report.unwrap().iters, 5);
    drop(solver);
    let spans = with_exec(&mut planner, |b| b.take_spans());
    assert!(!spans.is_empty());
    let json = chrome_trace_json(&spans);
    Json::new(&json).parse_complete().expect("invalid JSON");
    // Schema essentials for Perfetto: the traceEvents wrapper, X
    // duration events with ts/dur, and worker metadata.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"M\""));
    assert!(json.contains("\"ts\":"));
    assert!(json.contains("\"dur\":"));
    assert!(json.contains("\"provenance\":\"replayed\""));
    // Solver kernels show up by name.
    assert!(json.contains("\"name\":\"dot_partial\""));
    assert!(json.contains("\"name\":\"axpy\""));
    assert!(json.contains("\"name\":\"axpy+dot_partial\""));
    // The phase split sees SpMV work.
    let split = PhaseSplit::from_spans(&spans);
    assert!(split.spmv_ns > 0);
    assert!(split.dot_ns > 0);
}

// ----- metrics consistency with traced stepping ---------------------

/// `MetricsSnapshot`/`ExecMetrics` agree with the sim_consistency
/// contract: steady-state CG replays (steps - 4 at minimum), the
/// task-level analyzed/replayed counters add up, and the solver-level
/// trace sees the same outcomes.
#[test]
fn metrics_agree_with_traced_stepping_contract() {
    let steps = 30;
    let mut planner = exec_planner(Stencil::lap2d(24, 24), 4, true);
    let mut solver = CgSolver::new(&mut planner);
    let (report, trace) = solve_traced(&mut planner, &mut solver, SolveControl::fixed(steps));
    assert_eq!(report.unwrap().iters, steps);
    drop(solver);
    planner.fence();
    let metrics = with_exec(&mut planner, |b| b.metrics());

    // Solver-level outcomes match backend step counters.
    assert_eq!(trace.iterations.len(), steps);
    assert_eq!(trace.steps_replayed() as u64, metrics.steps_replayed);
    assert!(
        metrics.steps_replayed >= (steps as u64) - 4,
        "steady-state CG must replay: {metrics:?}"
    );
    assert!(metrics.trace_hit_rate() > 0.8);

    // Task-level counters are internally consistent.
    assert_eq!(
        metrics.runtime.tasks_submitted,
        metrics.runtime.tasks_analyzed + metrics.runtime.tasks_replayed
    );
    assert!(metrics.runtime.tasks_replayed > metrics.runtime.tasks_analyzed);

    // Scalar arena stays bounded and the cache holds the CG shapes.
    assert!(metrics.scalar_slots < 32);
    assert!(metrics.trace_cache_len >= 1);
    assert!(metrics.trace_cache_len <= metrics.trace_cache_cap);

    // Replayed steps are fused: fewer nodes were scheduled than bodies
    // ran, and every node submitted was executed.
    assert!(metrics.runtime.tasks_fused > 0, "{metrics:?}");
    assert_eq!(
        metrics.runtime.tasks_executed,
        metrics.runtime.tasks_submitted
    );
    // Every executed body got a span of its own, fused or not (no
    // drops at default capacity).
    let bodies = metrics.runtime.tasks_executed + metrics.runtime.tasks_fused;
    assert_eq!(metrics.runtime.events_recorded, bodies);
    assert_eq!(metrics.runtime.events_dropped, 0);
    assert_eq!(
        metrics.runtime.task_counts.values().sum::<u64>(),
        bodies,
        "per-name counts stay per body"
    );
}

// ----- what the event layer adds to a replayed step ------------------

/// Twenty-four CG steps, the last sixteen of them replays: the change
/// in the backend's metrics over those sixteen and the spans they left.
fn replayed_window(events: bool) -> (kdr_core::ExecMetrics, kdr_core::ExecMetrics, Vec<TaskSpan>) {
    let mut planner = exec_planner(Stencil::lap2d(64, 64), 8, events);
    let mut solver = CgSolver::new(&mut planner);
    let mut step = |planner: &mut Planner<f64>| {
        planner.step_begin();
        solver.step(planner);
        planner.step_end(&[]).0
    };
    for _ in 0..8 {
        step(&mut planner);
    }
    planner.fence();
    let before = with_exec(&mut planner, |b| {
        b.take_spans();
        b.metrics()
    });
    for _ in 0..16 {
        assert_eq!(step(&mut planner), kdr_core::StepOutcome::Replayed);
    }
    planner.fence();
    with_exec(&mut planner, |b| (before, b.metrics(), b.take_spans()))
}

/// The event layer, *disabled*, adds nothing to the traced fast path,
/// and the fast path builds nothing: a replayed step lowers no task,
/// analyzes none and leaves no record. Enabled, it logs every body
/// once. (The time this saves is `bench.trace_overhead_frac` on the
/// perf ledger.)
#[test]
fn replayed_steps_log_nothing_with_events_off_and_every_body_with_events_on() {
    let (m0, m1, spans) = replayed_window(false);
    assert_eq!(m1.steps_replayed - m0.steps_replayed, 16);
    assert_eq!(m1.step_tasks_lowered, m0.step_tasks_lowered);
    assert_eq!(m1.runtime.tasks_analyzed, m0.runtime.tasks_analyzed);
    assert_eq!(m1.runtime.events_recorded, 0);
    assert!(spans.is_empty(), "{} spans with logging off", spans.len());

    let (m0, m1, spans) = replayed_window(true);
    assert_eq!(m1.step_tasks_lowered, m0.step_tasks_lowered);
    let bodies = (m1.runtime.tasks_executed + m1.runtime.tasks_fused)
        - (m0.runtime.tasks_executed + m0.runtime.tasks_fused);
    // 8 pieces on 4 workers: a tile body per piece, 4 lanes of two
    // pieces each running one body per vector op or dot's partials (4
    // per step: the `axpy` of `r` and the `r·r` partials are one
    // `axpy+dot_partial`), and 5 scalar bodies.
    assert_eq!(bodies, 16 * (8 + 4 * 4 + 5));
    assert_eq!(
        m1.runtime.events_recorded - m0.runtime.events_recorded,
        bodies
    );
    assert_eq!(m1.runtime.events_dropped, 0);
    assert_eq!(spans.len() as u64, bodies);
    assert!(spans.iter().all(|s| s.provenance == Provenance::Replayed));
}
