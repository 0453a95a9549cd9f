//! Exporters for the event log: Chrome `trace_event` JSON, a
//! per-phase text summary, and a critical-path estimator.
//!
//! The JSON produced by [`chrome_trace_json`] follows the Trace Event
//! Format's "X" (complete) events and loads directly in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`: each task span
//! becomes one slice on the track of the lane that executed it — a
//! `worker N` track, or the `driver` track for bodies a waiting driver
//! thread ran — with `args` carrying the provenance and queue-wait so
//! slices can be queried in the UI.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::events::{Provenance, TaskSpan};

/// Render spans as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form).
///
/// One `"X"` (complete) event per span: `ts`/`dur` are microseconds
/// (the format's unit) with three decimal places to retain the
/// underlying nanosecond resolution, `pid` is 0, `tid` is the lane
/// ([`TaskSpan::worker`]). `"M"` metadata events name each track:
/// `worker N`, or `driver` for the lane of waiting driver threads.
/// Events are emitted in span (task-id) order.
pub fn chrome_trace_json(spans: &[TaskSpan]) -> String {
    let mut w = TraceWriter::new(spans.len());
    w.thread_names(0, spans);
    for s in spans {
        w.span(0, s);
    }
    w.finish()
}

/// The lanes `spans` ran on, ascending, with their track names.
fn lanes(spans: &[TaskSpan]) -> Vec<(usize, String)> {
    let mut lanes: Vec<(usize, bool)> = spans.iter().map(|s| (s.worker, s.by_driver)).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let name = |(w, by_driver)| match by_driver {
        true => (w, "driver".to_string()),
        false => (w, format!("worker {w}")),
    };
    lanes.into_iter().map(name).collect()
}

/// Render labeled span groups as Chrome `trace_event` JSON, one
/// *process* per group.
///
/// Same event shape as [`chrome_trace_json`], but each `(label,
/// spans)` pair is assigned its own `pid` (the group index) with a
/// `process_name` metadata record, so Perfetto shows one collapsible
/// track group per label. The solve service uses this to emit
/// tenant-tagged traces: one process per tenant, worker tracks
/// within.
pub fn chrome_trace_json_grouped(groups: &[(String, Vec<TaskSpan>)]) -> String {
    grouped(groups).finish()
}

/// The events of [`chrome_trace_json_grouped`], left open for more.
fn grouped(groups: &[(String, Vec<TaskSpan>)]) -> TraceWriter {
    let mut w = TraceWriter::new(groups.iter().map(|(_, s)| s.len()).sum());
    for (pid, (label, spans)) in groups.iter().enumerate() {
        w.metadata("process_name", pid, 0, label);
        w.thread_names(pid, spans);
        for s in spans {
            w.span(pid, s);
        }
    }
    w
}

/// Render labeled span groups plus named counter samples as Chrome
/// `trace_event` JSON.
///
/// Same shape as [`chrome_trace_json_grouped`], with one `"C"`
/// (counter) event appended per `(name, value)` pair — Perfetto shows
/// them as counter tracks alongside the slices. The solve service
/// uses this to surface runtime-wide fence accounting
/// (`reduction_stages`, `reduction_stall_ms`) next to the
/// tenant-tagged task spans.
pub fn chrome_trace_json_with_counters(
    groups: &[(String, Vec<TaskSpan>)],
    counters: &[(&str, f64)],
) -> String {
    let mut w = grouped(groups);
    for (name, value) in counters {
        w.event(format_args!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0,\
             \"args\":{{\"value\":{value}}}}}",
            escape_json(name)
        ));
    }
    w.finish()
}

/// A `{"traceEvents":[...]}` document being written, one event record
/// at a time: every exporter above writes its records through this.
struct TraceWriter {
    out: String,
}

impl TraceWriter {
    fn new(spans: usize) -> Self {
        let mut out = String::with_capacity(256 + spans * 160);
        out.push_str("{\"traceEvents\":[");
        TraceWriter { out }
    }

    /// Append one event, comma-separated from the one before.
    fn event(&mut self, record: std::fmt::Arguments) {
        if !self.out.ends_with('[') {
            self.out.push(',');
        }
        let _ = self.out.write_fmt(record);
    }

    /// An `"M"` record naming process `pid` or its track `tid`.
    fn metadata(&mut self, what: &str, pid: usize, tid: usize, name: &str) {
        self.event(format_args!(
            "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// One `thread_name` record per lane `spans` ran on.
    fn thread_names(&mut self, pid: usize, spans: &[TaskSpan]) {
        for (tid, name) in lanes(spans) {
            self.metadata("thread_name", pid, tid, &name);
        }
    }

    /// The `"X"` (complete) record of one span.
    fn span(&mut self, pid: usize, s: &TaskSpan) {
        let prov = match s.provenance {
            Provenance::Analyzed => "analyzed",
            Provenance::Replayed => "replayed",
        };
        self.event(format_args!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"args\":{{\"task\":{},\"provenance\":\"{}\",\"queue_wait_us\":{}.{:03}}}}}",
            escape_json(s.name),
            s.worker,
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.execute_ns() / 1000,
            s.execute_ns() % 1000,
            s.id,
            prov,
            s.queue_wait_ns() / 1000,
            s.queue_wait_ns() % 1000,
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Aggregate statistics for one task name ("phase") in a
/// [`phase_summary`].
#[derive(Clone, Debug, Default)]
pub struct PhaseRow {
    /// Task name the row aggregates.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total execute time across those spans, ns.
    pub total_execute_ns: u64,
    /// Total ready-queue wait across those spans, ns.
    pub total_queue_wait_ns: u64,
    /// Spans whose dependences were replayed from a trace.
    pub replayed: u64,
}

/// Group spans by task name and return rows sorted by descending
/// total execute time — the "where did the time go" table.
pub fn phase_rows(spans: &[TaskSpan]) -> Vec<PhaseRow> {
    let mut by_name: HashMap<&str, PhaseRow> = HashMap::new();
    for s in spans {
        let row = by_name.entry(s.name).or_insert_with(|| PhaseRow {
            name: s.name.to_string(),
            ..PhaseRow::default()
        });
        row.count += 1;
        row.total_execute_ns += s.execute_ns();
        row.total_queue_wait_ns += s.queue_wait_ns();
        if s.provenance == Provenance::Replayed {
            row.replayed += 1;
        }
    }
    let mut rows: Vec<PhaseRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| {
        b.total_execute_ns
            .cmp(&a.total_execute_ns)
            .then(a.name.cmp(&b.name))
    });
    rows
}

/// Render a human-readable per-phase summary table: one row per task
/// name, sorted by total execute time, plus a totals line.
pub fn phase_summary(spans: &[TaskSpan]) -> String {
    let rows = phase_rows(spans);
    let total_exec: u64 = rows.iter().map(|r| r.total_execute_ns).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>12} {:>8} {:>12} {:>9}",
        "phase", "count", "execute_us", "exec_%", "queue_us", "replayed"
    );
    for r in &rows {
        let pct = if total_exec == 0 {
            0.0
        } else {
            100.0 * r.total_execute_ns as f64 / total_exec as f64
        };
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12.1} {:>7.1}% {:>12.1} {:>9}",
            r.name,
            r.count,
            r.total_execute_ns as f64 / 1000.0,
            pct,
            r.total_queue_wait_ns as f64 / 1000.0,
            r.replayed,
        );
    }
    let count: u64 = rows.iter().map(|r| r.count).sum();
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>12.1}",
        "TOTAL",
        count,
        total_exec as f64 / 1000.0
    );
    out
}

/// Result of [`critical_path`]: the longest execute-time-weighted
/// chain through the recorded task DAG.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Sum of execute times along the heaviest dependence chain, ns.
    pub length_ns: u64,
    /// Total execute time across all spans, ns.
    pub total_work_ns: u64,
    /// Task ids along the critical path, in execution order.
    pub path: Vec<u64>,
}

impl CriticalPath {
    /// Average available parallelism, `total_work / critical_path`
    /// (the DAG's "span law" bound on speedup). 1.0 for an empty log.
    pub fn parallelism(&self) -> f64 {
        if self.length_ns == 0 {
            1.0
        } else {
            self.total_work_ns as f64 / self.length_ns as f64
        }
    }
}

/// Estimate the critical path of the recorded task DAG: the longest
/// path where each node costs its measured execute time and edges are
/// the recorded dependences. Spans arrive id-sorted (submission
/// order), which is a valid topological order because dependences
/// only point at earlier submissions.
pub fn critical_path(spans: &[TaskSpan]) -> CriticalPath {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // dist[i]: heaviest chain ending at (and including) span i.
    let mut dist: Vec<u64> = vec![0; spans.len()];
    let mut pred: Vec<Option<usize>> = vec![None; spans.len()];
    let mut best = 0usize;
    let mut total = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let mut base = 0u64;
        for d in &s.deps {
            if let Some(&j) = index.get(d) {
                if dist[j] > base {
                    base = dist[j];
                    pred[i] = Some(j);
                }
            }
        }
        dist[i] = base + s.execute_ns();
        total += s.execute_ns();
        if dist[i] > dist[best] {
            best = i;
        }
    }
    if spans.is_empty() {
        return CriticalPath::default();
    }
    let mut path = Vec::new();
    let mut cur = Some(best);
    while let Some(i) = cur {
        path.push(spans[i].id);
        cur = pred[i];
    }
    path.reverse();
    CriticalPath {
        length_ns: dist[best],
        total_work_ns: total,
        path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, deps: Vec<u64>) -> TaskSpan {
        TaskSpan {
            id,
            name,
            provenance: if id % 2 == 0 {
                Provenance::Analyzed
            } else {
                Provenance::Replayed
            },
            worker: (id % 2) as usize,
            by_driver: false,
            submit_ns: 0,
            ready_ns: start,
            start_ns: start,
            end_ns: end,
            retire_ns: end,
            outcome: crate::events::TaskOutcome::Completed,
            deps,
        }
    }

    #[test]
    fn chrome_json_shape() {
        let spans = vec![
            span(0, "spmv_tile", 1000, 3000, vec![]),
            span(1, "dot_partial", 3000, 4000, vec![0]),
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"spmv_tile\""));
        assert!(json.contains("\"provenance\":\"replayed\""));
        // ts is µs with ns fraction: 1000 ns -> 1.000 µs.
        assert!(json.contains("\"ts\":1.000"), "{json}");
        assert!(json.contains("\"tid\":1,\"args\":{\"name\":\"worker 1\"}"));
        assert!(!json.contains("\"driver\""));
        // A body a waiting driver ran sits on the `driver` track.
        let mut by_driver = span(2, "axpy", 4000, 5000, vec![1]);
        (by_driver.worker, by_driver.by_driver) = (2, true);
        let json = chrome_trace_json(&[by_driver]);
        assert!(json.contains("\"tid\":2,\"args\":{\"name\":\"driver\"}"), "{json}");
        assert!(json.contains("\"name\":\"axpy\",\"ph\":\"X\",\"pid\":0,\"tid\":2"));
    }

    #[test]
    fn grouped_json_assigns_one_pid_per_group() {
        let groups = vec![
            ("tenant 0".to_string(), vec![span(0, "spmv", 0, 100, vec![])]),
            ("tenant 1".to_string(), vec![span(1, "dot", 0, 50, vec![])]),
        ];
        let json = chrome_trace_json_grouped(&groups);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0"));
        assert!(json.contains("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1"));
        assert!(json.contains("\"args\":{\"name\":\"tenant 1\"}"));
        assert!(json.contains("\"name\":\"dot\",\"ph\":\"X\",\"pid\":1"));
    }

    #[test]
    fn counters_append_c_events() {
        let groups = vec![("tenant 0".to_string(), vec![span(0, "spmv", 0, 100, vec![])])];
        let json = chrome_trace_json_with_counters(&groups, &[("reduction_stages", 42.0)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"reduction_stages\",\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":42}"));
        // Counters on an empty group list still produce valid JSON.
        let empty = chrome_trace_json_with_counters(&[], &[("x", 1.5)]);
        assert!(empty.contains("\"ph\":\"C\""));
        assert!(!empty.contains("[,"), "{empty}");
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn summary_orders_by_execute_time() {
        let spans = vec![
            span(0, "small", 0, 10, vec![]),
            span(1, "big", 0, 1000, vec![]),
            span(2, "big", 0, 1000, vec![]),
        ];
        let rows = phase_rows(&spans);
        assert_eq!(rows[0].name, "big");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_execute_ns, 2000);
        let text = phase_summary(&spans);
        assert!(text.contains("big"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn critical_path_diamond() {
        // 0 -> {1, 2} -> 3; the heavier branch (2) is the path.
        let spans = vec![
            span(0, "a", 0, 100, vec![]),
            span(1, "b", 100, 150, vec![0]),
            span(2, "c", 100, 400, vec![0]),
            span(3, "d", 400, 500, vec![1, 2]),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.length_ns, 100 + 300 + 100);
        assert_eq!(cp.path, vec![0, 2, 3]);
        assert_eq!(cp.total_work_ns, 100 + 50 + 300 + 100);
        assert!(cp.parallelism() > 1.0);
    }

    #[test]
    fn critical_path_empty() {
        let cp = critical_path(&[]);
        assert_eq!(cp.length_ns, 0);
        assert_eq!(cp.parallelism(), 1.0);
        assert!(cp.path.is_empty());
    }
}
