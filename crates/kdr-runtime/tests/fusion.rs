//! Compiled traces: a replayed step runs as fused nodes, and nothing
//! observable may tell.
//!
//! * Random task programs (random buffers, colours and privileges,
//!   subsets that are whole ranges or gappy like a scatter tile's
//!   footprint, so dominance pruning and overlap see several runs a
//!   side, and colourless chains) leave every
//!   buffer bitwise as a sequential in-order oracle leaves it, whether
//!   submitted through analysis, captured once and replayed with
//!   rebuilt tasks, or captured as a step program and run again with
//!   the bodies it holds, and their compiled graphs keep every captured
//!   edge inside a node or pointing from an earlier node to a later
//!   one, and fuse only what the merge rules allow (coloured tasks
//!   only with tasks of the same home worker `colour % W`). The submitting
//!   thread fences at seeded points of each program — after some tasks
//!   of an analyzed round, after some replays — and so runs nodes
//!   itself, fused ones included, in an order no worker would have.
//! * A colourless task joins a colourless chain it waits on, and
//!   nothing else.
//! * A failing body fails its node: earlier members have run, later
//!   ones are dropped, successors are poisoned, and the runtime works
//!   again once the failure is taken. A chain is a node like any other.
//! * Fault-plan decisions, task counts and spans stay per body, with a
//!   node per home worker: two on two workers for four colours, one on
//!   one worker. A fused member starts where the one before it ended.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use kdr_index::IntervalSet;
use kdr_runtime::{
    Buffer, FaultKind, FaultPlan, FaultSpec, FireSchedule, Runtime, RuntimeError, TaskBuilder,
    TaskContext, TaskErrorKind, TaskMeta, TaskOutcome, TaskSpan, Trace,
};
use proptest::prelude::*;

const BUFLEN: u64 = 24;

#[derive(Clone, Debug)]
struct Req {
    buf: usize,
    subset: IntervalSet,
    write: bool,
}

/// One random task: its declared accesses, colour and a constant.
#[derive(Clone, Debug)]
struct Op {
    reqs: Vec<Req>,
    color: Option<usize>,
    c: f64,
}

/// What an op does, over any way of reaching requirement `k`'s
/// element `i`. Order-sensitive in every step, so two conflicting ops
/// run in the wrong order, or one run twice, change bits.
fn apply(op: &Op, get: impl Fn(usize, usize) -> f64, mut set: impl FnMut(usize, usize, f64)) {
    let mut s = op.c;
    for (k, r) in op.reqs.iter().enumerate() {
        for i in r.subset.iter_points().map(|i| i as usize) {
            s = s * 0.25 + get(k, i) * 0.125;
        }
    }
    for (k, r) in op.reqs.iter().enumerate().filter(|(_, r)| r.write) {
        for i in r.subset.iter_points().map(|i| i as usize) {
            let v = get(k, i) * 0.5 + s + i as f64 * 1e-3;
            set(k, i, v);
            s = s * 0.5 + v * 0.25;
        }
    }
}

fn initial(nbuf: usize) -> Vec<Vec<f64>> {
    (0..nbuf)
        .map(|b| (0..BUFLEN).map(|i| (b + 1) as f64 + i as f64 * 0.5).collect())
        .collect()
}

/// The oracle: `rounds` passes over the program, in order, on plain
/// vectors.
fn run_sequential(ops: &[Op], nbuf: usize, rounds: usize) -> Vec<Vec<u64>> {
    let mut bufs = initial(nbuf);
    for _ in 0..rounds {
        for op in ops {
            // The borrow of `bufs` is split by going through a cell
            // per call: reads see every earlier write of this op.
            let cell = std::cell::RefCell::new(&mut bufs);
            apply(
                op,
                |k, i| cell.borrow()[op.reqs[k].buf][i],
                |k, i, v| cell.borrow_mut()[op.reqs[k].buf][i] = v,
            );
        }
    }
    bits(&bufs)
}

fn bits(bufs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    bufs.iter()
        .map(|b| b.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// `op` with its accesses declared, body still to come.
fn declared(op: &Op, bufs: &[Buffer<f64>]) -> TaskBuilder {
    let mut t = TaskBuilder::new("op");
    if let Some(c) = op.color {
        t = t.meta(TaskMeta::new("op").with_color(c));
    }
    for r in &op.reqs {
        t = if r.write {
            t.write(&bufs[r.buf], r.subset.clone())
        } else {
            t.read(&bufs[r.buf], r.subset.clone())
        };
    }
    t
}

fn body(op: &Op) -> impl Fn(&TaskContext) + Send + Sync + 'static {
    let op = op.clone();
    move |ctx| {
        apply(
            &op,
            |k, i| {
                if op.reqs[k].write {
                    ctx.write::<f64>(k).get(i)
                } else {
                    ctx.read::<f64>(k).get(i)
                }
            },
            |k, i, v| ctx.write::<f64>(k).set(i, v),
        );
    }
}

/// `op` as a task built for one submission.
fn task(op: &Op, bufs: &[Buffer<f64>]) -> TaskBuilder {
    declared(op, bufs).body(body(op))
}

/// `op` as a task a step program can keep.
fn program_task(op: &Op, bufs: &[Buffer<f64>]) -> TaskBuilder {
    declared(op, bufs).shared_body(body(op))
}

fn runtime(workers: usize) -> Runtime {
    Runtime::new(workers)
}

fn buffers(nbuf: usize) -> Vec<Buffer<f64>> {
    initial(nbuf).into_iter().map(Buffer::from_vec).collect()
}

fn snapshot(bufs: &[Buffer<f64>]) -> Vec<Vec<u64>> {
    bits(&bufs.iter().map(Buffer::snapshot).collect::<Vec<_>>())
}

/// Every captured edge is inside a node or goes from an earlier node
/// to a later one — which also says the node graph is acyclic — and
/// every node is one the merge rules allow. On one worker every task
/// has the one worker for its home, so a step is one node. On more,
/// a node's members are all coloured or all colourless, coloured ones
/// share the first member's home worker `colour % workers`, and each
/// colourless member waits on an earlier member (a chain).
fn assert_compiled_graph_is_sound(trace: &Trace, ops: &[Op], workers: usize) {
    assert!(trace.num_nodes() <= trace.len());
    if workers == 1 {
        assert_eq!(trace.num_nodes(), 1, "on one worker a step is one node");
        return;
    }
    let mut first: Vec<Option<usize>> = vec![None; trace.num_nodes()];
    for (i, op) in ops.iter().enumerate() {
        let node = trace.node_of(i);
        assert!(node < trace.num_nodes());
        for &d in trace.deps_of(i) {
            assert!(d < i, "captured edges point backwards");
            assert!(
                trace.node_of(d) <= node,
                "edge {d} -> {i} runs from node {} back to node {node}",
                trace.node_of(d),
            );
        }
        let Some(head) = first[node] else {
            first[node] = Some(i);
            continue;
        };
        assert_eq!(
            op.color.is_some(),
            ops[head].color.is_some(),
            "task {i} joined node {node} across coloured and colourless"
        );
        let home = |op: &Op| op.color.map(|c| c % workers);
        assert_eq!(
            home(op),
            home(&ops[head]),
            "task {i} joined node {node} across home workers"
        );
        if op.color.is_none() {
            assert!(
                trace.deps_of(i).iter().any(|&d| trace.node_of(d) == node),
                "colourless task {i} joined node {node} without waiting on a member"
            );
        }
    }
}

/// A footprint inside `lo..lo + len`, shaped like a scatter tile's
/// where `shape` says so: the whole range, every second or third point,
/// or the points `mask` keeps (the first always) — up to eight runs.
fn footprint(lo: u64, len: u64, shape: u8, mask: u32) -> IntervalSet {
    let keep = |i: u64| match shape {
        0 => true,
        1 => i % (2 + u64::from(mask & 1)) == 0,
        _ => i == 0 || mask >> i & 1 == 1,
    };
    IntervalSet::from_points((0..len).filter(|&i| keep(i)).map(|i| lo + i))
}

fn arb_req(nbuf: usize) -> impl Strategy<Value = Req> {
    let shape = (0..BUFLEN - 1, 1..17u64, 0..3u8, 0..u32::MAX);
    (0..nbuf, shape, 0..3u8).prop_map(|(buf, (lo, len, shape, mask), kind)| Req {
        buf,
        subset: footprint(lo, len.min(BUFLEN - lo), shape, mask),
        write: kind != 0,
    })
}

/// The cell every link of a scalar chain updates.
fn chain_cell() -> Req {
    Req {
        buf: 0,
        subset: IntervalSet::from_range(BUFLEN - 1, BUFLEN),
        write: true,
    }
}

fn arb_op(nbuf: usize) -> impl Strategy<Value = Op> {
    (
        prop::collection::vec(arb_req(nbuf), 1..4),
        0..8usize,
        -4i32..5,
    )
        .prop_map(|(mut reqs, kind, c)| {
            // Four in eight tasks carry no colour. Three of those are
            // links of a scalar chain: they also update one shared
            // cell, so each waits on the link before it.
            if kind >= 5 {
                reqs.push(chain_cell());
            }
            Op {
                reqs,
                color: (kind < 4).then_some(kind),
                c: f64::from(c) * 0.375,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_programs_match_the_sequential_oracle(
        nbuf in 2usize..5,
        seed_ops in prop::collection::vec(arb_op(4), 1..48),
        workers in 1usize..5,
        fence_at in prop::collection::vec(0usize..4 * 48, 0..6),
    ) {
        let ops: Vec<Op> = seed_ops
            .into_iter()
            .map(|mut op| {
                for r in &mut op.reqs {
                    r.buf %= nbuf;
                }
                op
            })
            .collect();
        const ROUNDS: usize = 4;
        let expect = run_sequential(&ops, nbuf, ROUNDS);
        // Where the submitting thread fences — and runs what is ready:
        // after task `i` of the analyzed run, after replay `i`.
        let fences_after = |i: usize, of: usize| fence_at.iter().any(|&at| at % of == i);

        // Analyzed submission, round after round.
        let rt = runtime(workers);
        let bufs = buffers(nbuf);
        for round in 0..ROUNDS {
            for (i, op) in ops.iter().enumerate() {
                rt.submit(task(op, &bufs)).unwrap();
                if fences_after(round * ops.len() + i, ROUNDS * ops.len()) {
                    rt.fence().unwrap();
                }
            }
        }
        rt.fence().unwrap();
        prop_assert_eq!(snapshot(&bufs), expect.clone());

        // Captured once, replayed three times.
        let rt = runtime(workers);
        let bufs = buffers(nbuf);
        rt.begin_trace().unwrap();
        for op in &ops {
            rt.submit(task(op, &bufs)).unwrap();
        }
        let trace = rt.end_trace().unwrap();
        prop_assert_eq!(trace.len(), ops.len());
        assert_compiled_graph_is_sound(&trace, &ops, workers);
        for round in 1..ROUNDS {
            let ids = rt
                .replay(&trace, ops.iter().map(|op| task(op, &bufs)).collect())
                .unwrap();
            prop_assert_eq!(ids.len(), ops.len());
            if fences_after(round, ROUNDS) {
                rt.fence().unwrap();
            }
        }
        rt.fence().unwrap();
        prop_assert_eq!(snapshot(&bufs), expect.clone());
        let m = rt.metrics();
        let replayed_bodies = ((ROUNDS - 1) * ops.len()) as u64;
        prop_assert_eq!(m.tasks_replayed + m.tasks_fused, replayed_bodies);
        prop_assert_eq!(m.tasks_executed, m.tasks_submitted);

        // Compiled once as a step program, which then runs the bodies
        // it holds four times, its first run included. Compiling
        // finds the edges and nodes the live capture above recorded.
        let rt = runtime(workers);
        let bufs = buffers(nbuf);
        let program = rt
            .compile_program(ops.iter().map(|op| program_task(op, &bufs)).collect())
            .unwrap();
        prop_assert_eq!(program.trace().len(), ops.len());
        assert_compiled_graph_is_sound(program.trace(), &ops, workers);
        prop_assert_eq!(program.trace().num_nodes(), trace.num_nodes());
        for i in 0..ops.len() {
            prop_assert_eq!(program.trace().deps_of(i), trace.deps_of(i));
            prop_assert_eq!(program.trace().node_of(i), trace.node_of(i));
        }
        for round in 0..ROUNDS {
            // Every other run is waited for by its submitter, which
            // takes a ready node itself and wakes a worker for the rest.
            let reads = bufs.iter().map(Buffer::id).filter(|_| round % 2 == 1);
            rt.run_program(&program, || {}, reads).unwrap().unwrap();
            if fences_after(round, ROUNDS) {
                rt.fence().unwrap();
            }
        }
        rt.fence().unwrap();
        prop_assert_eq!(snapshot(&bufs), expect);
        let m = rt.metrics();
        prop_assert_eq!(m.tasks_analyzed, program.trace().num_nodes() as u64);
        let bodies = (ROUNDS * ops.len()) as u64;
        prop_assert_eq!(m.tasks_analyzed + m.tasks_replayed + m.tasks_fused, bodies);
        prop_assert_eq!(m.tasks_executed, m.tasks_submitted);
    }
}

/// One cell per task: `a`, `b`, `c` written by three tasks of one
/// colour (one node), `c` read by a colourless successor that writes
/// `d`, and `e` written by an independent colourless task.
struct Cells {
    a: Buffer<f64>,
    b: Buffer<f64>,
    c: Buffer<f64>,
    d: Buffer<f64>,
    e: Buffer<f64>,
}

fn bump(name: &'static str, color: Option<usize>, buf: &Buffer<f64>) -> TaskBuilder {
    let mut t = TaskBuilder::new(name);
    if let Some(c) = color {
        t = t.meta(TaskMeta::new(name).with_color(c));
    }
    t.write_all(buf).body(|ctx| {
        let w = ctx.write::<f64>(0);
        w.set(0, w.get(0) + 1.0);
    })
}

/// The five-task step over `cells`. `t1` panics while `explode` is
/// set; `t2` sends what it wrote on `done` when given one.
fn step(
    cells: &Cells,
    explode: &Arc<AtomicBool>,
    done: Option<mpsc::Sender<f64>>,
) -> Vec<TaskBuilder> {
    let explode = Arc::clone(explode);
    vec![
        bump("t0", Some(7), &cells.a),
        TaskBuilder::new("t1")
            .meta(TaskMeta::new("t1").with_color(7))
            .write_all(&cells.b)
            .body(move |ctx| {
                assert!(!explode.load(Ordering::SeqCst), "t1 exploded");
                let w = ctx.write::<f64>(0);
                w.set(0, w.get(0) + 1.0);
            }),
        TaskBuilder::new("t2")
            .meta(TaskMeta::new("t2").with_color(7))
            .write_all(&cells.c)
            .body(move |ctx| {
                let w = ctx.write::<f64>(0);
                w.set(0, w.get(0) + 1.0);
                if let Some(tx) = done {
                    tx.send(w.get(0)).unwrap();
                }
            }),
        TaskBuilder::new("t3")
            .read_all(&cells.c)
            .write_all(&cells.d)
            .body(|ctx| {
                let c = ctx.read::<f64>(0).get(0);
                ctx.write::<f64>(1).set(0, c * 10.0);
            }),
        bump("t4", None, &cells.e),
    ]
}

fn values(cells: &Cells) -> [f64; 5] {
    [&cells.a, &cells.b, &cells.c, &cells.d, &cells.e].map(|b| b.snapshot()[0])
}

#[test]
fn a_panicking_member_fails_its_node_and_the_runtime_recovers() {
    let rt = Runtime::new(2);
    let cells = Cells {
        a: Buffer::filled(1, 0.0),
        b: Buffer::filled(1, 0.0),
        c: Buffer::filled(1, 0.0),
        d: Buffer::filled(1, 0.0),
        e: Buffer::filled(1, 0.0),
    };
    let explode = Arc::new(AtomicBool::new(false));
    rt.begin_trace().unwrap();
    for t in step(&cells, &explode, None) {
        rt.submit(t).unwrap();
    }
    let trace = rt.end_trace().unwrap();
    assert_eq!(trace.len(), 5);
    assert_eq!(trace.num_nodes(), 3, "t0 + t1 + t2 fuse, t3 and t4 do not");
    assert_eq!(trace.node_of(0), trace.node_of(2));
    assert_eq!(values(&cells), [1.0, 1.0, 1.0, 10.0, 1.0]);

    // The second member of the fused node panics.
    explode.store(true, Ordering::SeqCst);
    let (tx, rx) = mpsc::channel();
    let ids = rt.replay(&trace, step(&cells, &explode, Some(tx))).unwrap();
    let err = rt.fence().unwrap_err();
    assert_eq!((err.task, err.name), (ids[1], "t1"));
    assert!(matches!(&err.kind, TaskErrorKind::Panicked(m) if m.contains("t1 exploded")));
    // t0 ran, t1 failed before writing, t2 was dropped unrun (with
    // its sender), t3 was poisoned, t4 is independent.
    assert_eq!(values(&cells), [2.0, 1.0, 1.0, 10.0, 2.0]);
    assert!(rx.recv().is_err(), "a dropped member drops its sender");
    let m = rt.metrics();
    assert_eq!(m.task_failures, 1);
    assert_eq!(m.tasks_poisoned, 1, "t3, as one node");
    // The failure sticks until taken, and poisons what depends on it.
    assert!(rt.fence().is_err());
    rt.submit(bump("late", None, &cells.c)).unwrap();
    let _ = rt.fence();
    assert_eq!(rt.metrics().tasks_poisoned, 2, "born poisoned");
    assert_eq!(rt.take_failure().unwrap().name, "t1");
    rt.fence().unwrap();

    // Reusable: the same trace replays cleanly afterwards.
    explode.store(false, Ordering::SeqCst);
    let (tx, rx) = mpsc::channel();
    rt.replay(&trace, step(&cells, &explode, Some(tx))).unwrap();
    assert_eq!(rx.recv(), Ok(2.0));
    rt.fence().unwrap();
    assert_eq!(values(&cells), [3.0, 2.0, 2.0, 20.0, 3.0]);
}

/// `n` tasks named `w` on private cells, colours cycling through four,
/// so on two workers the compiled order (all of home worker 0, then
/// all of home worker 1) differs from submission order.
fn alternating(cells: &[Buffer<f64>]) -> Vec<TaskBuilder> {
    cells
        .iter()
        .enumerate()
        .map(|(i, b)| bump("w", Some(i % 4), b))
        .collect()
}

#[test]
fn fault_plan_decisions_follow_submission_order_when_fused() {
    let plan = || {
        FaultPlan::seeded(11).with(FaultSpec {
            name_contains: "w".into(),
            kind: FaultKind::Panic,
            schedule: FireSchedule::Nth(4),
            max_fires: 1,
        })
    };
    // Analyzed: the fourth submitted task panics.
    let rt = Runtime::new(2);
    let cells: Vec<Buffer<f64>> = (0..8).map(|_| Buffer::filled(1, 0.0)).collect();
    rt.set_fault_plan(Some(plan()));
    let first = rt.submit(bump("w", Some(0), &cells[0])).unwrap();
    for (i, b) in cells.iter().enumerate().skip(1) {
        rt.submit(bump("w", Some(i % 2), b)).unwrap();
    }
    let analyzed = rt.fence().unwrap_err().task - first;
    assert_eq!(analyzed, 3);

    // Replayed as two fused nodes: still the fourth submitted body,
    // although it is the second member of the second node.
    let rt = Runtime::new(2);
    rt.begin_trace().unwrap();
    for t in alternating(&cells) {
        rt.submit(t).unwrap();
    }
    let trace = rt.end_trace().unwrap();
    assert_eq!(trace.num_nodes(), 2);
    assert_eq!(trace.node_of(3), 1);
    rt.set_fault_plan(Some(plan()));
    let ids = rt.replay(&trace, alternating(&cells)).unwrap();
    let err = rt.fence().unwrap_err();
    assert_eq!(err.task - ids[0], analyzed);
    assert_eq!(rt.metrics().faults_injected, 1);

    // As a step program: the fourth body of its first run when the
    // plan is armed for it…
    let shared = |cells: &[Buffer<f64>]| -> Vec<TaskBuilder> {
        let bump = |ctx: &TaskContext| {
            let w = ctx.write::<f64>(0);
            w.set(0, w.get(0) + 1.0);
        };
        let colored = |i: usize| TaskBuilder::new("w").meta(TaskMeta::new("w").with_color(i % 4));
        let tasks = cells.iter().enumerate();
        tasks.map(|(i, b)| colored(i).write_all(b).shared_body(bump)).collect()
    };
    let rt = Runtime::new(2);
    let program = rt.compile_program(shared(&cells)).unwrap();
    rt.set_fault_plan(Some(plan()));
    rt.run_program(&program, || {}, []).unwrap().unwrap();
    assert_eq!(rt.fence().unwrap_err().task, analyzed);
    assert_eq!(
        rt.metrics().tasks_submitted,
        2,
        "two nodes, the first run too"
    );
    // …and the fourth body of a replay of it, although the program
    // schedules it as the second member of its second node.
    let rt = Runtime::new(2);
    let program = rt.compile_program(shared(&cells)).unwrap();
    assert_eq!(program.trace().num_nodes(), 2);
    rt.run_program(&program, || {}, []).unwrap().unwrap();
    rt.fence().unwrap();
    rt.set_fault_plan(Some(plan()));
    rt.run_program(&program, || {}, []).unwrap().unwrap();
    let err = rt.fence().unwrap_err();
    assert_eq!(err.task - program.trace().len() as u64, analyzed);
    assert_eq!(rt.metrics().faults_injected, 1);
    // The program holds its bodies: it runs again once the failure is
    // taken.
    assert!(rt.run_program(&program, || {}, []).is_err(), "a pending failure refuses the replay");
    rt.take_failure().unwrap();
    let before: Vec<f64> = cells.iter().map(|b| b.snapshot()[0]).collect();
    rt.run_program(&program, || {}, []).unwrap().unwrap();
    rt.fence().unwrap();
    for (b, was) in cells.iter().zip(before) {
        assert_eq!(b.snapshot()[0], was + 1.0);
    }
}

/// Capture [`alternating`] on a runtime of `workers` workers, replay
/// it once, check the per-body accounting and return the replayed
/// spans with their ids, in submission order.
fn replay_alternating(workers: usize, nodes: u64) -> (Vec<TaskSpan>, Vec<u64>) {
    let rt = Runtime::new(workers);
    rt.enable_events(true);
    let cells: Vec<Buffer<f64>> = (0..8).map(|_| Buffer::filled(1, 0.0)).collect();
    rt.begin_trace().unwrap();
    for t in alternating(&cells) {
        rt.submit(t).unwrap();
    }
    let trace = rt.end_trace().unwrap();
    assert_eq!(trace.num_nodes() as u64, nodes);
    let ids = rt.replay(&trace, alternating(&cells)).unwrap();
    rt.fence().unwrap();

    let m = rt.metrics();
    assert_eq!(m.tasks_analyzed, 8);
    assert_eq!(m.tasks_replayed, nodes, "scheduled nodes");
    assert_eq!(m.tasks_fused, 8 - nodes, "bodies folded into them");
    assert_eq!(m.tasks_submitted, 8 + nodes);
    assert_eq!(m.tasks_executed, 8 + nodes);
    assert_eq!(m.task_counts.get("w"), Some(&16), "counts stay per body");
    assert_eq!(m.events_recorded, 16);

    // One span per body, replayed ones included, each with its own
    // id, name and captured dependences.
    let spans = rt.take_spans();
    assert_eq!(spans.len(), 16);
    let replayed: Vec<_> = spans.into_iter().filter(|s| s.id >= ids[0]).collect();
    assert_eq!(
        replayed.iter().map(|s| s.id).collect::<Vec<_>>(),
        ids,
        "spans come back id-sorted, one per replayed body"
    );
    for s in &replayed {
        assert_eq!(s.name, "w");
        assert_eq!(s.outcome, TaskOutcome::Completed);
        assert!(s.deps.is_empty());
        assert!(s.ready_ns <= s.start_ns && s.start_ns <= s.end_ns && s.end_ns <= s.retire_ns);
    }
    (replayed, ids)
}

/// A fused member is ready, and starts, when the member before it
/// returns (one clock read per boundary), and retires with it.
fn assert_one_node(members: &[&TaskSpan]) {
    for pair in members.windows(2) {
        assert_eq!(pair[1].ready_ns, pair[0].end_ns);
        assert_eq!(pair[1].start_ns, pair[0].end_ns);
        assert_eq!(pair[1].retire_ns, pair[0].retire_ns);
    }
}

#[test]
fn accounting_counts_nodes_and_logs_bodies() {
    // Two workers: one node per home worker, colours 0 and 2 in one,
    // 1 and 3 in the other.
    let (replayed, ids) = replay_alternating(2, 2);
    let node0: Vec<_> = replayed.iter().filter(|s| (s.id - ids[0]) % 2 == 0).collect();
    assert_one_node(&node0);
}

#[test]
fn on_one_worker_coloured_tasks_of_every_colour_share_a_node() {
    // One worker: every colour has the same home, so the eight bodies
    // of both colours are one node, run in submission order.
    let (replayed, _) = replay_alternating(1, 1);
    assert_one_node(&replayed.iter().collect::<Vec<_>>());
}

/// `dst = 10 · src + dst`, a colourless task.
fn scale_into(name: &'static str, src: &Buffer<f64>, dst: &Buffer<f64>) -> TaskBuilder {
    TaskBuilder::new(name)
        .read_all(src)
        .write_all(dst)
        .body(|ctx| {
            let (s, d) = (ctx.read::<f64>(0).get(0), ctx.write::<f64>(1));
            d.set(0, s * 10.0 + d.get(0));
        })
}

/// A coloured task, then colourless ones: a reader of the coloured
/// node's cell and two links after it (one chain), an independent
/// task, and a task waiting on the chain after the chain stopped being
/// the most recent colourless node.
fn chain_step(cells: &[Buffer<f64>]) -> Vec<TaskBuilder> {
    vec![
        bump("coloured", Some(1), &cells[0]),
        scale_into("reader", &cells[0], &cells[1]),
        bump("link", None, &cells[1]),
        scale_into("link", &cells[1], &cells[2]),
        bump("independent", None, &cells[3]),
        bump("late", None, &cells[2]),
    ]
}

#[test]
fn a_colourless_chain_fuses_and_nothing_else_joins_it() {
    let rt = Runtime::new(2);
    let cells: Vec<Buffer<f64>> = (0..4).map(|_| Buffer::filled(1, 0.0)).collect();
    rt.begin_trace().unwrap();
    for t in chain_step(&cells) {
        rt.submit(t).unwrap();
    }
    let trace = rt.end_trace().unwrap();
    let node: Vec<usize> = (0..trace.len()).map(|i| trace.node_of(i)).collect();
    // The reader waits on the coloured node but opens its own; the two
    // links join it.
    assert_ne!(
        node[1], node[0],
        "a colourless reader of a coloured node joins it"
    );
    assert_eq!(
        (node[2], node[3]),
        (node[1], node[1]),
        "the chain did not fuse"
    );
    // Independent: a node of its own, which leaves `late` without a
    // chain to extend.
    assert!(node[4] != node[1], "{node:?}");
    assert!(node[5] != node[1] && node[5] != node[4], "{node:?}");
    assert_eq!(trace.num_nodes(), 4);

    // Replays leave what analyzed submission leaves.
    let analyzed = Runtime::new(2);
    let expect: Vec<Buffer<f64>> = (0..4).map(|_| Buffer::filled(1, 0.0)).collect();
    for _ in 0..3 {
        for t in chain_step(&expect) {
            analyzed.submit(t).unwrap();
        }
        analyzed.fence().unwrap();
    }
    for _ in 0..2 {
        rt.replay(&trace, chain_step(&cells)).unwrap();
    }
    rt.fence().unwrap();
    assert_eq!(snapshot(&cells), snapshot(&expect));
    let m = rt.metrics();
    assert_eq!((m.tasks_replayed, m.tasks_fused), (2 * 4, 2 * 2));
}

/// A coloured pair around a colourless chain of three and an
/// independent colourless task, every body named `w`: submitted as
/// c, h, l, l, i, c; compiled as [c, c], [h, l, l], [i].
fn chain_among_colours(cells: &[Buffer<f64>]) -> Vec<TaskBuilder> {
    vec![
        bump("w", Some(3), &cells[0]),
        bump("w", None, &cells[1]),
        bump("w", None, &cells[1]),
        bump("w", None, &cells[1]),
        bump("w", None, &cells[2]),
        bump("w", Some(3), &cells[3]),
    ]
}

#[test]
fn a_panic_in_a_chains_first_member_drops_only_that_chains_later_members() {
    // The second submitted body panics: the chain's head. Taken in the
    // compiled order, it would be the second coloured task.
    let plan = || {
        FaultPlan::seeded(5).with(FaultSpec {
            name_contains: "w".into(),
            kind: FaultKind::Panic,
            schedule: FireSchedule::Nth(2),
            max_fires: 1,
        })
    };
    // Analyzed: cells 0, 2 and 3 bumped, the chain's cell 1 not.
    let rt = Runtime::new(2);
    let cells: Vec<Buffer<f64>> = (0..4).map(|_| Buffer::filled(1, 0.0)).collect();
    rt.set_fault_plan(Some(plan()));
    let ids: Vec<_> = chain_among_colours(&cells)
        .into_iter()
        .map(|t| rt.submit(t).unwrap())
        .collect();
    let analyzed = rt.fence().unwrap_err().task - ids[0];
    assert_eq!(analyzed, 1);
    assert_eq!(values_of(&cells), [1.0, 0.0, 1.0, 1.0]);

    let rt = Runtime::new(2);
    rt.enable_events(true);
    rt.begin_trace().unwrap();
    for t in chain_among_colours(&cells) {
        rt.submit(t).unwrap();
    }
    let trace = rt.end_trace().unwrap();
    assert_eq!(trace.num_nodes(), 3);
    assert_eq!(trace.node_of(5), trace.node_of(0));
    assert!((2..4).all(|i| trace.node_of(i) == trace.node_of(1)));
    assert_ne!(trace.node_of(4), trace.node_of(1));
    assert_eq!(values_of(&cells), [2.0, 3.0, 2.0, 2.0]);
    rt.take_spans();

    rt.set_fault_plan(Some(plan()));
    let ids = rt.replay(&trace, chain_among_colours(&cells)).unwrap();
    let err = rt.fence().unwrap_err();
    assert_eq!(
        err.task - ids[0],
        analyzed,
        "decisions follow submission order"
    );
    // The head failed before writing and its two links were dropped;
    // the coloured pair and the independent task ran.
    assert_eq!(values_of(&cells), [3.0, 3.0, 3.0, 3.0]);
    let m = rt.metrics();
    assert_eq!(
        (m.task_failures, m.tasks_poisoned),
        (1, 0),
        "no node was poisoned"
    );
    let outcomes: Vec<TaskOutcome> = rt.take_spans().iter().map(|s| s.outcome).collect();
    use TaskOutcome::{Completed, Panicked, Poisoned};
    assert_eq!(
        outcomes,
        [Completed, Panicked, Poisoned, Poisoned, Completed, Completed]
    );

    // Taken, the failure leaves a chain that replays whole.
    rt.take_failure().unwrap();
    rt.set_fault_plan(None);
    rt.replay(&trace, chain_among_colours(&cells)).unwrap();
    rt.fence().unwrap();
    assert_eq!(values_of(&cells), [4.0, 6.0, 4.0, 4.0]);
}

/// Two phases of a four-piece solver step over the cells `c` (x in
/// 0..4, p in 4..8, s at 8, y in 9..13): per piece, `spmv` bumps x and
/// `dot_partial` adds it into p, coloured by piece; a colourless
/// `dot_reduce` adds every p into s; per piece, `axpy` adds s into y.
/// On one worker every task has the one worker for its home, so the
/// thirteen compile to one node.
fn two_phases(c: &[Buffer<f64>]) -> Vec<TaskBuilder> {
    let coloured = |t: TaskBuilder, name: &'static str, piece: usize| {
        t.meta(TaskMeta::new(name).with_color(piece))
    };
    let mut tasks = Vec::new();
    for i in 0..4 {
        tasks.push(bump("spmv", Some(i), &c[i]));
        tasks.push(coloured(scale_into("dot_partial", &c[i], &c[4 + i]), "dot_partial", i));
    }
    let reduce = c[4..8].iter().fold(TaskBuilder::new("dot_reduce"), |t, p| t.read_all(p));
    tasks.push(reduce.write_all(&c[8]).body(|ctx| {
        let sum: f64 = (0..4).map(|k| ctx.read::<f64>(k).get(0)).sum();
        let s = ctx.write::<f64>(4);
        s.set(0, s.get(0) + sum);
    }));
    for i in 0..4 {
        tasks.push(coloured(scale_into("axpy", &c[8], &c[9 + i]), "axpy", i));
    }
    tasks
}

#[test]
fn on_one_worker_a_panic_drops_the_rest_of_the_step_and_poisons_what_follows() {
    use TaskOutcome::{Completed, Panicked, Poisoned};
    // The cell each task of `two_phases` writes, in submission order.
    const WRITES: [usize; 13] = [0, 4, 1, 5, 2, 6, 3, 7, 8, 9, 10, 11, 12];
    let cells = || -> Vec<Buffer<f64>> { (0..13).map(|_| Buffer::filled(1, 0.0)).collect() };
    // The first submitted body (piece 0's spmv, the step node's first
    // member) and the fifth (piece 2's spmv, in its first phase).
    for (nth, at) in [(1, 0), (3, 4)] {
        let plan = || {
            FaultPlan::seeded(3).with(FaultSpec {
                name_contains: "spmv".into(),
                kind: FaultKind::Panic,
                schedule: FireSchedule::Nth(nth),
                max_fires: 1,
            })
        };
        // Analyzed, one node per task: the decision falls on body `at`.
        let rt = runtime(1);
        let c = cells();
        rt.set_fault_plan(Some(plan()));
        let ids: Vec<_> = two_phases(&c).into_iter().map(|t| rt.submit(t).unwrap()).collect();
        assert_eq!(rt.fence().unwrap_err().task - ids[0], at);

        let rt = runtime(1);
        let c = cells();
        rt.enable_events(true);
        rt.begin_trace().unwrap();
        for t in two_phases(&c) {
            rt.submit(t).unwrap();
        }
        let trace = rt.end_trace().unwrap();
        assert_eq!(trace.num_nodes(), 1, "one node per step");
        let captured = values_of(&c);
        rt.take_spans();

        rt.set_fault_plan(Some(plan()));
        let ids = rt.replay(&trace, two_phases(&c)).unwrap();
        let err = rt.fence().unwrap_err();
        assert_eq!(
            (err.task - ids[0], err.name),
            (at, "spmv"),
            "decisions follow submission order"
        );
        let m = rt.metrics();
        assert_eq!(m.faults_injected, 1, "one decision per body");
        assert_eq!(
            (m.task_failures, m.tasks_poisoned),
            (1, 0),
            "the step is one node: its failure leaves no other node to poison"
        );
        // The members before the panicking one ran; the rest of the
        // step was dropped unrun and wrote nothing.
        let outcomes: Vec<TaskOutcome> = rt.take_spans().iter().map(|s| s.outcome).collect();
        let at = at as usize;
        let mut expect = vec![Completed; at];
        expect.push(Panicked);
        expect.resize(13, Poisoned);
        assert_eq!(outcomes, expect);
        let now = values_of(&c);
        for (b, &cell) in WRITES.iter().enumerate() {
            assert_eq!(now[cell] != captured[cell], b < at, "task {b}'s cell {cell}");
        }

        // What follows is poisoned: the pending failure refuses the
        // next replay, and a task that reads what the failed step
        // should have written is born poisoned.
        let refused = rt.replay(&trace, two_phases(&c));
        assert!(matches!(refused, Err(RuntimeError::TaskFailed(_))), "{refused:?}");
        rt.submit(scale_into("late", &c[12], &c[0])).unwrap();
        assert_eq!(rt.fence().unwrap_err().task - ids[0], at as u64);
        assert_eq!(rt.metrics().tasks_poisoned, 1, "born poisoned");
        assert_eq!(values_of(&c), now);

        // Taken, the failure leaves a step that replays whole.
        rt.take_failure().unwrap();
        rt.set_fault_plan(None);
        rt.replay(&trace, two_phases(&c)).unwrap();
        rt.fence().unwrap();
        assert!(values_of(&c)[9..].iter().zip(&captured[9..]).all(|(a, b)| a > b));
    }
}

fn values_of(cells: &[Buffer<f64>]) -> Vec<f64> {
    cells.iter().map(|b| b.snapshot()[0]).collect()
}
