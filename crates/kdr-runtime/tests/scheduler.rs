//! Contracts of the scheduler lock: a wake-up is never lost (no wait in
//! the executor has a timeout to fall back on), the span log can be
//! drained while other threads submit, and a thread that waits on the
//! runtime — a fence, or `wait_written` for the tasks writing a buffer
//! — runs ready tasks while it waits: every body exactly once, no
//! early return, a panic in a body it runs is a typed error like any
//! other, and the time it reports as parked is time it had nothing to
//! run.
//!
//! A trace capture holds back no thread: another thread's submissions,
//! program runs and fences go on while it is open, and none of its
//! tasks is recorded.
//!
//! The tests run their workload on a spawned thread under a progress
//! watchdog whose only clock is "no progress for five seconds fails",
//! or wait for it with a five-second timeout, so a hang is a failure
//! with a message instead of a stuck test run.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use kdr_runtime::{Buffer, Runtime, RuntimeError, TaskBuilder, TaskErrorKind, TaskMeta};

/// Run `work` on its own thread; fail if the counter it is handed
/// stops advancing for five seconds before it returns.
fn with_progress_watchdog(what: &str, work: impl FnOnce(&AtomicU64) + Send + 'static) {
    let progress = Arc::new(AtomicU64::new(0));
    let p = Arc::clone(&progress);
    let worker = std::thread::spawn(move || work(&p));
    let (mut seen, mut since) = (0, Instant::now());
    while !worker.is_finished() {
        std::thread::sleep(Duration::from_millis(20));
        let now = progress.load(Ordering::Relaxed);
        if now != seen {
            (seen, since) = (now, Instant::now());
        }
        assert!(
            since.elapsed() < Duration::from_secs(5),
            "{what}: no progress for 5 s after {seen} steps"
        );
    }
    worker.join().expect("the workload panicked");
}

#[test]
fn a_parked_worker_is_always_woken() {
    for workers in [1, 3] {
        with_progress_watchdog("park / submit / fence", move |progress| {
            let rt = Runtime::new(workers);
            let v = Buffer::filled(1, 0u64);
            for round in 0..20_000u64 {
                // The fence returns as the last node retires, so the
                // workers are on their way to parking (or parked)
                // when the next submission arrives: both sides of
                // that race must end in a wake-up.
                if round % 2 == 0 {
                    std::thread::yield_now();
                }
                rt.submit(TaskBuilder::new("tick").write_all(&v).body(|ctx| {
                    let w = ctx.write::<u64>(0);
                    w.set(0, w.get(0) + 1);
                }))
                .unwrap();
                rt.fence().unwrap();
                progress.fetch_add(1, Ordering::Relaxed);
            }
            assert_eq!(v.snapshot(), vec![20_000]);
            assert_eq!(rt.metrics().tasks_executed, 20_000);
        });
    }
}

#[test]
fn a_submission_wakes_the_worker_after_the_unlock() {
    with_progress_watchdog("submit / Receiver::recv", |progress| {
        let rt = Runtime::new(1);
        for round in 0..10_000u64 {
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            let (tx, rx) = mpsc::channel();
            rt.submit(TaskBuilder::new("tick").body(move |_| tx.send(round).unwrap()))
                .unwrap();
            // `Receiver::recv` parks on the channel and runs nothing, so
            // only the worker can run the task: a wake-up the submission
            // owed and lost after dropping the scheduler lock hangs here.
            assert_eq!(rx.recv(), Ok(round));
            progress.fetch_add(1, Ordering::Relaxed);
        }
        rt.fence().unwrap();
        let m = rt.metrics();
        assert_eq!((m.tasks_executed, m.nodes_run_by_drivers), (10_000, 0));
    });
}

#[test]
fn a_program_run_nobody_waits_for_wakes_the_worker() {
    with_progress_watchdog("run_program / Receiver::recv", |progress| {
        let rt = Runtime::new(1);
        let (tx, rx) = mpsc::channel();
        let tx = std::sync::Mutex::new(tx);
        let round = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&round);
        let send = TaskBuilder::new("send").shared_body(move |_| {
            tx.lock().unwrap().send(r.load(Ordering::Relaxed)).unwrap();
        });
        let program = rt.compile_program(vec![send]).unwrap();
        rt.run_program(&program, || {}, []).unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(0));
        for k in 1..=10_000u64 {
            if k % 2 == 0 {
                std::thread::yield_now();
            }
            // With no buffer to read, the call returns as soon as the
            // step is in, and `recv` runs nothing: only the worker can
            // run the step, so a submission that woke nobody hangs here.
            let bind = || round.store(k, Ordering::Relaxed);
            rt.run_program(&program, bind, []).unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(k));
            progress.fetch_add(1, Ordering::Relaxed);
        }
        rt.fence().unwrap();
        assert_eq!(rt.metrics().tasks_replayed, 10_000);
    });
}

#[test]
fn a_waiting_submitter_wakes_a_worker_for_every_ready_node_but_one() {
    with_progress_watchdog("run_program with reads / Barrier", |progress| {
        let rt = Runtime::new(2);
        let bufs = [Buffer::filled(1, 0u64), Buffer::filled(1, 0u64)];
        let meet = Arc::new(std::sync::Barrier::new(2));
        // Colours 0 and 1 have different homes on two workers: two
        // nodes, both ready at submission, whose bodies wait for each
        // other.
        let tasks = bufs.iter().enumerate().map(|(c, b)| {
            let meet = Arc::clone(&meet);
            TaskBuilder::new("meet")
                .meta(TaskMeta::new("meet").with_color(c))
                .write_all(b)
                .shared_body(move |ctx| {
                    meet.wait();
                    let w = ctx.write::<u64>(0);
                    w.set(0, w.get(0) + 1);
                })
        });
        let program = rt.compile_program(tasks.collect()).unwrap();
        assert_eq!(program.trace().num_nodes(), 2);
        for k in 1..=2_000u64 {
            // The submitter takes one node and waits at the barrier in
            // it: the other node needs a worker, so a submission that
            // owed no wake-up hangs here.
            let reads = bufs.iter().map(Buffer::id);
            rt.run_program(&program, || {}, reads).unwrap().unwrap();
            assert_eq!([bufs[0].peek(0), bufs[1].peek(0)], [k, k]);
            progress.fetch_add(1, Ordering::Relaxed);
        }
        let m = rt.metrics();
        let driven = m.nodes_run_by_drivers;
        assert!(driven >= 1_000, "the submitter ran {driven} nodes");
    });
}

#[test]
fn dropping_a_runtime_wakes_its_parked_workers() {
    with_progress_watchdog("drop with parked workers", |progress| {
        for _ in 0..200 {
            let rt = Runtime::new(3);
            rt.submit(TaskBuilder::new("one").body(|_| {})).unwrap();
            rt.fence().unwrap();
            // Give every worker the chance to find the queues empty and
            // park; whichever side of that race the drop lands on, it
            // must wake them all.
            for _ in 0..64 {
                std::thread::yield_now();
            }
            drop(rt);
            progress.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// One step of three coloured chains over three buffers, so a captured
/// step compiles to fused nodes.
fn step(bufs: &[Buffer<u64>], bodies: &Arc<AtomicU64>) -> Vec<TaskBuilder> {
    let mut tasks = Vec::new();
    for _ in 0..3 {
        for (c, b) in bufs.iter().enumerate() {
            let n = Arc::clone(bodies);
            tasks.push(
                TaskBuilder::new("link")
                    .write_all(b)
                    .meta(TaskMeta::new("link").with_color(c))
                    .body(move |ctx| {
                        let w = ctx.write::<u64>(0);
                        w.set(0, w.get(0) + 1);
                        n.fetch_add(1, Ordering::Relaxed);
                    }),
            );
        }
    }
    tasks
}

#[test]
fn spans_can_be_drained_while_another_thread_submits() {
    for ring_capacity in [kdr_runtime::DEFAULT_RING_CAPACITY, 64] {
        with_progress_watchdog("concurrent take_spans", move |progress| {
            let rt = Arc::new(Runtime::with_event_capacity(2, ring_capacity));
            rt.enable_events(true);
            let bodies = Arc::new(AtomicU64::new(0));
            let done = Arc::new(AtomicBool::new(false));

            let submitter = {
                let (rt, bodies, done) = (Arc::clone(&rt), Arc::clone(&bodies), Arc::clone(&done));
                std::thread::spawn(move || {
                    let bufs: Vec<Buffer<u64>> = (0..3).map(|_| Buffer::filled(1, 0)).collect();
                    rt.begin_trace().unwrap();
                    for t in step(&bufs, &bodies) {
                        rt.submit(t).unwrap();
                    }
                    let trace = rt.end_trace().unwrap();
                    assert!(trace.num_nodes() < trace.len(), "the step must fuse");
                    for round in 0..400 {
                        if round % 2 == 0 {
                            rt.replay(&trace, step(&bufs, &bodies)).unwrap();
                        } else {
                            for t in step(&bufs, &bodies) {
                                rt.submit(t).unwrap();
                            }
                        }
                    }
                    rt.fence().unwrap();
                    done.store(true, Ordering::Release);
                    bufs.iter().map(|b| b.snapshot()[0]).collect::<Vec<_>>()
                })
            };

            let mut seen = HashSet::new();
            let mut drains = 0u64;
            let mut check = |spans: Vec<kdr_runtime::TaskSpan>| {
                for s in spans {
                    assert!(
                        s.submit_ns <= s.ready_ns
                            && s.ready_ns <= s.start_ns
                            && s.start_ns <= s.end_ns
                            && s.end_ns <= s.retire_ns,
                        "malformed span {s:?}"
                    );
                    assert_eq!(s.name, "link");
                    // Two workers, and the lane of the threads that
                    // fence: this one's drains, the submitter's
                    // replays.
                    assert!(s.worker <= rt.num_workers());
                    assert_eq!(s.by_driver, s.worker == rt.num_workers());
                    assert!(s.deps.iter().all(|&d| d < s.id));
                    assert!(seen.insert(s.id), "task {} drained twice", s.id);
                }
            };
            while !done.load(Ordering::Acquire) {
                check(rt.take_spans());
                drains += 1;
                progress.fetch_add(1, Ordering::Relaxed);
            }
            let finals = submitter.join().expect("the submitter panicked");
            check(rt.take_spans());
            assert!(rt.take_spans().is_empty(), "a drained log stays drained");

            let executed = bodies.load(Ordering::Relaxed);
            assert_eq!(executed, 401 * 9);
            assert_eq!(finals, vec![401 * 3; 3]);
            let m = rt.metrics();
            assert_eq!(m.events_recorded, executed);
            assert_eq!(seen.len() as u64 + m.events_dropped, executed);
            if ring_capacity >= 401 * 9 {
                assert_eq!(m.events_dropped, 0);
            }
            assert!(drains > 0);
        });
    }
}

/// Occupy every worker of `rt` with a body that spins until `gate` is
/// set, and return once they are all inside it.
fn hold_workers(rt: &Runtime, gate: &Arc<AtomicBool>) {
    let held = Arc::new(AtomicU64::new(0));
    for _ in 0..rt.num_workers() {
        let (gate, held) = (Arc::clone(gate), Arc::clone(&held));
        rt.submit(TaskBuilder::new("hold").body(move |_| {
            held.fetch_add(1, Ordering::Release);
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }))
        .unwrap();
    }
    while held.load(Ordering::Acquire) < rt.num_workers() as u64 {
        std::thread::yield_now();
    }
}

#[test]
fn a_fencing_driver_runs_the_nodes_its_workers_cannot() {
    for workers in [1, 2, 4, 8] {
        with_progress_watchdog("fence behind held workers", move |progress| {
            const TASKS: usize = 64;
            const BEFORE_THE_GATE: u64 = 8;
            let rt = Runtime::new(workers);
            let gate = Arc::new(AtomicBool::new(false));
            hold_workers(&rt, &gate);
            let driver = std::thread::current().id();
            let runs: Arc<Vec<AtomicU64>> = Arc::new((0..TASKS).map(|_| AtomicU64::new(0)).collect());
            let by_driver = Arc::new(AtomicU64::new(0));
            for i in 0..TASKS {
                let (runs, by_driver, gate) = (Arc::clone(&runs), Arc::clone(&by_driver), Arc::clone(&gate));
                rt.submit(TaskBuilder::new("free").body(move |_| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    if std::thread::current().id() == driver {
                        // The workers stay held until the fencing
                        // thread has run some of what is queued.
                        if by_driver.fetch_add(1, Ordering::Relaxed) + 1 == BEFORE_THE_GATE {
                            gate.store(true, Ordering::Release);
                        }
                    } else {
                        assert!(gate.load(Ordering::Acquire), "a held worker ran a body");
                    }
                }))
                .unwrap();
            }
            assert_eq!(rt.metrics().nodes_run_by_drivers, 0, "nobody has waited yet");
            rt.fence().unwrap();
            progress.fetch_add(1, Ordering::Relaxed);
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "every body exactly once");
            let m = rt.metrics();
            assert_eq!(m.tasks_executed, (TASKS + workers) as u64);
            assert_eq!(m.nodes_run_by_drivers, by_driver.load(Ordering::Relaxed));
            assert!(m.nodes_run_by_drivers >= BEFORE_THE_GATE);
        });
    }
}

/// One step of the chain the two-driver test runs: `acc` goes through
/// `LINKS` order-sensitive updates, the last task copies it to `out`,
/// and a task off the chain bumps `side`.
const LINKS: u64 = 5;

fn link(acc: u64, k: u64) -> u64 {
    acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k)
}

fn chain(acc: &Buffer<u64>, out: &Buffer<u64>, side: &Buffer<u64>) -> Vec<TaskBuilder> {
    let mut tasks: Vec<TaskBuilder> = (0..LINKS)
        .map(|k| {
            TaskBuilder::new("link").write_all(acc).body(move |ctx| {
                let w = ctx.write::<u64>(0);
                w.set(0, link(w.get(0), k));
            })
        })
        .collect();
    tasks.push(TaskBuilder::new("side").write_all(side).body(|ctx| {
        let w = ctx.write::<u64>(0);
        w.set(0, w.get(0) + 1);
    }));
    tasks.push(
        TaskBuilder::new("publish")
            .read_all(acc)
            .write_all(out)
            .body(|ctx| ctx.write::<u64>(1).set(0, ctx.read::<u64>(0).get(0))),
    );
    tasks
}

#[test]
fn two_waiting_drivers_lose_no_wakeup_and_return_no_sooner_than_the_writer() {
    for workers in [1, 2, 4, 8] {
        with_progress_watchdog("a fencing and a reading driver", move |progress| {
            const ROUNDS: u64 = 2_000;
            let rt = Arc::new(Runtime::new(workers));
            let done = Arc::new(AtomicBool::new(false));
            let fencer = {
                let (rt, done) = (Arc::clone(&rt), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut fences = 0u64;
                    while !done.load(Ordering::Acquire) {
                        rt.fence().unwrap();
                        fences += 1;
                    }
                    fences
                })
            };
            let (acc, out, side) = (Buffer::filled(1, 1u64), Buffer::filled(1, 0u64), Buffer::filled(1, 0u64));
            rt.begin_trace().unwrap();
            for t in chain(&acc, &out, &side) {
                rt.submit(t).unwrap();
            }
            let trace = rt.end_trace().unwrap();
            let mut oracle = (0..LINKS).fold(1u64, link);
            assert_eq!(out.peek(0), oracle);
            for round in 0..ROUNDS {
                if round % 2 == 0 {
                    rt.replay(&trace, chain(&acc, &out, &side)).unwrap();
                } else {
                    for t in chain(&acc, &out, &side) {
                        rt.submit(t).unwrap();
                    }
                }
                oracle = (0..LINKS).fold(oracle, link);
                // Waits for `publish` — hence for the chain — and for
                // nothing else: `side` may still be in flight.
                rt.wait_written([out.id()]).unwrap();
                assert_eq!(out.peek(0), oracle, "round {round}: the read returned early");
                progress.fetch_add(1, Ordering::Relaxed);
            }
            done.store(true, Ordering::Release);
            assert!(fencer.join().expect("the fencing driver panicked") > 0);
            rt.fence().unwrap();
            assert_eq!(side.snapshot(), vec![ROUNDS + 1]);
            let m = rt.metrics();
            let bodies = (ROUNDS + 1) * (LINKS + 2);
            assert_eq!(m.tasks_executed + m.tasks_fused, bodies, "every body exactly once");
            assert_eq!(m.tasks_submitted, m.tasks_executed);
        });
    }
}

#[test]
fn a_panic_in_a_body_the_driver_runs_is_a_typed_error_and_the_driver_lives() {
    for workers in [1, 2, 4, 8] {
        with_progress_watchdog("panic on the driver lane", move |progress| {
            let rt = Runtime::new(workers);
            let gate = Arc::new(AtomicBool::new(false));
            hold_workers(&rt, &gate);
            let (v, s) = (Buffer::filled(1, 1.0f64), Buffer::filled(1, 0.0f64));
            let ran_on: Arc<parking_lot::Mutex<Option<ThreadId>>> = Arc::default();
            let (on, open) = (Arc::clone(&ran_on), Arc::clone(&gate));
            let boom = rt
                .submit(TaskBuilder::new("boom").write_all(&v).body(move |_| {
                    *on.lock() = Some(std::thread::current().id());
                    open.store(true, Ordering::Release);
                    panic!("boom on whoever runs it");
                }))
                .unwrap();
            // Depends on the failed write: poisoned, never run.
            rt.submit(
                TaskBuilder::new("after")
                    .read_all(&v)
                    .write_all(&s)
                    .body(|ctx| ctx.write::<f64>(1).set(0, 99.0)),
            )
            .unwrap();
            // The workers are held, so it is this thread that takes
            // `boom` — first in the queue — and panics inside it.
            let err = rt.wait_written([s.id()]).unwrap_err();
            progress.fetch_add(1, Ordering::Relaxed);
            assert_eq!((err.task, err.name), (boom, "boom"));
            assert!(matches!(&err.kind, TaskErrorKind::Panicked(m) if m.contains("boom on")));
            assert_eq!(*ran_on.lock(), Some(std::thread::current().id()));
            assert_eq!(s.peek(0), 0.0, "a poisoned successor must not run");
            // The failure sticks, for fences and for reads of what the
            // poisoned task would have written, until it is taken.
            assert_eq!(rt.fence().unwrap_err(), err);
            assert_eq!(rt.wait_written([s.id(), v.id()]).unwrap_err(), err);
            let m = rt.metrics();
            assert_eq!((m.task_failures, m.tasks_poisoned), (1, 1));
            assert_eq!(m.nodes_run_by_drivers, 1);
            assert_eq!(rt.take_failure(), Some(err));
            // Re-armed: the same buffers, the same thread.
            rt.submit(TaskBuilder::new("again").write_all(&s).body(|ctx| {
                ctx.write::<f64>(0).set(0, 7.0);
            }))
            .unwrap();
            rt.wait_written([s.id()]).unwrap();
            assert_eq!(s.peek(0), 7.0);
            rt.fence().unwrap();
        });
    }
}

#[test]
fn parked_time_is_time_with_nothing_to_run() {
    with_progress_watchdog("parked vs. working waits", |progress| {
        let rt = Runtime::new(1);
        let s = Buffer::filled(1, 0u64);
        let nap = Duration::from_millis(50);
        // The worker is inside the only writer, which naps once the
        // reader is on its way in: the reader has nothing to run and
        // parks for (most of) the nap.
        let started = Arc::new(AtomicBool::new(false));
        let waiting = Arc::new(AtomicBool::new(false));
        let (flag, go) = (Arc::clone(&started), Arc::clone(&waiting));
        rt.submit(TaskBuilder::new("slow").write_all(&s).body(move |ctx| {
            flag.store(true, Ordering::Release);
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            std::thread::sleep(nap);
            ctx.write::<u64>(0).set(0, 1);
        }))
        .unwrap();
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        waiting.store(true, Ordering::Release);
        let parked = rt.wait_written([s.id()]).unwrap();
        progress.fetch_add(1, Ordering::Relaxed);
        assert_eq!(s.peek(0), 1);
        assert!(parked >= nap / 2, "parked {parked:?} of a {nap:?} nap");
        assert_eq!(rt.metrics().nodes_run_by_drivers, 0);

        // The worker is held elsewhere and the reader runs the slow
        // writer itself: a long wait, none of it parked.
        let gate = Arc::new(AtomicBool::new(false));
        hold_workers(&rt, &gate);
        let open = Arc::clone(&gate);
        rt.submit(TaskBuilder::new("slow").write_all(&s).body(move |ctx| {
            std::thread::sleep(nap);
            ctx.write::<u64>(0).set(0, 2);
            open.store(true, Ordering::Release);
        }))
        .unwrap();
        let t0 = Instant::now();
        let parked = rt.wait_written([s.id()]).unwrap();
        let waited = t0.elapsed();
        assert_eq!(s.peek(0), 2);
        assert!(waited >= nap && parked < nap / 2, "waited {waited:?}, parked {parked:?}");
        assert_eq!(rt.metrics().nodes_run_by_drivers, 1);
        // Nothing in flight writes the buffer: no wait at all.
        assert_eq!(rt.wait_written([s.id()]).unwrap(), Duration::ZERO);
        rt.fence().unwrap();
    });
}

/// A task named `name` that applies `f` to the one element of `buf`.
fn update(buf: &Buffer<u64>, name: &'static str, f: fn(u64) -> u64) -> TaskBuilder {
    TaskBuilder::new(name).write_all(buf).shared_body(move |ctx| {
        let w = ctx.write::<u64>(0);
        w.set(0, f(w.get(0)));
    })
}

#[test]
fn another_thread_neither_waits_for_a_capture_nor_is_recorded_in_it() {
    let inc = |buf: &Buffer<u64>| update(buf, "inc", |v| v + 1);
    let dbl = |buf: &Buffer<u64>| update(buf, "dbl", |v| v * 2);
    let rt = Arc::new(Runtime::new(2));
    let (a, b) = (Buffer::filled(1, 1u64), Buffer::filled(1, 0u64));
    rt.begin_trace().unwrap();
    rt.submit(inc(&a)).unwrap();
    let (tx, rx) = mpsc::channel();
    {
        let (rt, b) = (Arc::clone(&rt), b.clone());
        // Detached: at a runtime that gates on the capture, this
        // thread never returns, and the test fails at the timeout.
        std::thread::spawn(move || {
            let nested = rt.begin_trace();
            rt.submit(inc(&b)).unwrap();
            let program = rt.compile_program(vec![inc(&b)]).unwrap();
            rt.run_program(&program, || {}, [b.id()]).unwrap().unwrap();
            rt.fence().unwrap();
            tx.send(nested).unwrap();
        });
    }
    let nested = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the other thread waited for the capture to close");
    assert_eq!(nested, Err(RuntimeError::NestedTrace));
    assert_eq!(b.snapshot(), [2]);
    rt.submit(dbl(&a)).unwrap();
    let trace = rt.end_trace().unwrap();
    assert_eq!(a.peek(0), (1 + 1) * 2);
    // Only this thread's two tasks, in order: a replay runs them again.
    assert_eq!(trace.len(), 2);
    assert_eq!(trace.deps_of(1), [0]);
    rt.replay(&trace, vec![inc(&a), dbl(&a)]).unwrap();
    rt.fence().unwrap();
    assert_eq!((a.snapshot(), b.snapshot()), (vec![(4 + 1) * 2], vec![2]));
    // The capture is closed: another thread may open one.
    let rt2 = Arc::clone(&rt);
    std::thread::spawn(move || {
        rt2.begin_trace().unwrap();
        rt2.end_trace().unwrap();
    })
    .join()
    .unwrap();
}
