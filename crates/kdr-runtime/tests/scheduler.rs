//! Contracts of the scheduler lock: a wake-up is never lost (no wait in
//! the executor has a timeout to fall back on), and the span log can be
//! drained while other threads submit.
//!
//! Both tests run their workload on a spawned thread under a progress
//! watchdog whose only clock is "no progress for five seconds fails",
//! so a hang is a failure with a message instead of a stuck test run.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kdr_runtime::{Buffer, Runtime, TaskBuilder, TaskMeta};

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
                    assert!(s.worker < 2);
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
