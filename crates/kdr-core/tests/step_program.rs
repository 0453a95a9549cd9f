//! Step programs: a step replayed from its cached program leaves every
//! bit where the analyzed run of the same calls leaves it, and a
//! program is never replayed across a change to what its calls lower
//! to.
//!
//! Run in dev (where every program hit re-lowers its record and
//! asserts signature equality with the captured step) and in
//! `--release` (the path solves run on); `scripts/ci.sh` does both.

use std::sync::Arc;

use kdr_core::partitioning::compute_tiles;
use kdr_core::{
    backend::{OpComponentSpec, OpSetSpec},
    solve_traced, Backend, ChebyshevSolver, ExecBackend, KernelChoice, Planner, ScalarHandle,
    SolveControl, StepOutcome, RHS, SOL,
};
use kdr_index::Partition;
use kdr_sparse::{Csr, SparseMatrix, Stencil, Triples};

/// SplitMix64: the scripts below are a function of their seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Component sizes and piece counts of the system: two components, so
/// every vector operation is a launch over both.
const COMPS: [(u64, usize); 2] = [(60, 3), (28, 2)];
/// `SOL`, `RHS` and four workspace vectors.
const VECTORS: usize = 6;

/// A banded block `rows × cols` with entries small enough that
/// repeated products stay far from overflow.
fn block(rows: u64, cols: u64, seed: u64) -> Arc<dyn SparseMatrix<f64>> {
    let mut t = Triples::new(rows, cols);
    for i in 0..rows {
        for d in 0..3u64 {
            let j = (i * cols / rows + d) % cols;
            let v = ((seed + 3 * i + 7 * d) % 11) as f64 / 40.0 - 0.12;
            t.push(i, j, v);
        }
    }
    Arc::new(Csr::<f64, u64>::from_triples(t))
}

/// One planner operation of a scripted step. Vectors are indices into
/// the run's vector list; scalars index the step's scalar stack, which
/// every scalar-producing operation pushes onto.
#[derive(Clone, Debug)]
enum Op {
    Copy(usize, usize),
    Zero(usize),
    Scal(usize, usize),
    Axpy(usize, usize, usize),
    Xpay(usize, usize, usize),
    DotMany(Vec<(usize, usize)>),
    Matmul(usize, usize),
    MatmulT(usize, usize),
    /// A constant: `base · (step + 1)`, so no two steps share it.
    Const(f64),
    Bin(u8, usize, usize),
    Un(u8, usize),
}

/// A seeded step body. It opens with a one-pair `dot` (position 0 of
/// the step's reductions, which the width perturbation below aims at)
/// and a constant. Coefficients of vector operations are constants or
/// `x / (|x| + 1)` of an earlier scalar, so vectors grow by at most a
/// factor of two per operation.
fn script(seed: u64) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut ops = vec![Op::DotMany(vec![(0, 1)]), Op::Const(0.03125)];
    let mut scalars = 2usize;
    let pair = |rng: &mut Rng| (rng.below(VECTORS), rng.below(VECTORS));
    let distinct = |rng: &mut Rng| {
        let d = rng.below(VECTORS);
        (d, (d + 1 + rng.below(VECTORS - 1)) % VECTORS)
    };
    for _ in 0..10 + rng.below(8) {
        // A tame coefficient for the vector operations.
        let coef = |rng: &mut Rng, ops: &mut Vec<Op>, scalars: &mut usize| {
            if rng.below(2) == 0 {
                ops.push(Op::Const((rng.below(17) as f64 - 8.0) / 32.0));
                *scalars += 1;
            } else {
                let x = rng.below(*scalars);
                ops.push(Op::Un(2, x)); // |x|
                ops.push(Op::Const(1.0));
                ops.push(Op::Bin(0, *scalars, *scalars + 1)); // |x| + 1
                ops.push(Op::Bin(3, x, *scalars + 2)); // x / (|x| + 1)
                *scalars += 4;
            }
            *scalars - 1
        };
        match rng.below(11) {
            0 => {
                let (d, s) = pair(&mut rng); // may alias
                ops.push(Op::Copy(d, s));
            }
            1 => ops.push(Op::Zero(2 + rng.below(VECTORS - 2))),
            2 => {
                let c = coef(&mut rng, &mut ops, &mut scalars);
                ops.push(Op::Scal(rng.below(VECTORS), c));
            }
            3 | 4 => {
                let c = coef(&mut rng, &mut ops, &mut scalars);
                let (d, s) = pair(&mut rng); // may alias
                ops.push(Op::Axpy(d, c, s));
            }
            5 => {
                let c = coef(&mut rng, &mut ops, &mut scalars);
                let (d, s) = pair(&mut rng); // may alias
                ops.push(Op::Xpay(d, c, s));
            }
            6 => {
                let width = 1 + rng.below(3);
                ops.push(Op::DotMany((0..width).map(|_| pair(&mut rng)).collect()));
                scalars += width;
            }
            7 => {
                let (d, s) = distinct(&mut rng);
                ops.push(Op::Matmul(d, s));
            }
            8 => {
                let (d, s) = distinct(&mut rng);
                ops.push(Op::MatmulT(d, s));
            }
            9 => {
                ops.push(Op::Bin(
                    rng.below(4) as u8,
                    rng.below(scalars),
                    rng.below(scalars),
                ));
                scalars += 1;
            }
            _ => {
                ops.push(Op::Un(rng.below(4) as u8, rng.below(scalars)));
                scalars += 1;
            }
        }
    }
    ops
}

/// What happens between two steps of a run.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Between {
    Nothing,
    /// Register a second operator set.
    SecondOperator,
    /// A step of its own whose first reduction is two pairs wide: its
    /// program gets a partials buffer of its own, beside the one the
    /// body's one-pair `dot` keeps using.
    WiderDot,
    /// Release the last two workspace vectors and take them again
    /// (zeroed, under the same ids).
    Workspace,
}

const STEPS: usize = 15;

fn between(step: usize) -> Between {
    match step {
        3 => Between::SecondOperator,
        6 => Between::WiderDot,
        12 => Between::Workspace,
        _ => Between::Nothing,
    }
}

struct Run {
    /// Every component of every vector at the end, as bits.
    vectors: Vec<Vec<u64>>,
    /// The scalars forced after each step, as bits.
    forced: Vec<Vec<u64>>,
    outcomes: Vec<StepOutcome>,
    /// `steps_replayed` after each step.
    replayed: Vec<u64>,
}

fn with_exec<R>(p: &mut Planner<f64>, f: impl FnOnce(&mut ExecBackend<f64>) -> R) -> R {
    p.with_backend(|b| {
        f(b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("the planner runs on the exec backend"))
    })
}

fn run(seed: u64, traced: bool, workers: usize) -> Run {
    let body = script(seed);
    let mut backend = ExecBackend::<f64>::new(workers);
    backend.set_step_tracing(traced);
    let mut p = Planner::new(Box::new(backend));
    let parts: Vec<Partition> = COMPS
        .iter()
        .map(|&(n, pieces)| Partition::equal_blocks(n, pieces))
        .collect();
    for (c, &(n, _)) in COMPS.iter().enumerate() {
        assert_eq!(p.add_sol_vector(n, Some(parts[c].clone())), c);
        assert_eq!(p.add_rhs_vector(n, Some(parts[c].clone())), c);
    }
    // Diagonal blocks and one coupling block: rhs 0 ← sol 1.
    p.add_operator(block(COMPS[0].0, COMPS[0].0, seed), 0, 0);
    p.add_operator(block(COMPS[1].0, COMPS[1].0, seed + 1), 1, 1);
    p.add_operator(block(COMPS[0].0, COMPS[1].0, seed + 2), 1, 0);
    for (c, &(n, _)) in COMPS.iter().enumerate() {
        let data = |k: u64| -> Vec<f64> {
            (0..n)
                .map(|i| ((i * 7 + k + seed) % 13) as f64 / 8.0 - 0.75)
                .collect()
        };
        p.set_sol_data(c, &data(1));
        p.set_rhs_data(c, &data(5));
    }
    let mut vecs = vec![SOL, RHS];
    while vecs.len() < VECTORS {
        vecs.push(p.allocate_workspace_vector());
    }

    let mut out = Run {
        vectors: Vec::new(),
        forced: Vec::new(),
        outcomes: Vec::new(),
        replayed: Vec::new(),
    };
    for step in 0..STEPS {
        match between(step) {
            Between::Nothing => {}
            Between::SecondOperator => {
                let m = block(COMPS[1].0, COMPS[1].0, seed + 9);
                let tiles = compute_tiles(m.as_ref(), &parts[1], &parts[1], 1, 1);
                p.with_backend(|b| {
                    b.register_operator(OpSetSpec {
                        components: vec![OpComponentSpec {
                            matrix: m,
                            sol_comp: 1,
                            rhs_comp: 1,
                            tiles,
                        }],
                        kernel_choice: KernelChoice::Auto,
                    })
                });
            }
            Between::WiderDot => {
                p.step_begin();
                let wide = p.dot_many(&[(vecs[0], vecs[1]), (vecs[2], vecs[2])]);
                p.step_end(&[]);
                drop(wide);
            }
            Between::Workspace => {
                p.release_workspace_from(vecs[VECTORS - 2]);
                for v in &vecs[VECTORS - 2..] {
                    assert_eq!(p.allocate_workspace_vector(), *v);
                }
            }
        }
        p.step_begin();
        let mut scalars: Vec<ScalarHandle<f64>> = Vec::new();
        for op in &body {
            match op {
                Op::Copy(d, s) => p.copy(vecs[*d], vecs[*s]),
                Op::Zero(d) => p.zero(vecs[*d]),
                Op::Scal(d, c) => p.scal(vecs[*d], &scalars[*c]),
                Op::Axpy(d, c, s) => p.axpy(vecs[*d], &scalars[*c], vecs[*s]),
                Op::Xpay(d, c, s) => p.xpay(vecs[*d], &scalars[*c], vecs[*s]),
                Op::DotMany(pairs) => {
                    let pairs: Vec<_> = pairs.iter().map(|&(a, b)| (vecs[a], vecs[b])).collect();
                    match pairs[..] {
                        [(a, b)] => scalars.push(p.dot(a, b)),
                        _ => scalars.extend(p.dot_many(&pairs)),
                    }
                }
                Op::Matmul(d, s) => p.matmul(vecs[*d], vecs[*s]),
                Op::MatmulT(d, s) => p.matmul_transpose(vecs[*d], vecs[*s]),
                Op::Const(base) => scalars.push(p.scalar(base * (step + 1) as f64)),
                Op::Bin(kind, x, y) => {
                    let (x, y) = (&scalars[*x], &scalars[*y]);
                    scalars.push(match kind {
                        0 => x + y,
                        1 => x - y,
                        2 => x * y,
                        _ => x / y,
                    });
                }
                Op::Un(kind, x) => {
                    let x = &scalars[*x];
                    scalars.push(match kind {
                        0 => -x,
                        1 => x.sqrt(),
                        2 => x.abs(),
                        _ => x.recip(),
                    });
                }
            }
        }
        // Force the step's scalars with the step, then let every
        // handle go: each step starts with every slot free, so one body
        // records one op list.
        let handles: Vec<&ScalarHandle<f64>> = scalars.iter().collect();
        let (outcome, forced) = p.step_end(&handles);
        out.outcomes.push(outcome);
        out.replayed
            .push(with_exec(&mut p, |b| b.step_counters().2));
        out.forced
            .push(forced.into_iter().map(f64::to_bits).collect());
    }
    for &v in &vecs {
        for c in 0..COMPS.len() {
            let data = p.read_component(v, c);
            out.vectors
                .push(data.into_iter().map(f64::to_bits).collect());
        }
    }
    out
}

#[test]
fn program_replay_matches_analyzed_submission_bitwise() {
    for seed in [3, 17, 101, 4242, 90001] {
        let reference = run(seed, false, 1);
        assert!(
            reference
                .outcomes
                .iter()
                .all(|&o| o == StepOutcome::Analyzed),
            "tracing off never captures"
        );
        let finite = |bits: &Vec<u64>| bits.iter().all(|&b| f64::from_bits(b).is_finite());
        assert!(
            reference.vectors.iter().all(finite),
            "the script overflowed"
        );
        assert!(reference
            .vectors
            .iter()
            .flatten()
            .any(|&b| f64::from_bits(b) != 0.0));
        // On three workers the colours of the two components, 4096
        // apart, share home workers: 4096 is not a multiple of 3.
        for (traced, workers) in [(false, 4), (true, 1), (true, 3), (true, 4)] {
            let got = run(seed, traced, workers);
            let what = format!("seed {seed}, traced {traced}, {workers} workers");
            assert_eq!(got.forced, reference.forced, "forced scalars: {what}");
            assert_eq!(got.vectors, reference.vectors, "vectors: {what}");
            if !traced {
                continue;
            }
            assert!(
                !got.outcomes.contains(&StepOutcome::Analyzed),
                "a traced step is a program: {what}"
            );
            assert!(*got.replayed.last().unwrap() > 0, "{what}");
            // Replay count gained by each step of the body.
            let gained = |step: usize| got.replayed[step] - got.replayed[step - 1];
            for step in 1..STEPS {
                match between(step) {
                    // A replay is legitimate here (the vectors come back
                    // under the ids they had); only the bits count.
                    Between::Workspace => {}
                    // Nothing a step's calls lower to was replaced since
                    // a step that had its program (a wider reduction at
                    // the same position adds a pool entry, it does not
                    // re-make the body's).
                    Between::Nothing | Between::WiderDot => {
                        assert_eq!(gained(step), 1, "step {step} replays: {what}")
                    }
                    // What the recorded calls lower to has changed.
                    changed => assert_eq!(
                        gained(step),
                        0,
                        "step {step} after {changed:?} must not replay: {what}"
                    ),
                }
            }
        }
    }
}

/// Chebyshev materializes fresh constants every step (the recurrence
/// coefficients): they are parameters of its program, not part of what
/// it is looked up by.
#[test]
fn chebyshev_replays_with_fresh_constants_each_step() {
    let solve = |traced: bool| {
        let s = Stencil::lap2d(16, 16);
        let n = s.unknowns();
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
        let mut backend = ExecBackend::<f64>::new(2);
        backend.set_step_tracing(traced);
        let mut p = Planner::new(Box::new(backend));
        let part = Partition::equal_blocks(n, 4);
        let d = p.add_sol_vector(n, Some(part.clone()));
        let r = p.add_rhs_vector(n, Some(part));
        p.add_operator(Arc::clone(&m), d, r);
        p.set_rhs_data(r, &kdr_sparse::stencil::rhs_vector::<f64>(n, 5));
        let lmax = ChebyshevSolver::<f64>::gershgorin_upper_bound(m.as_ref());
        let mut solver = ChebyshevSolver::with_bounds(&mut p, 0.05, lmax);
        let control = SolveControl {
            max_iters: 40,
            check_every: 1,
            ..SolveControl::default()
        };
        let (report, trace) = solve_traced(&mut p, &mut solver, control);
        assert_eq!(report.expect("forty steps do not break down").iters, 40);
        let lowered = with_exec(&mut p, |b| b.metrics().step_tasks_lowered);
        let history: Vec<u64> = trace
            .residual_history
            .iter()
            .map(|&(_, r)| r.to_bits())
            .collect();
        let outcomes: Vec<StepOutcome> = trace.iterations.iter().map(|it| it.outcome).collect();
        (history, outcomes, lowered, p.read_component(SOL, 0))
    };
    let analyzed = solve(false);
    let traced = solve(true);
    assert_eq!(traced.0, analyzed.0, "residual history");
    assert_eq!(traced.3, analyzed.3, "solution");
    // The first step differs from the rest (d = r/θ); after it the
    // scalar slots settle into a short cycle, captured once.
    let outcomes = &traced.1;
    let first_replay = outcomes
        .iter()
        .position(|&o| o == StepOutcome::Replayed)
        .expect("Chebyshev steps replay");
    assert!(first_replay <= 8, "{outcomes:?}");
    assert!(
        outcomes[first_replay..]
            .iter()
            .all(|&o| o == StepOutcome::Replayed),
        "every step after the first cycle replays: {outcomes:?}"
    );
    assert!(
        traced.2 < analyzed.2 / 4,
        "captured steps lower tasks, replayed ones none: {} against {}",
        traced.2,
        analyzed.2
    );
}
