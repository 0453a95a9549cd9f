//! Step programs: a step run from its program, captured or replayed,
//! leaves every bit where the reference backend (`reference/mod.rs`)
//! leaves the same calls, and a program is never replayed across a
//! change to what its calls lower to.
//!
//! Run in dev (where every program hit re-lowers its record and
//! asserts signature equality with the captured step) and in
//! `--release` (the path solves run on); `scripts/ci.sh` does both.

mod reference;

use std::sync::Arc;

use kdr_core::partitioning::compute_tiles;
use kdr_core::{
    backend::{OpComponentSpec, OpSetSpec},
    solve_traced, Backend, ChebyshevSolver, ExecBackend, KernelChoice, Planner, ScalarHandle,
    SolveControl, Solver, StepOutcome, RHS, SOL,
};
use kdr_index::Partition;
use kdr_sparse::{Csr, SparseMatrix, Stencil, Triples};
use reference::Reference;

/// Which backend a run goes through: the execution backend on some
/// workers, or the reference.
#[derive(Clone, Copy, Debug)]
enum How {
    Exec { workers: usize },
    Reference,
}

impl How {
    fn backend(self) -> Box<dyn Backend<f64>> {
        match self {
            How::Exec { workers } => Box::new(ExecBackend::<f64>::new(workers)),
            How::Reference => Box::new(Reference::<f64>::new()),
        }
    }
}

/// Every execution-backend run the scripts are checked on: 1, 3 and 4
/// workers. On three workers the colours of two components, 4096
/// apart, share home workers: 4096 is not a multiple of 3.
const EXEC_RUNS: [How; 3] = [
    How::Exec { workers: 1 },
    How::Exec { workers: 3 },
    How::Exec { workers: 4 },
];

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

fn run(seed: u64, how: How) -> Run {
    let body = script(seed);
    let mut p = Planner::new(how.backend());
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
        let (_, forced) = p.step_end(&handles);
        if let How::Exec { .. } = how {
            out.replayed
                .push(with_exec(&mut p, |b| b.step_counters().1));
        }
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

/// Every run of a seeded script — its steps captured, then replayed
/// from their programs, on 1, 3 or 4 workers — ends where the
/// reference backend ends, bit for bit.
#[test]
fn program_replay_matches_analyzed_submission_bitwise() {
    for seed in [3, 17, 101, 4242, 90001] {
        let reference = run(seed, How::Reference);
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
        for how in EXEC_RUNS {
            let got = run(seed, how);
            let what = format!("seed {seed}, {how:?}");
            assert_eq!(got.forced, reference.forced, "forced scalars: {what}");
            assert_eq!(got.vectors, reference.vectors, "vectors: {what}");
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
/// it is looked up by. Its replayed solve is the reference backend's
/// bit for bit, and a replayed step lowers no task.
#[test]
fn chebyshev_replays_with_fresh_constants_each_step() {
    let solve = |how: How| {
        let s = Stencil::lap2d(16, 16);
        let n = s.unknowns();
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
        let mut p = Planner::new(how.backend());
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
        let history: Vec<u64> = trace
            .residual_history
            .iter()
            .map(|&(_, r)| r.to_bits())
            .collect();
        let outcomes: Vec<StepOutcome> = trace.iterations.iter().map(|it| it.outcome).collect();
        let x: Vec<u64> = p
            .read_component(SOL, 0)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        (history, outcomes, x, p, solver)
    };
    let reference = solve(How::Reference);
    let (history, outcomes, x, mut p, mut solver) = solve(How::Exec { workers: 2 });
    assert_eq!(history, reference.0, "residual history");
    assert_eq!(x, reference.2, "solution");
    // The first step differs from the rest (d = r/θ); after it the
    // scalar slots settle into a short cycle, captured once.
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
    // Captured steps lower tasks, replayed ones none.
    let lowered = with_exec(&mut p, |b| b.metrics().step_tasks_lowered);
    assert!(lowered > 0);
    for _ in 0..4 {
        p.step_begin();
        solver.step(&mut p);
        assert_eq!(p.step_end(&[]).0, StepOutcome::Replayed);
    }
    assert_eq!(
        with_exec(&mut p, |b| b.metrics().step_tasks_lowered),
        lowered
    );
}

/// One backend call of a vector script. Vectors index [`SCRIPT_VECTORS`];
/// scalars index the step's scalar list, which every scalar-producing
/// call appends to (a released entry stays in the list, dead).
#[derive(Clone, Debug)]
enum Call {
    Copy(usize, usize),
    Zero(usize),
    Scal(usize, usize),
    Axpy(usize, usize, usize),
    Xpay(usize, usize, usize),
    Dots(Vec<(usize, usize)>),
    /// `base · (1 − step / 16)`.
    Const(f64),
    /// `x / (|x| + 1)` of a scalar: a coefficient of magnitude below 1
    /// made of three scalar ops.
    Tame(usize),
    Bin(u8, usize, usize),
    Un(u8, usize),
    /// Release a scalar: its slot is the next one a scalar op takes.
    Release(usize),
}

/// `(length, pieces)` of the two components of the vectors in the
/// first partition, and of those in the second: every piece count
/// differs, so no lane of one is a lane of the other on any worker
/// count. The first partition's long component has pieces of 2 050
/// elements, many lane blocks each and a dot tail; the second's deals
/// runs of 700 to its three pieces in turn, so a lane's pieces
/// interleave; the short components' pieces are shorter than a block.
const SCRIPT_PARTS: [[(u64, usize); 2]; 2] = [[(4100, 2), (28, 2)], [(4100, 3), (28, 3)]];
/// Vectors `0..7` live in the first partition (`6` a scratch vector
/// zeroed by every step), `7` and `8` in the second.
const SCRIPT_VECTORS: usize = 9;
const SCRATCH: usize = 6;

/// A seeded vector script: first the cases an `axpy` and the dot
/// recorded after it must lower correctly, fused or not, in every
/// script, then seeded calls. Coefficients are constants or
/// [`Call::Tame`] of a live scalar, so a vector grows by at most a
/// factor of two per call (the scratch vector, which takes a raw dot
/// as coefficient, is zeroed before any other call reads it), and
/// every vector of every seed ends within `2^±60`.
fn vector_script(seed: u64) -> Vec<Call> {
    use Call::*;
    let mut calls = vec![
        // A dot of the updated vector with itself, fused; the
        // coefficient's slot, released, is the one the dot's result
        // takes, so the reduction must come after the update read it.
        Const(0.25),
        Axpy(2, 0, 0),
        Release(0),
        Dots(vec![(2, 2)]),
        // The updated vector second in the pair, and first; the other
        // operand the update's source.
        Const(-0.125),
        Axpy(3, 2, 1),
        Dots(vec![(4, 3)]),
        Axpy(4, 2, 3),
        Dots(vec![(4, 3)]),
        // An in-place update (source = destination), then its dot:
        // not fused.
        Axpy(5, 2, 5),
        Dots(vec![(5, 5)]),
        // Two pairs after an update: not fused.
        Axpy(2, 2, 1),
        Dots(vec![(2, 3), (2, 2)]),
        Tame(3),
        // A raw dot result as the coefficient right after the dot. The
        // scratch vector then holds a product of three vectors: it is
        // zeroed again before any other call reads it.
        Dots(vec![(5, 0)]),
        Axpy(SCRATCH, 9, 0),
        Dots(vec![(SCRATCH, SCRATCH)]),
        Zero(SCRATCH),
        // Pairs over the other partition: the updated vector first
        // (fused, the other operand read at its lanes), then second
        // behind another partition's vector (not fused), then a batch
        // over both partitions.
        Copy(7, 0),
        Axpy(0, 2, 1),
        Dots(vec![(0, 7)]),
        Axpy(0, 2, 1),
        Dots(vec![(7, 0)]),
        Axpy(8, 2, 7),
        Dots(vec![(8, 8)]),
        Dots(vec![(7, 8), (0, 7), (8, 0)]),
        Xpay(7, 8, 8),
        Axpy(1, 2, 1),
        // `x += αp`, then `p = r + βp` (scalar 17 is β, 18 … α): the
        // `axpy` lowers into the `xpay` across a read of `p`, scalar
        // ops and another update.
        Const(0.375),
        Const(-0.25),
        Axpy(1, 18, 3),
        Dots(vec![(3, 4)]),
        Tame(19),
        Axpy(5, 20, 4),
        Xpay(3, 17, 4),
        // Not lowered into the `xpay`: an op reads `x` in between (a
        // copy, a dot), an op writes `p` in between.
        Axpy(1, 18, 3),
        Copy(0, 1),
        Xpay(3, 17, 4),
        Axpy(1, 18, 3),
        Dots(vec![(5, 1)]),
        Xpay(3, 17, 4),
        Axpy(1, 18, 3),
        Scal(3, 20),
        Xpay(3, 17, 4),
        // `α`'s slot released and taken again between the two by a
        // dot's result, a constant and a binop: the slot is the one
        // free slot, so the next scalar op takes it.
        Const(0.125),
        Axpy(1, 22, 3),
        Release(22),
        Dots(vec![(4, 5)]),
        Xpay(3, 17, 4),
        Const(0.1875),
        Axpy(1, 24, 3),
        Release(24),
        Const(-0.375),
        Xpay(3, 17, 4),
        Const(-0.0625),
        Axpy(1, 26, 3),
        Release(26),
        Bin(0, 17, 18),
        Xpay(3, 17, 4),
        // `x` of other lanes than `p`, and `r` of other lanes than
        // `p`: not lowered into the `xpay`.
        Axpy(7, 18, 1),
        Xpay(1, 17, 4),
        Axpy(1, 18, 3),
        Xpay(3, 17, 7),
    ];
    let mut rng = Rng(seed);
    // Which scalars of the list are live, and which are tame.
    let mut live: Vec<bool> = Vec::new();
    let mut tame: Vec<bool> = Vec::new();
    for call in &calls {
        match call {
            Const(_) | Tame(_) => {
                live.push(true);
                tame.push(true);
            }
            Dots(pairs) => {
                live.extend(pairs.iter().map(|_| true));
                tame.extend(pairs.iter().map(|_| false));
            }
            Release(k) => live[*k] = false,
            _ => {}
        }
    }
    // The prelude's scalars stay live: every pick has a candidate.
    let kept = live.len();
    // An `axpy(x, α, p)` opened by the seeded calls, and the calls left
    // before its `xpay(p, β, r)`.
    let mut pattern: Option<(usize, usize, usize)> = None;
    let (first, second) = (
        |rng: &mut Rng| rng.below(7),
        |rng: &mut Rng| 7 + rng.below(2),
    );
    for _ in 0..14 + rng.below(8) {
        let pick = |rng: &mut Rng, want: &dyn Fn(usize) -> bool| {
            let ok: Vec<usize> = (0..live.len()).filter(|&k| live[k] && want(k)).collect();
            ok[rng.below(ok.len())]
        };
        let coef = pick(&mut rng, &|k| tame[k]);
        match pattern {
            Some((0, p, r)) => {
                calls.push(Xpay(p, coef, r));
                pattern = None;
                continue;
            }
            Some((ref mut left, ..)) => *left -= 1,
            None if rng.below(4) == 0 => {
                // `x`, `p` and `r` distinct in the first partition, the
                // scratch vector left out; in the second, of two
                // vectors, `r` is `x`, which keeps the `axpy` where it
                // is.
                let (x, p, r) = if rng.below(4) == 0 {
                    let x = 7 + rng.below(2);
                    (x, 15 - x, x)
                } else {
                    let x = rng.below(SCRATCH);
                    let p = (x + 1 + rng.below(SCRATCH - 1)) % SCRATCH;
                    let r = (0..SCRATCH).filter(|&v| v != x && v != p).nth(rng.below(SCRATCH - 2));
                    (x, p, r.expect("four candidates"))
                };
                calls.push(Axpy(x, coef, p));
                pattern = Some((rng.below(4), p, r));
                continue;
            }
            None => {}
        }
        // Mostly the first partition, one call in four the second.
        let vec = |rng: &mut Rng| {
            if rng.below(4) == 0 {
                second(rng)
            } else {
                first(rng)
            }
        };
        let (d, s) = (vec(&mut rng), vec(&mut rng));
        let same = |rng: &mut Rng, v: usize| if v < 7 { first(rng) } else { second(rng) };
        let call = match rng.below(12) {
            0 => Copy(d, s),
            1 => Zero(d),
            2 => Scal(d, coef),
            3 | 4 => Axpy(d, coef, same(&mut rng, d)),
            5 => Xpay(d, coef, s),
            6 | 7 => Dots(
                (0..1 + rng.below(3))
                    .map(|_| (d, same(&mut rng, d)))
                    .collect(),
            ),
            8 => Const((rng.below(17) as f64 - 8.0) / 32.0),
            9 => Tame(pick(&mut rng, &|_| true)),
            10 => Bin(
                rng.below(4) as u8,
                pick(&mut rng, &|_| true),
                pick(&mut rng, &|_| true),
            ),
            _ => match rng.below(2) {
                0 => Un(rng.below(4) as u8, pick(&mut rng, &|_| true)),
                _ => match (kept..live.len()).filter(|&k| live[k]).collect::<Vec<_>>()[..] {
                    [] => Const(0.125),
                    ref released => Release(released[rng.below(released.len())]),
                },
            },
        };
        match &call {
            Const(_) | Tame(_) => {
                live.push(true);
                tame.push(true);
            }
            Bin(..) | Un(..) => {
                live.push(true);
                tame.push(false);
            }
            Dots(pairs) => {
                live.extend(pairs.iter().map(|_| true));
                tame.extend(pairs.iter().map(|_| false));
            }
            Release(k) => live[*k] = false,
            _ => {}
        }
        calls.push(call);
    }
    calls
}

/// What a run of a vector script leaves: every vector's components and
/// the scalars each step forced, as bits, and the task names the
/// runtime counted.
type ScriptRun = (Vec<Vec<u64>>, Vec<Vec<u64>>, Vec<&'static str>);

fn run_script(seed: u64, how: How) -> ScriptRun {
    use kdr_core::backend::{ScalarOp, ScalarUnop};
    use kdr_core::CompSpec;
    let calls = vector_script(seed);
    let mut b = how.backend();
    let vecs: Vec<usize> = (0..SCRIPT_VECTORS)
        .map(|v| {
            let second = v >= 7;
            let comps: Vec<CompSpec> = SCRIPT_PARTS[usize::from(second)]
                .iter()
                .enumerate()
                .map(|(c, &(len, pieces))| CompSpec {
                    len,
                    partition: match (second, c) {
                        // Pieces of interleaved runs of 700.
                        (true, 0) => Partition::block_cyclic(len, pieces, 700),
                        _ => Partition::equal_blocks(len, pieces),
                    },
                })
                .collect();
            b.alloc_vector(&comps)
        })
        .collect();
    for (v, &bv) in vecs.iter().enumerate() {
        for (c, &(n, _)) in SCRIPT_PARTS[0].iter().enumerate() {
            let data: Vec<f64> = (0..n)
                .map(|i| ((i * 5 + 3 * v as u64 + c as u64 + seed) % 17) as f64 / 16.0 - 0.5)
                .collect();
            b.fill_component(bv, c, &data);
        }
    }
    let mut forced = Vec::new();
    for step in 0..8 {
        b.step_begin();
        b.set_zero(vecs[SCRATCH]);
        let mut scalars: Vec<Option<usize>> = Vec::new();
        let get = |scalars: &[Option<usize>], k: usize| {
            scalars[k].expect("the script names live scalars only")
        };
        for call in &calls {
            match *call {
                Call::Copy(d, s) => b.copy(vecs[d], vecs[s]),
                Call::Zero(d) => b.set_zero(vecs[d]),
                Call::Scal(d, c) => b.scal(vecs[d], get(&scalars, c)),
                Call::Axpy(d, c, s) => b.axpy(vecs[d], get(&scalars, c), vecs[s]),
                Call::Xpay(d, c, s) => b.xpay(vecs[d], get(&scalars, c), vecs[s]),
                Call::Dots(ref pairs) => {
                    let pairs: Vec<(usize, usize)> =
                        pairs.iter().map(|&(x, y)| (vecs[x], vecs[y])).collect();
                    scalars.extend(b.dot_many(&pairs).into_iter().map(Some));
                }
                Call::Const(base) => {
                    scalars.push(Some(b.scalar_const(base * (1.0 - step as f64 / 16.0))))
                }
                Call::Tame(x) => {
                    let x = get(&scalars, x);
                    let abs = b.scalar_unop(ScalarUnop::Abs, x);
                    let one = b.scalar_const(1.0);
                    let denom = b.scalar_binop(ScalarOp::Add, abs, one);
                    scalars.push(Some(b.scalar_binop(ScalarOp::Div, x, denom)));
                    for s in [abs, one, denom] {
                        b.scalar_release(s);
                    }
                }
                Call::Bin(kind, x, y) => {
                    let op =
                        [ScalarOp::Add, ScalarOp::Sub, ScalarOp::Mul, ScalarOp::Div][kind as usize];
                    let s = b.scalar_binop(op, get(&scalars, x), get(&scalars, y));
                    scalars.push(Some(s));
                }
                Call::Un(kind, x) => {
                    let op = [
                        ScalarUnop::Neg,
                        ScalarUnop::Sqrt,
                        ScalarUnop::Abs,
                        ScalarUnop::Recip,
                    ][kind as usize];
                    let s = b.scalar_unop(op, get(&scalars, x));
                    scalars.push(Some(s));
                }
                Call::Release(k) => b.scalar_release(scalars[k].take().expect("released once")),
            }
        }
        let live: Vec<usize> = scalars.into_iter().flatten().collect();
        let (_, values) = b.step_end(&live);
        forced.push(values.into_iter().map(f64::to_bits).collect());
        for s in live {
            b.scalar_release(s);
        }
    }
    let vectors = vecs
        .iter()
        .flat_map(|&v| (0..2).map(move |c| (v, c)))
        .map(|(v, c)| {
            b.read_component(v, c)
                .into_iter()
                .map(f64::to_bits)
                .collect()
        })
        .collect();
    let names = match b.as_any().downcast_mut::<ExecBackend<f64>>() {
        Some(exec) => exec.metrics().runtime.task_counts.keys().copied().collect(),
        None => Vec::new(),
    };
    (vectors, forced, names)
}

/// The fused lowerings keep every bit: an `axpy` and the one-pair dot
/// recorded after it lower to one `axpy+dot_partial` body per lane when
/// the pair reads the updated vector at its lanes, and an `axpy(x, α,
/// p)` lowers into a later `xpay(p, β, r)` as one `axpy+xpay` body per
/// lane when nothing in between reads or writes `x`, writes `p` or
/// writes `α`'s slot. A seeded script of vector ops, dots and scalar
/// ops over vectors of two partitions — the fused cases and the ones
/// that must not fuse, released coefficients' slots taken again,
/// reads after writes, in-place updates, a raw dot result as a
/// coefficient, seeded `axpy … xpay` pairs with seeded calls between —
/// on 1, 3 and 4 workers ends where the reference backend ends, bit for
/// bit.
#[test]
fn vector_scripts_match_analyzed_submission_bitwise() {
    for seed in [5, 23, 777, 31337] {
        let (vectors, forced, _) = run_script(seed, How::Reference);
        // Far from overflow and underflow: a wrong lowering's error
        // stays in the compared bits instead of rounding away.
        let tame = |&b: &u64| {
            let v = f64::from_bits(b).abs();
            v == 0.0 || (2f64.powi(-60)..=2f64.powi(60)).contains(&v)
        };
        assert!(
            vectors.iter().flatten().all(tame),
            "seed {seed}: a vector left 2^±60"
        );
        for how in EXEC_RUNS {
            let got = run_script(seed, how);
            let what = format!("seed {seed}, {how:?}");
            assert_eq!(got.1, forced, "forced scalars: {what}");
            assert_eq!(got.0, vectors, "vectors: {what}");
            // Every run fuses.
            for fused in ["axpy+dot_partial", "axpy+xpay"] {
                assert!(got.2.contains(&fused), "{what}: {:?}", got.2);
            }
        }
    }
}
