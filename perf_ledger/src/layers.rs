//! Single-layer probes: each times one crate's public functions in
//! isolation, so a change to that layer shows here before (and
//! whether or not) it shows end to end. Run only in the ledger
//! (`--trace 1`) pass, never inside an end-to-end measurement.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use kdr_baselines::{solve_spmd, BaselineKsm};
use kdr_core::{CgSolver, ExecBackend, FusedCgSolver, Planner, SimBackend, SolveControl, Solver};
use kdr_index::{spmv_closure, IntervalSet, Partition};
use kdr_machine::{simulate, MachineConfig};
use kdr_runtime::{Buffer, Runtime, TaskBuilder};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{
    KernelChoice, KernelKind, SparseMatrix, Stencil, StencilOperator, StencilTile, TileKernel,
};

use crate::host;
use crate::inputs::{block_tridiag_triplets, scatter_matrix, RefCsr};
use crate::spans::{Layer, Recorder};
use crate::stats::median;
use crate::workloads::{cold, seq, timed_ms, Notes};

/// Which Krylov method a workload's operation runs, for the
/// per-iteration kernel floor and the bulk-synchronous baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Cg,
    BiCgStab,
}

impl Method {
    /// `(SpMVs, dot sweeps, axpy-like sweeps)` per iteration.
    fn sweeps(self) -> (f64, f64, f64) {
        match self {
            Method::Cg => (1.0, 2.0, 3.0),
            Method::BiCgStab => (2.0, 5.0, 6.0),
        }
    }
}

/// The problem a workload's operation solves, as the probes need it.
pub struct Problem {
    /// Harness copy of the operator.
    pub matrix: RefCsr,
    /// Its right-hand side.
    pub b: Vec<f64>,
    pub method: Method,
    /// Iterations the baseline runs (fixed, no tolerance).
    pub baseline_iters: usize,
}

/// The problem behind the named workload for `seed`.
pub fn problem_of(workload: &str, seed: u64) -> Problem {
    let stencil_problem = |s: Stencil, baseline_iters: usize| Problem {
        matrix: RefCsr::from_matrix(&s.to_csr::<f64, u64>()),
        b: rhs_vector(s.unknowns(), crate::inputs::rhs_seed(seed, 0)),
        method: Method::Cg,
        baseline_iters,
    };
    match workload {
        "seq_kernel" => stencil_problem(seq::SEQ_KERNEL.stencil, 24),
        "seq_tax" => stencil_problem(seq::SEQ_TAX.stencil, 200),
        "cold_irregular" => Problem {
            matrix: scatter_matrix(cold::N, seed),
            b: rhs_vector(cold::N as u64, crate::inputs::rhs_seed(seed, 0)),
            method: Method::BiCgStab,
            baseline_iters: 60,
        },
        _ => stencil_problem(Stencil::lap2d(24, 24), 400),
    }
}

/// Best-of-`batches` time of one `y += A x`, microseconds, timing
/// `per_batch` applies at a time.
fn spmv_us(kernel: &TileKernel<f64>, n: usize, batches: usize, per_batch: usize) -> f64 {
    let x: Vec<f64> = (0..n)
        .map(|i| 0.5 + ((i * 13 + 7) % 32) as f64 * 0.125)
        .collect();
    let mut y = vec![0.0; n];
    kernel.apply_slices(&x, &mut y, false);
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            kernel.apply_slices(black_box(&x), &mut y, false);
        }
        best = best.min(t0.elapsed().as_secs_f64() / per_batch as f64);
    }
    black_box(&y);
    best * 1e6
}

fn lower(t: &(Vec<u64>, Vec<u64>, Vec<f64>), choice: KernelChoice) -> TileKernel<f64> {
    TileKernel::lower(&t.0, &t.1, &t.2, choice)
}

/// Rows `[lo, hi)` of a harness matrix as triplets.
fn row_slab(m: &RefCsr, lo: usize, hi: usize) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let (klo, khi) = (m.rowptr[lo] as usize, m.rowptr[hi] as usize);
    let mut rows = Vec::with_capacity(khi - klo);
    for i in lo..hi {
        rows.extend(std::iter::repeat_n(
            i as u64,
            (m.rowptr[i + 1] - m.rowptr[i]) as usize,
        ));
    }
    (
        rows,
        m.colidx[klo..khi].to_vec(),
        m.values[klo..khi].to_vec(),
    )
}

/// Median over `reps` timings of `f`, milliseconds.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median(&(0..reps).map(|_| timed_ms(&mut f).0).collect::<Vec<_>>())
}

/// `kdr-index`: co-partitioning of the scatter matrix in 8 pieces.
fn index(notes: &mut Notes, rec: &Recorder, scatter: &RefCsr) {
    let lib = scatter.to_csr();
    let (row, col) = (lib.row_relation(), lib.col_relation());
    let mut halo_intervals = 0usize;
    let copartition_ms = median_ms(5, || {
        rec.span(Layer::Index, "copartition", || {
            let part = Partition::equal_blocks(scatter.n() as u64, cold::PIECES);
            let (_, d) = spmv_closure(row.as_ref(), col.as_ref(), &part);
            halo_intervals = d.pieces().iter().map(|p| p.runs().len()).sum();
        })
    });
    notes.insert("index.copartition_ms", copartition_ms);
    notes.insert("index.halo_intervals", halo_intervals as f64);
}

/// `kdr-sparse`: lowering, and every kernel of the family
/// single-threaded.
fn sparse(notes: &mut Notes, rec: &Recorder, scatter: &RefCsr) {
    // Lowering: one piece of the scatter matrix (stays CSR) and one
    // piece of the 27-point operator (becomes DIA).
    let scatter_piece = row_slab(scatter, 0, scatter.n() / cold::PIECES);
    let lap27 = RefCsr::from_matrix(&seq::SEQ_KERNEL.stencil.to_csr::<f64, u64>());
    let lap27_piece = row_slab(&lap27, 0, lap27.n() / seq::SEQ_KERNEL.pieces);
    for (name, piece, kind) in [
        (
            "sparse.lower_csr_ns_per_nnz",
            &scatter_piece,
            KernelKind::Csr,
        ),
        ("sparse.lower_dia_ns_per_nnz", &lap27_piece, KernelKind::Dia),
    ] {
        let ms = median_ms(3, || {
            let k = rec.span(Layer::Sparse, "lower", || lower(piece, KernelChoice::Auto));
            assert_eq!(k.kind(), Some(kind), "{name}: auto-selection changed kind");
        });
        notes.insert(name, ms * 1e6 / piece.2.len() as f64);
    }

    // The kernel family, each on the shape it is selected for.
    let all27 = (
        row_slab(&lap27, 0, lap27.n()),
        lap27.n(),
        KernelChoice::Auto,
    );
    let lap2d = RefCsr::from_matrix(&seq::SEQ_TAX.stencil.to_csr::<f64, u64>());
    let small = [
        (
            "sparse.spmv_csr_us",
            row_slab(scatter, 0, scatter.n()),
            scatter.n(),
            KernelChoice::Auto,
        ),
        (
            "sparse.spmv_bcsr_us",
            block_tridiag_triplets(4096, 4),
            16_384,
            KernelChoice::Auto,
        ),
        (
            "sparse.spmv_ell_us",
            row_slab(&lap2d, 0, lap2d.n()),
            lap2d.n(),
            KernelChoice::Force(KernelKind::Ell),
        ),
    ];
    for (name, t, n, choice) in &small {
        let k = rec.span(Layer::Sparse, "lower", || lower(t, *choice));
        let us = rec.span(Layer::Sparse, "apply_slices", || spmv_us(&k, *n, 50, 8));
        notes.insert(name, us);
    }
    let matfree = Stencil::lap2d(64, 64);
    let tile = TileKernel::Stencil(StencilTile::new(matfree, vec![(0, matfree.unknowns())]));
    let us = rec.span(Layer::Sparse, "apply_slices", || {
        spmv_us(&tile, matfree.unknowns() as usize, 50, 8)
    });
    notes.insert("sparse.spmv_stencil_us", us);

    // The big DIA kernel against the triad at the same footprint.
    let (t, n, choice) = &all27;
    let dia = rec.span(Layer::Sparse, "lower", || lower(t, *choice));
    assert_eq!(dia.kind(), Some(KernelKind::Dia));
    let dia_us = rec.span(Layer::Sparse, "apply_slices", || spmv_us(&dia, *n, 12, 4));
    // Computed bytes: every stored value once, x once, y read and
    // written. Cache hits are not subtracted.
    let bytes = dia.value_bytes() + 3 * 8 * n;
    let gbps = bytes as f64 / (dia_us * 1e-6) / 1e9;
    let triad = rec.span(Layer::Bench, "triad", || host::triad_gbps(bytes, 12));
    notes.insert("sparse.spmv_dia_us", dia_us);
    notes.insert("sparse.spmv_dia_gbps", gbps);
    notes.insert("sparse.spmv_dia_roof_frac", gbps / triad);
    notes.insert("bench.triad_gbps", triad);
}

/// One no-op task writing element `i` of `buf`, optionally reading
/// whole other buffers first.
fn noop(name: &'static str, reads: &[&Buffer<f64>], buf: &Buffer<f64>, i: usize) -> TaskBuilder {
    let mut t = TaskBuilder::new(name);
    for r in reads {
        t = t.read_all(r);
    }
    t.write(buf, IntervalSet::from_range(i as u64, i as u64 + 1))
        .body(|_| {})
}

/// A no-op task list shaped like one 16-piece CG step — SpMV with
/// neighbour reads, the `(p, q)` reduction, the `x` and `r` updates,
/// the `(r, r)` reduction, the `p` update: 98 tasks.
fn cg_step_shape(v: &[Buffer<f64>; 6]) -> Vec<TaskBuilder> {
    const PIECES: u64 = 16;
    let [x, r, p, q, partial, scalar] = v;
    let piece = |i: u64| IntervalSet::from_range(i, i + 1);
    let mut tasks = Vec::with_capacity(98);
    for i in 0..PIECES {
        let (lo, hi) = (i.saturating_sub(1), (i + 2).min(PIECES));
        tasks.push(
            TaskBuilder::new("spmv")
                .read(p, IntervalSet::from_range(lo, hi))
                .write(q, piece(i))
                .body(|_| {}),
        );
    }
    // One task per piece reading `reads` (and the reduced scalar when
    // `scaled`) at its own piece and writing `dst` there.
    let sweep = |tasks: &mut Vec<TaskBuilder>,
                 name: &'static str,
                 scaled: bool,
                 reads: &[&Buffer<f64>],
                 dst: &Buffer<f64>| {
        for i in 0..PIECES {
            let mut t = TaskBuilder::new(name);
            if scaled {
                t = t.read(scalar, piece(0));
            }
            for src in reads {
                t = t.read(src, piece(i));
            }
            tasks.push(t.write(dst, piece(i)).body(|_| {}));
        }
    };
    sweep(&mut tasks, "dot_partial", false, &[p, q], partial);
    tasks.push(noop("dot_combine", &[partial], scalar, 0));
    sweep(&mut tasks, "axpy", true, &[p], x);
    sweep(&mut tasks, "axpy", true, &[q], r);
    sweep(&mut tasks, "dot_partial", false, &[r, r], partial);
    tasks.push(noop("dot_combine", &[partial], scalar, 0));
    sweep(&mut tasks, "xpay", true, &[r], p);
    tasks
}

/// `kdr-runtime`: what a task costs when its body is empty.
fn runtime(notes: &mut Notes, rec: &Recorder) {
    const TASKS: usize = 10_000;
    let rt = rec.span(Layer::Runtime, "runtime_new", || Runtime::new(1));
    // Independent tasks each own a buffer: tasks sharing one buffer
    // would time the analyzer's per-buffer frontier, not a task.
    let own: Vec<Buffer<f64>> = (0..TASKS).map(|_| Buffer::filled(1, 0.0f64)).collect();
    let shared = Buffer::filled(1, 0.0f64);
    let per_task_us = |targets: &[&Buffer<f64>]| {
        median(
            &(0..3)
                .map(|_| {
                    let (ms, ()) = timed_ms(|| {
                        rec.span(Layer::Runtime, "submit_and_fence", || {
                            for target in targets {
                                rt.submit(noop("empty", &[], target, 0))
                                    .expect("the task has a body");
                            }
                            rt.fence().expect("no-op tasks do not fail");
                        })
                    });
                    ms * 1e3 / targets.len() as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    notes.insert(
        "runtime.empty_task_us",
        per_task_us(&own.iter().collect::<Vec<_>>()),
    );
    notes.insert("runtime.chain_task_us", per_task_us(&vec![&shared; TASKS]));

    let vectors: [Buffer<f64>; 6] = std::array::from_fn(|_| Buffer::filled(16, 0.0f64));
    rt.begin_trace().expect("no capture is open");
    for t in cg_step_shape(&vectors) {
        rt.submit(t).expect("the task has a body");
    }
    let trace = rt.end_trace().expect("the capture was opened above");
    const REPLAYS: usize = 200;
    let (ms, ()) = timed_ms(|| {
        rec.span(Layer::Runtime, "replay", || {
            for _ in 0..REPLAYS {
                rt.replay(&trace, cg_step_shape(&vectors))
                    .expect("the replayed list has the captured shape");
            }
            rt.fence().expect("no-op tasks do not fail");
        })
    });
    notes.insert(
        "runtime.replay_task_us",
        ms * 1e3 / (REPLAYS * trace.len()) as f64,
    );

    const FENCES: usize = 10_000;
    let (ms, ()) = timed_ms(|| {
        for _ in 0..FENCES {
            rt.fence().expect("an idle fence succeeds");
        }
    });
    notes.insert("runtime.fence_us", ms * 1e3 / FENCES as f64);
}

/// A planner over `stencil` in `pieces` pieces on one worker, with the
/// solver built by `build`, stepped `warmup` untimed then `iters`
/// timed iterations; microseconds per timed iteration.
fn stepped_iter_us(
    rec: &Recorder,
    stencil: Stencil,
    pieces: usize,
    warmup: usize,
    iters: usize,
    build: fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>,
) -> f64 {
    let n = stencil.unknowns();
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(1)));
    let part = Partition::equal_blocks(n, pieces);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(Arc::new(stencil.to_csr::<f64, u64>()), d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 7));
    let mut solver = build(&mut planner);
    let mut run = |count: usize| {
        kdr_core::solve(&mut planner, solver.as_mut(), SolveControl::fixed(count))
            .expect("fixed-iteration CG on a Laplacian does not break down");
    };
    run(warmup);
    let (ms, ()) = timed_ms(|| rec.span(Layer::Core, "solve_fixed", || run(iters)));
    ms * 1e3 / iters as f64
}

/// `kdr-core` reference points that do not depend on the workload.
fn core_reference(notes: &mut Notes, rec: &Recorder) {
    let tax = seq::SEQ_TAX;
    let cg = stepped_iter_us(rec, tax.stencil, tax.pieces, 10, 50, |p| {
        Box::new(CgSolver::new(p))
    });
    let fused = stepped_iter_us(rec, tax.stencil, tax.pieces, 10, 50, |p| {
        Box::new(FusedCgSolver::new(p))
    });
    notes.insert("core.fusedcg_ratio", fused / cg);
    let us = stepped_iter_us(rec, Stencil::lap2d(256, 256), 64, 10, 100, |p| {
        Box::new(CgSolver::new(p))
    });
    notes.insert("core.iter_us_256x64", us);
}

/// `kdr-machine`: one modeled CG iteration on the 256-node profile,
/// and what the simulator leg itself costs on this host.
fn machine(notes: &mut Notes, rec: &Recorder) {
    const NODES: usize = 256;
    let config = MachineConfig::lassen(NODES).legion_profile();
    let stencil = Stencil::lap2d(1024, 1024);
    let n = stencil.unknowns();
    let makespan = |iters: usize| {
        let backend = SimBackend::<f64>::new(config.clone()).with_index_bytes(4.0);
        let mut planner = Planner::new(Box::new(backend));
        let part = Partition::equal_blocks(n, NODES);
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(Arc::new(StencilOperator::<f64>::new(stencil)), d, r);
        let mut solver = CgSolver::new(&mut planner);
        for _ in 0..iters {
            solver.step(&mut planner);
        }
        let graph = planner.with_backend(|b| {
            b.as_any()
                .downcast_mut::<SimBackend<f64>>()
                .expect("the planner was built on the sim backend")
                .take_graph()
                .0
        });
        simulate(&graph, &config, None).makespan
    };
    let (wall_ms, per_iter) = timed_ms(|| {
        rec.span(Layer::Machine, "simulate", || {
            (makespan(3 + 5) - makespan(3)) / 5.0
        })
    });
    notes.insert("machine.modeled_iter_us", per_iter * 1e6);
    notes.insert("machine.sim_wall_ms", wall_ms);
}

/// The workload's own iteration against its floors: the sum of its
/// kernels single-threaded, and the bulk-synchronous baseline.
fn iteration_floors(notes: &mut Notes, rec: &Recorder, problem: &Problem) {
    let n = problem.matrix.n();
    let kernel = rec.span(Layer::Sparse, "lower", || {
        lower(&row_slab(&problem.matrix, 0, n), KernelChoice::Auto)
    });
    let batches = if problem.matrix.nnz() > 1_000_000 {
        12
    } else {
        50
    };
    let spmv = rec.span(Layer::Sparse, "apply_slices", || {
        spmv_us(&kernel, n, batches, 4)
    });
    // Harness-timed vector sweeps of the same length.
    let (a, mut c) = (vec![1.25f64; n], vec![0.5f64; n]);
    let mut dot_us = f64::INFINITY;
    let mut axpy_us = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        black_box(a.iter().zip(&c).map(|(x, y)| x * y).sum::<f64>());
        dot_us = dot_us.min(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        for (y, x) in c.iter_mut().zip(&a) {
            *y = x.mul_add(1e-9, *y);
        }
        black_box(&mut c);
        axpy_us = axpy_us.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    let (spmvs, dots, axpys) = problem.method.sweeps();
    let floor = spmvs * spmv + dots * dot_us + axpys * axpy_us;
    notes.insert("core.kernel_floor_us", floor);

    let ksm = match problem.method {
        Method::Cg => BaselineKsm::Cg,
        Method::BiCgStab => BaselineKsm::BiCgStab,
    };
    let lib = problem.matrix.to_csr();
    let (ms, result) = timed_ms(|| {
        rec.span(Layer::Baselines, "solve_spmd", || {
            solve_spmd(&lib, &problem.b, ksm, 1, problem.baseline_iters, 0.0)
        })
    });
    notes.insert(
        "baselines.bsp1_iter_us",
        ms * 1e3 / result.iters.max(1) as f64,
    );
}

/// Run every probe; `problem` is the traced workload's own system.
pub fn probe_all(notes: &mut Notes, rec: &Recorder, problem: &Problem, seed: u64) {
    let scatter = scatter_matrix(cold::N, seed);
    index(notes, rec, &scatter);
    sparse(notes, rec, &scatter);
    runtime(notes, rec);
    core_reference(notes, rec);
    machine(notes, rec);
    iteration_floors(notes, rec, problem);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_intervals_repeat_for_a_seed_and_the_step_shape_has_98_tasks() {
        let rec = Recorder::new(false);
        let count = |seed: u64| {
            let mut notes = Notes::new();
            index(&mut notes, &rec, &scatter_matrix(2048, seed));
            notes["index.halo_intervals"]
        };
        assert!(count(3) > 8.0, "scattered columns leave many halo runs");
        assert_eq!(count(3), count(3));

        let vectors: [Buffer<f64>; 6] = std::array::from_fn(|_| Buffer::filled(16, 0.0f64));
        assert_eq!(cg_step_shape(&vectors).len(), 98);
    }
}
