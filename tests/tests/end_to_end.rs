//! Cross-crate integration: the full KDRSolvers stack against the
//! independent SPMD baseline implementation, on the same problems.

use std::sync::Arc;

use kdr_baselines::{solve_spmd, BaselineKsm};
use kdr_core::{
    solve, BiCgStabSolver, CgSolver, ExecBackend, GmresSolver, Planner, SolveControl, Solver, SOL,
};
use kdr_index::Partition;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Csr, SparseMatrix, Stencil};

fn kdr_solution(
    s: Stencil,
    b: &[f64],
    make: impl FnOnce(&mut Planner<f64>) -> Box<dyn Solver<f64>>,
    tol: f64,
) -> Vec<f64> {
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
    let part = Partition::equal_blocks(n, 4);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    planner.set_rhs_data(r, b);
    let mut solver = make(&mut planner);
    let report = solve(
        &mut planner,
        solver.as_mut(),
        SolveControl::to_tolerance(tol, 20_000),
    )
    .expect("solve failed");
    assert!(report.converged, "{} did not converge", solver.name());
    planner.read_component(SOL, 0)
}

/// KDRSolvers (task-oriented) and the SPMD baseline (bulk-synchronous)
/// must agree on the solution of the same system — two entirely
/// independent execution paths over independent kernels.
#[test]
fn kdr_and_spmd_agree() {
    let s = Stencil::lap2d(16, 16);
    let n = s.unknowns();
    let b = rhs_vector::<f64>(n, 11);
    let m: Csr<f64, u64> = s.to_csr();

    type MakeSolver = Box<dyn Fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>>;
    let cases: Vec<(BaselineKsm, MakeSolver)> = vec![
        (
            BaselineKsm::Cg,
            Box::new(|p: &mut Planner<f64>| Box::new(CgSolver::new(p)) as Box<dyn Solver<f64>>),
        ),
        (
            BaselineKsm::BiCgStab,
            Box::new(|p: &mut Planner<f64>| {
                Box::new(BiCgStabSolver::new(p)) as Box<dyn Solver<f64>>
            }),
        ),
        (
            BaselineKsm::Gmres(10),
            Box::new(|p: &mut Planner<f64>| {
                Box::new(GmresSolver::with_restart(p, 10)) as Box<dyn Solver<f64>>
            }),
        ),
    ];
    for (baseline, make) in cases {
        let x_kdr = kdr_solution(s, &b, make, 1e-11);
        let x_spmd = solve_spmd(&m, &b, baseline, 4, 20_000, 1e-11).x;
        for i in 0..n as usize {
            assert!(
                (x_kdr[i] - x_spmd[i]).abs() < 1e-7,
                "{baseline:?} row {i}: kdr {} vs spmd {}",
                x_kdr[i],
                x_spmd[i]
            );
        }
    }
}

/// A format that is nothing but its description: the six required
/// `SparseMatrix` methods over a coordinate list, and not one kernel.
struct DescriptionOnly(kdr_sparse::Triples<f64>);

impl SparseMatrix<f64> for DescriptionOnly {
    fn kernel_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.0.len() as u64)
    }

    fn domain_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.0.cols())
    }

    fn range_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.0.rows())
    }

    fn col_relation(&self) -> Box<dyn kdr_index::Relation> {
        let cols = self.0.entries().iter().map(|e| e.1).collect();
        Box::new(kdr_index::FnRelation::new(cols, self.0.cols()))
    }

    fn row_relation(&self) -> Box<dyn kdr_index::Relation> {
        let rows = self.0.entries().iter().map(|e| e.0).collect();
        Box::new(kdr_index::FnRelation::new(rows, self.0.rows()))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, f64)) {
        for (k, &(i, j, v)) in self.0.entries().iter().enumerate() {
            f(k as u64, i, j, v);
        }
    }
}

/// Every storage format can serve as the planner's operator and
/// produce the same solution. The formats that store exactly CSR's
/// entries (no padding) must reproduce the CSR run bit for bit: same
/// entries in, same canonical tile order, same tile kernel — which is
/// why no format needs a kernel of its own. So must the matrix-free
/// stencil operator, whose lap2d band is the CSR chain bit for bit.
#[test]
fn every_format_solves_through_the_planner() {
    use kdr_sparse::convert;
    let s = Stencil::lap2d(12, 12);
    let n = s.unknowns();
    let b = rhs_vector::<f64>(n, 4);
    let base = s.to_csr::<f64, u32>();
    let reference = kdr_solution(s, &b, |p| Box::new(CgSolver::new(p)), 1e-11);

    let run = |name: &str, m: Arc<dyn SparseMatrix<f64>>| {
        let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(3)));
        let part = Partition::equal_blocks(n, 3);
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(m, d, r);
        planner.set_rhs_data(r, &b);
        let mut solver = CgSolver::new(&mut planner);
        let report = solve(
            &mut planner,
            &mut solver,
            SolveControl::to_tolerance(1e-11, 20_000),
        )
        .expect("solve failed");
        assert!(report.converged, "{name}");
        let x = planner.read_component(SOL, 0);
        for i in 0..n as usize {
            assert!(
                (x[i] - reference[i]).abs() < 1e-7,
                "{name} row {i}: {} vs {}",
                x[i],
                reference[i]
            );
        }
        let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        (report.iters, bits)
    };
    let csr_run = run("csr", Arc::new(base.clone()));

    // CSR's entries last-first: an enumeration order no library format has.
    let mut entries = base.to_triples().entries().to_vec();
    entries.reverse();
    let last_first = kdr_sparse::Triples::from_entries(n, n, entries);

    // (name, matrix, solves to the csr run's bits: it stores exactly
    // CSR's entries, or runs them matrix-free as a band that is not a
    // box stencil, which is the CSR chain bit for bit)
    let formats: Vec<(&str, Arc<dyn SparseMatrix<f64>>, bool)> = vec![
        ("csc", Arc::new(convert::to_csc::<f64, u32>(&base)), true),
        ("coo", Arc::new(convert::to_coo::<f64, u64>(&base)), true),
        (
            "coo_aos",
            Arc::new(convert::to_coo_aos::<f64, u32>(&base)),
            true,
        ),
        (
            "description_only",
            Arc::new(DescriptionOnly(last_first)),
            true,
        ),
        ("ell", Arc::new(convert::to_ell::<f64, u32>(&base)), false),
        ("ellt", Arc::new(convert::to_ellt::<f64, u32>(&base)), false),
        ("hyb", Arc::new(convert::to_hyb::<f64, u32>(&base)), false),
        ("dia", Arc::new(convert::to_dia::<f64>(&base)), false),
        (
            "bcsr",
            Arc::new(convert::to_bcsr::<f64, u32>(&base, 2, 2)),
            false,
        ),
        (
            "bcsc",
            Arc::new(convert::to_bcsc::<f64, u32>(&base, 2, 2)),
            false,
        ),
        ("dense", Arc::new(convert::to_dense::<f64>(&base)), false),
        (
            "stencil_mf",
            Arc::new(kdr_sparse::StencilOperator::<f64>::new(s)),
            true,
        ),
    ];
    for (name, m, csr_bits) in formats {
        let got = run(name, m);
        if csr_bits {
            assert!(got == csr_run, "{name} differs from the csr run");
        }
    }
}

/// Non-trivial partitioning strategies (2-D tiles, round-robin-ish
/// block maps) flow through the whole stack unchanged — P3 end to end.
#[test]
fn exotic_partitions_work_end_to_end() {
    let s = Stencil::lap2d(16, 16);
    let n = s.unknowns();
    let b = rhs_vector::<f64>(n, 6);
    let reference = kdr_solution(s, &b, |p| Box::new(CgSolver::new(p)), 1e-11);

    // 2-D tile partition of the (grid-structured) domain space.
    let tiled = Partition::grid2_tiles(16, 16, 2, 2);
    // Size-imbalanced blocks.
    let skew = Partition::new(
        n,
        vec![
            kdr_index::IntervalSet::from_range(0, 10),
            kdr_index::IntervalSet::from_range(10, 200),
            kdr_index::IntervalSet::from_range(200, 256),
        ],
    );

    for (name, part) in [("tiled2d", tiled), ("skewed", skew)] {
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
        let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(m, d, r);
        planner.set_rhs_data(r, &b);
        let mut solver = CgSolver::new(&mut planner);
        let report = solve(
            &mut planner,
            &mut solver,
            SolveControl::to_tolerance(1e-11, 20_000),
        )
        .expect("solve failed");
        assert!(report.converged, "{name}");
        let x = planner.read_component(SOL, 0);
        for i in 0..n as usize {
            assert!((x[i] - reference[i]).abs() < 1e-7, "{name} row {i}");
        }
    }
}

/// Rectangular multi-component systems: a least-squares-style normal
/// equation assembled as AᵀA x = Aᵀ b via matmul_transpose.
#[test]
fn adjoint_products_through_planner() {
    // Solve the square system with BiCG, which uses A and Aᵀ.
    let s = Stencil::lap2d(10, 10);
    let n = s.unknowns();
    let b = rhs_vector::<f64>(n, 2);
    let x = kdr_solution(s, &b, |p| Box::new(kdr_core::BiCgSolver::new(p)), 1e-11);
    let m: Csr<f64> = s.to_csr();
    let mut ax = vec![0.0; n as usize];
    m.spmv(&x, &mut ax);
    let res: f64 = ax
        .iter()
        .zip(&b)
        .map(|(a, bb)| (a - bb) * (a - bb))
        .sum::<f64>()
        .sqrt();
    assert!(res < 1e-8);
}
