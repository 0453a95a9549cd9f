//! A user-defined storage format plugging into KDRSolvers with zero
//! library changes (the paper's P2).
//!
//! The format: "diagonal + sparse corrections" — the main diagonal in
//! a dense array plus off-diagonal entries in COO arrays. It lives
//! entirely in this example file and implements the six required
//! methods of `SparseMatrix` — its three spaces, its row and column
//! relations, and an enumeration of its entries — and nothing else.
//! From that description it gains format-independent co-partitioning
//! and every solver; the solve runs the library's tile kernels on the
//! entries the format enumerates, so it writes no kernel of its own
//! (the final residual check uses the trait's provided product).
//!
//! Run: `cargo run --release -p kdr-examples --example custom_format`

use std::sync::Arc;

use kdr_core::{solve, CgSolver, ExecBackend, Planner, SolveControl, SOL};
use kdr_index::{DiagonalRelation, FnRelation, IndexSpace, Partition, Relation, UnionRelation};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Scalar, SparseMatrix, Stencil};

/// Diagonal-plus-corrections format: `K = {0..n} ⊔ {n..n+m}` where the
/// first `n` kernel points are the diagonal (implicit relations) and
/// the rest are stored COO corrections.
struct DiagPlusCoo<T> {
    diag: Vec<T>,
    rows: Vec<u64>,
    cols: Vec<u64>,
    vals: Vec<T>,
}

impl<T: Scalar> DiagPlusCoo<T> {
    fn n(&self) -> u64 {
        self.diag.len() as u64
    }

    /// The row or column relation, from the COO part's stored row or
    /// column coordinates: a union of two relations over the same
    /// spaces. Diagonal part: identity on the first n kernel points (a
    /// zero-offset diagonal relation over the full K handles the
    /// out-of-range tail as padding); COO part: the stored coordinates.
    fn relation(&self, stored: &[u64]) -> Box<dyn Relation> {
        let n = self.n();
        let total = n + stored.len() as u64;
        // k ↦ k for k < n
        let diag_part = DiagonalRelation::new(vec![0], total, n);
        // FnRelation is total, so point the diagonal half at its own
        // diagonal coordinate to avoid spurious edges.
        let mut table: Vec<u64> = (0..n).collect();
        table.extend_from_slice(stored);
        let coo_part = FnRelation::new(table, n);
        Box::new(UnionRelation::new(vec![
            Box::new(diag_part),
            Box::new(coo_part),
        ]))
    }
}

impl<T: Scalar> SparseMatrix<T> for DiagPlusCoo<T> {
    fn kernel_space(&self) -> IndexSpace {
        IndexSpace::flat(self.n() + self.vals.len() as u64)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.n())
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.n())
    }

    fn col_relation(&self) -> Box<dyn Relation> {
        self.relation(&self.cols)
    }

    fn row_relation(&self) -> Box<dyn Relation> {
        self.relation(&self.rows)
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for (k, &v) in self.diag.iter().enumerate() {
            f(k as u64, k as u64, k as u64, v);
        }
        let n = self.n();
        for i in 0..self.vals.len() {
            f(n + i as u64, self.rows[i], self.cols[i], self.vals[i]);
        }
    }
}

fn main() {
    // Express the 2-D Laplacian in the custom format: diagonal array
    // plus COO corrections for the off-diagonal couplings.
    let stencil = Stencil::lap2d(20, 20);
    let n = stencil.unknowns();
    let t = stencil.to_triples::<f64>();
    let mut m = DiagPlusCoo {
        diag: vec![0.0; n as usize],
        rows: Vec::new(),
        cols: Vec::new(),
        vals: Vec::new(),
    };
    for &(i, j, v) in t.entries() {
        if i == j {
            m.diag[i as usize] = v;
        } else {
            m.rows.push(i);
            m.cols.push(j);
            m.vals.push(v);
        }
    }
    println!(
        "custom format: {} diagonal entries + {} COO corrections (kernel space {})",
        n,
        m.vals.len(),
        m.kernel_space().size()
    );

    // The library has never heard of DiagPlusCoo, yet partitioning,
    // tiling, and CG all work:
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(m);
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::with_default_workers()));
    let part = Partition::equal_blocks(n, 4);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(Arc::clone(&matrix), d, r);
    let b = rhs_vector::<f64>(n, 99);
    planner.set_rhs_data(r, &b);

    let mut solver = CgSolver::new(&mut planner);
    let report = solve(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 10_000),
    )
    .expect("solve failed");
    let x = planner.read_component(SOL, 0);
    let mut ax = vec![0.0; n as usize];
    matrix.spmv(&x, &mut ax);
    let res: f64 = ax
        .iter()
        .zip(&b)
        .map(|(a, bb)| (a - bb) * (a - bb))
        .sum::<f64>()
        .sqrt();
    println!(
        "CG on the custom format: converged = {}, {} iterations, true residual {:.3e}",
        report.converged, report.iters, res
    );
    assert!(report.converged && res < 1e-8);
}
