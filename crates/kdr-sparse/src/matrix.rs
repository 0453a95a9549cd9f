//! The [`SparseMatrix`] trait: a matrix *is* its K/D/R description.
//!
//! This is the library boundary the paper argues for: a format
//! participates in KDRSolvers by exposing its kernel space and its
//! row/column relations — nothing else. Co-partitioning, dependence
//! analysis and solver code never look inside the format, and neither
//! does execution: a solve reads the format's entries once — enumerated
//! ([`SparseMatrix::for_each_entry`]), or read where they lie by a
//! format that stores its rows in order
//! ([`SparseMatrix::lower_stored_rows`]) — and runs the tile kernels of
//! [`crate::tile`] on them. The format *describes*; a separate kernel
//! family *executes*.

use kdr_index::{IndexSpace, IntervalSet, Relation};

use crate::scalar::Scalar;
use crate::tile::{KernelChoice, TileKernel, TileStructure};

/// A sparse (or dense) matrix described by kernel/domain/range spaces,
/// row and column relations, and an enumeration of its entries.
///
/// Six methods are required — the three spaces, the two relations and
/// [`SparseMatrix::for_each_entry`]; everything else is provided. The
/// provided products are entry-wise reference loops over
/// `for_each_entry`: no solve, simulator run or baseline calls them
/// (those execute [`crate::tile::TileKernel`]s lowered from the same
/// entries), they exist so any format can check a result. [`Csr`]
/// alone overrides the two piece kernels, with a row-accumulating loop
/// that shares no code with the tile kernels: it is the independent
/// reference the solver tests compute true residuals with. It also
/// lends registration its rows where they lie
/// ([`SparseMatrix::lower_stored_rows`]).
///
/// Products use *add* semantics (`y += A x`) because multi-operator
/// systems accumulate several components into one output vector
/// (paper §4.1); plain `y = A x` is a zero-fill followed by an add.
///
/// [`Csr`]: crate::formats::csr::Csr
pub trait SparseMatrix<T: Scalar>: Send + Sync {
    /// The kernel space `K` indexing stored entries.
    fn kernel_space(&self) -> IndexSpace;

    /// The domain space `D` (solution/input vector coordinates).
    fn domain_space(&self) -> IndexSpace;

    /// The range space `R` (right-hand-side/output vector coordinates).
    fn range_space(&self) -> IndexSpace;

    /// The column relation `col ⊆ K × D` (canonical direction
    /// `K -> D`).
    ///
    /// The relation may borrow from the format: a format that stores
    /// the relation as an index table lends the table
    /// ([`kdr_index::FnRelation::borrowed`]) rather than copying it.
    /// A relation that owns everything it reads is a valid answer too.
    fn col_relation(&self) -> Box<dyn Relation + '_>;

    /// The row relation `row ⊆ K × R` (canonical direction `K -> R`).
    /// Like [`SparseMatrix::col_relation`], it may lend the format's
    /// tables (a stored row table, a CSR `rowptr`).
    fn row_relation(&self) -> Box<dyn Relation + '_>;

    /// Number of stored entries (size of `K`).
    fn nnz(&self) -> u64 {
        self.kernel_space().size()
    }

    /// Visit every stored entry as `(kernel point, range point,
    /// domain point, value)`. Entries whose implicit relations fall
    /// outside the grid (DIA padding) are skipped.
    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T));

    /// Lower the tile whose output rows are `rows` straight from the
    /// rows this format stores: the kernel and the structure analysis
    /// it was chosen from, as [`TileKernel::lower_rows`] gives them
    /// for a [`crate::tile::TileView`] lent the format's own arrays.
    /// Only a format whose row relation gives each entry its one row,
    /// and which stores each row's entries by ascending column, can
    /// answer; registration then reads each tile where it lies, with
    /// no copy of its entries. The provided default answers `None`,
    /// and registration enumerates the format instead
    /// ([`SparseMatrix::for_each_entry`]). Either way the tiles lower
    /// to the same bits.
    fn lower_stored_rows(
        &self,
        rows: &IntervalSet,
        choice: KernelChoice,
    ) -> Option<(TileKernel<T>, TileStructure)> {
        let _ = (rows, choice);
        None
    }

    /// `y += A x` restricted to the kernel points in `piece`.
    ///
    /// `x` spans the full domain space and `y` the full range space;
    /// only entries in `piece` contribute, in enumeration order.
    fn spmv_add_piece(&self, piece: &IntervalSet, x: &[T], y: &mut [T]) {
        self.for_each_entry(&mut |k, i, j, v| {
            if piece.contains(k) {
                y[i as usize] += v * x[j as usize];
            }
        });
    }

    /// `y += Aᵀ x` restricted to the kernel points in `piece`
    /// (`x` over `R`, `y` over `D`).
    fn spmv_transpose_add_piece(&self, piece: &IntervalSet, x: &[T], y: &mut [T]) {
        self.for_each_entry(&mut |k, i, j, v| {
            if piece.contains(k) {
                y[j as usize] += v * x[i as usize];
            }
        });
    }

    /// `y += A x` over the whole kernel space.
    fn spmv_add(&self, x: &[T], y: &mut [T]) {
        self.spmv_add_piece(&self.kernel_space().all(), x, y);
    }

    /// `y += Aᵀ x` over the whole kernel space.
    fn spmv_transpose_add(&self, x: &[T], y: &mut [T]) {
        self.spmv_transpose_add_piece(&self.kernel_space().all(), x, y);
    }

    /// `y = A x` (zero-fill then add).
    fn spmv(&self, x: &[T], y: &mut [T]) {
        y.fill(T::ZERO);
        self.spmv_add(x, y);
    }

    /// `y = Aᵀ x` (zero-fill then add).
    fn spmv_transpose(&self, x: &[T], y: &mut [T]) {
        y.fill(T::ZERO);
        self.spmv_transpose_add(x, y);
    }

    /// Extract the diagonal `diag[i] = A[i, i]` (for Jacobi
    /// preconditioning). Sums aliased entries; requires `D = R`.
    fn diagonal(&self) -> Vec<T> {
        assert_eq!(
            self.domain_space().size(),
            self.range_space().size(),
            "diagonal of a non-square operator"
        );
        let mut diag = vec![T::ZERO; self.range_space().size() as usize];
        self.for_each_entry(&mut |_, i, j, v| {
            if i == j {
                diag[i as usize] += v;
            }
        });
        diag
    }

    /// Lower to a coordinate list (the interchange representation for
    /// format conversions).
    fn to_triples(&self) -> crate::triples::Triples<T> {
        let mut t =
            crate::triples::Triples::new(self.range_space().size(), self.domain_space().size());
        self.for_each_entry(&mut |_, i, j, v| t.push(i, j, v));
        t
    }
}
