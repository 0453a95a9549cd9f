//! Compressed Sparse Row.
//!
//! Structural assumption: `K` is totally ordered so that each row's
//! entries form a contiguous interval. Metadata: `col : K -> D`
//! (stored column indices) and `rowptr : R -> [K, K]` (stored
//! offsets). This is the format used by all of the paper's
//! performance experiments, because it is the only GPU-accelerated
//! format PETSc supports.

use kdr_index::{
    FnRelation, IndexSpace, IntervalMapRelation, IntervalSet, Relation, TransposedRelation,
};

use crate::matrix::SparseMatrix;
use crate::scalar::{IndexInt, Scalar};
use crate::tile::{KernelChoice, StructureKey, TileKernel, TileView};
use crate::triples::Triples;

/// A CSR matrix generic over entry type `T` and stored index type `I`.
#[derive(Clone, Debug)]
pub struct Csr<T, I = u64> {
    rowptr: Vec<u64>,
    colidx: Vec<I>,
    values: Vec<T>,
    cols: u64,
    /// Whether every row's columns ascend (repeats allowed): the rows
    /// are then a tile's canonical order as they lie.
    rows_sorted: bool,
}

impl<T: Scalar, I: IndexInt> Csr<T, I> {
    /// Build from a coordinate list (duplicates are summed).
    pub fn from_triples(t: Triples<T>) -> Self {
        let rows = t.rows();
        let cols = t.cols();
        let t = t.canonicalize();
        let mut rowptr = vec![0u64; rows as usize + 1];
        for &(i, _, _) in t.entries() {
            rowptr[i as usize + 1] += 1;
        }
        for r in 1..rowptr.len() {
            rowptr[r] += rowptr[r - 1];
        }
        let mut colidx = Vec::with_capacity(t.len());
        let mut values = Vec::with_capacity(t.len());
        for &(_, j, v) in t.entries() {
            colidx.push(I::from_u64(j));
            values.push(v);
        }
        Csr {
            rowptr,
            colidx,
            values,
            cols,
            rows_sorted: true,
        }
    }

    /// Build from raw CSR arrays. Panics on malformed inputs. A row's
    /// columns may come in any order; rows whose columns ascend are
    /// lowered where they lie, any others are sorted when lowered.
    pub fn from_raw(rowptr: Vec<u64>, colidx: Vec<I>, values: Vec<T>, cols: u64) -> Self {
        assert!(!rowptr.is_empty(), "rowptr must have at least one entry");
        assert_eq!(rowptr[0], 0, "rowptr must start at 0");
        assert!(
            rowptr.windows(2).all(|w| w[0] <= w[1]),
            "rowptr not monotone"
        );
        assert_eq!(colidx.len(), values.len());
        assert_eq!(*rowptr.last().unwrap() as usize, values.len());
        let mut rows_sorted = true;
        for w in rowptr.windows(2) {
            let row = &colidx[w[0] as usize..w[1] as usize];
            // A row whose columns ascend is in bounds if its first and
            // last are (a negative signed index widens past `cols`).
            let in_bounds = if row.is_sorted() {
                let mut ends = row.first().into_iter().chain(row.last());
                ends.all(|&j| j.to_u64() < cols)
            } else {
                rows_sorted = false;
                row.iter().all(|&j| j.to_u64() < cols)
            };
            assert!(in_bounds, "column index out of bounds");
        }
        Csr {
            rowptr,
            colidx,
            values,
            cols,
            rows_sorted,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rowptr.len() as u64 - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// The rowptr offsets array (length `rows + 1`).
    pub fn rowptr(&self) -> &[u64] {
        &self.rowptr
    }

    /// Stored column indices, kernel-ordered.
    pub fn colidx(&self) -> &[I] {
        &self.colidx
    }

    /// Stored entry values, kernel-ordered.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Row owning kernel point `k`.
    #[inline]
    fn row_of(&self, k: u64) -> u64 {
        (self.rowptr.partition_point(|&p| p <= k) - 1) as u64
    }
}

impl<T: Scalar, I: IndexInt> SparseMatrix<T> for Csr<T, I> {
    fn kernel_space(&self) -> IndexSpace {
        IndexSpace::flat(self.values.len() as u64)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows())
    }

    fn col_relation(&self) -> Box<dyn Relation + '_> {
        // The constructors checked every column against `cols`.
        Box::new(FnRelation::borrowed(&self.colidx, self.cols))
    }

    fn row_relation(&self) -> Box<dyn Relation + '_> {
        Box::new(TransposedRelation::new(Box::new(
            IntervalMapRelation::from_offsets(&self.rowptr, self.values.len() as u64),
        )))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for i in 0..self.rows() {
            let (lo, hi) = (self.rowptr[i as usize], self.rowptr[i as usize + 1]);
            for k in lo..hi {
                f(
                    k,
                    i,
                    self.colidx[k as usize].to_u64(),
                    self.values[k as usize],
                );
            }
        }
    }

    fn lower_tile(
        &self,
        rows: &IntervalSet,
        choice: KernelChoice,
    ) -> Option<(TileKernel<T>, StructureKey)> {
        if !self.rows_sorted {
            return None;
        }
        let view = TileView::of_rows(rows, &self.rowptr, &self.colidx, &self.values);
        let (kernel, structure) = TileKernel::lower_rows(&view, choice);
        Some((kernel, structure.key()))
    }

    // The one override of the provided piece kernels in the workspace,
    // kept on purpose: solver tests, examples and the benchmark harness
    // compute true residuals `b − A x` with `Csr::spmv`, and a loop
    // that walks `rowptr` with a per-row accumulator — not the
    // entry-wise provided loop, not a tile kernel — is what makes that
    // check independent of the code under test.
    fn spmv_add_piece(&self, piece: &IntervalSet, x: &[T], y: &mut [T]) {
        debug_assert_eq!(x.len() as u64, self.cols);
        debug_assert_eq!(y.len() as u64, self.rows());
        for run in piece.runs() {
            let mut row = self.row_of(run.lo);
            let mut row_end = self.rowptr[row as usize + 1];
            let mut acc = T::ZERO;
            for k in run.lo..run.hi {
                while k >= row_end {
                    y[row as usize] += acc;
                    acc = T::ZERO;
                    row += 1;
                    row_end = self.rowptr[row as usize + 1];
                }
                acc = self.values[k as usize].mul_add(x[self.colidx[k as usize].to_usize()], acc);
            }
            y[row as usize] += acc;
        }
    }

    fn spmv_transpose_add_piece(&self, piece: &IntervalSet, x: &[T], y: &mut [T]) {
        debug_assert_eq!(x.len() as u64, self.rows());
        debug_assert_eq!(y.len() as u64, self.cols);
        for run in piece.runs() {
            let mut row = self.row_of(run.lo);
            let mut row_end = self.rowptr[row as usize + 1];
            for k in run.lo..run.hi {
                while k >= row_end {
                    row += 1;
                    row_end = self.rowptr[row as usize + 1];
                }
                y[self.colidx[k as usize].to_usize()] += self.values[k as usize] * x[row as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64, u32> {
        // [ 1 2 0 ]
        // [ 0 0 3 ]
        // [ 4 0 5 ]
        Csr::from_triples(Triples::from_entries(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        ))
    }

    #[test]
    fn construction() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.rowptr(), &[0, 2, 3, 5]);
        assert_eq!(m.colidx(), &[0u32, 1, 2, 0, 2]);
    }

    #[test]
    fn spmv_matches_reference() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, vec![5.0, 9.0, 19.0]);
    }

    #[test]
    fn spmv_transpose_matches_reference() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.spmv_transpose(&x, &mut y);
        assert_eq!(y, vec![13.0, 2.0, 21.0]);
    }

    #[test]
    fn piece_kernels_partition_the_work() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut whole = vec![0.0; 3];
        m.spmv(&x, &mut whole);
        // Split the kernel space into two pieces; piece kernels must sum
        // to the full product.
        let pieces = m.kernel_space().all().split_equal(2);
        let mut acc = vec![0.0; 3];
        for p in &pieces {
            m.spmv_add_piece(p, &x, &mut acc);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn piece_kernel_crossing_row_boundary() {
        let m = sample();
        let x = [1.0, 1.0, 1.0];
        // Kernel points 1..4 span rows 0, 1, 2 partially.
        let piece = IntervalSet::from_range(1, 4);
        let mut y = vec![0.0; 3];
        m.spmv_add_piece(&piece, &x, &mut y);
        assert_eq!(y, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn relations_reproduce_entries() {
        let m = sample();
        let row = m.row_relation();
        let col = m.col_relation();
        m.for_each_entry(&mut |k, i, j, _| {
            let mut r = Vec::new();
            row.targets_of(k, &mut r);
            assert_eq!(r, vec![i]);
            let mut c = Vec::new();
            col.targets_of(k, &mut c);
            assert_eq!(c, vec![j]);
        });
    }

    #[test]
    fn duplicates_summed() {
        let m: Csr<f64> =
            Csr::from_triples(Triples::from_entries(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5)]));
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.values(), &[3.5]);
    }

    #[test]
    fn diagonal_extraction() {
        let m = sample();
        assert_eq!(m.diagonal(), vec![1.0, 0.0, 5.0]);
    }

    #[test]
    fn empty_rows_handled() {
        let m: Csr<f64> = Csr::from_triples(Triples::from_entries(4, 2, vec![(3, 1, 2.0)]));
        let mut y = vec![0.0; 4];
        m.spmv(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "not monotone")]
    fn from_raw_validates() {
        // A rowptr that starts past 0 would leave kernel points that
        // `kernel_space` counts and `for_each_entry` never visits.
        let offset_start = std::panic::catch_unwind(|| {
            Csr::<f64, u32>::from_raw(vec![2, 3], vec![0, 0, 0], vec![1.0; 3], 2)
        });
        assert!(offset_start.is_err(), "rowptr[0] != 0 accepted");
        Csr::<f64, u32>::from_raw(vec![0, 2, 1], vec![0, 0], vec![1.0, 1.0], 2);
    }

    #[test]
    fn from_raw_checks_every_column_of_sorted_and_unsorted_rows() {
        let rejects = |f: fn()| std::panic::catch_unwind(f).is_err();
        // Ascending rows are checked by their ends, others entry by
        // entry; a negative signed index is out of bounds either way.
        assert!(rejects(|| {
            Csr::<f64, u32>::from_raw(vec![0, 2], vec![0, 2], vec![1.0; 2], 2);
        }));
        assert!(rejects(|| {
            Csr::<f64, u32>::from_raw(vec![0, 3], vec![1, 5, 0], vec![1.0; 3], 2);
        }));
        assert!(rejects(|| {
            Csr::<f64, i32>::from_raw(vec![0, 2], vec![-1, 1], vec![1.0; 2], 2);
        }));
        let m = Csr::<f64, u32>::from_raw(vec![0, 3, 3], vec![1, 0, 1], vec![1.0, 2.0, 3.0], 2);
        assert_eq!(
            m.to_triples().entries(),
            &[(0, 1, 1.0), (0, 0, 2.0), (0, 1, 3.0)]
        );
    }
}
