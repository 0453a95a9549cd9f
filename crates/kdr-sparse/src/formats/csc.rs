//! Compressed Sparse Column.
//!
//! Structural assumption: `K` is totally ordered so that each
//! *column's* entries form a contiguous interval. Metadata:
//! `colptr : D -> [K, K]` and `row : K -> R`. CSC is CSR's mirror
//! image, and is implemented as exactly that: the [`Csr`] of `Aᵀ`
//! behind the [`Mirror`] adapter, whose `rowptr` is this format's
//! `colptr`.

use super::csr::Csr;
use super::mirror::Mirror;
use crate::scalar::{IndexInt, Scalar};
use crate::triples::Triples;

/// A CSC matrix generic over entry type `T` and stored index type `I`.
pub type Csc<T, I = u64> = Mirror<Csr<T, I>>;

impl<T: Scalar, I: IndexInt> Csc<T, I> {
    /// Build from a coordinate list (duplicates summed).
    pub fn from_triples(t: Triples<T>) -> Self {
        Mirror(Csr::from_triples(t.transposed()))
    }

    /// Row count.
    pub fn rows(&self) -> u64 {
        self.0.cols()
    }

    /// Column count.
    pub fn cols(&self) -> u64 {
        self.0.rows()
    }

    /// Column-pointer array (`cols + 1` entries).
    pub fn colptr(&self) -> &[u64] {
        self.0.rowptr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SparseMatrix;

    fn t() -> Triples<f64> {
        Triples::from_entries(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
    }

    #[test]
    fn matches_csr() {
        let csc: Csc<f64, u32> = Csc::from_triples(t());
        let csr: Csr<f64, u32> = Csr::from_triples(t());
        let x = [1.0, 2.0, 3.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        csc.spmv(&x, &mut y1);
        csr.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
        let mut z1 = vec![0.0; 3];
        let mut z2 = vec![0.0; 3];
        csc.spmv_transpose(&x, &mut z1);
        csr.spmv_transpose(&x, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn layout_is_column_major() {
        let m: Csc<f64> = Csc::from_triples(t());
        assert_eq!(m.colptr(), &[0, 2, 3, 5]);
        // Column 0 holds rows 0 and 2.
        let mut coords = Vec::new();
        m.for_each_entry(&mut |k, i, j, _| coords.push((k, i, j)));
        assert_eq!(coords[0], (0, 0, 0));
        assert_eq!(coords[1], (1, 2, 0));
    }

    #[test]
    fn relations_reproduce_entries() {
        let m: Csc<f64> = Csc::from_triples(t());
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
    fn piece_kernels_sum_to_whole() {
        let m: Csc<f64> = Csc::from_triples(t());
        let x = [1.0, -2.0, 0.5];
        let mut whole = vec![0.0; 3];
        m.spmv(&x, &mut whole);
        let mut acc = vec![0.0; 3];
        for p in m.kernel_space().all().split_equal(2) {
            m.spmv_add_piece(&p, &x, &mut acc);
        }
        assert_eq!(acc, whole);
        let mut wt = vec![0.0; 3];
        m.spmv_transpose(&x, &mut wt);
        let mut at = vec![0.0; 3];
        for p in m.kernel_space().all().split_equal(4) {
            m.spmv_transpose_add_piece(&p, &x, &mut at);
        }
        assert_eq!(at, wt);
    }
}
