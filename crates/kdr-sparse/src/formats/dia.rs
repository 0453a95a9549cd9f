//! Diagonal format.
//!
//! Structural assumptions (paper Figure 3): `D = {0..d}`, `R = {0..r}`,
//! `K = K0 × D` where `K0` indexes the stored diagonals with an
//! `offset : K0 -> Z` table. Both relations are implicit:
//! `col : (k0, i) ↦ i` and `row : (k0, i) ↦ i − offset(k0)`, the
//! latter *partial* — kernel points whose row falls off the grid are
//! padding. DIA stores no per-entry metadata at all, only the offset
//! table, making it the most compact format for banded stencil
//! matrices.

use kdr_index::{DiagonalRelation, IndexSpace, ProjectionAxis, ProjectionRelation, Relation};

use crate::matrix::SparseMatrix;
use crate::scalar::Scalar;
use crate::triples::Triples;

/// A diagonal-format matrix: `data[k0 * d + i]` holds the entry at
/// column `i`, row `i − offsets[k0]`.
#[derive(Clone, Debug)]
pub struct Dia<T> {
    offsets: Vec<i64>,
    data: Vec<T>,
    rows: u64,
    cols: u64,
}

impl<T: Scalar> Dia<T> {
    /// Build from a coordinate list: stores one diagonal per distinct
    /// `col − row` offset present (duplicates summed).
    pub fn from_triples(t: Triples<T>) -> Self {
        let rows = t.rows();
        let cols = t.cols();
        let t = t.canonicalize();
        let offsets = t.diagonal_offsets();
        let offsets = if offsets.is_empty() { vec![0] } else { offsets };
        let mut data = vec![T::ZERO; offsets.len() * cols as usize];
        for &(i, j, v) in t.entries() {
            let off = j as i64 - i as i64;
            let k0 = offsets.binary_search(&off).expect("offset must be present");
            data[k0 * cols as usize + j as usize] += v;
        }
        Dia {
            offsets,
            data,
            rows,
            cols,
        }
    }

    /// Build from an explicit offset table and diagonal data
    /// (`data.len() == offsets.len() * cols`).
    pub fn from_raw(offsets: Vec<i64>, data: Vec<T>, rows: u64, cols: u64) -> Self {
        assert!(!offsets.is_empty());
        assert_eq!(data.len() as u64, offsets.len() as u64 * cols);
        Dia {
            offsets,
            data,
            rows,
            cols,
        }
    }

    /// Stored diagonal offsets.
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Valid column range `[lo, hi)` of diagonal `k0` (columns whose
    /// row lands inside the grid).
    fn valid_cols(&self, k0: usize) -> (u64, u64) {
        let off = self.offsets[k0];
        // row = i - off must lie in [0, rows): i in [off, rows + off).
        let lo = off.max(0) as u64;
        let hi = (self.rows as i64 + off).clamp(0, self.cols as i64) as u64;
        (lo.min(self.cols), hi.max(lo).min(self.cols))
    }
}

impl<T: Scalar> SparseMatrix<T> for Dia<T> {
    fn kernel_space(&self) -> IndexSpace {
        // K = K0 × D, linearized diagonal-major.
        IndexSpace::flat(self.offsets.len() as u64 * self.cols)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows)
    }

    fn col_relation(&self) -> Box<dyn Relation + '_> {
        // Implicit (k0, i) ↦ i.
        Box::new(ProjectionRelation::new(
            self.offsets.len() as u64,
            self.cols,
            ProjectionAxis::Inner,
        ))
    }

    fn row_relation(&self) -> Box<dyn Relation + '_> {
        // Implicit partial (k0, i) ↦ i − offset(k0).
        Box::new(DiagonalRelation::new(
            self.offsets.clone(),
            self.cols,
            self.rows,
        ))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for k0 in 0..self.offsets.len() {
            let off = self.offsets[k0];
            let (lo, hi) = self.valid_cols(k0);
            for i in lo..hi {
                let k = k0 as u64 * self.cols + i;
                f(k, (i as i64 - off) as u64, i, self.data[k as usize]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::csr::Csr;

    /// 4x4 1-D Laplacian (tridiagonal).
    fn lap() -> Triples<f64> {
        let mut t = Triples::new(4, 4);
        for i in 0..4u64 {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i < 3 {
                t.push(i, i + 1, -1.0);
            }
        }
        t
    }

    #[test]
    fn offsets_inferred() {
        let m = Dia::from_triples(lap());
        assert_eq!(m.offsets(), &[-1, 0, 1]);
        // Kernel space is K0 × D = 3 × 4.
        assert_eq!(m.nnz(), 12);
    }

    #[test]
    fn spmv_matches_csr() {
        let m = Dia::from_triples(lap());
        let c: Csr<f64> = Csr::from_triples(lap());
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y1 = vec![0.0; 4];
        let mut y2 = vec![0.0; 4];
        m.spmv(&x, &mut y1);
        c.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
        let mut z1 = vec![0.0; 4];
        let mut z2 = vec![0.0; 4];
        m.spmv_transpose(&x, &mut z1);
        c.spmv_transpose(&x, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn rectangular_dia() {
        // 2x4 matrix with entries on offsets 0 and 2.
        let t = Triples::from_entries(
            2,
            4,
            vec![(0, 0, 1.0), (1, 1, 2.0), (0, 2, 3.0), (1, 3, 4.0)],
        );
        let m = Dia::from_triples(t.clone());
        assert_eq!(m.offsets(), &[0, 2]);
        let x = [1.0, 1.0, 1.0, 1.0];
        let mut y = vec![0.0; 2];
        m.spmv(&x, &mut y);
        assert_eq!(y, t.dense_apply(&x));
    }

    #[test]
    fn padding_excluded_from_entries() {
        let m = Dia::from_triples(lap());
        let mut count = 0;
        m.for_each_entry(&mut |_, i, j, _| {
            assert!(i < 4 && j < 4);
            count += 1;
        });
        // 10 real entries out of 12 kernel points (2 padding).
        assert_eq!(count, 10);
    }

    #[test]
    fn piece_kernels_sum_to_whole() {
        let m = Dia::from_triples(lap());
        let x = [1.0, -2.0, 3.0, -4.0];
        let mut whole = vec![0.0; 4];
        m.spmv(&x, &mut whole);
        let mut acc = vec![0.0; 4];
        for p in m.kernel_space().all().split_equal(5) {
            m.spmv_add_piece(&p, &x, &mut acc);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn relations_match_entries() {
        let m = Dia::from_triples(lap());
        let row = m.row_relation();
        let col = m.col_relation();
        m.for_each_entry(&mut |k, i, j, _| {
            let mut r = Vec::new();
            row.targets_of(k, &mut r);
            assert_eq!(r, vec![i], "row relation at k={k}");
            let mut c = Vec::new();
            col.targets_of(k, &mut c);
            assert_eq!(c, vec![j], "col relation at k={k}");
        });
        // Padding points relate to no row.
        let mut padding = 0;
        for k in 0..m.nnz() {
            let mut r = Vec::new();
            row.targets_of(k, &mut r);
            if r.is_empty() {
                padding += 1;
            }
        }
        assert_eq!(padding, 2);
    }
}
