//! Dense matrices as a degenerate "sparse" format.
//!
//! Structural assumption: `K = R × D` (row-major). Both relations are
//! the implicit projections `π1`/`π2`, so — as the paper puts it — a
//! dense matrix is "a structural assumption paired with an empty data
//! structure": no metadata is stored at all.

#[cfg(test)]
use kdr_index::IntervalSet;
use kdr_index::{IndexSpace, ProjectionAxis, ProjectionRelation, Relation};

use crate::matrix::SparseMatrix;
use crate::scalar::Scalar;
use crate::triples::Triples;

/// A dense row-major matrix.
#[derive(Clone, Debug)]
pub struct Dense<T> {
    data: Vec<T>,
    rows: u64,
    cols: u64,
}

impl<T: Scalar> Dense<T> {
    /// A zero matrix.
    pub fn zeros(rows: u64, cols: u64) -> Self {
        Dense {
            data: vec![T::ZERO; (rows * cols) as usize],
            rows,
            cols,
        }
    }

    /// Build from a coordinate list (missing coordinates are zero,
    /// duplicates sum).
    pub fn from_triples(t: Triples<T>) -> Self {
        let mut m = Dense::zeros(t.rows(), t.cols());
        for &(i, j, v) in t.entries() {
            *m.at_mut(i, j) += v;
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Entry accessor.
    pub fn at(&self, i: u64, j: u64) -> T {
        self.data[(i * self.cols + j) as usize]
    }

    /// Mutable entry accessor.
    pub fn at_mut(&mut self, i: u64, j: u64) -> &mut T {
        &mut self.data[(i * self.cols + j) as usize]
    }
}

impl<T: Scalar> SparseMatrix<T> for Dense<T> {
    fn kernel_space(&self) -> IndexSpace {
        // K = R × D, linearized row-major.
        IndexSpace::flat(self.rows * self.cols)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows)
    }

    fn col_relation(&self) -> Box<dyn Relation + '_> {
        Box::new(ProjectionRelation::new(
            self.rows,
            self.cols,
            ProjectionAxis::Inner,
        ))
    }

    fn row_relation(&self) -> Box<dyn Relation + '_> {
        Box::new(ProjectionRelation::new(
            self.rows,
            self.cols,
            ProjectionAxis::Outer,
        ))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for i in 0..self.rows {
            for j in 0..self.cols {
                let k = i * self.cols + j;
                f(k, i, j, self.data[k as usize]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dense<f64> {
        let mut m = Dense::zeros(2, 3);
        for (k, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].into_iter().enumerate() {
            *m.at_mut(k as u64 / 3, k as u64 % 3) = v;
        }
        m
    }

    #[test]
    fn kernel_space_is_product() {
        let m = sample();
        assert_eq!(m.kernel_space(), IndexSpace::flat(2 * 3));
        assert_eq!(m.nnz(), 6);
    }

    #[test]
    fn spmv() {
        let m = sample();
        let mut y = vec![0.0; 2];
        m.spmv(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![6.0, 15.0]);
    }

    #[test]
    fn spmv_transpose() {
        let m = sample();
        let mut y = vec![0.0; 3];
        m.spmv_transpose(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn piece_restricted_spmv() {
        let m = sample();
        // Kernel points 1..5 cover row 0 cols 1,2 and row 1 cols 0,1.
        let piece = IntervalSet::from_range(1, 5);
        let mut y = vec![0.0; 2];
        m.spmv_add_piece(&piece, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![5.0, 9.0]);
        let mut z = vec![0.0; 3];
        m.spmv_transpose_add_piece(&piece, &[1.0, 1.0], &mut z);
        assert_eq!(z, vec![4.0, 7.0, 3.0]);
    }

    #[test]
    fn implicit_relations() {
        let m = sample();
        let row = m.row_relation();
        let col = m.col_relation();
        // Row 1 owns kernel points 3..6.
        assert_eq!(
            row.preimage(&IntervalSet::from_points([1])),
            IntervalSet::from_range(3, 6)
        );
        // Column 2 appears at kernel points 2 and 5.
        assert_eq!(
            col.preimage(&IntervalSet::from_points([2])),
            IntervalSet::from_points([2, 5])
        );
    }

    #[test]
    fn from_triples_fills_and_sums() {
        let m = Dense::from_triples(Triples::from_entries(
            2,
            2,
            vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)],
        ));
        assert_eq!(m.at(0, 0), 3.0);
        assert_eq!(m.at(0, 1), 0.0);
        assert_eq!(m.at(1, 1), 5.0);
    }
}
