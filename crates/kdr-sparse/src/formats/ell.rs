//! ELLPACK formats.
//!
//! ELL imposes the structural assumption `K = R × K0`: every row
//! stores exactly `K0` slots (padded with explicit zeros), so the row
//! relation is the implicit projection `π1` and only the column
//! indices are stored metadata. ELL' (here [`EllT`]) is the mirrored
//! layout `K = D × K0` with the *column* relation implicit.
//!
//! Padding slots hold value zero and duplicate the row's last real
//! coordinate (or 0 for empty rows), so the stored relations stay
//! total without introducing artificial dependencies on column 0.

use kdr_index::{FnRelation, IndexSpace, ProjectionAxis, ProjectionRelation, Relation};

use super::mirror::Mirror;
use crate::matrix::SparseMatrix;
use crate::scalar::{IndexInt, Scalar};
use crate::triples::Triples;

/// Row-major ELLPACK: kernel point `k = i * width + s` is slot `s` of
/// row `i`.
#[derive(Clone, Debug)]
pub struct Ell<T, I = u64> {
    colidx: Vec<I>,
    values: Vec<T>,
    rows: u64,
    cols: u64,
    width: u64,
}

impl<T: Scalar, I: IndexInt> Ell<T, I> {
    /// Build from a coordinate list; the slot width is the maximum row
    /// population (duplicates summed first).
    pub fn from_triples(t: Triples<T>) -> Self {
        let rows = t.rows();
        let cols = t.cols();
        let t = t.canonicalize();
        let width = t.max_row_nnz().max(1);
        let mut colidx = vec![I::from_u64(0); (rows * width) as usize];
        let mut values = vec![T::ZERO; (rows * width) as usize];
        let mut fill = vec![0u64; rows as usize];
        for &(i, j, v) in t.entries() {
            let s = fill[i as usize];
            debug_assert!(s < width);
            let k = (i * width + s) as usize;
            colidx[k] = I::from_u64(j);
            values[k] = v;
            fill[i as usize] = s + 1;
        }
        // Point padding slots at the row's last real column.
        for i in 0..rows as usize {
            let f = fill[i];
            if f == 0 {
                continue;
            }
            let last = colidx[(i as u64 * width + f - 1) as usize];
            for s in f..width {
                colidx[(i as u64 * width + s) as usize] = last;
            }
        }
        Ell {
            colidx,
            values,
            rows,
            cols,
            width,
        }
    }

    /// Row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Slots per row (`K0`).
    pub fn width(&self) -> u64 {
        self.width
    }
}

impl<T: Scalar, I: IndexInt> SparseMatrix<T> for Ell<T, I> {
    fn kernel_space(&self) -> IndexSpace {
        // K = R × K0, linearized row-major.
        IndexSpace::flat(self.rows * self.width)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows)
    }

    fn col_relation(&self) -> Box<dyn Relation> {
        Box::new(FnRelation::new(
            self.colidx.iter().map(|&j| j.to_u64()).collect(),
            self.cols,
        ))
    }

    fn row_relation(&self) -> Box<dyn Relation> {
        // Implicit π1 : R × K0 -> R.
        Box::new(ProjectionRelation::new(
            self.rows,
            self.width,
            ProjectionAxis::Outer,
        ))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for k in 0..self.values.len() as u64 {
            f(
                k,
                k / self.width,
                self.colidx[k as usize].to_u64(),
                self.values[k as usize],
            );
        }
    }
}

/// Column-major ELLPACK (the paper's ELL'): kernel point
/// `k = j * width + s` is slot `s` of *column* `j`; the column
/// relation is implicit and row indices are stored — the [`Ell`] of
/// `Aᵀ` behind the [`Mirror`] adapter.
pub type EllT<T, I = u64> = Mirror<Ell<T, I>>;

impl<T: Scalar, I: IndexInt> EllT<T, I> {
    /// Build from a coordinate list; the slot width is the maximum
    /// *column* population.
    pub fn from_triples(t: Triples<T>) -> Self {
        Mirror(Ell::from_triples(t.transposed()))
    }

    /// Slots per column (`K0`).
    pub fn width(&self) -> u64 {
        self.0.width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::csr::Csr;
    use kdr_index::IntervalSet;

    fn t() -> Triples<f64> {
        Triples::from_entries(
            4,
            4,
            vec![
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (3, 3, 2.0),
            ],
        )
    }

    #[test]
    fn ell_width_and_padding() {
        let m: Ell<f64, u32> = Ell::from_triples(t());
        assert_eq!(m.width(), 3); // row 1 has three entries
        assert_eq!(m.nnz(), 12); // padded kernel space
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        m.spmv(&x, &mut y);
        let reference = t().dense_apply(&x);
        assert_eq!(y, reference);
    }

    #[test]
    fn ell_matches_csr_on_transpose() {
        let m: Ell<f64> = Ell::from_triples(t());
        let c: Csr<f64> = Csr::from_triples(t());
        let x = [1.0, -1.0, 2.0, 0.5];
        let mut y1 = vec![0.0; 4];
        let mut y2 = vec![0.0; 4];
        m.spmv_transpose(&x, &mut y1);
        c.spmv_transpose(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn ellt_matches_reference() {
        let m: EllT<f64, u32> = EllT::from_triples(t());
        assert_eq!(m.width(), 2); // columns 0 and 1 have two entries
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        m.spmv(&x, &mut y);
        assert_eq!(y, t().dense_apply(&x));
        let xr = [1.0, 1.0, 1.0, 1.0];
        let mut z = vec![0.0; 4];
        m.spmv_transpose(&xr, &mut z);
        assert_eq!(z, t().dense_apply_transpose(&xr));
    }

    #[test]
    fn implicit_relations_have_product_structure() {
        let m: Ell<f64> = Ell::from_triples(t());
        let row = m.row_relation();
        // Row 2 (empty in the matrix) still owns its padded slots.
        assert_eq!(
            row.preimage(&IntervalSet::from_points([2])),
            IntervalSet::from_range(6, 9)
        );
        let mt: EllT<f64> = EllT::from_triples(t());
        let col = mt.col_relation();
        assert_eq!(
            col.preimage(&IntervalSet::from_points([0])),
            IntervalSet::from_range(0, 2)
        );
    }

    #[test]
    fn piece_kernels_sum_to_whole() {
        let m: Ell<f64> = Ell::from_triples(t());
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut whole = vec![0.0; 4];
        m.spmv(&x, &mut whole);
        let mut acc = vec![0.0; 4];
        for p in m.kernel_space().all().split_equal(5) {
            m.spmv_add_piece(&p, &x, &mut acc);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn padding_points_at_last_real_column() {
        let m: Ell<f64> = Ell::from_triples(t());
        let col = m.col_relation();
        // Row 0 has entries at columns 0, 1 and one padding slot that
        // must duplicate column 1 rather than defaulting to column 0.
        assert_eq!(
            col.image(&IntervalSet::from_points([2])),
            IntervalSet::from_points([1])
        );
    }
}
