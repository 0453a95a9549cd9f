//! Hybrid format: ELL body plus COO overflow.
//!
//! The paper's §7 ("Mixing and composing sparse array storage
//! formats") points out that multi-operator systems let KDRSolvers
//! process pieces of a matrix in different formats; this module
//! implements the classic single-matrix version of that idea — the
//! cuSPARSE-style HYB format, which stores each row's first `width`
//! entries in a regular ELL body and spills irregular rows into a COO
//! tail. Its kernel space is the disjoint union `K = K_ell ⊔ K_coo`,
//! and its row/column relations are literally
//! [`UnionRelation`]s of the two parts' relations shifted into the
//! combined space — composing formats at the relation level, exactly
//! as the paper anticipates.

use kdr_index::{FnRelation, IndexSpace, IntervalSet, Relation, UnionRelation};

use crate::matrix::SparseMatrix;
use crate::scalar::{IndexInt, Scalar};
use crate::triples::Triples;

/// HYB = ELL body (`rows × width`, row-major) + COO overflow.
#[derive(Clone, Debug)]
pub struct Hyb<T, I = u64> {
    // ELL body: slot k = i * width + s.
    ell_cols: Vec<I>,
    ell_vals: Vec<T>,
    width: u64,
    // COO tail.
    coo_rows: Vec<I>,
    coo_cols: Vec<I>,
    coo_vals: Vec<T>,
    rows: u64,
    cols: u64,
}

impl<T: Scalar, I: IndexInt> Hyb<T, I> {
    /// Build with an explicit ELL width: each row's first `width`
    /// entries go to the body, the rest overflow to COO. Duplicates
    /// are summed first.
    pub fn with_width(t: Triples<T>, width: u64) -> Self {
        assert!(width >= 1);
        let rows = t.rows();
        let cols = t.cols();
        let t = t.canonicalize();
        let mut ell_cols = vec![I::from_u64(0); (rows * width) as usize];
        let mut ell_vals = vec![T::ZERO; (rows * width) as usize];
        let mut fill = vec![0u64; rows as usize];
        let mut coo_rows = Vec::new();
        let mut coo_cols = Vec::new();
        let mut coo_vals = Vec::new();
        for &(i, j, v) in t.entries() {
            let f = fill[i as usize];
            if f < width {
                let k = (i * width + f) as usize;
                ell_cols[k] = I::from_u64(j);
                ell_vals[k] = v;
                fill[i as usize] = f + 1;
            } else {
                coo_rows.push(I::from_u64(i));
                coo_cols.push(I::from_u64(j));
                coo_vals.push(v);
            }
        }
        // Padding slots duplicate the row's last stored column.
        for i in 0..rows as usize {
            let f = fill[i];
            if f == 0 {
                continue;
            }
            let last = ell_cols[(i as u64 * width + f - 1) as usize];
            for s in f..width {
                ell_cols[(i as u64 * width + s) as usize] = last;
            }
        }
        Hyb {
            ell_cols,
            ell_vals,
            width,
            coo_rows,
            coo_cols,
            coo_vals,
            rows,
            cols,
        }
    }

    /// Build with the cuSPARSE-style heuristic width: the average row
    /// population, so regular rows stay in the body and outliers
    /// overflow.
    pub fn from_triples(t: Triples<T>) -> Self {
        let rows = t.rows().max(1);
        let avg = (t.len() as u64).div_ceil(rows).max(1);
        Self::with_width(t, avg)
    }

    /// ELL body slots per row.
    pub fn width(&self) -> u64 {
        self.width
    }

    fn ell_size(&self) -> u64 {
        self.rows * self.width
    }
}

impl<T: Scalar, I: IndexInt> SparseMatrix<T> for Hyb<T, I> {
    fn kernel_space(&self) -> IndexSpace {
        IndexSpace::flat(self.ell_size() + self.coo_vals.len() as u64)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows)
    }

    fn col_relation(&self) -> Box<dyn Relation + '_> {
        // One stored function covering both parts of K (columns are
        // stored for every kernel point in HYB).
        let mut table: Vec<u64> = self.ell_cols.iter().map(|&j| j.to_u64()).collect();
        table.extend(self.coo_cols.iter().map(|&j| j.to_u64()));
        Box::new(FnRelation::new(table, self.cols))
    }

    fn row_relation(&self) -> Box<dyn Relation + '_> {
        // Kept as a union — implicit (computed) rows for the ELL body,
        // stored rows for the COO tail — because that composition of
        // two parts' relations is the format's K/D/R description; one
        // stored function over all of K would materialize the implicit
        // half.
        let ell = EllRowsPartial {
            rows: self.rows,
            width: self.width,
            total: self.ell_size() + self.coo_vals.len() as u64,
        };
        // The stored part must be total over K; point the ELL half at
        // the row it belongs to (duplicating the implicit relation is
        // harmless under union).
        let mut full: Vec<u64> = (0..self.ell_size()).map(|k| k / self.width).collect();
        full.extend(self.coo_rows.iter().map(|&i| i.to_u64()));
        let coo = FnRelation::new(full, self.rows);
        Box::new(UnionRelation::new(vec![Box::new(ell), Box::new(coo)]))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for k in 0..self.ell_size() {
            f(
                k,
                k / self.width,
                self.ell_cols[k as usize].to_u64(),
                self.ell_vals[k as usize],
            );
        }
        let base = self.ell_size();
        for i in 0..self.coo_vals.len() {
            f(
                base + i as u64,
                self.coo_rows[i].to_u64(),
                self.coo_cols[i].to_u64(),
                self.coo_vals[i],
            );
        }
    }
}

/// The ELL body's implicit row relation, partial over the combined
/// kernel space (COO tail points relate to nothing here).
struct EllRowsPartial {
    rows: u64,
    width: u64,
    total: u64,
}

impl Relation for EllRowsPartial {
    fn source_size(&self) -> u64 {
        self.total
    }

    fn target_size(&self) -> u64 {
        self.rows
    }

    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        if s < self.rows * self.width {
            out.push(s / self.width);
        }
    }

    fn image(&self, set: &IntervalSet) -> IntervalSet {
        let ell = set.intersect(&IntervalSet::from_range(0, self.rows * self.width));
        let proj = kdr_index::ProjectionRelation::new(
            self.rows,
            self.width,
            kdr_index::ProjectionAxis::Outer,
        );
        proj.image(&ell)
    }

    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        let proj = kdr_index::ProjectionRelation::new(
            self.rows,
            self.width,
            kdr_index::ProjectionAxis::Outer,
        );
        proj.preimage(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::csr::Csr;
    use crate::stencil::rhs_vector;

    /// A matrix with regular rows plus two heavy outlier rows.
    fn t() -> Triples<f64> {
        let mut t = Triples::new(8, 8);
        for i in 0..8u64 {
            t.push(i, i, 4.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
        }
        // Outliers: dense-ish rows 2 and 5.
        for j in 0..8u64 {
            t.push(2, j, 0.25);
            t.push(5, j, -0.5);
        }
        t
    }

    #[test]
    fn splits_body_and_overflow() {
        let m: Hyb<f64, u32> = Hyb::from_triples(t());
        assert!(m.width() >= 1);
        // Total stored = ELL slots + overflow, and outlier rows spill.
        assert!(m.nnz() > 8 * m.width(), "outlier rows must spill");
    }

    #[test]
    fn spmv_matches_csr() {
        let m: Hyb<f64, u32> = Hyb::from_triples(t());
        let c: Csr<f64> = Csr::from_triples(t());
        let x = rhs_vector::<f64>(8, 3);
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        m.spmv(&x, &mut y1);
        c.spmv(&x, &mut y2);
        for i in 0..8 {
            assert!((y1[i] - y2[i]).abs() < 1e-12, "row {i}");
        }
        let mut z1 = vec![0.0; 8];
        let mut z2 = vec![0.0; 8];
        m.spmv_transpose(&x, &mut z1);
        c.spmv_transpose(&x, &mut z2);
        for i in 0..8 {
            assert!((z1[i] - z2[i]).abs() < 1e-12, "t row {i}");
        }
    }

    #[test]
    fn relations_cover_entries() {
        let m: Hyb<f64, u32> = Hyb::from_triples(t());
        let row = m.row_relation();
        let col = m.col_relation();
        m.for_each_entry(&mut |k, i, j, _| {
            let mut r = Vec::new();
            row.targets_of(k, &mut r);
            assert!(r.contains(&i), "row at k={k}");
            let mut c = Vec::new();
            col.targets_of(k, &mut c);
            assert!(c.contains(&j), "col at k={k}");
        });
    }

    #[test]
    fn piece_kernels_sum_to_whole() {
        let m: Hyb<f64, u32> = Hyb::from_triples(t());
        let x = rhs_vector::<f64>(8, 9);
        let mut whole = vec![0.0; 8];
        m.spmv(&x, &mut whole);
        let mut acc = vec![0.0; 8];
        for p in m.kernel_space().all().split_equal(5) {
            m.spmv_add_piece(&p, &x, &mut acc);
        }
        for i in 0..8 {
            assert!((acc[i] - whole[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn explicit_width_controls_split() {
        let narrow: Hyb<f64, u32> = Hyb::with_width(t(), 1);
        let wide: Hyb<f64, u32> = Hyb::with_width(t(), 10);
        assert!(narrow.nnz() > 8 * narrow.width());
        assert_eq!(wide.nnz(), 8 * wide.width());
        let x = rhs_vector::<f64>(8, 1);
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        narrow.spmv(&x, &mut y1);
        wide.spmv(&x, &mut y2);
        for i in 0..8 {
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }
}
