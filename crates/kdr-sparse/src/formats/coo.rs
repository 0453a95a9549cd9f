//! Coordinate format, in structure-of-arrays and array-of-structures
//! layouts.
//!
//! COO carries no structural assumptions: its metadata is exactly the
//! two stored functions `row : K -> R` and `col : K -> D`. The paper
//! notes that the abstract format does not fix a physical layout —
//! an indexed collection of records `{entry, col, row}` can be laid
//! out SoA or AoS — so this module provides both ([`Coo`] and
//! [`CooAos`]) behind the same trait.

use kdr_index::{FnRelation, IndexSpace, Relation};

use crate::matrix::SparseMatrix;
use crate::scalar::{IndexInt, Scalar};
use crate::triples::Triples;

/// COO in structure-of-arrays layout (separate row/col/value arrays).
#[derive(Clone, Debug)]
pub struct Coo<T, I = u64> {
    rowidx: Vec<I>,
    colidx: Vec<I>,
    values: Vec<T>,
    rows: u64,
    cols: u64,
}

impl<T: Scalar, I: IndexInt> Coo<T, I> {
    /// Build from a coordinate list. Duplicates are preserved (COO
    /// permits them; kernels sum them), insertion order kept.
    pub fn from_triples(t: Triples<T>) -> Self {
        let rows = t.rows();
        let cols = t.cols();
        let mut rowidx = Vec::with_capacity(t.len());
        let mut colidx = Vec::with_capacity(t.len());
        let mut values = Vec::with_capacity(t.len());
        for &(i, j, v) in t.entries() {
            rowidx.push(I::from_u64(i));
            colidx.push(I::from_u64(j));
            values.push(v);
        }
        Coo {
            rowidx,
            colidx,
            values,
            rows,
            cols,
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
}

impl<T: Scalar, I: IndexInt> SparseMatrix<T> for Coo<T, I> {
    fn kernel_space(&self) -> IndexSpace {
        IndexSpace::flat(self.values.len() as u64)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows)
    }

    fn col_relation(&self) -> Box<dyn Relation + '_> {
        // `from_triples` took every index from a checked coordinate list.
        Box::new(FnRelation::borrowed(&self.colidx, self.cols))
    }

    fn row_relation(&self) -> Box<dyn Relation + '_> {
        Box::new(FnRelation::borrowed(&self.rowidx, self.rows))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for k in 0..self.values.len() {
            f(
                k as u64,
                self.rowidx[k].to_u64(),
                self.colidx[k].to_u64(),
                self.values[k],
            );
        }
    }
}

/// One COO record: entry plus its grid coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CooRecord<T, I> {
    /// Row index.
    pub row: I,
    /// Column index.
    pub col: I,
    /// Stored value.
    pub value: T,
}

/// COO in array-of-structures layout (one record per entry).
#[derive(Clone, Debug)]
pub struct CooAos<T, I = u64> {
    records: Vec<CooRecord<T, I>>,
    rows: u64,
    cols: u64,
}

impl<T: Scalar, I: IndexInt> CooAos<T, I> {
    /// Build from a coordinate list, preserving duplicates and order.
    pub fn from_triples(t: Triples<T>) -> Self {
        let rows = t.rows();
        let cols = t.cols();
        let records = t
            .entries()
            .iter()
            .map(|&(i, j, v)| CooRecord {
                row: I::from_u64(i),
                col: I::from_u64(j),
                value: v,
            })
            .collect();
        CooAos {
            records,
            rows,
            cols,
        }
    }

    /// The stored records, in insertion order.
    pub fn records(&self) -> &[CooRecord<T, I>] {
        &self.records
    }
}

impl<T: Scalar, I: IndexInt> SparseMatrix<T> for CooAos<T, I> {
    fn kernel_space(&self) -> IndexSpace {
        IndexSpace::flat(self.records.len() as u64)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows)
    }

    // Records are not a table of indices: the relations collect one.
    fn col_relation(&self) -> Box<dyn Relation + '_> {
        Box::new(FnRelation::new(
            self.records.iter().map(|r| r.col.to_u64()).collect(),
            self.cols,
        ))
    }

    fn row_relation(&self) -> Box<dyn Relation + '_> {
        Box::new(FnRelation::new(
            self.records.iter().map(|r| r.row.to_u64()).collect(),
            self.rows,
        ))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for (k, r) in self.records.iter().enumerate() {
            f(k as u64, r.row.to_u64(), r.col.to_u64(), r.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdr_index::IntervalSet;

    fn t() -> Triples<f64> {
        Triples::from_entries(
            3,
            4,
            vec![(2, 1, 2.0), (0, 0, 1.0), (0, 3, 3.0), (2, 1, 0.5)],
        )
    }

    #[test]
    fn soa_spmv_sums_duplicates() {
        let m: Coo<f64, u32> = Coo::from_triples(t());
        assert_eq!(m.nnz(), 4); // duplicates preserved in K
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, vec![13.0, 0.0, 5.0]);
    }

    #[test]
    fn aos_equals_soa() {
        let soa: Coo<f64> = Coo::from_triples(t());
        let aos: CooAos<f64> = CooAos::from_triples(t());
        let x = [1.0, -1.0, 0.5, 2.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        soa.spmv(&x, &mut y1);
        aos.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
        let xr = [1.0, 2.0, 3.0];
        let mut z1 = vec![0.0; 4];
        let mut z2 = vec![0.0; 4];
        soa.spmv_transpose(&xr, &mut z1);
        aos.spmv_transpose(&xr, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn relations_are_stored_functions() {
        let m: Coo<f64> = Coo::from_triples(t());
        let row = m.row_relation();
        let col = m.col_relation();
        // Kernel point 0 is entry (2, 1).
        assert_eq!(
            row.image(&IntervalSet::from_points([0])),
            IntervalSet::from_points([2])
        );
        assert_eq!(
            col.image(&IntervalSet::from_points([0])),
            IntervalSet::from_points([1])
        );
        // Duplicate coordinates share images.
        assert_eq!(
            row.preimage(&IntervalSet::from_points([2])),
            IntervalSet::from_points([0, 3])
        );
    }

    #[test]
    fn piece_split_covers_product() {
        let m: CooAos<f64> = CooAos::from_triples(t());
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut whole = vec![0.0; 3];
        m.spmv(&x, &mut whole);
        let mut acc = vec![0.0; 3];
        for p in m.kernel_space().all().split_equal(3) {
            m.spmv_add_piece(&p, &x, &mut acc);
        }
        assert_eq!(acc, whole);
    }
}
