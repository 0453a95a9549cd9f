//! Block compressed sparse row/column formats.
//!
//! Structural assumptions (paper Figure 3): `K = K0 × B_R × B_D`,
//! `D = D0 × B_D`, `R = R0 × B_R`, with `K0` totally ordered. Metadata
//! lives at *block* granularity: BCSR stores
//! `rowptr : R0 -> [K0, K0]` and `col : K0 -> D0`; BCSC mirrors them.
//! The full-space row/column relations are compositions of the block
//! relations with implicit projections and block-expansion maps —
//! expressed here literally as [`ComposedRelation`] chains, so the
//! universal projection operators work at block granularity exactly
//! as the paper prescribes.

use kdr_index::{
    ComposedRelation, FnRelation, IndexSpace, IntervalMapRelation, ProjectionAxis,
    ProjectionRelation, Relation, TransposedRelation,
};

use super::mirror::Mirror;
use crate::matrix::SparseMatrix;
use crate::scalar::{IndexInt, Scalar};
use crate::triples::Triples;

/// Block CSR: dense `br × bd` blocks at block coordinates compressed
/// by block row.
#[derive(Clone, Debug)]
pub struct Bcsr<T, I = u64> {
    block_rowptr: Vec<u64>,
    block_colidx: Vec<I>,
    /// Block-major storage: block `k0` occupies
    /// `blocks[k0 * br * bd ..][..br * bd]`, row-major within a block.
    blocks: Vec<T>,
    br: u64,
    bd: u64,
    rows: u64,
    cols: u64,
}

impl<T: Scalar, I: IndexInt> Bcsr<T, I> {
    /// Build from a coordinate list with the given block shape; the
    /// matrix dimensions must be multiples of the block dimensions.
    pub fn from_triples(t: Triples<T>, br: u64, bd: u64) -> Self {
        assert!(br > 0 && bd > 0, "degenerate block shape");
        assert_eq!(t.rows() % br, 0, "rows not a multiple of block rows");
        assert_eq!(t.cols() % bd, 0, "cols not a multiple of block cols");
        let rows = t.rows();
        let cols = t.cols();
        let r0 = rows / br;
        let t = t.canonicalize();
        // Collect occupied block coordinates.
        let mut coords: Vec<(u64, u64)> = t
            .entries()
            .iter()
            .map(|&(i, j, _)| (i / br, j / bd))
            .collect();
        coords.sort_unstable();
        coords.dedup();
        let mut block_rowptr = vec![0u64; r0 as usize + 1];
        for &(bi, _) in &coords {
            block_rowptr[bi as usize + 1] += 1;
        }
        for i in 1..block_rowptr.len() {
            block_rowptr[i] += block_rowptr[i - 1];
        }
        let block_colidx: Vec<I> = coords.iter().map(|&(_, bj)| I::from_u64(bj)).collect();
        let mut blocks = vec![T::ZERO; coords.len() * (br * bd) as usize];
        // coords is sorted (bi, bj); binary search for each entry.
        for &(i, j, v) in t.entries() {
            let key = (i / br, j / bd);
            let k0 = coords.binary_search(&key).expect("block must exist");
            let (r, c) = (i % br, j % bd);
            blocks[k0 * (br * bd) as usize + (r * bd + c) as usize] += v;
        }
        Bcsr {
            block_rowptr,
            block_colidx,
            blocks,
            br,
            bd,
            rows,
            cols,
        }
    }

    /// Number of stored blocks (`|K0|`).
    pub fn num_blocks(&self) -> u64 {
        self.block_colidx.len() as u64
    }

    fn block_size(&self) -> u64 {
        self.br * self.bd
    }
}

impl<T: Scalar, I: IndexInt> SparseMatrix<T> for Bcsr<T, I> {
    fn kernel_space(&self) -> IndexSpace {
        // K = K0 × B_R × B_D, linearized block-major.
        IndexSpace::flat(self.num_blocks() * self.block_size())
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows)
    }

    fn col_relation(&self) -> Box<dyn Relation> {
        // K -> K0 (implicit projection) ; K0 -> D0 (stored) ;
        // D0 -> D (block expansion).
        let to_block = ProjectionRelation::new(
            self.num_blocks().max(1),
            self.block_size(),
            ProjectionAxis::Outer,
        );
        let col0 = FnRelation::new(
            self.block_colidx.iter().map(|&j| j.to_u64()).collect(),
            self.cols / self.bd,
        );
        let expand = IntervalMapRelation::uniform_blocks(self.cols / self.bd, self.bd);
        Box::new(ComposedRelation::new(
            Box::new(ComposedRelation::new(Box::new(to_block), Box::new(col0))),
            Box::new(expand),
        ))
    }

    fn row_relation(&self) -> Box<dyn Relation> {
        // K -> K0 ; K0 -> R0 (transposed block rowptr) ; R0 -> R.
        let to_block = ProjectionRelation::new(
            self.num_blocks().max(1),
            self.block_size(),
            ProjectionAxis::Outer,
        );
        let row0 = TransposedRelation::new(Box::new(IntervalMapRelation::from_offsets(
            &self.block_rowptr,
            self.num_blocks(),
        )));
        let expand = IntervalMapRelation::uniform_blocks(self.rows / self.br, self.br);
        Box::new(ComposedRelation::new(
            Box::new(ComposedRelation::new(Box::new(to_block), Box::new(row0))),
            Box::new(expand),
        ))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        let bs = self.block_size();
        for bi in 0..self.block_rowptr.len() - 1 {
            for k0 in self.block_rowptr[bi]..self.block_rowptr[bi + 1] {
                let bj = self.block_colidx[k0 as usize].to_u64();
                for r in 0..self.br {
                    for c in 0..self.bd {
                        let k = k0 * bs + r * self.bd + c;
                        f(
                            k,
                            bi as u64 * self.br + r,
                            bj * self.bd + c,
                            self.blocks[k as usize],
                        );
                    }
                }
            }
        }
    }
}

/// Block CSC: dense blocks compressed by block column — the [`Bcsr`]
/// of `Aᵀ` (block shape `bd × br`) behind the [`Mirror`] adapter, so a
/// block is laid out column-major in `A`'s coordinates.
pub type Bcsc<T, I = u64> = Mirror<Bcsr<T, I>>;

impl<T: Scalar, I: IndexInt> Bcsc<T, I> {
    /// Build from a coordinate list with the given block shape.
    pub fn from_triples(t: Triples<T>, br: u64, bd: u64) -> Self {
        // Checked here so a failure names `A`'s dimension, not `Aᵀ`'s.
        assert!(br > 0 && bd > 0, "degenerate block shape");
        assert_eq!(t.rows() % br, 0, "rows not a multiple of block rows");
        assert_eq!(t.cols() % bd, 0, "cols not a multiple of block cols");
        Mirror(Bcsr::from_triples(t.transposed(), bd, br))
    }

    /// Number of stored blocks (`|K0|`).
    pub fn num_blocks(&self) -> u64 {
        self.0.num_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::csr::Csr;
    use crate::triples::{random_triples, xorshift};

    fn t() -> Triples<f64> {
        // 6x6 with 2x3 blocks.
        Triples::from_entries(
            6,
            6,
            vec![
                (0, 0, 1.0),
                (1, 2, 2.0),
                (0, 4, 3.0),
                (3, 3, 4.0),
                (5, 5, 5.0),
                (4, 0, 6.0),
            ],
        )
    }

    #[test]
    fn bcsr_matches_csr() {
        let b: Bcsr<f64, u32> = Bcsr::from_triples(t(), 2, 3);
        let c: Csr<f64> = Csr::from_triples(t());
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut y1 = vec![0.0; 6];
        let mut y2 = vec![0.0; 6];
        b.spmv(&x, &mut y1);
        c.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
        let mut z1 = vec![0.0; 6];
        let mut z2 = vec![0.0; 6];
        b.spmv_transpose(&x, &mut z1);
        c.spmv_transpose(&x, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn bcsc_matches_csr() {
        let b: Bcsc<f64, u32> = Bcsc::from_triples(t(), 2, 3);
        let c: Csr<f64> = Csr::from_triples(t());
        let x = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0];
        let mut y1 = vec![0.0; 6];
        let mut y2 = vec![0.0; 6];
        b.spmv(&x, &mut y1);
        c.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn block_count_and_kernel_space() {
        let b: Bcsr<f64> = Bcsr::from_triples(t(), 2, 3);
        // Occupied blocks: (0,0), (0,1), (1,1), (2,0), (2,1) -> 5 blocks.
        assert_eq!(b.num_blocks(), 5);
        assert_eq!(b.nnz(), 5 * 6);
        assert_eq!(b.kernel_space(), IndexSpace::flat(5 * 2 * 3));
    }

    #[test]
    fn relations_cover_entries_block_granular() {
        let b: Bcsr<f64> = Bcsr::from_triples(t(), 2, 3);
        let row = b.row_relation();
        let col = b.col_relation();
        // Block relations relate each kernel point to its whole block
        // row/column span — verify containment of the true coordinate.
        b.for_each_entry(&mut |k, i, j, _| {
            let mut r = Vec::new();
            row.targets_of(k, &mut r);
            assert!(r.contains(&i), "row span of k={k} must contain {i}");
            assert_eq!(r.len(), 2, "row span is one block tall");
            let mut c = Vec::new();
            col.targets_of(k, &mut c);
            assert!(c.contains(&j), "col span of k={k} must contain {j}");
            assert_eq!(c.len(), 3, "col span is one block wide");
        });
    }

    #[test]
    fn piece_kernels_sum_to_whole() {
        let b: Bcsr<f64> = Bcsr::from_triples(t(), 2, 3);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut whole = vec![0.0; 6];
        b.spmv(&x, &mut whole);
        let mut acc = vec![0.0; 6];
        for p in b.kernel_space().all().split_equal(7) {
            b.spmv_add_piece(&p, &x, &mut acc);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn random_roundtrip_against_reference() {
        let t = random_triples::<f64>(8, 12, 30, xorshift(7)).canonicalize();
        let b: Bcsr<f64> = Bcsr::from_triples(t.clone(), 4, 3);
        let bc: Bcsc<f64> = Bcsc::from_triples(t.clone(), 2, 4);
        let x: Vec<f64> = (0..12).map(|i| i as f64 * 0.5 - 3.0).collect();
        let expect = t.dense_apply(&x);
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        b.spmv(&x, &mut y1);
        bc.spmv(&x, &mut y2);
        for i in 0..8 {
            assert!((y1[i] - expect[i]).abs() < 1e-12);
            assert!((y2[i] - expect[i]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_blocks_rejected() {
        Bcsr::<f64>::from_triples(t(), 4, 3);
    }
}
