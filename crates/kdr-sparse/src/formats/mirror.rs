//! The transpose adapter behind the column-oriented formats.
//!
//! CSC, ELL' and BCSC are CSR, ELL and BCSR with rows and columns
//! exchanged, and at the K/D/R level that is all there is to say: a
//! column-oriented layout of `A` *is* the row-oriented layout of `Aᵀ`,
//! read with `D` and `R` swapped, the two relations swapped and every
//! entry's `(i, j)` swapped. [`Mirror`] states exactly that, once, so
//! the three mirrored rows of Figure 3 are type aliases
//! ([`Csc`](super::csc::Csc), [`EllT`](super::ell::EllT),
//! [`Bcsc`](super::bcsr::Bcsc)) rather than second implementations.

use kdr_index::{IndexSpace, Relation};

use crate::matrix::SparseMatrix;
use crate::scalar::Scalar;

/// `A`, stored as the row-oriented format `M` of `Aᵀ`.
#[derive(Clone, Debug)]
pub struct Mirror<M>(pub(crate) M);

impl<T: Scalar, M: SparseMatrix<T>> SparseMatrix<T> for Mirror<M> {
    fn kernel_space(&self) -> IndexSpace {
        self.0.kernel_space()
    }

    fn domain_space(&self) -> IndexSpace {
        self.0.range_space()
    }

    fn range_space(&self) -> IndexSpace {
        self.0.domain_space()
    }

    fn col_relation(&self) -> Box<dyn Relation + '_> {
        self.0.row_relation()
    }

    fn row_relation(&self) -> Box<dyn Relation + '_> {
        self.0.col_relation()
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        self.0.for_each_entry(&mut |k, j, i, v| f(k, i, j, v));
    }
}
