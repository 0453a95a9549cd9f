#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # kdr-sparse
//!
//! Sparse matrix storage formats for the KDRSolvers framework.
//!
//! Following the paper's §3, a storage format is nothing more than an
//! indexed collection of entries over a *kernel space* `K` together
//! with a *column relation* `col ⊆ K × D` and a *row relation*
//! `row ⊆ K × R`. Every format in this crate implements the
//! [`SparseMatrix`] trait, whose six *required* methods are exactly
//! that description: the spaces `K`, `D`, `R`, the two relations, and
//! an enumeration of the stored entries. Everything else on the trait
//! is *provided* from the enumeration — entry-wise reference products
//! (`spmv`, `spmv_transpose` and their piece-restricted forms),
//! `diagonal`, `to_triples` — and no solve runs any of it: execution
//! lowers the enumerated entries into the tile kernels of [`tile`].
//! [`Csr`] alone overrides the reference product, as the independent
//! check solver tests compute true residuals with.
//!
//! Formats implemented (the paper's Figure 3):
//!
//! | Format | Module | Structural assumption |
//! |--------|--------|----------------------|
//! | Dense  | [`formats::dense`] | `K = R × D`, both relations implicit |
//! | COO    | [`formats::coo`]   | none (SoA and AoS layouts) |
//! | CSR    | [`formats::csr`]   | `K` totally ordered, `rowptr : R → [K,K]` |
//! | CSC    | [`formats::csc`]   | mirror of CSR: `colptr : D → [K,K]` |
//! | ELL    | [`formats::ell`]   | `K = R × K0`, row relation implicit |
//! | ELL'   | [`formats::ell`]   | mirror of ELL: `K = D × K0`, column relation implicit |
//! | DIA    | [`formats::dia`]   | `K = K0 × D`, both relations implicit |
//! | BCSR   | [`formats::bcsr`]  | `K = K0 × B_R × B_D`, block relations |
//! | BCSC   | [`formats::bcsr`]  | mirror of BCSR, same `K` |
//! | HYB    | [`formats::hyb`]   | `K = (R × K0) ⊔ K_coo`, union of relations |
//!
//! The three mirrors are one adapter, [`formats::mirror::Mirror`],
//! over the row-oriented format of `Aᵀ`: swap `D`/`R`, swap the two
//! relations, swap `(i, j)` in the enumeration.
//!
//! Because every format hands back its relations as
//! [`kdr_index::Relation`] trait objects, the universal co-partitioning
//! operators in `kdr-index` apply to all of them — including formats
//! defined *outside* this crate, which need only the six required
//! methods (see the `custom_format` example).
//!
//! Execution-side kernels live beside the formats: [`tile`] lowers a
//! partitioned operator's tiles into format-specialised SpMV kernels,
//! and [`vecops`] holds the BLAS-1 slice kernels (`axpy`, `xpay`,
//! `scal`, `copy`, `fill`, `dot`) every vector task body runs.

pub mod convert;
pub mod formats;
pub mod io;
pub mod matfree;
pub mod matrix;
pub mod scalar;
pub mod stencil;
pub mod tile;
pub mod triples;
pub mod vecops;

pub use formats::bcsr::{Bcsc, Bcsr};
pub use formats::coo::{Coo, CooAos};
pub use formats::csc::Csc;
pub use formats::csr::Csr;
pub use formats::dense::Dense;
pub use formats::dia::Dia;
pub use formats::ell::{Ell, EllT};
pub use formats::hyb::Hyb;
pub use matfree::StencilTile;
pub use matrix::SparseMatrix;
pub use scalar::{IndexInt, Scalar};
pub use stencil::{Stencil, StencilKind, StencilOperator, VirtualBanded};
pub use tile::{
    KernelChoice, KernelKind, StructureKey, TileKernel, TileRows, TileStructure, TileView, VecIn,
    VecOut,
};
pub use triples::Triples;
