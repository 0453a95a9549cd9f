#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # kdr-index
//!
//! Index spaces, partitions, and *dependent partitioning* for the
//! KDRSolvers framework.
//!
//! KDRSolvers describes a sparse linear system through three index
//! spaces — the kernel space `K` (positions of stored nonzeros), the
//! domain space `D` (coordinates of the solution vector) and the range
//! space `R` (coordinates of the right-hand side) — connected by a
//! *column relation* `col ⊆ K × D` and a *row relation* `row ⊆ K × R`.
//!
//! This crate provides the machinery below those ideas:
//!
//! * [`IntervalSet`] — a compact sorted-run representation of a subset
//!   of an index space, the currency of every partitioning operation.
//! * [`IndexSpace`] — a finite set of identifiers `0..size`; it is its
//!   size and nothing else.
//! * [`Partition`] — a coloring `C -> 2^I` of an index space, with
//!   completeness/disjointness queries and common constructors
//!   (equal blocks, cyclic and block-cyclic deals, 2-D tiles).
//! * [`Relation`] — an abstract binary relation between two index
//!   spaces supporting `image` and `preimage` of subsets; concrete
//!   relations cover every storage format in the paper's Figure 3
//!   (array-backed functions, row-pointer interval maps, implicit
//!   Cartesian projections, diagonal offsets).
//! * [`project()`] / [`project_back`] — the universal co-partitioning
//!   operators: the image/preimage of an entire partition along a
//!   relation, i.e. the `col`/`row` projections of the paper's §3.1.
//!
//! Everything here is storage-format agnostic: formats in `kdr-sparse`
//! merely *produce* relations, and all co-partitioning logic is shared.
//! A format's structural assumptions (`K = R × D` for dense, `K = R ×
//! K0` for ELL, the diagonals of DIA) live in its relations alone.

pub mod interval;
pub mod partition;
pub mod project;
pub mod relation;
pub mod space;

pub use interval::IntervalSet;
pub use partition::Partition;
pub use project::{project, project_back, spmv_closure};
pub use relation::{
    ComposedRelation, DiagonalRelation, FnRelation, IntervalMapRelation, ProjectionAxis,
    ProjectionRelation, Relation, TransposedRelation, UnionRelation,
};
pub use space::IndexSpace;
