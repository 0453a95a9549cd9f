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
//! * [`IndexSpace`] — a finite set of identifiers, optionally carrying
//!   1-D/2-D/3-D grid structure ([`Shape`]).
//! * [`Partition`] — a coloring `C -> 2^I` of an index space, with
//!   completeness/disjointness queries and common constructors
//!   (equal blocks, grid rows, 2-D/3-D tiles).
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

pub mod interval;
pub mod partition;
pub mod point;
pub mod project;
pub mod relation;
pub mod space;

pub use interval::IntervalSet;
pub use partition::Partition;
pub use point::{Point2, Point3, Rect1, Rect2, Rect3};
pub use project::{project, project_back, spmv_closure, square_closure};
pub use relation::{
    ComposedRelation, DiagonalRelation, FnRelation, IdentityRelation, IntervalMapRelation,
    ProjectionAxis, ProjectionRelation, Relation, TransposedRelation, UnionRelation,
};
pub use space::{IndexSpace, Shape};
