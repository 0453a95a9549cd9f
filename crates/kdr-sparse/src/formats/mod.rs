//! Storage format implementations.
//!
//! Each module realizes one row of the paper's Figure 3 as a concrete
//! type implementing [`crate::SparseMatrix`]: the format's structural
//! assumptions determine its kernel-space shape, and its stored
//! metadata (or lack thereof) determines its row/column relations.
//! The three column-oriented rows (CSC, ELL', BCSC) share one
//! implementation, the [`mirror`] adapter over their row-oriented
//! counterparts.

pub mod bcsr;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod hyb;
pub mod mirror;
