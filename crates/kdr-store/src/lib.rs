#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # kdr-store
//!
//! The cost catalogue and the durable plan/session store for the
//! solve service — the two halves of ROADMAP item 5.
//!
//! **Cost catalogue** ([`catalogue`]): a sampled catalogue keyed by
//! operator structure ([`kdr_sparse::StructureKey`]), kernel kind,
//! and piece count. An entry is a tile's share of a measured solver
//! iteration. Every key starts from a `kdr-machine` roofline prior
//! and is refined online from the wall time of the service's
//! scheduler slices; [`CostCatalogue::predict`] returns a
//! [`CostEstimate`] carrying its sample count so callers can tell a
//! measured cost from a model guess. The catalogue prices, refines,
//! counts and persists; it does not pick kernels — a tile's kernel
//! comes from the tile's structure alone
//! ([`kdr_sparse::TileStructure::select`]).
//!
//! **Durable store** ([`store`]): a versioned on-disk format (magic,
//! explicit format version, length-prefixed and checksummed records)
//! persisting the catalogue plus per-tenant session state, so a
//! restarted service warm-starts every tenant instead of paying cold
//! time-to-first-iteration. Corruption and truncation surface as
//! typed [`StoreError`]s — never a panic, never silently-loaded
//! garbage.

pub mod catalogue;
pub mod store;

pub use catalogue::{CatalogueKey, CostCatalogue, CostEstimate, SharedCatalogue};
pub use store::{
    StoreBundle, StoreError, StoreOperator, StoreSession, StoreTenant, STORE_FORMAT_VERSION,
};
