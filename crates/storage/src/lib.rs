#![warn(missing_docs)]
#![warn(unreachable_pub)]
//! # skyquery-storage — the archive database substrate
//!
//! Every SkyNode in the SkyQuery federation wraps an autonomous archive
//! database (the paper's deployment used SQL Server instances hosting the
//! SDSS, 2MASS and FIRST catalogs). This crate is that substrate, built from
//! scratch: a small in-memory relational engine whose feature set is exactly
//! what the paper's Section 5 requires of a participating archive:
//!
//! * typed tables with a declared schema (a **primary table** storing the
//!   unique sky position of each object, plus secondary observation tables),
//! * ordinary predicate scans for the non-spatial query clauses,
//! * a **zone layout** of each table's positions answering the `AREA`
//!   clause and the cross-match candidate lookups, and an **HTM position
//!   index**, the range search they are checked against,
//! * **temporary tables** — the cross-match stored procedure materializes
//!   partial results arriving from the previous SkyNode into a temp table,
//!   joins, and drops it,
//! * a simulated **buffer cache**, so the paper's observation that
//!   performance queries "warm the database cache" (§5.3) is measurable.
//!
//! The engine is deliberately single-threaded per database; concurrency is
//! layered on by the federation crate, mirroring how each autonomous archive
//! manages its own DBMS.

mod cache;
mod catalog;
mod columnar;
mod engine;
mod error;
mod exec;
mod index;
mod schema;
mod table;
mod value;

pub use cache::{BufferCache, CacheStats};
pub use catalog::{Catalog, TableStats};
pub use columnar::{declination_zone, effective_height, DEFAULT_ZONE_HEIGHT_DEG};
pub use columnar::{ColumnarPositions, ProbeScratch, ProbeStats};
pub use engine::Database;
pub use error::StorageError;
pub use exec::{RangeSearchHit, ScanOptions};
pub use index::{BTreeIndex, HtmCandidate, HtmPositionIndex};
pub use schema::{ColumnDef, DataType, PositionColumns, TableSchema};
pub use table::{Row, RowId, Table};
pub use value::Value;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
