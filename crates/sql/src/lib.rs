#![warn(missing_docs)]
//! # skyquery-sql — the cross-match query dialect
//!
//! SkyQuery accepts "a SQL-like query with special clauses to specify
//! spatial constraints" (paper §5.2):
//!
//! * `AREA(ra, dec, radius)` — a circular sky range (center in degrees,
//!   radius in arcminutes, as the deployed system used);
//! * `XMATCH(A, B, !C) < t` — the probabilistic spatial join, where `!`
//!   marks a *drop-out* archive (the tuple must have **no** counterpart
//!   there) and `t` is the threshold in standard deviations.
//!
//! This crate provides the full pipeline from text to an executable
//! federation plan input:
//!
//! * [`lexer`] / [`parser`] — text → [`ast::Query`];
//! * [`ast`] — the query tree, with `Display` impls that regenerate SQL
//!   (used to ship per-archive queries to SkyNodes as text, exactly like
//!   the paper's performance-query examples);
//! * [`eval`] — expression evaluation with SQL three-valued logic, used by
//!   SkyNodes to apply their local clauses;
//! * [`decompose()`] — splits a parsed query into the per-archive local
//!   queries, cross-archive residual clauses, the AREA/XMATCH specs, and
//!   the count-star performance queries of §5.3.
//!
//! ```
//! use skyquery_sql::parse_query;
//! let q = parse_query(
//!     "SELECT O.object_id, T.object_id \
//!      FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T \
//!      WHERE AREA(185.0, -0.5, 4.5) AND XMATCH(O, T) < 3.5 \
//!        AND O.type = 'GALAXY'",
//! ).unwrap();
//! assert_eq!(q.from.len(), 2);
//! ```

pub mod ast;
pub mod decompose;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;

pub use ast::{
    AreaSpec, BinaryOp, Expr, Literal, PolygonSpec, Query, RegionSpec, SelectItem, TableRef,
    UnaryOp, XMatchSpec, XMatchTerm,
};
pub use decompose::{decompose, ArchiveQuery, DecomposedQuery, PerformanceQuery};
pub use error::SqlError;
pub use eval::{Bindings, EmptyBindings, RowBindings};
pub use parser::{parse_expr, parse_query};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SqlError>;
