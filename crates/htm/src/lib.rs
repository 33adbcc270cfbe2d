#![warn(missing_docs)]
//! # skyquery-htm — Hierarchical Triangular Mesh
//!
//! A from-scratch implementation of the Hierarchical Triangular Mesh (HTM)
//! spatial index described by the SkyQuery paper (\[Hie02\] in its
//! references). The HTM recursively subdivides the celestial sphere into
//! spherical triangles ("trixels"), eight at the root and four children per
//! trixel, producing a quad-tree over the sky.
//!
//! Each trixel at depth `d` is identified by an integer **HTM ID** in the
//! range `[8·4^d, 16·4^d)`. Sorting objects by HTM ID clusters them
//! spatially, so a circular range search reduces to a handful of contiguous
//! ID-range scans — exactly the mechanism SkyNodes use to evaluate the
//! `AREA` clause and the per-step candidate search of the cross-match
//! algorithm.
//!
//! ## Quick start
//!
//! ```
//! use skyquery_htm::{Cover, IdRange, Mesh, SkyPoint};
//!
//! let mesh = Mesh::new(10); // depth-10 mesh
//! let p = SkyPoint::from_radec_deg(185.0, -0.5);
//! let id = mesh.locate(p);
//! assert!(mesh.trixel(id).contains(p.to_vec3()));
//!
//! // Cover a 30-arcminute circle: every point of the cap falls inside one
//! // of the returned ID ranges, full or partial.
//! let radius_deg = 0.5_f64;
//! let cover = Cover::circle(&mesh, p, radius_deg.to_radians());
//! let covers = |ranges: &[IdRange]| ranges.iter().any(|r| r.contains(id.raw()));
//! assert!(covers(cover.full_ranges()) || covers(cover.partial_ranges()));
//! ```
//!
//! The cover distinguishes *full* ranges (trixels entirely inside the cap —
//! rows there need no further distance test) from *partial* ranges (trixels
//! that merely intersect — rows there are re-tested individually), matching
//! the two-phase filtering the paper describes in Section 5.4.

pub mod cover;
pub mod geom;
pub mod mesh;
pub mod polygon;
pub mod ranges;
pub mod trixel;

pub use cover::{descend, ConvexRegion, Cover, RangeKind};
pub use geom::{angular_distance, Cap, SkyPoint, Vec3};
pub use mesh::Mesh;
pub use polygon::{ConvexPolygon, PolygonError};
pub use ranges::IdRange;
pub use trixel::{HtmId, Trixel, MAX_DEPTH};

/// Errors produced by HTM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtmError {
    /// Requested depth exceeds [`MAX_DEPTH`].
    DepthTooLarge(u8),
    /// An HTM ID that does not encode a valid trixel.
    InvalidId(u64),
}

impl std::fmt::Display for HtmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HtmError::DepthTooLarge(d) => {
                write!(f, "HTM depth {d} exceeds maximum {MAX_DEPTH}")
            }
            HtmError::InvalidId(id) => write!(f, "invalid HTM id {id}"),
        }
    }
}

impl std::error::Error for HtmError {}
