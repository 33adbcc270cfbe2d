//! Convex spherical polygons — the region type of the paper's §6
//! extension ("the AREA clause can also be extended to specify arbitrary
//! polygons rather than just simple circles").
//!
//! A polygon is the intersection of the half-spaces defined by its edges'
//! great circles. Vertices must be listed counter-clockwise as seen from
//! outside the sphere; construction validates convexity and orientation.

use crate::geom::{SkyPoint, Vec3};
use crate::HtmError;

/// A convex spherical polygon.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexPolygon {
    vertices: Vec<Vec3>,
    /// Outward edge normals: `normals[i] = vertices[i] × vertices[i+1]`,
    /// normalized. A point is inside iff `p · n ≥ 0` for all normals.
    normals: Vec<Vec3>,
}

/// Why polygon construction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices.
    TooFewVertices(usize),
    /// Two consecutive vertices coincide or are antipodal.
    DegenerateEdge(usize),
    /// A vertex lies outside the half-space of a non-adjacent edge: the
    /// polygon is non-convex or wound clockwise.
    NotConvexCcw(usize),
    /// A vertex's right ascension or declination is not finite.
    NonFiniteVertex(usize),
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices(n) => {
                write!(f, "polygon needs at least 3 vertices, got {n}")
            }
            PolygonError::DegenerateEdge(i) => write!(f, "degenerate edge at vertex {i}"),
            PolygonError::NotConvexCcw(i) => write!(
                f,
                "vertices are not convex/counter-clockwise (violation at edge {i})"
            ),
            PolygonError::NonFiniteVertex(i) => write!(f, "vertex {i} is not finite"),
        }
    }
}

impl std::error::Error for PolygonError {}

impl From<PolygonError> for HtmError {
    fn from(_: PolygonError) -> HtmError {
        HtmError::InvalidId(0)
    }
}

impl ConvexPolygon {
    /// Builds a polygon from CCW unit-vector vertices.
    pub fn new(vertices: Vec<Vec3>) -> Result<ConvexPolygon, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices(vertices.len()));
        }
        let n = vertices.len();
        let mut normals = Vec::with_capacity(n);
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let normal = a
                .cross(b)
                .normalized()
                .ok_or(PolygonError::DegenerateEdge(i))?;
            normals.push(normal);
        }
        // Convex + CCW ⇔ every vertex is inside (or on) every edge's
        // half-space.
        for (i, normal) in normals.iter().enumerate() {
            for (j, v) in vertices.iter().enumerate() {
                if v.dot(*normal) < -1e-12 {
                    let _ = j;
                    return Err(PolygonError::NotConvexCcw(i));
                }
            }
        }
        Ok(ConvexPolygon { vertices, normals })
    }

    /// Builds a polygon from `(ra, dec)` degree pairs, CCW on the sky.
    /// Refuses a vertex with a non-finite coordinate.
    pub fn from_radec_deg(points: &[(f64, f64)]) -> Result<ConvexPolygon, PolygonError> {
        if let Some(i) = points
            .iter()
            .position(|p| !p.0.is_finite() || !p.1.is_finite())
        {
            return Err(PolygonError::NonFiniteVertex(i));
        }
        ConvexPolygon::new(
            points
                .iter()
                .map(|&(ra, dec)| SkyPoint::from_radec_deg(ra, dec).to_vec3())
                .collect(),
        )
    }

    /// The polygon's vertices, CCW.
    pub fn vertices(&self) -> &[Vec3] {
        &self.vertices
    }

    /// Outward unit normals of the edge great circles; `p` is inside iff
    /// `p·n ≥ 0` for every normal.
    pub fn edge_normals(&self) -> &[Vec3] {
        &self.normals
    }

    /// Whether unit vector `p` is inside (boundary inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        self.normals.iter().all(|n| p.dot(*n) >= -1e-15)
    }

    /// The (renormalized) centroid of the vertices — inside the polygon
    /// by convexity.
    pub fn centroid(&self) -> Vec3 {
        self.vertices
            .iter()
            .fold(Vec3::ZERO, |acc, v| acc.add(*v))
            .unit()
    }

    /// Whether the great-circle arc `a→b` (short arc) crosses any polygon
    /// edge.
    pub fn edge_crosses(&self, a: Vec3, b: Vec3) -> bool {
        let n = self.vertices.len();
        for i in 0..n {
            let c = self.vertices[i];
            let d = self.vertices[(i + 1) % n];
            if arcs_intersect(a, b, c, d) {
                return true;
            }
        }
        false
    }
}

/// Whether the short great-circle arcs AB and CD intersect.
pub fn arcs_intersect(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> bool {
    let n1 = match a.cross(b).normalized() {
        Some(v) => v,
        None => return false,
    };
    let n2 = match c.cross(d).normalized() {
        Some(v) => v,
        None => return false,
    };
    let t = match n1.cross(n2).normalized() {
        Some(v) => v,
        // Same great circle: treat as intersecting if any endpoint of one
        // arc lies on the other arc.
        None => {
            return on_arc(a, b, n1, c)
                || on_arc(a, b, n1, d)
                || on_arc(c, d, n2, a)
                || on_arc(c, d, n2, b)
        }
    };
    // The two candidate intersection points are t and -t.
    for candidate in [t, t.scale(-1.0)] {
        if on_arc(a, b, n1, candidate) && on_arc(c, d, n2, candidate) {
            return true;
        }
    }
    false
}

/// Whether point `p` (on the great circle with normal `n = a×b`) lies on
/// the short arc between `a` and `b`.
fn on_arc(a: Vec3, b: Vec3, n: Vec3, p: Vec3) -> bool {
    a.cross(p).dot(n) >= -1e-12 && p.cross(b).dot(n) >= -1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> ConvexPolygon {
        // A 2°×2° square around (185, 0), CCW on the sky.
        ConvexPolygon::from_radec_deg(&[(184.0, -1.0), (186.0, -1.0), (186.0, 1.0), (184.0, 1.0)])
            .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            ConvexPolygon::from_radec_deg(&[(0.0, 0.0), (1.0, 0.0)]),
            Err(PolygonError::TooFewVertices(2))
        ));
        // Clockwise winding rejected.
        assert!(matches!(
            ConvexPolygon::from_radec_deg(&[
                (184.0, 1.0),
                (186.0, 1.0),
                (186.0, -1.0),
                (184.0, -1.0)
            ]),
            Err(PolygonError::NotConvexCcw(_))
        ));
        // Repeated vertex → degenerate edge.
        assert!(matches!(
            ConvexPolygon::from_radec_deg(&[(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]),
            Err(PolygonError::DegenerateEdge(0))
        ));
        // Non-convex (a dart shape).
        assert!(ConvexPolygon::from_radec_deg(&[
            (0.0, 0.0),
            (2.0, 0.0),
            (1.0, 0.2), // pokes inward
            (1.0, 2.0),
        ])
        .is_err());
    }

    #[test]
    fn containment() {
        let p = square();
        assert!(p.contains(SkyPoint::from_radec_deg(185.0, 0.0).to_vec3()));
        assert!(p.contains(SkyPoint::from_radec_deg(184.1, 0.9).to_vec3()));
        assert!(!p.contains(SkyPoint::from_radec_deg(183.0, 0.0).to_vec3()));
        assert!(!p.contains(SkyPoint::from_radec_deg(185.0, 2.0).to_vec3()));
        // Vertices are on the boundary (inclusive).
        for v in p.vertices() {
            assert!(p.contains(*v));
        }
    }

    #[test]
    fn centroid_and_bounding_cap() {
        let p = square();
        let c = p.centroid();
        assert!(p.contains(c));
        let center = SkyPoint::from_vec3(c);
        assert!((center.ra_deg - 185.0).abs() < 0.01);
        assert!(center.dec_deg.abs() < 0.01);
        for &(ra, dec) in &[(184.5, 0.5), (185.9, -0.9), (185.0, 0.0)] {
            let q = SkyPoint::from_radec_deg(ra, dec).to_vec3();
            assert!(p.contains(q));
        }
    }

    #[test]
    fn arc_intersection_cases() {
        let a = SkyPoint::from_radec_deg(0.0, -1.0).to_vec3();
        let b = SkyPoint::from_radec_deg(0.0, 1.0).to_vec3();
        let c = SkyPoint::from_radec_deg(-1.0, 0.0).to_vec3();
        let d = SkyPoint::from_radec_deg(1.0, 0.0).to_vec3();
        assert!(arcs_intersect(a, b, c, d), "crossing arcs");
        // Parallel (non-crossing) arcs.
        let e = SkyPoint::from_radec_deg(2.0, -1.0).to_vec3();
        let f = SkyPoint::from_radec_deg(2.0, 1.0).to_vec3();
        assert!(!arcs_intersect(a, b, e, f));
        // Arcs whose great circles cross outside both segments.
        let g = SkyPoint::from_radec_deg(-5.0, 3.0).to_vec3();
        let h = SkyPoint::from_radec_deg(-3.0, 3.0).to_vec3();
        assert!(!arcs_intersect(a, b, g, h));
        // Shared endpoint counts as intersecting.
        assert!(arcs_intersect(a, b, b, d));
    }

    #[test]
    fn edge_crossing_detection() {
        let p = square();
        // An arc slicing through the left edge.
        let a = SkyPoint::from_radec_deg(183.5, 0.0).to_vec3();
        let b = SkyPoint::from_radec_deg(184.5, 0.0).to_vec3();
        assert!(p.edge_crosses(a, b));
        // An arc fully outside.
        let c = SkyPoint::from_radec_deg(180.0, 0.0).to_vec3();
        let d = SkyPoint::from_radec_deg(181.0, 0.0).to_vec3();
        assert!(!p.edge_crosses(c, d));
        // An arc fully inside.
        let e = SkyPoint::from_radec_deg(184.7, 0.0).to_vec3();
        let f = SkyPoint::from_radec_deg(185.3, 0.0).to_vec3();
        assert!(!p.edge_crosses(e, f));
    }

    #[test]
    fn triangle_near_pole() {
        let p =
            ConvexPolygon::from_radec_deg(&[(0.0, 85.0), (120.0, 85.0), (240.0, 85.0)]).unwrap();
        assert!(p.contains(SkyPoint::from_radec_deg(60.0, 89.0).to_vec3()));
        assert!(p.contains(SkyPoint::from_radec_deg(0.0, 90.0).to_vec3()));
        assert!(!p.contains(SkyPoint::from_radec_deg(0.0, 80.0).to_vec3()));
    }
}
