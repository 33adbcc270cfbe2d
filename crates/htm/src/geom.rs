//! Spherical geometry primitives: 3-vectors on the unit sphere, sky
//! coordinates (right ascension / declination), and spherical caps.
//!
//! All angles are radians unless a function name says otherwise. Sky
//! positions follow the astronomical convention: right ascension `ra` in
//! `[0, 360)` degrees measured eastward along the celestial equator,
//! declination `dec` in `[-90, +90]` degrees measured from the equator.

/// A 3-dimensional vector. Positions on the sky are unit vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// A vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns this vector scaled to unit length. Returns `None` for the
    /// zero vector (or anything too close to it to normalize stably).
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self.scale(1.0 / n))
        }
    }

    /// Like [`Vec3::normalized`] but panics on the zero vector; for use on
    /// vectors known to be non-zero (e.g. midpoints of non-antipodal unit
    /// vectors).
    pub fn unit(self) -> Vec3 {
        self.normalized().expect("cannot normalize zero vector")
    }

    /// Scalar multiplication.
    pub fn scale(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }

    /// Vector addition.
    #[allow(clippy::should_implement_trait)] // also provided via std::ops::Add
    pub fn add(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x + other.x, self.y + other.y, self.z + other.z)
    }

    /// Vector subtraction.
    #[allow(clippy::should_implement_trait)] // also provided via std::ops::Sub
    pub fn sub(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x - other.x, self.y - other.y, self.z - other.z)
    }

    /// Angular separation from `other` in radians, numerically stable for
    /// both tiny and near-antipodal separations (uses atan2 of cross/dot).
    pub fn angle_to(self, other: Vec3) -> f64 {
        let cross = self.cross(other).norm();
        let dot = self.dot(other);
        cross.atan2(dot)
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::add(self, rhs)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::sub(self, rhs)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        self.scale(rhs)
    }
}

/// A position on the celestial sphere in equatorial coordinates (degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkyPoint {
    /// Right ascension in degrees, normalized to `[0, 360)`.
    pub ra_deg: f64,
    /// Declination in degrees in `[-90, +90]`.
    pub dec_deg: f64,
}

impl SkyPoint {
    /// Builds a sky point, normalizing RA into `[0, 360)` and clamping
    /// declination to `[-90, 90]`.
    pub fn from_radec_deg(ra_deg: f64, dec_deg: f64) -> Self {
        let mut ra = ra_deg % 360.0;
        if ra < 0.0 {
            ra += 360.0;
        }
        SkyPoint {
            ra_deg: ra,
            dec_deg: dec_deg.clamp(-90.0, 90.0),
        }
    }

    /// Converts to a unit vector: `x = cos(dec)·cos(ra)`,
    /// `y = cos(dec)·sin(ra)`, `z = sin(dec)`.
    pub fn to_vec3(self) -> Vec3 {
        let ra = self.ra_deg.to_radians();
        let dec = self.dec_deg.to_radians();
        let cd = dec.cos();
        Vec3::new(cd * ra.cos(), cd * ra.sin(), dec.sin())
    }

    /// Converts a unit vector back to sky coordinates.
    pub fn from_vec3(v: Vec3) -> Self {
        let dec = v.z.clamp(-1.0, 1.0).asin().to_degrees();
        let ra = v.y.atan2(v.x).to_degrees();
        SkyPoint::from_radec_deg(ra, dec)
    }

    /// Angular separation from `other` in radians.
    pub fn separation(self, other: SkyPoint) -> f64 {
        self.to_vec3().angle_to(other.to_vec3())
    }

    /// Angular separation from `other` in arcseconds.
    pub fn separation_arcsec(self, other: SkyPoint) -> f64 {
        self.separation(other).to_degrees() * 3600.0
    }
}

/// Angular distance between two unit vectors, in radians.
pub fn angular_distance(a: Vec3, b: Vec3) -> f64 {
    a.angle_to(b)
}

/// A spherical cap: the set of unit vectors `p` with `p·center ≥ cos(radius)`.
///
/// This is the region denoted by the paper's `AREA(ra, dec, radius)` clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cap {
    center: Vec3,
    /// Cosine of the angular radius; larger means smaller cap.
    cos_radius: f64,
    radius: f64,
}

impl Cap {
    /// A cap centered on unit vector `center` with angular radius
    /// `radius_rad` (clamped to `[0, π]`).
    pub fn new(center: Vec3, radius_rad: f64) -> Self {
        let radius = radius_rad.clamp(0.0, std::f64::consts::PI);
        Cap {
            center,
            cos_radius: radius.cos(),
            radius,
        }
    }

    /// A cap from sky coordinates and a radius in arcminutes (the unit the
    /// deployed SkyQuery used for its `AREA` clause).
    pub fn from_area_clause(ra_deg: f64, dec_deg: f64, radius_arcmin: f64) -> Self {
        let center = SkyPoint::from_radec_deg(ra_deg, dec_deg).to_vec3();
        Cap::new(center, (radius_arcmin / 60.0).to_radians())
    }

    /// The cap's center (a unit vector).
    pub fn center(&self) -> Vec3 {
        self.center
    }

    /// Angular radius in radians.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Cosine of the angular radius (the containment threshold).
    pub fn cos_radius(&self) -> f64 {
        self.cos_radius
    }

    /// Whether unit vector `p` lies inside the cap (boundary inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        self.center.dot(p) >= self.cos_radius - 1e-15
    }

    /// Whether the great-circle arc from `a` to `b` (the short arc) comes
    /// within the cap, assuming neither endpoint is inside. Used by the
    /// cover algorithm to detect caps that clip a trixel edge.
    pub fn intersects_arc(&self, a: Vec3, b: Vec3) -> bool {
        // Normal of the great circle through a and b.
        let n = match a.cross(b).normalized() {
            Some(n) => n,
            // a and b parallel/antipodal: degenerate arc; endpoint tests
            // already covered it.
            None => return false,
        };
        // The point on the great circle closest to the cap center is the
        // projection of the center onto the circle's plane, renormalized.
        let proj = self.center.sub(n.scale(self.center.dot(n)));
        let pm = match proj.normalized() {
            Some(p) => p,
            // Cap center is a pole of the great circle: every point of the
            // circle is equidistant; endpoint distance equals arc distance,
            // and endpoints were outside, so no intersection.
            None => return false,
        };
        if !self.contains(pm) {
            return false;
        }
        // pm is inside the cap; it only matters if it lies on the short arc
        // between a and b.
        on_short_arc(a, b, n, pm)
    }
}

/// Whether unit vector `p`, known to lie on the great circle with normal
/// `n = normalize(a × b)`, lies on the short arc between `a` and `b`.
fn on_short_arc(a: Vec3, b: Vec3, n: Vec3, p: Vec3) -> bool {
    a.cross(p).dot(n) >= -1e-15 && p.cross(b).dot(n) >= -1e-15
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const EPS: f64 = 1e-12;

    #[test]
    fn vec3_dot_cross_basics() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert!((x.dot(y)).abs() < EPS);
        assert!((x.cross(y).sub(z)).norm() < EPS);
        assert!((y.cross(z).sub(x)).norm() < EPS);
        assert!((z.cross(x).sub(y)).norm() < EPS);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec3::ZERO.normalized().is_none());
        assert!(Vec3::new(3.0, 4.0, 0.0).normalized().is_some());
        let u = Vec3::new(3.0, 4.0, 0.0).unit();
        assert!((u.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn angle_to_is_stable_for_tiny_angles() {
        let a = SkyPoint::from_radec_deg(10.0, 20.0).to_vec3();
        // 0.1 arcsecond away.
        let b = SkyPoint::from_radec_deg(10.0, 20.0 + 0.1 / 3600.0).to_vec3();
        let theta = a.angle_to(b).to_degrees() * 3600.0;
        assert!((theta - 0.1).abs() < 1e-6, "theta = {theta}");
    }

    #[test]
    fn angle_to_antipodal() {
        let a = Vec3::new(0.0, 0.0, 1.0);
        let b = Vec3::new(0.0, 0.0, -1.0);
        assert!((a.angle_to(b) - PI).abs() < 1e-9);
    }

    #[test]
    fn skypoint_roundtrip() {
        for &(ra, dec) in &[
            (0.0, 0.0),
            (185.0, -0.5),
            (359.9, 89.0),
            (12.25, -45.5),
            (270.0, 0.0),
        ] {
            let p = SkyPoint::from_radec_deg(ra, dec);
            let q = SkyPoint::from_vec3(p.to_vec3());
            assert!(
                (p.ra_deg - q.ra_deg).abs() < 1e-9 && (p.dec_deg - q.dec_deg).abs() < 1e-9,
                "{p:?} vs {q:?}"
            );
        }
    }

    #[test]
    fn skypoint_normalizes_ra() {
        let p = SkyPoint::from_radec_deg(-10.0, 0.0);
        assert!((p.ra_deg - 350.0).abs() < EPS);
        let p = SkyPoint::from_radec_deg(725.0, 0.0);
        assert!((p.ra_deg - 5.0).abs() < EPS);
    }

    #[test]
    fn cap_contains_center_and_boundary() {
        let c = SkyPoint::from_radec_deg(100.0, 30.0).to_vec3();
        let cap = Cap::new(c, 1.0_f64.to_radians());
        assert!(cap.contains(c));
        // A point 0.999 degrees away is inside, 1.001 outside.
        let inside = SkyPoint::from_radec_deg(100.0, 30.999).to_vec3();
        let outside = SkyPoint::from_radec_deg(100.0, 31.001).to_vec3();
        assert!(cap.contains(inside));
        assert!(!cap.contains(outside));
    }

    #[test]
    fn cap_from_area_clause_units_are_arcmin() {
        let cap = Cap::from_area_clause(185.0, -0.5, 60.0); // 1 degree
        assert!((cap.radius().to_degrees() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arc_intersection_detects_clipping_cap() {
        // Arc along the equator from ra=0 to ra=10; cap centered at
        // (5, 0.5) with radius 1 degree dips onto the arc.
        let a = SkyPoint::from_radec_deg(0.0, 0.0).to_vec3();
        let b = SkyPoint::from_radec_deg(10.0, 0.0).to_vec3();
        let cap = Cap::from_area_clause(5.0, 0.5, 60.0);
        assert!(!cap.contains(a) && !cap.contains(b));
        assert!(cap.intersects_arc(a, b));

        // Same cap but further north: no intersection.
        let far = Cap::from_area_clause(5.0, 2.0, 60.0);
        assert!(!far.intersects_arc(a, b));

        // Cap near the arc's extension but beyond the endpoint: the closest
        // point of the great circle is outside the short arc.
        let beyond = Cap::from_area_clause(350.0, 0.0, 60.0);
        assert!(!beyond.intersects_arc(a, b));
    }

    #[test]
    fn separation_arcsec() {
        let p = SkyPoint::from_radec_deg(180.0, 0.0);
        let q = SkyPoint::from_radec_deg(180.0, 1.0 / 3600.0);
        assert!((p.separation_arcsec(q) - 1.0).abs() < 1e-6);
    }
}
