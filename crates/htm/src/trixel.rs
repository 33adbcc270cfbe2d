//! Trixels: the spherical triangles of the HTM subdivision, and their
//! bit-packed integer IDs.
//!
//! The sphere is first split into eight root trixels — four southern
//! (`S0..S3`, IDs 8–11) and four northern (`N0..N3`, IDs 12–15) — using the
//! six axis-aligned unit vectors as corners. Each trixel splits into four
//! children by connecting the (renormalized) midpoints of its edges; child
//! `k` of trixel `t` has ID `4·t + k`. An ID therefore encodes both depth
//! and position: depth-`d` IDs occupy `[8·4^d, 16·4^d)`.

use crate::geom::Vec3;
use crate::HtmError;

/// Maximum supported subdivision depth. Depth 31 would overflow the 64-bit
/// ID space (`16·4^d ≤ 2^64` requires `d ≤ 29`); we stop a little earlier at
/// the precision limit of f64 trixel corners.
pub const MAX_DEPTH: u8 = 24;

/// A bit-packed HTM trixel identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HtmId(u64);

impl HtmId {
    /// Wraps a raw id, validating that it encodes a trixel: some depth `d`
    /// must satisfy `8·4^d ≤ id < 16·4^d`.
    pub fn new(raw: u64) -> Result<HtmId, HtmError> {
        let id = HtmId(raw);
        if raw < 8 {
            return Err(HtmError::InvalidId(raw));
        }
        let d = id.depth();
        if d > MAX_DEPTH || raw >> (2 * d as u32) < 8 || raw >> (2 * d as u32) >= 16 {
            return Err(HtmError::InvalidId(raw));
        }
        Ok(id)
    }

    /// The ID of root trixel `index` (0–7 = S0..S3, N0..N3).
    pub fn root(index: u8) -> HtmId {
        assert!(index < 8, "root index must be 0..8");
        HtmId(8 + index as u64)
    }

    /// The packed integer value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Subdivision depth of this trixel (roots are depth 0).
    pub fn depth(self) -> u8 {
        // A depth-d id has its top set bit at position 3 + 2d (since
        // 8·4^d = 2^(3+2d) and id < 2^(4+2d)).
        let top = 63 - self.0.leading_zeros();
        ((top - 3) / 2) as u8
    }

    /// The `k`-th child (0–3).
    pub fn child(self, k: u8) -> HtmId {
        debug_assert!(k < 4);
        HtmId(self.0 * 4 + k as u64)
    }

    /// The parent trixel, or `None` for roots.
    pub fn parent(self) -> Option<HtmId> {
        if self.0 < 32 {
            None
        } else {
            Some(HtmId(self.0 / 4))
        }
    }

    /// Which child of its parent this trixel is (0–3); roots return their
    /// root index.
    pub fn child_index(self) -> u8 {
        if self.0 < 16 {
            (self.0 - 8) as u8
        } else {
            (self.0 % 4) as u8
        }
    }

    /// The range of depth-`target` descendant IDs `[lo, hi]` (inclusive) of
    /// this trixel. `target` must be ≥ this trixel's depth.
    pub fn descendants_at(self, target: u8) -> (u64, u64) {
        let d = self.depth();
        assert!(target >= d, "target depth {target} below trixel depth {d}");
        let shift = 2 * (target - d) as u32;
        let lo = self.0 << shift;
        let hi = lo + ((1u64 << shift) - 1);
        (lo, hi)
    }

    /// The human-readable HTM name, e.g. `"N32"` or `"S0123"`: root letter
    /// plus the child indices along the path.
    pub fn name(self) -> String {
        let d = self.depth() as usize;
        let mut digits = Vec::with_capacity(d + 1);
        let mut v = self.0;
        for _ in 0..d {
            digits.push((v % 4) as u8);
            v /= 4;
        }
        // v is now the root id 8..16.
        let (letter, root_digit) = if v < 12 { ('S', v - 8) } else { ('N', v - 12) };
        let mut s = String::with_capacity(d + 2);
        s.push(letter);
        s.push(char::from_digit(root_digit as u32, 10).unwrap());
        for &dg in digits.iter().rev() {
            s.push(char::from_digit(dg as u32, 10).unwrap());
        }
        s
    }

    /// Parses an HTM name produced by [`HtmId::name`].
    pub fn parse_name(name: &str) -> Result<HtmId, HtmError> {
        let bytes = name.as_bytes();
        if bytes.len() < 2 {
            return Err(HtmError::InvalidId(0));
        }
        let base = match bytes[0] {
            b'S' | b's' => 8u64,
            b'N' | b'n' => 12u64,
            _ => return Err(HtmError::InvalidId(0)),
        };
        let mut v = match bytes[1] {
            c @ b'0'..=b'3' => base + (c - b'0') as u64,
            _ => return Err(HtmError::InvalidId(0)),
        };
        for &c in &bytes[2..] {
            match c {
                b'0'..=b'3' => v = v * 4 + (c - b'0') as u64,
                _ => return Err(HtmError::InvalidId(v)),
            }
        }
        HtmId::new(v)
    }
}

impl std::fmt::Display for HtmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A trixel: a spherical triangle with its corner unit vectors and ID.
///
/// Corners are ordered counter-clockwise when seen from outside the sphere,
/// which makes the containment half-space tests uniform.
#[derive(Debug, Clone, Copy)]
pub struct Trixel {
    /// The trixel's HTM ID.
    pub id: HtmId,
    /// First corner (unit vector).
    pub v0: Vec3,
    /// Second corner.
    pub v1: Vec3,
    /// Third corner.
    pub v2: Vec3,
}

/// The six corner vectors of the root octahedron.
const V: [Vec3; 6] = [
    Vec3::new(0.0, 0.0, 1.0),  // v0: north pole
    Vec3::new(1.0, 0.0, 0.0),  // v1
    Vec3::new(0.0, 1.0, 0.0),  // v2
    Vec3::new(-1.0, 0.0, 0.0), // v3
    Vec3::new(0.0, -1.0, 0.0), // v4
    Vec3::new(0.0, 0.0, -1.0), // v5: south pole
];

/// Corner index triples for the 8 root trixels S0..S3, N0..N3, in the
/// canonical HTM ordering (Kunszt, Szalay & Thakar).
const ROOT_CORNERS: [(usize, usize, usize); 8] = [
    (1, 5, 2), // S0
    (2, 5, 3), // S1
    (3, 5, 4), // S2
    (4, 5, 1), // S3
    (1, 0, 4), // N0
    (4, 0, 3), // N1
    (3, 0, 2), // N2
    (2, 0, 1), // N3
];

impl Trixel {
    /// The root trixel with index 0–7.
    pub fn root(index: u8) -> Trixel {
        let (a, b, c) = ROOT_CORNERS[index as usize];
        Trixel {
            id: HtmId::root(index),
            v0: V[a],
            v1: V[b],
            v2: V[c],
        }
    }

    /// All eight root trixels.
    pub fn roots() -> [Trixel; 8] {
        std::array::from_fn(|i| Trixel::root(i as u8))
    }

    /// Reconstructs the trixel for an arbitrary valid ID by walking down
    /// from its root.
    pub fn from_id(id: HtmId) -> Trixel {
        let depth = id.depth();
        let mut path = Vec::with_capacity(depth as usize);
        let mut v = id.raw();
        for _ in 0..depth {
            path.push((v % 4) as u8);
            v /= 4;
        }
        let mut t = Trixel::root((v - 8) as u8);
        for &k in path.iter().rev() {
            t = t.child(k);
        }
        t
    }

    /// The `k`-th child trixel. Children follow the canonical scheme: with
    /// edge midpoints `w0 = mid(v1,v2)`, `w1 = mid(v0,v2)`, `w2 = mid(v0,v1)`:
    ///
    /// * child 0 = `(v0, w2, w1)`
    /// * child 1 = `(v1, w0, w2)`
    /// * child 2 = `(v2, w1, w0)`
    /// * child 3 = `(w0, w1, w2)` (the center triangle)
    pub fn child(&self, k: u8) -> Trixel {
        let w0 = self.v1.add(self.v2).unit();
        let w1 = self.v0.add(self.v2).unit();
        let w2 = self.v0.add(self.v1).unit();
        let (v0, v1, v2) = match k {
            0 => (self.v0, w2, w1),
            1 => (self.v1, w0, w2),
            2 => (self.v2, w1, w0),
            3 => (w0, w1, w2),
            _ => panic!("child index must be 0..4"),
        };
        Trixel {
            id: self.id.child(k),
            v0,
            v1,
            v2,
        }
    }

    /// All four children.
    pub fn children(&self) -> [Trixel; 4] {
        // Compute midpoints once rather than per-child.
        let w0 = self.v1.add(self.v2).unit();
        let w1 = self.v0.add(self.v2).unit();
        let w2 = self.v0.add(self.v1).unit();
        [
            Trixel {
                id: self.id.child(0),
                v0: self.v0,
                v1: w2,
                v2: w1,
            },
            Trixel {
                id: self.id.child(1),
                v0: self.v1,
                v1: w0,
                v2: w2,
            },
            Trixel {
                id: self.id.child(2),
                v0: self.v2,
                v1: w1,
                v2: w0,
            },
            Trixel {
                id: self.id.child(3),
                v0: w0,
                v1: w1,
                v2: w2,
            },
        ]
    }

    /// Whether unit vector `p` lies inside (or on the boundary of) this
    /// trixel: all three edge half-space tests `(vi × vj)·p ≥ 0`.
    pub fn contains(&self, p: Vec3) -> bool {
        const TOL: f64 = -1e-12;
        self.v0.cross(self.v1).dot(p) >= TOL
            && self.v1.cross(self.v2).dot(p) >= TOL
            && self.v2.cross(self.v0).dot(p) >= TOL
    }

    /// The (renormalized) centroid of the corner vectors.
    pub fn center(&self) -> Vec3 {
        self.v0.add(self.v1).add(self.v2).unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::SkyPoint;

    #[test]
    fn root_ids_and_depths() {
        for i in 0..8u8 {
            let t = Trixel::root(i);
            assert_eq!(t.id.raw(), 8 + i as u64);
            assert_eq!(t.id.depth(), 0);
            assert_eq!(t.id.parent(), None);
        }
    }

    #[test]
    fn id_depth_progression() {
        let id = HtmId::root(3); // S3 = 11
        assert_eq!(id.depth(), 0);
        let c = id.child(2);
        assert_eq!(c.raw(), 11 * 4 + 2);
        assert_eq!(c.depth(), 1);
        assert_eq!(c.parent(), Some(id));
        assert_eq!(c.child_index(), 2);
        let g = c.child(0);
        assert_eq!(g.depth(), 2);
        assert_eq!(g.parent(), Some(c));
    }

    #[test]
    fn id_validation() {
        assert!(HtmId::new(0).is_err());
        assert!(HtmId::new(7).is_err());
        for raw in 8..16 {
            assert!(HtmId::new(raw).is_ok());
        }
        for raw in 32..64 {
            assert!(HtmId::new(raw).is_ok(), "{raw}");
        }
        // Depth-1 ids run 32..64; 16..32 are not valid trixels.
        for raw in 16..32 {
            assert!(HtmId::new(raw).is_err(), "{raw}");
        }
    }

    #[test]
    fn descendants_range() {
        let id = HtmId::root(0); // 8
        let (lo, hi) = id.descendants_at(1);
        assert_eq!((lo, hi), (32, 35));
        let (lo, hi) = id.descendants_at(2);
        assert_eq!((lo, hi), (128, 143));
    }

    #[test]
    fn name_roundtrip() {
        for raw in [8u64, 11, 15, 33, 47, 130, 10_000_000] {
            if let Ok(id) = HtmId::new(raw) {
                let name = id.name();
                let back = HtmId::parse_name(&name).unwrap();
                assert_eq!(back, id, "name {name}");
            }
        }
        assert_eq!(HtmId::root(0).name(), "S0");
        assert_eq!(HtmId::root(4).name(), "N0");
        assert_eq!(HtmId::root(7).name(), "N3");
        assert_eq!(HtmId::root(7).child(2).name(), "N32");
    }

    #[test]
    fn parse_name_rejects_garbage() {
        assert!(HtmId::parse_name("").is_err());
        assert!(HtmId::parse_name("X0").is_err());
        assert!(HtmId::parse_name("N4").is_err());
        assert!(HtmId::parse_name("N05x").is_err());
    }

    #[test]
    fn roots_cover_sphere() {
        // A grid of points must each fall in exactly one root (modulo
        // boundary ties, where they may fall in more than one).
        let roots = Trixel::roots();
        for dec10 in -89..=89 {
            for ra10 in 0..36 {
                let p =
                    SkyPoint::from_radec_deg(ra10 as f64 * 10.0 + 0.123, dec10 as f64).to_vec3();
                let n = roots.iter().filter(|t| t.contains(p)).count();
                assert!(n >= 1, "point not covered at dec {dec10} ra {ra10}");
            }
        }
    }

    #[test]
    fn children_partition_parent() {
        let t = Trixel::root(5);
        let kids = t.children();
        // Sample points inside the parent must be inside >= 1 child.
        let c = t.center();
        for (i, corner) in [t.v0, t.v1, t.v2].iter().enumerate() {
            // Point partway between center and each corner.
            let p = c.add(corner.sub(c).scale(0.7)).unit();
            assert!(t.contains(p), "corner blend {i} escaped parent");
            assert!(
                kids.iter().any(|k| k.contains(p)),
                "corner blend {i} not in any child"
            );
        }
        // Child centers are inside the parent.
        for k in &kids {
            assert!(t.contains(k.center()));
        }
    }

    #[test]
    fn children_have_ccw_orientation() {
        // Orientation invariant: corner triple product positive.
        let mut stack = Trixel::roots().to_vec();
        for _ in 0..3 {
            let mut next = Vec::new();
            for t in &stack {
                let triple = t.v0.cross(t.v1).dot(t.v2);
                assert!(triple > 0.0, "trixel {} not CCW", t.id);
                next.extend_from_slice(&t.children());
            }
            stack = next;
        }
    }

    #[test]
    fn from_id_matches_walk() {
        let t = Trixel::root(6).child(1).child(3).child(2);
        let r = Trixel::from_id(t.id);
        assert_eq!(r.id, t.id);
        assert!((r.v0.sub(t.v0)).norm() < 1e-15);
        assert!((r.v1.sub(t.v1)).norm() < 1e-15);
        assert!((r.v2.sub(t.v2)).norm() < 1e-15);
    }
}
