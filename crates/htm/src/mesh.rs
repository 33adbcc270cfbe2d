//! Point location on a fixed-depth mesh.

use crate::geom::{SkyPoint, Vec3};
use crate::trixel::{HtmId, Trixel, MAX_DEPTH};
use crate::HtmError;

/// A fixed-depth HTM mesh. The mesh itself stores no trixel data — trixels
/// are recomputed on demand — so it is cheap to construct and `Copy`-light.
#[derive(Debug, Clone, Copy)]
pub struct Mesh {
    depth: u8,
}

impl Mesh {
    /// Creates a mesh of the given subdivision depth.
    ///
    /// # Panics
    /// Panics if `depth > MAX_DEPTH`; use [`Mesh::try_new`] to handle that
    /// case gracefully.
    pub fn new(depth: u8) -> Mesh {
        Mesh::try_new(depth).expect("depth exceeds MAX_DEPTH")
    }

    /// Fallible constructor.
    pub fn try_new(depth: u8) -> Result<Mesh, HtmError> {
        if depth > MAX_DEPTH {
            Err(HtmError::DepthTooLarge(depth))
        } else {
            Ok(Mesh { depth })
        }
    }

    /// The mesh's subdivision depth.
    pub fn depth(self) -> u8 {
        self.depth
    }

    /// Number of trixels at this depth: `8 · 4^depth`.
    pub fn trixel_count(self) -> u64 {
        8u64 << (2 * self.depth as u32)
    }

    /// Smallest valid ID at this depth.
    pub fn min_id(self) -> u64 {
        8u64 << (2 * self.depth as u32)
    }

    /// One past the largest valid ID at this depth.
    pub fn max_id_exclusive(self) -> u64 {
        16u64 << (2 * self.depth as u32)
    }

    /// Locates the depth-`depth` trixel containing sky point `p`.
    pub fn locate(self, p: SkyPoint) -> HtmId {
        self.locate_vec(p.to_vec3())
    }

    /// Locates the trixel containing unit vector `v`.
    ///
    /// Boundary points (which lie in several trixels) resolve to the first
    /// matching trixel in canonical order, deterministically.
    pub fn locate_vec(self, v: Vec3) -> HtmId {
        let mut t = Trixel::roots()
            .into_iter()
            .find(|t| t.contains(v))
            // contains() uses a small negative tolerance, so every unit
            // vector matches at least one root.
            .expect("unit vector not in any root trixel");
        for _ in 0..self.depth {
            let kids = t.children();
            t = kids
                .into_iter()
                .find(|k| k.contains(v))
                // The children tile the parent with the same tolerance.
                .expect("point in parent but no child");
        }
        t.id
    }

    /// The trixel geometry for an ID (not necessarily at this mesh's depth).
    pub fn trixel(self, id: HtmId) -> Trixel {
        Trixel::from_id(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_agrees_with_containment() {
        let mesh = Mesh::new(8);
        for &(ra, dec) in &[
            (0.1, 0.1),
            (185.0, -0.5),
            (359.0, 88.0),
            (90.0, -88.0),
            (45.0, 45.0),
            (222.2, -33.3),
        ] {
            let p = SkyPoint::from_radec_deg(ra, dec);
            let id = mesh.locate(p);
            assert_eq!(id.depth(), 8);
            assert!(mesh.trixel(id).contains(p.to_vec3()), "({ra},{dec})");
        }
    }

    #[test]
    fn locate_id_in_valid_range() {
        let mesh = Mesh::new(6);
        let p = SkyPoint::from_radec_deg(10.0, 10.0);
        let id = mesh.locate(p).raw();
        assert!(id >= mesh.min_id() && id < mesh.max_id_exclusive());
    }

    #[test]
    fn trixel_count() {
        assert_eq!(Mesh::new(0).trixel_count(), 8);
        assert_eq!(Mesh::new(1).trixel_count(), 32);
        assert_eq!(Mesh::new(5).trixel_count(), 8 * 1024);
    }

    #[test]
    fn nearby_points_share_trixel_at_coarse_depth() {
        let mesh = Mesh::new(4);
        let a = SkyPoint::from_radec_deg(120.0, 30.0);
        let b = SkyPoint::from_radec_deg(120.0 + 1e-7, 30.0 + 1e-7);
        assert_eq!(mesh.locate(a), mesh.locate(b));
    }

    #[test]
    fn poles_locate() {
        let mesh = Mesh::new(10);
        let north = SkyPoint::from_radec_deg(0.0, 90.0);
        let south = SkyPoint::from_radec_deg(0.0, -90.0);
        let n = mesh.locate(north);
        let s = mesh.locate(south);
        assert!(mesh.trixel(n).contains(north.to_vec3()));
        assert!(mesh.trixel(s).contains(south.to_vec3()));
        assert_ne!(n, s);
    }
}
