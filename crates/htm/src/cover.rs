//! Region covers: turning an `AREA` cap or a §6 `POLYGON` into HTM ID
//! ranges, each shape through its one [`ConvexRegion`] impl.
//!
//! Both a cover and the storage index's search run the one trixel descent,
//! [`descend`], from the roots. A trixel entirely inside the region is
//! **full** (all its descendants); a trixel that intersects the boundary
//! splits until the caller stops it, and is then **partial**. This is the
//! two-phase filter of the paper's Section 5.4: rows in full trixels need
//! no distance re-test, rows in partial trixels do. A [`Cover`] splits
//! every boundary trixel to the mesh depth.

use crate::geom::{Cap, SkyPoint, Vec3};
use crate::mesh::Mesh;
use crate::polygon::ConvexPolygon;
use crate::ranges::{normalize, IdRange};
use crate::trixel::Trixel;

/// A geodesically convex sky region that covers can be computed for.
///
/// Convexity is what licenses the cover's key shortcut: a trixel whose
/// three corners are inside the region is entirely inside it.
pub trait ConvexRegion {
    /// Whether unit vector `p` is inside (boundary inclusive).
    fn contains(&self, p: Vec3) -> bool;
    /// A point guaranteed to be inside the region (detects the
    /// region-entirely-within-a-trixel case).
    fn anchor(&self) -> Vec3;
    /// Whether the region's boundary crosses the great-circle arc `a→b`
    /// whose endpoints are both *outside* the region.
    fn boundary_crosses_arc(&self, a: Vec3, b: Vec3) -> bool;
    /// Whether the region really is geodesically convex. Regions that
    /// cannot guarantee it (caps wider than a hemisphere) return false,
    /// downgrading would-be Full trixels to Partial — slower, never wrong.
    fn is_geodesically_convex(&self) -> bool {
        true
    }
    /// A cap holding every point of the region.
    fn bounding_cap(&self) -> Cap;
}

impl ConvexRegion for Cap {
    fn contains(&self, p: Vec3) -> bool {
        Cap::contains(self, p)
    }

    fn anchor(&self) -> Vec3 {
        self.center()
    }

    fn boundary_crosses_arc(&self, a: Vec3, b: Vec3) -> bool {
        self.intersects_arc(a, b)
    }

    fn is_geodesically_convex(&self) -> bool {
        self.radius() <= std::f64::consts::FRAC_PI_2
    }

    fn bounding_cap(&self) -> Cap {
        *self
    }
}

impl ConvexRegion for ConvexPolygon {
    fn contains(&self, p: Vec3) -> bool {
        ConvexPolygon::contains(self, p)
    }

    fn anchor(&self) -> Vec3 {
        self.centroid()
    }

    fn boundary_crosses_arc(&self, a: Vec3, b: Vec3) -> bool {
        self.edge_crosses(a, b)
    }

    /// Centroid to farthest vertex, or the whole sky from 90°, where a cap is not convex.
    fn bounding_cap(&self) -> Cap {
        use std::f64::consts::{FRAC_PI_2, PI};
        let c = self.centroid();
        let far = self.vertices().iter().map(|v| c.angle_to(*v));
        let r = far.fold(0.0, f64::max);
        Cap::new(c, if r < FRAC_PI_2 { r } else { PI })
    }
}

/// Whether a range's trixels are entirely inside the query region or merely
/// intersecting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeKind {
    /// Every point of the trixel(s) is inside the region.
    Full,
    /// The trixel(s) intersect the region boundary; member objects must be
    /// re-tested individually.
    Partial,
}

/// The result of covering a region at a fixed mesh depth.
#[derive(Debug, Clone)]
pub struct Cover {
    depth: u8,
    full: Vec<IdRange>,
    partial: Vec<IdRange>,
}

/// How a trixel relates to a cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Classification {
    Inside,
    Intersecting,
    Disjoint,
}

fn classify<R: ConvexRegion + ?Sized>(t: &Trixel, region: &R) -> Classification {
    let inside = [t.v0, t.v1, t.v2]
        .iter()
        .filter(|&&v| region.contains(v))
        .count();
    match inside {
        // A geodesically convex region with all corners inside implies
        // the whole trixel is inside.
        3 if region.is_geodesically_convex() => Classification::Inside,
        3 => Classification::Intersecting,
        1 | 2 => Classification::Intersecting,
        _ => {
            // No corners inside. The region may still poke into the
            // trixel through an edge, or lie entirely within it.
            if t.contains(region.anchor())
                || region.boundary_crosses_arc(t.v0, t.v1)
                || region.boundary_crosses_arc(t.v1, t.v2)
                || region.boundary_crosses_arc(t.v2, t.v0)
            {
                Classification::Intersecting
            } else {
                Classification::Disjoint
            }
        }
    }
}

/// The one trixel descent, run by [`Cover::region`] and by the storage
/// index's search, from `trixels` (the eight roots: [`Trixel::roots`]) in
/// ascending ID order. `enter` maps a trixel and its parent's node to the
/// trixel's own node and whether it may split, or to `None`, which prunes
/// it before it is classified. An inside trixel goes to `emit` as `Full`;
/// a boundary trixel splits if it may, and otherwise goes to `emit` as
/// `Partial`.
pub fn descend<R: ConvexRegion + ?Sized, N>(
    region: &R,
    trixels: &[Trixel],
    parent: &N,
    enter: &impl Fn(&Trixel, &N) -> Option<(N, bool)>,
    emit: &mut impl FnMut(&Trixel, N, RangeKind),
) {
    for t in trixels {
        let Some((node, split)) = enter(t, parent) else {
            continue;
        };
        match classify(t, region) {
            Classification::Disjoint => {}
            Classification::Inside => emit(t, node, RangeKind::Full),
            Classification::Intersecting if split => {
                descend(region, &t.children(), &node, enter, emit)
            }
            Classification::Intersecting => emit(t, node, RangeKind::Partial),
        }
    }
}

impl Cover {
    /// Covers the circle `AREA(center, radius_rad)` at the mesh's depth.
    pub fn circle(mesh: &Mesh, center: SkyPoint, radius_rad: f64) -> Cover {
        Cover::region(mesh, &Cap::new(center.to_vec3(), radius_rad))
    }

    /// Covers any convex region at the mesh's depth: a spherical cap or a
    /// convex spherical polygon (the §6 polygon-AREA extension). Every
    /// trixel is entered, and a boundary trixel splits down to that depth.
    pub fn region<R: ConvexRegion + ?Sized>(mesh: &Mesh, region: &R) -> Cover {
        let depth = mesh.depth();
        let (mut full, mut partial) = (Vec::new(), Vec::new());
        let enter = |t: &Trixel, _: &()| Some(((), t.id.depth() < depth));
        descend(region, &Trixel::roots(), &(), &enter, &mut |t, (), kind| {
            let (lo, hi) = t.id.descendants_at(depth);
            match kind {
                RangeKind::Full => &mut full,
                RangeKind::Partial => &mut partial,
            }
            .push(IdRange::new(lo, hi));
        });
        normalize(&mut full);
        normalize(&mut partial);
        Cover {
            depth,
            full,
            partial,
        }
    }

    /// Target depth of this cover's ranges.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Ranges of trixels fully inside the region.
    pub fn full_ranges(&self) -> &[IdRange] {
        &self.full
    }

    /// Ranges of trixels intersecting the region boundary.
    pub fn partial_ranges(&self) -> &[IdRange] {
        &self.partial
    }

    /// Total number of trixels covered (full + partial).
    pub fn trixel_count(&self) -> u64 {
        self.full.iter().map(|r| r.len()).sum::<u64>()
            + self.partial.iter().map(|r| r.len()).sum::<u64>()
    }

    /// Whether a depth-matching HTM id falls in the cover, and if so with
    /// which kind.
    pub fn classify_id(&self, id: u64) -> Option<RangeKind> {
        if crate::ranges::ranges_contain(&self.full, id) {
            Some(RangeKind::Full)
        } else if crate::ranges::ranges_contain(&self.partial, id) {
            Some(RangeKind::Partial)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Vec3;

    fn cover_sound_for(center: SkyPoint, radius_deg: f64, depth: u8) {
        let mesh = Mesh::new(depth);
        let cap = Cap::new(center.to_vec3(), radius_deg.to_radians());
        let cover = Cover::region(&mesh, &cap);

        // Soundness: points inside the cap locate to covered trixels.
        let cv = center.to_vec3();
        // Build an orthonormal frame around the center.
        let axis = if cv.z.abs() < 0.9 {
            Vec3::new(0.0, 0.0, 1.0)
        } else {
            Vec3::new(1.0, 0.0, 0.0)
        };
        let u = cv.cross(axis).unit();
        let w = cv.cross(u).unit();
        for frac in [0.0, 0.3, 0.7, 0.99] {
            for k in 0..12 {
                let phi = k as f64 * std::f64::consts::TAU / 12.0;
                let r = radius_deg.to_radians() * frac;
                let p = cv
                    .scale(r.cos())
                    .add(u.scale(r.sin() * phi.cos()))
                    .add(w.scale(r.sin() * phi.sin()))
                    .unit();
                assert!(cap.contains(p));
                let id = mesh.locate_vec(p).raw();
                assert!(
                    cover.classify_id(id).is_some(),
                    "in-cap point missing from cover (frac {frac}, k {k})"
                );
            }
        }

        // Full-range precision: corners of full trixels are inside the cap.
        for r in cover.full_ranges() {
            for id in [r.lo, r.hi] {
                let t = mesh.trixel(crate::trixel::HtmId::new(id).unwrap());
                assert!(cap.contains(t.v0) && cap.contains(t.v1) && cap.contains(t.v2));
            }
        }
    }

    #[test]
    fn small_circle_cover_is_sound() {
        cover_sound_for(SkyPoint::from_radec_deg(185.0, -0.5), 0.075, 10);
    }

    #[test]
    fn medium_circle_cover_is_sound() {
        cover_sound_for(SkyPoint::from_radec_deg(10.0, 45.0), 2.0, 7);
    }

    #[test]
    fn large_circle_cover_is_sound() {
        cover_sound_for(SkyPoint::from_radec_deg(300.0, -60.0), 30.0, 5);
    }

    #[test]
    fn polar_cover_is_sound() {
        cover_sound_for(SkyPoint::from_radec_deg(0.0, 89.5), 1.0, 8);
    }

    #[test]
    fn cover_at_depth_zero() {
        let mesh = Mesh::new(0);
        let cover = Cover::circle(&mesh, SkyPoint::from_radec_deg(45.0, 45.0), 0.01);
        // A tiny circle near the middle of a root trixel: exactly one
        // partial root, no full ranges.
        assert!(cover.full_ranges().is_empty());
        assert_eq!(cover.trixel_count(), 1);
    }

    #[test]
    fn bigger_radius_covers_more_trixels() {
        let mesh = Mesh::new(8);
        let c = SkyPoint::from_radec_deg(150.0, 20.0);
        let small = Cover::circle(&mesh, c, 0.2_f64.to_radians());
        let big = Cover::circle(&mesh, c, 2.0_f64.to_radians());
        assert!(big.trixel_count() > small.trixel_count());
    }

    #[test]
    fn deep_cover_has_full_ranges() {
        // At a depth where trixels are much smaller than the cap, most of
        // the cap interior is full-covered.
        let mesh = Mesh::new(9);
        let cover = Cover::circle(
            &mesh,
            SkyPoint::from_radec_deg(100.0, 10.0),
            3.0_f64.to_radians(),
        );
        let full: u64 = cover.full_ranges().iter().map(|r| r.len()).sum();
        let partial: u64 = cover.partial_ranges().iter().map(|r| r.len()).sum();
        assert!(full > partial, "full {full} vs partial {partial}");
    }

    #[test]
    fn classify_id_disjoint() {
        let mesh = Mesh::new(6);
        let cover = Cover::circle(&mesh, SkyPoint::from_radec_deg(0.0, 0.0), 0.01);
        // A point on the opposite side of the sky is not in the cover.
        let far = mesh.locate(SkyPoint::from_radec_deg(180.0, 0.0)).raw();
        assert_eq!(cover.classify_id(far), None);
    }

    #[test]
    fn descend_enters_only_what_the_caller_keeps() {
        // A whole-sky cap meets every trixel; entering only the ancestors
        // of one depth-6 trixel leaves exactly that trixel, as Partial.
        let target = Mesh::new(6).locate(SkyPoint::from_radec_deg(185.0, -0.5));
        let on_path = |t: &Trixel, _: &()| {
            let above = target.raw() >> (2 * (6 - t.id.depth()));
            (above == t.id.raw()).then_some(((), t.id.depth() < 6))
        };
        let sky = Cap::new(Vec3::new(0.0, 0.0, 1.0), std::f64::consts::PI);
        let mut emitted = Vec::new();
        descend(&sky, &Trixel::roots(), &(), &on_path, &mut |t, (), kind| {
            emitted.push((t.id, kind))
        });
        assert_eq!(emitted, vec![(target, RangeKind::Partial)]);
    }

    #[test]
    fn whole_sky_cap_covers_everything() {
        let mesh = Mesh::new(3);
        let cap = Cap::new(Vec3::new(0.0, 0.0, 1.0), std::f64::consts::PI);
        let cover = Cover::region(&mesh, &cap);
        assert_eq!(cover.trixel_count(), mesh.trixel_count());
    }
}
