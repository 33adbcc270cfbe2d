//! Property-based tests for the HTM substrate: point location, ID encoding,
//! and cover soundness over randomized skies.

use proptest::prelude::*;
use skyquery_htm::{Cap, ConvexPolygon, Cover, HtmId, Mesh, SkyPoint};

/// Uniform-ish sky point strategy (uniform in ra, sin(dec)).
fn sky_point() -> impl Strategy<Value = SkyPoint> {
    (0.0f64..360.0, -1.0f64..1.0).prop_map(|(ra, sindec)| {
        SkyPoint::from_radec_deg(ra, sindec.clamp(-1.0, 1.0).asin().to_degrees())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn locate_result_contains_point(p in sky_point(), depth in 0u8..12) {
        let mesh = Mesh::new(depth);
        let id = mesh.locate(p);
        prop_assert_eq!(id.depth(), depth);
        prop_assert!(mesh.trixel(id).contains(p.to_vec3()));
    }

    #[test]
    fn locate_id_within_depth_bounds(p in sky_point(), depth in 0u8..12) {
        let mesh = Mesh::new(depth);
        let id = mesh.locate(p).raw();
        prop_assert!(id >= mesh.min_id());
        prop_assert!(id < mesh.max_id_exclusive());
    }

    #[test]
    fn id_name_roundtrip(p in sky_point(), depth in 0u8..14) {
        let mesh = Mesh::new(depth);
        let id = mesh.locate(p);
        let name = id.name();
        prop_assert_eq!(HtmId::parse_name(&name).unwrap(), id);
    }

    #[test]
    fn parent_child_consistency(p in sky_point(), depth in 1u8..12) {
        let mesh = Mesh::new(depth);
        let id = mesh.locate(p);
        let parent = id.parent().unwrap();
        prop_assert_eq!(parent.child(id.child_index()), id);
        // The parent trixel (coarser) must also contain the point.
        let coarse = Mesh::new(depth - 1);
        prop_assert_eq!(coarse.locate(p), parent);
    }

    #[test]
    fn cover_soundness_random_caps(
        center in sky_point(),
        radius_deg in 0.01f64..20.0,
        offset_frac in 0.0f64..0.999,
        phi in 0.0f64..std::f64::consts::TAU,
        depth in 3u8..9,
    ) {
        let mesh = Mesh::new(depth);
        let cap = Cap::new(center.to_vec3(), radius_deg.to_radians());
        let cover = Cover::region(&mesh, &cap);

        // A random point inside the cap must land in the cover.
        let cv = center.to_vec3();
        let axis = if cv.z.abs() < 0.9 {
            skyquery_htm::Vec3::new(0.0, 0.0, 1.0)
        } else {
            skyquery_htm::Vec3::new(1.0, 0.0, 0.0)
        };
        let u = cv.cross(axis).unit();
        let w = cv.cross(u).unit();
        let r = radius_deg.to_radians() * offset_frac;
        let p = cv
            .scale(r.cos())
            .add(u.scale(r.sin() * phi.cos()))
            .add(w.scale(r.sin() * phi.sin()))
            .unit();
        prop_assert!(cap.contains(p));
        let id = mesh.locate_vec(p).raw();
        prop_assert!(cover.classify_id(id).is_some(),
            "point inside cap not covered: id {}", id);
    }

    #[test]
    fn full_ranges_are_precise(
        center in sky_point(),
        radius_deg in 0.5f64..10.0,
        depth in 4u8..8,
    ) {
        let mesh = Mesh::new(depth);
        let cap = Cap::new(center.to_vec3(), radius_deg.to_radians());
        let cover = Cover::region(&mesh, &cap);
        for range in cover.full_ranges() {
            // Sample the extremes of each full range: all corners inside.
            for raw in [range.lo, range.hi] {
                let t = mesh.trixel(HtmId::new(raw).unwrap());
                prop_assert!(cap.contains(t.v0));
                prop_assert!(cap.contains(t.v1));
                prop_assert!(cap.contains(t.v2));
            }
        }
    }

    #[test]
    fn cover_ranges_are_normalized(
        center in sky_point(),
        radius_deg in 0.1f64..15.0,
        depth in 3u8..8,
    ) {
        let mesh = Mesh::new(depth);
        let cover = Cover::circle(&mesh, center, radius_deg.to_radians());
        for ranges in [cover.full_ranges(), cover.partial_ranges()] {
            for pair in ranges.windows(2) {
                // Strictly ascending with a gap (otherwise they'd merge).
                prop_assert!(pair[0].hi + 1 < pair[1].lo);
            }
        }
    }

    #[test]
    fn polygon_cover_soundness(
        center in sky_point(),
        half_w in 0.05f64..3.0,
        half_h in 0.05f64..3.0,
        fx in -0.99f64..0.99,
        fy in -0.99f64..0.99,
        depth in 3u8..9,
    ) {
        // A lat/long rectangle around the center (kept away from poles by
        // clamping |dec| so the rectangle stays convex on the sphere).
        let dec0 = center.dec_deg.clamp(-60.0, 60.0);
        let ra0 = center.ra_deg;
        let poly = match ConvexPolygon::from_radec_deg(&[
            (ra0 - half_w, dec0 - half_h),
            (ra0 + half_w, dec0 - half_h),
            (ra0 + half_w, dec0 + half_h),
            (ra0 - half_w, dec0 + half_h),
        ]) {
            Ok(p) => p,
            // Extreme aspect ratios near the dec clamp can go non-convex
            // on the sphere; those are rejected constructions, not cover
            // bugs.
            Err(_) => return Ok(()),
        };
        let mesh = Mesh::new(depth);
        let cover = Cover::region(&mesh, &poly);
        // A random interior point must land in the cover.
        let p = SkyPoint::from_radec_deg(ra0 + fx * half_w * 0.98, dec0 + fy * half_h * 0.98);
        prop_assume!(poly.contains(p.to_vec3()));
        let id = mesh.locate(p).raw();
        prop_assert!(cover.classify_id(id).is_some(),
            "interior point not covered at depth {}", depth);
        // Full trixels must have all corners inside the polygon.
        for range in cover.full_ranges() {
            for raw in [range.lo, range.hi] {
                let t = mesh.trixel(HtmId::new(raw).unwrap());
                prop_assert!(poly.contains(t.v0));
                prop_assert!(poly.contains(t.v1));
                prop_assert!(poly.contains(t.v2));
            }
        }
    }

    #[test]
    fn separation_symmetry(a in sky_point(), b in sky_point()) {
        prop_assert!((a.separation(b) - b.separation(a)).abs() < 1e-12);
    }

    #[test]
    fn vec_roundtrip(p in sky_point()) {
        let q = SkyPoint::from_vec3(p.to_vec3());
        prop_assert!(p.separation(q).to_degrees() * 3600.0 < 1e-6);
    }
}
