//! Property tests for the archive engine: index results always agree
//! with full scans, and inserts never corrupt invariants.

use proptest::prelude::*;
use skyquery_htm::{Cap, ConvexPolygon, ConvexRegion, Mesh, SkyPoint, Vec3};
use skyquery_storage::{
    BufferCache, ColumnDef, DataType, Database, PositionColumns, ScanOptions, TableSchema, Value,
};

fn pos_db(points: &[(f64, f64)], depth: u8) -> Database {
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Id),
            ColumnDef::new("ra", DataType::Float),
            ColumnDef::new("dec", DataType::Float),
        ],
    )
    .with_position(PositionColumns::new("ra", "dec", depth))
    .unwrap();
    let mut db = Database::with_cache("p", BufferCache::new(256, 16));
    db.create_table(schema).unwrap();
    for (i, &(ra, dec)) in points.iter().enumerate() {
        db.insert(
            "t",
            vec![Value::Id(i as u64), Value::Float(ra), Value::Float(dec)],
        )
        .unwrap();
    }
    db
}

/// The point at `frac` of `radius` from unit vector `c` along
/// `bearing_deg`.
fn ball_point(c: Vec3, radius: f64, bearing_deg: f64, frac: f64) -> Vec3 {
    let axis = if c.z.abs() < 0.9 {
        Vec3::new(0.0, 0.0, 1.0)
    } else {
        Vec3::new(1.0, 0.0, 0.0)
    };
    let u = c.cross(axis).unit();
    let w = c.cross(u);
    let (d, phi) = (radius * frac, bearing_deg.to_radians());
    let side = u.scale(phi.cos()).add(w.scale(phi.sin()));
    c.scale(d.cos()).add(side.scale(d.sin())).unit()
}

fn sky_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..360.0, -85.0f64..85.0), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn htm_range_search_equals_linear(
        points in sky_points(),
        center_ra in 0.0f64..360.0,
        center_dec in -85.0f64..85.0,
        radius_deg in 0.01f64..30.0,
        depth in 6u8..13,
        edge in proptest::collection::vec((0.0f64..360.0, 0.98f64..1.02), 0..40),
        cluster_at in (0.0f64..360.0, 0.98f64..1.02),
        cluster in proptest::collection::vec((0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0), 0..24),
        polygon_sides in 3usize..8,
        zone_height in 0.01f64..5.0,
        wrap_at in (-0.5f64..0.5, -80.0f64..80.0),
        pole_at in (0.0f64..360.0, 89.0f64..90.0, any::<bool>()),
        near_radius_deg in 0.05f64..3.0,
        near in proptest::collection::vec((0.0f64..360.0, 0.0f64..1.5), 0..60),
        wide_deg in 90.0f64..180.0,
    ) {
        let center = SkyPoint::from_radec_deg(center_ra, center_dec);
        let radius = radius_deg.to_radians();
        // Points in a band about the circle's edge (bearing, fraction of
        // the radius), where partial trixels and the exact tests decide.
        let c = center.to_vec3();
        let at = |bearing_deg: f64, frac: f64| ball_point(c, radius, bearing_deg, frac);
        let radec = |v: Vec3| {
            let p = SkyPoint::from_vec3(v);
            (p.ra_deg, p.dec_deg)
        };
        let mut points = points;
        points.extend(edge.iter().map(|&(bearing_deg, frac)| radec(at(bearing_deg, frac))));
        // Many points in one depth-14 trixel on the edge: deeper than the
        // index, so a search can split down to the index depth and still
        // hold more than a few rows there.
        let t = Mesh::new(14).trixel(Mesh::new(14).locate_vec(at(cluster_at.0, cluster_at.1)));
        points.extend(cluster.iter().map(|&(a, b, k)| {
            radec(t.v0.scale(a).add(t.v1.scale(b)).add(t.v2.scale(k)).unit())
        }));
        // A cap straddling RA 0°/360° and one within a degree of a pole,
        // each with points about it.
        let near_radius = near_radius_deg.to_radians();
        let wrap = SkyPoint::from_radec_deg(wrap_at.0 * near_radius_deg, wrap_at.1).to_vec3();
        let pole_dec = if pole_at.2 { pole_at.1 } else { -pole_at.1 };
        let pole = SkyPoint::from_radec_deg(pole_at.0, pole_dec).to_vec3();
        for c in [wrap, pole] {
            points.extend(near.iter().map(|&(b, frac)| radec(ball_point(c, near_radius, b, frac))));
        }
        let mut db = pos_db(&points, depth);
        let fast: Vec<usize> = db
            .range_search("t", center, radius, ScanOptions::untracked())
            .unwrap()
            .0
            .into_iter()
            .map(|h| h.row)
            .collect();
        let slow: Vec<usize> = db
            .range_search_linear("t", center, radius, ScanOptions::untracked())
            .unwrap()
            .into_iter()
            .map(|h| h.row)
            .collect();
        prop_assert_eq!(fast, slow);

        // The region search over the same circle as an htm cap keeps
        // exactly the rows a linear pass keeps under `Cap::contains`, in
        // ascending order, at any zone height.
        // The same holds for a polygon inscribed in the circle, with a
        // corner at the cluster, for a cap and a polygon straddling RA
        // 0°/360°, for a cap near a pole, and for a cap wider than a
        // hemisphere.
        let polygon = |c: Vec3, radius: f64| {
            let mut corners: Vec<Vec3> = (0..polygon_sides)
                .map(|k| {
                    let bearing = cluster_at.0 + 360.0 * k as f64 / polygon_sides as f64;
                    ball_point(c, radius, bearing, 1.0)
                })
                .collect();
            ConvexPolygon::new(corners.clone())
                .or_else(|_| {
                    corners.reverse();
                    ConvexPolygon::new(corners)
                })
                .unwrap()
        };
        let cap = Cap::new(center.to_vec3(), radius);
        let inscribed = polygon(c, radius);
        let wrap_cap = Cap::new(wrap, near_radius);
        let wrap_polygon = polygon(wrap, near_radius);
        let pole_cap = Cap::new(pole, near_radius);
        let wide_cap = Cap::new(c, wide_deg.to_radians());
        let regions: [&dyn ConvexRegion; 6] =
            [&cap, &inscribed, &wrap_cap, &wrap_polygon, &pole_cap, &wide_cap];
        db.set_zone_height(zone_height);
        for region in regions {
            let found = db.region_search("t", region, ScanOptions::untracked()).unwrap();
            let exact: Vec<usize> = db
                .table("t")
                .unwrap()
                .iter()
                .filter(|(_, row)| {
                    let p = SkyPoint::from_radec_deg(row[1].as_f64().unwrap(), row[2].as_f64().unwrap());
                    region.contains(p.to_vec3())
                })
                .map(|(rid, _)| rid)
                .collect();
            prop_assert_eq!(found, exact);
        }
    }

    #[test]
    fn btree_lookup_equals_scan(
        keys in proptest::collection::vec(-50i64..50, 0..200),
        probe in -60i64..60,
    ) {
        let schema = TableSchema::new("k", vec![ColumnDef::new("v", DataType::Int)]);
        let mut db = Database::new("b");
        db.create_table(schema).unwrap();
        // Build the index first so incremental maintenance is exercised.
        db.create_btree_index("k", "v").unwrap();
        for k in &keys {
            db.insert("k", vec![Value::Int(*k)]).unwrap();
        }
        let via_index = db
            .lookup_eq("k", "v", &Value::Int(probe), ScanOptions::untracked())
            .unwrap();
        let via_scan = db
            .scan_filter("k", ScanOptions::untracked(), |_, row| {
                row[0].sql_eq(&Value::Int(probe)).unwrap_or(false)
            })
            .unwrap();
        prop_assert_eq!(via_index, via_scan);
    }

    #[test]
    fn row_count_matches_inserts(
        n in 0usize..100,
    ) {
        let schema = TableSchema::new("c", vec![ColumnDef::new("v", DataType::Int)]);
        let mut db = Database::new("c");
        db.create_table(schema).unwrap();
        for i in 0..n {
            db.insert("c", vec![Value::Int(i as i64)]).unwrap();
        }
        prop_assert_eq!(db.row_count("c").unwrap(), n);
        prop_assert_eq!(
            db.count_where("c", ScanOptions::untracked(), |_, _| true).unwrap(),
            n
        );
    }

    #[test]
    fn range_search_hits_carry_true_separation(
        points in sky_points(),
        radius_deg in 0.1f64..10.0,
    ) {
        let mut db = pos_db(&points, 10);
        let center = SkyPoint::from_radec_deg(180.0, 0.0);
        let radius = radius_deg.to_radians();
        for hit in db.range_search("t", center, radius, ScanOptions::untracked()).unwrap().0 {
            prop_assert!(hit.separation_rad <= radius + 1e-12);
            let row = db.table("t").unwrap().row(hit.row).unwrap().clone();
            let p = SkyPoint::from_radec_deg(
                row[1].as_f64().unwrap(),
                row[2].as_f64().unwrap(),
            );
            prop_assert!((p.separation(center) - hit.separation_rad).abs() < 1e-12);
        }
    }

    #[test]
    fn temp_tables_isolated(
        n_temps in 1usize..6,
        rows_per in 0usize..10,
    ) {
        let schema = TableSchema::new("tmp", vec![ColumnDef::new("v", DataType::Int)]);
        let mut db = Database::new("iso");
        let mut names = Vec::new();
        for _ in 0..n_temps {
            names.push(db.create_temp_table(schema.clone()).unwrap());
        }
        for (i, name) in names.iter().enumerate() {
            for r in 0..rows_per + i {
                db.insert(name, vec![Value::Int(r as i64)]).unwrap();
            }
        }
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(db.row_count(name).unwrap(), rows_per + i);
        }
        for name in &names {
            db.drop_table(name).unwrap();
        }
        prop_assert!(db.catalog().tables.is_empty());
    }
}
