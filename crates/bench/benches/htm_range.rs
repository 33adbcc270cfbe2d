//! Experiment E6 — §5.4: the `AREA` clause is "implemented using the
//! range search capabilities of the individual archives", i.e. the HTM
//! index. "It helps in reducing spatial processing at individual
//! databases" (§5.1).
//!
//! Table: rows probed by the HTM index walk vs a full scan across search
//! radii, and cover size across mesh depths. Criterion times HTM vs
//! linear range searches, and the `AREA` read of a small node, which
//! scans the zone layout's window about the region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skyquery_htm::{Cap, Cover, Mesh, SkyPoint};
use skyquery_sim::{BodyCatalog, CatalogParams, Survey, SurveyParams};
use skyquery_storage::{Database, ScanOptions};

fn survey_db(bodies: usize, radius_deg: f64, depth: u8) -> Database {
    let catalog = BodyCatalog::generate(CatalogParams {
        count: bodies,
        radius_deg,
        ..CatalogParams::default()
    });
    let mut params = SurveyParams::sdss_like();
    params.htm_depth = depth;
    Survey::observe(&catalog, params).db
}

fn print_tables() {
    let center = SkyPoint::from_radec_deg(185.0, -0.5);

    println!("\n=== E6a: HTM range search vs linear scan (20000 objects, depth 14) ===");
    println!(
        "{:<18} {:>10} {:>14} {:>14}",
        "radius (arcmin)", "hits", "htm probes*", "scan probes"
    );
    let mut db = survey_db(20_000, 2.0, 14);
    let total = db.row_count("Photo_Object").unwrap();
    for radius_arcmin in [1.0, 5.0, 20.0, 60.0] {
        let radius = (radius_arcmin / 60.0_f64).to_radians();
        db.cold_cache();
        db.reset_cache_stats();
        let hits = db
            .range_search("Photo_Object", center, radius, ScanOptions::default())
            .unwrap()
            .0
            .len();
        let probes = db.cache_stats().accesses();
        println!(
            "{:<18} {:>10} {:>14} {:>14}",
            radius_arcmin, hits, probes, total
        );
    }
    println!("* rows touched by the index walk (full + partial trixels)");

    println!("\n=== E6b: circle-cover size vs mesh depth (radius 10 arcmin) ===");
    println!(
        "{:<8} {:>12} {:>12} {:>12}",
        "depth", "ranges", "trixels", "full frac"
    );
    for depth in [6u8, 8, 10, 12, 14] {
        let mesh = Mesh::new(depth);
        let cover = Cover::circle(&mesh, center, (10.0 / 60.0_f64).to_radians());
        let full: u64 = cover.full_ranges().iter().map(|r| r.len()).sum();
        let total = cover.trixel_count();
        println!(
            "{:<8} {:>12} {:>12} {:>11.2}%",
            depth,
            cover.full_ranges().len() + cover.partial_ranges().len(),
            total,
            100.0 * full as f64 / total.max(1) as f64
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_tables();
    let center = SkyPoint::from_radec_deg(185.0, -0.5);
    let radius = (10.0 / 60.0_f64).to_radians();
    let mut db = survey_db(20_000, 2.0, 14);
    let mut group = c.benchmark_group("e6_range_search");
    group.sample_size(20);
    group.bench_function("htm_index", |b| {
        b.iter(|| {
            db.range_search("Photo_Object", center, radius, ScanOptions::untracked())
                .unwrap()
                .0
        })
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            db.range_search_linear("Photo_Object", center, radius, ScanOptions::untracked())
                .unwrap()
        })
    });
    // The count-star and seed-step read of a `triple-small` node: a 15′
    // `AREA` over the 1 200-body SDSS-like table (depth 14), at 64 centres
    // spiralling over the field.
    let mut small = survey_db(1_200, 1.0, 14);
    let caps: Vec<Cap> = (0..64)
        .map(|k| {
            let r = 0.73 * ((k as f64 + 0.5) / 64.0).sqrt();
            let phi = k as f64 * 2.399_963;
            let c = SkyPoint::from_radec_deg(185.0 + r * phi.cos(), -0.5 + r * phi.sin());
            Cap::new(c.to_vec3(), (15.0 / 60.0_f64).to_radians())
        })
        .collect();
    let mut next = 0;
    group.bench_function("region_search", |b| {
        b.iter(|| {
            next = (next + 1) % caps.len();
            small
                .region_search("Photo_Object", &caps[next], ScanOptions::default())
                .unwrap()
        })
    });
    for depth in [8u8, 12] {
        group.bench_with_input(
            BenchmarkId::new("cover_only", depth),
            &depth,
            |b, &depth| {
                let mesh = Mesh::new(depth);
                b.iter(|| Cover::circle(&mesh, center, radius));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
