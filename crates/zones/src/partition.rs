//! Partitioning a cross-match step into independent zone tasks.
//!
//! Each incoming partial tuple belongs to exactly **one** zone — the zone
//! of its maximum-likelihood declination — so the union of all task
//! outputs is a partition of the sequential output, never a multiset.
//! Archive rows, by contrast, are *replicated* into every zone whose
//! padded band covers them: the pad (`margin_deg`) is the largest search
//! radius of the zone's tuples, so every row a tuple's probe ball can
//! reach is guaranteed to be inside the tuple's own zone bucket.

use std::collections::BTreeMap;

use skyquery_htm::SkyPoint;
use skyquery_storage::{RowId, Table};

use crate::zonemap::ZoneMap;

/// Extra declination pad beyond the exact radius bound, absorbing the
/// degree/radian conversion rounding.
const MARGIN_SLACK_DEG: f64 = 1e-9;

/// One tuple's candidate search ball (precomputed by the engine).
#[derive(Debug, Clone, Copy)]
pub struct TupleProbe {
    /// Index of the tuple in the incoming partial set.
    pub index: usize,
    /// Ball center: the tuple's maximum-likelihood position.
    pub center: SkyPoint,
    /// Conservative search radius, radians.
    pub radius_rad: f64,
}

/// The unit of parallel work: one zone's tuples plus the archive rows
/// their probe balls can reach.
#[derive(Debug, Clone)]
pub struct ZoneTask {
    /// The zone index in the [`ZoneMap`].
    pub zone: usize,
    /// Probes of the tuples assigned to this zone, in tuple order.
    pub probes: Vec<TupleProbe>,
    /// Archive rows inside the padded band, ascending declination.
    pub rows: Vec<RowId>,
}

/// The partitioned step: tasks for every non-empty zone.
#[derive(Debug, Clone)]
pub struct ZonePlan {
    /// Tasks in ascending zone order.
    pub tasks: Vec<ZoneTask>,
    /// Tuples with a degenerate state (no best position) — they silently
    /// leave the chain, exactly as in the sequential kernels.
    pub degenerate: usize,
}

/// Extracts `(dec, RowId)` for every archive row, sorted by declination.
/// Built once per step and shared by the band lookups of all zones.
pub fn sorted_declinations(table: &Table, dec_ci: usize) -> Vec<(f64, RowId)> {
    let mut decs: Vec<(f64, RowId)> = table
        .iter()
        .map(|(rid, row)| (row[dec_ci].as_f64().expect("position column"), rid))
        .collect();
    decs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    decs
}

/// Buckets probes by zone and attaches each zone's padded archive band.
///
/// `decs` must be sorted ascending by declination (see
/// [`sorted_declinations`]); `degenerate` counts tuples the caller already
/// dropped for lacking a best position.
pub fn partition(
    map: &ZoneMap,
    probes: Vec<TupleProbe>,
    decs: &[(f64, RowId)],
    degenerate: usize,
) -> ZonePlan {
    // BTreeMap keeps zones — and therefore tasks — in ascending order,
    // independent of tuple arrival order.
    let mut zones: BTreeMap<usize, Vec<TupleProbe>> = BTreeMap::new();
    for probe in probes {
        zones
            .entry(map.zone_of(probe.center.dec_deg))
            .or_default()
            .push(probe);
    }

    let tasks = zones
        .into_iter()
        .map(|(zone, probes)| {
            let margin_deg = probes
                .iter()
                .map(|p| p.radius_rad.to_degrees())
                .fold(0.0_f64, f64::max)
                + MARGIN_SLACK_DEG;
            let (lo, hi) = map.bounds(zone);
            let start = decs.partition_point(|(d, _)| *d < lo - margin_deg);
            let end = decs.partition_point(|(d, _)| *d <= hi + margin_deg);
            let rows = decs[start..end].iter().map(|(_, rid)| *rid).collect();
            ZoneTask { zone, probes, rows }
        })
        .collect();
    ZonePlan { tasks, degenerate }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(index: usize, dec: f64, radius_deg: f64) -> TupleProbe {
        TupleProbe {
            index,
            center: SkyPoint::from_radec_deg(10.0, dec),
            radius_rad: radius_deg.to_radians(),
        }
    }

    #[test]
    fn probes_partition_rows_replicate() {
        let map = ZoneMap::new(10.0);
        // Rows at dec −5, 4.9, 5.1, 20.
        let decs = vec![(-5.0, 0), (4.9, 1), (5.1, 2), (20.0, 3)];
        // Tuple 0 near the zone-9 / zone-10 boundary with a 0.5° radius;
        // tuple 1 well inside zone 9.
        let plan = partition(&map, vec![probe(0, 9.8, 0.5), probe(1, 2.0, 0.5)], &decs, 0);
        assert_eq!(plan.tasks.len(), 1); // both tuples land in zone 9 ([0,10))
        let task = &plan.tasks[0];
        assert_eq!(task.zone, 9);
        assert_eq!(task.probes.len(), 2);
        // Band [0−0.5−ε, 10+0.5+ε] picks up rows 1 and 2 but not −5 or 20.
        assert_eq!(task.rows, vec![1, 2]);
    }

    #[test]
    fn boundary_straddling_probe_sees_rows_across_the_edge() {
        let map = ZoneMap::new(1.0);
        // A probe just under dec 0 whose ball reaches into the zone above.
        let p = probe(0, -0.01, 0.1);
        let decs = vec![(-0.05, 7), (0.05, 8)];
        let plan = partition(&map, vec![p], &decs, 0);
        assert_eq!(plan.tasks.len(), 1);
        // Both rows are in the padded band even though 0.05 lies in the
        // next zone up.
        assert_eq!(plan.tasks[0].rows, vec![7, 8]);
    }

    #[test]
    fn zones_are_emitted_in_ascending_order() {
        let map = ZoneMap::new(10.0);
        let plan = partition(
            &map,
            vec![
                probe(0, 80.0, 0.1),
                probe(1, -80.0, 0.1),
                probe(2, 0.0, 0.1),
            ],
            &[],
            2,
        );
        let zones: Vec<usize> = plan.tasks.iter().map(|t| t.zone).collect();
        assert_eq!(zones, vec![1, 9, 17]);
        assert_eq!(plan.degenerate, 2);
    }
}
