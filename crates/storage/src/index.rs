//! Secondary indexes: an ordered value index and the HTM position index.

use std::collections::BTreeMap;
use std::ops::Range;

use skyquery_htm::{descend, ConvexRegion, Mesh, RangeKind, SkyPoint, Trixel};

use crate::error::StorageError;
use crate::table::{RowId, Table};
use crate::value::Value;

/// A `Value` wrapper giving the total `key_cmp` ordering, so values can be
/// B-tree keys.
#[derive(Debug, Clone)]
pub(crate) struct Key(pub(crate) Value);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.key_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key_cmp(&other.0)
    }
}

/// Borrowed-key view for probing the B-tree without cloning the probe
/// `Value`: both `Key` and a bare `Value` present themselves as
/// `dyn LookupKey`, and `BTreeMap` probes through
/// `Borrow<dyn LookupKey + '_>`.
trait LookupKey {
    fn value(&self) -> &Value;
}

impl LookupKey for Key {
    fn value(&self) -> &Value {
        &self.0
    }
}

impl LookupKey for Value {
    fn value(&self) -> &Value {
        self
    }
}

impl<'a> std::borrow::Borrow<dyn LookupKey + 'a> for Key {
    fn borrow(&self) -> &(dyn LookupKey + 'a) {
        self
    }
}

impl PartialEq for dyn LookupKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.value().key_cmp(other.value()) == std::cmp::Ordering::Equal
    }
}
impl Eq for dyn LookupKey + '_ {}
impl PartialOrd for dyn LookupKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for dyn LookupKey + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.value().key_cmp(other.value())
    }
}

/// An ordered index over one column, mapping value → row ids.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    column: String,
    map: BTreeMap<Key, Vec<RowId>>,
}

impl BTreeIndex {
    /// Builds an index over `column` from the current table contents.
    pub fn build(table: &Table, column: &str) -> Result<BTreeIndex, StorageError> {
        let ci =
            table
                .schema()
                .column_index(column)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: table.name().to_string(),
                    column: column.to_string(),
                })?;
        let mut map: BTreeMap<Key, Vec<RowId>> = BTreeMap::new();
        for (rid, row) in table.iter() {
            map.entry(Key(row[ci].clone())).or_default().push(rid);
        }
        Ok(BTreeIndex {
            column: column.to_string(),
            map,
        })
    }

    /// The indexed column's name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Registers a newly inserted row.
    pub fn insert(&mut self, value: Value, rid: RowId) {
        self.map.entry(Key(value)).or_default().push(rid);
    }

    /// Rows whose indexed value equals `v` (SQL semantics: NULL matches
    /// nothing). Probes through a borrowed key — no `Value` clone.
    pub fn lookup(&self, v: &Value) -> &[RowId] {
        if v.is_null() {
            return &[];
        }
        self.map
            .get(v as &dyn LookupKey)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Rows with indexed value in `[lo, hi]` (both optional, inclusive).
    /// NULLs never qualify. Bounds are compared through borrowed keys —
    /// no `Value` clones.
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<RowId> {
        use std::ops::Bound::*;
        // `key_cmp` sorts NULL first, so an open lower bound excludes the
        // NULL bucket by starting just above it.
        const NULL: Value = Value::Null;
        let lo_b: std::ops::Bound<&dyn LookupKey> = match lo {
            Some(v) => Included(v as &dyn LookupKey),
            None => Excluded(&NULL as &dyn LookupKey), // skip NULL bucket
        };
        let hi_b: std::ops::Bound<&dyn LookupKey> = match hi {
            Some(v) => Included(v as &dyn LookupKey),
            None => Unbounded,
        };
        let mut out = Vec::new();
        for (k, rids) in self.map.range::<dyn LookupKey, _>((lo_b, hi_b)) {
            if k.0.is_null() {
                continue;
            }
            out.extend_from_slice(rids);
        }
        out
    }
}

/// A candidate produced by an HTM range probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtmCandidate {
    /// The candidate row.
    pub row: RowId,
    /// Whether the row's trixel was fully inside the search region (no
    /// distance re-test needed) or partial (must be re-tested).
    pub kind: RangeKind,
}

/// A boundary trixel holding at most this many rows stops splitting, and
/// its rows are tested exactly: cheaper than classifying its children.
const LEAF_ROWS: usize = 2;

/// The HTM position index: rows sorted by the HTM ID of their position at a
/// fixed mesh depth. Its one search walks the trixel tree over this sorted
/// list. It is the oracle's index: built whole from a table, never updated.
#[derive(Debug, Clone)]
pub struct HtmPositionIndex {
    mesh: Mesh,
    /// `(htm_id, row)` sorted by htm_id (then row).
    entries: Vec<(u64, RowId)>,
}

impl HtmPositionIndex {
    /// Builds the index from a table's position columns, sorted once.
    pub fn build(table: &Table, depth: u8) -> Result<HtmPositionIndex, StorageError> {
        let pos =
            table
                .schema()
                .position
                .as_ref()
                .ok_or_else(|| StorageError::NoPositionIndex {
                    table: table.name().to_string(),
                })?;
        let ra_ci = table.schema().column_index(&pos.ra).unwrap();
        let dec_ci = table.schema().column_index(&pos.dec).unwrap();
        let mesh = Mesh::new(depth);
        let mut entries = Vec::with_capacity(table.len());
        for (rid, row) in table.iter() {
            let (ra, dec) = extract_position(table.name(), row, ra_ci, dec_ci)?;
            entries.push((mesh.locate(SkyPoint::from_radec_deg(ra, dec)).raw(), rid));
        }
        entries.sort_unstable();
        Ok(HtmPositionIndex { mesh, entries })
    }

    /// Candidate rows for a convex region (a circle's cap, or a §6
    /// polygon), in HTM ID order. `Full`-kind candidates are guaranteed
    /// inside; `Partial` ones must be re-tested by the caller with the
    /// region's `contains`.
    pub fn search(&self, region: &dyn ConvexRegion) -> Vec<HtmCandidate> {
        let (entries, depth) = (&self.entries, self.mesh.depth());
        // A trixel's node is the range of entries under it, found by two
        // binary searches in its parent's. One with no rows is pruned, and
        // a boundary trixel stops at `LEAF_ROWS` rows or the index depth.
        let enter = |t: &Trixel, within: &Range<usize>| {
            let (lo, hi) = t.id.descendants_at(depth);
            let under = &entries[within.clone()];
            let rows = within.start + under.partition_point(|&(id, _)| id < lo)
                ..within.start + under.partition_point(|&(id, _)| id <= hi);
            let split = t.id.depth() < depth && rows.len() > LEAF_ROWS;
            (!rows.is_empty()).then_some((rows, split))
        };
        let mut out = Vec::new();
        let all = 0..entries.len();
        descend(
            region,
            &Trixel::roots(),
            &all,
            &enter,
            &mut |_, rows, kind| {
                out.extend(
                    entries[rows]
                        .iter()
                        .map(|&(_, row)| HtmCandidate { row, kind }),
                );
            },
        );
        out
    }
}

/// Pulls finite `(ra, dec)` out of a row.
pub(crate) fn extract_position(
    table: &str,
    row: &[Value],
    ra_ci: usize,
    dec_ci: usize,
) -> Result<(f64, f64), StorageError> {
    let ra = row[ra_ci].as_f64();
    let dec = row[dec_ci].as_f64();
    match (ra, dec) {
        (Some(ra), Some(dec)) if ra.is_finite() && dec.is_finite() => Ok((ra, dec)),
        _ => Err(StorageError::InvalidPosition {
            table: table.to_string(),
            detail: format!("ra={:?} dec={:?}", row[ra_ci], row[dec_ci]),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, PositionColumns, TableSchema};
    use skyquery_htm::Cap;

    fn pos_table(points: &[(f64, f64)]) -> Table {
        let schema = TableSchema::new(
            "primary",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 10))
        .unwrap();
        let mut t = Table::new(schema);
        for (i, &(ra, dec)) in points.iter().enumerate() {
            t.insert(vec![
                Value::Id(i as u64),
                Value::Float(ra),
                Value::Float(dec),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn btree_lookup_and_range() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Text).nullable(),
            ],
        ));
        for i in 0..10i64 {
            t.insert(vec![Value::Int(i % 3), Value::Null]).unwrap();
        }
        let idx = BTreeIndex::build(&t, "k").unwrap();
        assert_eq!(idx.map.len(), 3);
        assert_eq!(idx.lookup(&Value::Int(0)).len(), 4); // rows 0,3,6,9
        assert_eq!(idx.lookup(&Value::Int(5)).len(), 0);
        assert_eq!(idx.lookup(&Value::Null).len(), 0);
        let r = idx.range(Some(&Value::Int(1)), Some(&Value::Int(2)));
        assert_eq!(r.len(), 6);
        let all = idx.range(None, None);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn btree_range_skips_nulls() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("k", DataType::Int).nullable()],
        ));
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Int(1)]).unwrap();
        let idx = BTreeIndex::build(&t, "k").unwrap();
        assert_eq!(idx.range(None, None), vec![1]);
    }

    #[test]
    fn btree_unknown_column() {
        let t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("k", DataType::Int)],
        ));
        assert!(BTreeIndex::build(&t, "missing").is_err());
    }

    #[test]
    fn htm_search_finds_all_in_radius() {
        // A tight cluster plus distant points.
        let mut points = vec![
            (185.0, -0.5),
            (185.001, -0.5),
            (185.0, -0.501),
            (184.999, -0.499),
        ];
        points.extend([(30.0, 40.0), (200.0, 10.0), (185.0, 5.0)]);
        let t = pos_table(&points);
        let idx = HtmPositionIndex::build(&t, 12).unwrap();
        let center = SkyPoint::from_radec_deg(185.0, -0.5);
        let radius = 10.0 / 3600.0_f64; // 10 arcsec in degrees
        let cands = idx.search(&Cap::new(center.to_vec3(), radius.to_radians()));
        // Verify: candidate set must include all 4 cluster rows.
        let rows: Vec<RowId> = cands.iter().map(|c| c.row).collect();
        for rid in 0..4 {
            assert!(rows.contains(&rid), "row {rid} missing from candidates");
        }
        // And must exclude the far points after a distance re-test.
        let confirmed: Vec<RowId> = cands
            .iter()
            .filter(|c| {
                let ra = t.value(c.row, "ra").unwrap().as_f64().unwrap();
                let dec = t.value(c.row, "dec").unwrap().as_f64().unwrap();
                SkyPoint::from_radec_deg(ra, dec).separation(center) <= radius.to_radians()
            })
            .map(|c| c.row)
            .collect();
        assert_eq!(confirmed.len(), 4);
    }

    #[test]
    fn htm_search_stops_splitting_at_leaf_rows() {
        // A row a degree from a 1′ cap shares the cap's root trixel, which
        // then holds too few rows to split: the row is a Partial candidate
        // for the exact test. Three rows there make the walk split past
        // them.
        let center = SkyPoint::from_radec_deg(185.0, -0.5);
        let cap = Cap::new(center.to_vec3(), (1.0 / 60.0_f64).to_radians());
        let lone = pos_table(&[(186.0, -0.5)]);
        assert_eq!(
            HtmPositionIndex::build(&lone, 14).unwrap().search(&cap),
            vec![HtmCandidate {
                row: 0,
                kind: RangeKind::Partial
            }]
        );
        let three = pos_table(&[(186.0, -0.5), (186.0, -0.4), (186.1, -0.5)]);
        let idx = HtmPositionIndex::build(&three, 14).unwrap();
        assert!(idx.search(&cap).is_empty());
    }

    #[test]
    fn htm_search_without_position_metadata_errors() {
        let t = Table::new(TableSchema::new(
            "noidx",
            vec![ColumnDef::new("x", DataType::Float)],
        ));
        assert!(matches!(
            HtmPositionIndex::build(&t, 8),
            Err(StorageError::NoPositionIndex { .. })
        ));
    }

    #[test]
    fn htm_build_sorts_rows_out_of_sky_order() {
        // Rows in non-sorted sky order.
        let t = pos_table(&[(300.0, 50.0), (10.0, -20.0), (10.001, -20.0)]);
        let idx = HtmPositionIndex::build(&t, 10).unwrap();
        let cands = idx.search(&Cap::new(
            SkyPoint::from_radec_deg(10.0, -20.0).to_vec3(),
            0.01,
        ));
        let rows: Vec<RowId> = cands.iter().map(|c| c.row).collect();
        assert!(rows.contains(&1) && rows.contains(&2));
        assert!(!rows.contains(&0));
    }

    #[test]
    fn htm_probe_cost_much_less_than_table() {
        let mut points = Vec::new();
        // Spread 2000 points over the sky plus 5 in the target circle.
        for i in 0..2000 {
            let ra = (i as f64 * 0.18) % 360.0;
            let dec = ((i as f64 * 0.077) % 160.0) - 80.0;
            points.push((ra, dec));
        }
        for k in 0..5 {
            points.push((120.0 + k as f64 * 1e-4, 12.0));
        }
        let t = pos_table(&points);
        let idx = HtmPositionIndex::build(&t, 10).unwrap();
        // Index entries probed (not rows returned) — the quantity HTM
        // keeps small relative to a full scan.
        let cost = idx
            .search(&Cap::new(
                SkyPoint::from_radec_deg(120.0, 12.0).to_vec3(),
                (30.0 / 3600.0_f64).to_radians(),
            ))
            .len();
        assert!(cost >= 5);
        assert!(cost < 200, "probe cost {cost} too close to full scan");
    }

    #[test]
    fn extract_position_rejects_nonfinite() {
        let row = vec![Value::Float(f64::NAN), Value::Float(0.0)];
        assert!(extract_position("t", &row, 0, 1).is_err());
        let row = vec![Value::Null, Value::Float(0.0)];
        assert!(extract_position("t", &row, 0, 1).is_err());
        let row = vec![Value::Float(10.0), Value::Float(0.0)];
        assert_eq!(extract_position("t", &row, 0, 1).unwrap(), (10.0, 0.0));
    }
}
