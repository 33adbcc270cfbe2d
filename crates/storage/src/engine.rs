//! The archive database: tables, indexes, temp tables, and the scans the
//! SkyNode wrapper runs against them.

use std::collections::HashMap;

use skyquery_htm::{RangeKind, SkyPoint};

use crate::cache::{BufferCache, CacheStats};
use crate::catalog::{Catalog, TableStats};
use crate::columnar::{ColumnarPositions, DEFAULT_ZONE_HEIGHT_DEG};
use crate::error::StorageError;
use crate::exec::{RangeSearchHit, ScanOptions};
use crate::index::{extract_position, BTreeIndex, HtmPositionIndex};
use crate::schema::TableSchema;
use crate::table::{Row, RowId, Table};
use crate::value::Value;

/// One stored table with its indexes.
#[derive(Debug)]
struct TableEntry {
    table: Table,
    /// Cache epoch: distinguishes reincarnated temp tables in the buffer
    /// cache's page ids.
    epoch: u64,
    htm: Option<HtmPositionIndex>,
    btrees: HashMap<String, BTreeIndex>,
    /// Columnar SoA snapshot of the position columns at the database's zone
    /// height; rebuilt lazily, invalidated by an insert or a height change.
    columnar: Option<ColumnarPositions>,
    /// Monotonic modification version: bumped by every insert, never
    /// reset. The generalization of the columnar invalidation above
    /// — external caches key on this number to validate entries without
    /// re-reading rows. Tables are append-only with sequential row ids,
    /// so the version equals the row count and rows `[version..len)` of
    /// a later snapshot are exactly the delta since this one.
    version: u64,
    temp: bool,
}

/// An autonomous archive database.
///
/// This is what a SkyNode wraps: the paper's "database-specific API" maps to
/// these methods, and the wrapper's Web services translate SOAP calls into
/// them.
pub struct Database {
    name: String,
    tables: HashMap<String, TableEntry>,
    cache: BufferCache,
    /// Declination zone height, degrees, of every columnar snapshot.
    zone_height: f64,
    next_epoch: u64,
    next_temp: u64,
}

impl Database {
    /// Creates a database with a default buffer cache (4096 pages × 64
    /// rows).
    pub fn new(name: impl Into<String>) -> Database {
        Database::with_cache(name, BufferCache::new(4096, 64))
    }

    /// Creates a database with an explicit buffer-cache configuration (the
    /// cache-warming experiments shrink the cache to force evictions).
    pub fn with_cache(name: impl Into<String>, cache: BufferCache) -> Database {
        Database {
            name: name.into(),
            tables: HashMap::new(),
            cache,
            zone_height: DEFAULT_ZONE_HEIGHT_DEG,
            next_epoch: 0,
            next_temp: 0,
        }
    }

    /// Sets the zone height, degrees ([`crate::effective_height`]), of the
    /// columnar layout, dropping every snapshot built at the old one.
    pub fn set_zone_height(&mut self, height_deg: f64) {
        self.zone_height = height_deg;
        for entry in self.tables.values_mut() {
            entry.columnar = None;
        }
    }

    /// The declination zone height, in degrees, of the columnar layout.
    pub fn zone_height(&self) -> f64 {
        self.zone_height
    }

    /// The database's name (the archive name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a permanent table. If the schema declares position columns,
    /// an HTM index is maintained automatically.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), StorageError> {
        if self.tables.contains_key(&schema.name) {
            return Err(StorageError::TableExists {
                name: schema.name.clone(),
            });
        }
        let htm = schema
            .position
            .as_ref()
            .map(|p| HtmPositionIndex::new(p.htm_depth));
        let name = schema.name.clone();
        self.next_epoch += 1;
        self.tables.insert(
            name,
            TableEntry {
                table: Table::new(schema),
                epoch: self.next_epoch,
                htm,
                btrees: HashMap::new(),
                columnar: None,
                version: 0,
                temp: false,
            },
        );
        Ok(())
    }

    /// Creates a uniquely named temporary table (the cross-match stored
    /// procedure materializes incoming partial results into one). Returns
    /// the generated name.
    pub fn create_temp_table(&mut self, mut schema: TableSchema) -> Result<String, StorageError> {
        self.next_temp += 1;
        let name = format!("#tmp_{}_{}", schema.name, self.next_temp);
        schema.name = name.clone();
        let htm = schema
            .position
            .as_ref()
            .map(|p| HtmPositionIndex::new(p.htm_depth));
        self.next_epoch += 1;
        self.tables.insert(
            name.clone(),
            TableEntry {
                table: Table::new(schema),
                epoch: self.next_epoch,
                htm,
                btrees: HashMap::new(),
                columnar: None,
                version: 0,
                temp: true,
            },
        );
        Ok(name)
    }

    /// Drops a table (used for temp-table cleanup; also allowed for
    /// permanent tables).
    pub fn drop_table(&mut self, name: &str) -> Result<(), StorageError> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::UnknownTable {
                name: name.to_string(),
            })
    }

    /// Whether a table (permanent or temp) with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// All table names (including temp tables), sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The table's schema.
    pub fn schema(&self, table: &str) -> Result<&TableSchema, StorageError> {
        self.entry(table).map(|e| e.table.schema())
    }

    /// Direct read-only access to a table.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.entry(name).map(|e| &e.table)
    }

    fn entry(&self, name: &str) -> Result<&TableEntry, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable {
                name: name.to_string(),
            })
    }

    /// Inserts a row, updating all indexes.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, StorageError> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        // Validate fully (schema conformance, then position extraction)
        // before mutating anything, so a rejected row leaves the table and
        // its indexes untouched.
        let row = entry.table.schema().conform_row(row)?;
        let position = match (&entry.htm, entry.table.schema().position.as_ref()) {
            (Some(_), Some(pos)) => {
                let ra_ci = entry.table.schema().column_index(&pos.ra).unwrap();
                let dec_ci = entry.table.schema().column_index(&pos.dec).unwrap();
                let (ra, dec) = extract_position(table, &row, ra_ci, dec_ci)?;
                Some(SkyPoint::from_radec_deg(ra, dec))
            }
            _ => None,
        };
        let rid = entry.table.insert_conformed(row);
        // Any mutation invalidates the columnar snapshot and advances the
        // table's modification version.
        entry.columnar = None;
        entry.version += 1;
        let stored = entry.table.row(rid).expect("row just inserted");
        if let (Some(htm), Some(p)) = (entry.htm.as_mut(), position) {
            htm.insert(p, rid);
        }
        for (col, idx) in entry.btrees.iter_mut() {
            let ci = entry.table.schema().column_index(col).unwrap();
            idx.insert(stored[ci].clone(), rid);
        }
        Ok(rid)
    }

    /// Bulk insert.
    pub fn insert_all<I>(&mut self, table: &str, rows: I) -> Result<usize, StorageError>
    where
        I: IntoIterator<Item = Row>,
    {
        let mut n = 0;
        for row in rows {
            self.insert(table, row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Builds (or rebuilds) a B-tree index over a column.
    pub fn create_btree_index(&mut self, table: &str, column: &str) -> Result<(), StorageError> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        let idx = BTreeIndex::build(&entry.table, column)?;
        entry.btrees.insert(column.to_string(), idx);
        Ok(())
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize, StorageError> {
        self.entry(table).map(|e| e.table.len())
    }

    /// Whether a B-tree index exists on `table.column`.
    pub fn has_btree_index(&self, table: &str, column: &str) -> bool {
        self.tables
            .get(table)
            .is_some_and(|e| e.btrees.contains_key(column))
    }

    /// Full-scan filter: returns ids of rows satisfying `pred`, charging
    /// the buffer cache per row when enabled.
    pub fn scan_filter<F>(
        &mut self,
        table: &str,
        opts: ScanOptions,
        mut pred: F,
    ) -> Result<Vec<RowId>, StorageError>
    where
        F: FnMut(&TableSchema, &Row) -> bool,
    {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        let epoch = entry.epoch;
        let mut out = Vec::new();
        for (rid, row) in entry.table.iter() {
            if opts.touch_cache {
                self.cache.touch_row(epoch, rid);
            }
            if pred(entry.table.schema(), row) {
                out.push(rid);
            }
        }
        Ok(out)
    }

    /// `SELECT count(*) WHERE pred` — the performance-query workhorse.
    pub fn count_where<F>(
        &mut self,
        table: &str,
        opts: ScanOptions,
        pred: F,
    ) -> Result<usize, StorageError>
    where
        F: FnMut(&TableSchema, &Row) -> bool,
    {
        Ok(self.scan_filter(table, opts, pred)?.len())
    }

    /// Circular range search over a position-indexed table: candidates come
    /// from the HTM cover; rows in partial trixels are distance re-tested.
    /// Results are sorted by row id and carry the true angular separation.
    pub fn range_search(
        &mut self,
        table: &str,
        center: SkyPoint,
        radius_rad: f64,
        opts: ScanOptions,
    ) -> Result<Vec<RangeSearchHit>, StorageError> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        let htm = entry
            .htm
            .as_mut()
            .ok_or_else(|| StorageError::NoPositionIndex {
                table: table.to_string(),
            })?;
        let pos = entry
            .table
            .schema()
            .position
            .as_ref()
            .expect("htm index implies position metadata");
        let ra_ci = entry.table.schema().column_index(&pos.ra).unwrap();
        let dec_ci = entry.table.schema().column_index(&pos.dec).unwrap();
        let epoch = entry.epoch;

        let candidates = htm.search(center, radius_rad);
        if opts.touch_cache {
            for cand in &candidates {
                self.cache.touch_row(epoch, cand.row);
            }
        }
        resolve_range_candidates(&entry.table, ra_ci, dec_ci, center, radius_rad, &candidates)
    }

    /// [`Database::range_search`] plus the number of HTM candidates
    /// examined, so callers can report probe-pruning efficiency.
    pub fn range_search_counted(
        &mut self,
        table: &str,
        center: SkyPoint,
        radius_rad: f64,
        opts: ScanOptions,
    ) -> Result<(Vec<RangeSearchHit>, usize), StorageError> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        let htm = entry
            .htm
            .as_mut()
            .ok_or_else(|| StorageError::NoPositionIndex {
                table: table.to_string(),
            })?;
        let pos = entry
            .table
            .schema()
            .position
            .as_ref()
            .expect("htm index implies position metadata");
        let ra_ci = entry.table.schema().column_index(&pos.ra).unwrap();
        let dec_ci = entry.table.schema().column_index(&pos.dec).unwrap();
        let epoch = entry.epoch;

        let candidates = htm.search(center, radius_rad);
        if opts.touch_cache {
            for cand in &candidates {
                self.cache.touch_row(epoch, cand.row);
            }
        }
        let examined = candidates.len();
        let hits =
            resolve_range_candidates(&entry.table, ra_ci, dec_ci, center, radius_rad, &candidates)?;
        Ok((hits, examined))
    }

    /// Builds (or keeps) the columnar position snapshot for `table` at the
    /// database's zone height. A no-op when one is already cached; any
    /// insert invalidates it.
    pub fn ensure_columnar(&mut self, table: &str) -> Result<(), StorageError> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        let pos = entry.table.schema().position.as_ref().ok_or_else(|| {
            StorageError::NoPositionIndex {
                table: table.to_string(),
            }
        })?;
        let ra_ci = entry.table.schema().column_index(&pos.ra).unwrap();
        let dec_ci = entry.table.schema().column_index(&pos.dec).unwrap();
        if entry.columnar.is_none() {
            entry.columnar = Some(ColumnarPositions::build(
                &entry.table,
                ra_ci,
                dec_ci,
                self.zone_height,
            )?);
        }
        Ok(())
    }

    /// The cached columnar snapshot for `table`, if one is valid. Borrowed
    /// immutably so it can coexist with [`Database::table`]; call
    /// [`Database::ensure_columnar`] first.
    pub fn columnar_positions(&self, table: &str) -> Option<&ColumnarPositions> {
        self.tables.get(table).and_then(|e| e.columnar.as_ref())
    }

    /// Region search over a position-indexed table: like
    /// [`Database::range_search`] but for any convex region (polygon AREA
    /// extension). Returns qualifying row ids in ascending order.
    pub fn region_search(
        &mut self,
        table: &str,
        region: &dyn skyquery_htm::ConvexRegion,
        opts: ScanOptions,
    ) -> Result<Vec<RowId>, StorageError> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        let htm = entry
            .htm
            .as_mut()
            .ok_or_else(|| StorageError::NoPositionIndex {
                table: table.to_string(),
            })?;
        let pos = entry
            .table
            .schema()
            .position
            .as_ref()
            .expect("htm index implies position metadata");
        let ra_ci = entry.table.schema().column_index(&pos.ra).unwrap();
        let dec_ci = entry.table.schema().column_index(&pos.dec).unwrap();
        let epoch = entry.epoch;
        let mut rows = Vec::new();
        for cand in htm.search_region(region) {
            if opts.touch_cache {
                self.cache.touch_row(epoch, cand.row);
            }
            let row = entry.table.row(cand.row).expect("index row exists");
            match cand.kind {
                RangeKind::Full => rows.push(cand.row),
                RangeKind::Partial => {
                    let (ra, dec) = extract_position(table, row, ra_ci, dec_ci)?;
                    if region.contains(SkyPoint::from_radec_deg(ra, dec).to_vec3()) {
                        rows.push(cand.row);
                    }
                }
            }
        }
        rows.sort_unstable();
        Ok(rows)
    }

    /// Linear-scan range search (the no-HTM baseline for experiment E6).
    pub fn range_search_linear(
        &mut self,
        table: &str,
        center: SkyPoint,
        radius_rad: f64,
        opts: ScanOptions,
    ) -> Result<Vec<RangeSearchHit>, StorageError> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        let pos = entry.table.schema().position.as_ref().ok_or_else(|| {
            StorageError::NoPositionIndex {
                table: table.to_string(),
            }
        })?;
        let ra_ci = entry.table.schema().column_index(&pos.ra).unwrap();
        let dec_ci = entry.table.schema().column_index(&pos.dec).unwrap();
        let epoch = entry.epoch;
        let mut hits = Vec::new();
        for (rid, row) in entry.table.iter() {
            if opts.touch_cache {
                self.cache.touch_row(epoch, rid);
            }
            let (ra, dec) = extract_position(table, row, ra_ci, dec_ci)?;
            let sep = SkyPoint::from_radec_deg(ra, dec).separation(center);
            if sep <= radius_rad + 1e-15 {
                hits.push(RangeSearchHit {
                    row: rid,
                    separation_rad: sep,
                });
            }
        }
        Ok(hits)
    }

    /// Equality probe via a B-tree index if one exists, else a scan.
    pub fn lookup_eq(
        &mut self,
        table: &str,
        column: &str,
        value: &Value,
        opts: ScanOptions,
    ) -> Result<Vec<RowId>, StorageError> {
        let entry = self.entry(table)?;
        if let Some(idx) = entry.btrees.get(column) {
            let rids = idx.lookup(value).to_vec();
            if opts.touch_cache {
                let epoch = entry.epoch;
                for &rid in &rids {
                    self.cache.touch_row(epoch, rid);
                }
            }
            return Ok(rids);
        }
        let ci = entry.table.schema().column_index(column).ok_or_else(|| {
            StorageError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            }
        })?;
        self.scan_filter(table, opts, |_, row| row[ci].sql_eq(value).unwrap_or(false))
    }

    /// Buffer-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Clears the buffer-cache counters (pages stay resident).
    pub fn reset_cache_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Simulates a cold restart of the archive's buffer pool.
    pub fn cold_cache(&mut self) {
        self.cache.clear();
    }

    /// The table's monotonic modification version (bumped by every
    /// insert). The cross-match result cache keys on this number.
    pub fn table_version(&self, table: &str) -> Result<u64, StorageError> {
        self.entry(table).map(|e| e.version)
    }

    /// Catalog of all permanent tables — the Meta-data service payload.
    pub fn catalog(&self) -> Catalog {
        let mut tables: Vec<TableStats> = self
            .tables
            .values()
            .filter(|e| !e.temp)
            .map(|e| TableStats {
                schema: e.table.schema().clone(),
                row_count: e.table.len(),
                approx_bytes: e.table.approx_bytes(),
                version: e.version,
            })
            .collect();
        tables.sort_by(|a, b| a.schema.name.cmp(&b.schema.name));
        Catalog {
            database: self.name.clone(),
            tables,
        }
    }
}

/// Distance-tests HTM candidates against a table's stored positions,
/// returning qualifying hits sorted by row id. `Full`-kind candidates are
/// accepted outright; `Partial`-kind ones are re-tested against the
/// radius. Factored out of [`Database::range_search`] so the parallel
/// zone engine, probing per-zone indexes through shared references, runs
/// the exact same classification — the two paths must agree bit-for-bit.
pub fn resolve_range_candidates(
    table: &Table,
    ra_ci: usize,
    dec_ci: usize,
    center: SkyPoint,
    radius_rad: f64,
    candidates: &[crate::index::HtmCandidate],
) -> Result<Vec<RangeSearchHit>, StorageError> {
    let mut hits = Vec::new();
    resolve_range_candidates_into(
        table, ra_ci, dec_ci, center, radius_rad, candidates, &mut hits,
    )?;
    Ok(hits)
}

/// Buffer-reusing variant of [`resolve_range_candidates`]: clears `hits`
/// and fills it in place, so a long probe loop can amortize the hit
/// allocation the same way the columnar kernel's scratch does.
#[allow(clippy::too_many_arguments)] // mirrors resolve_range_candidates + sink
pub fn resolve_range_candidates_into(
    table: &Table,
    ra_ci: usize,
    dec_ci: usize,
    center: SkyPoint,
    radius_rad: f64,
    candidates: &[crate::index::HtmCandidate],
    hits: &mut Vec<RangeSearchHit>,
) -> Result<(), StorageError> {
    hits.clear();
    for cand in candidates {
        let row = table.row(cand.row).expect("index row exists");
        let (ra, dec) = extract_position(table.name(), row, ra_ci, dec_ci)?;
        let sep = SkyPoint::from_radec_deg(ra, dec).separation(center);
        match cand.kind {
            RangeKind::Full => hits.push(RangeSearchHit {
                row: cand.row,
                separation_rad: sep,
            }),
            RangeKind::Partial => {
                if sep <= radius_rad + 1e-15 {
                    hits.push(RangeSearchHit {
                        row: cand.row,
                        separation_rad: sep,
                    });
                }
            }
        }
    }
    hits.sort_by_key(|h| h.row);
    Ok(())
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("tables", &self.tables.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, PositionColumns};

    fn primary_schema() -> TableSchema {
        TableSchema::new(
            "photo_object",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
                ColumnDef::new("type", DataType::Text),
                ColumnDef::new("i_flux", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 12))
        .unwrap()
    }

    fn demo_db() -> Database {
        let mut db = Database::new("SDSS");
        db.create_table(primary_schema()).unwrap();
        let rows = vec![
            (1u64, 185.0, -0.5, "GALAXY", 21.0),
            (2, 185.001, -0.5005, "STAR", 19.0),
            (3, 185.002, -0.499, "GALAXY", 22.5),
            (4, 200.0, 10.0, "GALAXY", 18.0),
            (5, 30.0, -30.0, "STAR", 17.0),
        ];
        for (id, ra, dec, ty, flux) in rows {
            db.insert(
                "photo_object",
                vec![
                    Value::Id(id),
                    Value::Float(ra),
                    Value::Float(dec),
                    Value::Text(ty.into()),
                    Value::Float(flux),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn create_insert_count() {
        let mut db = demo_db();
        assert_eq!(db.row_count("photo_object").unwrap(), 5);
        assert!(db.create_table(primary_schema()).is_err(), "duplicate");
        assert!(db.row_count("nope").is_err());
        let galaxies = db
            .count_where("photo_object", ScanOptions::default(), |s, row| {
                let ci = s.column_index("type").unwrap();
                row[ci]
                    .sql_eq(&Value::Text("GALAXY".into()))
                    .unwrap_or(false)
            })
            .unwrap();
        assert_eq!(galaxies, 3);
    }

    #[test]
    fn range_search_matches_linear_baseline() {
        let mut db = demo_db();
        let center = SkyPoint::from_radec_deg(185.0, -0.5);
        let radius = (10.0 / 60.0_f64).to_radians(); // 10 arcmin
        let fast = db
            .range_search("photo_object", center, radius, ScanOptions::untracked())
            .unwrap();
        let slow = db
            .range_search_linear("photo_object", center, radius, ScanOptions::untracked())
            .unwrap();
        let f: Vec<RowId> = fast.iter().map(|h| h.row).collect();
        let s: Vec<RowId> = slow.iter().map(|h| h.row).collect();
        assert_eq!(f, s);
        assert_eq!(f, vec![0, 1, 2]);
    }

    #[test]
    fn range_search_requires_position_index() {
        let mut db = Database::new("x");
        db.create_table(TableSchema::new(
            "plain",
            vec![ColumnDef::new("a", DataType::Int)],
        ))
        .unwrap();
        let err = db.range_search(
            "plain",
            SkyPoint::from_radec_deg(0.0, 0.0),
            0.1,
            ScanOptions::default(),
        );
        assert!(matches!(err, Err(StorageError::NoPositionIndex { .. })));
    }

    #[test]
    fn temp_table_lifecycle() {
        let mut db = Database::new("node");
        let schema = TableSchema::new(
            "partial_results",
            vec![
                ColumnDef::new("tuple_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 10))
        .unwrap();
        let t1 = db.create_temp_table(schema.clone()).unwrap();
        let t2 = db.create_temp_table(schema).unwrap();
        assert_ne!(t1, t2, "temp names must be unique");
        db.insert(
            &t1,
            vec![Value::Id(9), Value::Float(1.0), Value::Float(2.0)],
        )
        .unwrap();
        assert_eq!(db.row_count(&t1).unwrap(), 1);
        db.drop_table(&t1).unwrap();
        assert!(db.row_count(&t1).is_err());
        assert!(db.drop_table(&t1).is_err());
        // Temp tables are excluded from the catalog.
        assert!(db.catalog().tables.is_empty());
    }

    #[test]
    fn btree_speeds_equality_lookup() {
        let mut db = demo_db();
        db.create_btree_index("photo_object", "type").unwrap();
        let rids = db
            .lookup_eq(
                "photo_object",
                "type",
                &Value::Text("STAR".into()),
                ScanOptions::untracked(),
            )
            .unwrap();
        assert_eq!(rids, vec![1, 4]);
        // Index stays consistent across inserts.
        db.insert(
            "photo_object",
            vec![
                Value::Id(6),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Text("STAR".into()),
                Value::Float(1.0),
            ],
        )
        .unwrap();
        let rids = db
            .lookup_eq(
                "photo_object",
                "type",
                &Value::Text("STAR".into()),
                ScanOptions::untracked(),
            )
            .unwrap();
        assert_eq!(rids, vec![1, 4, 5]);
    }

    #[test]
    fn cache_warming_observable() {
        let mut db = demo_db();
        db.cold_cache();
        let center = SkyPoint::from_radec_deg(185.0, -0.5);
        let radius = (10.0 / 60.0_f64).to_radians();
        // Cold run: misses.
        db.range_search("photo_object", center, radius, ScanOptions::default())
            .unwrap();
        let cold = db.cache_stats();
        assert!(cold.misses > 0);
        // Warm re-run: all hits.
        db.reset_cache_stats();
        db.range_search("photo_object", center, radius, ScanOptions::default())
            .unwrap();
        let warm = db.cache_stats();
        assert_eq!(warm.misses, 0);
        assert!(warm.hits > 0);
    }

    #[test]
    fn catalog_reports_tables() {
        let db = demo_db();
        let cat = db.catalog();
        assert_eq!(cat.database, "SDSS");
        assert_eq!(cat.tables.len(), 1);
        assert_eq!(cat.tables[0].schema.name, "photo_object");
        assert_eq!(cat.tables[0].row_count, 5);
        assert!(cat.tables[0].approx_bytes > 0);
    }

    #[test]
    fn columnar_cache_built_reused_and_invalidated() {
        use crate::columnar::ProbeScratch;
        let mut db = demo_db();
        assert!(db.columnar_positions("photo_object").is_none());
        assert_eq!(db.zone_height(), DEFAULT_ZONE_HEIGHT_DEG);
        db.set_zone_height(0.5);
        db.ensure_columnar("photo_object").unwrap();
        let built = db.columnar_positions("photo_object").unwrap();
        assert_eq!(built.len(), 5);
        assert_eq!(built.height_deg(), 0.5);

        // The columnar probe agrees with the HTM range search.
        let center = SkyPoint::from_radec_deg(185.0, -0.5);
        let radius = (10.0 / 60.0_f64).to_radians();
        let mut scratch = ProbeScratch::new();
        db.columnar_positions("photo_object")
            .unwrap()
            .probe(center, radius, &mut scratch);
        let htm = db
            .range_search("photo_object", center, radius, ScanOptions::untracked())
            .unwrap();
        assert_eq!(scratch.hits(), htm.as_slice());

        // A new zone height drops the snapshot and the next build uses
        // it; an insert invalidates.
        db.set_zone_height(1.0);
        assert!(db.columnar_positions("photo_object").is_none());
        db.ensure_columnar("photo_object").unwrap();
        assert_eq!(
            db.columnar_positions("photo_object").unwrap().height_deg(),
            1.0
        );
        db.insert(
            "photo_object",
            vec![
                Value::Id(6),
                Value::Float(1.0),
                Value::Float(1.0),
                Value::Text("STAR".into()),
                Value::Float(1.0),
            ],
        )
        .unwrap();
        assert!(db.columnar_positions("photo_object").is_none());
        db.ensure_columnar("photo_object").unwrap();
        assert_eq!(db.columnar_positions("photo_object").unwrap().len(), 6);
    }

    #[test]
    fn ensure_columnar_requires_position_metadata() {
        let mut db = Database::new("x");
        db.create_table(TableSchema::new(
            "plain",
            vec![ColumnDef::new("a", DataType::Int)],
        ))
        .unwrap();
        assert!(matches!(
            db.ensure_columnar("plain"),
            Err(StorageError::NoPositionIndex { .. })
        ));
        assert!(matches!(
            db.ensure_columnar("missing"),
            Err(StorageError::UnknownTable { .. })
        ));
    }

    #[test]
    fn range_search_counted_matches_range_search() {
        let mut db = demo_db();
        let center = SkyPoint::from_radec_deg(185.0, -0.5);
        let radius = (10.0 / 60.0_f64).to_radians();
        let plain = db
            .range_search("photo_object", center, radius, ScanOptions::untracked())
            .unwrap();
        let (counted, examined) = db
            .range_search_counted("photo_object", center, radius, ScanOptions::untracked())
            .unwrap();
        assert_eq!(plain, counted);
        assert!(examined >= counted.len());
    }

    #[test]
    fn insert_invalid_position_rejected() {
        let mut db = Database::new("x");
        db.create_table(primary_schema()).unwrap();
        let err = db.insert(
            "photo_object",
            vec![
                Value::Id(1),
                Value::Float(f64::INFINITY),
                Value::Float(0.0),
                Value::Text("GALAXY".into()),
                Value::Float(0.0),
            ],
        );
        assert!(matches!(err, Err(StorageError::InvalidPosition { .. })));
    }
}
