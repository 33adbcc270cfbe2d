//! Archive metadata: the payloads of the Information and Meta-data
//! services, and the Portal's catalog of registered SkyNodes.

use skyquery_storage::{Catalog, ColumnDef, DataType, PositionColumns, TableSchema, TableStats};
use skyquery_xml::Element;

use crate::error::{attr, checked, expect_element, parsed, FederationError, Result};

/// A declination-zone range — the first-class addressing unit for shards
/// of one logical archive. An archive split across several SkyNodes
/// publishes, per shard, the contiguous range of declination it owns, on
/// the same fixed zone grid the partitioner and the columnar store pin
/// (`floor((dec + 90) / height)` bands from dec −90°).
///
/// The range is half-open at the top (`dec_lo ≤ dec < dec_hi`) except
/// that a range ending at +90° also owns the pole itself, so a shard
/// group whose extents tile `[−90°, +90°]` covers every object exactly
/// once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneExtent {
    /// Inclusive lower declination bound, degrees.
    pub dec_lo_deg: f64,
    /// Exclusive upper declination bound, degrees (inclusive at +90°).
    pub dec_hi_deg: f64,
}

impl ZoneExtent {
    /// A validated extent: bounds must be finite and non-empty.
    pub fn new(dec_lo_deg: f64, dec_hi_deg: f64) -> Result<ZoneExtent> {
        if !dec_lo_deg.is_finite() || !dec_hi_deg.is_finite() || dec_lo_deg >= dec_hi_deg {
            return Err(FederationError::protocol(format!(
                "ZoneExtent [{dec_lo_deg}, {dec_hi_deg}) is not a finite non-empty range"
            )));
        }
        Ok(ZoneExtent {
            dec_lo_deg,
            dec_hi_deg,
        })
    }

    /// The whole sky — what an unsharded archive owns.
    pub fn full_sky() -> ZoneExtent {
        ZoneExtent {
            dec_lo_deg: -90.0,
            dec_hi_deg: 90.0,
        }
    }

    /// Whether this extent covers the whole sky.
    pub fn is_full_sky(&self) -> bool {
        self.dec_lo_deg <= -90.0 && self.dec_hi_deg >= 90.0
    }

    /// Whether a declination falls inside this extent (half-open at the
    /// top, except at the +90° pole).
    pub fn contains_dec(&self, dec_deg: f64) -> bool {
        dec_deg >= self.dec_lo_deg
            && (dec_deg < self.dec_hi_deg || (dec_deg == 90.0 && self.dec_hi_deg >= 90.0))
    }

    /// Encodes as the optional `ZoneExtent` wire element carried inside
    /// Information payloads.
    pub fn to_element(&self) -> Element {
        Element::new("ZoneExtent")
            .with_attr("dec_lo", format!("{:?}", self.dec_lo_deg))
            .with_attr("dec_hi", format!("{:?}", self.dec_hi_deg))
    }

    /// Decodes the wire element, rejecting non-finite or empty ranges.
    pub fn from_element(e: &Element) -> Result<ZoneExtent> {
        expect_element(e, "ZoneExtent")?;
        let dec = |name| attr(e, name, checked(|v: &f64| v.is_finite()));
        let extent = ZoneExtent {
            dec_lo_deg: dec("dec_lo")?,
            dec_hi_deg: dec("dec_hi")?,
        };
        if extent.dec_lo_deg >= extent.dec_hi_deg {
            return Err(FederationError::protocol(format!(
                "ZoneExtent is empty: dec_lo {} >= dec_hi {}",
                extent.dec_lo_deg, extent.dec_hi_deg
            )));
        }
        Ok(extent)
    }
}

/// The astronomy-specific constants an archive publishes through its
/// Information service (§5.1: "object position estimation errors, the
/// name of primary table that stores the position of objects, etc.").
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveInfo {
    /// Archive (survey) name, e.g. `SDSS`.
    pub name: String,
    /// 1-σ positional measurement error of the survey, arcseconds.
    pub sigma_arcsec: f64,
    /// Name of the primary table holding object positions.
    pub primary_table: String,
    /// HTM mesh depth of the archive's position index.
    pub htm_depth: u8,
    /// The declination-zone range this node owns when it is one shard of
    /// a sharded archive. `None`, which an unsharded node publishes by
    /// omitting the `ZoneExtent` child, means the whole sky.
    pub extent: Option<ZoneExtent>,
}

impl ArchiveInfo {
    /// σ in radians (the unit the cross-match math uses).
    pub fn sigma_rad(&self) -> f64 {
        (self.sigma_arcsec / 3600.0).to_radians()
    }

    /// The zone range this node owns: its published extent, or the whole
    /// sky for an unsharded node.
    pub fn owned_extent(&self) -> ZoneExtent {
        self.extent.unwrap_or_else(ZoneExtent::full_sky)
    }

    /// Encodes as the Information service's wire payload: the
    /// `ZoneExtent` child only for a node that owns less than the whole
    /// sky.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("ArchiveInfo")
            .with_attr("name", self.name.clone())
            .with_attr("sigma_arcsec", format!("{:?}", self.sigma_arcsec))
            .with_attr("primary_table", self.primary_table.clone())
            .with_attr("htm_depth", self.htm_depth.to_string());
        if let Some(extent) = &self.extent {
            el = el.with_child(extent.to_element());
        }
        el
    }

    /// Decodes the Information service's wire payload. A missing
    /// `ZoneExtent` child means the node owns the whole sky; a
    /// present-but-malformed one is an error, not a silent full-sky
    /// fallback.
    pub fn from_element(e: &Element) -> Result<ArchiveInfo> {
        let extent = match e.children_named("ZoneExtent").next() {
            Some(ze) => Some(ZoneExtent::from_element(ze)?),
            None => None,
        };
        Ok(ArchiveInfo {
            name: attr(e, "name", Some)?.into(),
            // Positive and finite, as the plan's σ must be.
            sigma_arcsec: attr(
                e,
                "sigma_arcsec",
                checked(|v: &f64| v.is_finite() && *v > 0.0),
            )?,
            primary_table: attr(e, "primary_table", Some)?.into(),
            htm_depth: attr(e, "htm_depth", parsed)?,
            extent,
        })
    }
}

/// What [`Portal::register_node`](crate::Portal::register_node) hands
/// back: a summary of the registration, not the raw Information payload.
/// With sharded archives a registration is one shard joining a group, so
/// the interesting facts are the group-level ones — which logical archive
/// it joined, what zone range it owns, and how large the group now is.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// The logical archive the node registered under.
    pub archive: String,
    /// The zone range the registering node owns (full sky if it did not
    /// publish one).
    pub extent: ZoneExtent,
    /// How many physical shards the archive's group now has, including
    /// the one just registered.
    pub shard_count: usize,
    /// How many of those nodes own the *same* zone range as the
    /// registering node — its replica group, itself included. `1` means
    /// the node is the sole owner of its extent.
    pub replica_count: usize,
    /// Tables in the registering node's catalog.
    pub table_count: usize,
}

/// Encodes a storage catalog as the Meta-data service's XML payload.
pub fn catalog_to_element(cat: &Catalog) -> Element {
    let mut root = Element::new("Catalog").with_attr("database", cat.database.clone());
    for t in &cat.tables {
        let mut te = Element::new("Table")
            .with_attr("name", t.schema.name.clone())
            .with_attr("rows", t.row_count.to_string())
            .with_attr("bytes", t.approx_bytes.to_string())
            .with_attr("version", t.version.to_string());
        for c in &t.schema.columns {
            te = te.with_child(
                Element::new("Column")
                    .with_attr("name", c.name.clone())
                    .with_attr("type", c.dtype.to_string())
                    .with_attr("nullable", c.nullable.to_string()),
            );
        }
        if let Some(p) = &t.schema.position {
            te = te.with_child(
                Element::new("Position")
                    .with_attr("ra", p.ra.clone())
                    .with_attr("dec", p.dec.clone())
                    .with_attr("htm_depth", p.htm_depth.to_string()),
            );
        }
        root = root.with_child(te);
    }
    root
}

/// Decodes the Meta-data payload back into a catalog snapshot.
pub fn catalog_from_element(e: &Element) -> Result<Catalog> {
    expect_element(e, "Catalog")?;
    let database = attr(e, "database", Some)?.into();
    let mut tables = Vec::new();
    for te in e.children_named("Table") {
        let name = attr(te, "name", Some)?;
        let row_count = attr(te, "rows", parsed)?;
        let approx_bytes = attr(te, "bytes", parsed)?;
        let version = attr(te, "version", parsed)?;
        let mut columns = Vec::new();
        for ce in te.children_named("Column") {
            let def = ColumnDef::new(attr(ce, "name", Some)?, attr(ce, "type", DataType::parse)?);
            columns.push(if attr(ce, "nullable", parsed)? {
                def.nullable()
            } else {
                def
            });
        }
        let mut schema = TableSchema::new(name, columns);
        if let Some(pe) = te.children_named("Position").next() {
            let position = PositionColumns::new(
                attr(pe, "ra", Some)?,
                attr(pe, "dec", Some)?,
                attr(pe, "htm_depth", parsed)?,
            );
            schema = schema
                .with_position(position)
                .map_err(FederationError::Storage)?;
        }
        tables.push(TableStats {
            schema,
            row_count,
            approx_bytes,
            version,
        });
    }
    Ok(Catalog { database, tables })
}

/// Everything the Portal catalogs about one registered SkyNode.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisteredNode {
    /// The archive's survey constants.
    pub info: ArchiveInfo,
    /// SOAP endpoint of the node's services.
    pub url: skyquery_net::Url,
    /// The archive's schema catalog (from its Meta-data service).
    pub catalog: Catalog,
}

impl RegisteredNode {
    /// The schema of one of this archive's tables.
    pub fn table_schema(&self, table: &str) -> Option<&TableSchema> {
        self.catalog.table(table).map(|t| &t.schema)
    }

    /// The zone range this physical node owns (full sky when unsharded).
    pub fn extent(&self) -> ZoneExtent {
        self.info.owned_extent()
    }

    /// The version of one of this archive's tables as last catalogued,
    /// the name matched without regard to case.
    pub fn table_version(&self, table: &str) -> Option<u64> {
        self.catalog
            .tables
            .iter()
            .find(|t| t.schema.name.eq_ignore_ascii_case(table))
            .map(|t| t.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> ArchiveInfo {
        ArchiveInfo {
            name: "SDSS".into(),
            sigma_arcsec: 0.1,
            primary_table: "Photo_Object".into(),
            htm_depth: 12,
            extent: None,
        }
    }

    #[test]
    fn archive_info_roundtrip() {
        let i = info();
        let back = ArchiveInfo::from_element(&i.to_element()).unwrap();
        assert_eq!(back, i);
        assert!((i.sigma_rad() - (0.1 / 3600.0_f64).to_radians()).abs() < 1e-18);
    }

    #[test]
    fn archive_info_rejects_missing_fields() {
        let e = Element::new("ArchiveInfo").with_attr("name", "X");
        assert!(ArchiveInfo::from_element(&e).is_err());
    }

    #[test]
    fn archive_info_extent_roundtrip() {
        // A sharded node's Information payload carries its zone range.
        let mut i = info();
        i.extent = Some(ZoneExtent {
            dec_lo_deg: -90.0,
            dec_hi_deg: 0.3,
        });
        let back = ArchiveInfo::from_element(&i.to_element()).unwrap();
        assert_eq!(back, i);
        assert_eq!(
            back.owned_extent(),
            ZoneExtent {
                dec_lo_deg: -90.0,
                dec_hi_deg: 0.3,
            }
        );
    }

    #[test]
    fn archive_info_without_extent_means_full_sky() {
        // An unsharded node writes no ZoneExtent child and owns the whole
        // sky.
        let back = ArchiveInfo::from_element(&info().to_element()).unwrap();
        assert_eq!(back.extent, None);
        assert!(back.owned_extent().is_full_sky());
    }

    #[test]
    fn archive_info_rejects_malformed_extent() {
        // A present-but-garbled extent is an error, never a silent
        // full-sky fallback — that would double-count a shard's rows.
        for child in [
            Element::new("ZoneExtent").with_attr("dec_lo", "0.0"),
            Element::new("ZoneExtent")
                .with_attr("dec_lo", "NaN")
                .with_attr("dec_hi", "1.0"),
            Element::new("ZoneExtent")
                .with_attr("dec_lo", "0.0")
                .with_attr("dec_hi", "garbage"),
            Element::new("ZoneExtent")
                .with_attr("dec_lo", "5.0")
                .with_attr("dec_hi", "5.0"),
        ] {
            let el = info().to_element().with_child(child);
            assert!(ArchiveInfo::from_element(&el).is_err());
        }
    }

    #[test]
    fn zone_extent_semantics() {
        let full = ZoneExtent::full_sky();
        assert!(full.is_full_sky());
        assert!(full.contains_dec(-90.0));
        assert!(full.contains_dec(90.0));
        let band = ZoneExtent {
            dec_lo_deg: 0.0,
            dec_hi_deg: 45.0,
        };
        assert!(!band.is_full_sky());
        assert!(band.contains_dec(0.0));
        assert!(band.contains_dec(44.999));
        assert!(!band.contains_dec(45.0), "half-open at the top");
        assert!(!band.contains_dec(-0.001));
        // The topmost band of a tiling owns the pole itself.
        let top = ZoneExtent {
            dec_lo_deg: 45.0,
            dec_hi_deg: 90.0,
        };
        assert!(top.contains_dec(90.0));
        // Round-trip.
        assert_eq!(ZoneExtent::from_element(&band.to_element()).unwrap(), band);
        assert!(ZoneExtent::from_element(&Element::new("NotExtent")).is_err());
    }

    #[test]
    fn catalog_roundtrip() {
        let schema = TableSchema::new(
            "Photo_Object",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
                ColumnDef::new("type", DataType::Text).nullable(),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 12))
        .unwrap();
        let cat = Catalog {
            database: "SDSS".into(),
            tables: vec![TableStats {
                schema,
                row_count: 123,
                approx_bytes: 4567,
                version: 123,
            }],
        };
        let back = catalog_from_element(&catalog_to_element(&cat)).unwrap();
        assert_eq!(back, cat);
    }

    /// A one-table, one-column catalog as its writer writes it, with
    /// attribute `name` of the element named `on` set to `value`, or
    /// removed for `None`.
    fn catalog_with(on: &str, name: &str, value: Option<&str>) -> Element {
        let cat = Catalog {
            database: "X".into(),
            tables: vec![TableStats {
                schema: TableSchema::new("t", vec![ColumnDef::new("c", DataType::Float)]),
                row_count: 1,
                approx_bytes: 8,
                version: 1,
            }],
        };
        let mut el = catalog_to_element(&cat);
        let table = &mut el.children[0];
        let target = if on == "Table" {
            table
        } else {
            &mut table.children[0]
        };
        target.attributes.retain(|(k, _)| k != name);
        if let Some(v) = value {
            target.attributes.push((name.into(), v.into()));
        }
        el
    }

    #[test]
    fn malformed_wire_catalog_attributes_are_refused() {
        // (element, attribute, well-formed value, garbled values): a
        // garbled one is refused, never read as zero — a zero would skew
        // the planner's size estimates, or validate stale cache entries
        // against a table that has actually changed.
        type Read = fn(&TableStats) -> bool;
        let rows: [(&str, &str, &str, Read, &[&str]); 3] = [
            (
                "Table",
                "bytes",
                "4567",
                |t| t.approx_bytes == 4567,
                &["zz", "-3", "1.5", "not-a-number"],
            ),
            (
                "Table",
                "version",
                "42",
                |t| t.version == 42,
                &["zz", "-3", "", "not-a-number"],
            ),
            (
                "Column",
                "nullable",
                "true",
                |t| t.schema.columns[0].nullable,
                &["yes", "1", ""],
            ),
        ];
        for (on, name, good, read, garbled) in rows {
            let cat = catalog_from_element(&catalog_with(on, name, Some(good))).unwrap();
            assert!(read(&cat.tables[0]), "{on} {name}={good:?}");
            for value in garbled {
                match catalog_from_element(&catalog_with(on, name, Some(value))) {
                    Err(FederationError::Protocol { detail }) => {
                        assert!(detail.contains(name), "{detail}")
                    }
                    other => panic!("{on} {name}={value:?} decoded to {other:?}"),
                }
            }
        }
        // An archive's σ is required and, as a plan step's is, positive
        // and finite.
        for value in [
            None,
            Some("zz"),
            Some("NaN"),
            Some("inf"),
            Some("0"),
            Some("-3.5"),
        ] {
            let mut el = info().to_element();
            el.attributes.retain(|(k, _)| k != "sigma_arcsec");
            if let Some(v) = value {
                el.attributes.push(("sigma_arcsec".into(), v.into()));
            }
            match ArchiveInfo::from_element(&el) {
                Err(FederationError::Protocol { detail }) => {
                    assert!(detail.contains("sigma_arcsec"), "{detail}")
                }
                other => panic!("sigma_arcsec={value:?} decoded to {other:?}"),
            }
        }
    }

    /// Refuses the catalog without attribute `name` of `on`, naming both.
    fn assert_refused_without(on: &str, name: &str) {
        match catalog_from_element(&catalog_with(on, name, None)) {
            Err(FederationError::Protocol { detail }) => {
                assert!(detail.contains(on) && detail.contains(name), "{detail}")
            }
            other => panic!("{on} without {name} decoded to {other:?}"),
        }
    }

    #[test]
    fn malformed_wire_catalog_table_without_bytes_is_refused() {
        assert_refused_without("Table", "bytes");
    }

    #[test]
    fn malformed_wire_catalog_table_without_version_is_refused() {
        assert_refused_without("Table", "version");
    }

    #[test]
    fn malformed_wire_catalog_column_without_nullable_is_refused() {
        assert_refused_without("Column", "nullable");
    }

    #[test]
    fn catalog_decode_rejects_malformed() {
        assert!(catalog_from_element(&Element::new("NotCatalog")).is_err());
        let missing_db = Element::new("Catalog");
        assert!(catalog_from_element(&missing_db).is_err());
        let bad_col = Element::new("Catalog")
            .with_attr("database", "X")
            .with_child(
                Element::new("Table")
                    .with_attr("name", "t")
                    .with_attr("rows", "1")
                    .with_child(
                        Element::new("Column")
                            .with_attr("name", "c")
                            .with_attr("type", "VARCHAR"),
                    ),
            );
        assert!(catalog_from_element(&bad_col).is_err());
    }
}
