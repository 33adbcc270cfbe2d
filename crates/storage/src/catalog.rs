//! Catalog snapshots: what the Meta-data service ships to the Portal.

use crate::schema::TableSchema;

/// Statistics and schema for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// The table's full schema.
    pub schema: TableSchema,
    /// Number of rows at snapshot time.
    pub row_count: usize,
    /// Approximate wire/memory size of the table, bytes.
    pub approx_bytes: usize,
    /// Monotonic modification version at snapshot time: bumped by every
    /// insert, never reset. Two snapshots with equal versions saw the
    /// same table contents (tables are append-only), so cached results
    /// keyed by this number validate without re-reading rows.
    pub version: u64,
}

/// A snapshot of an archive database's permanent tables.
///
/// When a SkyNode registers with the Portal, the Portal "calls the Meta-data
/// service … responsible for providing complete schema information to the
/// Portal, which the Portal catalogs" (§5.1). This is that payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// The archive database's name.
    pub database: String,
    /// Per-table schema and statistics, sorted by table name.
    pub tables: Vec<TableStats>,
}

impl Catalog {
    /// Stats for a table by name.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.iter().find(|t| t.schema.name == name)
    }

    /// The first table carrying position metadata — by the paper's schema
    /// convention, the archive's primary table.
    pub fn primary_table(&self) -> Option<&TableStats> {
        self.tables.iter().find(|t| t.schema.position.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, PositionColumns};

    fn catalog() -> Catalog {
        let primary = TableSchema::new(
            "photo_primary",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 10))
        .unwrap();
        let spectra = TableSchema::new("spectra", vec![ColumnDef::new("object_id", DataType::Id)]);
        Catalog {
            database: "TWOMASS".into(),
            tables: vec![
                TableStats {
                    schema: spectra,
                    row_count: 10,
                    approx_bytes: 80,
                    version: 10,
                },
                TableStats {
                    schema: primary,
                    row_count: 100,
                    approx_bytes: 2400,
                    version: 100,
                },
            ],
        }
    }

    #[test]
    fn lookup_by_name() {
        let c = catalog();
        assert!(c.table("spectra").is_some());
        assert!(c.table("nope").is_none());
        let names: Vec<&str> = c.tables.iter().map(|t| t.schema.name.as_str()).collect();
        assert_eq!(names, vec!["spectra", "photo_primary"]);
    }

    #[test]
    fn primary_table_is_positioned() {
        let c = catalog();
        assert_eq!(c.primary_table().unwrap().schema.name, "photo_primary");
    }
}
