//! Table schemas.
//!
//! SkyNode databases "usually have very similar logical schemas" (§5.1): a
//! primary table stores each object's unique sky position; secondary tables
//! store other observations. [`PositionColumns`] records which columns of a
//! table carry the position so the engine can answer range searches.

use crate::error::StorageError;

/// Column data types supported by the archive engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// Signed 64-bit integer.
    Int,
    /// 64-bit floating point.
    Float,
    /// UTF-8 text.
    Text,
    /// Unsigned 64-bit identifier (object IDs, HTM IDs).
    Id,
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Id => "ID",
        };
        write!(f, "{s}")
    }
}

impl DataType {
    /// Parses the textual form produced by `Display` (case-insensitive).
    pub fn parse(s: &str) -> Option<DataType> {
        match s.to_ascii_uppercase().as_str() {
            "BOOL" => Some(DataType::Bool),
            "INT" => Some(DataType::Int),
            "FLOAT" => Some(DataType::Float),
            "TEXT" => Some(DataType::Text),
            "ID" => Some(DataType::Id),
            _ => None,
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Stored type.
    pub dtype: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

impl ColumnDef {
    /// A NOT NULL column of the given type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// Marks the column as allowing NULLs.
    pub fn nullable(mut self) -> ColumnDef {
        self.nullable = true;
        self
    }
}

/// Which columns of a table carry the object's sky position.
///
/// When present, the engine answers the range searches of §5.4 over
/// `(ra, dec)`: region reads through its zone layout, and the oracle's
/// range search through an HTM index at the given mesh depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionColumns {
    /// Name of the right-ascension column (degrees, FLOAT).
    pub ra: String,
    /// Name of the declination column (degrees, FLOAT).
    pub dec: String,
    /// HTM mesh depth for the position index.
    pub htm_depth: u8,
}

impl PositionColumns {
    /// Names the position columns and the index depth.
    pub fn new(ra: impl Into<String>, dec: impl Into<String>, htm_depth: u8) -> Self {
        PositionColumns {
            ra: ra.into(),
            dec: dec.into(),
            htm_depth,
        }
    }
}

/// A table schema: named, ordered columns plus optional position metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Position metadata, when this is a primary (sky-position) table.
    pub position: Option<PositionColumns>,
}

impl TableSchema {
    /// A schema without position metadata.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns,
            position: None,
        }
    }

    /// Attaches position metadata (making this a "primary table" in the
    /// paper's sense), validating the referenced columns exist and are
    /// FLOAT typed.
    pub fn with_position(mut self, pos: PositionColumns) -> Result<TableSchema, StorageError> {
        for col in [&pos.ra, &pos.dec] {
            match self.column(col) {
                None => {
                    return Err(StorageError::UnknownColumn {
                        table: self.name.clone(),
                        column: col.clone(),
                    })
                }
                Some(def) if def.dtype != DataType::Float => {
                    return Err(StorageError::TypeMismatch {
                        context: format!(
                            "position column {col} of table {} must be FLOAT, is {}",
                            self.name, def.dtype
                        ),
                    })
                }
                Some(_) => {}
            }
        }
        self.position = Some(pos);
        Ok(self)
    }

    /// Index of a column by name (case-sensitive), if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validates that a row conforms to this schema (arity, types,
    /// nullability) and coerces values into column storage types.
    pub(crate) fn conform_row(
        &self,
        row: Vec<crate::Value>,
    ) -> Result<Vec<crate::Value>, StorageError> {
        if row.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        row.into_iter()
            .zip(&self.columns)
            .map(|(v, col)| {
                if v.is_null() && !col.nullable {
                    return Err(StorageError::NullViolation {
                        table: self.name.clone(),
                        column: col.name.clone(),
                    });
                }
                v.coerce(col.dtype)
                    .ok_or_else(|| StorageError::TypeMismatch {
                        context: format!("column {}.{} expects {}", self.name, col.name, col.dtype),
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn demo_schema() -> TableSchema {
        TableSchema::new(
            "photo_object",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
                ColumnDef::new("type", DataType::Text).nullable(),
            ],
        )
    }

    #[test]
    fn column_lookup() {
        let s = demo_schema();
        assert_eq!(s.column_index("ra"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column("type").unwrap().dtype, DataType::Text);
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn with_position_validates() {
        let ok = demo_schema().with_position(PositionColumns::new("ra", "dec", 10));
        assert!(ok.is_ok());
        let bad_col = demo_schema().with_position(PositionColumns::new("nope", "dec", 10));
        assert!(matches!(bad_col, Err(StorageError::UnknownColumn { .. })));
        let bad_type = demo_schema().with_position(PositionColumns::new("object_id", "dec", 10));
        assert!(matches!(bad_type, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn conform_row_checks_arity_nullability_types() {
        let s = demo_schema();
        let ok = s.conform_row(vec![
            Value::Int(5),
            Value::Float(185.0),
            Value::Float(-0.5),
            Value::Null,
        ]);
        // Int(5) coerces to Id(5) for the ID column.
        assert_eq!(ok.unwrap()[0], Value::Id(5));

        let short = s.conform_row(vec![Value::Int(5)]);
        assert!(matches!(short, Err(StorageError::ArityMismatch { .. })));

        let null_id = s.conform_row(vec![
            Value::Null,
            Value::Float(0.0),
            Value::Float(0.0),
            Value::Null,
        ]);
        assert!(matches!(null_id, Err(StorageError::NullViolation { .. })));

        let bad_type = s.conform_row(vec![
            Value::Int(1),
            Value::Text("x".into()),
            Value::Float(0.0),
            Value::Null,
        ]);
        assert!(matches!(bad_type, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn datatype_parse_roundtrip() {
        for ty in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Id,
        ] {
            assert_eq!(DataType::parse(&ty.to_string()), Some(ty));
        }
        assert_eq!(DataType::parse("VARCHAR"), None);
    }
}
