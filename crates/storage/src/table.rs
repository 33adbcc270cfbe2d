//! Row storage.

use crate::error::StorageError;
use crate::schema::TableSchema;
use crate::value::Value;

/// A row is an ordered vector of values matching the table schema.
pub type Row = Vec<Value>;

/// Index of a row within its table.
pub type RowId = usize;

/// An append-only in-memory table. Deletion is whole-table only (temp
/// tables are dropped, never trimmed), which keeps `RowId`s stable — the
/// property the HTM and B-tree indexes rely on.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Row>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Validates and appends a row, returning its `RowId`.
    pub fn insert(&mut self, row: Row) -> Result<RowId, StorageError> {
        let row = self.schema.conform_row(row)?;
        self.rows.push(row);
        Ok(self.rows.len() - 1)
    }

    /// Appends a row that has already been validated against this table's
    /// schema (via [`TableSchema::conform_row`]). Callers that must run
    /// checks *between* validation and insertion (e.g. position extraction)
    /// use this to stay atomic.
    pub(crate) fn insert_conformed(&mut self, row: Row) -> RowId {
        debug_assert_eq!(row.len(), self.schema.arity());
        self.rows.push(row);
        self.rows.len() - 1
    }

    /// The row with the given id, if it exists.
    pub fn row(&self, id: RowId) -> Option<&Row> {
        self.rows.get(id)
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The value at `(row, column name)`.
    pub fn value(&self, id: RowId, column: &str) -> Option<&Value> {
        let ci = self.schema.column_index(column)?;
        self.rows.get(id).map(|r| &r[ci])
    }

    /// Iterator over `(RowId, &Row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().enumerate()
    }

    /// Approximate in-memory/wire footprint of the whole table in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(Value::wire_size).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn table() -> Table {
        Table::new(TableSchema::new(
            "obj",
            vec![
                ColumnDef::new("id", DataType::Id),
                ColumnDef::new("mag", DataType::Float),
                ColumnDef::new("label", DataType::Text).nullable(),
            ],
        ))
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = table();
        let r0 = t
            .insert(vec![Value::Id(1), Value::Float(17.5), Value::Null])
            .unwrap();
        let r1 = t
            .insert(vec![Value::Id(2), Value::Int(18), Value::Text("x".into())])
            .unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(t.len(), 2);
        // Int(18) coerced into Float column.
        assert_eq!(t.value(1, "mag"), Some(&Value::Float(18.0)));
        assert_eq!(t.value(0, "label"), Some(&Value::Null));
        assert_eq!(t.value(0, "missing"), None);
        assert_eq!(t.row(5), None);
    }

    #[test]
    fn insert_all_stops_on_error() {
        // A bulk load is a run of inserts that stops at the first invalid row.
        let mut t = table();
        let res: Result<Vec<RowId>, _> = [
            vec![Value::Id(1), Value::Float(1.0), Value::Null],
            vec![Value::Null, Value::Float(2.0), Value::Null], // null id
            vec![Value::Id(3), Value::Float(3.0), Value::Null],
        ]
        .into_iter()
        .map(|row| t.insert(row))
        .collect();
        assert!(res.is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn approx_bytes_grows() {
        let mut t = table();
        let empty = t.approx_bytes();
        t.insert(vec![
            Value::Id(1),
            Value::Float(1.0),
            Value::Text("hello".into()),
        ])
        .unwrap();
        assert!(t.approx_bytes() > empty);
    }
}
