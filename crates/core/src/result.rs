//! Result sets crossing the wire: typed rows ↔ VOTable payloads.

use skyquery_storage::{DataType, Row, Value};
use skyquery_xml::{VoCell, VoColumn, VoTable, VoType};

use crate::error::{FederationError, Result};

/// One column of a result set: a (possibly qualified) name plus type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultColumn {
    /// Output column name (often qualified, `alias.column`).
    pub name: String,
    /// Value type.
    pub dtype: DataType,
}

impl ResultColumn {
    /// A named, typed output column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> ResultColumn {
        ResultColumn {
            name: name.into(),
            dtype,
        }
    }
}

/// A materialized query result.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output columns.
    pub columns: Vec<ResultColumn>,
    /// Result rows, each matching `columns` in arity and type.
    pub rows: Vec<Row>,
    /// Partial-result honesty: `true` when the answer was computed
    /// without one or more unreachable archives (or shards of one) and
    /// is therefore complete-minus-those-filters, not wrong. Stamped by
    /// the Portal at relay time; `false` for a complete answer.
    pub degraded: bool,
    /// What a degraded answer dropped: archive names for wholly-skipped
    /// drop-out steps, `archive@host` for shards lost mid-scatter.
    /// Empty unless `degraded`.
    pub dropped_archives: Vec<String>,
}

/// Equality compares the data (columns and rows) only: the degradation
/// header is delivery metadata, and byte-identity checks between a
/// degraded answer and its healthy reference run must compare payloads.
impl PartialEq for ResultSet {
    fn eq(&self, other: &ResultSet) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl ResultSet {
    /// An empty result set with the given columns.
    pub fn new(columns: Vec<ResultColumn>) -> ResultSet {
        ResultSet {
            columns,
            rows: Vec::new(),
            degraded: false,
            dropped_archives: Vec::new(),
        }
    }

    /// Whether `other` is this very answer: the same columns, every cell
    /// the same to the bit (`==` holds `-0.0` equal to `0.0`, which
    /// print apart), and the same degradation header, which `==` skips.
    pub fn is_same_answer(&self, other: &ResultSet) -> bool {
        let same_cell = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        self.degraded == other.degraded
            && self.dropped_archives == other.dropped_archives
            && self.columns == other.columns
            && self.rows.len() == other.rows.len()
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_cell(x, y)))
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Index of an output column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Value at `(row, column name)`.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let ci = self.column_index(column)?;
        self.rows.get(row).map(|r| &r[ci])
    }

    /// Appends a row after arity checking.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(FederationError::protocol(format!(
                "result row arity {} != {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    /// Encodes into the VOTable wire payload: each value becomes its
    /// typed cell, formatted only when the table is written.
    pub fn to_votable(&self, name: &str) -> VoTable {
        let mut t = VoTable::new(name, vo_columns(&self.columns));
        t.rows = self
            .rows
            .iter()
            .map(|row| row.iter().map(vo_cell).collect())
            .collect();
        t
    }

    /// Decodes from the VOTable wire payload, moving each cell's value
    /// out of the table.
    pub fn from_votable(t: VoTable) -> Result<ResultSet> {
        let columns: Vec<ResultColumn> = t
            .columns
            .iter()
            .map(|c| ResultColumn::new(c.name.clone(), votype_to_dtype(c.vtype)))
            .collect();
        let mut rs = ResultSet::new(columns);
        rs.rows.reserve_exact(t.rows.len());
        for row in t.rows {
            let values: Result<Row> = row
                .into_iter()
                .zip(&t.columns)
                .map(|(cell, col)| cell_value(cell, col))
                .collect();
            rs.push_row(values?)?;
        }
        Ok(rs)
    }

    /// Renders an ASCII table (examples and traces).
    pub fn to_ascii(&self) -> String {
        let mut lines: Vec<Vec<String>> =
            vec![self.columns.iter().map(|c| c.name.clone()).collect()];
        lines.extend(
            self.rows
                .iter()
                .map(|r| r.iter().map(Value::to_string).collect()),
        );
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| lines.iter().map(|line| line[i].len()).max().unwrap_or(0))
            .collect();
        lines.insert(1, widths.iter().map(|w| "-".repeat(*w)).collect());
        let mut out = String::new();
        for line in lines {
            for (cell, w) in line.iter().zip(&widths) {
                out.push_str(&format!("{cell:<w$}  "));
            }
            out.push('\n');
        }
        out
    }
}

/// The wire declarations of `columns`.
pub(crate) fn vo_columns(columns: &[ResultColumn]) -> Vec<VoColumn> {
    columns
        .iter()
        .map(|c| VoColumn::new(c.name.clone(), dtype_to_votype(c.dtype)))
        .collect()
}

fn dtype_to_votype(d: DataType) -> VoType {
    match d {
        DataType::Bool => VoType::Bool,
        DataType::Int => VoType::Int,
        DataType::Float => VoType::Float,
        DataType::Text => VoType::Text,
        DataType::Id => VoType::Id,
    }
}

pub(crate) fn votype_to_dtype(v: VoType) -> DataType {
    match v {
        VoType::Bool => DataType::Bool,
        VoType::Int => DataType::Int,
        VoType::Float => DataType::Float,
        VoType::Text => DataType::Text,
        VoType::Id => DataType::Id,
    }
}

/// The typed cell of a value. A value travels in its own type's
/// form, so an `Int` in a `Float` column is written as the integer the
/// column's parse reads back as a double.
pub(crate) fn vo_cell(v: &Value) -> VoCell {
    match v {
        Value::Null => VoCell::Null,
        Value::Bool(b) => VoCell::Bool(*b),
        Value::Int(i) => VoCell::Int(*i),
        Value::Float(x) => VoCell::Float(*x),
        Value::Text(s) => VoCell::Text(s.clone()),
        Value::Id(u) => VoCell::Id(*u),
    }
}

/// The value of a cell of column `col`: a decoded cell is of its
/// column's type by construction, and any other is refused.
pub(crate) fn cell_value(cell: VoCell, col: &VoColumn) -> Result<Value> {
    Ok(match (cell, col.vtype) {
        (VoCell::Null, _) => Value::Null,
        (VoCell::Bool(b), VoType::Bool) => Value::Bool(b),
        (VoCell::Int(i), VoType::Int) => Value::Int(i),
        (VoCell::Float(x), VoType::Float) => Value::Float(x),
        (VoCell::Text(s), VoType::Text) => Value::Text(s),
        (VoCell::Id(u), VoType::Id) => Value::Id(u),
        (cell, vtype) => {
            return Err(FederationError::protocol(format!(
                "cell {cell:?} of column {} is not a {}",
                col.name,
                vtype.as_str()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ResultSet {
        let mut rs = ResultSet::new(vec![
            ResultColumn::new("O.object_id", DataType::Id),
            ResultColumn::new("O.ra", DataType::Float),
            ResultColumn::new("T.type", DataType::Text),
            ResultColumn::new("match", DataType::Bool),
        ]);
        rs.push_row(vec![
            Value::Id(42),
            Value::Float(185.0001234),
            Value::Text("GALAXY".into()),
            Value::Bool(true),
        ])
        .unwrap();
        rs.push_row(vec![
            Value::Id(43),
            Value::Float(-0.5),
            Value::Null,
            Value::Bool(false),
        ])
        .unwrap();
        rs
    }

    #[test]
    fn votable_roundtrip() {
        let rs = demo();
        let t = rs.to_votable("result");
        let back = ResultSet::from_votable(t).unwrap();
        assert_eq!(back, rs);
    }

    #[test]
    fn votable_roundtrip_through_xml() {
        let rs = demo();
        let xml = rs.to_votable("r").to_xml();
        let back = ResultSet::from_votable(VoTable::parse(&xml).unwrap()).unwrap();
        assert_eq!(back, rs);
    }

    #[test]
    fn arity_enforced() {
        let mut rs = ResultSet::new(vec![ResultColumn::new("a", DataType::Int)]);
        assert!(rs.push_row(vec![]).is_err());
        assert!(rs.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn value_lookup() {
        let rs = demo();
        assert_eq!(rs.value(0, "O.object_id"), Some(&Value::Id(42)));
        assert_eq!(rs.value(1, "T.type"), Some(&Value::Null));
        assert_eq!(rs.value(0, "missing"), None);
        assert_eq!(rs.value(9, "O.ra"), None);
    }

    #[test]
    fn ascii_rendering() {
        let text = demo().to_ascii();
        assert_eq!(
            text,
            "O.object_id  O.ra         T.type  match  \n\
             -----------  -----------  ------  -----  \n\
             42           185.0001234  GALAXY  true   \n\
             43           -0.5         NULL    false  \n"
        );
        assert!(text.contains("O.object_id"));
        assert!(text.contains("GALAXY"));
        assert!(text.contains("NULL"));
    }

    #[test]
    fn bad_cells_rejected() {
        let mut t = VoTable::new("x", vec![VoColumn::new("n", VoType::Int)]);
        t.rows.push(vec![VoCell::Int(5)]);
        // Mutate the cell behind validation to simulate a corrupt payload.
        t.rows[0][0] = VoCell::Text("five".into());
        assert!(ResultSet::from_votable(t).is_err());
    }
}
