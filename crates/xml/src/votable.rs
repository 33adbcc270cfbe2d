//! VOTable-style tabular payloads.
//!
//! Partial cross-match results travel between SkyNodes as XML-encoded
//! tables (paper §5.3: "The SkyNode returns this result, as a serialized
//! XML encoded SOAP message"). The encoding here follows the spirit of the
//! VOTable format the Virtual Observatory adopted: a `FIELD` declaration
//! per column, then one `TR`/`TD` row group per tuple.
//!
//! Cells are typed text; `Float` cells use Rust's shortest round-trip
//! formatting so values survive serialize/parse exactly.

use crate::dom::local_matches;
use crate::reader::{attr, Attributes, XmlReader};
use crate::writer::XmlWriter;
use crate::XmlError;

/// Column types a VOTable payload can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoType {
    /// `boolean`.
    Bool,
    /// `long` (signed 64-bit).
    Int,
    /// `double`.
    Float,
    /// `char` (text).
    Text,
    /// `unsignedLong` — 64-bit unsigned identifier.
    Id,
}

impl VoType {
    /// The VOTable datatype name.
    pub fn as_str(self) -> &'static str {
        match self {
            VoType::Bool => "boolean",
            VoType::Int => "long",
            VoType::Float => "double",
            VoType::Text => "char",
            VoType::Id => "unsignedLong",
        }
    }

    /// Parses a VOTable datatype name.
    pub fn parse(s: &str) -> Option<VoType> {
        match s {
            "boolean" => Some(VoType::Bool),
            "long" => Some(VoType::Int),
            "double" => Some(VoType::Float),
            "char" => Some(VoType::Text),
            "unsignedLong" => Some(VoType::Id),
            _ => None,
        }
    }

    /// Whether a non-null cell's text parses as this type.
    pub fn validate(self, text: &str) -> bool {
        match self {
            VoType::Bool => matches!(text, "true" | "false"),
            VoType::Int => text.parse::<i64>().is_ok(),
            VoType::Float => text.parse::<f64>().is_ok(),
            VoType::Text => true,
            VoType::Id => text.parse::<u64>().is_ok(),
        }
    }
}

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoColumn {
    /// Column name.
    pub name: String,
    /// Cell type.
    pub vtype: VoType,
}

impl VoColumn {
    /// A column declaration.
    pub fn new(name: impl Into<String>, vtype: VoType) -> VoColumn {
        VoColumn {
            name: name.into(),
            vtype,
        }
    }
}

/// A cell: `None` encodes SQL NULL.
pub type VoCell = Option<String>;

/// A typed table payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoTable {
    /// Table name (free-form label).
    pub name: String,
    /// Column declarations.
    pub columns: Vec<VoColumn>,
    /// Rows of typed-text cells.
    pub rows: Vec<Vec<VoCell>>,
}

impl VoTable {
    /// An empty table with the given columns.
    pub fn new(name: impl Into<String>, columns: Vec<VoColumn>) -> VoTable {
        VoTable {
            name: name.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row, validating arity and cell types.
    pub fn push_row(&mut self, row: Vec<VoCell>) -> Result<(), XmlError> {
        if row.len() != self.columns.len() {
            return Err(XmlError::SchemaViolation {
                detail: format!(
                    "row arity {} != column count {} in table {}",
                    row.len(),
                    self.columns.len(),
                    self.name
                ),
            });
        }
        for (cell, col) in row.iter().zip(&self.columns) {
            if let Some(text) = cell {
                if !col.vtype.validate(text) {
                    return Err(XmlError::SchemaViolation {
                        detail: format!(
                            "cell {text:?} is not a valid {} for column {}",
                            col.vtype.as_str(),
                            col.name
                        ),
                    });
                }
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Writes the table into `w`: the `FIELD` declarations, then one
    /// `TR` per row straight from its cells.
    pub fn write_into(&self, w: &mut XmlWriter) {
        w.open("VOTABLE").attr("name", &self.name);
        for col in &self.columns {
            w.open("FIELD")
                .attr("name", &col.name)
                .attr("datatype", col.vtype.as_str());
            w.close().expect("balanced by construction");
        }
        w.open("DATA");
        for row in &self.rows {
            w.open("TR");
            for cell in row {
                w.open("TD");
                match cell {
                    Some(text) => w.text(text),
                    None => w.attr("null", "true"),
                };
                w.close().expect("balanced by construction");
            }
            w.close().expect("balanced by construction");
        }
        w.close().expect("balanced by construction");
        w.close().expect("balanced by construction");
    }

    /// Serializes to compact XML.
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        self.write_into(&mut w);
        w.finish().expect("balanced by construction")
    }

    /// Reads the table whose start tag `reader` just returned as `name`
    /// and `attributes`, through its end tag, validating every cell
    /// against its column's type as [`VoTable::push_row`] does. `FIELD`s
    /// are read before the first `DATA`, whose rows are the table's; any
    /// other element is skipped.
    pub fn read(
        reader: &mut XmlReader<'_>,
        name: &str,
        attributes: &Attributes<'_>,
    ) -> Result<VoTable, XmlError> {
        if name != "VOTABLE" {
            return Err(XmlError::SchemaViolation {
                detail: format!("expected VOTABLE root, found {name}"),
            });
        }
        let mut table = VoTable::new(attr(attributes, "name").unwrap_or(""), Vec::new());
        let mut data_seen = false;
        while let Some((name, attributes)) = reader.next_child()? {
            if local_matches(name, "FIELD") {
                if data_seen {
                    return Err(XmlError::SchemaViolation {
                        detail: format!("FIELD after DATA in table {}", table.name),
                    });
                }
                let missing = |what: &str| XmlError::MissingNode {
                    path: format!("{name}/@{what}"),
                };
                let cname = attr(&attributes, "name").ok_or_else(|| missing("name"))?;
                let dt = attr(&attributes, "datatype").ok_or_else(|| missing("datatype"))?;
                let vtype = VoType::parse(dt).ok_or_else(|| XmlError::SchemaViolation {
                    detail: format!("unknown datatype {dt} for field {cname}"),
                })?;
                table.columns.push(VoColumn::new(cname, vtype));
                reader.skip_element()?;
            } else if !data_seen && local_matches(name, "DATA") {
                data_seen = true;
                table.read_rows(reader)?;
            } else {
                reader.skip_element()?;
            }
        }
        Ok(table)
    }

    /// Reads a `DATA` element's `TR` rows through its end tag.
    fn read_rows(&mut self, reader: &mut XmlReader<'_>) -> Result<(), XmlError> {
        while let Some((name, _)) = reader.next_child()? {
            if !local_matches(name, "TR") {
                reader.skip_element()?;
                continue;
            }
            let mut row = Vec::with_capacity(self.columns.len());
            while let Some((name, attributes)) = reader.next_child()? {
                if !local_matches(name, "TD") {
                    reader.skip_element()?;
                } else if attr(&attributes, "null") == Some("true") {
                    reader.skip_element()?;
                    row.push(None);
                } else {
                    row.push(Some(reader.read_text()?.into_owned()));
                }
            }
            self.push_row(row)?;
        }
        Ok(())
    }

    /// Parses from an XML string.
    pub fn parse(xml: &str) -> Result<VoTable, XmlError> {
        let mut reader = XmlReader::new(xml);
        let (name, attributes) = reader.root()?;
        let table = VoTable::read(&mut reader, name, &attributes)?;
        reader.finish()?;
        Ok(table)
    }

    /// Splits this table into chunks of at most `rows_per_chunk` rows,
    /// each carrying the full column declaration — the unit of the SOAP
    /// chunking workaround.
    pub fn chunk_rows(&self, rows_per_chunk: usize) -> Vec<VoTable> {
        assert!(rows_per_chunk > 0);
        if self.rows.is_empty() {
            return vec![self.clone()];
        }
        self.rows
            .chunks(rows_per_chunk)
            .map(|chunk| VoTable {
                name: self.name.clone(),
                columns: self.columns.clone(),
                rows: chunk.to_vec(),
            })
            .collect()
    }

    /// Concatenates chunks back into one table, verifying identical
    /// schemas.
    pub fn concat(chunks: Vec<VoTable>) -> Result<VoTable, XmlError> {
        let mut iter = chunks.into_iter();
        let mut first = iter.next().ok_or_else(|| XmlError::SchemaViolation {
            detail: "cannot concat zero chunks".into(),
        })?;
        for chunk in iter {
            if chunk.columns != first.columns {
                return Err(XmlError::SchemaViolation {
                    detail: format!("chunk schema mismatch in table {}", first.name),
                });
            }
            first.rows.extend(chunk.rows);
        }
        Ok(first)
    }
}

/// Formats an f64 so it round-trips exactly through `parse::<f64>()`.
pub fn format_f64(x: f64) -> String {
    // Rust's Debug formatting for f64 is the shortest representation that
    // round-trips.
    format!("{x:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> VoTable {
        let mut t = VoTable::new(
            "partial",
            vec![
                VoColumn::new("object_id", VoType::Id),
                VoColumn::new("ra", VoType::Float),
                VoColumn::new("type", VoType::Text),
                VoColumn::new("good", VoType::Bool),
            ],
        );
        t.push_row(vec![
            Some("42".into()),
            Some(format_f64(185.000123456789)),
            Some("GALAXY".into()),
            Some("true".into()),
        ])
        .unwrap();
        t.push_row(vec![
            Some("43".into()),
            Some(format_f64(-0.5)),
            None,
            Some("false".into()),
        ])
        .unwrap();
        t
    }

    #[test]
    fn xml_roundtrip() {
        let t = demo();
        let back = VoTable::parse(&t.to_xml()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn float_cells_roundtrip_exactly() {
        for x in [0.1, 1.0 / 3.0, 185.000123456789, f64::MIN_POSITIVE, 1e300] {
            let s = format_f64(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s}");
        }
    }

    #[test]
    fn arity_and_type_validation() {
        let mut t = VoTable::new("x", vec![VoColumn::new("n", VoType::Int)]);
        assert!(t.push_row(vec![]).is_err());
        assert!(t.push_row(vec![Some("notanint".into())]).is_err());
        assert!(t.push_row(vec![Some("12".into())]).is_ok());
        assert!(t.push_row(vec![None]).is_ok());
    }

    #[test]
    fn null_cells_distinct_from_empty_text() {
        let mut t = VoTable::new("x", vec![VoColumn::new("s", VoType::Text)]);
        t.push_row(vec![None]).unwrap();
        t.push_row(vec![Some(String::new())]).unwrap();
        let back = VoTable::parse(&t.to_xml()).unwrap();
        assert_eq!(back.rows[0][0], None);
        assert_eq!(back.rows[1][0], Some(String::new()));
    }

    #[test]
    fn chunk_and_concat_roundtrip() {
        let mut t = VoTable::new("big", vec![VoColumn::new("n", VoType::Int)]);
        for i in 0..10 {
            t.push_row(vec![Some(i.to_string())]).unwrap();
        }
        let chunks = t.chunk_rows(3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].row_count(), 3);
        assert_eq!(chunks[3].row_count(), 1);
        let back = VoTable::concat(chunks).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn chunk_empty_table() {
        let t = VoTable::new("empty", vec![VoColumn::new("n", VoType::Int)]);
        let chunks = t.chunk_rows(5);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].row_count(), 0);
    }

    #[test]
    fn concat_rejects_mismatched_schemas() {
        let a = VoTable::new("a", vec![VoColumn::new("n", VoType::Int)]);
        let b = VoTable::new("a", vec![VoColumn::new("n", VoType::Float)]);
        assert!(VoTable::concat(vec![a, b]).is_err());
        assert!(VoTable::concat(vec![]).is_err());
    }

    #[test]
    fn parse_rejects_wrong_root_and_bad_datatype() {
        assert!(VoTable::parse("<NOTVOTABLE/>").is_err());
        assert!(VoTable::parse(
            r#"<VOTABLE name="x"><FIELD name="a" datatype="varchar"/></VOTABLE>"#
        )
        .is_err());
    }

    #[test]
    fn column_index_lookup() {
        let t = demo();
        assert_eq!(t.column_index("ra"), Some(1));
        assert_eq!(t.column_index("nope"), None);
    }
}
