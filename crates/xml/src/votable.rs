//! VOTable-style tabular payloads.
//!
//! Partial cross-match results travel between SkyNodes as XML-encoded
//! tables (paper §5.3: "The SkyNode returns this result, as a serialized
//! XML encoded SOAP message"). The encoding here follows the spirit of the
//! VOTable format the Virtual Observatory adopted: a `FIELD` declaration
//! per column, then one `TR`/`TD` row group per tuple.
//!
//! Cells are typed values ([`VoCell`]), formatted straight into the
//! writer's output and parsed once on the way back; `Float` cells use
//! Rust's shortest round-trip formatting so values survive exactly.

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

/// The VOTable datatype names, in [`VoType`] order.
const DATATYPES: [&str; 5] = ["boolean", "long", "double", "char", "unsignedLong"];

impl VoType {
    /// The VOTable datatype name.
    pub fn as_str(self) -> &'static str {
        DATATYPES[self as usize]
    }

    /// Parses a VOTable datatype name.
    pub fn parse(s: &str) -> Option<VoType> {
        let types = [
            VoType::Bool,
            VoType::Int,
            VoType::Float,
            VoType::Text,
            VoType::Id,
        ];
        types.into_iter().find(|t| t.as_str() == s)
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

/// A typed cell, one variant per [`VoType`]; `Null` encodes SQL NULL.
#[derive(Debug, Clone, PartialEq)]
pub enum VoCell {
    /// SQL NULL, in a column of any type.
    Null,
    /// A `boolean` cell.
    Bool(bool),
    /// A `long` cell.
    Int(i64),
    /// A `double` cell, written in Rust's shortest round-trip form so it
    /// survives the wire exactly.
    Float(f64),
    /// A `char` cell.
    Text(String),
    /// An `unsignedLong` cell.
    Id(u64),
}

impl VoCell {
    /// Reads a non-null cell's text as a `vtype`, or `None` when it is
    /// not one: the decoder's one parse, which is also its validation.
    pub fn parse(text: &str, vtype: VoType) -> Option<VoCell> {
        Some(match vtype {
            VoType::Bool => VoCell::Bool(text.parse().ok()?),
            VoType::Int => VoCell::Int(text.parse().ok()?),
            VoType::Float => VoCell::Float(text.parse().ok()?),
            VoType::Text => VoCell::Text(text.to_owned()),
            VoType::Id => VoCell::Id(text.parse().ok()?),
        })
    }
}

/// The cell's wire text, unescaped; NULL writes nothing.
impl std::fmt::Display for VoCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VoCell::Null => Ok(()),
            VoCell::Bool(b) => write!(f, "{b}"),
            VoCell::Int(i) => write!(f, "{i}"),
            VoCell::Float(x) => write!(f, "{x:?}"),
            VoCell::Text(s) => f.write_str(s),
            VoCell::Id(u) => write!(f, "{u}"),
        }
    }
}

/// Where [`VoTable::write_into`] wrote a table in its writer's output,
/// as byte offsets: what lets a chunk be cut from the one encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpans {
    /// The table's first byte.
    pub start: usize,
    /// Row boundaries: row `i` is `rows[i]..rows[i + 1]`, so `rows[0]`
    /// ends the header (through `<DATA>`) and the last entry starts the
    /// footer (`</DATA></VOTABLE>`). Empty for a table without rows.
    pub rows: Vec<usize>,
    /// One past the table's last byte.
    pub end: usize,
}

/// A typed table payload.
#[derive(Debug, Clone, PartialEq)]
pub struct VoTable {
    /// Table name (free-form label).
    pub name: String,
    /// Table-wide values, each one `PARAM`: a declaration and its value,
    /// whose type is the declaration's (a NULL carries no `value`).
    pub params: Vec<(VoColumn, VoCell)>,
    /// Column declarations.
    pub columns: Vec<VoColumn>,
    /// Rows of typed cells.
    pub rows: Vec<Vec<VoCell>>,
}

impl VoTable {
    /// An empty table with the given columns.
    pub fn new(name: impl Into<String>, columns: Vec<VoColumn>) -> VoTable {
        VoTable {
            name: name.into(),
            params: Vec::new(),
            columns,
            rows: Vec::new(),
        }
    }

    /// The error for a row of `arity` cells.
    fn arity(&self, arity: usize) -> XmlError {
        let columns = self.columns.len();
        violation(format!(
            "row arity {arity} != column count {columns} in table {}",
            self.name
        ))
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Writes the table into `w`: the `PARAM`s, the `FIELD` declarations,
    /// then one `TR` per row straight from its cells. Returns where it
    /// wrote the table and each row.
    pub fn write_into(&self, w: &mut XmlWriter) -> TableSpans {
        let start = w.content_start();
        w.open("VOTABLE").attr("name", &self.name);
        let params = self
            .params
            .iter()
            .map(|(col, value)| ("PARAM", col, Some(value)));
        let fields = self.columns.iter().map(|col| ("FIELD", col, None));
        for (element, col, value) in params.chain(fields) {
            w.open(element)
                .attr("name", &col.name)
                .attr("datatype", col.vtype.as_str());
            if let Some(value) = value.filter(|v| **v != VoCell::Null) {
                w.attr("value", &value.to_string());
            }
            w.close().expect("balanced by construction");
        }
        w.open("DATA");
        let mut rows = Vec::new();
        if !self.rows.is_empty() {
            rows.reserve_exact(self.rows.len() + 1);
            rows.push(w.content_start());
        }
        for row in &self.rows {
            w.open("TR");
            for cell in row {
                w.open("TD");
                // A number is formatted straight into the output.
                match cell {
                    VoCell::Null => w.attr("null", "true"),
                    VoCell::Text(s) => w.text(s),
                    value => w.text_fmt(format_args!("{value}")),
                };
                w.close().expect("balanced by construction");
            }
            w.close().expect("balanced by construction");
            rows.push(w.len());
        }
        w.close().expect("balanced by construction");
        w.close().expect("balanced by construction");
        TableSpans {
            start,
            rows,
            end: w.len(),
        }
    }

    /// Serializes to compact XML.
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        self.write_into(&mut w);
        w.finish().expect("balanced by construction")
    }

    /// Reads the table whose start tag `reader` just returned as `name`
    /// and `attributes`, through its end tag, parsing every cell and
    /// `PARAM` value as its declared type. `PARAM`s and `FIELD`s are read
    /// before the first `DATA`, whose rows are the table's; any other
    /// element is skipped.
    pub fn read(
        reader: &mut XmlReader<'_>,
        name: &str,
        attributes: &Attributes<'_>,
    ) -> Result<VoTable, XmlError> {
        if name != "VOTABLE" {
            return Err(violation(format!("expected VOTABLE root, found {name}")));
        }
        let mut table = VoTable::new(attr(attributes, "name").unwrap_or(""), Vec::new());
        let mut data_seen = false;
        while let Some((name, attributes)) = reader.next_child()? {
            let param = local_matches(name, "PARAM");
            if param || local_matches(name, "FIELD") {
                if data_seen {
                    return Err(violation(format!(
                        "{name} after DATA in table {}",
                        table.name
                    )));
                }
                let missing = |what: &str| XmlError::MissingNode {
                    path: format!("{name}/@{what}"),
                };
                let cname = attr(&attributes, "name").ok_or_else(|| missing("name"))?;
                let dt = attr(&attributes, "datatype").ok_or_else(|| missing("datatype"))?;
                let vtype = VoType::parse(dt)
                    .ok_or_else(|| violation(format!("unknown datatype {dt} for field {cname}")))?;
                let col = VoColumn::new(cname, vtype);
                if param {
                    let value = match attr(&attributes, "value") {
                        None => VoCell::Null,
                        Some(text) => VoCell::parse(text, vtype).ok_or_else(|| {
                            violation(format!("PARAM {cname} value {text:?} is not a {dt}"))
                        })?,
                    };
                    table.params.push((col, value));
                } else {
                    table.columns.push(col);
                }
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
                    continue;
                }
                let col = self
                    .columns
                    .get(row.len())
                    .ok_or_else(|| self.arity(row.len() + 1))?;
                if attr(&attributes, "null") == Some("true") {
                    reader.skip_element()?;
                    row.push(VoCell::Null);
                    continue;
                }
                let text = reader.read_text()?;
                row.push(VoCell::parse(&text, col.vtype).ok_or_else(|| {
                    let (dt, name) = (col.vtype.as_str(), &col.name);
                    violation(format!(
                        "cell {text:?} is not a valid {dt} for column {name}"
                    ))
                })?);
            }
            if row.len() != self.columns.len() {
                return Err(self.arity(row.len()));
            }
            self.rows.push(row);
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

    /// Concatenates chunks back into one table, verifying identical
    /// schemas: columns and `PARAM`s.
    pub fn concat(chunks: Vec<VoTable>) -> Result<VoTable, XmlError> {
        let mut iter = chunks.into_iter();
        let mut first = iter
            .next()
            .ok_or_else(|| violation("cannot concat zero chunks".into()))?;
        for chunk in iter {
            if chunk.columns != first.columns || chunk.params != first.params {
                return Err(violation(format!(
                    "chunk schema mismatch in table {}",
                    first.name
                )));
            }
            first.rows.extend(chunk.rows);
        }
        Ok(first)
    }
}

fn violation(detail: String) -> XmlError {
    XmlError::SchemaViolation { detail }
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
        t.rows.push(vec![
            VoCell::Id(42),
            VoCell::Float(185.000123456789),
            VoCell::Text("GALAXY".into()),
            VoCell::Bool(true),
        ]);
        t.rows.push(vec![
            VoCell::Id(43),
            VoCell::Float(-0.5),
            VoCell::Null,
            VoCell::Bool(false),
        ]);
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
        let mut t = VoTable::new("x", vec![VoColumn::new("x", VoType::Float)]);
        for x in [0.1, 1.0 / 3.0, 185.000123456789, f64::MIN_POSITIVE, 1e300] {
            t.rows.push(vec![VoCell::Float(x)]);
        }
        let back = VoTable::parse(&t.to_xml()).unwrap();
        for (a, b) in back.rows.iter().zip(&t.rows) {
            assert!(
                matches!((&a[0], &b[0]), (VoCell::Float(x), VoCell::Float(y)) if x.to_bits() == y.to_bits())
            );
        }
    }

    #[test]
    fn arity_and_type_validation() {
        let mut t = VoTable::new("x", vec![VoColumn::new("n", VoType::Int)]);
        t.rows = vec![vec![VoCell::Int(12)], vec![VoCell::Null]];
        let xml = t.to_xml();
        assert_eq!(VoTable::parse(&xml).unwrap(), t);
        // The decoder parses each cell as its column's type and counts
        // each row's cells.
        assert!(VoTable::parse(&xml.replace("12", "notanint")).is_err());
        assert!(VoTable::parse(&xml.replace("<TD>12</TD>", "")).is_err());
        assert!(VoTable::parse(&xml.replace("<TD>12</TD>", "<TD>1</TD><TD>2</TD>")).is_err());
    }

    #[test]
    fn null_cells_distinct_from_empty_text() {
        let mut t = VoTable::new("x", vec![VoColumn::new("s", VoType::Text)]);
        t.rows.push(vec![VoCell::Null]);
        t.rows.push(vec![VoCell::Text(String::new())]);
        let back = VoTable::parse(&t.to_xml()).unwrap();
        assert_eq!(back.rows[0][0], VoCell::Null);
        assert_eq!(back.rows[1][0], VoCell::Text(String::new()));
    }

    #[test]
    fn chunk_and_concat_roundtrip() {
        let mut t = VoTable::new("big", vec![VoColumn::new("n", VoType::Int)]);
        for i in 0..10 {
            t.rows.push(vec![VoCell::Int(i)]);
        }
        let chunks = cut(&t, 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].row_count(), 3);
        assert_eq!(chunks[3].row_count(), 1);
        let back = VoTable::concat(chunks).unwrap();
        assert_eq!(back, t);
    }

    /// `t`'s chunks of `rows` rows, each cut from its one encoding: the
    /// header, the chunk's rows, the footer.
    fn cut(t: &VoTable, rows: usize) -> Vec<VoTable> {
        let mut w = XmlWriter::new();
        let spans = t.write_into(&mut w);
        let xml = w.finish().unwrap();
        if t.rows.is_empty() {
            return vec![VoTable::parse(&xml).unwrap()];
        }
        let b = &spans.rows;
        let (header, footer) = (&xml[spans.start..b[0]], &xml[b[b.len() - 1]..spans.end]);
        (0..t.row_count())
            .step_by(rows)
            .map(|at| &xml[b[at]..b[t.row_count().min(at + rows)]])
            .map(|body| VoTable::parse(&[header, body, footer].concat()).unwrap())
            .collect()
    }

    #[test]
    fn chunk_empty_table() {
        let t = VoTable::new("empty", vec![VoColumn::new("n", VoType::Int)]);
        let chunks = cut(&t, 5);
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
    fn params_roundtrip_ahead_of_the_fields() {
        let mut t = demo();
        t.params = vec![
            (VoColumn::new("w", VoType::Float), VoCell::Float(1e12)),
            (
                VoColumn::new("note", VoType::Text),
                VoCell::Text("a\"<b".into()),
            ),
            (VoColumn::new("none", VoType::Int), VoCell::Null),
        ];
        let xml = t.to_xml();
        assert!(xml.starts_with(
            r#"<VOTABLE name="partial"><PARAM name="w" datatype="double" value="1000000000000.0"/>"#
        ));
        assert!(xml.contains(r#"<PARAM name="none" datatype="long"/><FIELD"#));
        assert_eq!(VoTable::parse(&xml).unwrap(), t);
        // A PARAM whose value is not of its type, or one after DATA, is
        // refused.
        assert!(VoTable::parse(&xml.replace("1000000000000.0", "wide")).is_err());
        let late = xml.replace(r#"<PARAM name="none" datatype="long"/>"#, "");
        let late = late.replace("</DATA>", r#"</DATA><PARAM name="none" datatype="long"/>"#);
        assert!(VoTable::parse(&late).is_err());
    }

    #[test]
    fn column_index_lookup() {
        let t = demo();
        assert_eq!(t.column_index("ra"), Some(1));
        assert_eq!(t.column_index("nope"), None);
    }
}
