//! The VOTable codec against reference codecs written here.
//!
//! A table of random `PARAM`s and cells of every type, NULLs and text
//! that needs escaping must encode byte for byte as a plain reference
//! encoder does
//! (every float through `format!("{x:?}")`) and decode back to the same
//! bits; and splitting a table into chunks under a message limit must cut
//! at the rows and produce the bytes that chunking each table copy and
//! encoding it again does.

use proptest::prelude::*;
use skyquery_soap::{chunk, MessageLimits, RpcResponse, SoapValue};
use skyquery_xml::{VoCell, VoColumn, VoTable, VoType, XmlWriter};

/// A typed cell, as the test generates it.
#[derive(Debug, Clone)]
enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    Id(u64),
}

/// SplitMix64: the cells of one case from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn float(&mut self) -> f64 {
        const SPECIAL: [f64; 14] = [
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e16,
            1e15,
            0.1,
            -185.000123456789,
            4.9e-324,
        ];
        match self.below(6) {
            0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
            // Subnormals.
            1 => f64::from_bits(self.below(1 << 52)),
            // Integral floats, across the decimal/exponent switch.
            2 => (self.next() >> self.below(64)) as f64,
            _ => f64::from_bits(self.next()),
        }
    }

    fn text(&mut self) -> String {
        const CHARS: [char; 12] = ['a', 'Z', '0', '<', '>', '&', '"', '\'', ' ', 'é', 'λ', ';'];
        let len = self.below(12);
        (0..len)
            .map(|_| CHARS[self.below(CHARS.len() as u64) as usize])
            .collect()
    }

    fn cell(&mut self, vtype: VoType) -> Cell {
        if self.below(8) == 0 {
            return Cell::Null;
        }
        match vtype {
            VoType::Bool => Cell::Bool(self.next() & 1 == 1),
            VoType::Int => Cell::Int(self.next() as i64 >> self.below(64)),
            VoType::Float => Cell::Float(self.float()),
            VoType::Text => Cell::Text(self.text()),
            VoType::Id => Cell::Id(self.next() >> self.below(64)),
        }
    }
}

const TYPES: [VoType; 5] = [
    VoType::Bool,
    VoType::Int,
    VoType::Float,
    VoType::Text,
    VoType::Id,
];

/// A random table: its columns and its typed rows, after up to two
/// `PARAM`s.
fn random_table(seed: u64, max_rows: u64) -> (VoTable, Vec<Vec<Cell>>) {
    let mut rng = Rng(seed);
    let params: Vec<(VoColumn, VoCell)> = (0..rng.below(3))
        .map(|i| {
            let vtype = TYPES[rng.below(5) as usize];
            let value = vo_cell(&rng.cell(vtype));
            (VoColumn::new(format!("p{i}{}", rng.text()), vtype), value)
        })
        .collect();
    let columns: Vec<VoColumn> = (0..1 + rng.below(7))
        .map(|i| {
            let vtype = TYPES[rng.below(5) as usize];
            VoColumn::new(format!("c{i}{}", rng.text()), vtype)
        })
        .collect();
    let rows: Vec<Vec<Cell>> = (0..rng.below(max_rows + 1))
        .map(|_| columns.iter().map(|c| rng.cell(c.vtype)).collect())
        .collect();
    let mut t = VoTable::new(format!("t{}", rng.text()), columns);
    t.params = params;
    for row in &rows {
        t.rows.push(row.iter().map(vo_cell).collect());
    }
    (t, rows)
}

/// The cell as a table holds it.
fn vo_cell(cell: &Cell) -> VoCell {
    match cell {
        Cell::Null => VoCell::Null,
        Cell::Bool(b) => VoCell::Bool(*b),
        Cell::Int(i) => VoCell::Int(*i),
        Cell::Float(x) => VoCell::Float(*x),
        Cell::Text(s) => VoCell::Text(s.clone()),
        Cell::Id(u) => VoCell::Id(*u),
    }
}

/// The cell a table holds, as the test generates it.
fn test_cell(cell: &VoCell) -> Cell {
    match cell {
        VoCell::Null => Cell::Null,
        VoCell::Bool(b) => Cell::Bool(*b),
        VoCell::Int(i) => Cell::Int(*i),
        VoCell::Float(x) => Cell::Float(*x),
        VoCell::Text(s) => Cell::Text(s.clone()),
        VoCell::Id(u) => Cell::Id(*u),
    }
}

/// The bits a decoded cell carries, as the test compares them: every NaN
/// decodes as one NaN.
fn decoded(cell: &VoCell, vtype: VoType) -> String {
    let (of, text) = match cell {
        VoCell::Null => return "null".into(),
        VoCell::Float(x) => (VoType::Float, bits(*x)),
        VoCell::Bool(b) => (VoType::Bool, b.to_string()),
        VoCell::Int(i) => (VoType::Int, i.to_string()),
        VoCell::Id(u) => (VoType::Id, u.to_string()),
        VoCell::Text(s) => (VoType::Text, format!("{s:?}")),
    };
    assert_eq!(of, vtype, "a cell is decoded as its column's type");
    text
}

fn bits(x: f64) -> String {
    if x.is_nan() {
        "NaN".into()
    } else {
        format!("{:#x}", x.to_bits())
    }
}

fn expected(cell: &Cell) -> String {
    match cell {
        Cell::Null => "null".into(),
        Cell::Float(x) => bits(*x),
        Cell::Bool(b) => b.to_string(),
        Cell::Int(i) => i.to_string(),
        Cell::Id(u) => u.to_string(),
        Cell::Text(s) => format!("{s:?}"),
    }
}

/// A cell's wire text: `None` for NULL.
fn reference_text(cell: &Cell) -> Option<String> {
    Some(match cell {
        Cell::Null => return None,
        Cell::Bool(b) => b.to_string(),
        Cell::Int(i) => i.to_string(),
        Cell::Float(x) => format!("{x:?}"),
        Cell::Text(s) => s.clone(),
        Cell::Id(u) => u.to_string(),
    })
}

fn escape(s: &str, attr: bool) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            '\'' if attr => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// The reference encoder: the wire form of a table, spelled out.
fn reference_xml(t: &VoTable, rows: &[Vec<Cell>]) -> String {
    let mut out = format!("<VOTABLE name=\"{}\">", escape(&t.name, true));
    for (p, value) in &t.params {
        out += &format!(
            "<PARAM name=\"{}\" datatype=\"{}\"",
            escape(&p.name, true),
            p.vtype.as_str()
        );
        if let Some(text) = reference_text(&test_cell(value)) {
            out += &format!(" value=\"{}\"", escape(&text, true));
        }
        out += "/>";
    }
    for c in &t.columns {
        out += &format!(
            "<FIELD name=\"{}\" datatype=\"{}\"/>",
            escape(&c.name, true),
            c.vtype.as_str()
        );
    }
    if rows.is_empty() {
        out += "<DATA/>";
    } else {
        out += "<DATA>";
        for row in rows {
            out += "<TR>";
            for cell in row {
                out += &match reference_text(cell) {
                    None => "<TD null=\"true\"/>".to_string(),
                    Some(text) if text.is_empty() => "<TD/>".to_string(),
                    Some(text) => format!("<TD>{}</TD>", escape(&text, false)),
                };
            }
            out += "</TR>";
        }
        out += "</DATA>";
    }
    out + "</VOTABLE>"
}

/// Today's chunking, spelled out: the row budget estimated from the
/// whole table's encoding, then halved until every chunk, each a copy of
/// the table's header with its rows, encodes within the limit. The
/// chunks' encodings, or `None` where it refuses.
fn reference_chunks(t: &VoTable, limit: usize) -> Option<Vec<String>> {
    let with_rows = |rows: &[_]| {
        let mut c = t.clone();
        c.rows = rows.to_vec();
        c.to_xml()
    };
    let full_len = t.to_xml().len();
    if full_len <= limit {
        return Some(vec![t.to_xml()]);
    }
    if t.rows.is_empty() {
        return None;
    }
    let header_len = with_rows(&[]).len();
    let avg_row = (full_len - header_len).max(1) as f64 / t.rows.len() as f64;
    let budget = limit.saturating_sub(header_len);
    let mut per_chunk = (((budget as f64 / avg_row) * 0.9) as usize).max(1);
    loop {
        let chunks: Vec<String> = t.rows.chunks(per_chunk).map(with_rows).collect();
        if chunks.iter().all(|c| c.len() <= limit) {
            return Some(chunks);
        }
        if per_chunk == 1 {
            return None;
        }
        per_chunk /= 2;
    }
}

/// The chunks `split_table` cuts, encoded, or `None` where it refuses.
fn split(t: &VoTable, limit: usize) -> Option<Vec<String>> {
    let mut w = XmlWriter::new();
    let spans = t.write_into(&mut w);
    let xml = w.finish().unwrap();
    let chunks = chunk::split_table(&spans, MessageLimits::tiny(limit)).ok()?;
    let total = chunks.len();
    let mut cut = Vec::new();
    for (index, rows) in chunks.into_iter().enumerate() {
        let bytes = chunk::cut(&xml, &spans, rows.clone()).concat();
        // The chunk's `FetchChunk` reply is the one its table encodes to.
        let reply = RpcResponse::new("FetchChunk")
            .result("chunk", SoapValue::Table(VoTable::parse(&bytes).unwrap()))
            .result("index", SoapValue::Int(index as i64))
            .result("total", SoapValue::Int(total as i64))
            .result("transfer_id", SoapValue::Int(7));
        assert_eq!(
            chunk::chunk_reply(&xml, &spans, rows, index, total, 7),
            reply.to_xml()
        );
        cut.push(bytes);
    }
    Some(cut)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn votable_encodes_as_the_reference_does(seed in any::<u64>()) {
        let (t, rows) = random_table(seed, 12);
        prop_assert_eq!(t.to_xml(), reference_xml(&t, &rows));
    }

    #[test]
    fn votable_decodes_to_the_same_bits(seed in any::<u64>()) {
        let (t, rows) = random_table(seed, 12);
        let back = VoTable::parse(&t.to_xml()).unwrap();
        prop_assert_eq!(&back.name, &t.name);
        prop_assert_eq!(back.params.len(), t.params.len());
        for ((got, value), (want, value_want)) in back.params.iter().zip(&t.params) {
            prop_assert_eq!(got, want);
            prop_assert_eq!(decoded(value, got.vtype), expected(&test_cell(value_want)));
        }
        prop_assert_eq!(&back.columns, &t.columns);
        prop_assert_eq!(back.row_count(), rows.len());
        for (got, want) in back.rows.iter().zip(&rows) {
            prop_assert_eq!(got.len(), want.len());
            for ((cell, col), cell_want) in got.iter().zip(&t.columns).zip(want) {
                prop_assert_eq!(decoded(cell, col.vtype), expected(cell_want));
            }
        }
    }

    #[test]
    fn split_table_cuts_as_before(seed in any::<u64>(), limit in 200usize..6000) {
        let (t, _) = random_table(seed, 120);
        prop_assert_eq!(split(&t, limit), reference_chunks(&t, limit));
    }
}
