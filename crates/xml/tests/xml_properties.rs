//! Property tests: arbitrary element trees and tables survive
//! serialize → parse round-trips.

use proptest::prelude::*;
use skyquery_xml::{Element, VoCell, VoColumn, VoTable, VoType, XmlWriter};

fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.-]{0,10}"
        .prop_filter("no leading digit variants", |s| !s.starts_with(['-', '.']))
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Printable text including XML-special characters; excludes control
    // chars and carriage returns (XML newline normalization is out of our
    // subset's scope).
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            proptest::char::range('0', '9'),
            Just('<'),
            Just('>'),
            Just('&'),
            Just('"'),
            Just('\''),
            Just(' '),
            Just('é'),
            Just('λ'),
        ],
        0..40,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (name_strategy(), text_strategy(), attrs_strategy()).prop_map(
        |(name, text, attributes)| Element {
            name,
            text,
            attributes,
            children: Vec::new(),
        },
    );
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            text_strategy(),
            attrs_strategy(),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, text, attributes, children)| Element {
                name,
                text,
                attributes,
                children,
            })
    })
}

fn attrs_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((name_strategy(), text_strategy()), 0..3).prop_map(|attrs| {
        // XML forbids duplicate attribute names on one element.
        let mut seen = std::collections::HashSet::new();
        attrs
            .into_iter()
            .filter(|(n, _)| seen.insert(n.clone()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn element_roundtrip(e in element_strategy()) {
        let xml = e.to_xml();
        let back = Element::parse(&xml).unwrap();
        prop_assert_eq!(back, normalize(e));
    }

    #[test]
    fn escaped_text_roundtrip(t in text_strategy()) {
        let e = Element::new("t").with_text(t.clone());
        let back = Element::parse(&e.to_xml()).unwrap();
        prop_assert_eq!(back.text, t);
    }

    #[test]
    fn float_format_roundtrips(x in proptest::num::f64::NORMAL | proptest::num::f64::ZERO | proptest::num::f64::SUBNORMAL) {
        let mut t = VoTable::new("f", vec![VoColumn::new("x", VoType::Float)]);
        t.rows.push(vec![VoCell::Float(x)]);
        let back = VoTable::parse(&t.to_xml()).unwrap();
        prop_assert!(matches!(back.rows[0][0], VoCell::Float(y) if y.to_bits() == x.to_bits()));
    }

    #[test]
    fn votable_roundtrip(
        n_cols in 1usize..5,
        rows in proptest::collection::vec(proptest::collection::vec(proptest::option::of(0i64..1000), 5), 0..20),
    ) {
        let cols: Vec<VoColumn> = (0..n_cols)
            .map(|i| VoColumn::new(format!("c{i}"), VoType::Int))
            .collect();
        let mut t = VoTable::new("p", cols);
        for row in rows {
            let cells = row.into_iter().take(n_cols)
                .map(|v| v.map_or(VoCell::Null, VoCell::Int))
                .collect::<Vec<_>>();
            if cells.len() == n_cols {
                t.rows.push(cells);
            }
        }
        let back = VoTable::parse(&t.to_xml()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn votable_chunking_lossless(
        n_rows in 0usize..50,
        chunk in 1usize..10,
    ) {
        let mut t = VoTable::new("c", vec![VoColumn::new("n", VoType::Int)]);
        for i in 0..n_rows {
            t.rows.push(vec![VoCell::Int(i as i64)]);
        }
        let mut w = XmlWriter::new();
        let spans = t.write_into(&mut w);
        let xml = w.finish().unwrap();
        // Each chunk is cut from the one encoding: header, rows, footer.
        let b = &spans.rows;
        let chunks = match b.len() {
            0 => vec![VoTable::parse(&xml).unwrap()],
            n => (0..n_rows)
                .step_by(chunk)
                .map(|at| {
                    let body = &xml[b[at]..b[n_rows.min(at + chunk)]];
                    let (header, footer) = (&xml[spans.start..b[0]], &xml[b[n - 1]..spans.end]);
                    VoTable::parse(&[header, body, footer].concat()).unwrap()
                })
                .collect(),
        };
        let back = VoTable::concat(chunks).unwrap();
        prop_assert_eq!(back, t);
    }
}

/// Mirrors the DOM builder's whitespace rule: an element with child
/// elements discards whitespace-only text (formatting noise); leaves keep
/// their text verbatim.
fn normalize(mut e: Element) -> Element {
    e.children = e.children.into_iter().map(normalize).collect();
    if !e.children.is_empty() && e.text.trim().is_empty() {
        e.text.clear();
    }
    e
}
