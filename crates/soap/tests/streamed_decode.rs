//! The streamed decoder against the DOM decoder it replaced.
//!
//! `reference` below keeps the DOM decode — `Element::parse`, then the
//! envelope checks and the per-parameter and per-table decoding over the
//! element tree — as test-only code. Encodings of a call, a reply and a
//! fault carrying every `SoapValue` kind are mutated (truncated at every
//! character boundary, each byte deleted, each byte replaced by each of
//! `<>/"&x`), and every mutant must satisfy three things: neither
//! decoder panics; where the reference refuses, the streamed decoder
//! refuses; where both accept, they decode the same value. An input only
//! the streamed decoder refuses must be of a kind in [`NEWLY_REFUSED`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use skyquery_soap::{RpcCall, RpcResponse, SoapFault, SoapValue};
use skyquery_xml::{Element, VoCell, VoColumn, VoTable, VoType};

/// Whether an input is of some kind.
type Kind = fn(&str) -> bool;

/// What the streamed decoder refuses and the DOM decoder accepted: a
/// description of each kind of input, and a test for it.
const NEWLY_REFUSED: &[(&str, Kind)] = &[(
    "a VOTABLE declaring a FIELD after its DATA",
    field_after_data,
)];

/// Whether some `VOTABLE` in `xml` has a `FIELD` child after a `DATA`
/// child. The DOM decoder counted every `FIELD` wherever it stood; the
/// streamed one reads the rows of `DATA` against the `FIELD`s before it.
fn field_after_data(xml: &str) -> bool {
    fn walk(e: &Element) -> bool {
        let names = e.children.iter().map(|c| c.name.rsplit(':').next());
        let late = names
            .skip_while(|n| *n != Some("DATA"))
            .any(|n| n == Some("FIELD"));
        (e.name == "VOTABLE" && late) || e.children.iter().any(walk)
    }
    Element::parse(xml).is_ok_and(|e| walk(&e))
}

mod reference {
    use skyquery_soap::{RpcCall, RpcResponse, SoapFault, SoapValue, SOAP_ENV_NS};
    use skyquery_xml::{Element, VoCell, VoColumn, VoTable, VoType};

    type Refused = String;

    fn name_is(actual: &str, wanted: &str) -> bool {
        actual == wanted
            || actual
                .rsplit_once(':')
                .is_some_and(|(_, local)| local == wanted)
    }

    fn local(name: &str) -> &str {
        name.rsplit_once(':').map_or(name, |(_, l)| l)
    }

    /// The body payload of an envelope.
    fn body(xml: &str) -> Result<Element, Refused> {
        let mut root = Element::parse(xml).map_err(|e| e.to_string())?;
        if !name_is(&root.name, "Envelope") {
            return Err("root is not Envelope".into());
        }
        let ns_ok = root
            .attributes
            .iter()
            .any(|(k, v)| (k == "xmlns" || k.starts_with("xmlns:")) && v == SOAP_ENV_NS);
        if !ns_ok {
            return Err("missing namespace".into());
        }
        let mut take = |name| {
            let at = root.children.iter().position(|c| name_is(&c.name, name))?;
            Some(root.children.remove(at))
        };
        let _header = take("Header");
        let mut body = take("Body").ok_or("no Body")?;
        if body.children.len() != 1 {
            return Err("Body must carry one payload".into());
        }
        body.children.pop().ok_or_else(|| "empty Body".into())
    }

    fn table(e: &Element) -> Result<VoTable, Refused> {
        if e.name != "VOTABLE" {
            return Err("not a VOTABLE".into());
        }
        let mut columns = Vec::new();
        for f in e.children_named("FIELD") {
            let cname = f.require_attr("name").map_err(|e| e.to_string())?;
            let dt = f.require_attr("datatype").map_err(|e| e.to_string())?;
            let vtype = VoType::parse(dt).ok_or("unknown datatype")?;
            columns.push(VoColumn::new(cname, vtype));
        }
        let mut t = VoTable::new(e.attr("name").unwrap_or(""), columns);
        if let Some(data) = e.child("DATA") {
            for tr in data.children_named("TR") {
                let row = tr
                    .children_named("TD")
                    .zip(t.columns.iter().map(|c| c.vtype).chain([VoType::Text]))
                    .map(|(td, vtype)| match td.attr("null") {
                        Some("true") => Some(VoCell::Null),
                        _ => VoCell::parse(&td.text, vtype),
                    })
                    .collect::<Option<_>>()
                    .ok_or("bad cell")?;
                let row: Vec<VoCell> = row;
                if row.len() != t.columns.len() {
                    return Err("row arity".into());
                }
                t.rows.push(row);
            }
        }
        Ok(t)
    }

    fn value(e: Element) -> Result<SoapValue, Refused> {
        let ty = e.attr("sq:type").ok_or("missing sq:type")?;
        fn bad<E>(_: E) -> Refused {
            "bad scalar".into()
        }
        Ok(match ty {
            "string" => SoapValue::Str(e.text),
            "long" => SoapValue::Int(e.text.parse().map_err(bad)?),
            "double" => SoapValue::Float(e.text.parse().map_err(bad)?),
            "boolean" => SoapValue::Bool(e.text.parse().map_err(bad)?),
            "table" => SoapValue::Table(table(e.children.first().ok_or("no child")?)?),
            "xml" => SoapValue::Xml(e.children.into_iter().next().ok_or("no child")?),
            "nil" => SoapValue::Null,
            _ => return Err("unknown type".into()),
        })
    }

    fn values(payload: Element) -> Result<Vec<(String, SoapValue)>, Refused> {
        payload
            .children
            .into_iter()
            .map(|c| Ok((c.name.clone(), value(c)?)))
            .collect()
    }

    pub fn call(xml: &str) -> Result<RpcCall, Refused> {
        let payload = body(xml)?;
        Ok(RpcCall {
            method: local(&payload.name).to_string(),
            params: values(payload)?,
        })
    }

    pub fn response(xml: &str) -> Result<Result<RpcResponse, SoapFault>, Refused> {
        let payload = body(xml)?;
        let name = local(&payload.name).to_string();
        if name == "Fault" {
            let text = |n| payload.child_text(n).map_err(|e| e.to_string());
            let code = text("faultcode")?;
            return Ok(Err(SoapFault {
                code: local(code).to_string(),
                message: text("faultstring")?.to_string(),
                detail: payload
                    .child("detail")
                    .map(|d| d.text.clone())
                    .unwrap_or_default(),
            }));
        }
        let method = name.strip_suffix("Response").ok_or("not a Response")?;
        Ok(Ok(RpcResponse {
            method: method.to_string(),
            results: values(payload)?,
        }))
    }
}

fn table() -> VoTable {
    let mut t = VoTable::new(
        "partial",
        vec![
            VoColumn::new("id", VoType::Id),
            VoColumn::new("ra", VoType::Float),
            VoColumn::new("name", VoType::Text),
            VoColumn::new("ok", VoType::Bool),
            VoColumn::new("n", VoType::Int),
        ],
    );
    let text = |s: &str| VoCell::Text(s.to_string());
    for row in [
        vec![
            VoCell::Id(7),
            VoCell::Float(185.25),
            text("GALAXY"),
            VoCell::Bool(true),
            VoCell::Int(-3),
        ],
        vec![
            VoCell::Id(8),
            VoCell::Null,
            text(""),
            VoCell::Bool(false),
            VoCell::Null,
        ],
        vec![
            VoCell::Id(9),
            VoCell::Float(-0.5),
            text("a<b&c \"q\" λé"),
            VoCell::Null,
            VoCell::Int(0),
        ],
    ] {
        t.rows.push(row);
    }
    t
}

fn every_kind() -> Vec<(&'static str, SoapValue)> {
    vec![
        (
            "plan",
            SoapValue::Xml(
                Element::new("Plan")
                    .with_attr("q", "a&<\"λ")
                    .with_leaf("step", "1 < 2")
                    .with_child(Element::new("Empty")),
            ),
        ),
        ("t", SoapValue::Float(3.5)),
        ("n", SoapValue::Int(-12)),
        ("v", SoapValue::Bool(true)),
        ("s", SoapValue::Str("x & <y> é".into())),
        ("e", SoapValue::Str(String::new())),
        ("partial", SoapValue::Table(table())),
        ("none", SoapValue::Null),
    ]
}

/// A message's encoding, pretty-printed, and written with a comment,
/// CDATA and child elements inside text-valued elements — all decoding
/// to the same message.
fn variants(xml: String) -> Vec<String> {
    let pretty = Element::parse(&xml).unwrap().to_pretty_xml();
    let odd = xml
        .replace("<TD>GALAXY</TD>", "<TD>GAL<!-- c -->A<![CDATA[XY]]></TD>")
        .replace("<TD/>", "<TD> <i>x</i> </TD>")
        .replace(
            r#"<e sq:type="string"/>"#,
            r#"<e sq:type="string"> <i/> </e>"#,
        );
    vec![xml, pretty, odd]
}

/// Every mutant of `xml` that is still UTF-8.
fn mutants(xml: &str) -> Vec<String> {
    let bytes = xml.as_bytes();
    let mut out: Vec<String> = (0..xml.len())
        .filter(|&i| xml.is_char_boundary(i))
        .map(|i| xml[..i].to_string())
        .collect();
    for i in 0..bytes.len() {
        let mut deleted = bytes.to_vec();
        deleted.remove(i);
        out.extend(String::from_utf8(deleted).ok());
        for b in *b"<>/\"&x" {
            if bytes[i] != b {
                let mut replaced = bytes.to_vec();
                replaced[i] = b;
                out.extend(String::from_utf8(replaced).ok());
            }
        }
    }
    out
}

/// Compares the decoders on every mutant of `xml`.
fn agree<T: std::fmt::Debug, E: std::fmt::Display>(
    xml: &str,
    streamed: impl Fn(&str) -> Result<T, E>,
    dom: impl Fn(&str) -> Result<T, String>,
) {
    for m in mutants(xml) {
        let (new, old) = catch_unwind(AssertUnwindSafe(|| (streamed(&m), dom(&m))))
            .unwrap_or_else(|_| panic!("a decoder panicked on {m:?}"));
        match (new, old) {
            (Ok(new), Ok(old)) => {
                // Debug, so that a NaN compares equal to itself.
                assert_eq!(format!("{new:?}"), format!("{old:?}"), "on {m:?}");
            }
            (Ok(new), Err(why)) => {
                panic!("streamed accepts what the DOM refused ({why}): {m:?} -> {new:?}")
            }
            (Err(e), Ok(_)) => {
                assert!(
                    NEWLY_REFUSED.iter().any(|(_, is)| is(&m)),
                    "only the streamed decoder refuses {m:?}: {e}"
                );
            }
            (Err(_), Err(_)) => {}
        }
    }
}

#[test]
fn streamed_call_decode_agrees_with_the_dom() {
    let mut call = RpcCall::new("CrossMatch");
    for (name, value) in every_kind() {
        call = call.param(name, value);
    }
    for xml in variants(call.to_xml()) {
        assert_eq!(reference::call(&xml).unwrap(), call);
        agree(&xml, RpcCall::parse, reference::call);
    }
}

#[test]
fn streamed_reply_and_fault_decode_agree_with_the_dom() {
    let mut resp = RpcResponse::new("CrossMatch");
    for (name, value) in every_kind() {
        resp = resp.result(name, value);
    }
    let fault = SoapFault::server("archive <offline>").with_detail("host é & co");
    for xml in variants(resp.to_xml()).into_iter().chain([fault.to_xml()]) {
        assert!(reference::response(&xml).is_ok());
        agree(&xml, RpcResponse::parse, reference::response);
    }
}

#[test]
fn a_field_after_data_is_newly_refused() {
    // The DOM counted every FIELD, wherever it stood, so rows could match
    // a column declared after them.
    let xml = RpcResponse::new("M")
        .result("t", SoapValue::Table(table()))
        .to_xml()
        .replace("<FIELD name=\"n\" datatype=\"long\"/>", "")
        .replace(
            "</DATA></VOTABLE>",
            "</DATA><FIELD name=\"n\" datatype=\"long\"/></VOTABLE>",
        );
    assert_eq!(
        reference::response(&xml).unwrap(),
        Ok(RpcResponse::new("M").result("t", SoapValue::Table(table())))
    );
    assert!(RpcResponse::parse(&xml).is_err());
    assert!((NEWLY_REFUSED[0].1)(&xml));
}
