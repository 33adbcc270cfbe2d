//! SOAP RPC: typed method calls, responses, and faults, in SOAP 1.1
//! envelopes.
//!
//! Calls are encoded in the RPC style of early SOAP stacks: the body
//! element is the method name in the service namespace, each parameter a
//! child element with an `xsi:type`-like `sq:type` attribute. Result
//! tables ride as embedded VOTable elements — "the SkyNode returns this
//! result, as a serialized XML encoded SOAP message" (§5.3).
//!
//! A message is written through one [`XmlWriter`] and read in one pass of
//! an [`XmlReader`]: a table parameter goes straight between its cells and
//! the XML text, and only `xml` parameters and faults become element
//! trees.

use skyquery_xml::dom::local_matches;
use skyquery_xml::reader::{attr, Attributes};
use skyquery_xml::{Element, TableSpans, VoTable, XmlError, XmlReader, XmlWriter};

use crate::{SoapError, SKYQUERY_NS, SOAP_ENV_NS};

const BALANCED: &str = "balanced by construction";

/// A typed RPC parameter or result value.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapValue {
    /// A string parameter.
    Str(String),
    /// A signed 64-bit integer parameter.
    Int(i64),
    /// A 64-bit float parameter.
    Float(f64),
    /// A boolean parameter.
    Bool(bool),
    /// A whole result table.
    Table(VoTable),
    /// An arbitrary XML payload (schemas, plans).
    Xml(Element),
    /// Explicit nil.
    Null,
}

impl SoapValue {
    fn type_name(&self) -> &'static str {
        match self {
            SoapValue::Str(_) => "string",
            SoapValue::Int(_) => "long",
            SoapValue::Float(_) => "double",
            SoapValue::Bool(_) => "boolean",
            SoapValue::Table(_) => "table",
            SoapValue::Xml(_) => "xml",
            SoapValue::Null => "nil",
        }
    }

    /// Writes this value as the parameter element `name`; for a table,
    /// returns where it wrote the table.
    fn write_param(&self, w: &mut XmlWriter, name: &str) -> Option<TableSpans> {
        w.open(name).attr("sq:type", self.type_name());
        let mut spans = None;
        match self {
            SoapValue::Str(s) => _ = w.text(s),
            SoapValue::Int(i) => _ = w.text(&i.to_string()),
            SoapValue::Float(x) => _ = w.text(&format!("{x:?}")),
            SoapValue::Bool(b) => _ = w.text(&b.to_string()),
            SoapValue::Table(t) => spans = Some(t.write_into(w)),
            SoapValue::Xml(x) => x.write_into(w),
            SoapValue::Null => {}
        }
        w.close().expect(BALANCED);
        spans
    }

    /// Reads the parameter element `name` whose start tag `r` just
    /// returned, through its end tag.
    fn read_param(
        r: &mut XmlReader<'_>,
        name: &str,
        attributes: &Attributes<'_>,
    ) -> Result<SoapValue, SoapError> {
        let ty = attr(attributes, "sq:type")
            .ok_or_else(|| protocol(format!("parameter {name} missing sq:type")))?;
        Ok(match ty {
            "string" => SoapValue::Str(r.read_text()?.into_owned()),
            "long" => SoapValue::Int(scalar(r, name, "long")?),
            "double" => SoapValue::Float(scalar(r, name, "double")?),
            "boolean" => SoapValue::Bool(scalar(r, name, "boolean")?),
            "table" => SoapValue::Table(first_child(r, name, |r, n, a| VoTable::read(r, n, &a))?),
            "xml" => SoapValue::Xml(first_child(r, name, Element::read)?),
            "nil" => {
                r.skip_element()?;
                SoapValue::Null
            }
            other => return Err(protocol(format!("unknown parameter type {other}"))),
        })
    }

    /// String view (`None` on type mismatch).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            SoapValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (`None` on type mismatch).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            SoapValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: floats directly, integers widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            SoapValue::Float(x) => Some(*x),
            SoapValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean view (`None` on type mismatch).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            SoapValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Table view (`None` on type mismatch).
    pub fn as_table(&self) -> Option<&VoTable> {
        match self {
            SoapValue::Table(t) => Some(t),
            _ => None,
        }
    }

    /// XML-payload view (`None` on type mismatch).
    pub fn as_xml(&self) -> Option<&Element> {
        match self {
            SoapValue::Xml(x) => Some(x),
            _ => None,
        }
    }
}

/// An RPC method call.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcCall {
    /// The invoked method name.
    pub method: String,
    /// Named, typed parameters in call order.
    pub params: Vec<(String, SoapValue)>,
}

impl RpcCall {
    /// A call with no parameters yet.
    pub fn new(method: impl Into<String>) -> RpcCall {
        RpcCall {
            method: method.into(),
            params: Vec::new(),
        }
    }

    /// Builder: appends a parameter.
    pub fn param(mut self, name: impl Into<String>, value: SoapValue) -> RpcCall {
        self.params.push((name.into(), value));
        self
    }

    /// Parameter by name.
    pub fn get(&self, name: &str) -> Option<&SoapValue> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Required parameter, with a protocol error naming it when absent.
    pub fn require(&self, name: &str) -> Result<&SoapValue, SoapError> {
        self.get(name).ok_or_else(|| SoapError::Protocol {
            detail: format!("call {} missing parameter {name}", self.method),
        })
    }

    /// The `SOAPAction` header value for this call.
    pub fn soap_action(&self) -> String {
        format!("{SKYQUERY_NS}#{}", self.method)
    }

    /// Encodes to a wire XML document.
    pub fn to_xml(&self) -> String {
        rpc_envelope(&format!("sq:{}", self.method), None, &self.params).0
    }

    /// Decodes a wire document into a call.
    pub fn parse(xml: &str) -> Result<RpcCall, SoapError> {
        read_envelope(xml, |r, name, _| {
            Ok(RpcCall {
                method: local_name(name).to_string(),
                params: read_params(r)?,
            })
        })
    }
}

/// A successful RPC response: the method name plus named results.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcResponse {
    /// The method this responds to.
    pub method: String,
    /// Named, typed results.
    pub results: Vec<(String, SoapValue)>,
}

impl RpcResponse {
    /// A response with no results yet.
    pub fn new(method: impl Into<String>) -> RpcResponse {
        RpcResponse {
            method: method.into(),
            results: Vec::new(),
        }
    }

    /// Builder: appends a named result.
    pub fn result(mut self, name: impl Into<String>, value: SoapValue) -> RpcResponse {
        self.results.push((name.into(), value));
        self
    }

    /// Result by name.
    pub fn get(&self, name: &str) -> Option<&SoapValue> {
        self.results.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Required result, with a protocol error naming it when absent.
    pub fn require(&self, name: &str) -> Result<&SoapValue, SoapError> {
        self.get(name).ok_or_else(|| SoapError::Protocol {
            detail: format!("response {} missing result {name}", self.method),
        })
    }

    /// Removes and returns a result by name — for a caller that wants
    /// the value itself rather than a copy of it.
    pub fn take(&mut self, name: &str) -> Option<SoapValue> {
        let at = self.results.iter().position(|(n, _)| n == name)?;
        Some(self.results.remove(at).1)
    }

    /// Encodes to a wire XML document.
    pub fn to_xml(&self) -> String {
        self.encode().0
    }

    /// Encodes to a wire XML document, also returning the index of the
    /// first table result and where the document holds that table.
    pub fn encode(&self) -> (String, Option<(usize, TableSpans)>) {
        rpc_envelope(&self.element(), None, &self.results)
    }

    /// Encodes with the table result `name` ahead of the others, written
    /// as `table`: pieces of a `VOTABLE` encoded once already.
    pub(crate) fn encode_with_table(&self, name: &str, table: &[&str]) -> String {
        rpc_envelope(&self.element(), Some((name, table)), &self.results).0
    }

    fn element(&self) -> String {
        format!("sq:{}Response", self.method)
    }

    /// Decodes a wire document into either a response or a fault.
    pub fn parse(xml: &str) -> Result<std::result::Result<RpcResponse, SoapFault>, SoapError> {
        read_envelope(xml, |r, name, attributes| {
            let local = local_name(name);
            if local == "Fault" {
                return Ok(Err(SoapFault::from_element(&Element::read(
                    r, name, attributes,
                )?)?));
            }
            let method = local
                .strip_suffix("Response")
                .ok_or_else(|| {
                    protocol(format!(
                        "body element {local} is neither a Response nor a Fault"
                    ))
                })?
                .to_string();
            Ok(Ok(RpcResponse {
                method,
                results: read_params(r)?,
            }))
        })
    }
}

/// A SOAP 1.1 fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapFault {
    /// `Client`, `Server`, etc.
    pub code: String,
    /// Human-readable fault string.
    pub message: String,
    /// Optional detail (e.g. the failing SkyNode).
    pub detail: String,
}

impl SoapFault {
    /// A `Server`-code fault (the service failed).
    pub fn server(message: impl Into<String>) -> SoapFault {
        SoapFault {
            code: "Server".into(),
            message: message.into(),
            detail: String::new(),
        }
    }

    /// A `Client`-code fault (the request was bad).
    pub fn client(message: impl Into<String>) -> SoapFault {
        SoapFault {
            code: "Client".into(),
            message: message.into(),
            detail: String::new(),
        }
    }

    /// Builder: attaches detail text.
    pub fn with_detail(mut self, detail: impl Into<String>) -> SoapFault {
        self.detail = detail.into();
        self
    }

    /// Encodes to a wire XML document (ridden on HTTP 500).
    pub fn to_xml(&self) -> String {
        let f = Element::new("soap:Fault")
            .with_leaf("faultcode", format!("soap:{}", self.code))
            .with_leaf("faultstring", self.message.clone())
            .with_leaf("detail", self.detail.clone());
        envelope(|w| f.write_into(w))
    }

    fn from_element(e: &Element) -> Result<SoapFault, SoapError> {
        let code_raw = e.child_text("faultcode").map_err(SoapError::Xml)?;
        let code = code_raw
            .rsplit_once(':')
            .map(|(_, l)| l)
            .unwrap_or(code_raw)
            .to_string();
        let message = e
            .child_text("faultstring")
            .map_err(SoapError::Xml)?
            .to_string();
        let detail = e
            .child("detail")
            .map(|d| d.text.clone())
            .unwrap_or_default();
        Ok(SoapFault {
            code,
            message,
            detail,
        })
    }
}

impl std::fmt::Display for SoapFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SOAP fault [{}]: {}", self.code, self.message)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// A whole envelope whose body payload `write_payload` writes.
fn envelope(write_payload: impl FnOnce(&mut XmlWriter)) -> String {
    let mut w = XmlWriter::new();
    w.open("soap:Envelope").attr("xmlns:soap", SOAP_ENV_NS);
    w.open("soap:Body");
    write_payload(&mut w);
    w.close().expect(BALANCED);
    w.close().expect(BALANCED);
    w.finish().expect(BALANCED)
}

/// An envelope around the RPC element `element` holding, when given, the
/// table parameter `encoded` (a name and the pieces of its encoded
/// `VOTABLE`), then `values`; with the index of the first table in
/// `values` and where the document holds it.
fn rpc_envelope(
    element: &str,
    encoded: Option<(&str, &[&str])>,
    values: &[(String, SoapValue)],
) -> (String, Option<(usize, TableSpans)>) {
    let mut first_table = None;
    let xml = envelope(|w| {
        w.open(element).attr("xmlns:sq", SKYQUERY_NS);
        if let Some((name, pieces)) = encoded {
            w.open(name).attr("sq:type", "table");
            for piece in pieces {
                w.raw(piece);
            }
            w.close().expect(BALANCED);
        }
        for (at, (name, value)) in values.iter().enumerate() {
            let spans = value.write_param(w, name);
            if first_table.is_none() {
                first_table = spans.map(|spans| (at, spans));
            }
        }
        w.close().expect(BALANCED);
    });
    (xml, first_table)
}

/// Reads a wire document in one pass. The root must be an `Envelope`
/// declaring the SOAP namespace, and its first `Body` must hold exactly
/// one payload element, which `read_payload` reads from its start tag
/// through its end tag; the envelope's other children (a `Header`, say)
/// are skipped.
fn read_envelope<'a, T>(
    xml: &'a str,
    mut read_payload: impl FnMut(&mut XmlReader<'a>, &'a str, Attributes<'a>) -> Result<T, SoapError>,
) -> Result<T, SoapError> {
    let mut r = XmlReader::new(xml);
    let (name, attributes) = r.root()?;
    if !local_matches(name, "Envelope") {
        return Err(protocol(format!("root element is {name}, not Envelope")));
    }
    // The namespace declaration must be present and correct.
    let ns_ok = attributes
        .iter()
        .any(|(k, v)| (*k == "xmlns" || k.starts_with("xmlns:")) && v == SOAP_ENV_NS);
    if !ns_ok {
        return Err(protocol("missing SOAP envelope namespace"));
    }
    let mut payload = None;
    while let Some((name, _)) = r.next_child()? {
        if payload.is_some() || !local_matches(name, "Body") {
            r.skip_element()?;
            continue;
        }
        let (name, attributes) = r.next_child()?.ok_or_else(|| protocol("Body is empty"))?;
        payload = Some(read_payload(&mut r, name, attributes)?);
        if r.next_child()?.is_some() {
            return Err(protocol("Body carries more than one payload element"));
        }
    }
    let payload = payload.ok_or_else(|| protocol("envelope has no Body"))?;
    r.finish()?;
    Ok(payload)
}

/// Reads the named, typed parameters of the RPC element being read.
fn read_params(r: &mut XmlReader<'_>) -> Result<Vec<(String, SoapValue)>, SoapError> {
    let mut params = Vec::new();
    while let Some((name, attributes)) = r.next_child()? {
        params.push((
            name.to_string(),
            SoapValue::read_param(r, name, &attributes)?,
        ));
    }
    Ok(params)
}

/// Reads the text of parameter `param` as a `what`.
fn scalar<T: std::str::FromStr>(
    r: &mut XmlReader<'_>,
    param: &str,
    what: &str,
) -> Result<T, SoapError> {
    let text = r.read_text()?;
    text.parse()
        .map_err(|_| protocol(format!("parameter {param} is not a valid {what}: {text:?}")))
}

/// Reads the first child element of parameter `param` with `read`, then
/// skips the rest of the parameter.
fn first_child<'a, T>(
    r: &mut XmlReader<'a>,
    param: &str,
    read: impl FnOnce(&mut XmlReader<'a>, &'a str, Attributes<'a>) -> Result<T, XmlError>,
) -> Result<T, SoapError> {
    let (name, attributes) = r
        .next_child()?
        .ok_or_else(|| protocol(format!("parameter {param} has no child element")))?;
    let value = read(r, name, attributes)?;
    while r.next_child()?.is_some() {
        r.skip_element()?;
    }
    Ok(value)
}

/// An element name without its namespace prefix.
fn local_name(name: &str) -> &str {
    name.rsplit_once(':').map_or(name, |(_, local)| local)
}

fn protocol(detail: impl Into<String>) -> SoapError {
    SoapError::Protocol {
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_xml::{VoCell, VoColumn, VoType};

    fn table() -> VoTable {
        let mut t = VoTable::new(
            "partial",
            vec![
                VoColumn::new("id", VoType::Id),
                VoColumn::new("ra", VoType::Float),
            ],
        );
        t.rows.push(vec![VoCell::Id(7), VoCell::Float(185.25)]);
        t
    }

    #[test]
    fn call_roundtrip_all_types() {
        let call = RpcCall::new("CrossMatch")
            .param(
                "plan",
                SoapValue::Xml(Element::new("Plan").with_leaf("step", "1")),
            )
            .param("threshold", SoapValue::Float(3.5))
            .param("depth", SoapValue::Int(12))
            .param("verbose", SoapValue::Bool(true))
            .param("note", SoapValue::Str("hello <world>".into()))
            .param("partial", SoapValue::Table(table()))
            .param("missing", SoapValue::Null);
        let back = RpcCall::parse(&call.to_xml()).unwrap();
        assert_eq!(back, call);
        assert_eq!(back.require("threshold").unwrap().as_f64(), Some(3.5));
        assert_eq!(back.require("depth").unwrap().as_i64(), Some(12));
        assert_eq!(
            back.get("partial").unwrap().as_table().unwrap().row_count(),
            1
        );
        assert!(back.require("nope").is_err());
    }

    #[test]
    fn soap_action_format() {
        assert_eq!(RpcCall::new("Query").soap_action(), "urn:skyquery#Query");
    }

    #[test]
    fn response_roundtrip() {
        let resp = RpcResponse::new("Query").result("count", SoapValue::Int(538));
        let parsed = RpcResponse::parse(&resp.to_xml()).unwrap().unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.require("count").unwrap().as_i64(), Some(538));
    }

    #[test]
    fn fault_roundtrip() {
        let fault = SoapFault::server("archive offline").with_detail("host sdss unreachable");
        let parsed = RpcResponse::parse(&fault.to_xml()).unwrap().unwrap_err();
        assert_eq!(parsed, fault);
        assert!(parsed.to_string().contains("archive offline"));
    }

    #[test]
    fn response_parse_rejects_non_response() {
        let call = RpcCall::new("Query").to_xml();
        assert!(RpcResponse::parse(&call).is_err());
    }

    #[test]
    fn float_params_roundtrip_exactly() {
        let x = 0.1 + 0.2; // classic non-representable sum
        let call = RpcCall::new("M").param("x", SoapValue::Float(x));
        let back = RpcCall::parse(&call.to_xml()).unwrap();
        assert_eq!(back.get("x").unwrap().as_f64(), Some(x));
    }

    #[test]
    fn decode_rejects_bad_types() {
        let xml = RpcCall::new("M")
            .param("x", SoapValue::Int(1))
            .to_xml()
            .replace(">1<", ">one<");
        assert!(RpcCall::parse(&xml).is_err());
        let xml2 = RpcCall::new("M")
            .param("x", SoapValue::Int(1))
            .to_xml()
            .replace("sq:type=\"long\"", "sq:type=\"mystery\"");
        assert!(RpcCall::parse(&xml2).is_err());
    }

    #[test]
    fn table_param_without_votable_rejected() {
        let xml = format!(
            r#"<soap:Envelope xmlns:soap="{}"><soap:Body><sq:M xmlns:sq="{}"><t sq:type="table"/></sq:M></soap:Body></soap:Envelope>"#,
            crate::SOAP_ENV_NS,
            SKYQUERY_NS
        );
        assert!(RpcCall::parse(&xml).is_err());
    }

    /// Both decoders refuse `xml`.
    fn refused(xml: &str) -> bool {
        RpcCall::parse(xml).is_err() && RpcResponse::parse(xml).is_err()
    }

    #[test]
    fn rejects_non_envelope() {
        assert!(refused("<NotSoap/>"));
    }

    #[test]
    fn rejects_missing_namespace() {
        assert!(refused(
            "<soap:Envelope><soap:Body><xResponse/></soap:Body></soap:Envelope>"
        ));
    }

    #[test]
    fn rejects_empty_or_crowded_body() {
        let ns = crate::SOAP_ENV_NS;
        let empty =
            format!(r#"<soap:Envelope xmlns:soap="{ns}"><soap:Body></soap:Body></soap:Envelope>"#);
        assert!(refused(&empty));
        let two = format!(
            r#"<soap:Envelope xmlns:soap="{ns}"><soap:Body><aResponse/><bResponse/></soap:Body></soap:Envelope>"#
        );
        assert!(refused(&two));
        let none = format!(r#"<soap:Envelope xmlns:soap="{ns}"/>"#);
        assert!(refused(&none));
    }

    #[test]
    fn accepts_default_namespace_form() {
        let ns = crate::SOAP_ENV_NS;
        let xml = format!(r#"<Envelope xmlns="{ns}"><Body><x/></Body></Envelope>"#);
        assert_eq!(RpcCall::parse(&xml).unwrap(), RpcCall::new("x"));
        let xml = format!(r#"<Envelope xmlns="{ns}"><Body><xResponse/></Body></Envelope>"#);
        assert_eq!(
            RpcResponse::parse(&xml).unwrap().unwrap(),
            RpcResponse::new("x")
        );
    }

    #[test]
    fn header_block_is_skipped() {
        let call = RpcCall::new("M").param("x", SoapValue::Int(1));
        let xml = call.to_xml().replacen(
            "<soap:Body>",
            "<soap:Header><TraceId>abc</TraceId></soap:Header><soap:Body>",
            1,
        );
        assert_eq!(RpcCall::parse(&xml).unwrap(), call);
    }
}
