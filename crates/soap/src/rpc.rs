//! SOAP RPC: typed method calls, responses, and faults.
//!
//! Calls are encoded in the RPC style of early SOAP stacks: the body
//! element is the method name in the service namespace, each parameter a
//! child element with an `xsi:type`-like `sq:type` attribute. Result
//! tables ride as embedded VOTable elements — "the SkyNode returns this
//! result, as a serialized XML encoded SOAP message" (§5.3).

use skyquery_xml::{Element, VoTable};

use crate::envelope::Envelope;
use crate::{SoapError, SKYQUERY_NS};

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

    fn encode_into(&self, name: &str) -> Element {
        let e = Element::new(name).with_attr("sq:type", self.type_name());
        match self {
            SoapValue::Str(s) => e.with_text(s.clone()),
            SoapValue::Int(i) => e.with_text(i.to_string()),
            SoapValue::Float(x) => e.with_text(format!("{x:?}")),
            SoapValue::Bool(b) => e.with_text(b.to_string()),
            SoapValue::Table(t) => e.with_child(t.to_element()),
            SoapValue::Xml(x) => e.with_child(x.clone()),
            SoapValue::Null => e,
        }
    }

    fn decode(e: Element) -> Result<SoapValue, SoapError> {
        let ty = e.attr("sq:type").ok_or_else(|| SoapError::Protocol {
            detail: format!("parameter {} missing sq:type", e.name),
        })?;
        let parse_err = |what: &str| SoapError::Protocol {
            detail: format!("parameter {} is not a valid {what}: {:?}", e.name, e.text),
        };
        Ok(match ty {
            "string" => SoapValue::Str(e.text),
            "long" => SoapValue::Int(e.text.parse().map_err(|_| parse_err("long"))?),
            "double" => SoapValue::Float(e.text.parse().map_err(|_| parse_err("double"))?),
            "boolean" => SoapValue::Bool(e.text.parse().map_err(|_| parse_err("boolean"))?),
            "table" => {
                let t = e.children.first().ok_or_else(|| SoapError::Protocol {
                    detail: format!("table parameter {} has no VOTABLE child", e.name),
                })?;
                SoapValue::Table(VoTable::from_element(t)?)
            }
            "xml" => match e.children.into_iter().next() {
                Some(x) => SoapValue::Xml(x),
                None => {
                    return Err(SoapError::Protocol {
                        detail: format!("xml parameter {} has no child", e.name),
                    })
                }
            },
            "nil" => SoapValue::Null,
            other => {
                return Err(SoapError::Protocol {
                    detail: format!("unknown parameter type {other}"),
                })
            }
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
        let mut m = Element::new(format!("sq:{}", self.method)).with_attr("xmlns:sq", SKYQUERY_NS);
        for (name, value) in &self.params {
            m = m.with_child(value.encode_into(name));
        }
        Envelope::new(m).into_xml()
    }

    /// Decodes a wire document into a call.
    pub fn parse(xml: &str) -> Result<RpcCall, SoapError> {
        let env = Envelope::parse(xml)?;
        let method = env
            .body
            .name
            .rsplit_once(':')
            .map(|(_, local)| local)
            .unwrap_or(&env.body.name)
            .to_string();
        let mut params = Vec::new();
        for child in env.body.children {
            params.push((child.name.clone(), SoapValue::decode(child)?));
        }
        Ok(RpcCall { method, params })
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
        let mut m =
            Element::new(format!("sq:{}Response", self.method)).with_attr("xmlns:sq", SKYQUERY_NS);
        for (name, value) in &self.results {
            m = m.with_child(value.encode_into(name));
        }
        Envelope::new(m).into_xml()
    }

    /// Decodes a wire document into either a response or a fault.
    pub fn parse(xml: &str) -> Result<std::result::Result<RpcResponse, SoapFault>, SoapError> {
        let env = Envelope::parse(xml)?;
        let local = env
            .body
            .name
            .rsplit_once(':')
            .map(|(_, l)| l)
            .unwrap_or(&env.body.name);
        if local == "Fault" {
            return Ok(Err(SoapFault::from_element(&env.body)?));
        }
        let method = local
            .strip_suffix("Response")
            .ok_or_else(|| SoapError::Protocol {
                detail: format!("body element {local} is neither a Response nor a Fault"),
            })?
            .to_string();
        let mut results = Vec::new();
        for child in env.body.children {
            results.push((child.name.clone(), SoapValue::decode(child)?));
        }
        Ok(Ok(RpcResponse { method, results }))
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
        Envelope::new(f).into_xml()
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

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_xml::{VoColumn, VoType};

    fn table() -> VoTable {
        let mut t = VoTable::new(
            "partial",
            vec![
                VoColumn::new("id", VoType::Id),
                VoColumn::new("ra", VoType::Float),
            ],
        );
        t.push_row(vec![Some("7".into()), Some("185.25".into())])
            .unwrap();
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
}
