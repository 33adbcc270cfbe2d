//! SOAP 1.1 envelope encoding and decoding.

use skyquery_xml::Element;

use crate::{SoapError, SOAP_ENV_NS};

/// A SOAP envelope: optional header, mandatory body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The single element inside `<soap:Header>`, if any.
    pub header: Option<Element>,
    /// The single element inside `<soap:Body>`.
    pub body: Element,
}

impl Envelope {
    /// Wraps a body payload.
    pub fn new(body: Element) -> Envelope {
        Envelope { header: None, body }
    }

    /// Adds a header block.
    pub fn with_header(mut self, header: Element) -> Envelope {
        self.header = Some(header);
        self
    }

    /// Serializes to the on-the-wire XML document, moving the header and
    /// body into the envelope rather than copying them.
    pub fn into_xml(self) -> String {
        let mut env = Element::new("soap:Envelope").with_attr("xmlns:soap", SOAP_ENV_NS);
        if let Some(h) = self.header {
            env = env.with_child(Element::new("soap:Header").with_child(h));
        }
        env.with_child(Element::new("soap:Body").with_child(self.body))
            .to_xml()
    }

    /// Parses and validates a wire document, moving the header and body
    /// out of the parsed tree.
    pub fn parse(xml: &str) -> Result<Envelope, SoapError> {
        let mut root = Element::parse(xml)?;
        if !name_is(&root.name, "Envelope") {
            return Err(SoapError::Protocol {
                detail: format!("root element is {}, not Envelope", root.name),
            });
        }
        // The namespace declaration must be present and correct.
        let ns_ok = root
            .attributes
            .iter()
            .any(|(k, v)| (k == "xmlns" || k.starts_with("xmlns:")) && v == SOAP_ENV_NS);
        if !ns_ok {
            return Err(SoapError::Protocol {
                detail: "missing SOAP envelope namespace".into(),
            });
        }
        let mut take = |name| {
            let at = root.children.iter().position(|c| name_is(&c.name, name))?;
            Some(root.children.remove(at))
        };
        let header = take("Header").and_then(|h| h.children.into_iter().next());
        let mut body_el = take("Body").ok_or_else(|| SoapError::Protocol {
            detail: "envelope has no Body".into(),
        })?;
        if body_el.children.len() > 1 {
            return Err(SoapError::Protocol {
                detail: "Body carries more than one payload element".into(),
            });
        }
        let body = body_el.children.pop().ok_or_else(|| SoapError::Protocol {
            detail: "Body is empty".into(),
        })?;
        Ok(Envelope { header, body })
    }
}

fn name_is(actual: &str, wanted: &str) -> bool {
    actual == wanted
        || actual
            .rsplit_once(':')
            .is_some_and(|(_, local)| local == wanted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let env = Envelope::new(
            Element::new("m:CrossMatch")
                .with_attr("xmlns:m", "urn:skyquery")
                .with_leaf("threshold", "3.5"),
        );
        let xml = env.clone().into_xml();
        assert!(xml.starts_with("<soap:Envelope"));
        let back = Envelope::parse(&xml).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn header_preserved() {
        let env =
            Envelope::new(Element::new("x")).with_header(Element::new("TraceId").with_text("abc"));
        let back = Envelope::parse(&env.into_xml()).unwrap();
        assert_eq!(back.header.unwrap().text, "abc");
    }

    #[test]
    fn rejects_non_envelope() {
        assert!(Envelope::parse("<NotSoap/>").is_err());
    }

    #[test]
    fn rejects_missing_namespace() {
        assert!(
            Envelope::parse("<soap:Envelope><soap:Body><x/></soap:Body></soap:Envelope>").is_err()
        );
    }

    #[test]
    fn rejects_empty_or_crowded_body() {
        let empty = format!(
            r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"><soap:Body></soap:Body></soap:Envelope>"#
        );
        assert!(Envelope::parse(&empty).is_err());
        let two = format!(
            r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"><soap:Body><a/><b/></soap:Body></soap:Envelope>"#
        );
        assert!(Envelope::parse(&two).is_err());
        let none = format!(r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"/>"#);
        assert!(Envelope::parse(&none).is_err());
    }

    #[test]
    fn accepts_default_namespace_form() {
        let xml = format!(r#"<Envelope xmlns="{SOAP_ENV_NS}"><Body><x/></Body></Envelope>"#);
        let env = Envelope::parse(&xml).unwrap();
        assert_eq!(env.body.name, "x");
    }
}
