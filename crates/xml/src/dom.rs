//! A small element tree for message construction and navigation.

use crate::reader::{Attributes, XmlEvent, XmlReader};
use crate::writer::XmlWriter;
use crate::XmlError;

/// An XML element: name, attributes, child elements, and text content.
///
/// Mixed content is simplified: all text within an element is concatenated
/// into `text`, which is what SOAP-style protocols need.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Element name (possibly `prefix:local`).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
    /// Concatenated text content.
    pub text: String,
}

impl Element {
    /// An empty element with the given name.
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            ..Element::default()
        }
    }

    /// Builder: adds an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Builder: adds a child element.
    pub fn with_child(mut self, child: Element) -> Element {
        self.children.push(child);
        self
    }

    /// Builder: sets text content.
    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.text = text.into();
        self
    }

    /// Builder: adds a `<name>text</name>` child.
    pub fn with_leaf(self, name: impl Into<String>, text: impl Into<String>) -> Element {
        self.with_child(Element::new(name).with_text(text))
    }

    /// The first child with the given name. Names match either exactly or
    /// ignoring a namespace prefix (`Body` matches `soap:Body`).
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| local_matches(&c.name, name))
    }

    /// All children with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children
            .iter()
            .filter(move |c| local_matches(&c.name, name))
    }

    /// Like [`Element::child`] but an error naming the missing path.
    pub fn require_child(&self, name: &str) -> Result<&Element, XmlError> {
        self.child(name).ok_or_else(|| XmlError::MissingNode {
            path: format!("{}/{}", self.name, name),
        })
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Like [`Element::attr`] but an error naming the missing attribute.
    pub fn require_attr(&self, name: &str) -> Result<&str, XmlError> {
        self.attr(name).ok_or_else(|| XmlError::MissingNode {
            path: format!("{}/@{}", self.name, name),
        })
    }

    /// Text of a required child leaf.
    pub fn child_text(&self, name: &str) -> Result<&str, XmlError> {
        self.require_child(name).map(|c| c.text.as_str())
    }

    /// Serializes compactly (wire form).
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        self.write_into(&mut w);
        w.finish().expect("element trees are always balanced")
    }

    /// Serializes with indentation (debug form).
    pub fn to_pretty_xml(&self) -> String {
        let mut w = XmlWriter::pretty(2);
        w.declaration();
        self.write_into(&mut w);
        w.finish().expect("element trees are always balanced")
    }

    /// Writes this element and its subtree into `w`.
    pub fn write_into(&self, w: &mut XmlWriter) {
        w.open(&self.name);
        for (k, v) in &self.attributes {
            w.attr(k, v);
        }
        w.text(&self.text);
        for c in &self.children {
            c.write_into(w);
        }
        w.close().expect("balanced by construction");
    }

    fn start_tag(name: &str, attributes: Attributes<'_>) -> Element {
        Element {
            name: name.to_string(),
            attributes: attributes
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into_owned()))
                .collect(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builds the subtree of the element whose start tag `reader` just
    /// returned as `name` and `attributes`, reading through its end tag.
    pub fn read(
        reader: &mut XmlReader<'_>,
        name: &str,
        attributes: Attributes<'_>,
    ) -> Result<Element, XmlError> {
        let mut stack = vec![Element::start_tag(name, attributes)];
        loop {
            match reader.next_event()? {
                XmlEvent::StartElement { name, attributes } => {
                    stack.push(Element::start_tag(name, attributes));
                }
                XmlEvent::Text(t) => {
                    if let Some(top) = stack.last_mut() {
                        top.text.push_str(&t);
                    }
                }
                XmlEvent::EndElement { .. } => {
                    let Some(mut done) = stack.pop() else {
                        break;
                    };
                    // Whitespace around child elements is formatting noise
                    // (pretty printing); an all-space *leaf* keeps its text.
                    if !done.children.is_empty() && done.text.trim().is_empty() {
                        done.text.clear();
                    }
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(done),
                        None => return Ok(done),
                    }
                }
                XmlEvent::Eof => break,
            }
        }
        Err(XmlError::UnexpectedEof {
            context: "element never closed".into(),
        })
    }

    /// Parses a document into its root element.
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        let mut reader = XmlReader::new(input);
        let (name, attributes) = reader.root()?;
        let root = Element::read(&mut reader, name, attributes)?;
        reader.finish()?;
        Ok(root)
    }
}

/// Whether element name `actual` (possibly `prefix:local`) matches `wanted`
/// (compared against the full name and the local part).
pub fn local_matches(actual: &str, wanted: &str) -> bool {
    actual == wanted
        || actual
            .rsplit_once(':')
            .is_some_and(|(_, local)| local == wanted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("Envelope")
            .with_attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
            .with_child(
                Element::new("Body")
                    .with_leaf("Method", "CrossMatch")
                    .with_child(
                        Element::new("Param")
                            .with_attr("name", "threshold")
                            .with_text("3.5"),
                    ),
            )
    }

    #[test]
    fn roundtrip_parse_serialize() {
        let e = sample();
        let xml = e.to_xml();
        let back = Element::parse(&xml).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn roundtrip_pretty() {
        let e = sample();
        let back = Element::parse(&e.to_pretty_xml()).unwrap();
        // Pretty printing introduces no semantic change for element-only
        // content; leaf text survives exactly.
        assert_eq!(
            back.child("Body").unwrap().child_text("Method").unwrap(),
            "CrossMatch"
        );
    }

    #[test]
    fn navigation() {
        let e = sample();
        let body = e.require_child("Body").unwrap();
        assert_eq!(body.child_text("Method").unwrap(), "CrossMatch");
        let p = body.require_child("Param").unwrap();
        assert_eq!(p.require_attr("name").unwrap(), "threshold");
        assert_eq!(p.text, "3.5");
        assert!(body.require_child("Nope").is_err());
        assert!(p.require_attr("nope").is_err());
    }

    #[test]
    fn namespace_prefix_matching() {
        let e = Element::parse(
            r#"<soap:Envelope xmlns:soap="u"><soap:Body>x</soap:Body></soap:Envelope>"#,
        )
        .unwrap();
        assert!(e.child("Body").is_some());
        assert!(e.child("soap:Body").is_some());
        assert_eq!(e.child("Body").unwrap().text, "x");
    }

    #[test]
    fn children_named_filters() {
        let e = Element::new("r")
            .with_leaf("x", "1")
            .with_leaf("y", "2")
            .with_leaf("x", "3");
        let xs: Vec<&str> = e.children_named("x").map(|c| c.text.as_str()).collect();
        assert_eq!(xs, vec!["1", "3"]);
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Element::parse("<a/><b/>").is_err());
        assert!(Element::parse("<a/>junk").is_err());
        assert!(Element::parse("<a/>  ").is_ok());
    }

    #[test]
    fn parse_empty_input_fails() {
        assert!(Element::parse("").is_err());
        assert!(Element::parse("<!-- only a comment -->").is_err());
    }

    #[test]
    fn text_escaping_survives_roundtrip() {
        let e = Element::new("q").with_text(r#"a < b & "c" > 'd'"#);
        let back = Element::parse(&e.to_xml()).unwrap();
        assert_eq!(back.text, r#"a < b & "c" > 'd'"#);
    }
}
