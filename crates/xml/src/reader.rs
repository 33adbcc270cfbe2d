//! A strict pull parser for the XML subset SkyQuery messages use.
//!
//! Events borrow from the input: element names are slices of it, and text
//! and attribute values are too unless an entity has to be expanded.

use std::borrow::Cow;

use crate::escape::unescape;
use crate::XmlError;

/// The deepest element nesting a document may have; one element more is
/// [`XmlError::Malformed`]. Over the five wire-transcript scenarios the
/// deepest message is 8 elements deep — a reply's `TD` cell
/// (`Envelope`/`Body`/payload/parameter/`VOTABLE`/`DATA`/`TR`/`TD`) and a
/// `ScatterStep` call's plan — so this leaves wide room. The limit keeps
/// a hostile document from growing a tree whose recursive drop, clone or
/// comparison would overflow the stack.
pub const MAX_DEPTH: usize = 256;

/// A start tag's attributes in document order, values unescaped.
pub type Attributes<'a> = Vec<(&'a str, Cow<'a, str>)>;

/// The value of the first attribute named `name`, as
/// [`Element::attr`](crate::Element::attr) finds it.
pub fn attr<'v>(attributes: &'v [(&str, Cow<'_, str>)], name: &str) -> Option<&'v str> {
    attributes
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_ref())
}

/// An event produced by [`XmlReader::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// `<name attr="v" …>` (also produced for self-closing tags, followed
    /// immediately by the matching `EndElement`).
    StartElement {
        /// The element name as written (including any prefix).
        name: &'a str,
        /// Attributes in document order, values unescaped.
        attributes: Attributes<'a>,
    },
    /// `</name>` or the synthetic close of a self-closing tag.
    EndElement {
        /// The closed element's name.
        name: &'a str,
    },
    /// Unescaped character data (entities expanded, CDATA verbatim).
    /// Whitespace-only runs are reported as-is; structural consumers
    /// decide whether they are formatting noise.
    Text(Cow<'a, str>),
    /// End of input. Returned exactly once; the document must be balanced.
    Eof,
}

/// Pull parser over a complete in-memory document.
///
/// ```
/// use skyquery_xml::{XmlReader, XmlEvent};
/// let mut r = XmlReader::new("<a x=\"1\"><b>hi &amp; bye</b></a>");
/// assert!(matches!(r.next_event().unwrap(), XmlEvent::StartElement { .. }));
/// ```
#[derive(Debug)]
pub struct XmlReader<'a> {
    input: &'a str,
    pos: usize,
    stack: Vec<&'a str>,
    /// Pending synthetic end element from a self-closing tag.
    pending_end: bool,
    finished: bool,
}

impl<'a> XmlReader<'a> {
    /// A reader over a complete document.
    pub fn new(input: &'a str) -> XmlReader<'a> {
        XmlReader {
            input,
            pos: 0,
            stack: Vec::new(),
            pending_end: false,
            finished: false,
        }
    }

    fn err(&self, detail: impl Into<String>) -> XmlError {
        XmlError::Malformed {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &'a [u8] {
        self.input.as_bytes().get(self.pos..).unwrap_or_default()
    }

    /// The input between `start` and the current position. Every position
    /// the reader stops at follows an ASCII delimiter, so the slice is on
    /// character boundaries; a slice that is not is an error, not a panic.
    fn slice(&self, start: usize) -> Result<&'a str, XmlError> {
        self.input
            .get(start..self.pos)
            .ok_or_else(|| self.err("token does not end on a character boundary"))
    }

    /// Advances to just past the next `s`, returning the input skipped
    /// before it.
    fn skip_until(&mut self, s: &str) -> Result<&'a str, XmlError> {
        let start = self.pos;
        let found = self.rest().windows(s.len()).position(|w| w == s.as_bytes());
        match found {
            Some(at) => {
                self.pos += at;
                let skipped = self.slice(start)?;
                self.pos += s.len();
                Ok(skipped)
            }
            None => {
                self.pos = self.input.len();
                Err(XmlError::UnexpectedEof {
                    context: format!("scanning for {s}"),
                })
            }
        }
    }

    fn skip_ws(&mut self) {
        self.skip_while(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'));
    }

    /// Advances past the bytes for which `keep` holds.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = self.rest();
        self.pos += rest.iter().position(|&c| !keep(c)).unwrap_or(rest.len());
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':'));
        let name = self.slice(start)?;
        match name.as_bytes().first() {
            None => Err(self.err("expected a name")),
            Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'.') => {
                Err(self.err("names may not start with a digit, '-' or '.'"))
            }
            Some(_) => Ok(name),
        }
    }

    fn open(&mut self, name: &'a str) -> Result<(), XmlError> {
        if self.stack.len() >= MAX_DEPTH {
            return Err(self.err(format!("elements nest deeper than {MAX_DEPTH}")));
        }
        self.stack.push(name);
        Ok(())
    }

    /// Produces the next event.
    pub fn next_event(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        if self.pending_end {
            self.pending_end = false;
            if let Some(name) = self.stack.pop() {
                return Ok(XmlEvent::EndElement { name });
            }
        }
        loop {
            if self.pos >= self.input.len() {
                if self.finished {
                    return Err(self.err("read past end of document"));
                }
                if let Some(open) = self.stack.last() {
                    return Err(XmlError::UnexpectedEof {
                        context: format!("element <{open}> never closed"),
                    });
                }
                self.finished = true;
                return Ok(XmlEvent::Eof);
            }
            let rest = self.rest();
            let (raw, cdata) = if rest.starts_with(b"<![CDATA[") {
                self.pos += "<![CDATA[".len();
                (self.skip_until("]]>")?, true)
            } else if rest.starts_with(b"<") {
                // Markup.
                if rest.starts_with(b"<!--") {
                    self.skip_until("-->")?;
                    continue;
                }
                if rest.starts_with(b"<?") {
                    self.skip_until("?>")?;
                    continue;
                }
                if rest.starts_with(b"<!") {
                    // DOCTYPE and friends: unsupported, skip to '>'.
                    self.skip_until(">")?;
                    continue;
                }
                if rest.starts_with(b"</") {
                    self.pos += 2;
                    // The common case — the open element's name, then
                    // '>' — needs no scan of the name.
                    if let Some(open) = self.stack.last().copied() {
                        if self
                            .rest()
                            .strip_prefix(open.as_bytes())
                            .and_then(|r| r.first())
                            == Some(&b'>')
                        {
                            self.pos += open.len() + 1;
                            self.stack.pop();
                            return Ok(XmlEvent::EndElement { name: open });
                        }
                    }
                    let name = self.read_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after close-tag name"));
                    }
                    self.pos += 1;
                    return match self.stack.pop() {
                        Some(open) if open == name => Ok(XmlEvent::EndElement { name }),
                        Some(open) => Err(XmlError::TagMismatch {
                            expected: open.to_string(),
                            found: name.to_string(),
                        }),
                        None => Err(self.err(format!("close tag </{name}> with no open element"))),
                    };
                }
                // Start tag.
                self.pos += 1;
                let name = self.read_name()?;
                let mut attributes = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b'>') => {
                            self.pos += 1;
                            self.open(name)?;
                            return Ok(XmlEvent::StartElement { name, attributes });
                        }
                        Some(b'/') => {
                            self.pos += 1;
                            if self.peek() != Some(b'>') {
                                return Err(self.err("expected '>' after '/'"));
                            }
                            self.pos += 1;
                            self.open(name)?;
                            self.pending_end = true;
                            return Ok(XmlEvent::StartElement { name, attributes });
                        }
                        Some(_) => {
                            let aname = self.read_name()?;
                            self.skip_ws();
                            if self.peek() != Some(b'=') {
                                return Err(self.err(format!("attribute {aname} missing '='")));
                            }
                            self.pos += 1;
                            self.skip_ws();
                            let quote = match self.peek() {
                                Some(q @ (b'"' | b'\'')) => q,
                                _ => return Err(self.err("attribute value must be quoted")),
                            };
                            self.pos += 1;
                            let start = self.pos;
                            self.skip_while(|c| c != quote);
                            if self.peek().is_none() {
                                return Err(XmlError::UnexpectedEof {
                                    context: format!("attribute {aname}"),
                                });
                            }
                            let raw = self.slice(start)?;
                            self.pos += 1;
                            attributes.push((aname, unescape(raw)?));
                        }
                        None => {
                            return Err(XmlError::UnexpectedEof {
                                context: format!("inside tag <{name}"),
                            })
                        }
                    }
                }
            } else {
                // Character data.
                let start = self.pos;
                self.skip_while(|c| c != b'<');
                (self.slice(start)?, false)
            };
            if self.stack.is_empty() {
                // Whitespace between top-level constructs is fine; anything
                // else, a CDATA section included, is malformed.
                if raw.trim().is_empty() {
                    continue;
                }
                return Err(self.err("character data outside the root element"));
            }
            // Whitespace-only runs are reported too: only a consumer that
            // knows the element structure (e.g. the DOM builder) can tell
            // formatting noise from a meaningful all-space leaf value.
            return Ok(XmlEvent::Text(if cdata {
                Cow::Borrowed(raw)
            } else {
                unescape(raw)?
            }));
        }
    }

    /// The root element's start tag, which must be the document's first
    /// event.
    pub fn root(&mut self) -> Result<(&'a str, Attributes<'a>), XmlError> {
        match self.next_event()? {
            XmlEvent::StartElement { name, attributes } => Ok((name, attributes)),
            _ => Err(XmlError::UnexpectedEof {
                context: "document has no root element".into(),
            }),
        }
    }

    /// Consumes the rest of the element whose start tag was just read,
    /// through its end tag.
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        let depth = self.stack.len();
        loop {
            match self.next_event()? {
                XmlEvent::EndElement { .. } if self.stack.len() < depth => return Ok(()),
                XmlEvent::Eof => return Err(self.err("element ended past the document")),
                _ => {}
            }
        }
    }

    /// The start tag of the next child of the element being read, with
    /// text between children skipped; `None` once that element's end tag
    /// has been read.
    pub fn next_child(&mut self) -> Result<Option<(&'a str, Attributes<'a>)>, XmlError> {
        loop {
            match self.next_event()? {
                XmlEvent::StartElement { name, attributes } => return Ok(Some((name, attributes))),
                XmlEvent::EndElement { .. } => return Ok(None),
                XmlEvent::Text(_) => {}
                XmlEvent::Eof => return Err(self.err("element ended past the document")),
            }
        }
    }

    /// Reads the rest of the element whose start tag was just read and
    /// returns its own text: every text run directly inside it,
    /// concatenated, with child elements skipped. As in the DOM,
    /// whitespace-only text beside child elements is formatting and reads
    /// as empty.
    pub fn read_text(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let mut text = Cow::Borrowed("");
        let mut had_children = false;
        loop {
            match self.next_event()? {
                XmlEvent::Text(t) if text.is_empty() => text = t,
                XmlEvent::Text(t) => text.to_mut().push_str(&t),
                XmlEvent::StartElement { .. } => {
                    had_children = true;
                    self.skip_element()?;
                }
                XmlEvent::EndElement { .. } => break,
                XmlEvent::Eof => return Err(self.err("element ended past the document")),
            }
        }
        if had_children && text.trim().is_empty() {
            text = Cow::Borrowed("");
        }
        Ok(text)
    }

    /// Finishes a document whose root element has closed: only
    /// whitespace, comments and processing instructions may follow it.
    pub fn finish(&mut self) -> Result<(), XmlError> {
        match self.next_event()? {
            XmlEvent::Eof => Ok(()),
            other => Err(self.err(format!("content after root element: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects all events until `Eof`, verifying well-formedness.
    fn read_all(s: &str) -> Result<Vec<XmlEvent<'_>>, XmlError> {
        let mut r = XmlReader::new(s);
        let mut out = Vec::new();
        loop {
            let ev = r.next_event()?;
            let done = ev == XmlEvent::Eof;
            out.push(ev);
            if done {
                return Ok(out);
            }
        }
    }

    fn events(s: &str) -> Vec<XmlEvent<'_>> {
        read_all(s).unwrap()
    }

    #[test]
    fn simple_nesting() {
        let evs = events(r#"<a x="1"><b>hi</b></a>"#);
        assert_eq!(
            evs,
            vec![
                XmlEvent::StartElement {
                    name: "a",
                    attributes: vec![("x", "1".into())]
                },
                XmlEvent::StartElement {
                    name: "b",
                    attributes: vec![]
                },
                XmlEvent::Text("hi".into()),
                XmlEvent::EndElement { name: "b" },
                XmlEvent::EndElement { name: "a" },
                XmlEvent::Eof,
            ]
        );
    }

    #[test]
    fn self_closing_produces_both_events() {
        let evs = events("<a><b/></a>");
        assert_eq!(
            evs[1],
            XmlEvent::StartElement {
                name: "b",
                attributes: vec![]
            }
        );
        assert_eq!(evs[2], XmlEvent::EndElement { name: "b" });
    }

    #[test]
    fn entities_expanded() {
        let evs = events("<a>x &amp; y &lt;z&gt;</a>");
        assert_eq!(evs[1], XmlEvent::Text("x & y <z>".into()));
    }

    #[test]
    fn attributes_unescaped_and_quoted_either_way() {
        let evs = events(r#"<a x="a&amp;b" y='c"d'/>"#);
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0], ("x", "a&b".into()));
                assert_eq!(attributes[1], ("y", "c\"d".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_declarations_doctype_skipped() {
        let evs = events("<?xml version=\"1.0\"?><!-- hello --><!DOCTYPE a><a><!-- inner -->t</a>");
        assert_eq!(evs.len(), 4); // start, text, end, eof
        assert_eq!(evs[1], XmlEvent::Text("t".into()));
    }

    #[test]
    fn cdata_is_verbatim() {
        let evs = events("<a><![CDATA[1 < 2 & 3]]></a>");
        assert_eq!(evs[1], XmlEvent::Text("1 < 2 & 3".into()));
    }

    #[test]
    fn whitespace_between_elements_reported() {
        let evs = events("<a>\n  <b>x</b>\n</a>");
        // The pull layer reports the formatting runs; the DOM builder is
        // responsible for discarding them.
        assert!(evs
            .iter()
            .any(|e| matches!(e, XmlEvent::Text(t) if t.trim().is_empty())));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = read_all("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::TagMismatch { .. }));
    }

    #[test]
    fn unclosed_rejected() {
        let err = read_all("<a><b>").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn stray_close_rejected() {
        assert!(read_all("</a>").is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(read_all("hello<a/>").is_err());
        // but whitespace is fine
        assert!(read_all("  <a/>  ").is_ok());
    }

    #[test]
    fn bad_attribute_syntax_rejected() {
        assert!(read_all("<a x=1/>").is_err());
        assert!(read_all("<a x/>").is_err());
        assert!(read_all("<a 1x=\"y\"/>").is_err());
    }

    #[test]
    fn namespaced_names_pass_through() {
        let evs = events(r#"<soap:Envelope xmlns:soap="u"><soap:Body/></soap:Envelope>"#);
        match &evs[0] {
            XmlEvent::StartElement { name, .. } => assert_eq!(*name, "soap:Envelope"),
            _ => panic!(),
        }
    }

    #[test]
    fn offset_reported_on_error() {
        let err = read_all("<a><b x=bad></b></a>").unwrap_err();
        match err {
            XmlError::Malformed { offset, .. } => assert!(offset > 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn events_borrow_unless_an_entity_is_expanded() {
        let evs = events(r#"<a x="plain" y="a&amp;b">text</a>"#);
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert!(matches!(attributes[0].1, Cow::Borrowed("plain")));
                assert!(matches!(attributes[1].1, Cow::Owned(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(evs[1], XmlEvent::Text(Cow::Borrowed("text"))));
    }

    #[test]
    fn nesting_beyond_the_limit_is_malformed() {
        let at_limit = "<a>".repeat(MAX_DEPTH) + &"</a>".repeat(MAX_DEPTH);
        assert!(read_all(&at_limit).is_ok());
        let deeper = "<a>".repeat(MAX_DEPTH + 1) + &"</a>".repeat(MAX_DEPTH + 1);
        assert!(matches!(
            read_all(&deeper).unwrap_err(),
            XmlError::Malformed { .. }
        ));
        let self_closing = "<a>".repeat(MAX_DEPTH) + "<b/>" + &"</a>".repeat(MAX_DEPTH);
        assert!(read_all(&self_closing).is_err());
    }

    #[test]
    fn skip_read_text_and_finish() {
        let mut r = XmlReader::new("<r><skip><x>deep</x></skip><t>a<c/>b</t><w> <c/> </w></r> ");
        assert!(matches!(
            r.next_event().unwrap(),
            XmlEvent::StartElement { name: "r", .. }
        ));
        assert!(matches!(
            r.next_event().unwrap(),
            XmlEvent::StartElement { name: "skip", .. }
        ));
        r.skip_element().unwrap();
        assert!(matches!(
            r.next_event().unwrap(),
            XmlEvent::StartElement { name: "t", .. }
        ));
        assert_eq!(r.read_text().unwrap(), "ab");
        assert!(matches!(
            r.next_event().unwrap(),
            XmlEvent::StartElement { name: "w", .. }
        ));
        assert_eq!(r.read_text().unwrap(), "");
        assert!(matches!(
            r.next_event().unwrap(),
            XmlEvent::EndElement { name: "r" }
        ));
        r.finish().unwrap();

        let mut r = XmlReader::new("<a/><b/>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert!(r.finish().is_err());
    }
}
