//! A streaming XML writer with well-formedness checking.

use std::fmt::Write;

use crate::escape::{escape_attr_into, escape_text_into};
use crate::XmlError;

/// Streaming writer. Elements are opened with [`XmlWriter::open`] /
/// attributes added while the tag is still open, then content or
/// [`XmlWriter::close`]. `finish` verifies the document is balanced.
///
/// ```
/// use skyquery_xml::XmlWriter;
/// let mut w = XmlWriter::new();
/// w.open("Envelope").attr("xmlns", "http://schemas.xmlsoap.org/soap/envelope/");
/// w.open("Body");
/// w.text("hello & goodbye");
/// w.close().unwrap();
/// w.close().unwrap();
/// let xml = w.finish().unwrap();
/// assert!(xml.contains("hello &amp; goodbye"));
/// ```
#[derive(Debug)]
pub struct XmlWriter {
    buf: String,
    /// The open elements' names, end to end, innermost last.
    names: String,
    /// Where each open element's name starts in `names`.
    starts: Vec<usize>,
    /// True when the current open tag has not yet been closed with `>`.
    tag_open: bool,
    indent: Option<usize>,
    /// True when the element content so far is only child elements (used
    /// for pretty printing).
    had_text: bool,
}

impl XmlWriter {
    /// Compact output (no whitespace) — the wire form.
    pub fn new() -> XmlWriter {
        XmlWriter {
            buf: String::new(),
            names: String::new(),
            starts: Vec::new(),
            tag_open: false,
            indent: None,
            had_text: false,
        }
    }

    /// Pretty-printed output with the given indent width — the debug form.
    pub fn pretty(indent: usize) -> XmlWriter {
        XmlWriter {
            indent: Some(indent),
            ..XmlWriter::new()
        }
    }

    /// Writes the standard XML declaration. Call before any element.
    pub fn declaration(&mut self) -> &mut Self {
        self.buf
            .push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        self.newline();
        self
    }

    fn newline(&mut self) {
        if self.indent.is_some() {
            self.buf.push('\n');
        }
    }

    fn pad(&mut self) {
        if let Some(w) = self.indent {
            for _ in 0..(self.starts.len() * w) {
                self.buf.push(' ');
            }
        }
    }

    fn seal_tag(&mut self) {
        if self.tag_open {
            self.buf.push('>');
            self.tag_open = false;
        }
    }

    /// Opens an element.
    pub fn open(&mut self, name: &str) -> &mut Self {
        self.seal_tag();
        if !self.buf.is_empty() && !self.had_text {
            self.newline();
        }
        self.pad();
        self.buf.push('<');
        self.buf.push_str(name);
        self.starts.push(self.names.len());
        self.names.push_str(name);
        self.tag_open = true;
        self.had_text = false;
        self
    }

    /// Adds an attribute to the currently open tag.
    ///
    /// # Panics
    /// Panics (in debug builds) if no tag is open; in release the attribute
    /// is silently dropped rather than corrupting output.
    pub fn attr(&mut self, name: &str, value: &str) -> &mut Self {
        debug_assert!(self.tag_open, "attr() with no open tag");
        if self.tag_open {
            self.buf.push(' ');
            self.buf.push_str(name);
            self.buf.push_str("=\"");
            escape_attr_into(&mut self.buf, value);
            self.buf.push('"');
        }
        self
    }

    /// Writes escaped text content into the current element. Empty text
    /// writes nothing, so an element with no other content self-closes.
    pub fn text(&mut self, content: &str) -> &mut Self {
        if content.is_empty() {
            return self;
        }
        self.seal_tag();
        escape_text_into(&mut self.buf, content);
        self.had_text = true;
        self
    }

    /// Writes text content formatted straight into the output, unescaped:
    /// for numbers and other text without `&`, `<` or `>`.
    pub fn text_fmt(&mut self, content: std::fmt::Arguments<'_>) -> &mut Self {
        self.seal_tag();
        // Writing into a `String` cannot fail.
        let _ = self.buf.write_fmt(content);
        self.had_text = true;
        self
    }

    /// Writes pre-escaped/raw content (caller's responsibility).
    pub fn raw(&mut self, content: &str) -> &mut Self {
        self.seal_tag();
        self.buf.push_str(content);
        self.had_text = true;
        self
    }

    /// Ends the open start tag, if any, as content follows, and returns
    /// the output's length: where that content starts.
    pub fn content_start(&mut self) -> usize {
        self.seal_tag();
        self.buf.len()
    }

    /// Closes the innermost element.
    pub fn close(&mut self) -> Result<&mut Self, XmlError> {
        let start = self.starts.pop().ok_or_else(|| XmlError::WriterMisuse {
            detail: "close() with no open element".into(),
        })?;
        if self.tag_open {
            // Empty element: self-close.
            self.buf.push_str("/>");
            self.tag_open = false;
        } else {
            if !self.had_text {
                self.newline();
                self.pad();
            }
            self.buf.push_str("</");
            self.buf.push_str(&self.names[start..]);
            self.buf.push('>');
        }
        self.names.truncate(start);
        self.had_text = false;
        Ok(self)
    }

    /// Convenience: `<name>text</name>`.
    pub fn leaf(&mut self, name: &str, text: &str) -> Result<&mut Self, XmlError> {
        self.open(name).text(text);
        self.close()
    }

    /// Finishes the document, verifying all elements were closed.
    pub fn finish(self) -> Result<String, XmlError> {
        if let Some(&start) = self.starts.last() {
            return Err(XmlError::WriterMisuse {
                detail: format!("unclosed element <{}>", &self.names[start..]),
            });
        }
        Ok(self.buf)
    }

    /// Current output length in bytes (used by the chunking layer to
    /// respect message-size limits while streaming rows).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Default for XmlWriter {
    fn default() -> Self {
        XmlWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_document() {
        let mut w = XmlWriter::new();
        w.open("root").attr("id", "1");
        w.leaf("child", "x & y").unwrap();
        w.open("empty");
        w.close().unwrap();
        w.close().unwrap();
        let xml = w.finish().unwrap();
        assert_eq!(
            xml,
            r#"<root id="1"><child>x &amp; y</child><empty/></root>"#
        );
    }

    #[test]
    fn declaration_prefix() {
        let mut w = XmlWriter::new();
        w.declaration();
        w.open("a");
        w.close().unwrap();
        assert!(w.finish().unwrap().starts_with("<?xml version=\"1.0\""));
    }

    #[test]
    fn unbalanced_rejected() {
        let mut w = XmlWriter::new();
        w.open("a");
        assert!(w.finish().is_err());

        let mut w = XmlWriter::new();
        w.open("a");
        w.close().unwrap();
        assert!(w.close().is_err());
    }

    #[test]
    fn attr_escaping() {
        let mut w = XmlWriter::new();
        w.open("q").attr("sql", r#"SELECT "x" < 3"#);
        w.close().unwrap();
        let xml = w.finish().unwrap();
        assert!(xml.contains("&quot;x&quot; &lt; 3"));
    }

    #[test]
    fn pretty_output_indents() {
        let mut w = XmlWriter::pretty(2);
        w.open("a");
        w.open("b");
        w.leaf("c", "t").unwrap();
        w.close().unwrap();
        w.close().unwrap();
        let xml = w.finish().unwrap();
        assert!(xml.contains("\n  <b>"));
        assert!(xml.contains("\n    <c>"));
    }

    #[test]
    fn len_tracks_bytes() {
        let mut w = XmlWriter::new();
        assert!(w.is_empty());
        w.open("abc");
        assert!(w.len() >= 4);
    }
}
