#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! # skyquery-xml — the XML substrate
//!
//! SkyQuery's components exchange everything — registrations, metadata,
//! queries, and partial cross-match results — as XML inside SOAP envelopes
//! (paper §3.1). This crate is a from-scratch XML 1.0 subset sufficient for
//! that traffic:
//!
//! * [`escape`] — text/attribute escaping, straight into an output buffer,
//! * [`writer`] — a streaming, well-formedness-checking writer,
//! * [`reader`] — a pull parser producing [`reader::XmlEvent`]s that
//!   borrow from the input, with a fixed nesting limit,
//! * [`dom`] — a small element tree for plans, manifests, catalogs and
//!   other small structured payloads,
//! * [`votable`] — tabular result-set encoding (columns + typed rows),
//!   modeled on the VOTable format astronomy archives adopted; rows go
//!   straight between cells and the writer or reader, never through a
//!   tree.
//!
//! The parser is deliberately strict about well-formedness (mismatched
//! tags, bad entities, stray `<`) and deliberately small: no DTDs, no
//! processing-instruction semantics, no namespace resolution beyond
//! verbatim prefixed names — mirroring the lightweight parsers of the 2002
//! SOAP stacks the paper describes (including their appetite for running
//! out of memory on 10 MB messages, which the SOAP crate's chunking
//! works around).

pub mod dom;
pub mod escape;
pub mod reader;
pub mod votable;
pub mod writer;

pub use dom::Element;
pub use escape::{escape_attr_into, escape_text_into, unescape};
pub use reader::{XmlEvent, XmlReader};
pub use votable::{TableSpans, VoCell, VoColumn, VoTable, VoType};
pub use writer::XmlWriter;

/// Errors from XML reading or writing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        /// What was being parsed.
        context: String,
    },
    /// A syntax violation at a byte offset.
    Malformed {
        /// Byte offset of the violation.
        offset: usize,
        /// What went wrong.
        detail: String,
    },
    /// Close tag did not match the open tag.
    TagMismatch {
        /// The open element's name.
        expected: String,
        /// The close tag actually seen.
        found: String,
    },
    /// An unknown or bad entity reference.
    BadEntity {
        /// The entity text between `&` and `;`.
        entity: String,
    },
    /// Writer misuse (e.g. closing more elements than were opened).
    WriterMisuse {
        /// What was attempted.
        detail: String,
    },
    /// DOM navigation failure (missing child/attribute).
    MissingNode {
        /// The element/attribute path that was absent.
        path: String,
    },
    /// A VOTable payload didn't match its declared schema.
    SchemaViolation {
        /// The violated constraint.
        detail: String,
    },
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::UnexpectedEof { context } => {
                write!(f, "unexpected end of XML input in {context}")
            }
            XmlError::Malformed { offset, detail } => {
                write!(f, "malformed XML at byte {offset}: {detail}")
            }
            XmlError::TagMismatch { expected, found } => {
                write!(f, "tag mismatch: expected </{expected}>, found </{found}>")
            }
            XmlError::BadEntity { entity } => write!(f, "bad entity reference &{entity};"),
            XmlError::WriterMisuse { detail } => write!(f, "XML writer misuse: {detail}"),
            XmlError::MissingNode { path } => write!(f, "missing XML node: {path}"),
            XmlError::SchemaViolation { detail } => {
                write!(f, "VOTable schema violation: {detail}")
            }
        }
    }
}

impl std::error::Error for XmlError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, XmlError>;
