#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! # skyquery-soap — the Web-services message layer
//!
//! SkyQuery interoperates "using the emerging Web services standard"
//! (paper §3.1): SOAP 1.1 envelopes over HTTP, services described by WSDL.
//! This crate is that layer, from scratch on top of `skyquery-xml`:
//!
//! * [`rpc`] — method-call encoding with typed parameters (including whole
//!   result tables), responses, and `Fault`s, in SOAP `Envelope`/`Body`
//!   documents decoded strictly in one pass;
//! * [`wsdl`] — generation of service descriptions for the four SkyNode
//!   services and the Portal services;
//! * [`chunk`] — the paper's §6 workaround: "The XML parser at the SkyNode
//!   would run out of memory while parsing SOAP messages of about 10 MB.
//!   We worked around by dividing large data sets into smaller chunks."
//!   [`chunk::MessageLimits`] models the parser limit; [`chunk::split_table`]
//!   implements the workaround and announces the chunks in a
//!   [`chunk::ChunkManifest`] the receiver drives the `FetchChunk`
//!   continuation from.

pub mod chunk;
pub mod rpc;
pub mod wsdl;

pub use chunk::{ChunkManifest, MessageLimits};
pub use rpc::{RpcCall, RpcResponse, SoapFault, SoapValue};
pub use wsdl::{Operation, ParamDef, WsdlBuilder};

/// The SOAP 1.1 envelope namespace.
pub const SOAP_ENV_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// The namespace for SkyQuery federation methods.
pub const SKYQUERY_NS: &str = "urn:skyquery";

/// Errors from SOAP processing.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapError {
    /// Underlying XML failure.
    Xml(skyquery_xml::XmlError),
    /// The message is XML but not a valid SOAP envelope / call / response.
    Protocol {
        /// The violated expectation.
        detail: String,
    },
    /// A message exceeded the configured parser limit (the 10 MB problem).
    MessageTooLarge {
        /// The encoded message size, bytes.
        size: usize,
        /// The parser's limit, bytes.
        limit: usize,
    },
    /// Chunk reassembly failure (missing/duplicate/mismatched chunks).
    Chunking {
        /// What went wrong.
        detail: String,
    },
}

impl From<skyquery_xml::XmlError> for SoapError {
    fn from(e: skyquery_xml::XmlError) -> Self {
        SoapError::Xml(e)
    }
}

impl std::fmt::Display for SoapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoapError::Xml(e) => write!(f, "XML error: {e}"),
            SoapError::Protocol { detail } => write!(f, "SOAP protocol error: {detail}"),
            SoapError::MessageTooLarge { size, limit } => write!(
                f,
                "SOAP message of {size} bytes exceeds parser limit of {limit} bytes"
            ),
            SoapError::Chunking { detail } => write!(f, "chunk reassembly error: {detail}"),
        }
    }
}

impl std::error::Error for SoapError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SoapError>;
