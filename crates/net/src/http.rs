//! HTTP/1.1 messages and their framed size.
//!
//! SOAP-over-HTTP needs only POST with a handful of headers — notably the
//! `SOAPAction` header the paper highlights ("HTTP messages containing
//! SOAP need to specify only one extra field 'Soap Action'", §3.1). The
//! simulated hop hands messages over in memory, so nothing here frames or
//! parses them: `wire_len` adds up the bytes an HTTP/1.1 frame with a
//! `Content-Length` header would carry, and the byte accounting records
//! that sum.

use std::ops::Deref;
use std::sync::Arc;

/// The one request method: all SOAP traffic is a POST.
const METHOD: &str = "POST";

/// Response status codes the federation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatusCode {
    /// 200.
    Ok,
    /// 500 — SOAP faults ride on it per the SOAP/HTTP binding.
    InternalServerError,
}

impl StatusCode {
    /// The numeric status code.
    pub fn code(self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::InternalServerError => 500,
        }
    }

    /// The standard reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::InternalServerError => "Internal Server Error",
        }
    }

    /// Whether this is a 2xx status.
    pub fn is_success(self) -> bool {
        self == StatusCode::Ok
    }
}

/// A message body: immutable bytes behind a reference count. A `String`
/// or `Vec<u8>` moves in without a copy, and a clone shares the buffer, so
/// retries, hedges and scatter extents resend one body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body(Arc<Vec<u8>>);

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Body {
        Body(Arc::new(bytes))
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::from(s.into_bytes())
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::from(s.as_bytes().to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Body {
    fn from(bytes: &[u8; N]) -> Body {
        Body::from(bytes.to_vec())
    }
}

/// An HTTP POST request.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// Request path (e.g. `/soap`).
    pub path: String,
    /// Headers, excluding Content-Length (derived from the body).
    pub headers: Vec<(String, String)>,
    /// Request body.
    pub body: Body,
}

impl HttpRequest {
    /// A POST carrying a SOAP envelope: sets Content-Type and SOAPAction.
    pub fn soap_post(path: impl Into<String>, action: &str, body: impl Into<Body>) -> Self {
        HttpRequest {
            path: path.into(),
            headers: vec![
                ("Content-Type".into(), "text/xml; charset=utf-8".into()),
                ("SOAPAction".into(), format!("\"{action}\"")),
            ],
            body: body.into(),
        }
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// The SOAPAction header with its quotes stripped.
    pub fn soap_action(&self) -> Option<&str> {
        self.header("SOAPAction").map(|v| v.trim_matches('"'))
    }

    /// Framed size in bytes — what the accounting records: the request
    /// line `POST path HTTP/1.1`, the headers, then the body.
    pub fn wire_len(&self) -> usize {
        let request_line = METHOD.len() + " ".len() + self.path.len() + " HTTP/1.1\r\n".len();
        framed_len(request_line, &self.headers, &self.body)
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Response status.
    pub status: StatusCode,
    /// Headers, excluding Content-Length (derived from the body).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Body,
}

impl HttpResponse {
    /// A 200 response with a `text/xml` body.
    pub fn ok(body: impl Into<Body>) -> HttpResponse {
        HttpResponse {
            status: StatusCode::Ok,
            headers: vec![("Content-Type".into(), "text/xml; charset=utf-8".into())],
            body: body.into(),
        }
    }

    /// A SOAP fault response (HTTP 500 per the SOAP binding).
    pub fn soap_fault(body: impl Into<Body>) -> HttpResponse {
        HttpResponse {
            status: StatusCode::InternalServerError,
            headers: vec![("Content-Type".into(), "text/xml; charset=utf-8".into())],
            body: body.into(),
        }
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Framed size in bytes — what the accounting records: the status
    /// line `HTTP/1.1 code reason`, the headers, then the body.
    pub fn wire_len(&self) -> usize {
        let status_line = "HTTP/1.1 ".len()
            + decimal_digits(usize::from(self.status.code()))
            + " ".len()
            + self.status.reason().len()
            + "\r\n".len();
        framed_len(status_line, &self.headers, &self.body)
    }
}

/// Size of a frame whose start line, CRLF included, is `start_line` bytes:
/// that line, one `name: value` line per header, the derived
/// `Content-Length` line, the blank line and the body.
fn framed_len(start_line: usize, headers: &[(String, String)], body: &[u8]) -> usize {
    let header_lines: usize = headers
        .iter()
        .map(|(k, v)| k.len() + ": ".len() + v.len() + "\r\n".len())
        .sum();
    let content_length = "Content-Length: \r\n".len() + decimal_digits(body.len());
    start_line + header_lines + content_length + "\r\n".len() + body.len()
}

fn decimal_digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lock, SimNetwork, Url};
    use std::sync::Mutex;

    /// Sends `req` to a host that answers `reply`; returns the request the
    /// host received and the reply the sender got back.
    fn across_hop(req: HttpRequest, reply: HttpResponse) -> (HttpRequest, HttpResponse) {
        let seen = Arc::new(Mutex::new(None));
        let net = SimNetwork::new();
        let slot = Arc::clone(&seen);
        net.bind(
            "n",
            Arc::new(move |_: &SimNetwork, req: HttpRequest| {
                *lock(&slot) = Some(req);
                reply.clone()
            }),
        );
        let back = net.send("c", &Url::new("n", "/soap"), req).unwrap();
        let seen = lock(&seen).take().unwrap();
        (seen, back)
    }

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest::soap_post("/soap", "urn:skyquery#CrossMatch", "<x/>");
        let (seen, _) = across_hop(req.clone(), HttpResponse::ok(""));
        assert_eq!(seen, req);
        assert_eq!(seen.path, "/soap");
        assert_eq!(
            seen.header("SOAPAction"),
            Some("\"urn:skyquery#CrossMatch\"")
        );
        assert_eq!(seen.soap_action(), Some("urn:skyquery#CrossMatch"));
        assert_eq!(&seen.body[..], b"<x/>");
    }

    #[test]
    fn response_roundtrip() {
        let req = HttpRequest::soap_post("/soap", "a", "");
        let (_, back) = across_hop(req, HttpResponse::ok("<r/>"));
        assert_eq!(back.status, StatusCode::Ok);
        assert_eq!(&back.body[..], b"<r/>");
        assert!(back.status.is_success());
    }

    #[test]
    fn fault_is_500() {
        let resp = HttpResponse::soap_fault("<fault/>");
        assert_eq!(resp.status.code(), 500);
        assert!(!resp.status.is_success());
        let req = HttpRequest::soap_post("/soap", "a", "");
        let (_, back) = across_hop(req, resp);
        assert_eq!(back.status, StatusCode::InternalServerError);
        assert_eq!(back.header("content-type"), Some("text/xml; charset=utf-8"));
    }

    #[test]
    fn wire_len_includes_framing() {
        let req = HttpRequest::soap_post("/soap", "a", "body");
        let framed = "POST /soap HTTP/1.1\r\n\
                      Content-Type: text/xml; charset=utf-8\r\n\
                      SOAPAction: \"a\"\r\n\
                      Content-Length: 4\r\n\r\nbody";
        assert_eq!(req.wire_len(), framed.len());
        let resp = HttpResponse::soap_fault("");
        let framed = "HTTP/1.1 500 Internal Server Error\r\n\
                      Content-Type: text/xml; charset=utf-8\r\n\
                      Content-Length: 0\r\n\r\n";
        assert_eq!(resp.wire_len(), framed.len());
    }

    #[test]
    fn wire_len_at_content_length_digit_boundaries() {
        for n in [0, 9, 10, 99, 100, 1_000_000] {
            let req = HttpRequest::soap_post("/soap", "Query", vec![b'x'; n]);
            let head = format!(
                "POST /soap HTTP/1.1\r\n\
                 Content-Type: text/xml; charset=utf-8\r\n\
                 SOAPAction: \"Query\"\r\n\
                 Content-Length: {n}\r\n\r\n"
            );
            assert_eq!(req.wire_len(), head.len() + n);
            let resp = HttpResponse::ok(vec![b'y'; n]);
            let head = format!(
                "HTTP/1.1 200 OK\r\n\
                 Content-Type: text/xml; charset=utf-8\r\n\
                 Content-Length: {n}\r\n\r\n"
            );
            assert_eq!(resp.wire_len(), head.len() + n);
        }
    }

    #[test]
    fn body_moves_in_and_clones_without_copying() {
        let s = String::from("<Envelope/>");
        let at = s.as_ptr();
        let body = Body::from(s);
        assert_eq!(body.as_ptr(), at);
        assert_eq!(body.clone().as_ptr(), at);
    }

    #[test]
    fn header_lookup_case_insensitive() {
        let req = HttpRequest::soap_post("/p", "act", "");
        assert!(req.header("soapaction").is_some());
        assert!(req.header("SOAPACTION").is_some());
        assert!(req.header("nope").is_none());
    }

    #[test]
    fn binary_body_roundtrip() {
        // Every byte value crosses the hop untouched, both ways.
        let body: Vec<u8> = (0u8..=255).collect();
        let req = HttpRequest {
            path: "/bin".into(),
            headers: vec![],
            body: body.clone().into(),
        };
        let (seen, back) = across_hop(req, HttpResponse::ok(body.clone()));
        assert_eq!(&seen.body[..], &body[..]);
        assert_eq!(&back.body[..], &body[..]);
    }
}
