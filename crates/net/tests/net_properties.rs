//! Property tests for the network substrate: framed sizes against real
//! framing, and conserved byte accounting.

use std::sync::Arc;

use proptest::prelude::*;
use skyquery_net::{Endpoint, HttpRequest, HttpResponse, SimNetwork, StatusCode, Url};

/// An HTTP/1.1 frame written out: start line, headers, the derived
/// `Content-Length`, a blank line, the body.
fn frame(start_line: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{start_line}\r\n");
    for (k, v) in headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn request_frame(req: &HttpRequest) -> Vec<u8> {
    let start = format!("POST {} HTTP/1.1", req.path);
    frame(&start, &req.headers, &req.body)
}

fn response_frame(resp: &HttpResponse) -> Vec<u8> {
    let start = format!("HTTP/1.1 {} {}", resp.status.code(), resp.status.reason());
    frame(&start, &resp.headers, &resp.body)
}

fn header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,12}"
}

fn header_value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 /;=_.\"#-]{0,30}"
}

fn body() -> impl Strategy<Value = Vec<u8>> {
    // Up to four Content-Length digits.
    proptest::collection::vec(any::<u8>(), 0..1500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Each "round trip" sizes one message two ways: `wire_len` by
    // arithmetic, and the length of the frame it stands for.
    #[test]
    fn request_roundtrip(
        path in "/[a-z0-9/]{0,20}",
        headers in proptest::collection::vec((header_name(), header_value()), 0..5),
        body in body(),
    ) {
        let req = HttpRequest {
            path,
            headers,
            body: body.into(),
        };
        prop_assert_eq!(req.wire_len(), request_frame(&req).len());
    }

    #[test]
    fn response_roundtrip(
        status in prop_oneof![
            Just(StatusCode::Ok),
            Just(StatusCode::InternalServerError),
        ],
        headers in proptest::collection::vec((header_name(), header_value()), 0..5),
        body in body(),
    ) {
        let resp = HttpResponse {
            status,
            headers,
            body: body.into(),
        };
        prop_assert_eq!(resp.wire_len(), response_frame(&resp).len());
    }

    #[test]
    fn url_roundtrip(host in "[a-z][a-z0-9.]{0,15}", path in "/[a-z0-9/]{0,15}") {
        let u = Url::new(host, path);
        prop_assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
    }

    #[test]
    fn byte_accounting_conserved(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..10),
    ) {
        // Total bytes recorded must equal the sum of the framed request
        // and response lengths, message count must be 2 per send.
        let net = SimNetwork::new();
        let echo: Arc<dyn Endpoint> =
            Arc::new(|_n: &SimNetwork, req: HttpRequest| HttpResponse::ok(req.body));
        net.bind("server", echo);
        let url = Url::new("server", "/");
        let mut expected_bytes = 0u64;
        for body in &payloads {
            let req = HttpRequest {
                path: "/".into(),
                headers: vec![],
                body: body.clone().into(),
            };
            expected_bytes += request_frame(&req).len() as u64;
            let resp = net.send("client", &url, req).unwrap();
            expected_bytes += response_frame(&resp).len() as u64;
        }
        let total = net.metrics().total();
        prop_assert_eq!(total.messages, payloads.len() as u64 * 2);
        prop_assert_eq!(total.bytes, expected_bytes);
    }
}
