//! A peer can send a document nested arbitrarily deep. Every decoder must
//! refuse one 400 000 elements deep with an error, on a thread with a
//! 2 MiB stack: a tree that deep would overflow the stack when it is
//! dropped. This file is its own test binary, so a stack overflow — which
//! aborts the process — fails only these tests.

use skyquery_soap::{RpcCall, RpcResponse, SKYQUERY_NS, SOAP_ENV_NS};
use skyquery_xml::{Element, VoTable};

const DEPTH: usize = 400_000;

fn nested(depth: usize) -> String {
    let mut s = String::with_capacity(depth * 7);
    for _ in 0..depth {
        s.push_str("<a>");
    }
    for _ in 0..depth {
        s.push_str("</a>");
    }
    s
}

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("decoder returns");
}

#[test]
fn a_deep_document_is_refused_by_every_decoder() {
    on_small_stack(|| {
        let deep = nested(DEPTH);
        assert!(Element::parse(&deep).is_err());
        assert!(VoTable::parse(&deep).is_err());
        assert!(RpcCall::parse(&deep).is_err());
        assert!(RpcResponse::parse(&deep).is_err());
    });
}

#[test]
fn a_deep_parameter_is_refused() {
    on_small_stack(|| {
        let envelope = |payload: &str, param: &str| {
            format!(
                r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"><soap:Body><sq:{payload} xmlns:sq="{SKYQUERY_NS}">{param}</sq:{payload}></soap:Body></soap:Envelope>"#
            )
        };
        let deep = nested(DEPTH);
        let xml = format!(r#"<p sq:type="xml">{deep}</p>"#);
        assert!(RpcCall::parse(&envelope("M", &xml)).is_err());
        assert!(RpcResponse::parse(&envelope("MResponse", &xml)).is_err());
        let table = format!(
            r#"<t sq:type="table"><VOTABLE name="x"><DATA><TR><TD>{deep}</TD></TR></DATA></VOTABLE></t>"#
        );
        assert!(RpcResponse::parse(&envelope("MResponse", &table)).is_err());
        let string = format!(r#"<s sq:type="string">{deep}</s>"#);
        assert!(RpcCall::parse(&envelope("M", &string)).is_err());
    });
}
