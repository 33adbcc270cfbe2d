//! Generic SOAPAction service-method registry.
//!
//! Both the SkyNode wrapper and the job service expose a table of SOAP
//! methods where a single registry entry supplies the method name, its
//! WSDL [`Operation`], and the handler dispatched for it. Keeping the
//! three together means a method cannot be served without being described
//! in the service's WSDL (or vice versa) — the §3.1 discipline that
//! "WSDL consists of two distinct parts" stays mechanically enforced.

use skyquery_net::{HttpRequest, HttpResponse, SimNetwork};
use skyquery_soap::{Operation, RpcCall, RpcResponse, SoapFault, SoapValue, WsdlBuilder};
use skyquery_xml::VoTable;

use crate::error::{FederationError, Result};

/// What a handler answers: a response for [`serve`] to encode, or — for
/// a reply the handler measured against a message limit — the very bytes
/// it measured, sent as they are.
#[derive(Debug)]
pub enum Reply {
    /// A response still to encode.
    Response(RpcResponse),
    /// A whole SOAP envelope, already encoded.
    Encoded(String),
}

impl From<RpcResponse> for Reply {
    fn from(resp: RpcResponse) -> Reply {
        Reply::Response(resp)
    }
}

/// One entry in a SOAPAction dispatch table for a service of type `T`:
/// the method name, its WSDL operation, and its handler.
pub struct ServiceMethod<T: ?Sized> {
    /// The SOAPAction method name this entry answers.
    pub name: &'static str,
    /// Produces the WSDL operation describing the method.
    pub operation: fn() -> Operation,
    /// Invoked when a call names this method.
    pub handler: fn(&T, &SimNetwork, &RpcCall) -> Result<Reply>,
}

/// Dispatches `call` through `services`, answering a protocol error for
/// a method the registry does not list.
pub fn dispatch<T: ?Sized>(
    services: &[ServiceMethod<T>],
    target: &T,
    net: &SimNetwork,
    call: &RpcCall,
) -> Result<Reply> {
    match services.iter().find(|s| s.name == call.method) {
        Some(service) => (service.handler)(target, net, call),
        None => Err(FederationError::protocol(format!(
            "unknown service {}",
            call.method
        ))),
    }
}

/// The SOAP binding of an endpoint: decodes the request body as an RPC
/// call, hands it to `handle`, and sends its reply — encoding a response,
/// or the fault an undecodable request or a failed call becomes, once —
/// as the HTTP reply.
pub fn serve<R: Into<Reply>>(
    req: &HttpRequest,
    handle: impl FnOnce(RpcCall) -> Result<R>,
) -> HttpResponse {
    let call = std::str::from_utf8(&req.body)
        .map_err(|_| "request body is not UTF-8".to_string())
        .and_then(|body| RpcCall::parse(body).map_err(|e| e.to_string()));
    match call.map(handle) {
        Err(undecodable) => HttpResponse::soap_fault(SoapFault::client(undecodable).to_xml()),
        Ok(Ok(reply)) => HttpResponse::ok(match reply.into() {
            Reply::Response(resp) => resp.to_xml(),
            Reply::Encoded(xml) => xml,
        }),
        Ok(Err(e)) => HttpResponse::soap_fault(e.to_fault().to_xml()),
    }
}

/// Decodes a required non-negative integer parameter.
pub fn require_u64(call: &RpcCall, name: &str) -> Result<u64> {
    call.require(name)?
        .as_i64()
        .filter(|v| *v >= 0)
        .map(|v| v as u64)
        .ok_or_else(|| FederationError::protocol(format!("{name} must be a non-negative integer")))
}

/// The `FetchChunk` handler body every service with chunked transfers
/// shares, once it has found transfer `transfer_id`'s `chunks`: the chunk
/// the call's `index` names, as the reply, and whether it was the last
/// one — the caller frees the transfer then.
pub fn fetch_chunk(
    call: &RpcCall,
    transfer_id: u64,
    chunks: &[VoTable],
) -> Result<(RpcResponse, bool)> {
    let index = require_u64(call, "index")? as usize;
    let table = chunks
        .get(index)
        .ok_or_else(|| FederationError::protocol(format!("no chunk {index}")))?;
    let reply = RpcResponse::new("FetchChunk")
        .result("chunk", SoapValue::Table(table.clone()))
        .result("index", SoapValue::Int(index as i64))
        .result("total", SoapValue::Int(chunks.len() as i64))
        .result("transfer_id", SoapValue::Int(transfer_id as i64));
    Ok((reply, index + 1 == chunks.len()))
}

/// Every method name in `services`, in registry (WSDL) order.
pub fn method_names<T: ?Sized>(services: &[ServiceMethod<T>]) -> Vec<&'static str> {
    services.iter().map(|s| s.name).collect()
}

/// Generates the WSDL document for `service` bound at `endpoint` from
/// the same registry that dispatches its calls.
pub fn wsdl<T: ?Sized>(services: &[ServiceMethod<T>], service: &str, endpoint: &str) -> String {
    let mut builder = WsdlBuilder::new(service, endpoint);
    for s in services {
        builder = builder.operation((s.operation)());
    }
    builder.to_xml()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_soap::SoapValue;

    struct Echo;

    const METHODS: &[ServiceMethod<Echo>] = &[ServiceMethod {
        name: "Ping",
        operation: || Operation::new("Ping").output("pong", "boolean"),
        handler: |_echo, _net, _call| {
            Ok(RpcResponse::new("Ping")
                .result("pong", SoapValue::Bool(true))
                .into())
        },
    }];

    #[test]
    fn dispatch_and_describe() {
        let net = SimNetwork::new();
        let ok = dispatch(METHODS, &Echo, &net, &RpcCall::new("Ping")).unwrap();
        assert!(matches!(ok, Reply::Response(r) if r.method == "Ping"));
        let err = dispatch(METHODS, &Echo, &net, &RpcCall::new("Nope")).unwrap_err();
        assert!(err.to_string().contains("unknown service"));
        assert_eq!(method_names(METHODS), vec!["Ping"]);
        let doc = wsdl(METHODS, "Echo", "http://echo.example.org/soap");
        assert!(doc.contains("Ping"));
        assert!(doc.contains("http://echo.example.org/soap"));
    }
}
