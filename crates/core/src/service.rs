//! Generic SOAPAction service-method registry.
//!
//! Both the SkyNode wrapper and the job service expose a table of SOAP
//! methods where a single registry entry supplies the method name, its
//! WSDL [`Operation`], and the handler dispatched for it. Keeping the
//! three together means a method cannot be served without being described
//! in the service's WSDL (or vice versa) — the §3.1 discipline that
//! "WSDL consists of two distinct parts" stays mechanically enforced.
//!
//! Both answer an oversized reply (the §6 chunking workaround) through one
//! [`Transfers`] store, which leases its chunks to `FetchChunk`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use skyquery_net::{lock, HttpRequest, HttpResponse, SimNetwork};
use skyquery_soap::chunk::chunk_replies;
use skyquery_soap::{
    MessageLimits, Operation, RpcCall, RpcResponse, SoapError, SoapFault, SoapValue, WsdlBuilder,
};
use skyquery_xml::VoTable;

use crate::error::{field, FederationError, Result};
use crate::lease::LeaseTable;

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
    /// Invoked when a call names this method, which may take its
    /// parameters out of the call.
    pub handler: fn(&T, &SimNetwork, &mut RpcCall) -> Result<Reply>,
}

/// Dispatches `call` through `services`, answering a protocol error for
/// a method the registry does not list.
pub fn dispatch<T: ?Sized>(
    services: &[ServiceMethod<T>],
    target: &T,
    net: &SimNetwork,
    call: &mut RpcCall,
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

/// Takes the table `name` out of `values`, a call's parameters or a
/// reply's results, refusing one that is absent or not a table.
pub fn take_table(values: &mut Vec<(String, SoapValue)>, name: &str) -> Result<VoTable> {
    let at = values.iter().position(|(n, _)| n == name);
    match at.map(|at| values.remove(at).1) {
        Some(SoapValue::Table(t)) => Ok(t),
        _ => Err(FederationError::protocol(format!("{name} must be a table"))),
    }
}

/// The outgoing chunked transfers of one service: each an oversized
/// reply's table, split into chunks — each held as its whole `FetchChunk`
/// reply, cut from the reply's one encoding — and leased until a
/// `FetchChunk` serves the last one, an `AbortTransfer` frees it, or the
/// lease lapses.
/// Ids count 1, 2, … per store. Each transfer has an `owner`: its job for
/// the job service, 0 for a SkyNode.
pub struct Transfers {
    host: String,
    next_id: AtomicU64,
    open: Mutex<LeaseTable<(u64, Vec<String>)>>,
}

impl Transfers {
    /// An empty store for the service at `host`.
    pub fn new(host: impl Into<String>) -> Transfers {
        Transfers {
            host: host.into(),
            next_id: AtomicU64::new(1),
            open: Mutex::new(LeaseTable::new()),
        }
    }

    /// Sends `resp` within `limit` bytes: as the very bytes measured when
    /// it fits, else — without `chunking`, the caller's parser would die —
    /// as `MessageTooLarge`, else with its first table split, leased to
    /// `owner` for `ttl_s`, and the manifest in the table's slot. The
    /// response is encoded once; the chunks are cut from that encoding.
    pub fn reply(
        &self,
        net: &SimNetwork,
        mut resp: RpcResponse,
        limit: usize,
        chunking: bool,
        owner: u64,
        ttl_s: f64,
    ) -> Result<Reply> {
        let (encoded, table) = resp.encode();
        if encoded.len() <= limit {
            return Ok(Reply::Encoded(encoded));
        }
        let Some((slot, spans)) = table.filter(|_| chunking) else {
            let size = encoded.len();
            return Err(SoapError::MessageTooLarge { size, limit }.into());
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (manifest, replies) = chunk_replies(&encoded, &spans, MessageLimits::tiny(limit), id)?;
        resp.results[slot] = ("manifest".into(), SoapValue::Xml(manifest.to_element()));
        lock(&self.open).insert(id, (owner, replies), net.now_s(), ttl_s);
        net.record_node_event(&self.host, "lease-granted");
        Ok(resp.into())
    }

    /// `FetchChunk`: the reply serving the chunk the call names, as
    /// encoded when the transfer opened, and its transfer's owner.
    /// Serving the last chunk frees the transfer.
    pub fn fetch_chunk(&self, net: &SimNetwork, call: &RpcCall) -> Result<(Reply, u64)> {
        let transfer_id = field(&call.params, "transfer_id")?;
        let mut open = lock(&self.open);
        // Each continuation renews the transfer's lease: a live receiver
        // never loses one mid-stream, however slowly it pulls.
        open.renew(transfer_id, net.now_s());
        let (owner, chunks) = open
            .get(transfer_id)
            .ok_or_else(|| FederationError::lease_expired("transfer", transfer_id, &self.host))?;
        let index: usize = field(&call.params, "index")?;
        let reply = Reply::Encoded(
            chunks
                .get(index)
                .ok_or_else(|| FederationError::protocol(format!("no chunk {index}")))?
                .clone(),
        );
        let owner = *owner;
        if index + 1 == chunks.len() {
            open.remove(transfer_id);
        }
        Ok((reply, owner))
    }

    /// `AbortTransfer`: frees a transfer its receiver abandoned. An unknown
    /// id (drained, aborted, or a retried abort) answers `aborted = false`
    /// rather than a fault, so best-effort cleanup never cascades.
    pub fn abort(&self, call: &RpcCall) -> Result<RpcResponse> {
        let transfer_id = field(&call.params, "transfer_id")?;
        let freed = lock(&self.open).remove(transfer_id).is_some();
        Ok(RpcResponse::new("AbortTransfer").result("aborted", SoapValue::Bool(freed)))
    }

    /// Frees every transfer `owner` holds.
    pub fn release_owner(&self, owner: u64) {
        lock(&self.open).retain(|(o, _)| *o != owner);
    }

    /// Reclaims the transfers whose lease lapsed by `now_s`: how many.
    pub fn sweep(&self, now_s: f64) -> usize {
        lock(&self.open).sweep(now_s).len()
    }

    /// Open transfer ids, sorted.
    pub fn ids(&self) -> Vec<u64> {
        lock(&self.open).ids()
    }
}

/// The `FetchChunk` operation: the chunked-transfer continuation of
/// every service that answers through [`Transfers`].
pub fn fetch_chunk_operation() -> Operation {
    Operation::new("FetchChunk")
        .input("transfer_id", "long")
        .input("index", "long")
        .output("chunk", "table")
        .doc("Chunked-transfer continuation for an oversized reply")
}

/// The `AbortTransfer` operation, beside [`fetch_chunk_operation`].
pub fn abort_transfer_operation() -> Operation {
    Operation::new("AbortTransfer")
        .input("transfer_id", "long")
        .output("aborted", "boolean")
        .doc("Free an open chunked transfer without serving its remaining chunks")
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
    use skyquery_soap::ChunkManifest;
    use skyquery_xml::{VoCell, VoColumn, VoType};

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
        let ok = dispatch(METHODS, &Echo, &net, &mut RpcCall::new("Ping")).unwrap();
        assert!(matches!(ok, Reply::Response(r) if r.method == "Ping"));
        let err = dispatch(METHODS, &Echo, &net, &mut RpcCall::new("Nope")).unwrap_err();
        assert!(err.to_string().contains("unknown service"));
        assert_eq!(method_names(METHODS), vec!["Ping"]);
        let doc = wsdl(METHODS, "Echo", "http://echo.example.org/soap");
        assert!(doc.contains("Ping"));
        assert!(doc.contains("http://echo.example.org/soap"));
    }

    /// A reply of `rows` rows in a table slot between two scalars.
    fn table_reply(rows: i64) -> RpcResponse {
        let mut table = VoTable::new("t", vec![VoColumn::new("id", VoType::Int)]);
        for i in 0..rows {
            table.rows.push(vec![VoCell::Int(i)]);
        }
        RpcResponse::new("Get")
            .result("before", SoapValue::Int(1))
            .result("rows", SoapValue::Table(table))
            .result("after", SoapValue::Str("two".into()))
    }

    /// Sends `table_reply(rows)` through `store` under a limit it
    /// overflows, as `owner`'s transfer: the manifest it answers.
    fn open(net: &SimNetwork, store: &Transfers, rows: i64, owner: u64) -> ChunkManifest {
        let limit = table_reply(rows).to_xml().len() / 2;
        let Reply::Response(resp) = store
            .reply(net, table_reply(rows), limit, true, owner, 60.0)
            .unwrap()
        else {
            panic!("an oversized reply answers a manifest")
        };
        ChunkManifest::from_element(resp.require("manifest").unwrap().as_xml().unwrap()).unwrap()
    }

    #[test]
    fn an_oversized_reply_keeps_its_other_results_in_order_after_the_manifest() {
        let net = SimNetwork::new();
        let store = Transfers::new("svc.example.org");
        let fits = table_reply(40).to_xml();
        let Reply::Encoded(sent) = store
            .reply(&net, table_reply(40), fits.len(), true, 0, 60.0)
            .unwrap()
        else {
            panic!("a reply that fits is sent as measured")
        };
        assert_eq!(sent, fits);
        let refused = store
            .reply(&net, table_reply(40), fits.len() - 1, false, 0, 60.0)
            .unwrap_err();
        assert!(matches!(
            refused,
            FederationError::Soap(SoapError::MessageTooLarge { .. })
        ));
        let Reply::Response(resp) = store
            .reply(&net, table_reply(40), fits.len() / 2, true, 0, 60.0)
            .unwrap()
        else {
            panic!("an oversized reply answers a manifest")
        };
        let names: Vec<&str> = resp.results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["before", "manifest", "after"]);
        assert_eq!(resp.get("after"), Some(&SoapValue::Str("two".into())));
    }

    #[test]
    fn transfer_ids_count_from_one_in_each_store() {
        let net = SimNetwork::new();
        let (a, b) = (Transfers::new("a"), Transfers::new("b"));
        assert_eq!(open(&net, &a, 40, 0).transfer_id, 1);
        assert_eq!(open(&net, &a, 40, 0).transfer_id, 2);
        assert_eq!(open(&net, &b, 40, 0).transfer_id, 1);
        assert_eq!(a.ids(), vec![1, 2]);
    }

    #[test]
    fn release_owner_frees_only_that_owners_transfers() {
        let net = SimNetwork::new();
        let store = Transfers::new("svc.example.org");
        for owner in [7, 8, 7] {
            open(&net, &store, 40, owner);
        }
        store.release_owner(7);
        assert_eq!(store.ids(), vec![2]);
        // The survivor still serves its chunks, naming its owner.
        let call = RpcCall::new("FetchChunk")
            .param("transfer_id", SoapValue::Int(2))
            .param("index", SoapValue::Int(0));
        assert_eq!(store.fetch_chunk(&net, &call).unwrap().1, 8);
    }
}
