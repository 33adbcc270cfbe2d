//! Typed client side of the chunked Cross match transfer (paper §6).
//!
//! An oversized partial set travels as a typed [`ChunkManifest`] from
//! `skyquery-soap` followed by one `FetchChunk` round-trip per chunk.
//! [`ChunkStream`] is the receiver: it checks every chunk against the
//! manifest and against the first chunk's columns and `PARAM`s, and
//! [`ChunkStream::collect_table`] drains it into the sender's table, which
//! the caller decodes once. Every receiver drains the whole transfer before
//! it computes: chunk sizes are a transport detail that can never change
//! the result.

use skyquery_net::{HttpRequest, NetError, SimNetwork, Url};
use skyquery_soap::{ChunkManifest, RpcCall, RpcResponse, SoapValue};
use skyquery_xml::{VoCell, VoColumn, VoTable};

use crate::error::{field, opt_field, FederationError, Result};
use crate::plan::ExecutionPlan;
use crate::retry::RetryPolicy;
use crate::service::take_table;
use crate::trace::StatsChain;
use crate::xmatch::PartialSet;

/// An open chunked transfer: the manifest plus a cursor over `FetchChunk`
/// continuations. The sender frees the transfer when the last chunk is
/// served; a stream dropped *mid-transfer* sends a best-effort
/// `AbortTransfer` from its `Drop` impl (outcome recorded in the network
/// metrics as `transfer-abort` / `transfer-abort-failed`) so the
/// sender-side session is not leaked. Call [`ChunkStream::abort`] to do
/// the same explicitly and observe the result.
pub struct ChunkStream<'a> {
    net: &'a SimNetwork,
    from_host: String,
    url: Url,
    manifest: ChunkManifest,
    next: usize,
    retry: RetryPolicy,
    /// The first chunk's columns, which every later chunk must repeat.
    columns: Option<Vec<VoColumn>>,
    /// The first chunk's `PARAM`s, which every later chunk must repeat.
    params: Vec<(VoColumn, VoCell)>,
    /// The sender-side session is known to be gone: fully drained,
    /// explicitly aborted, or abort already attempted from `Drop`.
    closed: bool,
}

impl ChunkStream<'_> {
    /// The transfer's manifest (chunk count, row counts, zone ranges).
    pub fn manifest(&self) -> &ChunkManifest {
        &self.manifest
    }

    /// Fetches the next chunk, or `None` when the transfer is complete.
    ///
    /// Validates the served chunk against the manifest (transfer id,
    /// index, total, row count) and against the first chunk's columns
    /// and `PARAM`s, and records per-chunk wire metrics on the network.
    pub fn fetch_next(&mut self) -> Result<Option<VoTable>> {
        if self.next >= self.manifest.total_chunks() {
            return Ok(None);
        }
        let index = self.next;
        let call = RpcCall::new("FetchChunk")
            .param(
                "transfer_id",
                SoapValue::Int(self.manifest.transfer_id as i64),
            )
            .param("index", SoapValue::Int(index as i64));
        let request = EncodedCall::new(&call);
        let (mut resp, reply_len) =
            send_encoded(self.net, &self.from_host, &self.url, &request, self.retry)?;
        let served_index: usize = field(&resp.results, "index")?;
        let served_total: usize = field(&resp.results, "total")?;
        let served_id: u64 = field(&resp.results, "transfer_id")?;
        if served_id != self.manifest.transfer_id
            || served_index != index
            || served_total != self.manifest.total_chunks()
        {
            return Err(FederationError::protocol(format!(
                "FetchChunk served chunk {served_index}/{served_total} of transfer \
                 {served_id}, expected {index}/{} of {}",
                self.manifest.total_chunks(),
                self.manifest.transfer_id
            )));
        }
        let Some(SoapValue::Table(table)) = resp.take("chunk") else {
            return Err(FederationError::protocol("chunk must be a table"));
        };
        match &self.columns {
            None => {
                self.columns = Some(table.columns.clone());
                self.params = table.params.clone();
            }
            Some(first) if *first != table.columns => {
                return Err(FederationError::protocol(format!(
                    "chunk {index} declares different columns from chunk 0"
                )))
            }
            Some(_) if self.params != table.params => {
                return Err(FederationError::protocol(format!(
                    "chunk {index} declares different PARAMs from chunk 0"
                )))
            }
            Some(_) => {}
        }
        self.net.record_chunk(
            &self.url.host,
            &self.from_host,
            reply_len,
            table.row_count(),
        );
        let promised = self.manifest.chunk_rows[index];
        if table.row_count() != promised {
            return Err(FederationError::protocol(format!(
                "chunk {index} carries {} rows, manifest promised {promised}",
                table.row_count()
            )));
        }
        self.next = index + 1;
        if self.next == self.manifest.total_chunks() {
            // The sender frees the transfer on serving the last chunk.
            self.closed = true;
        }
        Ok(Some(table))
    }

    /// Tells the sender to free this transfer without serving the
    /// remaining chunks. Idempotent: a drained, already-aborted, or
    /// never-started stream is a no-op. The outcome is tallied in the
    /// network metrics (`transfer-abort` on success,
    /// `transfer-abort-failed` when the abort call itself failed).
    pub fn abort(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        let call = RpcCall::new("AbortTransfer").param(
            "transfer_id",
            SoapValue::Int(self.manifest.transfer_id as i64),
        );
        match send_rpc_with(self.net, &self.from_host, &self.url, &call, self.retry) {
            Ok(_) => {
                self.net
                    .record_fault(&self.from_host, &self.url.host, "transfer-abort");
                Ok(())
            }
            Err(e) => {
                self.net
                    .record_fault(&self.from_host, &self.url.host, "transfer-abort-failed");
                Err(e)
            }
        }
    }

    /// Drains the stream and concatenates its chunks in fetch order into
    /// the sender's table, for the caller to decode once. This is the one
    /// drain routine: a partial set ([`ChunkStream::collect_set`]) and a
    /// job's result page both come through it.
    pub fn collect_table(mut self) -> Result<VoTable> {
        let mut tables = Vec::new();
        while let Some(table) = self.fetch_next()? {
            tables.push(table);
        }
        Ok(VoTable::concat(tables)?)
    }

    /// Drains the stream and decodes the sender's partial set.
    pub fn collect_set(self) -> Result<PartialSet> {
        PartialSet::from_votable(self.collect_table()?)
    }
}

impl Drop for ChunkStream<'_> {
    /// Best-effort cleanup for a stream abandoned mid-transfer (an error
    /// in `collect_set`, or a caller that bailed): tell the sender to
    /// free the session rather than leak it forever. One attempt, no
    /// retries — the outcome is recorded in the metrics either way.
    fn drop(&mut self) {
        if !self.closed {
            self.retry = RetryPolicy::none();
            let _ = self.abort();
        }
    }
}

/// Opens a client-side cursor over an already-announced chunked transfer:
/// the caller has a [`ChunkManifest`] from some service's reply and pulls
/// the chunks with `FetchChunk` continuations against `url`. The job
/// service's `FetchResults` pagination and the Cross match chain share
/// it: the manifest rides back in the reply, and the client drains it.
pub fn open_chunk_stream<'a>(
    net: &'a SimNetwork,
    from_host: &str,
    url: &Url,
    manifest: ChunkManifest,
    retry: RetryPolicy,
) -> ChunkStream<'a> {
    ChunkStream {
        net,
        from_host: from_host.to_string(),
        url: url.clone(),
        manifest,
        next: 0,
        retry,
        columns: None,
        params: Vec::new(),
        closed: false,
    }
}

/// Client side of the Cross match service: sends the call for `step`,
/// drains any chunked continuation, and decodes the partial set plus the
/// statistics chain riding back.
pub fn invoke_cross_match(
    net: &SimNetwork,
    from_host: &str,
    url: &Url,
    plan: &ExecutionPlan,
    step: usize,
) -> Result<(PartialSet, StatsChain)> {
    let call = RpcCall::new("CrossMatch")
        .param("plan", SoapValue::Xml(plan.to_element()))
        .param("step", SoapValue::Int(step as i64));
    let mut resp = send_rpc_with(net, from_host, url, &call, plan.retry)?;
    let set = decode_partial(net, from_host, url, plan, &mut resp)?;
    Ok((set, stats_of(&resp)?))
}

/// The statistics chain riding back on a step reply.
fn stats_of(resp: &RpcResponse) -> Result<StatsChain> {
    StatsChain::from_element(field(&resp.results, "stats")?)
}

/// Decodes a manifest-or-inline partial-set response (the shared shape of
/// `CrossMatch` and the portal-step replies): a
/// `manifest` result is drained through a [`ChunkStream`], a `partial`
/// result decodes inline.
fn decode_partial(
    net: &SimNetwork,
    from_host: &str,
    url: &Url,
    plan: &ExecutionPlan,
    resp: &mut RpcResponse,
) -> Result<PartialSet> {
    if let Some(manifest) = opt_field(&resp.results, "manifest")? {
        let manifest = ChunkManifest::from_element(manifest).map_err(FederationError::Soap)?;
        return open_chunk_stream(net, from_host, url, manifest, plan.retry).collect_set();
    }
    PartialSet::from_votable(take_table(&mut resp.results, "partial")?)
}

/// The call of the portal-driven step services, encoded once so that a
/// scatter sends the same bytes to every extent, hedge and failover: run
/// plan step `step` on the supplied `input` set (seeding when it is
/// absent) and hand the output straight back. The Portal sends a
/// one-step plan ([`ExecutionPlan::for_step`]) at step 0; a node also
/// accepts a whole plan and any step index in it. `from_row = None` is a
/// `ScatterStep` over the node's whole table (its zone range, for a
/// shard); `Some(r)` is a `DeltaStep` over only the rows inserted at or
/// after row `r` — the result cache's incremental-repair probe.
pub fn portal_step_call(
    plan: &ExecutionPlan,
    step: usize,
    from_row: Option<u64>,
    input: Option<VoTable>,
) -> EncodedCall {
    let method = from_row.map_or("ScatterStep", |_| "DeltaStep");
    let mut call = RpcCall::new(method)
        .param("plan", SoapValue::Xml(plan.to_element()))
        .param("step", SoapValue::Int(step as i64));
    if let Some(from_row) = from_row {
        call = call.param("from_row", SoapValue::Int(from_row as i64));
    }
    if let Some(table) = input {
        call = call.param("input", SoapValue::Table(table));
    }
    EncodedCall::new(&call)
}

/// Client side of the portal-driven step services: sends a
/// [`portal_step_call`] to the node at `url`, drains any chunked
/// continuation, and returns the partial set, its single-entry stats
/// chain, and the table version the step observed under its database
/// lock (what a cache entry built from this reply must record).
pub fn invoke_portal_step(
    net: &SimNetwork,
    from_host: &str,
    url: &Url,
    plan: &ExecutionPlan,
    call: &EncodedCall,
) -> Result<(PartialSet, StatsChain, u64)> {
    let (mut resp, _) = send_encoded(net, from_host, url, call, plan.retry)?;
    let version = field(&resp.results, "version")?;
    let set = decode_partial(net, from_host, url, plan, &mut resp)?;
    Ok((set, stats_of(&resp)?, version))
}

/// Sends one RPC with the default [`RetryPolicy`] and decodes the
/// response, surfacing faults as errors.
pub fn send_rpc(
    net: &SimNetwork,
    from_host: &str,
    url: &Url,
    call: &RpcCall,
) -> Result<RpcResponse> {
    send_rpc_with(net, from_host, url, call, RetryPolicy::default())
}

/// Sends one RPC under an explicit [`RetryPolicy`].
///
/// Retryable failures (see [`FederationError::is_retryable`]) are re-sent
/// up to the policy's attempt budget, waiting exponentially longer in
/// *simulated* time before each retry (recorded on the caller→callee link
/// via `SimNetwork::record_retry`; nothing sleeps) and stopping early if
/// the next wait would cross the policy's deadline. Each wait is spread
/// by the policy's deterministic decorrelated jitter
/// ([`RetryPolicy::backoff_before_jittered`]) so callers that failed
/// together do not hammer a recovering node in lockstep. Fatal errors pass
/// through unchanged on whichever attempt they occur. When the budget is
/// exhausted after actual retries, the last failure is wrapped in
/// [`FederationError::NodeUnhealthy`] so the caller can degrade
/// gracefully; with a one-attempt policy the error surfaces unwrapped.
/// The call is encoded once: every attempt resends the same bytes.
pub fn send_rpc_with(
    net: &SimNetwork,
    from_host: &str,
    url: &Url,
    call: &RpcCall,
    policy: RetryPolicy,
) -> Result<RpcResponse> {
    let request = EncodedCall::new(call);
    send_encoded(net, from_host, url, &request, policy).map(|(resp, _)| resp)
}

/// A call encoded once, so that retries, hedges, failovers and a
/// scatter's extents resend its bytes instead of encoding it again.
pub struct EncodedCall(HttpRequest);

impl EncodedCall {
    /// Encodes `call` into a SOAP request; each send addresses it to its
    /// target's path.
    pub fn new(call: &RpcCall) -> EncodedCall {
        EncodedCall(HttpRequest::soap_post(
            String::new(),
            &call.soap_action(),
            call.to_xml(),
        ))
    }
}

/// [`send_rpc_with`] for a call already encoded, also returning the
/// length of the reply body the link carried.
fn send_encoded(
    net: &SimNetwork,
    from_host: &str,
    url: &Url,
    call: &EncodedCall,
    policy: RetryPolicy,
) -> Result<(RpcResponse, usize)> {
    let mut waited = 0.0f64;
    let mut attempts_made = 0u32;
    let mut last_err: Option<FederationError> = None;
    for attempt in 1..=policy.attempts() {
        if attempt > 1 {
            let backoff = policy.backoff_before_jittered(attempt, from_host, &url.host);
            if waited + backoff > policy.deadline_s {
                break;
            }
            waited += backoff;
            net.record_retry(from_host, &url.host, backoff);
        }
        attempts_made = attempt;
        match send_once(net, from_host, url, call) {
            Ok(reply) => return Ok(reply),
            Err(e) if e.is_retryable() => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    let cause = last_err.expect("retry loop makes at least one attempt");
    if attempts_made > 1 {
        Err(FederationError::NodeUnhealthy {
            host: url.host.clone(),
            attempts: attempts_made,
            cause: Box::new(cause),
        })
    } else {
        Err(cause)
    }
}

/// One attempt: send, check the HTTP status line, decode the body.
fn send_once(
    net: &SimNetwork,
    from_host: &str,
    url: &Url,
    call: &EncodedCall,
) -> Result<(RpcResponse, usize)> {
    let req = HttpRequest {
        path: url.path.clone(),
        ..call.0.clone()
    };
    let resp = net
        .send(from_host, url, req)
        .map_err(FederationError::Net)?;
    // An undecodable body is transport damage, not a protocol decision —
    // BadFrame keeps it retryable.
    let body = std::str::from_utf8(&resp.body).map_err(|_| {
        FederationError::Net(NetError::BadFrame {
            detail: "response body is not UTF-8".into(),
        })
    })?;
    if !resp.status.is_success() {
        // SOAP faults ride HTTP 500 per the binding: a well-formed fault
        // body is the service's (deterministic) answer. Anything else —
        // including a body that claims success despite the status line —
        // is a broken server.
        if let Ok(Err(fault)) = RpcResponse::parse(body) {
            return Err(fault.into());
        }
        return Err(FederationError::Http {
            status: resp.status.code(),
            host: url.host.clone(),
        });
    }
    match RpcResponse::parse(body).map_err(FederationError::Soap)? {
        Ok(r) => Ok((r, body.len())),
        Err(fault) => Err(fault.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_label_follows_the_band_formula() {
        // A receiver zones the rows it drains under its own zone height
        // with storage's one band formula; pin the labels that yields.
        use skyquery_storage::{declination_zone, effective_height, DEFAULT_ZONE_HEIGHT_DEG};
        let band = |dec: f64, height: f64| {
            let (h, n) = effective_height(height);
            declination_zone(dec, h, n)
        };
        // Bands of 0.1° from −90: dec −90 → 0, dec 0 → 900, dec +90 →
        // clamped to the last band (1799).
        assert_eq!(band(-90.0, 0.1), 0);
        assert_eq!(band(0.0, 0.1), 900);
        assert_eq!(band(90.0, 0.1), 1799);
        // Non-positive / non-finite heights fall back to the default.
        assert_eq!(band(0.0, 0.0), band(0.0, DEFAULT_ZONE_HEIGHT_DEG));
        assert_eq!(band(0.0, f64::NAN), band(0.0, DEFAULT_ZONE_HEIGHT_DEG));
        // NaN declination lands in zone 0, matching the partitioner.
        assert_eq!(band(f64::NAN, 0.1), 0);
        // Tiny heights are clamped so the band count stays bounded.
        assert_eq!(band(90.0, 1e-9), band(90.0, 1e-4));
    }

    #[test]
    fn declared_row_count_does_not_size_an_allocation() {
        use crate::xmatch::{PartialTuple, TupleState};
        use skyquery_net::HttpResponse;
        use skyquery_xml::Element;
        use std::sync::Arc;

        // A sender that promises 10^12 rows in one chunk and serves one.
        let net = SimNetwork::new();
        net.bind(
            "liar.skyquery.net",
            Arc::new(|_: &SimNetwork, _: HttpRequest| {
                let mut set = PartialSet::new(vec![]);
                set.tuples.push(PartialTuple {
                    state: TupleState {
                        a: 1.0,
                        ax: 1.0,
                        ay: 0.0,
                        az: 0.0,
                    },
                    values: vec![],
                });
                let reply = RpcResponse::new("FetchChunk")
                    .result("chunk", SoapValue::Table(set.to_votable().unwrap()))
                    .result("index", SoapValue::Int(0))
                    .result("total", SoapValue::Int(1))
                    .result("transfer_id", SoapValue::Int(7));
                HttpResponse::ok(reply.to_xml())
            }),
        );
        let rows = 1_000_000_000_000usize.to_string();
        let manifest = ChunkManifest::from_element(
            &Element::new("ChunkManifest")
                .with_attr("transfer_id", "7")
                .with_attr("total_rows", rows.clone())
                .with_child(Element::new("Chunk").with_attr("rows", rows)),
        )
        .expect("a large count is not malformed");
        let url = Url::parse("http://liar.skyquery.net/skynode").unwrap();
        let stream = open_chunk_stream(&net, "tester", &url, manifest, RetryPolicy::none());
        // The real row is read, found short of the promise, and the
        // transfer fails with a typed error — nothing was reserved.
        let err = stream.collect_set().unwrap_err();
        assert!(
            matches!(err, FederationError::Protocol { .. }),
            "expected a protocol error, got {err}"
        );
        assert!(err.to_string().contains("manifest promised"), "{err}");
    }

    #[test]
    fn a_chunk_with_different_columns_fails_the_transfer() {
        use crate::result::ResultColumn;
        use crate::xmatch::{PartialTuple, TupleState};
        use skyquery_net::HttpResponse;
        use skyquery_storage::{DataType, Value};
        use std::sync::Arc;

        // A two-chunk sender whose second chunk carries an extra column.
        let net = SimNetwork::new();
        net.bind(
            "ragged.skyquery.net",
            Arc::new(|_: &SimNetwork, req: HttpRequest| {
                let call = RpcCall::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
                let Some(index) = call.get("index").and_then(SoapValue::as_i64) else {
                    // The failed stream's `AbortTransfer`.
                    return HttpResponse::ok(RpcResponse::new(call.method).to_xml());
                };
                let (columns, values) = match index {
                    0 => (vec![], vec![]),
                    _ => (
                        vec![ResultColumn::new("O.extra", DataType::Int)],
                        vec![Value::Int(1)],
                    ),
                };
                let mut set = PartialSet::new(columns);
                set.tuples.push(PartialTuple {
                    state: TupleState {
                        a: 1.0,
                        ax: 1.0,
                        ay: 0.0,
                        az: 0.0,
                    },
                    values,
                });
                let reply = RpcResponse::new("FetchChunk")
                    .result("chunk", SoapValue::Table(set.to_votable().unwrap()))
                    .result("index", SoapValue::Int(index))
                    .result("total", SoapValue::Int(2))
                    .result("transfer_id", SoapValue::Int(7));
                HttpResponse::ok(reply.to_xml())
            }),
        );
        let manifest = ChunkManifest {
            transfer_id: 7,
            chunk_rows: vec![1, 1],
        };
        let url = Url::parse("http://ragged.skyquery.net/skynode").unwrap();
        let stream = open_chunk_stream(&net, "tester", &url, manifest, RetryPolicy::none());
        // A set whose tuples do not match its columns would panic at its
        // next encode; the transfer fails with a typed error instead.
        let err = stream.collect_set().unwrap_err();
        assert!(
            matches!(err, FederationError::Protocol { .. }),
            "expected a protocol error, got {err}"
        );
        assert!(err.to_string().contains("different columns"), "{err}");
    }

    #[test]
    fn malformed_wire_a_chunk_with_a_different_param_fails_the_transfer() {
        use crate::xmatch::{PartialTuple, TupleState};
        use skyquery_net::HttpResponse;
        use std::sync::Arc;

        // A two-chunk sender whose second chunk declares another `__a`:
        // each chunk is self-consistent, but they are not one set.
        let net = SimNetwork::new();
        net.bind(
            "torn.skyquery.net",
            Arc::new(|_: &SimNetwork, req: HttpRequest| {
                let call = RpcCall::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
                let Some(index) = call.get("index").and_then(SoapValue::as_i64) else {
                    // The failed stream's `AbortTransfer`.
                    return HttpResponse::ok(RpcResponse::new(call.method).to_xml());
                };
                let a = 1.0 + index as f64;
                let mut set = PartialSet::new(vec![]);
                set.tuples.push(PartialTuple {
                    state: TupleState {
                        a,
                        ax: a,
                        ay: 0.0,
                        az: 0.0,
                    },
                    values: vec![],
                });
                let reply = RpcResponse::new("FetchChunk")
                    .result("chunk", SoapValue::Table(set.to_votable().unwrap()))
                    .result("index", SoapValue::Int(index))
                    .result("total", SoapValue::Int(2))
                    .result("transfer_id", SoapValue::Int(7));
                HttpResponse::ok(reply.to_xml())
            }),
        );
        let manifest = ChunkManifest {
            transfer_id: 7,
            chunk_rows: vec![1, 1],
        };
        let url = Url::parse("http://torn.skyquery.net/skynode").unwrap();
        let stream = open_chunk_stream(&net, "tester", &url, manifest, RetryPolicy::none());
        let err = stream.collect_set().unwrap_err();
        assert!(
            matches!(err, FederationError::Protocol { .. }),
            "expected a protocol error, got {err}"
        );
        assert!(err.to_string().contains("different PARAMs"), "{err}");
    }

    #[test]
    fn a_garbled_scatter_step_version_is_a_protocol_error() {
        use skyquery_net::HttpResponse;
        use std::sync::Arc;

        let plan = one_step_plan(Url::new("garbled.skyquery.net", "/soap"), 10_000);
        let call = portal_step_call(&plan, 0, None, None);
        for version in [SoapValue::Str("zz".into()), SoapValue::Int(-5)] {
            let net = SimNetwork::new();
            net.bind(
                "garbled.skyquery.net",
                Arc::new(move |_: &SimNetwork, _: HttpRequest| {
                    let reply = RpcResponse::new("ScatterStep")
                        .result(
                            "partial",
                            SoapValue::Table(PartialSet::new(vec![]).to_votable().unwrap()),
                        )
                        .result("stats", SoapValue::Xml(StatsChain::new().to_element()))
                        .result("version", version.clone());
                    HttpResponse::ok(reply.to_xml())
                }),
            );
            let err = invoke_portal_step(&net, "tester", &plan.steps[0].url, &plan, &call)
                .expect_err("a garbled table version is refused");
            assert!(
                matches!(err, FederationError::Protocol { .. }),
                "expected a protocol error, got {err}"
            );
        }
    }

    #[test]
    fn a_chunked_cross_match_reply_is_the_sender_set_in_order() {
        use crate::meta::ArchiveInfo;
        use crate::skynode::SkyNodeBuilder;
        use skyquery_storage::{
            ColumnDef, DataType, Database, PositionColumns, TableSchema, Value,
        };

        // Positions spread over several 0.1° zones, in no zone order.
        let mut db = Database::new("A");
        let schema = TableSchema::new(
            "objects",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 14))
        .unwrap();
        db.create_table(schema).unwrap();
        for i in 0..300u64 {
            let dec = (i * 7 % 17) as f64 * 0.05 - 0.4;
            db.insert(
                "objects",
                vec![
                    Value::Id(i),
                    Value::Float(180.0 + i as f64 * 1e-3),
                    Value::Float(dec),
                ],
            )
            .unwrap();
        }
        let info = ArchiveInfo {
            name: "A".into(),
            sigma_arcsec: 0.1,
            primary_table: "objects".into(),
            htm_depth: 14,
            extent: None,
        };
        let net = SimNetwork::new();
        let url = SkyNodeBuilder::new(info, db)
            .start(&net, "a.skyquery.net")
            .url();

        let whole = one_step_plan(url.clone(), crate::plan::DEFAULT_MAX_MESSAGE_BYTES);
        let (inline, _) = invoke_cross_match(&net, "tester", &url, &whole, 0).unwrap();
        assert_eq!(inline.len(), 300);

        let chunked = one_step_plan(url.clone(), 3_000);
        let call = RpcCall::new("CrossMatch")
            .param("plan", SoapValue::Xml(chunked.to_element()))
            .param("step", SoapValue::Int(0));
        let resp = send_rpc(&net, "tester", &url, &call).unwrap();
        let manifest =
            ChunkManifest::from_element(resp.require("manifest").unwrap().as_xml().unwrap())
                .unwrap();
        assert!(manifest.total_chunks() > 1, "the budget must force chunks");
        // Every chunk carries exactly the set's own columns: no sequence
        // column rides along.
        let columns = inline.to_votable().unwrap().columns;
        let mut stream = open_chunk_stream(&net, "tester", &url, manifest, RetryPolicy::none());
        while let Some(chunk) = stream.fetch_next().unwrap() {
            assert_eq!(chunk.columns, columns);
        }
        let (set, _) = invoke_cross_match(&net, "tester", &url, &chunked, 0).unwrap();
        assert_eq!(set, inline);
    }

    /// A one-step plan seeding from archive `A` at `url`.
    fn one_step_plan(url: Url, max_message_bytes: usize) -> ExecutionPlan {
        ExecutionPlan {
            threshold: 3.0,
            region: None,
            steps: vec![crate::plan::PlanStep {
                alias: "A".into(),
                archive: "A".into(),
                table: "objects".into(),
                url,
                dropout: false,
                sigma_arcsec: 0.1,
                local_sql: None,
                carried: vec!["object_id".into()],
                residual_sql: vec![],
                count_estimate: None,
                shards: vec![],
            }],
            select: vec![("A.object_id".into(), None)],
            order_by: vec![],
            limit: None,
            max_message_bytes,
            chunking: true,
            kernel: Default::default(),
            retry: RetryPolicy::none(),
            lease_ttl_s: crate::plan::DEFAULT_LEASE_TTL_S,
        }
    }
}
