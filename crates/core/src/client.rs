//! The Client: "web interfaces (or similar applications) that accept user
//! queries and pass them on to the Portal" (§5.1). This facade speaks
//! SOAP to the Portal's SkyQuery service and decodes the result table and
//! execution trace.

use skyquery_net::{SimNetwork, Url};
use skyquery_soap::{RpcCall, SoapValue};

use crate::error::{opt_result, FederationError, Result};
use crate::result::ResultSet;
use crate::skynode::send_rpc;
use crate::trace::{ExecutionTrace, TraceEvent};

/// A client of the federation.
pub struct Client {
    net: SimNetwork,
    host: String,
    portal: Url,
}

impl Client {
    /// A client named `host` (for transmission accounting) talking to the
    /// Portal at `portal`.
    pub fn new(net: &SimNetwork, host: impl Into<String>, portal: Url) -> Client {
        Client {
            net: net.clone(),
            host: host.into(),
            portal,
        }
    }

    /// Submits a cross-match query, returning the result set and the
    /// server-side execution trace.
    pub fn query(&self, sql: &str) -> Result<(ResultSet, ExecutionTrace)> {
        let resp = send_rpc(
            &self.net,
            &self.host,
            &self.portal,
            &RpcCall::new("SkyQuery").param("sql", SoapValue::Str(sql.to_string())),
        )?;
        let table = resp
            .require("result")?
            .as_table()
            .ok_or_else(|| FederationError::protocol("result must be a table"))?;
        let mut result = ResultSet::from_votable(table)?;
        // Partial-result honesty: the Portal stamps a degraded answer on
        // the response header. Older portals omit the fields — absent
        // means complete, matching their behaviour; a garbled flag is
        // refused rather than read as complete.
        result.degraded = opt_result(&resp, "degraded", SoapValue::as_bool)?.unwrap_or(false);
        if let Some(SoapValue::Str(dropped)) = resp.get("dropped") {
            if !dropped.is_empty() {
                result.dropped_archives = dropped.split(',').map(str::to_string).collect();
            }
        }
        let mut trace = ExecutionTrace::new();
        if let Some(SoapValue::Xml(t)) = resp.get("trace") {
            for ev in t.children_named("Event") {
                // Re-create events preserving the server's sequence and
                // its measured step durations.
                let actor = ev.attr("actor").unwrap_or("?").to_string();
                let action = ev.attr("action").unwrap_or("?").to_string();
                let elapsed = ev
                    .attr("elapsed_us")
                    .and_then(|v| v.parse().ok())
                    .map(std::time::Duration::from_micros)
                    .unwrap_or_default();
                trace.push_with_elapsed(actor, action, ev.text.clone(), elapsed);
            }
        }
        Ok((result, trace))
    }

    /// The most recent trace events in rendered form (convenience for
    /// examples).
    pub fn render_trace(events: &[TraceEvent]) -> String {
        let mut out = String::new();
        for e in events {
            out.push_str(&format!(
                "{:>2}. [{}] {}: {} (+{})\n",
                e.seq,
                e.actor,
                e.action,
                e.detail,
                crate::trace::format_elapsed(e.elapsed)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_trace_formats_lines() {
        let mut t = ExecutionTrace::new();
        t.push("Client", "submit", "q");
        let text = Client::render_trace(t.events());
        assert!(text.contains("[Client] submit: q"));
    }
}
