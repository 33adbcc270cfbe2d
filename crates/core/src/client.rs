//! The Client: "web interfaces (or similar applications) that accept user
//! queries and pass them on to the Portal" (§5.1). This facade speaks
//! SOAP to the Portal's SkyQuery service and decodes the result table and
//! execution trace.

use std::time::Duration;

use skyquery_net::{SimNetwork, Url};
use skyquery_soap::{RpcCall, SoapValue};
use skyquery_xml::Element;

use crate::error::{attr, decode_dropped, field, parsed, Result};
use crate::result::ResultSet;
use crate::service::take_table;
use crate::skynode::send_rpc;
use crate::trace::ExecutionTrace;

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
        let mut resp = send_rpc(
            &self.net,
            &self.host,
            &self.portal,
            &RpcCall::new("SkyQuery").param("sql", SoapValue::Str(sql.to_string())),
        )?;
        let mut result = ResultSet::from_votable(take_table(&mut resp.results, "result")?)?;
        // Partial-result honesty: the Portal stamps a degraded answer on
        // the response header; a garbled flag is refused rather than read
        // as complete.
        result.degraded = field(&resp.results, "degraded")?;
        result.dropped_archives = decode_dropped(field(&resp.results, "dropped")?);
        let mut trace = ExecutionTrace::new();
        let events: &Element = field(&resp.results, "trace")?;
        for ev in events.children_named("Event") {
            // Re-create events preserving the server's sequence and its
            // measured step durations.
            trace.push_with_elapsed(
                attr(ev, "actor", Some)?,
                attr(ev, "action", Some)?,
                ev.text.clone(),
                Duration::from_micros(attr(ev, "elapsed_us", parsed)?),
            );
        }
        Ok((result, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FederationError;
    use skyquery_soap::RpcResponse;

    /// A Portal that answers every call with an empty, degraded result
    /// and a one-event trace, as a Portal writes it, with `edit` applied.
    fn query_answered(edit: impl FnOnce(&mut RpcResponse)) -> Result<(ResultSet, ExecutionTrace)> {
        use skyquery_net::{HttpRequest, HttpResponse};
        let event = Element::new("Event")
            .with_attr("seq", "1")
            .with_attr("actor", "Portal")
            .with_attr("action", "plan")
            .with_attr("elapsed_us", "15")
            .with_text("built");
        let mut resp = RpcResponse::new("SkyQuery")
            .result(
                "result",
                SoapValue::Table(ResultSet::new(vec![]).to_votable("result")),
            )
            .result("degraded", SoapValue::Bool(true))
            .result("dropped", SoapValue::Str("FIRST".into()))
            .result(
                "trace",
                SoapValue::Xml(Element::new("Trace").with_child(event)),
            );
        edit(&mut resp);
        let body = resp.to_xml();
        let net = SimNetwork::new();
        net.bind(
            "portal.example.org",
            std::sync::Arc::new(move |_: &SimNetwork, _: HttpRequest| {
                HttpResponse::ok(body.clone())
            }),
        );
        Client::new(&net, "web", Url::new("portal.example.org", "/soap")).query("q")
    }

    #[test]
    fn malformed_wire_dropped_list_is_refused() {
        let (rs, trace) = query_answered(|_| {}).unwrap();
        assert_eq!(rs.dropped_archives, ["FIRST"]);
        assert!(rs.degraded);
        let ev = &trace.events()[0];
        assert_eq!((ev.actor.as_str(), ev.action.as_str()), ("Portal", "plan"));
        assert_eq!(ev.elapsed, Duration::from_micros(15));
        let garbled = query_answered(|resp| resp.results[2].1 = SoapValue::Int(5));
        assert!(matches!(garbled, Err(FederationError::Protocol { .. })));
    }

    /// Refuses the reply without result `name`, naming it.
    fn assert_refused_without_result(name: &str) {
        match query_answered(|resp| resp.results.retain(|(n, _)| n != name)) {
            Err(FederationError::Soap(e)) => assert!(e.to_string().contains(name), "{e}"),
            other => panic!("a reply without {name} decoded to {other:?}"),
        }
    }

    /// The reply with attribute `name` of its trace event set to `value`,
    /// or removed for `None`.
    fn event_answered(name: &str, value: Option<&str>) -> Result<(ResultSet, ExecutionTrace)> {
        query_answered(|resp| {
            let Some(SoapValue::Xml(trace)) = resp.results.last_mut().map(|(_, v)| v) else {
                unreachable!("the trace is the last result")
            };
            let event = &mut trace.children[0];
            event.attributes.retain(|(k, _)| k != name);
            if let Some(v) = value {
                event.attributes.push((name.into(), v.into()));
            }
        })
    }

    /// Refuses the reply whose trace event lacks attribute `name`, naming
    /// both.
    fn assert_refused_event_without(name: &str) {
        match event_answered(name, None) {
            Err(FederationError::Protocol { detail }) => {
                assert!(
                    detail.contains("Event") && detail.contains(name),
                    "{detail}"
                )
            }
            other => panic!("an event without {name} decoded to {other:?}"),
        }
    }

    #[test]
    fn malformed_wire_garbled_event_elapsed_us_is_refused() {
        for value in ["zz", "-1", "1.5", ""] {
            match event_answered("elapsed_us", Some(value)) {
                Err(FederationError::Protocol { detail }) => {
                    assert!(detail.contains("elapsed_us"), "{detail}")
                }
                other => panic!("elapsed_us={value:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_wire_sky_query_reply_without_degraded_is_refused() {
        assert_refused_without_result("degraded");
    }

    #[test]
    fn malformed_wire_sky_query_reply_without_dropped_is_refused() {
        assert_refused_without_result("dropped");
    }

    #[test]
    fn malformed_wire_sky_query_reply_without_trace_is_refused() {
        assert_refused_without_result("trace");
    }

    #[test]
    fn malformed_wire_trace_event_without_actor_is_refused() {
        assert_refused_event_without("actor");
    }

    #[test]
    fn malformed_wire_trace_event_without_action_is_refused() {
        assert_refused_event_without("action");
    }

    #[test]
    fn malformed_wire_trace_event_without_elapsed_us_is_refused() {
        assert_refused_event_without("elapsed_us");
    }
}
