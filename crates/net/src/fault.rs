//! Fault injection for the simulated network.
//!
//! The federation is built from autonomous archives that fail
//! independently, so the interesting network is the one that *breaks*: a
//! host that drops off for a while, a link that adds latency, a proxy
//! that answers 5xx, a frame that arrives truncated or corrupted. A
//! [`FaultPlan`] describes such misbehaviour declaratively; installing it
//! on a [`SimNetwork`](crate::SimNetwork) composes a stateful
//! [`FaultInjector`] onto `send`, which applies matching rules to each
//! request and tallies every injection into
//! [`NetworkMetrics`](crate::NetworkMetrics) so recovery is observable,
//! not just survived.

use crate::http::HttpRequest;

/// What a matching fault rule does to a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The destination behaves as if unbound: the connection fails and
    /// the caller sees `HostUnreachable`.
    HostDown,
    /// The request reaches the host's front door but the service behind
    /// it answers HTTP 500 with a non-SOAP body (a crashed worker, a
    /// proxy error page).
    ServerError,
    /// The endpoint answers normally but the response body is cut off
    /// mid-frame on the way back.
    TruncateBody,
    /// The endpoint answers normally but the response body arrives as
    /// non-UTF-8 garbage.
    GarbageBody,
    /// The request is delivered intact after the given extra simulated
    /// seconds (accounted on the link, never an error).
    Latency(f64),
}

impl FaultKind {
    /// Stable label used as the fault-tally key in network metrics.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::HostDown => "host-down",
            FaultKind::ServerError => "http-500",
            FaultKind::TruncateBody => "truncated-body",
            FaultKind::GarbageBody => "garbage-body",
            FaultKind::Latency(_) => "latency",
        }
    }
}

/// One declarative fault: a kind plus the requests it applies to.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The injected misbehaviour.
    pub kind: FaultKind,
    /// Destination host filter (`None` = every host).
    pub host: Option<String>,
    /// SOAPAction filter (`None` = every request). Lets a test break one
    /// protocol step — say, only `CommitReceive` — while the rest of the
    /// conversation flows.
    pub action: Option<String>,
    /// Apply to the first N matching requests, then expire (`None` =
    /// every matching request, forever).
    pub times: Option<u32>,
}

impl FaultRule {
    /// A rule applying `kind` to every request until narrowed.
    pub fn new(kind: FaultKind) -> FaultRule {
        FaultRule {
            kind,
            host: None,
            action: None,
            times: None,
        }
    }

    /// Restricts the rule to requests addressed to `host`.
    pub fn host(mut self, host: impl Into<String>) -> FaultRule {
        self.host = Some(host.into());
        self
    }

    /// Restricts the rule to requests carrying this SOAPAction. The full
    /// action URI matches, and so does the bare method name after the `#`
    /// fragment (`"CommitReceive"` matches `"urn:skyquery#CommitReceive"`).
    pub fn action(mut self, action: impl Into<String>) -> FaultRule {
        self.action = Some(action.into());
        self
    }

    /// Expires the rule after its first `n` matching requests.
    pub fn times(mut self, n: u32) -> FaultRule {
        self.times = Some(n);
        self
    }

    fn matches(&self, to_host: &str, action: Option<&str>) -> bool {
        if let Some(h) = &self.host {
            if h != to_host {
                return false;
            }
        }
        if let Some(a) = &self.action {
            let fragment = action.map(|s| s.rsplit_once('#').map_or(s, |(_, f)| f));
            if action != Some(a.as_str()) && fragment != Some(a.as_str()) {
                return false;
            }
        }
        true
    }
}

/// A declarative set of fault rules, evaluated in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The rules, applied in order to each request.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (a perfectly healthy network).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Adds an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// `host` refuses its next `n` requests as if offline, then recovers.
    pub fn host_down_for(self, host: impl Into<String>, n: u32) -> FaultPlan {
        self.rule(FaultRule::new(FaultKind::HostDown).host(host).times(n))
    }

    /// A flaky link: the first request to `host` fails, every later one
    /// succeeds.
    pub fn flaky_once(self, host: impl Into<String>) -> FaultPlan {
        self.host_down_for(host, 1)
    }

    /// `host` answers its next `n` requests with HTTP 500.
    pub fn server_errors(self, host: impl Into<String>, n: u32) -> FaultPlan {
        self.rule(FaultRule::new(FaultKind::ServerError).host(host).times(n))
    }

    /// The next `n` responses from `host` arrive truncated mid-frame.
    pub fn truncated_bodies(self, host: impl Into<String>, n: u32) -> FaultPlan {
        self.rule(FaultRule::new(FaultKind::TruncateBody).host(host).times(n))
    }

    /// The next `n` responses from `host` arrive as non-UTF-8 garbage.
    pub fn garbage_bodies(self, host: impl Into<String>, n: u32) -> FaultPlan {
        self.rule(FaultRule::new(FaultKind::GarbageBody).host(host).times(n))
    }

    /// Every request to `host` is delayed by `seconds` of simulated time.
    pub fn added_latency(self, host: impl Into<String>, seconds: f64) -> FaultPlan {
        self.rule(FaultRule::new(FaultKind::Latency(seconds)).host(host))
    }
}

/// The terminal effect the injector applies to one request (at most one
/// per request; latency composes with any of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultOutcome {
    /// Fail the connection.
    HostDown,
    /// Short-circuit with a 500 response.
    ServerError,
    /// Dispatch, then truncate the response body.
    TruncateBody,
    /// Dispatch, then replace the response body with garbage.
    GarbageBody,
}

/// The injector's verdict for one request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Interception {
    /// Extra simulated seconds to charge the link.
    pub(crate) latency_s: f64,
    /// The terminal fault, if any (first matching rule wins).
    pub(crate) outcome: Option<FaultOutcome>,
}

/// Stateful evaluator for a [`FaultPlan`]: counts down bounded rules as
/// they fire. One injector is installed per network; `SimNetwork` guards
/// it with a lock, so `intercept` takes `&mut self`.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    rules: Vec<ActiveRule>,
}

#[derive(Debug)]
struct ActiveRule {
    rule: FaultRule,
    remaining: Option<u32>,
}

impl FaultInjector {
    /// Arms the injector with a plan.
    pub(crate) fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            rules: plan
                .rules
                .into_iter()
                .map(|rule| ActiveRule {
                    remaining: rule.times,
                    rule,
                })
                .collect(),
        }
    }

    /// Evaluates every live rule against one request and returns the
    /// composite verdict, decrementing the budget of each rule that
    /// fires. Labels of the fired rules ride along for fault tallying.
    pub(crate) fn intercept(
        &mut self,
        to_host: &str,
        req: &HttpRequest,
    ) -> (Interception, Vec<&'static str>) {
        let action = req.soap_action();
        let mut verdict = Interception::default();
        let mut fired = Vec::new();
        for active in &mut self.rules {
            if active.remaining == Some(0) || !active.rule.matches(to_host, action) {
                continue;
            }
            let applies = match active.rule.kind {
                FaultKind::Latency(s) => {
                    verdict.latency_s += s;
                    true
                }
                kind => {
                    if verdict.outcome.is_some() {
                        false // one terminal fault per request
                    } else {
                        verdict.outcome = Some(match kind {
                            FaultKind::HostDown => FaultOutcome::HostDown,
                            FaultKind::ServerError => FaultOutcome::ServerError,
                            FaultKind::TruncateBody => FaultOutcome::TruncateBody,
                            FaultKind::GarbageBody => FaultOutcome::GarbageBody,
                            FaultKind::Latency(_) => unreachable!("handled above"),
                        });
                        true
                    }
                }
            };
            if applies {
                fired.push(active.rule.kind.label());
                if let Some(n) = &mut active.remaining {
                    *n -= 1;
                }
            }
        }
        (verdict, fired)
    }

    /// Whether any rule can still fire.
    pub(crate) fn is_live(&self) -> bool {
        self.rules.iter().any(|r| r.remaining != Some(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(action: &str) -> HttpRequest {
        HttpRequest::soap_post("/soap", action, "<x/>")
    }

    #[test]
    fn bounded_rule_expires() {
        let mut inj = FaultInjector::new(FaultPlan::new().host_down_for("sdss", 2));
        for _ in 0..2 {
            let (v, fired) = inj.intercept("sdss", &req("Query"));
            assert_eq!(v.outcome, Some(FaultOutcome::HostDown));
            assert_eq!(fired, vec!["host-down"]);
        }
        let (v, fired) = inj.intercept("sdss", &req("Query"));
        assert_eq!(v.outcome, None);
        assert!(fired.is_empty());
        assert!(!inj.is_live());
    }

    #[test]
    fn host_and_action_filters() {
        let plan = FaultPlan::new().rule(
            FaultRule::new(FaultKind::ServerError)
                .host("dest")
                .action("CommitReceive"),
        );
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.intercept("dest", &req("Query")).0.outcome, None);
        assert_eq!(
            inj.intercept("other", &req("CommitReceive")).0.outcome,
            None
        );
        assert_eq!(
            inj.intercept("dest", &req("CommitReceive")).0.outcome,
            Some(FaultOutcome::ServerError)
        );
        // The bare method name also matches a full SOAPAction URI.
        assert_eq!(
            inj.intercept("dest", &req("urn:skyquery#CommitReceive"))
                .0
                .outcome,
            Some(FaultOutcome::ServerError)
        );
        // Unbounded: still live after firing.
        assert!(inj.is_live());
    }

    #[test]
    fn latency_composes_with_terminal_faults() {
        let plan = FaultPlan::new()
            .added_latency("n", 0.25)
            .garbage_bodies("n", 1);
        let mut inj = FaultInjector::new(plan);
        let (v, fired) = inj.intercept("n", &req("Query"));
        assert!((v.latency_s - 0.25).abs() < 1e-12);
        assert_eq!(v.outcome, Some(FaultOutcome::GarbageBody));
        assert_eq!(fired, vec!["latency", "garbage-body"]);
        // Terminal fault expired; latency persists.
        let (v, _) = inj.intercept("n", &req("Query"));
        assert!((v.latency_s - 0.25).abs() < 1e-12);
        assert_eq!(v.outcome, None);
    }

    #[test]
    fn first_terminal_rule_wins() {
        let plan = FaultPlan::new()
            .server_errors("n", 1)
            .truncated_bodies("n", 1);
        let mut inj = FaultInjector::new(plan);
        let (v, _) = inj.intercept("n", &req("Query"));
        assert_eq!(v.outcome, Some(FaultOutcome::ServerError));
        // The shadowed truncation rule kept its budget for the next one.
        let (v, _) = inj.intercept("n", &req("Query"));
        assert_eq!(v.outcome, Some(FaultOutcome::TruncateBody));
    }
}
