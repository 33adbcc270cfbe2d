//! An interactive session over one federation: query execution plus the
//! meta-commands of the REPL. All output goes through a `Write` sink so
//! tests can drive the whole session headlessly.

use std::io::Write;
use std::sync::Arc;

use skyquery_core::{ChainMode, FederationConfig, HostState, OrderingStrategy};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig};
use skyquery_net::FaultPlan;
use skyquery_sim::{CatalogParams, FederationBuilder, TestFederation};

use crate::args::Options;

/// The session's job service plus the client it submits through.
struct JobsHandle {
    svc: Arc<JobService>,
    cli: JobClient,
}

/// A live session: federation + display settings.
pub struct Session {
    fed: TestFederation,
    show_trace: bool,
    max_rows: usize,
    /// The accumulated fault plan; `\faults` commands extend it and
    /// re-arm the network with a fresh copy.
    faults: FaultPlan,
    /// The async job service, started by `--jobs` or lazily on the first
    /// `\submit`.
    jobs: Option<JobsHandle>,
}

impl Session {
    /// Builds the standard three-archive federation per the options.
    pub fn new(opts: &Options) -> Session {
        let fed = FederationBuilder::new()
            .catalog(CatalogParams {
                count: opts.bodies,
                seed: opts.seed,
                ..CatalogParams::default()
            })
            .config(FederationConfig {
                retry: opts.retry_policy(),
                chain_mode: opts.chain_mode,
                ..FederationConfig::default()
            })
            .survey(skyquery_sim::SurveyParams::sdss_like())
            .survey(skyquery_sim::SurveyParams::twomass_like())
            .survey(skyquery_sim::SurveyParams::first_like())
            .shards(opts.shards)
            .replicas(opts.replicas)
            .zone_engine(opts.workers, opts.zone_height)
            .build();
        let mut session = Session {
            fed,
            show_trace: false,
            max_rows: 20,
            faults: FaultPlan::new(),
            jobs: None,
        };
        if opts.jobs {
            session.ensure_jobs();
        }
        session
    }

    /// Starts the job service on first use; answers the live handle.
    fn ensure_jobs(&mut self) -> &JobsHandle {
        if self.jobs.is_none() {
            let svc = JobService::start(
                &self.fed.net,
                "jobs.skyquery.net",
                self.fed.portal.clone(),
                JobServiceConfig::default(),
            );
            let cli = JobClient::new(&self.fed.net, "repl-client", svc.url());
            self.jobs = Some(JobsHandle { svc, cli });
        }
        self.jobs.as_ref().expect("just initialized")
    }

    /// Resolves an archive name (or raw host) to a network host.
    fn resolve_host(&self, name: &str) -> String {
        self.fed
            .node(name)
            .map(|n| n.url().host.clone())
            .unwrap_or_else(|| name.to_string())
    }

    /// The underlying federation (for inspection in tests).
    pub fn federation(&self) -> &TestFederation {
        &self.fed
    }

    /// Handles one input line (query or `\`-meta-command); writes human
    /// output to `out`. Returns `false` when the session should end.
    pub fn handle_line(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        if let Some(meta) = line.strip_prefix('\\') {
            return self.handle_meta(meta, out);
        }
        self.run_query(line, out)?;
        Ok(true)
    }

    /// Runs one query and reports whether it succeeded — the one-shot
    /// `skyquery run` entry point, where failures must exit nonzero.
    pub fn run_once(&mut self, sql: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        self.run_query(sql, out)
    }

    fn run_query(&mut self, sql: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        self.fed.net.reset_metrics();
        match self.fed.portal.submit(sql) {
            Ok((result, trace)) => {
                if self.show_trace {
                    writeln!(out, "{}", trace.render())?;
                }
                self.print_result(&result, out)?;
                if result.degraded {
                    writeln!(
                        out,
                        "partial result — dropped: {}",
                        result.dropped_archives.join(", ")
                    )?;
                }
                let m = self.fed.net.metrics().total();
                writeln!(
                    out,
                    "{} rows · {} SOAP messages · {} bytes on the wire",
                    result.row_count(),
                    m.messages,
                    m.bytes
                )?;
            }
            Err(e) => {
                writeln!(out, "error: {e}")?;
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Renders a result table truncated to the session's row limit.
    fn print_result(
        &self,
        result: &skyquery_core::ResultSet,
        out: &mut dyn Write,
    ) -> std::io::Result<()> {
        let shown = result.row_count().min(self.max_rows);
        let mut head = skyquery_core::ResultSet::new(result.columns.clone());
        for row in result.rows.iter().take(shown) {
            head.push_row(row.clone()).expect("same columns");
        }
        write!(out, "{}", head.to_ascii())?;
        if shown < result.row_count() {
            writeln!(out, "… ({} more rows)", result.row_count() - shown)?;
        }
        Ok(())
    }

    fn handle_meta(&mut self, meta: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        let mut parts = meta.split_whitespace();
        match parts.next() {
            Some("q") | Some("quit") | Some("exit") => return Ok(false),
            Some("help") => writeln!(out, "{}", meta_help())?,
            Some("archives") => {
                for node in &self.fed.nodes {
                    let info = node.info();
                    let rows = node.with_db(|db| db.row_count(&info.primary_table).unwrap());
                    writeln!(
                        out,
                        "{:<10} σ={:>5.2}\"  {:>6} objects  table {}",
                        info.name, info.sigma_arcsec, rows, info.primary_table
                    )?;
                }
            }
            Some("trace") => {
                self.show_trace = !self.show_trace;
                writeln!(out, "trace {}", if self.show_trace { "on" } else { "off" })?;
            }
            Some("rows") => match parts.next().and_then(|v| v.parse().ok()) {
                Some(n) => {
                    self.max_rows = n;
                    writeln!(out, "showing up to {n} rows")?;
                }
                None => writeln!(out, "usage: \\rows <n>")?,
            },
            Some("explain") => {
                let sql: String = parts.collect::<Vec<_>>().join(" ");
                if sql.trim().is_empty() {
                    writeln!(out, "usage: \\explain <cross-match sql>")?;
                } else {
                    match self.fed.portal.explain(&sql) {
                        Ok(text) => write!(out, "{text}")?,
                        Err(e) => writeln!(out, "error: {e}")?,
                    }
                }
            }
            Some("metrics") => {
                for ((from, to), stats) in self.fed.net.metrics().links() {
                    writeln!(
                        out,
                        "{from:<26} -> {to:<26} {:>4} msgs {:>10} bytes",
                        stats.messages, stats.bytes
                    )?;
                }
            }
            Some("ordering") => {
                let strategy = match parts.next() {
                    Some("desc") => Some(OrderingStrategy::CountStarDescending),
                    Some("asc") => Some(OrderingStrategy::CountStarAscending),
                    Some("decl") => Some(OrderingStrategy::DeclarationOrder),
                    Some("random") => Some(OrderingStrategy::Random(
                        parts.next().and_then(|s| s.parse().ok()).unwrap_or(1),
                    )),
                    _ => None,
                };
                match strategy {
                    Some(s) => {
                        self.fed.portal.set_config(FederationConfig {
                            ordering: s,
                            ..self.fed.portal.config()
                        });
                        writeln!(out, "plan ordering set to {s:?}")?;
                    }
                    None => writeln!(out, "usage: \\ordering desc|asc|decl|random [seed]")?,
                }
            }
            Some("limit") => match parts.next().and_then(|v| v.parse().ok()) {
                Some(bytes) => {
                    self.fed.portal.set_config(FederationConfig {
                        max_message_bytes: bytes,
                        ..self.fed.portal.config()
                    });
                    writeln!(out, "SOAP parser limit set to {bytes} bytes")?;
                }
                None => writeln!(out, "usage: \\limit <bytes>")?,
            },
            Some("cache") => match parts.next() {
                Some(word) => match word.parse::<usize>() {
                    Ok(capacity) => {
                        self.fed.portal.set_config(FederationConfig {
                            result_cache_capacity: capacity,
                            ..self.fed.portal.config()
                        });
                        if capacity == 0 {
                            writeln!(out, "result cache off")?;
                        } else {
                            writeln!(out, "result cache capacity set to {capacity} entries")?;
                        }
                    }
                    Err(_) => writeln!(out, "usage: \\cache [<capacity>]")?,
                },
                None => {
                    let config = self.fed.portal.config();
                    let (c, live) = self.fed.portal.cache_report();
                    writeln!(
                        out,
                        "result cache: capacity {} entries, ttl {:.0}s, {} live",
                        config.result_cache_capacity, config.result_cache_ttl_s, live
                    )?;
                    writeln!(
                        out,
                        "  hits {}  misses {}  repairs {}  evictions {}",
                        c.hits, c.misses, c.repairs, c.evictions
                    )?;
                }
            },
            Some("chunking") => match parts.next() {
                Some(word @ ("on" | "off")) => {
                    let enabled = word == "on";
                    self.fed.portal.set_config(FederationConfig {
                        chunking: enabled,
                        ..self.fed.portal.config()
                    });
                    writeln!(out, "chunking {word}")?;
                }
                _ => writeln!(out, "usage: \\chunking on|off")?,
            },
            Some("faults") => {
                let usage =
                    "usage: \\faults [down|step|500|truncate|garbage <archive> <n> | latency <archive> <s> | clear]";
                match parts.next() {
                    None => {
                        let m = self.fed.net.metrics();
                        writeln!(
                            out,
                            "fault injection {}",
                            if self.fed.net.has_faults() {
                                "armed"
                            } else {
                                "idle"
                            }
                        )?;
                        for ((from, to, kind), n) in m.faults() {
                            writeln!(out, "{from:<26} -> {to:<26} {kind:<16} x{n}")?;
                        }
                        let r = m.retry_total();
                        writeln!(
                            out,
                            "{} retries, {:.3}s simulated backoff",
                            r.retries, r.backoff_seconds
                        )?;
                        let unhealthy = self.fed.portal.unhealthy_hosts();
                        if !unhealthy.is_empty() {
                            writeln!(out, "unhealthy: {}", unhealthy.join(", "))?;
                        }
                    }
                    Some("clear") => {
                        self.faults = FaultPlan::new();
                        self.fed.net.clear_faults();
                        writeln!(out, "fault plan cleared")?;
                    }
                    Some(kind @ ("down" | "step" | "500" | "truncate" | "garbage" | "latency")) => {
                        let target = parts.next().map(|a| self.resolve_host(a));
                        let amount = parts.next().and_then(|v| v.parse::<f64>().ok());
                        match (target, amount) {
                            (Some(host), Some(x)) if x.is_finite() && x >= 0.0 => {
                                let plan = std::mem::take(&mut self.faults);
                                self.faults = match kind {
                                    "down" => plan.host_down_for(&host, x as u32),
                                    // Outage scoped to chain steps only: performance
                                    // queries and checkpoint fetches stay clean, so the
                                    // checkpointed driver's re-plan path is reachable.
                                    "step" => plan.rule(
                                        skyquery_net::FaultRule::new(
                                            skyquery_net::FaultKind::HostDown,
                                        )
                                        .host(&host)
                                        .action("ExecuteStep")
                                        .times(x as u32),
                                    ),
                                    "500" => plan.server_errors(&host, x as u32),
                                    "truncate" => plan.truncated_bodies(&host, x as u32),
                                    "garbage" => plan.garbage_bodies(&host, x as u32),
                                    _ => plan.added_latency(&host, x),
                                };
                                // Re-arming restarts every bounded rule's budget.
                                self.fed.net.install_faults(self.faults.clone());
                                writeln!(out, "armed: {kind} on {host}")?;
                            }
                            _ => writeln!(out, "{usage}")?,
                        }
                    }
                    Some(_) => writeln!(out, "{usage}")?,
                }
            }
            Some("chain") => match parts.next() {
                Some(word @ ("recursive" | "checkpointed")) => {
                    let mode = if word == "checkpointed" {
                        ChainMode::Checkpointed
                    } else {
                        ChainMode::Recursive
                    };
                    self.fed.portal.set_config(FederationConfig {
                        chain_mode: mode,
                        ..self.fed.portal.config()
                    });
                    writeln!(out, "chain driver: {word}")?;
                }
                _ => writeln!(out, "usage: \\chain recursive|checkpointed")?,
            },
            Some("health") => {
                if let Some("probe") = parts.next() {
                    let probed = self.fed.portal.probe_unhealthy_hosts();
                    if probed.is_empty() {
                        writeln!(out, "no unhealthy hosts to probe")?;
                    }
                    for (host, ok) in probed {
                        writeln!(
                            out,
                            "probe {host}: {}",
                            if ok { "ok -> probation" } else { "failed" }
                        )?;
                    }
                }
                let report = self.fed.portal.health_report();
                if report.is_empty() {
                    writeln!(out, "all hosts healthy")?;
                }
                for (host, h) in report {
                    let state = match h.state {
                        HostState::Unhealthy => "unhealthy",
                        HostState::Probation => "probation",
                    };
                    writeln!(out, "{host:<26} {state:<10} {} strikes", h.strikes)?;
                }
                // Replica roles: within each archive's shard group,
                // `shards_of` orders (extent, host) — the first member of
                // each extent run is the primary, the rest are replicas.
                let mut roles = std::collections::HashMap::new();
                for archive in self.fed.portal.archives() {
                    let mut prev: Option<skyquery_core::ZoneExtent> = None;
                    for shard in self.fed.portal.shards_of(&archive) {
                        let extent = shard.extent();
                        let role = if prev.as_ref() == Some(&extent) {
                            "replica"
                        } else {
                            "primary"
                        };
                        prev = Some(extent);
                        roles.insert(shard.url.host.clone(), role);
                    }
                }
                for node in &self.fed.nodes {
                    writeln!(
                        out,
                        "{:<26} {:<8} {} leases ({} transfers, {} checkpoints, {} txns) · {} steps executed",
                        node.url().host,
                        roles.get(&node.url().host).copied().unwrap_or("primary"),
                        node.active_leases(),
                        node.open_transfers().len(),
                        node.checkpoints().len(),
                        node.pending_exchange_txns().len(),
                        node.executed_steps()
                    )?;
                }
                let m = self.fed.net.metrics();
                writeln!(
                    out,
                    "{} replans · {} resumes · {} degraded continuations",
                    m.node_event_total("replan"),
                    m.node_event_total("resume"),
                    m.node_event_total("degraded")
                )?;
                writeln!(
                    out,
                    "{} failovers · {} hedged probes",
                    m.node_event_total("failover"),
                    m.node_event_total("hedge")
                )?;
            }
            Some("retry") => {
                let attempts = parts.next().and_then(|v| v.parse::<u32>().ok());
                let backoff = parts.next().and_then(|v| v.parse::<f64>().ok());
                match attempts {
                    Some(n) if n >= 1 => {
                        let mut cfg = self.fed.portal.config();
                        cfg.retry.max_attempts = n;
                        if let Some(b) = backoff {
                            if b.is_finite() && b >= 0.0 {
                                cfg.retry.backoff_base_s = b;
                            }
                        }
                        self.fed.portal.set_config(cfg);
                        writeln!(
                            out,
                            "retry policy: {} attempts, {}s base backoff",
                            cfg.retry.max_attempts, cfg.retry.backoff_base_s
                        )?;
                    }
                    _ => writeln!(out, "usage: \\retry <attempts> [backoff-seconds]")?,
                }
            }
            Some("transfer") => {
                // \transfer SRC DEST TABLE SELECT …
                let src = parts.next();
                let dest = parts.next();
                let table = parts.next();
                let sql: String = parts.collect::<Vec<_>>().join(" ");
                match (src, dest, table, sql.is_empty()) {
                    (Some(src), Some(dest), Some(table), false) => {
                        match self.fed.portal.transfer_table(src, &sql, dest, table) {
                            Ok(r) => writeln!(
                                out,
                                "txn {}: {} rows {} -> {} ({})",
                                r.txn_id, r.rows_copied, r.source, r.destination, r.dest_table
                            )?,
                            Err(e) => writeln!(out, "transfer failed: {e}")?,
                        }
                    }
                    _ => writeln!(out, "usage: \\transfer <src> <dest> <table> <select sql>")?,
                }
            }
            Some("submit") => {
                let sql: String = parts.collect::<Vec<_>>().join(" ");
                if sql.trim().is_empty() {
                    writeln!(out, "usage: \\submit <cross-match sql>")?;
                } else {
                    self.ensure_jobs();
                    let h = self.jobs.as_ref().expect("ensured");
                    match h.cli.submit("repl", &sql) {
                        Ok(id) => writeln!(
                            out,
                            "job {id} queued — \\jobs to list, \\jobs run to drive, \
                             \\jobs fetch {id} for rows"
                        )?,
                        Err(e) => writeln!(out, "error: {e}")?,
                    }
                }
            }
            Some("jobs") => {
                let usage = "usage: \\jobs [run | fetch <id> | cancel <id>]";
                self.ensure_jobs();
                match parts.next() {
                    None => {
                        let h = self.jobs.as_ref().expect("ensured");
                        let states = h.svc.job_states();
                        if states.is_empty() {
                            writeln!(out, "no jobs")?;
                        }
                        for (id, _) in &states {
                            match h.svc.poll(*id) {
                                Ok(st) => writeln!(
                                    out,
                                    "job {id:>4}  {:<10} wait {:>7.2}s  run {:>6.2}s{}{}",
                                    st.state.to_string(),
                                    st.wait_s,
                                    st.run_s,
                                    st.result_rows
                                        .map(|r| format!("  {r} rows"))
                                        .unwrap_or_default(),
                                    st.error.map(|e| format!("  {e}")).unwrap_or_default()
                                )?,
                                Err(e) => writeln!(out, "job {id:>4}  {e}")?,
                            }
                        }
                        writeln!(
                            out,
                            "{} queued · {} running",
                            h.svc.queued().len(),
                            h.svc.running().len()
                        )?;
                        let t = self.fed.net.metrics().job_total();
                        writeln!(
                            out,
                            "totals: {} submitted, {} rejected, {} succeeded, {} failed, \
                             {} cancelled, {} expired",
                            t.submitted, t.rejected, t.succeeded, t.failed, t.cancelled, t.expired
                        )?;
                    }
                    Some("run") => {
                        let h = self.jobs.as_ref().expect("ensured");
                        let quanta = h.svc.run_until_idle(1_000_000);
                        writeln!(
                            out,
                            "drove {quanta} scheduler quanta; {} jobs still queued",
                            h.svc.queued().len()
                        )?;
                    }
                    Some("fetch") => match parts.next().and_then(|v| v.parse::<u64>().ok()) {
                        Some(id) => {
                            let fetched = self.jobs.as_ref().expect("ensured").cli.fetch(id);
                            match fetched {
                                Ok(result) => {
                                    self.print_result(&result, out)?;
                                    writeln!(out, "{} rows", result.row_count())?;
                                    if result.degraded {
                                        writeln!(
                                            out,
                                            "partial result — dropped: {}",
                                            result.dropped_archives.join(", ")
                                        )?;
                                    }
                                }
                                Err(e) => writeln!(out, "error: {e}")?,
                            }
                        }
                        None => writeln!(out, "{usage}")?,
                    },
                    Some("cancel") => match parts.next().and_then(|v| v.parse::<u64>().ok()) {
                        Some(id) => {
                            let h = self.jobs.as_ref().expect("ensured");
                            match h.cli.cancel(id) {
                                Ok(true) => writeln!(out, "job {id} cancelled")?,
                                Ok(false) => writeln!(
                                    out,
                                    "job {id} was already finished (held resources freed)"
                                )?,
                                Err(e) => writeln!(out, "error: {e}")?,
                            }
                        }
                        None => writeln!(out, "{usage}")?,
                    },
                    Some(_) => writeln!(out, "{usage}")?,
                }
            }
            Some(other) => writeln!(out, "unknown meta-command \\{other} (try \\help)")?,
            None => {}
        }
        Ok(true)
    }
}

/// Meta-command reference shown by `\help`.
pub fn meta_help() -> &'static str {
    "meta-commands:
  \\archives                         list registered archives
  \\trace                            toggle execution-trace output
  \\rows <n>                         limit displayed rows
  \\explain <sql>                    show the federated plan without running it
  \\metrics                          per-link transmission of the last query
  \\ordering desc|asc|decl|random    plan ordering strategy
  \\limit <bytes>                    SOAP parser message limit
  \\cache [<capacity>]               result-cache counters / set capacity (0 = off)
  \\chunking on|off                  §6 chunked-transfer workaround
  \\faults [<kind> <archive> <n>]    inject network faults / show fault+retry tallies
                                    (kinds: down step 500 truncate garbage latency)
  \\retry <attempts> [backoff]       RPC retry policy (attempts, base backoff seconds)
  \\chain recursive|checkpointed     chain driver (daisy chain vs survivable resume)
  \\health [probe]                   host health, leases, replan/resume counters
  \\transfer <src> <dst> <tbl> <sql> transactional table copy (2PC)
  \\submit <sql>                     queue the query as an async job
  \\jobs [run|fetch <id>|cancel <id>] list jobs / drive the queue / get results
  \\help                             this text
  \\quit                             leave"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(&Options {
            bodies: 200,
            seed: 5,
            ..Options::default()
        })
    }

    fn drive(s: &mut Session, line: &str) -> (bool, String) {
        let mut buf = Vec::new();
        let more = s.handle_line(line, &mut buf).unwrap();
        (more, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn query_produces_table_and_stats() {
        let mut s = session();
        let (more, out) = drive(
            &mut s,
            "SELECT O.object_id, T.object_id FROM SDSS:Photo_Object O, \
             TWOMASS:Photo_Primary T WHERE XMATCH(O, T) < 3.5",
        );
        assert!(more);
        assert!(out.contains("O.object_id"));
        assert!(out.contains("bytes on the wire"));
    }

    #[test]
    fn bad_query_reports_error_not_panic() {
        let mut s = session();
        let (more, out) = drive(&mut s, "SELECT nonsense");
        assert!(more);
        assert!(out.starts_with("error:"));
    }

    #[test]
    fn meta_commands() {
        let mut s = session();
        let (_, out) = drive(&mut s, "\\archives");
        assert!(out.contains("SDSS") && out.contains("FIRST"));
        let (_, out) = drive(&mut s, "\\trace");
        assert!(out.contains("trace on"));
        let (_, out) = drive(&mut s, "\\rows 3");
        assert!(out.contains("up to 3"));
        let (_, out) = drive(&mut s, "\\ordering asc");
        assert!(out.contains("CountStarAscending"));
        let (_, out) = drive(&mut s, "\\limit 50000");
        assert!(out.contains("50000"));
        let (_, out) = drive(&mut s, "\\chunking off");
        assert!(out.contains("chunking off"));
        let (_, out) = drive(&mut s, "\\cache 8");
        assert!(out.contains("capacity set to 8 entries"));
        assert_eq!(s.fed.portal.config().result_cache_capacity, 8);
        let (_, out) = drive(&mut s, "\\cache");
        assert!(out.contains("capacity 8"));
        assert!(out.contains("hits 0"));
        let (_, out) = drive(&mut s, "\\cache 0");
        assert!(out.contains("result cache off"));
        let (_, out) = drive(&mut s, "\\cache lots");
        assert!(out.contains("usage: \\cache"));
        // `\\kernel` and `\\zonechunking` retired with their flags.
        for line in ["\\nonsense", "\\kernel htm", "\\zonechunking off"] {
            let (_, out) = drive(&mut s, line);
            assert!(out.contains("unknown meta-command"), "{line}");
        }
        let (more, _) = drive(&mut s, "\\quit");
        assert!(!more);
    }

    #[test]
    fn row_limit_applies() {
        let mut s = session();
        drive(&mut s, "\\rows 2");
        let (_, out) = drive(
            &mut s,
            "SELECT O.object_id, T.object_id FROM SDSS:Photo_Object O, \
             TWOMASS:Photo_Primary T WHERE XMATCH(O, T) < 3.5",
        );
        assert!(out.contains("more rows"), "{out}");
    }

    #[test]
    fn transfer_meta_command() {
        let mut s = session();
        let (_, out) = drive(
            &mut s,
            "\\transfer SDSS TWOMASS imported SELECT O.object_id FROM SDSS:Photo_Object O",
        );
        assert!(out.contains("rows SDSS -> TWOMASS"), "{out}");
        let (_, out) = drive(&mut s, "\\transfer nope");
        assert!(out.contains("usage"));
    }

    #[test]
    fn faults_meta_command_arms_and_recovers() {
        let mut s = session();
        let (_, out) = drive(&mut s, "\\faults");
        assert!(out.contains("fault injection idle"), "{out}");
        let (_, out) = drive(&mut s, "\\retry 4 0.01");
        assert!(out.contains("4 attempts"), "{out}");
        // Knock TWOMASS down for 2 requests; retries ride over it.
        let (_, out) = drive(&mut s, "\\faults down TWOMASS 2");
        assert!(out.contains("armed: down on twomass.skyquery.net"), "{out}");
        let (ok, out) = drive(
            &mut s,
            "SELECT O.object_id, T.object_id FROM SDSS:Photo_Object O, \
             TWOMASS:Photo_Primary T WHERE XMATCH(O, T) < 3.5",
        );
        assert!(ok, "query should recover through retries: {out}");
        let (_, out) = drive(&mut s, "\\faults");
        assert!(out.contains("host-down"), "{out}");
        assert!(out.contains("2 retries"), "{out}");
        let (_, out) = drive(&mut s, "\\faults clear");
        assert!(out.contains("cleared"));
        let (_, out) = drive(&mut s, "\\faults wat");
        assert!(out.contains("usage"), "{out}");
        let (_, out) = drive(&mut s, "\\retry zero");
        assert!(out.contains("usage"), "{out}");
    }

    #[test]
    fn chain_meta_command_switches_driver() {
        let mut s = session();
        assert_eq!(s.fed.portal.config().chain_mode, ChainMode::Recursive);
        let (_, out) = drive(&mut s, "\\chain checkpointed");
        assert!(out.contains("chain driver: checkpointed"), "{out}");
        assert_eq!(s.fed.portal.config().chain_mode, ChainMode::Checkpointed);
        let (ok, out) = drive(
            &mut s,
            "SELECT O.object_id, T.object_id FROM SDSS:Photo_Object O, \
             TWOMASS:Photo_Primary T WHERE XMATCH(O, T) < 3.5",
        );
        assert!(ok, "checkpointed chain runs from the REPL: {out}");
        let (_, out) = drive(&mut s, "\\chain sideways");
        assert!(out.contains("usage: \\chain"), "{out}");
    }

    #[test]
    fn health_meta_command_reports_state() {
        let mut s = session();
        let (_, out) = drive(&mut s, "\\health");
        assert!(out.contains("all hosts healthy"), "{out}");
        assert!(out.contains("sdss.skyquery.net"), "{out}");
        assert!(out.contains("replans"), "{out}");
        // Exhaust retries against TWOMASS so the portal marks it unhealthy,
        // then probe it back to probation once the outage clears.
        drive(&mut s, "\\retry 2 0.0");
        drive(&mut s, "\\faults down TWOMASS 9");
        let (_, out) = drive(
            &mut s,
            "SELECT O.object_id, T.object_id FROM SDSS:Photo_Object O, \
             TWOMASS:Photo_Primary T WHERE XMATCH(O, T) < 3.5",
        );
        assert!(
            out.starts_with("error:"),
            "outage outlasts the retry budget: {out}"
        );
        let (_, out) = drive(&mut s, "\\health");
        assert!(out.contains("unhealthy"), "{out}");
        drive(&mut s, "\\faults clear");
        let (_, out) = drive(&mut s, "\\health probe");
        assert!(out.contains("ok -> probation"), "{out}");
        assert!(out.contains("probation"), "{out}");
    }

    #[test]
    fn step_fault_drives_replan_and_resume() {
        let mut s = session();
        drive(&mut s, "\\chain checkpointed");
        // Down for exactly the retry budget, scoped to ExecuteStep: the
        // portal re-plans around TWOMASS and resumes from the checkpoint.
        let (_, out) = drive(&mut s, "\\faults step TWOMASS 3");
        assert!(out.contains("armed: step on twomass.skyquery.net"), "{out}");
        let (_, out) = drive(
            &mut s,
            "SELECT O.object_id, T.object_id, P.object_id \
             FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
             WHERE XMATCH(O, T, P) < 3.5",
        );
        assert!(out.contains("bytes on the wire"), "query recovers: {out}");
        let (_, out) = drive(&mut s, "\\health");
        assert!(out.contains("1 replans"), "{out}");
        assert!(out.contains("1 resumes"), "{out}");
    }

    #[test]
    fn trace_toggle_shows_steps() {
        let mut s = session();
        drive(&mut s, "\\trace");
        let (_, out) = drive(
            &mut s,
            "SELECT O.object_id, T.object_id FROM SDSS:Photo_Object O, \
             TWOMASS:Photo_Primary T WHERE XMATCH(O, T) < 3.5",
        );
        assert!(out.contains("cross match step"), "{out}");
    }

    #[test]
    fn jobs_meta_commands() {
        let mut s = session();
        assert!(s.jobs.is_none(), "the job service starts lazily");
        let (_, out) = drive(&mut s, "\\submit");
        assert!(out.contains("usage: \\submit"), "{out}");
        let (_, out) = drive(
            &mut s,
            "\\submit SELECT O.object_id, T.object_id FROM SDSS:Photo_Object O, \
             TWOMASS:Photo_Primary T WHERE XMATCH(O, T) < 3.5 \
             ORDER BY O.object_id, T.object_id",
        );
        assert!(out.contains("job 1 queued"), "{out}");
        let (_, out) = drive(&mut s, "\\jobs");
        assert!(out.contains("1 queued · 0 running"), "{out}");
        assert!(out.contains("1 submitted"), "{out}");
        let (_, out) = drive(&mut s, "\\jobs run");
        assert!(out.contains("scheduler quanta"), "{out}");
        assert!(out.contains("0 jobs still queued"), "{out}");
        let (_, out) = drive(&mut s, "\\jobs");
        assert!(out.contains("succeeded"), "{out}");
        let (_, out) = drive(&mut s, "\\jobs fetch 1");
        assert!(out.contains("O.object_id"), "{out}");
        assert!(out.contains("rows"), "{out}");
        let (_, out) = drive(&mut s, "\\jobs cancel 1");
        assert!(out.contains("already finished"), "{out}");
        let (_, out) = drive(&mut s, "\\jobs wat");
        assert!(out.contains("usage: \\jobs"), "{out}");
        let (_, out) = drive(&mut s, "\\jobs fetch");
        assert!(out.contains("usage: \\jobs"), "{out}");
    }

    #[test]
    fn jobs_flag_pre_arms_the_service() {
        let s = Session::new(&Options {
            bodies: 200,
            seed: 5,
            jobs: true,
            ..Options::default()
        });
        assert!(s.jobs.is_some());
    }
}
