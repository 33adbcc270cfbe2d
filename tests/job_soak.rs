//! Multi-tenant soak for the job service: hundreds of simulated clients
//! with skewed per-tenant load, mixed priorities and quota classes, over
//! a faulty network — submitted in bursts while the scheduler pumps.
//!
//! The invariants under test:
//!
//! * every accepted job reaches a terminal state — nothing wedges, even
//!   with step outages injected mid-chain and owners cancelling jobs at
//!   random;
//! * admission stays fair: among tenants that experienced sustained
//!   contention, no one is starved, and the spread of weight-normalized
//!   contended-win shares is bounded;
//! * the books balance: accepted = succeeded + failed + cancelled +
//!   expired, with rejections tallied separately;
//! * after the storm, every lease in the system — job records, held
//!   results, pagination sessions, node transfers, exchange
//!   transactions — drains back to zero.
//!
//! Extra schedules via `SKYQUERY_SOAK_SEEDS=1,2,3` (comma-separated); a
//! no-op when unset, so CI can widen the sweep without a code change.

use skyquery_core::{ChainMode, FederationConfig, FederationError};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig, QuotaClass};
use skyquery_net::{FaultKind, FaultPlan, FaultRule};
use skyquery_sim::FederationBuilder;

const HOSTS: [&str; 3] = [
    "sdss.skyquery.net",
    "twomass.skyquery.net",
    "first.skyquery.net",
];

/// Ten tenants with skewed submission frequency (earlier tenants submit
/// more) and mixed quota classes.
const TENANTS: [(&str, QuotaClass, u64); 10] = [
    ("argus", QuotaClass::Premium, 8),
    ("brahe", QuotaClass::Standard, 6),
    ("cassini", QuotaClass::Standard, 5),
    ("draper", QuotaClass::Free, 4),
    ("eddington", QuotaClass::Premium, 3),
    ("flamsteed", QuotaClass::Free, 3),
    ("galle", QuotaClass::Standard, 2),
    ("halley", QuotaClass::Free, 2),
    ("ixion", QuotaClass::Standard, 1),
    ("janssen", QuotaClass::Free, 1),
];

/// Query templates: different radii and orders, all fully ordered so
/// results are deterministic.
const QUERIES: [&str; 4] = [
    "SELECT O.object_id, T.object_id, P.object_id \
     FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
     WHERE XMATCH(O, T, P) < 3.5 \
     ORDER BY O.object_id, T.object_id, P.object_id",
    "SELECT O.object_id, T.object_id, P.object_id \
     FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
     WHERE XMATCH(O, T, P) < 2.0 \
     ORDER BY O.object_id, T.object_id, P.object_id",
    "SELECT O.object_id, T.object_id \
     FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T \
     WHERE XMATCH(O, T) < 3.0 \
     ORDER BY O.object_id, T.object_id",
    "SELECT T.object_id, P.object_id \
     FROM TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
     WHERE XMATCH(T, P) < 4.0 \
     ORDER BY T.object_id, P.object_id",
];

fn step_outage(host: &str, times: u32) -> FaultPlan {
    FaultPlan::new().rule(
        FaultRule::new(FaultKind::HostDown)
            .host(host)
            .action("ScatterStep")
            .times(times),
    )
}

fn soak(seed: u64) {
    let fed = FederationBuilder::paper_triple(120).build();
    fed.portal.set_config(FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..fed.portal.config()
    });
    let config = JobServiceConfig {
        max_running: 3,
        tenant_max_running: 2,
        tenant_max_queued: 24,
        max_queued: 160,
        // Short result TTL so early winners' unfetched results expire
        // *during* the soak, exercising the Succeeded → Expired decay
        // under load.
        result_ttl_s: 6.0,
        record_ttl_s: 10_000.0,
    };
    let svc = JobService::start(&fed.net, "jobs.skyquery.net", fed.portal.clone(), config);
    let cli = JobClient::new(&fed.net, "soak-driver", svc.url());

    // xorshift64* — a deterministic schedule without a rand dep.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };

    // Skewed client population: each tenant appears in the draw pool in
    // proportion to its submission frequency.
    let pool: Vec<usize> = TENANTS
        .iter()
        .enumerate()
        .flat_map(|(i, (_, _, freq))| std::iter::repeat_n(i, *freq as usize))
        .collect();

    let target_jobs = 520usize;
    let mut accepted: Vec<u64> = Vec::new();
    let mut rejected = 0u64;
    let mut cancel_attempts = 0u64;
    let mut submitted = 0usize;
    while submitted < target_jobs {
        // A burst of submissions from random tenants.
        let burst = 4 + (next() % 8) as usize;
        for _ in 0..burst.min(target_jobs - submitted) {
            let (tenant, class, _) = TENANTS[pool[(next() % pool.len() as u64) as usize]];
            let sql = QUERIES[(next() % QUERIES.len() as u64) as usize];
            let priority = (next() % 11) as i64 - 5;
            match cli.submit_with(tenant, sql, priority, class, None) {
                Ok((id, _)) => accepted.push(id),
                Err(FederationError::Fault(f)) => {
                    assert_eq!(f.code, "Client", "rejection must be a Client fault");
                    rejected += 1;
                }
                Err(other) => panic!("seed {seed:#x}: unexpected submit error {other}"),
            }
            submitted += 1;
        }
        // Occasionally a tenant cancels one of its jobs, whatever state
        // it is in.
        if next() % 4 == 0 && !accepted.is_empty() {
            let id = accepted[(next() % accepted.len() as u64) as usize];
            cancel_attempts += 1;
            // Both answers are legal (the job may already be terminal);
            // the call must never error while the record lease lives.
            let _ = cli.cancel(id).unwrap();
        }
        // Fresh trouble: a step outage at a random archive — usually
        // shallow enough for retries and re-planning to ride out,
        // occasionally deep enough to exhaust a job's recovery budget.
        if next() % 3 == 0 {
            let host = HOSTS[(next() % HOSTS.len() as u64) as usize];
            fed.net
                .install_faults(step_outage(host, (next() % 24) as u32));
        }
        // Let the scheduler work through part of the backlog while the
        // clock moves — waits accumulate, early results expire.
        fed.net.advance_clock(0.5);
        for _ in 0..9 + (next() % 6) {
            svc.pump();
        }
    }

    // Storm over: clear the fault schedule and drain the backlog.
    fed.net.install_faults(FaultPlan::new());
    let quanta = svc.run_until_idle(1_000_000);
    assert!(
        quanta < 1_000_000,
        "seed {seed:#x}: scheduler failed to quiesce"
    );

    // Every accepted job reached a terminal state.
    assert!(
        accepted.len() >= 300,
        "seed {seed:#x}: too few accepted jobs"
    );
    for (id, job_state) in svc.job_states() {
        assert!(
            job_state.is_terminal(),
            "seed {seed:#x}: job {id} wedged in {job_state}"
        );
    }
    let m = fed.net.metrics();
    let totals = m.job_total();
    assert_eq!(totals.submitted, accepted.len() as u64, "seed {seed:#x}");
    assert_eq!(totals.rejected, rejected, "seed {seed:#x}");
    assert_eq!(
        totals.terminal(),
        accepted.len() as u64,
        "seed {seed:#x}: accepted jobs must balance terminal outcomes \
         ({} succeeded, {} failed, {} cancelled, {} expired)",
        totals.succeeded,
        totals.failed,
        totals.cancelled,
        totals.expired
    );
    assert!(
        totals.succeeded > 0,
        "seed {seed:#x}: nothing ever succeeded"
    );
    let _ = cancel_attempts;

    // Fairness: among tenants that saw sustained contention, nobody was
    // starved, and weight-normalized contended-win shares stay within a
    // bounded spread.
    let mut normalized: Vec<(String, f64)> = Vec::new();
    for (tenant, class, _) in TENANTS {
        let s = m.job_stats(tenant);
        if s.contended_rounds >= 30 {
            assert!(
                s.admitted_contended > 0,
                "seed {seed:#x}: {tenant} lost all {} contended rounds",
                s.contended_rounds
            );
            let share = s.contended_share().unwrap();
            normalized.push((tenant.to_string(), share / class.weight()));
        }
    }
    assert!(
        normalized.len() >= 2,
        "seed {seed:#x}: the soak never produced sustained contention"
    );
    let max = normalized.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    let min = normalized.iter().map(|(_, v)| *v).fold(f64::MAX, f64::min);
    assert!(
        max / min <= 10.0,
        "seed {seed:#x}: weight-normalized contended shares spread too far: {normalized:?}"
    );

    // Drain: fetch a few surviving results, then let every TTL lapse.
    let mut fetched = 0;
    for (id, job_state) in svc.job_states() {
        if job_state == skyquery_jobs::JobState::Succeeded && fetched < 5 {
            cli.fetch(id).unwrap();
            fetched += 1;
        }
    }
    fed.net
        .advance_clock(config.result_ttl_s + config.record_ttl_s + 1.0);
    svc.sweep_leases();
    assert_eq!(
        svc.active_leases(),
        0,
        "seed {seed:#x}: job service leaked leases"
    );
    assert!(
        svc.job_states().is_empty(),
        "seed {seed:#x}: job records survived their TTL"
    );
    fed.net.advance_clock(fed.portal.config().lease_ttl_s + 1.0);
    for node in &fed.nodes {
        node.sweep_leases(&fed.net);
        let name = &node.info().name;
        assert!(
            node.open_transfers().is_empty(),
            "seed {seed:#x}: {name} leaked transfers"
        );
        assert!(
            node.pending_exchange_txns().is_empty(),
            "seed {seed:#x}: {name} leaked exchange txns"
        );
        assert_eq!(
            node.active_leases(),
            0,
            "seed {seed:#x}: {name} holds leases"
        );
    }
}

#[test]
fn multi_tenant_soak_seed_a() {
    soak(0x0000_0B5E_55ED_5EED);
}

#[test]
fn multi_tenant_soak_seed_b() {
    soak(0x0000_007E_4A47_BEEF);
}

/// Extra schedules via `SKYQUERY_SOAK_SEEDS=1,2,3`.
#[test]
fn multi_tenant_soak_env_seeds() {
    let Ok(seeds) = std::env::var("SKYQUERY_SOAK_SEEDS") else {
        return;
    };
    for s in seeds.split(',').filter(|s| !s.trim().is_empty()) {
        let seed: u64 = s
            .trim()
            .parse()
            .expect("SKYQUERY_SOAK_SEEDS entries are u64");
        soak(seed);
    }
}
