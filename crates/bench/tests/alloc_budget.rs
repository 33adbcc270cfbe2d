//! Allocation budget: how many allocation calls, how many requested
//! bytes, and how many bytes left held one submission costs in five fixed
//! scenarios — counted by [`Counting`] installed as this binary's global
//! allocator.
//!
//! Each scenario runs one warm-up submission and then counts two more;
//! the two must be equal (the count is a pure function of the scenario)
//! and equal to the pins below. The warm-up leaves the Portal holding its
//! count answers, so a counted submission asks only the count-stars of
//! tables that grew since (the repair scenario's two). The pins are exact: a change that
//! lowers one re-pins it, a change that raises one has to say why. The
//! job answered from the cache is the control, which the node's step
//! path never reaches; the bytes it leaves held are what a finished job
//! keeps under its leases (its record, frozen trace and result). A plain
//! submission leaves nothing held. A repair leaves the columnar snapshots
//! its two grown tables rebuild on their first read after the insert
//! dropped them (all but about 550 bytes of its pin), and its repaired
//! cache entry. One test in this binary, so nothing else in the process
//! allocates while a span is counted.

use skyquery_bench::alloc::{count, Counting, Counts};
use skyquery_core::{ChainMode, FederationConfig};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig};
use skyquery_sim::{paper_query, xmatch_query, CatalogParams, FederationBuilder, SurveyParams};
use skyquery_storage::Value;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `prepare` then `submit` on what it prepared three times and
/// returns the counts of the last two `submit`s; the first is the
/// warm-up. `prepare` is not counted.
fn measure<S>(mut prepare: impl FnMut() -> S, mut submit: impl FnMut(&S)) -> [Counts; 2] {
    submit(&prepare());
    [(), ()].map(|()| {
        let state = prepare();
        count(|| submit(&state)).1
    })
}

fn recursive() -> FederationConfig {
    FederationConfig {
        chain_mode: ChainMode::Recursive,
        ..FederationConfig::default()
    }
}

fn cached() -> FederationConfig {
    FederationConfig {
        result_cache_capacity: 4,
        result_cache_ttl_s: 600.0,
        ..recursive()
    }
}

/// The paper query over `paper_triple(1200)`, on the recursive chain.
fn triple() -> [Counts; 2] {
    let fed = FederationBuilder::paper_triple(1200)
        .config(recursive())
        .build();
    let sql = paper_query();
    measure(|| (), |()| drop(fed.portal.submit(&sql).unwrap()))
}

/// The wire transcripts' dense pair: 3 000 bodies in a 20′ cone under an
/// 8 000-byte message limit, so every step reply travels chunked.
fn dense_pair() -> [Counts; 2] {
    let fed = FederationBuilder::new()
        .catalog(CatalogParams {
            count: 3000,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .config(FederationConfig {
            max_message_bytes: 8_000,
            ..FederationConfig::default()
        })
        .build();
    let sql = xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
        ],
        3.5,
        Some((185.0, -0.5, 20.0)),
    );
    measure(|| (), |()| drop(fed.portal.submit(&sql).unwrap()))
}

/// The paper query over `paper_triple(1200)` in four shards.
fn scatter() -> [Counts; 2] {
    let fed = FederationBuilder::paper_triple(1200).shards(4).build();
    let sql = paper_query();
    measure(|| (), |()| drop(fed.portal.submit(&sql).unwrap()))
}

/// A cached paper query over `paper_triple(300)`, repaired after one
/// insert each into SDSS and TWOMASS. Every repair runs on a federation
/// of its own, built, cached and grown the same way, so each does the
/// same work.
fn repair() -> [Counts; 2] {
    let sql = paper_query();
    let grown = || {
        let fed = FederationBuilder::paper_triple(300)
            .config(cached())
            .build();
        fed.portal.submit(&sql).unwrap();
        for (archive, id) in [("SDSS", 990_001), ("TWOMASS", 990_002)] {
            let node = fed.node(archive).expect("archive registered");
            let table = node.info().primary_table.clone();
            let row = vec![
                Value::Id(id),
                Value::Float(185.02),
                Value::Float(-0.48),
                Value::Text("GALAXY".into()),
                Value::Float(1.0),
            ];
            node.with_db(|db| db.insert(&table, row).unwrap());
            fed.portal.refresh_table_versions(archive).unwrap();
        }
        fed
    };
    measure(grown, |fed| {
        let (_, trace) = fed.portal.submit(&sql).unwrap();
        assert!(trace.events().iter().any(|e| e.action == "cache repair"));
    })
}

/// The control: a job over `paper_triple(300)` answered from the result
/// cache, submitted, pumped and fetched through the job service. Between
/// jobs the clock passes the job leases' TTL and the service sweeps, so
/// every job starts from a service holding no other.
fn job_from_cache() -> [Counts; 2] {
    let fed = FederationBuilder::paper_triple(300)
        .config(cached())
        .build();
    let ttl_s = 60.0;
    let svc = JobService::start(
        &fed.net,
        "jobs.skyquery.net",
        fed.portal.clone(),
        JobServiceConfig {
            result_ttl_s: ttl_s,
            record_ttl_s: ttl_s,
            ..JobServiceConfig::default()
        },
    );
    let cli = JobClient::new(&fed.net, "web", svc.url());
    let sql = paper_query();
    let reclaim = || {
        fed.net.advance_clock(ttl_s + 1.0);
        svc.sweep_leases();
        assert!(svc.job_states().is_empty());
    };
    let job = |()| {
        let id = cli.submit("t", &sql).unwrap();
        svc.run_until_idle(100_000);
        cli.fetch(id).unwrap();
    };
    job(());
    let counts = measure(reclaim, |()| job(()));
    assert_eq!(
        fed.portal.cache_report().0.hits,
        3,
        "answered from the cache"
    );
    counts
}

#[test]
fn allocations_per_submission_are_pinned() {
    let got = [
        ("triple", triple()),
        ("dense pair", dense_pair()),
        ("scatter", scatter()),
        ("repair", repair()),
        ("job from cache", job_from_cache()),
    ];
    for (name, [a, b]) in &got {
        eprintln!(
            "{name}: {} calls, {} bytes, {} bytes left held",
            a.calls, a.bytes, a.live
        );
        assert_eq!(a, b, "{name}: two counted submissions differ");
    }
    let got: Vec<_> = got
        .iter()
        .map(|(name, [a, _])| (*name, a.calls, a.bytes, a.live))
        .collect();
    let pins = [
        ("triple", 4_384, 572_898, 0),
        ("dense pair", 5_969, 923_969, 0),
        ("scatter", 8_962, 1_210_225, 0),
        ("repair", 3_371, 397_218, 54_188),
        ("job from cache", 1_017, 69_042, 3_027),
    ];
    assert_eq!(got, pins);
}
