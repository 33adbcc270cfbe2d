//! The repository's end-to-end benchmark: four class-structured workloads
//! against whole federations, round-median statistics, and a layer trace
//! taken from outside the program. See `README.md` in the package directory.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! e2e --all [--seed <n>] [--seconds <s>]                         every workload, untraced then traced
//! e2e --calibrate <k> [--seed <n>] [--seconds <s>]               two interleaved sets of k runs each
//! e2e --smoke                                                    tenth-size lists, all assertions, no timing claims (< 5 s)
//! e2e --manifest                                                 the text of BENCHMARK.json
//! ```

mod calibrate;
mod layers;
mod metrics;
mod procfs;
mod rng;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::{Options, Outcome};
use workloads::Kind;

/// The command line, as far as it is shared between the modes.
struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<String>,
    traced: bool,
    mode: Mode,
}

enum Mode {
    One,
    All,
    Calibrate(usize),
    Smoke,
    Manifest,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        workload: None,
        traced: false,
        mode: Mode::One,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                out.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--all" => out.mode = Mode::All,
            "--smoke" => out.mode = Mode::Smoke,
            "--manifest" => out.mode = Mode::Manifest,
            "--calibrate" => {
                let k: usize = value("a run count")?
                    .parse()
                    .map_err(|e| format!("--calibrate: {e}"))?;
                if k < 2 {
                    return Err("--calibrate needs at least 2 runs a set".into());
                }
                out.mode = Mode::Calibrate(k);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !matches!(args.mode, Mode::Smoke | Mode::Manifest) {
        eprintln!("e2e: timing needs a release build (`cargo run --release`); only --smoke and --manifest run under debug assertions");
        return ExitCode::from(2);
    }
    match args.mode {
        Mode::Manifest => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Mode::Smoke => smoke(args.seed),
        Mode::One => {
            let Some(kind) = args.workload.as_deref().and_then(Kind::from_name) else {
                eprintln!(
                    "e2e: --workload must be one of {}",
                    workloads::ALL.map(|k| k.spec().name).join(", ")
                );
                return ExitCode::from(2);
            };
            let outcome = run::run(&Options {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                smoke: false,
                traced: args.traced,
            });
            report(kind, args.seed, args.traced, &outcome);
            println!("{}", result_line(args.traced, &outcome));
            exit_for(&outcome)
        }
        Mode::All => calibrate::all(args.seed, args.seconds),
        Mode::Calibrate(k) => calibrate::calibrate(k, args.seed, args.seconds),
    }
}

fn exit_for(outcome: &Outcome) -> ExitCode {
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A tenth-size list per workload with every self-check and the oracle on:
/// the traced run, which times an untraced round before its traced one and
/// so walks every path of both kinds of run. No number it prints is a claim.
fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for kind in workloads::ALL {
        let outcome = run::run(&Options {
            kind,
            seed,
            seconds: 1.0,
            smoke: true,
            traced: true,
        });
        // Both result lines must format: every value finite and named.
        for traced in [false, true] {
            result_line(traced, &outcome);
        }
        println!(
            "smoke {:<17}: {} ops, {} failed{}",
            kind.spec().name,
            outcome.attempted,
            outcome.failed,
            if outcome.correct() {
                ""
            } else {
                "  <-- FAILED"
            }
        );
        for p in &outcome.problems {
            println!("  {p}");
        }
        ok &= outcome.correct();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    let ops = o.timed_ops as f64;
    vec![
        ("op_p50_ms", o.op_p50_ms),
        ("op_tail_ms", o.op_tail_ms),
        ("throughput_ops_s", o.throughput_ops_s),
        ("cpu_s_per_op", o.cpu_s_per_op),
        ("wire_bytes_per_op", o.wire.bytes / ops),
        ("wire_msgs_per_op", o.wire.messages / ops),
        ("sim_link_s_per_op", o.wire.sim_s / ops),
        ("peak_rss_mb", o.peak_rss_mb),
        ("setup_s", o.setup_s),
    ]
}

/// The metrics a run of this kind reports.
fn values(traced: bool, o: &Outcome) -> Vec<(&'static str, f64)> {
    if traced {
        o.layers.clone()
    } else {
        end_to_end(o)
    }
}

fn result_line(traced: bool, o: &Outcome) -> String {
    metrics::result_line(o.correct(), o.attempted, o.failed, &values(traced, o))
}

/// The human-readable part: everything by name with its unit.
fn report(kind: Kind, seed: u64, traced: bool, o: &Outcome) {
    let spec = kind.spec();
    println!(
        "workload {}  seed {seed}  trace {}  nproc {}  {}",
        spec.name,
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, usize::from),
        rustc_version(),
    );
    println!(
        "  ops attempted {}  failed {}  rounds {}  samples/round {}  cold starts {}",
        o.attempted,
        o.failed,
        o.rounds.len(),
        o.samples_per_round,
        o.setup_reps
    );
    println!(
        "  classes: body {:.1} % of ops, median {:.3} ms; tail median {:.3} ms",
        o.shares.body_share * 100.0,
        o.shares.body_median_ms,
        o.shares.tail_median_ms
    );
    let per_round = |f: fn(&stats::RoundStats) -> f64| {
        let values: Vec<String> = o.rounds.iter().map(|r| format!("{:.3}", f(r))).collect();
        values.join(" ")
    };
    println!("  round p50 ms: {}", per_round(|r| r.p50_ms));
    println!("  round p90 ms: {}", per_round(|r| r.p90_ms));
    println!("  round ops/s:  {}", per_round(|r| r.ops_per_s));
    for (name, value) in values(traced, o) {
        println!("  {name:<30} {value:>16.6} {}", metrics::unit_of(name));
    }
    for p in &o.problems {
        println!("  PROBLEM {p}");
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "rustc unknown".into(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload dense-pair --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("dense-pair"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 15.0, true));
        assert!(matches!(a.mode, Mode::One));
        assert!(matches!(
            args("--calibrate 5").unwrap().mode,
            Mode::Calibrate(5)
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--calibrate 1",
            "--wat",
            "--seed",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// Every workload end to end at smoke size, with the trace attached:
    /// cold start, warm pass, an untraced and a traced round, the oracle
    /// and the self-checks; every per-layer metric must come out. One
    /// workload also runs untraced, for the end-to-end result line.
    #[test]
    fn smoke_runs_are_correct_on_every_workload() {
        let smoke = |kind, traced| {
            let o = run::run(&Options {
                kind,
                seed: 3,
                seconds: 1.0,
                smoke: true,
                traced,
            });
            assert!(o.correct(), "{}: {:?}", kind.spec().name, o.problems);
            assert!(o.attempted >= 10);
            assert!(result_line(traced, &o).starts_with("{\"correct\": true"));
            o
        };
        for kind in workloads::ALL {
            assert_eq!(smoke(kind, true).layers.len(), metrics::PER_LAYER.len());
        }
        let o = smoke(Kind::TripleSmall, false);
        assert!(o.layers.is_empty());
        assert!(end_to_end(&o).iter().all(|(_, v)| *v > 0.0));
    }
}
