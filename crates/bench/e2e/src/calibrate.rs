//! `--all` and `--calibrate`: runs of every workload, one process each
//! (peak memory and CPU are per process), and the table that shows the
//! benchmark repeats within its own bounds.

use std::process::{Command, ExitCode, Stdio};

use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads::{Kind, ALL};

/// Runs this binary on one workload and returns its standard output.
fn child(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.spec().name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(text)
    } else {
        Err(format!(
            "run of {} failed ({}):\n{text}",
            kind.spec().name,
            out.status
        ))
    }
}

/// The value of one metric in a result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn result_line(output: &str) -> &str {
    output.lines().last().unwrap_or_default()
}

/// Every workload, untraced then traced, reports as the runs print them.
pub fn all(seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    for kind in ALL {
        for traced in [false, true] {
            match child(kind, seed, seconds, traced) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    println!("{e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two interleaved sets (A B A B …) of `k` runs of every workload, run `i`
/// of either set on seed `seed + i`, as the driver measures a parent and a
/// change. Prints, per metric, the two medians, how far the second is
/// worse than the first, each set's quartile spread, and the bound; fails
/// when a difference exceeds half its bound or a spread its bound.
pub fn calibrate(k: usize, seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for kind in ALL {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for i in 0..k {
            for set in &mut sets {
                match child(kind, seed + i as u64, seconds, false) {
                    Ok(text) => set.push(result_line(&text).to_string()),
                    Err(e) => {
                        println!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for m in &END_TO_END {
            let column = |set: &[String]| -> Vec<f64> {
                set.iter()
                    .map(|line| value_of(line, m.name).expect("every run prints every metric"))
                    .collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = if m.better == "lower" {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let (sa, sb) = (stats::iqr_share(&a), stats::iqr_share(&b));
            // The driver holds every spread but set-up's to the bound.
            let spread_ok = m.name == "setup_s" || sa.max(sb) <= m.bound;
            let verdict = if worse > m.bound / 2.0 || !spread_ok {
                ok = false;
                "FAIL"
            } else if sa.max(sb) > m.bound / 3.0 && m.name != "setup_s" {
                "wide"
            } else {
                "ok"
            };
            println!(
                "| {} | {} | {ma:.6} | {mb:.6} | {:+.2} % | {:.2} % | {:.2} % | {:.1} % | {verdict} |",
                kind.spec().name,
                m.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_read_back_from_a_result_line() {
        let line =
            crate::metrics::result_line(true, 5, 0, &[("op_p50_ms", 1.2034), ("setup_s", 0.8127)]);
        assert_eq!(value_of(&line, "op_p50_ms"), Some(1.2034));
        assert_eq!(value_of(&line, "setup_s"), Some(0.8127));
        assert_eq!(value_of(&line, "op_tail_ms"), None);
        assert_eq!(result_line("a\nb\nlast"), "last");
    }
}
