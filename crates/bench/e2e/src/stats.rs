//! Percentiles, round-median statistics and the class check (rules R2, R3).

/// The cost class of an op. Every workload mixes a *body* class holding
/// 75–80 % of its ops with a dearer *tail* class, so the median sits inside
/// the body and p90 inside the tail, away from the boundary between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Body,
    Tail,
}

/// One timed op of a round.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub class: Class,
}

/// Nearest-rank index of percentile `p` in `n` sorted samples: the smallest
/// index with at least `p·n` samples at or below it. For p90 of 100 samples
/// that is index 89, which leaves ten samples beyond it.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of unsorted values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method):
/// the three cut points the driver's spread check is computed from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against each metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q[2] - q[0]) / q[1]
}

/// What one round of the timed phase reports.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub ops_per_s: f64,
    /// Classes of the samples that sit at the p50 and p90 ranks.
    pub p50_class: Class,
    pub p90_class: Class,
}

pub fn round_stats(samples: &[Sample], wall_s: f64) -> RoundStats {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let at = |p: f64| sorted[rank(sorted.len(), p)];
    RoundStats {
        p50_ms: at(0.50).ms,
        p90_ms: at(0.90).ms,
        ops_per_s: samples.len() as f64 / wall_s,
        p50_class: at(0.50).class,
        p90_class: at(0.90).class,
    }
}

/// The share and the median latency of each class over all timed samples.
#[derive(Debug, Clone, Copy)]
pub struct ClassShares {
    pub body_share: f64,
    pub body_median_ms: f64,
    pub tail_median_ms: f64,
}

pub fn class_shares(samples: &[Sample]) -> ClassShares {
    let of = |c: Class| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.ms)
            .collect()
    };
    let (body, tail) = (of(Class::Body), of(Class::Tail));
    assert!(
        !body.is_empty() && !tail.is_empty(),
        "a workload needs ops in both classes"
    );
    ClassShares {
        body_share: body.len() as f64 / samples.len() as f64,
        body_median_ms: median(&body),
        tail_median_ms: median(&tail),
    }
}

/// R2: the body class holds 75–80 % of the ops, and in most rounds the
/// sample at the p50 rank is a body op and the one at the p90 rank a tail
/// op. One preempted op may flip a single round; it may not flip the run,
/// whose reported value is the median over rounds.
///
/// `slack` widens the share's range on both sides, for a workload whose
/// classes the system decides (cache hits against misses): its share is
/// tuned into the range but moves a little with the order of the list.
pub fn class_check(rounds: &[RoundStats], shares: &ClassShares, slack: f64) -> Result<(), String> {
    if !(0.75 - slack..=0.80 + slack).contains(&shares.body_share) {
        return Err(format!(
            "body class holds {:.1} % of the ops, outside {:.0}–{:.0} %",
            shares.body_share * 100.0,
            (0.75 - slack) * 100.0,
            (0.80 + slack) * 100.0
        ));
    }
    let majority = |ok: usize| 2 * ok > rounds.len();
    let p50_ok = rounds.iter().filter(|r| r.p50_class == Class::Body).count();
    let p90_ok = rounds.iter().filter(|r| r.p90_class == Class::Tail).count();
    if !majority(p50_ok) {
        return Err(format!(
            "p50 fell in the tail class in {} of {} rounds",
            rounds.len() - p50_ok,
            rounds.len()
        ));
    }
    if !majority(p90_ok) {
        return Err(format!(
            "p90 fell in the body class in {} of {} rounds",
            rounds.len() - p90_ok,
            rounds.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_leaves_ten_beyond_p90_of_a_hundred() {
        assert_eq!(rank(100, 0.90), 89);
        assert_eq!(rank(100, 0.50), 49);
        assert_eq!(rank(120, 0.90), 107);
        assert_eq!(rank(1, 0.90), 0);
        assert_eq!(rank(10, 1.0), 9);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    fn mix(body: usize, tail: usize) -> Vec<Sample> {
        let mut v = Vec::new();
        for i in 0..body {
            v.push(Sample {
                ms: 5.0 + i as f64 * 0.01,
                class: Class::Body,
            });
        }
        for i in 0..tail {
            v.push(Sample {
                ms: 20.0 + i as f64 * 0.01,
                class: Class::Tail,
            });
        }
        v
    }

    #[test]
    fn round_stats_put_percentiles_inside_their_classes() {
        let samples = mix(78, 22);
        let r = round_stats(&samples, 2.0);
        assert_eq!(r.p50_class, Class::Body);
        assert_eq!(r.p90_class, Class::Tail);
        assert!((r.p50_ms - 5.49).abs() < 1e-9);
        assert!((r.p90_ms - 20.11).abs() < 1e-9);
        assert_eq!(r.ops_per_s, 50.0);
        let shares = class_shares(&samples);
        assert!((shares.body_share - 0.78).abs() < 1e-12);
        assert!(class_check(&[r; 5], &shares, 0.0).is_ok());
    }

    #[test]
    fn class_check_rejects_a_misplaced_percentile_and_a_bad_share() {
        // 92 % body: p90 lands in the body class.
        let samples = mix(92, 8);
        let r = round_stats(&samples, 1.0);
        assert_eq!(r.p90_class, Class::Body);
        let err = class_check(&[r; 5], &class_shares(&samples), 0.0).unwrap_err();
        assert!(err.contains("outside 75–80"), "{err}");
        assert!(class_check(&[r; 5], &class_shares(&samples), 0.12).is_err());
        // Right share, but the rounds say p90 is a body op.
        let good = class_shares(&mix(78, 22));
        let err = class_check(&[r; 5], &good, 0.0).unwrap_err();
        assert!(err.contains("p90 fell in the body class"), "{err}");
        // One flipped round out of five does not fail the run.
        let ok = round_stats(&mix(78, 22), 1.0);
        assert!(class_check(&[ok, ok, ok, ok, r], &good, 0.0).is_ok());
    }
}
