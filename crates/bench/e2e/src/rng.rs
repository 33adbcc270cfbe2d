//! The harness's own seeded generator, shuffle and Zipf sampler.
//!
//! Kept inside the benchmark so the op lists depend on `--seed` alone and
//! not on which stand-in the workspace resolves `rand` to.

/// SplitMix64: one multiply-xorshift round per draw, full 2^64 period.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run, so that adding draws to
    /// one part of a workload does not shift the inputs of another.
    ///
    /// Seed and stream number are each scrambled before they are combined:
    /// the generator steps its state by a constant, so states that differ by
    /// a small multiple of it would yield the same values a few draws apart.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(mix(seed) ^ mix(!stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// SplitMix64's output function: a bijection that avalanches every bit.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How many of `n` draws a Zipf(s) law over ranks `0..ranks` gives each
/// rank (weight `1 / (rank + 1)^s`), apportioned by largest remainder so the
/// counts sum to `n`. A list built from these counts and shuffled has the
/// law's popularity exactly, whatever the seed; only its order is drawn.
pub fn zipf_counts(ranks: usize, s: f64, n: usize) -> Vec<usize> {
    assert!(ranks > 0, "Zipf needs at least one rank");
    let weights: Vec<f64> = (1..=ranks).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|a, b| {
        (exact[*b] - exact[*b].floor())
            .total_cmp(&(exact[*a] - exact[*a].floor()))
            .then(a.cmp(b))
    });
    let short = n - counts.iter().sum::<usize>();
    for r in by_remainder.into_iter().take(short) {
        counts[r] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// Neighbouring streams once shared values a draw or two apart, which
    /// put two written objects on one spot.
    #[test]
    fn neighbouring_streams_share_no_values() {
        for seed in 0..4 {
            let mut seen = std::collections::HashSet::new();
            for stream in 1000..1040 {
                let mut r = Rng::stream(seed, stream);
                for _ in 0..8 {
                    assert!(seen.insert(r.next_u64()), "seed {seed} stream {stream}");
                }
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::stream(3, 0).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_counts_follow_the_law_and_sum_to_n() {
        let counts = zipf_counts(12, 1.1, 395);
        assert_eq!(counts.iter().sum::<usize>(), 395);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        let h: f64 = (1..=12).map(|r| (r as f64).powf(-1.1)).sum();
        for (r, c) in counts.iter().enumerate() {
            let exact = 395.0 * ((r + 1) as f64).powf(-1.1) / h;
            assert!((*c as f64 - exact).abs() < 1.0, "rank {r}: {c} vs {exact}");
        }
        assert_eq!(zipf_counts(3, 0.0, 10), vec![4, 3, 3]);
        assert_eq!(zipf_counts(1, 1.1, 7), vec![7]);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::stream(5, 0);
        assert!((0..1000).all(|_| rng.below(7) < 7));
        assert!((0..1000).all(|_| {
            let x = rng.range_f64(-2.0, 3.0);
            (-2.0..3.0).contains(&x)
        }));
    }
}
