//! Bounded retry with exponential backoff for federation RPCs.
//!
//! The paper's federation is built from autonomous archives that fail
//! independently, so every network call in the daisy chain can fail
//! transiently. A [`RetryPolicy`] bounds how hard a caller tries: a
//! maximum attempt count, exponential backoff between attempts, and a
//! per-call deadline on the total time spent waiting. Backoff is charged
//! to the *simulated* clock (via `SimNetwork::record_retry`) — nothing
//! sleeps — so retry behaviour is deterministic and observable in
//! `NetworkMetrics`.
//!
//! Which failures are worth retrying is the other half of the story:
//! [`FederationError::is_retryable`](crate::FederationError::is_retryable)
//! classifies transport-level failures (unreachable host, corrupt frame,
//! 5xx) as retryable and everything that a remote service *decided*
//! (SOAP faults, SQL errors, protocol violations) as fatal, so a
//! deterministic error is never hammered with useless re-sends.

/// Bounded-attempt retry policy for one federation RPC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries). Clamped to
    /// at least 1.
    pub max_attempts: u32,
    /// Simulated seconds waited before the first retry.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff after each further failure.
    pub backoff_factor: f64,
    /// Ceiling on the *total* simulated seconds a call may spend backing
    /// off; once the next wait would cross it, the call gives up early.
    pub deadline_s: f64,
    /// Decorrelation half-width for the jittered backoff, as a fraction
    /// of the exponential wait (`0.0` = pure exponential backoff, `0.5`
    /// = each wait lands anywhere in ±50% of the nominal value). Jitter
    /// spreads simultaneous retriers so a recovering node is not hit by
    /// a synchronized burst; it is seeded deterministically from the
    /// attempt number and the link's host names, so runs stay
    /// reproducible. Clamped to `[0, 1)`.
    pub jitter: f64,
}

/// Default decorrelation half-width (±50% of the nominal wait).
pub const DEFAULT_RETRY_JITTER: f64 = 0.5;

impl Default for RetryPolicy {
    /// Three attempts, 50 ms base doubling each time, 30 s deadline,
    /// ±50% decorrelated jitter — sized to the simulated 2002-era links.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 0.05,
            backoff_factor: 2.0,
            deadline_s: 30.0,
            jitter: DEFAULT_RETRY_JITTER,
        }
    }
}

impl RetryPolicy {
    /// No retries: fail on the first error.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Total attempts, never less than one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Simulated seconds to wait before attempt `attempt` (2-based: the
    /// wait before the first retry is `backoff_base_s`).
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        debug_assert!(attempt >= 2, "attempt 1 has no backoff");
        let base = if self.backoff_base_s.is_finite() && self.backoff_base_s >= 0.0 {
            self.backoff_base_s
        } else {
            0.0
        };
        let factor = if self.backoff_factor.is_finite() && self.backoff_factor >= 1.0 {
            self.backoff_factor
        } else {
            1.0
        };
        base * factor.powi(attempt as i32 - 2)
    }

    /// The wait actually charged before attempt `attempt` of a call from
    /// `from_host` to `to_host`: the exponential [`backoff_before`] wait
    /// scaled by a deterministic decorrelation factor in
    /// `[1 − jitter, 1 + jitter)`. The factor is a pure function of the
    /// attempt and the directed link, so the schedule is reproducible,
    /// strictly positive whenever the nominal wait is, and different for
    /// every (link, attempt) pair — callers that failed together retry
    /// apart.
    ///
    /// [`backoff_before`]: RetryPolicy::backoff_before
    pub fn backoff_before_jittered(&self, attempt: u32, from_host: &str, to_host: &str) -> f64 {
        let nominal = self.backoff_before(attempt);
        let j = if self.jitter.is_finite() {
            self.jitter.clamp(0.0, 0.999)
        } else {
            0.0
        };
        if j == 0.0 || nominal == 0.0 {
            return nominal;
        }
        // FNV-1a over the link identity and attempt, whitened through
        // xorshift64*, mapped to a unit float.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in from_host
            .as_bytes()
            .iter()
            .chain([0u8].iter())
            .chain(to_host.as_bytes())
            .chain([0u8].iter())
            .chain(attempt.to_le_bytes().iter())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut state = h | 1;
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let whitened = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let unit = (whitened >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        nominal * (1.0 + j * (2.0 * unit - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_none() {
        let p = RetryPolicy::default();
        assert_eq!(p.attempts(), 3);
        assert!((p.backoff_before(2) - 0.05).abs() < 1e-12);
        assert!((p.backoff_before(3) - 0.10).abs() < 1e-12);
        assert!((p.backoff_before(4) - 0.20).abs() < 1e-12);
        assert_eq!(RetryPolicy::none().attempts(), 1);
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let p = RetryPolicy {
            max_attempts: 0,
            backoff_base_s: f64::NAN,
            backoff_factor: -3.0,
            deadline_s: 30.0,
            jitter: f64::NAN,
        };
        assert_eq!(p.attempts(), 1);
        assert_eq!(p.backoff_before(2), 0.0);
        // NaN jitter degrades to the pure exponential wait.
        assert_eq!(p.backoff_before_jittered(2, "a", "b"), 0.0);
        let p = RetryPolicy {
            backoff_factor: 0.5,
            ..RetryPolicy::default()
        };
        // Sub-unit factors would shrink the wait; clamp to constant.
        assert!((p.backoff_before(5) - p.backoff_base_s).abs() < 1e-12);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_decorrelated() {
        let p = RetryPolicy::default();
        let w = p.backoff_before_jittered(2, "portal", "sdss");
        // Deterministic: same (link, attempt) → same wait.
        assert_eq!(w, p.backoff_before_jittered(2, "portal", "sdss"));
        // Bounded by the ±jitter envelope and strictly positive.
        let nominal = p.backoff_before(2);
        assert!(w > 0.0);
        assert!(w >= nominal * (1.0 - p.jitter) - 1e-12);
        assert!(w < nominal * (1.0 + p.jitter));
        // Decorrelated: other links and attempts land elsewhere.
        assert_ne!(w, p.backoff_before_jittered(2, "portal", "twomass"));
        assert_ne!(w, p.backoff_before_jittered(2, "sdss", "twomass"));
        assert_ne!(w, p.backoff_before_jittered(3, "portal", "sdss"));
        // jitter = 0 restores the pure exponential schedule.
        let pure = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(pure.backoff_before_jittered(3, "a", "b"), nominal * 2.0);
    }
}
