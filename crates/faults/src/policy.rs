//! Recovery policy: bounded retry, exponential backoff, watchdog, and
//! degradation switches.

/// How a run absorbs injected (or real) faults.
///
/// Backoff is modeled as *engine time*: the virtual nanoseconds returned
/// by [`RecoveryPolicy::backoff_ns`] are added to the faulted resource's
/// free time before the retry attempt is scheduled, so timelines and
/// utilization numbers account for recovery honestly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum retry attempts per task after the first try (0 disables
    /// retries entirely).
    pub max_retries: u32,
    /// Backoff before the first retry, in virtual nanoseconds.
    pub backoff_base_ns: u64,
    /// Multiplier applied per additional retry (exponential backoff).
    pub backoff_multiplier: u32,
    /// Upper bound on a single backoff interval.
    pub backoff_cap_ns: u64,
    /// Per-task watchdog slack: an attempt running this much longer than
    /// its *modeled* duration is killed (at `modeled + slack`) and counts
    /// as a failed attempt. Expressing the deadline as slack rather than
    /// an absolute time means legitimately long kernels are never killed —
    /// only unmodeled stalls trip it. `None` disables the watchdog (hangs
    /// then complete late as stragglers).
    pub watchdog_ns: Option<u64>,
    /// On device OOM, re-split the offending fused gate (shrinking
    /// max-NZR) and fall back from GPU to CPU conversion before retrying.
    pub degrade: bool,
    /// On exhausted retries (or failed degradation), fall back to the
    /// dense host reference backend for the affected batches instead of
    /// erroring.
    pub host_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_base_ns: 5_000,
            backoff_multiplier: 2,
            backoff_cap_ns: 1_000_000,
            watchdog_ns: Some(10_000_000),
            degrade: true,
            host_fallback: true,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that never retries, never degrades, and has no watchdog:
    /// the first fault surfaces as an error.
    pub fn no_recovery() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            backoff_base_ns: 0,
            backoff_multiplier: 1,
            backoff_cap_ns: 0,
            watchdog_ns: None,
            degrade: false,
            host_fallback: false,
        }
    }

    /// Backoff before retry attempt `attempt` (1-based: the first retry
    /// is attempt 1), in virtual nanoseconds, capped at
    /// [`backoff_cap_ns`](Self::backoff_cap_ns).
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let mut backoff = self.backoff_base_ns;
        for _ in 1..attempt {
            backoff = backoff.saturating_mul(u64::from(self.backoff_multiplier));
            if backoff >= self.backoff_cap_ns {
                return self.backoff_cap_ns;
            }
        }
        backoff.min(self.backoff_cap_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RecoveryPolicy {
            max_retries: 10,
            backoff_base_ns: 1_000,
            backoff_multiplier: 2,
            backoff_cap_ns: 6_000,
            ..RecoveryPolicy::default()
        };
        assert_eq!(policy.backoff_ns(0), 0);
        assert_eq!(policy.backoff_ns(1), 1_000);
        assert_eq!(policy.backoff_ns(2), 2_000);
        assert_eq!(policy.backoff_ns(3), 4_000);
        assert_eq!(policy.backoff_ns(4), 6_000); // capped
        assert_eq!(policy.backoff_ns(10), 6_000);
    }

    #[test]
    fn backoff_saturates_without_overflow() {
        let policy = RecoveryPolicy {
            backoff_base_ns: u64::MAX / 2,
            backoff_multiplier: u32::MAX,
            backoff_cap_ns: u64::MAX,
            ..RecoveryPolicy::default()
        };
        assert_eq!(policy.backoff_ns(5), u64::MAX);
    }

    #[test]
    fn no_recovery_disables_everything() {
        let policy = RecoveryPolicy::no_recovery();
        assert_eq!(policy.max_retries, 0);
        assert_eq!(policy.watchdog_ns, None);
        assert!(!policy.degrade);
        assert!(!policy.host_fallback);
        assert_eq!(policy.backoff_ns(3), 0);
    }
}
