//! The `RunHealth` report: what went wrong and how it was absorbed.

use crate::plan::FaultKind;
use std::fmt;

/// How a single injected fault was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// A retry attempt succeeded after the fault.
    Retried,
    /// A hang completed late but under the watchdog deadline.
    Straggler,
    /// The watchdog killed the attempt; a retry then succeeded.
    TimedOut,
    /// All retries failed; the task (and its dependents) were abandoned.
    Exhausted,
    /// Recovery degraded the pipeline (re-split / CPU conversion / dense
    /// host fallback) to absorb the fault.
    Degraded,
    /// The device was lost outright.
    DeviceLost,
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resolution::Retried => "retried",
            Resolution::Straggler => "straggler",
            Resolution::TimedOut => "timed-out",
            Resolution::Exhausted => "exhausted",
            Resolution::Degraded => "degraded",
            Resolution::DeviceLost => "device-lost",
        };
        f.write_str(s)
    }
}

/// One injected fault, observed at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Device the fault struck.
    pub device: usize,
    /// What was injected.
    pub kind: FaultKind,
    /// Label of the affected task (empty for allocation faults).
    pub label: String,
    /// Attempt number the fault hit (0 = first try).
    pub attempt: u32,
    /// Virtual time at which the fault surfaced.
    pub at_ns: u64,
    /// How the run absorbed it.
    pub resolution: Resolution,
}

/// Account of a recovered run: every fault, every retry, every
/// degradation — so "it worked" never hides "it almost didn't".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHealth {
    /// One event per injected fault, in the order they surfaced.
    pub events: Vec<FaultEvent>,
    /// Total retry attempts scheduled across all tasks.
    pub retries: u64,
    /// Total virtual nanoseconds spent in retry backoff.
    pub backoff_ns: u64,
    /// Batch indices that fell back down the degradation ladder.
    pub degraded_batches: Vec<usize>,
    /// Ladder rungs taken, in order (e.g. "re-split fused gates + CPU
    /// conversion", "dense host fallback").
    pub degradations: Vec<String>,
    /// Devices lost during the run.
    pub lost_devices: Vec<usize>,
    /// Tasks abandoned (never completed on the faulted device).
    pub abandoned_tasks: u64,
    /// Device memory high-water marks, as `(device, bytes)`.
    pub high_water_bytes: Vec<(usize, u64)>,
}

impl RunHealth {
    /// An empty (healthy) report.
    pub fn new() -> Self {
        RunHealth::default()
    }

    /// Number of fault events recorded.
    pub fn fault_count(&self) -> usize {
        self.events.len()
    }

    /// Whether the run saw no faults at all.
    pub fn is_healthy(&self) -> bool {
        self.events.is_empty()
            && self.retries == 0
            && self.degraded_batches.is_empty()
            && self.degradations.is_empty()
            && self.lost_devices.is_empty()
    }

    /// Number of events matching `kind`'s taxonomy name.
    pub fn count_of(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.kind.name() == name).count()
    }

    /// Folds another run's health into this report.
    pub fn merge(&mut self, other: RunHealth) {
        self.events.extend(other.events);
        self.retries += other.retries;
        self.backoff_ns += other.backoff_ns;
        self.degraded_batches.extend(other.degraded_batches);
        self.degradations.extend(other.degradations);
        self.lost_devices.extend(other.lost_devices);
        self.abandoned_tasks += other.abandoned_tasks;
        self.high_water_bytes.extend(other.high_water_bytes);
    }
}

impl fmt::Display for RunHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_healthy() {
            return write!(f, "healthy: no faults observed");
        }
        writeln!(
            f,
            "{} fault(s), {} retry(ies), {:.3} ms backoff",
            self.events.len(),
            self.retries,
            self.backoff_ns as f64 / 1e6
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  dev{} {:<15} {:<10} attempt {} @ {:.3} ms -> {}",
                e.device,
                e.kind.name(),
                if e.label.is_empty() { "-" } else { &e.label },
                e.attempt,
                e.at_ns as f64 / 1e6,
                e.resolution
            )?;
        }
        for rung in &self.degradations {
            writeln!(f, "  degraded: {rung}")?;
        }
        if !self.degraded_batches.is_empty() {
            writeln!(f, "  degraded batches: {:?}", self.degraded_batches)?;
        }
        if !self.lost_devices.is_empty() {
            writeln!(f, "  lost devices: {:?}", self.lost_devices)?;
        }
        if self.abandoned_tasks > 0 {
            writeln!(f, "  abandoned tasks: {}", self.abandoned_tasks)?;
        }
        for (device, bytes) in &self.high_water_bytes {
            writeln!(
                f,
                "  dev{} memory high-water: {:.3} MiB",
                device,
                *bytes as f64 / (1024.0 * 1024.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(device: usize, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            device,
            kind,
            label: "k0 b0".to_string(),
            attempt: 0,
            at_ns: 1_000,
            resolution: Resolution::Retried,
        }
    }

    #[test]
    fn healthy_report_prints_one_line() {
        let health = RunHealth::new();
        assert!(health.is_healthy());
        assert_eq!(health.to_string(), "healthy: no faults observed");
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = RunHealth {
            events: vec![event(0, FaultKind::KernelFault { task: 3 })],
            retries: 1,
            backoff_ns: 5_000,
            degraded_batches: vec![0],
            ..RunHealth::default()
        };
        let b = RunHealth {
            events: vec![event(1, FaultKind::Oom { alloc: 2 })],
            retries: 2,
            backoff_ns: 10_000,
            degraded_batches: vec![1, 3],
            lost_devices: vec![1],
            abandoned_tasks: 4,
            high_water_bytes: vec![(1, 1 << 20)],
            ..RunHealth::default()
        };
        a.merge(b);
        assert_eq!(a.fault_count(), 2);
        assert_eq!(a.retries, 3);
        assert_eq!(a.backoff_ns, 15_000);
        assert_eq!(a.degraded_batches, vec![0, 1, 3]);
        assert_eq!(a.lost_devices, vec![1]);
        assert_eq!(a.abandoned_tasks, 4);
        assert_eq!(a.count_of("kernel-fault"), 1);
        assert_eq!(a.count_of("oom"), 1);
        assert!(!a.is_healthy());
        let rendered = a.to_string();
        assert!(rendered.contains("kernel-fault"));
        assert!(rendered.contains("lost devices: [1]"));
    }
}
