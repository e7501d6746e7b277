//! Error type of the BQSim pipeline.

use bqsim_gpu::AllocDeviceError;
use core::fmt;
use std::error::Error;

/// Errors produced while compiling or running a batch simulation.
#[derive(Debug)]
pub enum BqsimError {
    /// The circuit has no qubits.
    EmptyCircuit,
    /// A batch input vector has the wrong length for the circuit width.
    BadInputLength {
        /// Expected amplitudes per input (`2^n`).
        expected: usize,
        /// Length actually provided.
        got: usize,
    },
    /// A batch holds a different number of state vectors than the first
    /// batch of the run — BQSim packs every batch into one fixed-stride
    /// device buffer, so batches must be rectangular.
    MismatchedBatchSize {
        /// Index of the offending batch.
        batch_index: usize,
        /// State vectors per batch established by batch 0.
        expected: usize,
        /// State vectors the offending batch actually holds.
        got: usize,
    },
    /// A run was asked for zero batches or zero state vectors per batch;
    /// there is nothing to schedule.
    EmptyBatchRun {
        /// Batches requested.
        num_batches: usize,
        /// State vectors per batch requested.
        batch_size: usize,
    },
    /// A multi-GPU runner was given no devices to compile for.
    NoDevices,
    /// The simulated device ran out of memory (the failure mode behind the
    /// paper's Table 4 "-" entries), and recovery was disabled or also
    /// exhausted the degradation ladder.
    DeviceOom {
        /// Device the allocation failed on.
        device: usize,
        /// Batch being provisioned when the allocation failed, if the
        /// failure is attributable to one (buffer and gate-table
        /// allocations precede any batch, so this is usually `None`).
        batch: Option<usize>,
        /// The underlying allocator error (requested vs. free bytes).
        source: AllocDeviceError,
    },
    /// A task kept faulting after every allowed retry and no fallback was
    /// permitted by the [`RecoveryPolicy`](bqsim_faults::RecoveryPolicy).
    RetriesExhausted {
        /// Device the task ran on.
        device: usize,
        /// Batch the task belonged to.
        batch: usize,
        /// Label of the failing task (e.g. `"k2 b1"`).
        task_label: String,
        /// Attempts made, including the first try.
        attempts: u32,
    },
    /// The device was lost mid-run and no fallback could absorb its work.
    DeviceLost {
        /// The lost device.
        device: usize,
    },
    /// Every device in a multi-GPU run was lost; there is no survivor to
    /// requeue the outstanding batches onto.
    AllDevicesLost,
    /// A [`CancelToken`](bqsim_faults::CancelToken) fired (explicit cancel
    /// or elapsed deadline) and the run drained instead of completing. Any
    /// partial outputs were discarded; completed work journaled before the
    /// token fired remains valid and resumable.
    Cancelled,
}

impl fmt::Display for BqsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BqsimError::EmptyCircuit => write!(f, "circuit has no qubits"),
            BqsimError::BadInputLength { expected, got } => {
                write!(f, "batch input has {got} amplitudes, expected {expected}")
            }
            BqsimError::MismatchedBatchSize {
                batch_index,
                expected,
                got,
            } => write!(
                f,
                "batch {batch_index} has {got} state vector(s), but batch 0 \
                 established a batch size of {expected}"
            ),
            BqsimError::EmptyBatchRun {
                num_batches,
                batch_size,
            } => write!(
                f,
                "empty batch run: {num_batches} batch(es) of {batch_size} state vector(s)"
            ),
            BqsimError::NoDevices => write!(f, "multi-GPU run needs at least one device"),
            BqsimError::DeviceOom {
                device,
                batch,
                source,
            } => {
                write!(f, "device {device}")?;
                if let Some(b) = batch {
                    write!(f, " (batch {b})")?;
                }
                write!(f, " out of memory: {source}")
            }
            BqsimError::RetriesExhausted {
                device,
                batch,
                task_label,
                attempts,
            } => write!(
                f,
                "device {device}, batch {batch}: task '{task_label}' \
                 still failing after {attempts} attempt(s)"
            ),
            BqsimError::DeviceLost { device } => {
                write!(f, "device {device} was lost mid-run")
            }
            BqsimError::AllDevicesLost => {
                write!(f, "all devices were lost; no survivor to requeue onto")
            }
            BqsimError::Cancelled => {
                write!(f, "run cancelled (token fired or deadline elapsed)")
            }
        }
    }
}

impl Error for BqsimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BqsimError::DeviceOom { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl BqsimError {
    /// Attributes an allocator failure to the device it actually struck.
    ///
    /// There is deliberately **no** blanket `From<AllocDeviceError>`: a
    /// `?`-conversion cannot know which device's allocator failed and used
    /// to hardcode device 0, misattributing OOMs on every other device of
    /// a multi-GPU run. Conversion sites name the device explicitly.
    pub fn oom_on(device: usize, source: AllocDeviceError) -> Self {
        BqsimError::DeviceOom {
            device,
            batch: None,
            source,
        }
    }

    /// [`BqsimError::oom_on`] with the batch being provisioned when the
    /// allocation failed.
    pub fn oom_on_batch(device: usize, batch: usize, source: AllocDeviceError) -> Self {
        BqsimError::DeviceOom {
            device,
            batch: Some(batch),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            BqsimError::EmptyCircuit.to_string(),
            "circuit has no qubits"
        );
        let e = BqsimError::BadInputLength {
            expected: 8,
            got: 4,
        };
        assert!(e.to_string().contains("expected 8"));
    }

    #[test]
    fn oom_display_includes_device_and_batch() {
        let inner = AllocDeviceError::new(4096, 1024);
        let e = BqsimError::DeviceOom {
            device: 2,
            batch: Some(7),
            source: inner,
        };
        let msg = e.to_string();
        assert!(msg.contains("device 2"), "{msg}");
        assert!(msg.contains("batch 7"), "{msg}");
        assert!(msg.contains("4096"), "{msg}");
        let e = BqsimError::oom_on(3, AllocDeviceError::new(10, 0));
        assert!(!e.to_string().contains("batch"), "no batch by default");
        assert!(
            e.to_string().contains("device 3"),
            "oom_on must carry the real device id"
        );
        let e = BqsimError::oom_on_batch(1, 4, AllocDeviceError::new(10, 0));
        assert!(e.to_string().contains("device 1"));
        assert!(e.to_string().contains("batch 4"));
    }

    #[test]
    fn oom_source_chain_reaches_the_allocator_error() {
        let e = BqsimError::oom_on(0, AllocDeviceError::new(4096, 1024));
        let src = e.source().expect("DeviceOom must expose its source");
        assert!(src.downcast_ref::<AllocDeviceError>().is_some());
    }

    #[test]
    fn mismatched_batch_size_names_the_batch_and_both_sizes() {
        let e = BqsimError::MismatchedBatchSize {
            batch_index: 2,
            expected: 8,
            got: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("batch 2"), "{msg}");
        assert!(msg.contains('8'), "{msg}");
        assert!(msg.contains('5'), "{msg}");
    }

    #[test]
    fn cancelled_display_mentions_the_deadline() {
        let msg = BqsimError::Cancelled.to_string();
        assert!(msg.contains("cancel"), "{msg}");
    }

    #[test]
    fn recovery_error_displays_name_the_site() {
        let e = BqsimError::RetriesExhausted {
            device: 1,
            batch: 3,
            task_label: "k2 b3".to_string(),
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("device 1"), "{msg}");
        assert!(msg.contains("batch 3"), "{msg}");
        assert!(msg.contains("k2 b3"), "{msg}");
        assert!(msg.contains("4 attempt"), "{msg}");
        assert!(BqsimError::DeviceLost { device: 2 }
            .to_string()
            .contains("device 2"));
    }
}
