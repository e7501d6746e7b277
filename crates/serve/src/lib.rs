//! # bqsim-serve — the multi-tenant campaign service
//!
//! A long-lived, in-process simulation service that schedules many
//! concurrent campaign submissions across a fleet of simulated GPUs
//! with explicit robustness guarantees:
//!
//! - **Bounded admission**: the queue has a hard capacity; beyond it a
//!   submission gets a structured [`ServeError::Overloaded`] rejection
//!   (depth + retry-after hint) instead of unbounded buffering.
//! - **Per-tenant quotas** ([`TenantQuota`]): amplitude-buffer bytes and
//!   in-flight campaigns, enforced at admission and released at every
//!   terminal state.
//! - **Fair-share + priority scheduling**: weighted fair queueing over
//!   shards with work-stealing placement; a low-priority tenant is
//!   served less often but never starved (the bound is checked offline
//!   by `bqsim analyze --service-schedule`).
//! - **Device-loss recovery**: a lost device requeues its in-flight
//!   shard to the survivors under the [`RecoveryPolicy`] backoff clock,
//!   with a bounded retry count.
//! - **Overload degradation ladder**: shed lowest-priority queued work,
//!   downgrade new admissions to checksum-only journaling, then reject —
//!   every degradation recorded per tenant in [`TenantHealth`].
//! - **Crash safety**: every submission runs on a write-ahead campaign
//!   journal plus an fsync'd session manifest, so `kill -9` + restart
//!   with [`ServiceConfig::resume`] finishes every in-flight tenant with
//!   bit-identical digests.
//!
//! [`RecoveryPolicy`]: bqsim_core::RecoveryPolicy

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod service;
mod spec;

pub use error::ServeError;
pub use service::{
    journal_path, manifest_path, read_status, run_service, trace_path, DeviceLossSpec,
    ServiceConfig, ServiceReport, StatusEntry, StatusState, SubmissionOutcome, SubmissionReport,
    TenantHealth,
};
pub use spec::{check_campaign_shape, Priority, SubmitSpec, TenantQuota};

#[cfg(test)]
mod tests;
