//! Deterministic fault injection and recovery policies for the BQSim
//! execution pipeline.
//!
//! A production batch simulator must survive transient kernel faults,
//! ECC-style copy corruption, stragglers, memory pressure, and whole-device
//! loss without losing batches. This crate defines the *vocabulary* of that
//! robustness story; the mechanisms live where the state lives:
//!
//! * [`FaultPlan`] — a seeded, deterministic list of faults to inject into
//!   a run. Every fault names its site (the n-th task execution or the
//!   n-th allocation on a device), so a plan replays bit-identically.
//! * [`RecoveryPolicy`] — bounded retry with exponential backoff (modeled
//!   as *engine time*, so timelines stay truthful), a per-task watchdog
//!   deadline, and switches for the degradation ladder.
//! * [`FaultInjector`] — the per-device runtime view of a plan consumed by
//!   `bqsim_gpu::Engine::run_faulted`.
//! * [`RunHealth`] — the account of everything that went wrong and how it
//!   was absorbed: one [`FaultEvent`] per injected fault, retry/backoff
//!   totals, requeued and degraded batches, lost devices, and per-device
//!   memory high-water marks.
//! * [`CancelToken`] — cooperative cancellation (a shared flag plus an
//!   optional wall-clock deadline) polled at task boundaries by the
//!   engine's sweep and at batch boundaries by the campaign runner.
//! * [`Clock`] — the waiting half of the virtual-time discipline:
//!   production code sleeps a backoff out on a [`WallClock`], tests
//!   replay the same schedule instantly and deterministically on a
//!   [`VirtualClock`].
//!
//! The degradation ladder itself (GPU-ELL → re-split + CPU conversion →
//! dense host reference) is implemented in `bqsim-core`, which owns the
//! compiled gates; this crate stays a leaf so both `bqsim-gpu` and
//! `bqsim-core` can speak its types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod clock;
mod health;
mod inject;
mod plan;
mod policy;

pub use cancel::CancelToken;
pub use clock::{Clock, VirtualClock, WallClock};
pub use health::{FaultEvent, Resolution, RunHealth};
pub use inject::FaultInjector;
pub use plan::{FaultBudget, FaultKind, FaultPlan, FaultSpec};
pub use policy::RecoveryPolicy;
