//! Durable BQSim campaigns: crash-safe journaling, resume,
//! deadlines/cancellation, and numerical-integrity quarantine.
//!
//! A *campaign* is a long batch-simulation run treated as a first-class,
//! interruptible workload (DESIGN.md §12). This crate wraps
//! `bqsim-core`'s simulator in four robustness layers:
//!
//! * **Write-ahead journal** ([`journal`]) — the plan's [`Fingerprint`]
//!   is durably persisted *before* any batch runs; each completed batch
//!   fsyncs its raw output amplitudes into a fixed-offset slot of a
//!   binary state sidecar, then appends an fsync'd record committing the
//!   slot with its checksum. A crash can only tear the journal's tail
//!   (detected and truncated) or an uncommitted slot (ignored).
//! * **Resume** ([`Campaign::open`] with
//!   [`CampaignOptions::resume`]) — verifies the fingerprint, loads
//!   completed batches bit-exactly from the journal, and runs only what
//!   is left. Interrupted-and-resumed output is bit-identical to an
//!   uninterrupted run (proven by `tests/campaign_durability.rs` for
//!   arbitrary interruption points, torn writes, fault plans, and lane
//!   counts — a resume may even use a different lane count).
//! * **Deadlines and cancellation** — a
//!   [`CancelToken`](bqsim_faults::CancelToken) threaded down to the
//!   engine's task sweep; firing it (explicitly or via
//!   [`CampaignOptions::deadline`]) drains the campaign gracefully at
//!   the next task boundary, leaving a resumable journal.
//! * **Integrity quarantine** ([`integrity`]) — each batch's outputs are
//!   checked against a unitarity budget; a failing batch is recorded and
//!   excluded rather than aborting the campaign, and is retried on
//!   resume.
//!
//! `bqsim analyze --journal <path>` (the [`audit`] module plus
//! `bqsim-analyze`'s `check_journal` pass) certifies a journal's
//! exactly-once and ordering discipline after the fact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod checksum;
pub mod integrity;
pub mod journal;
mod resume;
mod runner;

pub use audit::{audit_journal, journal_facts};
pub use checksum::campaign_digest;
pub use integrity::{check_batch, IntegrityBudget, IntegrityVerdict};
pub use journal::{
    read_journal, state_path, Fingerprint, JournalContents, JournalError, JournalWriter, Record,
    StateMode,
};
pub use runner::{
    execute_campaign_batch, plan_fingerprint, run_campaign, BatchOutcome, BatchRun, Campaign,
    CampaignError, CampaignOptions, CampaignOutputs, CampaignResult, ExecutedBatch,
};
