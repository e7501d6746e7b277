//! The durable campaign runner: batch-at-a-time execution under a
//! write-ahead journal, a cooperative cancel/deadline token, and the
//! numerical-integrity quarantine.
//!
//! # Why batch-at-a-time
//!
//! The campaign runs each batch as its own single-batch simulation — on
//! the one [`BatchExecutor`] it keeps, whose reuse is invisible to
//! results — with any injected faults drawn from a plan seeded by
//! `fault_seed ^ batch_index`. Every batch's computation is therefore a
//! pure function of the plan fingerprint and its own index — independent
//! of which batches ran before it, in which process, or how many times
//! the campaign was interrupted. That independence is what makes the
//! resume proof possible: an interrupted-and-resumed campaign is
//! *bit-identical* to an uninterrupted one, record for record.
//!
//! # One campaign path
//!
//! [`Campaign`] is the only code that opens, resumes, runs and settles a
//! plan's batches. [`run_campaign`] drives one campaign serially; the
//! `bqsim-serve` fleet interleaves the batches of many campaigns through
//! the same [`Campaign::open`] / [`Campaign::run_batch`] calls, so a
//! service digest equals the serial digest by construction.
//!
//! # The commit pipeline
//!
//! A [`Campaign`] commits **synchronously** unless told otherwise: every
//! record (and its sidecar slot) is fsync'd before
//! [`Campaign::commit`] returns, on the calling thread — what the fleet
//! wants, one shard at a time per submission on its device worker.
//! [`run_campaign`] **group-commits** instead: records accumulate for up
//! to [`CampaignOptions::commit_interval`] and are made durable with one
//! fsync pair — staged sidecar slots first, then the records committing
//! them, so a journal record still proves durable state. For
//! [`StateMode::Full`] that I/O runs on a persister thread, pipelined
//! behind later batches' compute. [`StateMode::ChecksumOnly`] records
//! are a few dozen bytes, so they are buffered in memory and flushed
//! inline: a thread's per-record wakeups would cost more than they hide.
//! The persister's queue holds at most [`PERSIST_QUEUE_BATCHES`] batches,
//! so a disk slower than the simulation slows the producer instead of
//! buffering outputs.
//!
//! Group commit relaxes only *when* a record becomes durable: within one
//! commit interval, and never later than the campaign's return (the
//! runner drains the committer before reporting, including on
//! cancellation — that is the "graceful drain"). A hard kill
//! mid-campaign can lose the last in-flight commit window, which costs
//! its recompute on resume, never correctness.
//!
//! # What journaling costs
//!
//! Every campaign — journaled or not — computes each completed batch's
//! [`state_checksum`](crate::checksum::state_checksum) (it is the batch's
//! identity: the CLI digest, the journal record payload, and the
//! exactly-once evidence are all built from it), so attaching a journal
//! adds only the durability I/O. In [`StateMode::ChecksumOnly`] (journal
//! records alone) that is a few dozen bytes per batch plus a group-commit
//! fsync per interval. [`StateMode::Full`] additionally streams every
//! output amplitude through the sidecar, which costs raw disk bandwidth
//! proportional to the state size — the price of bit-exact
//! rematerialization on resume.

use crate::checksum::{encode_state, fnv1a, fnv1a_extend, state_checksum};
use crate::inputs::CampaignInputs;
use crate::integrity::{check_batch, IntegrityBudget, IntegrityVerdict};
use crate::journal::{read_journal, Fingerprint, JournalError, JournalWriter, Record, StateMode};
use crate::resume::load_journal_state;
use bqsim_core::{
    artifact_key, ArtifactStore, BatchExecutor, BatchSource, BqSimOptions, BqSimulator, BqsimError,
    CompileSource, CompileWall, EllCacheStats, FaultBudget, Precision, RecoveryPolicy, RunHealth,
    RunRequest, StoreStats,
};
use bqsim_faults::CancelToken;
use bqsim_gpu::ExecMode;
use bqsim_num::Complex;
use bqsim_qcir::Circuit;
use std::borrow::Cow;
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of one durable campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Where to journal; `None` runs without durability (no journal, no
    /// resume — but deadlines, cancellation, and quarantine still apply).
    pub journal_path: Option<PathBuf>,
    /// Resume from an existing journal at `journal_path` instead of
    /// starting fresh. The journal's fingerprint must match the present
    /// plan exactly; a missing journal file starts fresh.
    pub resume: bool,
    /// Wall-clock budget for this session; when it elapses the campaign
    /// drains gracefully at the next batch boundary.
    pub deadline: Option<Duration>,
    /// Cancel after this many batches have *executed this session* — the
    /// deterministic interruption lever used by the durability tests and
    /// the CI interrupt-resume gate (a simulated kill, minus the SIGKILL
    /// nondeterminism).
    pub stop_after: Option<usize>,
    /// Fault-injection seed; batch `b` draws its plan from
    /// `fault_seed ^ b`. `None` disables injection.
    pub fault_seed: Option<u64>,
    /// Fault budget per batch (ignored without `fault_seed`).
    pub fault_budget: FaultBudget,
    /// Recovery policy for injected faults.
    pub recovery: RecoveryPolicy,
    /// Unitarity budget for the per-batch integrity check.
    pub integrity: IntegrityBudget,
    /// Whether a resume re-runs batches a previous session quarantined
    /// (default `true`; `false` carries the quarantine verdict forward).
    pub retry_quarantined: bool,
    /// Whether the journal persists full output amplitudes
    /// ([`StateMode::Full`], the default) or only their checksums
    /// ([`StateMode::ChecksumOnly`]). Full mode rematerializes completed
    /// batches bit-exactly on resume at the cost of streaming every
    /// amplitude to disk; checksum-only mode still skips completed
    /// batches and preserves the campaign digest, with near-zero
    /// durability traffic. A resume must use the same mode the journal
    /// was created with.
    pub persist_state: bool,
    /// Group-commit window: records become durable at most this long
    /// after their batch completes (and always by the campaign's
    /// return). `Duration::ZERO` fsyncs every record individually. A
    /// hard kill can lose at most the last window's records, which are
    /// recomputed bit-identically on resume — so the default (100 ms,
    /// the same order as other journaled systems' group-commit windows)
    /// trades a negligible recompute exposure for an order of magnitude
    /// fewer fsyncs on the critical path.
    pub commit_interval: Duration,
    /// Artifact-store directory for compile-once circuit executables.
    /// When set, the campaign loads its compiled simulator from the
    /// store (publishing on a cold miss) instead of re-running fusion
    /// and conversion; the store is shared across processes, and the
    /// artifact key is part of the journal fingerprint either way.
    pub artifact_dir: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            journal_path: None,
            resume: false,
            deadline: None,
            stop_after: None,
            fault_seed: None,
            fault_budget: FaultBudget::default(),
            recovery: RecoveryPolicy::default(),
            integrity: IntegrityBudget::default(),
            retry_quarantined: true,
            persist_state: true,
            commit_interval: Duration::from_millis(100),
            artifact_dir: None,
        }
    }
}

/// Terminal state of one batch after a campaign session.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    /// Output produced and integrity-checked. `resumed` is `true` when
    /// the output was loaded (and checksum-verified) from the journal
    /// rather than recomputed.
    Completed {
        /// Loaded from the journal instead of executed this session.
        resumed: bool,
    },
    /// Failed the integrity check; excluded from outputs, retryable on
    /// resume.
    Quarantined {
        /// `non-finite` or `norm-drift`.
        reason: String,
        /// Worst observed norm drift.
        drift: f64,
    },
    /// Not reached before cancellation; a resume will run it.
    Pending,
}

/// The (possibly partial) result of one campaign session.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-batch outputs; `None` for quarantined and pending batches, and
    /// for batches resumed from a checksum-only journal (completed, but
    /// not rematerialized — see [`CampaignOptions::persist_state`]).
    pub outputs: Vec<Option<Vec<Vec<Complex>>>>,
    /// Per-batch output checksums
    /// ([`state_checksum`](crate::checksum::state_checksum)); `Some` for
    /// every completed batch — computed this session or read back from
    /// the journal — regardless of journaling mode. This is the batch's
    /// identity: the campaign digest and the journal's exactly-once
    /// evidence are built from it.
    pub checksums: Vec<Option<u64>>,
    /// Per-batch terminal states.
    pub outcomes: Vec<BatchOutcome>,
    /// Batches loaded from the journal instead of executed.
    pub resumed: usize,
    /// Batches actually executed this session (completed or quarantined).
    pub executed: usize,
    /// Indices of quarantined batches, ascending.
    pub quarantined: Vec<usize>,
    /// `true` when the token fired (deadline, explicit cancel, or
    /// `stop_after`) and the campaign drained before finishing; the
    /// journal then holds everything needed to resume.
    pub cancelled: bool,
    /// Merged fault/recovery accounting across all executed batches.
    pub health: RunHealth,
    /// Where the compiled simulator came from: `None` without an
    /// artifact store, otherwise cold / warm / recompiled-after-
    /// corruption (the digest output surfaces this alongside the
    /// traffic counters below).
    pub compile_source: Option<CompileSource>,
    /// Artifact-store traffic counters for this session's store handle
    /// (`None` without a store).
    pub store_stats: Option<StoreStats>,
    /// Compile-time ELL conversion-cache counters of the simulator the
    /// campaign ran (loaded verbatim from the artifact on a warm start).
    pub cache_stats: EllCacheStats,
    /// Host wall-clock of the compile stages that produced the simulator
    /// (fusion / conversion / publish; on a warm start, the artifact load
    /// under `fusion_ns` and zeros elsewhere).
    pub compile_wall: CompileWall,
    /// Batches whose narrow-precision run drifted past the integrity
    /// budget and were transparently re-executed at the `f64` reference,
    /// completing cleanly instead of quarantining. Always `0` for `f64`
    /// campaigns (there is nothing wider to retry at).
    pub precision_retries: usize,
    /// States per lane of each batch, in state order
    /// ([`BqSimulator::state_shares`]): one entry when batches run on one
    /// lane.
    pub state_shares: Vec<usize>,
}

impl CampaignResult {
    /// Whether every batch completed (nothing pending or quarantined).
    pub fn is_complete(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, BatchOutcome::Completed { .. }))
    }

    /// The first batch a resume would run, if any.
    pub fn next_pending(&self) -> Option<usize> {
        self.outcomes
            .iter()
            .position(|o| matches!(o, BatchOutcome::Pending))
    }
}

/// Why a campaign session failed outright (as opposed to draining
/// partially, which is an `Ok` result with [`CampaignResult::cancelled`]
/// set).
#[derive(Debug)]
pub enum CampaignError {
    /// The journal could not be written, read, or trusted.
    Journal(JournalError),
    /// The simulation itself failed unrecoverably.
    Sim(BqsimError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Journal(e) => Some(e),
            CampaignError::Sim(e) => Some(e),
        }
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

impl From<BqsimError> for CampaignError {
    fn from(e: BqsimError) -> Self {
        CampaignError::Sim(e)
    }
}

/// Batches a full-state campaign may run ahead of its persister: the
/// queue between them is bounded, so at most this many batches' outputs
/// wait in memory for the disk.
const PERSIST_QUEUE_BATCHES: usize = 8;

struct PersistMsg {
    rec: Record,
    /// The batch's output amplitudes, for the sidecar slot the record
    /// commits — `Some` for `batch` records in a [`StateMode::Full`]
    /// journal, `None` otherwise.
    state: Option<Arc<Vec<Vec<Complex>>>>,
}

/// One open commit group over a [`JournalWriter`]. Sidecar slots are
/// staged as their batches arrive and records are held back; a flush
/// fsyncs the staged slots first, then appends and fsyncs the records
/// that commit them — the write-ahead order, amortized over the group.
struct CommitGroup {
    writer: JournalWriter,
    interval: Duration,
    /// The open group's records, held in memory until its deadline —
    /// unsynced page-cache bytes were never durable either, so buffering
    /// here changes write-syscall count, not crash semantics.
    pending: Vec<Record>,
    /// Whether a staged sidecar slot still needs its fsync.
    state_dirty: bool,
    /// Deadline of the open group; `None` when everything committed so
    /// far is fsync'd.
    flush_due: Option<Instant>,
}

impl CommitGroup {
    fn new(writer: JournalWriter, interval: Duration) -> CommitGroup {
        CommitGroup {
            writer,
            interval,
            pending: Vec::new(),
            state_dirty: false,
            flush_due: None,
        }
    }

    /// Adds one record to the open group, staging the sidecar slot of a
    /// `batch` record that carries its state.
    fn stage(&mut self, rec: Record, state: Option<&[Vec<Complex>]>) -> Result<(), JournalError> {
        if let (Some(state), Record::Batch { index, .. }) = (state, &rec) {
            // By `state_checksum`'s construction, the record's checksum is
            // exactly `fnv1a(&encode_state(state))`.
            self.writer.write_slot(*index, &encode_state(state))?;
            self.state_dirty = true;
        }
        self.pending.push(rec);
        let interval = self.interval;
        self.flush_due
            .get_or_insert_with(|| Instant::now() + interval);
        Ok(())
    }

    /// Makes the open group durable.
    fn flush(&mut self) -> Result<(), JournalError> {
        self.flush_due = None;
        if self.pending.is_empty() && !self.state_dirty {
            return Ok(());
        }
        if self.state_dirty {
            self.writer.sync_state()?;
            self.state_dirty = false;
        }
        for rec in self.pending.drain(..) {
            self.writer.append_unsynced(&rec)?;
        }
        self.writer.sync_journal()
    }

    /// Stages one record and flushes once the group's window has elapsed
    /// — at once for a zero window.
    fn commit(&mut self, rec: Record, state: Option<&[Vec<Complex>]>) -> Result<(), JournalError> {
        self.stage(rec, state)?;
        if self.flush_due.is_some_and(|due| Instant::now() >= due) {
            self.flush()?;
        }
        Ok(())
    }
}

/// Handle to the background persister thread (see the module docs'
/// "commit pipeline" section). The thread owns the [`CommitGroup`],
/// stages each message's sidecar slot on arrival, and flushes the group
/// on the configured interval. Its queue is bounded by
/// [`PERSIST_QUEUE_BATCHES`]: a send blocks while it is full.
struct Persister {
    tx: Option<mpsc::SyncSender<PersistMsg>>,
    handle: Option<thread::JoinHandle<Result<(), JournalError>>>,
}

impl Persister {
    fn spawn(mut group: CommitGroup) -> Self {
        let (tx, rx) = mpsc::sync_channel::<PersistMsg>(PERSIST_QUEUE_BATCHES);
        let handle = thread::spawn(move || {
            loop {
                let msg = match group.flush_due {
                    None => match rx.recv() {
                        Ok(m) => Some(m),
                        Err(_) => break,
                    },
                    Some(due) => {
                        match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                            Ok(m) => Some(m),
                            Err(mpsc::RecvTimeoutError::Timeout) => None,
                            Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        }
                    }
                };
                match msg {
                    Some(PersistMsg { rec, state }) => {
                        group.stage(rec, state.as_deref().map(Vec::as_slice))?;
                    }
                    None => group.flush()?,
                }
            }
            // Channel closed: the graceful drain's final flush.
            group.flush()
        });
        Persister {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// `false` when the persister has died; its error surfaces on
    /// [`join`](Self::join).
    fn send(&self, msg: PersistMsg) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(msg).is_ok())
    }

    /// The graceful drain: closes the queue and blocks until every
    /// pending record is durably journaled (or until the persister's
    /// first error).
    fn join(mut self) -> Result<(), JournalError> {
        drop(self.tx.take());
        match self.handle.take().map(thread::JoinHandle::join) {
            Some(Ok(res)) => res,
            Some(Err(_)) => Err(JournalError::Io(std::io::Error::other(
                "journal persister thread panicked",
            ))),
            None => Ok(()),
        }
    }
}

/// How a campaign commits its records. A freshly opened [`Campaign`]
/// commits `Inline` with a zero window: every record is durable before
/// [`Campaign::commit`] returns, on the calling thread. [`run_campaign`]
/// switches to group commit — `Pipelined` onto the persister thread for
/// full-state journals, `Inline` on the commit interval for checksum-only
/// ones, whose few-dozen-byte records cost a thread more in per-record
/// wakeups than it hides (on a single-core host it could never overlap
/// compute anyway).
enum Committer {
    Pipelined(Persister),
    Inline(CommitGroup),
}

impl Committer {
    /// `Ok(false)` means the pipelined persister has died — its error
    /// surfaces in [`finish`](Self::finish).
    fn commit(
        &mut self,
        rec: Record,
        state: Option<&Arc<Vec<Vec<Complex>>>>,
    ) -> Result<bool, JournalError> {
        match self {
            Committer::Pipelined(p) => Ok(p.send(PersistMsg {
                rec,
                state: state.cloned(),
            })),
            Committer::Inline(group) => group
                .commit(rec, state.map(|s| s.as_slice()))
                .map(|()| true),
        }
    }

    /// The graceful drain: everything committed becomes durable.
    fn finish(self) -> Result<(), JournalError> {
        match self {
            Committer::Pipelined(p) => p.join(),
            Committer::Inline(mut group) => group.flush(),
        }
    }
}

/// The result of executing one campaign batch via
/// [`execute_campaign_batch`]: the batch's output states plus the
/// fault/recovery accounting the run accrued.
#[derive(Debug)]
pub struct ExecutedBatch {
    /// One output state vector per input in the batch.
    pub outputs: Vec<Vec<Complex>>,
    /// Fault/recovery accounting for this batch alone (empty without a
    /// fault seed).
    pub health: RunHealth,
}

/// Executes one batch of a campaign plan — the simulation step of
/// [`Campaign::run_batch`], without its integrity check, `f64` retry or
/// checksum — on a one-batch executor built for this call alone. A
/// campaign keeps its executor across batches instead.
///
/// The computation is a pure function of the compiled plan and the batch
/// index: with a fault seed, batch `index` draws its plan from
/// `fault_seed ^ index`, so the same batch executed here — on any thread,
/// in any order, interleaved with any other tenant's work — produces
/// bit-identical outputs to a serial campaign of the same fingerprint.
///
/// # Errors
///
/// [`BqsimError::Cancelled`] when `cancel` fires before the batch
/// completes (the partial work is discarded; the batch stays pending);
/// any other [`BqsimError`] is an unrecoverable simulation failure.
pub fn execute_campaign_batch(
    sim: &BqSimulator,
    batch: &[Vec<Complex>],
    index: usize,
    copts: &CampaignOptions,
    cancel: &CancelToken,
) -> Result<ExecutedBatch, BqsimError> {
    let mut executor = BatchExecutor::new(sim, 1, batch.len())?;
    run_on(sim, &mut executor, batch, index, copts, cancel)
}

/// Runs campaign batch `index` through `executor` under its seeded fault
/// plan.
fn run_on(
    sim: &BqSimulator,
    executor: &mut BatchExecutor,
    batch: &[Vec<Complex>],
    index: usize,
    copts: &CampaignOptions,
    cancel: &CancelToken,
) -> Result<ExecutedBatch, BqsimError> {
    let plan = copts
        .fault_seed
        .map(|seed| sim.seeded_fault_plan(seed ^ index as u64, 1, &copts.fault_budget));
    let run = executor.run(
        sim,
        &RunRequest {
            source: BatchSource::Batches(vec![batch]),
            cancel: Some(cancel),
            faults: plan.as_ref().map(|plan| (plan, &copts.recovery)),
        },
    )?;
    Ok(ExecutedBatch {
        outputs: run.outputs.into_iter().next().unwrap_or_default(),
        health: run.health,
    })
}

/// Computes the campaign's plan [`Fingerprint`].
///
/// The circuit and option hashes are FNV-1a over canonical debug
/// renderings (pure data, no addresses). Explicit input batches are
/// hashed over the raw bit patterns of every amplitude; a generated
/// source is named by its generator and shape, and only batch 0's bytes
/// are hashed. The effective precision (which fixes the layout) is
/// deliberately excluded from the options hash and carried as its own
/// field so a mismatch report can name it — the most common way to
/// accidentally change a plan between sessions is `BQSIM_PRECISION`.
/// `threads` (state lanes) is recorded too but never refuses a resume:
/// it cannot change an output bit.
pub fn plan_fingerprint<'a>(
    circuit: &Circuit,
    opts: &BqSimOptions,
    inputs: impl Into<CampaignInputs<'a>>,
    fault_seed: Option<u64>,
) -> Fingerprint {
    let inputs = inputs.into();
    let (inputs_hash, _) = hash_inputs(&inputs);
    fingerprint_with(circuit, opts, &inputs, inputs_hash, fault_seed)
}

/// The fingerprint's input hash (see [`plan_fingerprint`]), and batch 0
/// when it had to be generated for it — a campaign then runs that batch
/// instead of generating it twice.
fn hash_inputs(inputs: &CampaignInputs) -> (u64, Option<Vec<Vec<Complex>>>) {
    let hash_batches = |batches: &[Vec<Vec<Complex>>]| {
        let mut h = fnv1a(b"inputs");
        for batch in batches {
            for state in batch {
                for z in state {
                    h = fnv1a_extend(h, &z.re.to_bits().to_le_bytes());
                    h = fnv1a_extend(h, &z.im.to_bits().to_le_bytes());
                }
            }
        }
        h
    };
    match inputs {
        CampaignInputs::Batches(b) => (hash_batches(b), None),
        CampaignInputs::Generated(g) => {
            let first = g.batch(0);
            (hash_batches(std::slice::from_ref(&first)), Some(first))
        }
    }
}

fn fingerprint_with(
    circuit: &Circuit,
    opts: &BqSimOptions,
    inputs: &CampaignInputs,
    inputs_hash: u64,
    fault_seed: Option<u64>,
) -> Fingerprint {
    let circuit_hash = fnv1a(format!("{circuit:?}").as_bytes());
    let opt_repr = format!(
        "tau={} device={:?} cpu={:?} launch={:?} exec={:?} force={:?} \
         skip_fusion={} skip_ell={} generic_spmm={}",
        opts.tau,
        opts.device,
        opts.cpu,
        opts.launch_mode,
        opts.exec_mode,
        opts.force_conversion,
        opts.skip_fusion,
        opts.skip_ell,
        opts.generic_spmm,
    );
    let source = match inputs {
        CampaignInputs::Batches(_) => None,
        CampaignInputs::Generated(g) => Some(g.generator),
    };
    let (batch_size, amps) = inputs.dims();
    Fingerprint {
        circuit: circuit_hash,
        options: fnv1a(opt_repr.as_bytes()),
        source,
        inputs: inputs_hash,
        // The same content address that names the compile in an artifact
        // store — journals and stores stay correlatable, and a resume
        // refuses a journal whose compile inputs differ even if the
        // circuit/options digests above were to collide.
        artifact: artifact_key(circuit, opts),
        fault_seed,
        threads: opts.threads,
        precision: opts.effective_precision(),
        num_batches: inputs.len(),
        batch_size,
        amps,
    }
}

/// Output states of every batch of a campaign, `None` where a batch has
/// none to offer (see [`CampaignResult::outputs`]).
pub type CampaignOutputs = Vec<Option<Vec<Vec<Complex>>>>;

/// One batch executed by [`Campaign::run_batch`], ready to commit.
#[derive(Debug)]
pub struct BatchRun {
    /// The journal record that settles the batch: `batch` with its
    /// output checksum, or `quarantine`.
    pub record: Record,
    /// A completed batch's output states; `None` when quarantined.
    pub outputs: Option<Arc<Vec<Vec<Complex>>>>,
    /// Fault/recovery accounting for this batch, its `f64` retry
    /// included.
    pub health: RunHealth,
}

/// One campaign plan's lifecycle — the single path both [`run_campaign`]
/// and the `bqsim-serve` fleet run batches through.
///
/// [`open`](Self::open) fingerprints the plan, compiles it (or loads it
/// from an artifact store), then creates the journal or verifies and
/// resumes it: fingerprint, state mode, index range, duplicate
/// completions and every committed sidecar slot's checksum.
/// [`run_batch`](Self::run_batch) pulls one batch from the inputs,
/// executes it on the campaign's one [`BatchExecutor`] (built by the
/// first batch, kept for the rest), integrity-checks and checksums it,
/// retrying a drifted narrow-precision batch once at `f64` on a second
/// kept executor. [`commit`](Self::commit) hands its record to the
/// journal.
///
/// A freshly opened campaign commits synchronously, on the calling
/// thread; [`run_campaign`] switches to group commit. The campaign keeps
/// checksums and outcomes, never output amplitudes.
pub struct Campaign<'a> {
    sim: BqSimulator,
    /// One-batch executor on `sim`, built by the first batch that runs —
    /// on the thread that runs it, so the service's device workers build
    /// their campaigns' executors in parallel instead of its admission
    /// building every one in turn.
    executor: Option<BatchExecutor>,
    /// Built on the first narrow-precision quarantine: an `f64` sibling
    /// sharing the compiled gates (Arc), and its own executor, so the
    /// retry pays execution only.
    f64_retry: Option<(BqSimulator, BatchExecutor)>,
    precision: Precision,
    /// A generated batch 0, made for the fingerprint and kept until it
    /// runs.
    first: Option<Vec<Vec<Complex>>>,
    inputs: CampaignInputs<'a>,
    copts: CampaignOptions,
    committer: Option<Committer>,
    compile_source: Option<CompileSource>,
    checksums: Vec<Option<u64>>,
    outcomes: Vec<BatchOutcome>,
    resumed: usize,
    executed: usize,
    precision_retries: usize,
}

impl<'a> Campaign<'a> {
    /// Opens (or, with [`CampaignOptions::resume`], resumes) the campaign
    /// of `circuit` over `inputs`, compiling through `store` when one is
    /// given. A resume verifies every committed sidecar slot against its
    /// record but keeps none of their amplitudes.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] when the journal cannot be created, or
    /// cannot be trusted on resume; [`CampaignError::Sim`] when the
    /// compile fails.
    ///
    /// # Panics
    ///
    /// Panics when `opts.exec_mode` is not [`ExecMode::Functional`]: a
    /// campaign journals and integrity-checks real amplitudes, which
    /// timing-only runs do not produce.
    pub fn open(
        circuit: &Circuit,
        opts: BqSimOptions,
        inputs: impl Into<CampaignInputs<'a>>,
        copts: &CampaignOptions,
        store: Option<&ArtifactStore>,
    ) -> Result<Campaign<'a>, CampaignError> {
        Self::open_keeping(circuit, opts, inputs.into(), copts, store, false).map(|(c, _)| c)
    }

    /// [`open`](Self::open), also returning the outputs a full-state
    /// journal rematerialized when `keep_states` is set (`None` for every
    /// batch still to run, for every batch of a checksum-only journal,
    /// and for every batch without `keep_states`).
    fn open_keeping(
        circuit: &Circuit,
        opts: BqSimOptions,
        inputs: CampaignInputs<'a>,
        copts: &CampaignOptions,
        store: Option<&ArtifactStore>,
        keep_states: bool,
    ) -> Result<(Campaign<'a>, CampaignOutputs), CampaignError> {
        assert!(
            matches!(opts.exec_mode, ExecMode::Functional),
            "campaigns require ExecMode::Functional (timing-only runs have no \
             outputs to journal or integrity-check)"
        );
        let (inputs_hash, first) = hash_inputs(&inputs);
        let fingerprint = fingerprint_with(circuit, &opts, &inputs, inputs_hash, copts.fault_seed);
        let precision = opts.effective_precision();
        let (sim, compile_source) = match store {
            Some(store) => {
                let (sim, source) = BqSimulator::compile_or_load(circuit, opts, store)?;
                if let CompileSource::RecompiledCorrupt { warning } = &source {
                    eprintln!("warning: artifact store: {warning}; recompiled and republished");
                }
                (sim, Some(source))
            }
            None => (BqSimulator::compile(circuit, opts)?, None),
        };

        let n = inputs.len();
        let mut checksums = vec![None; n];
        let mut outcomes = vec![BatchOutcome::Pending; n];
        let mut outputs: CampaignOutputs = (0..n).map(|_| None).collect();
        let mut resumed = 0usize;
        let mode = if copts.persist_state {
            StateMode::Full
        } else {
            StateMode::ChecksumOnly
        };
        let writer = match &copts.journal_path {
            None => None,
            Some(path) if copts.resume && path.exists() => {
                let contents = read_journal(path)?;
                if let Some(field) = fingerprint.mismatch(&contents.fingerprint) {
                    return Err(JournalError::FingerprintMismatch { field }.into());
                }
                if contents.state_mode != mode {
                    return Err(JournalError::FingerprintMismatch {
                        field: "state persistence mode",
                    }
                    .into());
                }
                let state = load_journal_state(path, &contents, keep_states)?;
                for (b, (done, quarantine)) in state
                    .completed
                    .into_iter()
                    .zip(state.quarantined)
                    .enumerate()
                {
                    if let Some(done) = done {
                        checksums[b] = Some(done.checksum);
                        outputs[b] = done.state;
                        outcomes[b] = BatchOutcome::Completed { resumed: true };
                        resumed += 1;
                    } else if let Some((reason, drift)) = quarantine {
                        if !copts.retry_quarantined {
                            outcomes[b] = BatchOutcome::Quarantined { reason, drift };
                        }
                    }
                }
                Some(JournalWriter::open_append(path, contents.valid_len, mode)?)
            }
            Some(path) => Some(JournalWriter::create(path, &fingerprint, mode)?),
        };
        let campaign = Campaign {
            sim,
            executor: None,
            f64_retry: None,
            precision,
            first: first.filter(|_| matches!(outcomes.first(), Some(BatchOutcome::Pending))),
            inputs,
            copts: copts.clone(),
            committer: writer.map(|w| Committer::Inline(CommitGroup::new(w, Duration::ZERO))),
            compile_source,
            checksums,
            outcomes,
            resumed,
            executed: 0,
            precision_retries: 0,
        };
        Ok((campaign, outputs))
    }

    /// Executes batch `b`, checks its integrity and checksums it. A
    /// narrow-precision batch that fails the check is retried once at the
    /// `f64` reference before it is quarantined. The batch's outcome is
    /// settled here; [`commit`](Self::commit) makes it durable.
    ///
    /// # Errors
    ///
    /// [`BqsimError::Cancelled`] when `cancel` fires first (the batch
    /// stays pending); any other [`BqsimError`] is an unrecoverable
    /// simulation failure.
    ///
    /// # Panics
    ///
    /// Panics when the campaign has no batch `b`.
    pub fn run_batch(&mut self, b: usize, cancel: &CancelToken) -> Result<BatchRun, BqsimError> {
        assert!(b < self.inputs.len(), "campaign has no batch {b}");
        let batch_in = match self.first.take() {
            Some(first) if b == 0 => Cow::Owned(first),
            _ => self.inputs.batch(b),
        };
        let executor = match &mut self.executor {
            Some(executor) => executor,
            slot @ None => slot.insert(BatchExecutor::new(&self.sim, 1, batch_in.len())?),
        };
        let exec = run_on(&self.sim, executor, &batch_in, b, &self.copts, cancel)?;
        let (mut out, mut health) = (exec.outputs, exec.health);
        let mut verdict = check_batch(&batch_in, &out, &self.copts.integrity);
        // A narrow-precision run that drifted past the budget is not
        // evidence of a broken batch — the budget may simply be tighter
        // than f32 can hold for this circuit. Retry once at the f64
        // reference before condemning the batch; f64 campaigns quarantine
        // directly.
        if verdict != IntegrityVerdict::Ok && self.precision != Precision::F64 {
            let (retry_sim, retry_executor) = match &mut self.f64_retry {
                Some(retry) => retry,
                retry @ None => {
                    let sim = self.sim.with_precision(Precision::F64);
                    let executor = BatchExecutor::new(&sim, 1, batch_in.len())?;
                    retry.insert((sim, executor))
                }
            };
            let retry = run_on(retry_sim, retry_executor, &batch_in, b, &self.copts, cancel)?;
            health.merge(retry.health);
            if check_batch(&batch_in, &retry.outputs, &self.copts.integrity) == IntegrityVerdict::Ok
            {
                self.precision_retries += 1;
                out = retry.outputs;
                verdict = IntegrityVerdict::Ok;
            }
        }
        self.executed += 1;
        let (record, outputs) = match verdict {
            IntegrityVerdict::Ok => {
                let checksum = state_checksum(&out);
                self.checksums[b] = Some(checksum);
                self.outcomes[b] = BatchOutcome::Completed { resumed: false };
                (Record::Batch { index: b, checksum }, Some(Arc::new(out)))
            }
            IntegrityVerdict::Quarantine { reason, drift } => {
                self.outcomes[b] = BatchOutcome::Quarantined {
                    reason: reason.to_string(),
                    drift,
                };
                let rec = Record::Quarantine {
                    index: b,
                    reason: reason.to_string(),
                    drift_bits: drift.to_bits(),
                };
                (rec, None)
            }
        };
        Ok(BatchRun {
            record,
            outputs,
            health,
        })
    }

    /// Hands `run`'s record — and, for a full-state journal, its outputs
    /// — to the journal under the campaign's commit policy; a no-op
    /// without a journal. `Ok(false)` means a pipelined persister has
    /// died: stop running batches, its error surfaces from the drain.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the synchronous commit fails.
    pub fn commit(&mut self, run: &BatchRun) -> Result<bool, JournalError> {
        let state = run.outputs.as_ref().filter(|_| self.copts.persist_state);
        match &mut self.committer {
            Some(c) => c.commit(run.record.clone(), state),
            None => Ok(true),
        }
    }

    /// Switches to [`run_campaign`]'s group commit on `interval`.
    fn group_commit(&mut self, interval: Duration) {
        if let Some(Committer::Inline(group)) = self.committer.take() {
            let group = CommitGroup::new(group.writer, interval);
            self.committer = Some(if self.copts.persist_state {
                Committer::Pipelined(Persister::spawn(group))
            } else {
                Committer::Inline(group)
            });
        }
    }

    /// The first batch still to run, if any.
    pub fn next_pending(&self) -> Option<usize> {
        self.outcomes
            .iter()
            .position(|o| matches!(o, BatchOutcome::Pending))
    }

    /// Per-batch output checksums; `Some` for every completed batch.
    pub fn checksums(&self) -> &[Option<u64>] {
        &self.checksums
    }

    /// Indices of quarantined batches, ascending.
    pub fn quarantined(&self) -> impl Iterator<Item = usize> + '_ {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, BatchOutcome::Quarantined { .. }))
            .map(|(b, _)| b)
    }

    /// Batches the journal recorded as completed when the campaign opened.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Batches [`run_batch`](Self::run_batch) has executed.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Where the compiled simulator came from (`None` without a store).
    pub fn compile_source(&self) -> Option<&CompileSource> {
        self.compile_source.as_ref()
    }

    /// The compiled simulator the campaign runs.
    pub fn simulator(&self) -> &BqSimulator {
        &self.sim
    }
}

/// Runs (or resumes) a durable campaign and returns every batch's
/// outputs.
///
/// `inputs` are explicit batches (`&[batch]`, `Vec`) or a
/// [`GeneratedInputs`](crate::GeneratedInputs) source. See the module
/// docs for the execution model. Cancellation — via the deadline,
/// `stop_after`, or an external fire of the token this function creates —
/// is **graceful**: the in-flight batch's partial work is discarded,
/// every journaled record is already fsync'd, and the returned result is
/// marked [`cancelled`](CampaignResult::cancelled) with
/// [`next_pending`](CampaignResult::next_pending) as the resume handle.
///
/// # Errors
///
/// [`CampaignError::Journal`] on journal I/O, corruption, or fingerprint
/// mismatch; [`CampaignError::Sim`] on unrecoverable simulation errors.
///
/// # Panics
///
/// Panics when `opts.exec_mode` is not [`ExecMode::Functional`] (see
/// [`Campaign::open`]).
pub fn run_campaign<'a>(
    circuit: &Circuit,
    opts: BqSimOptions,
    inputs: impl Into<CampaignInputs<'a>>,
    copts: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    drive(circuit, opts, inputs.into(), copts, true)
}

/// [`run_campaign`] that keeps no output amplitudes: each batch's outputs
/// are dropped once it commits, so memory is one batch's worth however
/// long the campaign. [`CampaignResult::outputs`] is all `None`; the
/// checksums, and so the digest, are the same. `bqsim run` uses this.
///
/// # Errors
///
/// As [`run_campaign`].
///
/// # Panics
///
/// As [`run_campaign`].
pub fn stream_campaign<'a>(
    circuit: &Circuit,
    opts: BqSimOptions,
    inputs: impl Into<CampaignInputs<'a>>,
    copts: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    drive(circuit, opts, inputs.into(), copts, false)
}

/// The one campaign loop behind [`run_campaign`] and [`stream_campaign`].
fn drive(
    circuit: &Circuit,
    opts: BqSimOptions,
    inputs: CampaignInputs<'_>,
    copts: &CampaignOptions,
    keep_outputs: bool,
) -> Result<CampaignResult, CampaignError> {
    // Store-open failure is durability-infrastructure I/O, same class as
    // a journal that cannot be created.
    let store = match &copts.artifact_dir {
        Some(dir) => Some(ArtifactStore::open(dir).map_err(JournalError::from)?),
        None => None,
    };
    let (mut campaign, resumed) =
        Campaign::open_keeping(circuit, opts, inputs, copts, store.as_ref(), keep_outputs)?;
    campaign.group_commit(copts.commit_interval);
    let mut outputs: Vec<Option<Arc<Vec<Vec<Complex>>>>> =
        resumed.into_iter().map(|o| o.map(Arc::new)).collect();

    let cancel = match copts.deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let mut cancelled = false;
    let mut health = RunHealth::new();
    for (b, output) in outputs.iter_mut().enumerate() {
        if !matches!(campaign.outcomes[b], BatchOutcome::Pending) {
            continue;
        }
        if copts.stop_after.is_some_and(|k| campaign.executed >= k) {
            cancel.cancel();
        }
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let run = match campaign.run_batch(b, &cancel) {
            Ok(run) => run,
            Err(BqsimError::Cancelled) => {
                cancelled = true;
                break;
            }
            Err(e) => return Err(e.into()),
        };
        let alive = campaign.commit(&run)?;
        health.merge(run.health);
        if keep_outputs {
            *output = run.outputs;
        }
        if !alive {
            // The persister exited early; stop computing and surface its
            // error from the drain below.
            break;
        }
    }
    if let Some(c) = campaign.committer.take() {
        c.finish()?;
    }

    Ok(CampaignResult {
        outputs: outputs
            .into_iter()
            .map(|o| o.map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone())))
            .collect(),
        quarantined: campaign.quarantined().collect(),
        checksums: campaign.checksums,
        outcomes: campaign.outcomes,
        resumed: campaign.resumed,
        executed: campaign.executed,
        cancelled,
        health,
        compile_source: campaign.compile_source,
        store_stats: store.as_ref().map(ArtifactStore::stats),
        cache_stats: campaign.sim.conversion_cache_stats(),
        compile_wall: campaign.sim.compile_wall(),
        precision_retries: campaign.precision_retries,
        state_shares: campaign.sim.state_shares(campaign.inputs.dims().0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_core::random_input_batch;
    use bqsim_qcir::generators;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bqsim-runner-test-{}-{name}", std::process::id()));
        p
    }

    fn batches(n: usize) -> Vec<Vec<Vec<Complex>>> {
        (0..n).map(|b| random_input_batch(3, 2, b as u64)).collect()
    }

    #[test]
    fn interrupt_resume_is_bit_identical_to_uninterrupted() {
        let circuit = generators::ghz(3);
        let inputs = batches(4);
        let uninterrupted = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions::default(),
        )
        .unwrap();
        assert!(uninterrupted.is_complete() && !uninterrupted.cancelled);

        let path = tmp("resume");
        let first = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                stop_after: Some(2),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(first.cancelled);
        assert_eq!(first.executed, 2);
        assert_eq!(first.next_pending(), Some(2));

        let second = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                resume: true,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(second.is_complete(), "resume must finish the campaign");
        assert_eq!(second.resumed, 2);
        assert_eq!(second.executed, 2);
        for (a, b) in uninterrupted.outputs.iter().zip(&second.outputs) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            for (va, vb) in a.iter().zip(b) {
                for (za, zb) in va.iter().zip(vb) {
                    assert_eq!(za.re.to_bits(), zb.re.to_bits());
                    assert_eq!(za.im.to_bits(), zb.im.to_bits());
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_only_campaign_resumes_with_digest_identity() {
        let circuit = generators::ghz(3);
        let inputs = batches(4);
        let reference = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions::default(),
        )
        .unwrap();

        let path = tmp("checksum-only");
        let light = CampaignOptions {
            journal_path: Some(path.clone()),
            persist_state: false,
            ..CampaignOptions::default()
        };
        let first = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                stop_after: Some(2),
                ..light.clone()
            },
        )
        .unwrap();
        assert!(first.cancelled && first.executed == 2);
        assert!(
            !crate::journal::state_path(&path).exists(),
            "checksum-only campaigns must not write a sidecar"
        );

        let second = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                resume: true,
                ..light
            },
        )
        .unwrap();
        assert!(second.is_complete());
        assert_eq!(second.resumed, 2);
        // Checksums — the campaign digest's inputs — are bit-identical to
        // the uninterrupted run for every batch, including the two whose
        // amplitudes were not rematerialized…
        assert_eq!(second.checksums, reference.checksums);
        assert!(second.checksums.iter().all(Option::is_some));
        // …and those two are the only outputs left unmaterialized.
        assert!(second.outputs[0].is_none() && second.outputs[1].is_none());
        for b in 2..4 {
            assert_eq!(
                second.outputs[b].as_ref().unwrap(),
                reference.outputs[b].as_ref().unwrap()
            );
        }

        // A full-mode resume of a checksum-only journal is a different
        // contract and must be refused.
        let err = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                resume: true,
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CampaignError::Journal(JournalError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_resume() {
        let circuit = generators::ghz(3);
        let inputs = batches(2);
        let path = tmp("mismatch");
        run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                stop_after: Some(1),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        // Resume under a different fault seed: a different campaign.
        let err = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                resume: true,
                fault_seed: Some(99),
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        match err {
            CampaignError::Journal(JournalError::FingerprintMismatch { field }) => {
                assert_eq!(field, "fault_seed");
            }
            other => panic!("expected fingerprint mismatch, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_budget_quarantines_then_retry_with_sane_budget_completes() {
        let circuit = generators::vqe(3, 2);
        let inputs = batches(2);
        let path = tmp("quarantine");
        let strict = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                integrity: IntegrityBudget {
                    max_norm_drift: 0.0,
                },
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(
            !strict.quarantined.is_empty(),
            "a zero unitarity budget must quarantine round-off"
        );
        assert!(!strict.cancelled, "quarantine must not stop the campaign");

        // The integrity budget is not part of the fingerprint (it gates
        // acceptance, not computation), so a resume may relax it to retry
        // the quarantined batches.
        let retry = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                resume: true,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(retry.is_complete(), "retry under a sane budget completes");
        assert_eq!(retry.executed, strict.quarantined.len());

        // The journal now shows quarantines followed by completions —
        // exactly the retry path the analyzer pass must accept.
        let d = crate::audit::audit_journal(&path).unwrap();
        assert_eq!(d.error_count(), 0, "{d}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn elapsed_deadline_drains_gracefully_and_resumes() {
        let circuit = generators::ghz(3);
        let inputs = batches(3);
        let path = tmp("deadline");
        let hit = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                deadline: Some(Duration::from_secs(0)),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(hit.cancelled);
        assert_eq!(hit.executed, 0, "a zero deadline runs nothing");
        let resumed = run_campaign(
            &circuit,
            BqSimOptions::default(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                resume: true,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(resumed.is_complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn artifact_store_campaigns_are_digest_identical_cold_vs_warm() {
        let dir = {
            let mut p = std::env::temp_dir();
            p.push(format!("bqsim-runner-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            p
        };
        let circuit = generators::qft(3);
        let inputs = batches(3);
        let copts = CampaignOptions {
            artifact_dir: Some(dir.clone()),
            ..CampaignOptions::default()
        };
        let cold = run_campaign(&circuit, BqSimOptions::default(), &inputs, &copts).unwrap();
        assert_eq!(
            cold.compile_source,
            Some(bqsim_core::CompileSource::Cold { published: true })
        );
        let warm = run_campaign(&circuit, BqSimOptions::default(), &inputs, &copts).unwrap();
        assert_eq!(warm.compile_source, Some(bqsim_core::CompileSource::Warm));
        let stats = warm.store_stats.unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        // The campaign digest — the run's full identity — is unchanged by
        // where the compile came from.
        assert_eq!(
            crate::campaign_digest(&cold.checksums),
            crate::campaign_digest(&warm.checksums)
        );
        assert_eq!(cold.outputs, warm.outputs);
        assert_eq!(cold.cache_stats, warm.cache_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generated_source_journal_refuses_to_resume_naming_the_field() {
        use crate::{GeneratedInputs, Generator};
        let circuit = generators::ghz(3);
        let source = GeneratedInputs {
            generator: Generator::Random { seed: 5 },
            qubits: 3,
            batch_size: 2,
            num_batches: 3,
        };
        let path = tmp("generated");
        let copts = CampaignOptions {
            journal_path: Some(path.clone()),
            ..CampaignOptions::default()
        };
        let first = run_campaign(
            &circuit,
            BqSimOptions::default(),
            source,
            &CampaignOptions {
                stop_after: Some(1),
                ..copts.clone()
            },
        )
        .unwrap();
        assert!(first.cancelled);
        let resume = CampaignOptions {
            resume: true,
            ..copts.clone()
        };
        let refused = |circuit: &Circuit, inputs: GeneratedInputs| match run_campaign(
            circuit,
            BqSimOptions::default(),
            inputs,
            &resume,
        ) {
            Err(CampaignError::Journal(JournalError::FingerprintMismatch { field })) => field,
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        };
        let seed = GeneratedInputs {
            generator: Generator::Random { seed: 6 },
            ..source
        };
        assert_eq!(refused(&circuit, seed), "seed");
        let zero = GeneratedInputs {
            generator: Generator::Zero,
            ..source
        };
        assert_eq!(refused(&circuit, zero), "source");
        let batch_size = GeneratedInputs {
            batch_size: 3,
            ..source
        };
        assert_eq!(refused(&circuit, batch_size), "batch_size");
        let num_batches = GeneratedInputs {
            num_batches: 4,
            ..source
        };
        assert_eq!(refused(&circuit, num_batches), "num_batches");
        // A wider source comes with a wider circuit, which is named first;
        // the source on its own names its amplitude count.
        let wider = GeneratedInputs {
            qubits: 4,
            ..source
        };
        assert_eq!(refused(&generators::ghz(4), wider), "circuit");
        let opts = BqSimOptions::default();
        let journaled = read_journal(&path).unwrap().fingerprint;
        assert_eq!(
            plan_fingerprint(&circuit, &opts, wider, None).mismatch(&journaled),
            Some("amps")
        );
        // The header names the generator, and batch 0's bytes still
        // count: the same values making other amplitudes are a mismatch.
        assert_eq!(journaled.source, Some(Generator::Random { seed: 5 }));
        let other_bytes = Fingerprint {
            inputs: journaled.inputs ^ 1,
            ..journaled
        };
        assert_eq!(other_bytes.mismatch(&journaled), Some("inputs"));

        let finished = run_campaign(&circuit, opts, source, &resume).unwrap();
        assert!(finished.is_complete());
        assert_eq!(finished.resumed, 1);
        let explicit = run_campaign(
            &circuit,
            BqSimOptions::default(),
            (0..3).map(|b| source.batch(b)).collect::<Vec<_>>(),
            &CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(finished.checksums, explicit.checksums);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::journal::state_path(&path)).ok();
    }

    #[test]
    fn explicit_inputs_hash_every_amplitude() {
        let circuit = generators::ghz(3);
        let opts = BqSimOptions::default();
        let inputs = batches(3);
        let mut last_flipped = inputs.clone();
        let z = &mut last_flipped[2][1][7];
        z.im = f64::from_bits(z.im.to_bits() ^ 1);
        let a = plan_fingerprint(&circuit, &opts, &inputs, None);
        let b = plan_fingerprint(&circuit, &opts, &last_flipped, None);
        assert_eq!(a.source, None, "explicit batches name no generator");
        assert_eq!(b.mismatch(&a), Some("inputs"));

        let path = tmp("explicit-hash");
        run_campaign(
            &circuit,
            opts.clone(),
            &inputs,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                stop_after: Some(1),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        let err = run_campaign(
            &circuit,
            opts,
            &last_flipped,
            &CampaignOptions {
                journal_path: Some(path.clone()),
                resume: true,
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CampaignError::Journal(JournalError::FingerprintMismatch { field: "inputs" })
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::journal::state_path(&path)).ok();
    }

    #[test]
    fn streamed_campaign_keeps_no_outputs_and_the_same_checksums() {
        let circuit = generators::qft(3);
        let inputs = batches(3);
        let copts = CampaignOptions::default();
        let kept = run_campaign(&circuit, BqSimOptions::default(), &inputs, &copts).unwrap();
        let streamed = stream_campaign(&circuit, BqSimOptions::default(), &inputs, &copts).unwrap();
        assert!(kept.outputs.iter().all(Option::is_some));
        assert!(streamed.outputs.iter().all(Option::is_none));
        assert_eq!(kept.checksums, streamed.checksums);
        assert!(streamed.is_complete());
    }
}
