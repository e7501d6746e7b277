//! The durable campaign runner: batch-at-a-time execution under a
//! write-ahead journal, a cooperative cancel/deadline token, and the
//! numerical-integrity quarantine.
//!
//! # Why batch-at-a-time
//!
//! The campaign runs each batch as its own single-batch simulation, with
//! any injected faults drawn from a plan seeded by
//! `fault_seed ^ batch_index`. Every batch's computation is therefore a
//! pure function of the plan fingerprint and its own index — independent
//! of which batches ran before it, in which process, or how many times
//! the campaign was interrupted. That independence is what makes the
//! resume proof possible: an interrupted-and-resumed campaign is
//! *bit-identical* to an uninterrupted one, record for record.
//!
//! # The commit pipeline
//!
//! Both journaling modes **group-commit**: records accumulate for up to
//! [`CampaignOptions::commit_interval`] and are then made durable with
//! one fsync pair, so fsync cost is amortized over however many batches
//! completed in the window. What differs is where the I/O runs:
//!
//! * [`StateMode::Full`] — durability I/O (state encode, sidecar write +
//!   fsync, record append + fsync) runs on a dedicated persister thread,
//!   pipelined behind the compute of later batches; the critical path
//!   only hands each finished batch over by reference. The write-ahead
//!   *order* is preserved group-wise — every staged sidecar slot is
//!   fsync'd before the record committing it is written to the journal
//!   file at all — so a journal record still proves durable state.
//! * [`StateMode::ChecksumOnly`] — records are a few dozen bytes each,
//!   so they are committed inline on the critical path: buffered in
//!   memory (a `Vec` push) and written + fsync'd as one group when the
//!   interval elapses. A persister thread would cost more in per-record
//!   wakeups than it hides — on a single-core host it could never
//!   overlap compute anyway — and holding the open group in memory
//!   instead of the page cache changes nothing about crash durability,
//!   which begins only at the fsync.
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
use crate::integrity::{check_batch, IntegrityBudget, IntegrityVerdict};
use crate::journal::{read_journal, Fingerprint, JournalError, JournalWriter, Record, StateMode};
use crate::resume::load_journal_state;
use bqsim_core::{
    artifact_key, schedule, ArtifactStore, BqSimOptions, BqSimulator, BqsimError, CompileSource,
    CompileWall, EllCacheStats, FaultBudget, FaultPlan, Precision, RecoveryPolicy, RunHealth,
    StoreStats,
};
use bqsim_faults::CancelToken;
use bqsim_gpu::ExecMode;
use bqsim_num::Complex;
use bqsim_qcir::Circuit;
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Allocation-sequence sites per single-batch run: four state buffers
/// plus the gate-table reservation (mirrors the simulator's residency
/// layout; kept equal to the CLI's value so `--fault-seed` campaigns and
/// ad-hoc `--faults` runs draw from the same site space).
pub(crate) const ALLOCS_PER_RUN: usize = 5;

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

struct PersistMsg {
    rec: Record,
    /// The batch's output amplitudes, for the sidecar slot the record
    /// commits — always `Some` for `batch` records in a
    /// [`StateMode::Full`] journal, `None` for quarantines.
    state: Option<Arc<Vec<Vec<Complex>>>>,
}

/// Flushes one commit group: fsync staged sidecar slots first, then
/// append and fsync the records that commit them — the write-ahead order,
/// amortized over the whole group.
fn flush_group(
    writer: &mut JournalWriter,
    pending: &mut Vec<Record>,
    state_dirty: &mut bool,
) -> Result<(), JournalError> {
    if pending.is_empty() && !*state_dirty {
        return Ok(());
    }
    if *state_dirty {
        writer.sync_state()?;
        *state_dirty = false;
    }
    for rec in pending.drain(..) {
        writer.append_unsynced(&rec)?;
    }
    writer.sync_journal()
}

/// Handle to the background persister thread (see the module docs'
/// "commit pipeline" section). The thread owns the [`JournalWriter`],
/// stages each message's sidecar slot on arrival, and group-commits the
/// records on the configured interval.
struct Persister {
    tx: Option<mpsc::Sender<PersistMsg>>,
    handle: Option<thread::JoinHandle<Result<(), JournalError>>>,
}

impl Persister {
    fn spawn(mut writer: JournalWriter, interval: Duration) -> Self {
        let (tx, rx) = mpsc::channel::<PersistMsg>();
        let handle = thread::spawn(move || {
            let mut pending: Vec<Record> = Vec::new();
            let mut state_dirty = false;
            // Deadline of the open commit group; `None` when empty.
            let mut flush_due: Option<Instant> = None;
            loop {
                let msg = match flush_due {
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
                        if let (Some(state), Record::Batch { index, .. }) = (state, &rec) {
                            // By `state_checksum`'s construction, the
                            // record's checksum is exactly
                            // `fnv1a(&encode_state(&state))`.
                            writer.write_slot(*index, &encode_state(&state))?;
                            state_dirty = true;
                        }
                        pending.push(rec);
                        flush_due.get_or_insert_with(|| Instant::now() + interval);
                    }
                    None => {
                        flush_group(&mut writer, &mut pending, &mut state_dirty)?;
                        flush_due = None;
                    }
                }
            }
            // Channel closed: the graceful drain's final flush.
            flush_group(&mut writer, &mut pending, &mut state_dirty)
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

/// How the runner commits records, chosen by [`StateMode`]. Full mode
/// pipelines the heavy state I/O onto the persister thread; checksum-only
/// mode appends its few-dozen-byte records inline (a buffered write on
/// the critical path) and fsyncs on the group-commit interval — for that
/// traffic a thread's per-record wakeups cost more than they hide,
/// especially on single-core hosts where the persister can never overlap
/// compute anyway.
enum Committer {
    Pipelined(Persister),
    Inline {
        writer: JournalWriter,
        interval: Duration,
        /// The open commit group, held in memory until its deadline —
        /// unsynced page-cache bytes were never durable either, so
        /// buffering here changes write-syscall count, not crash
        /// semantics.
        pending: Vec<Record>,
        /// Deadline of the open commit group; `None` when everything
        /// committed so far is fsync'd.
        flush_due: Option<Instant>,
    },
}

impl Committer {
    fn new(writer: JournalWriter, mode: StateMode, interval: Duration) -> Committer {
        match mode {
            StateMode::Full => Committer::Pipelined(Persister::spawn(writer, interval)),
            StateMode::ChecksumOnly => Committer::Inline {
                writer,
                interval,
                pending: Vec::new(),
                flush_due: None,
            },
        }
    }

    /// Hands one record (plus, in full mode, the batch state its sidecar
    /// slot needs) to the journal. `Ok(false)` means the pipelined
    /// persister has died — its error surfaces in [`finish`](Self::finish).
    fn commit(
        &mut self,
        rec: Record,
        state: Option<Arc<Vec<Vec<Complex>>>>,
    ) -> Result<bool, JournalError> {
        match self {
            Committer::Pipelined(p) => Ok(p.send(PersistMsg { rec, state })),
            Committer::Inline {
                writer,
                interval,
                pending,
                flush_due,
            } => {
                pending.push(rec);
                let now = Instant::now();
                if now >= *flush_due.get_or_insert(now + *interval) {
                    let mut no_state = false;
                    flush_group(writer, pending, &mut no_state)?;
                    *flush_due = None;
                }
                Ok(true)
            }
        }
    }

    /// The graceful drain: everything committed becomes durable before
    /// the campaign returns.
    fn finish(self) -> Result<(), JournalError> {
        match self {
            Committer::Pipelined(p) => p.join(),
            Committer::Inline {
                mut writer,
                mut pending,
                ..
            } => {
                let mut no_state = false;
                flush_group(&mut writer, &mut pending, &mut no_state)
            }
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

/// Executes one batch of a campaign plan — the re-entrant core of
/// [`run_campaign`]'s loop, exposed so external schedulers (the
/// `bqsim-serve` fleet) can interleave batches of *different* campaigns
/// while preserving the resume proof.
///
/// The computation is a pure function of the compiled plan and the batch
/// index: with a fault seed, batch `index` draws its plan from
/// `fault_seed ^ index` exactly as [`run_campaign`] does, so the same
/// batch executed here — on any thread, in any order, interleaved with
/// any other tenant's work — produces bit-identical outputs to a serial
/// campaign of the same fingerprint.
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
    let owned = batch.to_vec();
    let one = std::slice::from_ref(&owned);
    let tasks = schedule::tasks_per_batch(sim.gates().len());
    if let Some(seed) = copts.fault_seed {
        let plan = FaultPlan::seeded(
            seed ^ index as u64,
            1,
            tasks,
            ALLOCS_PER_RUN,
            &copts.fault_budget,
        );
        let rec = sim.run_batches_recovering_cancellable(one, &plan, &copts.recovery, cancel)?;
        Ok(ExecutedBatch {
            outputs: rec.run.outputs.into_iter().next().unwrap_or_default(),
            health: rec.health,
        })
    } else {
        let run = sim.run_batches_cancellable(one, cancel)?;
        Ok(ExecutedBatch {
            outputs: run.outputs.into_iter().next().unwrap_or_default(),
            health: RunHealth::new(),
        })
    }
}

/// Computes the campaign's plan [`Fingerprint`].
///
/// The circuit and option hashes are FNV-1a over canonical debug
/// renderings (pure data, no addresses); the input hash covers the raw
/// bit patterns of every amplitude. `threads` and the effective amplitude
/// layout are deliberately excluded from the options hash and carried as
/// their own fields so a mismatch report can name them — the most common
/// way to accidentally change a plan between sessions is `BQSIM_THREADS`
/// or `BQSIM_LAYOUT`.
pub fn plan_fingerprint(
    circuit: &Circuit,
    opts: &BqSimOptions,
    batches: &[Vec<Vec<Complex>>],
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
    let mut inputs = fnv1a(b"inputs");
    for batch in batches {
        for state in batch {
            for z in state {
                inputs = fnv1a_extend(inputs, &z.re.to_bits().to_le_bytes());
                inputs = fnv1a_extend(inputs, &z.im.to_bits().to_le_bytes());
            }
        }
    }
    let (batch_size, amps) = batch_dims(batches);
    Fingerprint {
        circuit: circuit_hash,
        options: fnv1a(opt_repr.as_bytes()),
        inputs,
        // The same content address that names the compile in an artifact
        // store — journals and stores stay correlatable, and a resume
        // refuses a journal whose compile inputs differ even if the
        // circuit/options digests above were to collide.
        artifact: artifact_key(circuit, opts),
        fault_seed,
        threads: opts.threads,
        layout: opts.effective_layout(),
        precision: opts.effective_precision(),
        num_batches: batches.len(),
        batch_size,
        amps,
    }
}

pub(crate) fn batch_dims(batches: &[Vec<Vec<Complex>>]) -> (usize, usize) {
    let batch_size = batches.first().map_or(0, Vec::len);
    let amps = batches.first().and_then(|b| b.first()).map_or(0, Vec::len);
    (batch_size, amps)
}

/// Runs (or resumes) a durable campaign over explicit input batches.
///
/// See the module docs for the execution model. Cancellation — via the
/// deadline, `stop_after`, or an external fire of the token this function
/// creates — is **graceful**: the in-flight batch's partial work is
/// discarded, every journaled record is already fsync'd, and the returned
/// result is marked [`cancelled`](CampaignResult::cancelled) with
/// [`next_pending`](CampaignResult::next_pending) as the resume handle.
///
/// # Errors
///
/// [`CampaignError::Journal`] on journal I/O, corruption, or fingerprint
/// mismatch; [`CampaignError::Sim`] on unrecoverable simulation errors.
///
/// # Panics
///
/// Panics when `opts.exec_mode` is not [`ExecMode::Functional`]: a
/// campaign journals and integrity-checks real amplitudes, which
/// timing-only runs do not produce.
pub fn run_campaign(
    circuit: &Circuit,
    opts: BqSimOptions,
    batches: &[Vec<Vec<Complex>>],
    copts: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    assert!(
        matches!(opts.exec_mode, ExecMode::Functional),
        "campaigns require ExecMode::Functional (timing-only runs have no \
         outputs to journal or integrity-check)"
    );
    let fingerprint = plan_fingerprint(circuit, &opts, batches, copts.fault_seed);
    let run_precision = opts.effective_precision();
    // Store-open failure is durability-infrastructure I/O, same class as
    // a journal that cannot be created.
    let store = match &copts.artifact_dir {
        Some(dir) => Some(ArtifactStore::open(dir).map_err(JournalError::from)?),
        None => None,
    };
    let (sim, compile_source) = match &store {
        Some(store) => {
            let (sim, source) = BqSimulator::compile_or_load(circuit, opts, store)?;
            if let CompileSource::RecompiledCorrupt { warning } = &source {
                eprintln!("warning: artifact store: {warning}; recompiled and republished");
            }
            (sim, Some(source))
        }
        None => (BqSimulator::compile(circuit, opts)?, None),
    };
    let n = batches.len();

    let mut outputs: Vec<Option<Arc<Vec<Vec<Complex>>>>> = (0..n).map(|_| None).collect();
    let mut checksums: Vec<Option<u64>> = vec![None; n];
    let mut outcomes = vec![BatchOutcome::Pending; n];
    let mut resumed = 0usize;
    let mut prior_quarantine: Vec<Option<(String, f64)>> = vec![None; n];

    let mode = if copts.persist_state {
        StateMode::Full
    } else {
        StateMode::ChecksumOnly
    };
    let mut writer: Option<JournalWriter> = None;
    if let Some(path) = &copts.journal_path {
        if copts.resume && path.exists() {
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
            let state = load_journal_state(path, &contents)?;
            for (b, cb) in state.completed.into_iter().enumerate() {
                if let Some(cb) = cb {
                    checksums[b] = Some(cb.checksum);
                    outputs[b] = cb.state.map(Arc::new);
                    outcomes[b] = BatchOutcome::Completed { resumed: true };
                    resumed += 1;
                }
            }
            prior_quarantine = state.quarantined;
            writer = Some(JournalWriter::open_append(path, contents.valid_len, mode)?);
        } else {
            writer = Some(JournalWriter::create(path, &fingerprint, mode)?);
        }
    }
    let mut committer = writer.map(|w| Committer::new(w, mode, copts.commit_interval));

    let cancel = match copts.deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let mut executed = 0usize;
    let mut quarantined = Vec::new();
    let mut cancelled = false;
    let mut health = RunHealth::new();
    let mut precision_retries = 0usize;
    // Built lazily on the first narrow-precision quarantine; shares the
    // compiled gates with `sim` (Arc), so the retry pays execution only.
    let mut f64_retry: Option<BqSimulator> = None;

    for (b, batch_in) in batches.iter().enumerate() {
        if matches!(outcomes[b], BatchOutcome::Completed { .. }) {
            continue;
        }
        if let Some((reason, drift)) = &prior_quarantine[b] {
            if !copts.retry_quarantined {
                outcomes[b] = BatchOutcome::Quarantined {
                    reason: reason.clone(),
                    drift: *drift,
                };
                quarantined.push(b);
                continue;
            }
        }
        if copts.stop_after.is_some_and(|k| executed >= k) {
            cancel.cancel();
        }
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }

        let out = match execute_campaign_batch(&sim, batch_in, b, copts, &cancel) {
            Ok(exec) => {
                health.merge(exec.health);
                exec.outputs
            }
            Err(BqsimError::Cancelled) => {
                cancelled = true;
                break;
            }
            Err(e) => return Err(e.into()),
        };
        executed += 1;

        let mut persist_dead = false;
        match check_batch(batch_in, &out, &copts.integrity) {
            IntegrityVerdict::Ok => {
                // The checksum is part of every campaign's result (it is
                // the digest's input), journaled or not — so it is
                // computed here, uniformly, not in the persister.
                let checksum = state_checksum(&out);
                let out = Arc::new(out);
                if let Some(c) = &mut committer {
                    persist_dead = !c.commit(
                        Record::Batch { index: b, checksum },
                        copts.persist_state.then(|| Arc::clone(&out)),
                    )?;
                }
                checksums[b] = Some(checksum);
                outputs[b] = Some(out);
                outcomes[b] = BatchOutcome::Completed { resumed: false };
            }
            IntegrityVerdict::Quarantine { reason, drift } => {
                // A narrow-precision run that drifted past the budget is
                // not evidence of a broken batch — the budget may simply
                // be tighter than f32 can hold for this circuit. Retry
                // once at the f64 reference before condemning the batch;
                // f64 campaigns quarantine directly as before.
                let mut rescued = false;
                if run_precision != Precision::F64 {
                    let retry_sim =
                        f64_retry.get_or_insert_with(|| sim.with_precision(Precision::F64));
                    let retry_out =
                        match execute_campaign_batch(retry_sim, batch_in, b, copts, &cancel) {
                            Ok(exec) => {
                                health.merge(exec.health);
                                Some(exec.outputs)
                            }
                            Err(BqsimError::Cancelled) => {
                                cancelled = true;
                                None
                            }
                            Err(e) => return Err(e.into()),
                        };
                    if cancelled {
                        // Cancelled mid-retry: the batch stays pending
                        // and a resume re-runs it from scratch.
                        break;
                    }
                    if let Some(retry_out) = retry_out {
                        if matches!(
                            check_batch(batch_in, &retry_out, &copts.integrity),
                            IntegrityVerdict::Ok
                        ) {
                            precision_retries += 1;
                            let checksum = state_checksum(&retry_out);
                            let retry_out = Arc::new(retry_out);
                            if let Some(c) = &mut committer {
                                persist_dead = !c.commit(
                                    Record::Batch { index: b, checksum },
                                    copts.persist_state.then(|| Arc::clone(&retry_out)),
                                )?;
                            }
                            checksums[b] = Some(checksum);
                            outputs[b] = Some(retry_out);
                            outcomes[b] = BatchOutcome::Completed { resumed: false };
                            rescued = true;
                        }
                    }
                }
                if !rescued {
                    if let Some(c) = &mut committer {
                        persist_dead = !c.commit(
                            Record::Quarantine {
                                index: b,
                                reason: reason.to_string(),
                                drift_bits: drift.to_bits(),
                            },
                            None,
                        )?;
                    }
                    outcomes[b] = BatchOutcome::Quarantined {
                        reason: reason.to_string(),
                        drift,
                    };
                    quarantined.push(b);
                }
            }
        }
        if persist_dead {
            // The persister exited early; stop computing and surface its
            // error from the join below.
            break;
        }
    }

    if let Some(c) = committer {
        c.finish()?;
    }

    Ok(CampaignResult {
        outputs: outputs
            .into_iter()
            .map(|o| o.map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone())))
            .collect(),
        checksums,
        outcomes,
        resumed,
        executed,
        quarantined,
        cancelled,
        health,
        compile_source,
        store_stats: store.as_ref().map(ArtifactStore::stats),
        cache_stats: sim.conversion_cache_stats(),
        compile_wall: sim.compile_wall(),
        precision_retries,
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
}
