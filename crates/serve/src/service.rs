//! The multi-tenant campaign service: bounded admission, per-tenant
//! quotas, weighted-fair fleet scheduling, device-loss requeue, and the
//! overload degradation ladder.
//!
//! # Execution model
//!
//! One service *session* ([`run_service`]) admits a list of submissions
//! and drives them to a terminal state over a fleet of `devices` worker
//! threads. The schedulable unit is a **shard** — one campaign batch —
//! and at most one shard per submission is in flight at a time, so each
//! submission's write-ahead journal receives its records in ascending
//! batch order (the same discipline `bqsim run` keeps, which is why a
//! service journal is also a valid `bqsim run --resume` journal and
//! passes the journal-DFA audit).
//!
//! # Admission and the degradation ladder
//!
//! Admission is strictly bounded. In order:
//!
//! 1. The spec is validated and its quota charge computed; overshooting
//!    the tenant's byte or in-flight quota is a structured
//!    [`ServeError::QuotaExceeded`] rejection.
//! 2. Below the `degrade_watermark` queue depth, submissions are admitted
//!    with full-state journaling.
//! 3. At or above the watermark, new admissions are **downgraded** to
//!    checksum-only journaling (cheaper durability; the campaign digest
//!    is unaffected because it is built from checksums either way). Every
//!    downgrade is recorded in the tenant's health account.
//! 4. At capacity, the service tries to **shed** the lowest-priority
//!    queued (never-started) submission of strictly lower weight to make
//!    room; the shed submission terminates with its quota released.
//! 5. If nothing can be shed, the submission is rejected with a
//!    structured [`ServeError::Overloaded`] carrying the observed depth
//!    and a retry-after hint — never buffered without bound.
//!
//! # Fair-share scheduling
//!
//! Each submission carries a virtual time (fixed-point, scale
//! [`VT_SCALE`]). Idle device workers always claim the *runnable
//! submission with minimal virtual time* (ties by admission order) and
//! advance it by `VT_SCALE / weight` — weighted fair queueing, work
//! stealing included, since any worker serves any tenant. New admissions
//! start at the minimum virtual time of the active set, which yields the
//! starvation bound `ceil(W/w) + A + D` that
//! `bqsim analyze --service-schedule` replays from the recorded trace.
//!
//! # Crash safety
//!
//! Admissions append an fsync'd line to the session `manifest` before
//! any shard runs; every completed shard is durably journaled before it
//! is reported. A `kill -9` therefore loses at most in-flight shards;
//! [`ServiceConfig::resume`] replays the manifest, verifies each
//! journal's fingerprint, and re-admits every non-terminal submission —
//! completed shards are skipped and the final digests are bit-identical
//! to an uninterrupted session.

use crate::error::ServeError;
use crate::spec::{SubmitSpec, TenantQuota};
use bqsim_analyze::{ScheduleEvent, ShardOutcome, VT_SCALE};
use bqsim_campaign::checksum::{encode_state, state_checksum};
use bqsim_campaign::{
    campaign_digest, check_batch, execute_campaign_batch, plan_fingerprint, read_journal,
    CampaignOptions, IntegrityVerdict, JournalWriter, Record, StateMode,
};
use bqsim_core::{
    ArtifactStore, BqSimOptions, BqSimulator, BqsimError, CompileSource, RecoveryPolicy, RunHealth,
    StoreStats,
};
use bqsim_faults::{CancelToken, Clock, WallClock};
use bqsim_num::Complex;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Deterministic device-loss injection: device `device` dies when it
/// claims its `after_starts`-th shard (1-based). The in-flight shard is
/// requeued to the survivors with backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLossSpec {
    /// Which fleet device dies.
    pub device: usize,
    /// After how many shard starts on that device (1-based).
    pub after_starts: usize,
}

impl DeviceLossSpec {
    /// Parses `dev=<d>,after=<k>`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] on malformed input.
    pub fn parse(s: &str) -> Result<DeviceLossSpec, ServeError> {
        let mut device = None;
        let mut after = None;
        for part in s.split(',') {
            match part.split_once('=') {
                Some(("dev", v)) => {
                    device =
                        Some(v.parse().map_err(|e| {
                            ServeError::InvalidSpec(format!("device-loss dev: {e}"))
                        })?);
                }
                Some(("after", v)) => {
                    after =
                        Some(v.parse().map_err(|e| {
                            ServeError::InvalidSpec(format!("device-loss after: {e}"))
                        })?);
                }
                _ => {
                    return Err(ServeError::InvalidSpec(format!(
                        "device-loss entry `{part}` (want dev=<d>,after=<k>)"
                    )))
                }
            }
        }
        match (device, after) {
            (Some(device), Some(after_starts)) if after_starts >= 1 => Ok(DeviceLossSpec {
                device,
                after_starts,
            }),
            _ => Err(ServeError::InvalidSpec(
                "device-loss needs dev=<d>,after=<k>, k >= 1".to_string(),
            )),
        }
    }
}

/// Configuration of one service session.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Where the manifest, per-submission journals, and schedule trace
    /// live.
    pub state_dir: PathBuf,
    /// Fleet size (device worker threads).
    pub devices: usize,
    /// Bounded admission-queue capacity (admitted submissions that have
    /// not started their first shard).
    pub queue_capacity: usize,
    /// Queue depth at which new admissions are downgraded to
    /// checksum-only journaling (the ladder's second rung). Defaults to
    /// the queue capacity, i.e. downgrade only when shedding made room.
    pub degrade_watermark: usize,
    /// Quota applied to tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub quotas: BTreeMap<String, TenantQuota>,
    /// Backoff policy for device-loss requeues
    /// ([`RecoveryPolicy::backoff_ns`]) and recovery policy for injected
    /// transient faults.
    pub recovery: RecoveryPolicy,
    /// Bound on device-loss requeues per shard.
    pub max_requeues: u32,
    /// Deterministic device-loss injection, if any.
    pub device_loss: Option<DeviceLossSpec>,
    /// Time source for requeue backoff — [`WallClock`] in production,
    /// `VirtualClock` in deterministic tests.
    pub clock: Arc<dyn Clock>,
    /// Replay the manifest and re-admit non-terminal submissions before
    /// taking new ones.
    pub resume: bool,
    /// Content-addressed circuit-executable store shared by every
    /// admission this session (and, because the store is keyed by
    /// compile inputs, by concurrent sessions pointed at the same
    /// directory). `None` compiles from scratch per admission.
    pub artifact_dir: Option<PathBuf>,
}

impl ServiceConfig {
    /// A config with production defaults rooted at `state_dir`.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            state_dir: state_dir.into(),
            devices: 2,
            queue_capacity: 16,
            degrade_watermark: 16,
            default_quota: TenantQuota::default(),
            quotas: BTreeMap::new(),
            recovery: RecoveryPolicy::default(),
            max_requeues: 3,
            device_loss: None,
            clock: Arc::new(WallClock::new()),
            resume: false,
            artifact_dir: None,
        }
    }
}

/// Terminal state of one submission after a session.
#[derive(Debug)]
pub enum SubmissionOutcome {
    /// Every shard reached a terminal state; `digest` is the campaign
    /// digest over completed shards (identical to a serial
    /// `bqsim run` of the same spec).
    Completed {
        /// FNV-1a fold of completed-shard checksums.
        digest: u64,
        /// Shards executed this session.
        executed: usize,
        /// Shards resumed from the journal.
        resumed: usize,
        /// Shards quarantined by the integrity check.
        quarantined: usize,
        /// Whether the admission was downgraded to checksum-only
        /// journaling by the overload ladder.
        downgraded: bool,
    },
    /// Rejected at admission; the structured error says why
    /// ([`ServeError::Overloaded`], [`ServeError::QuotaExceeded`], or
    /// [`ServeError::InvalidSpec`]).
    Rejected(ServeError),
    /// Shed from the queue by the overload ladder before starting.
    Shed,
    /// Deadline fired; completed shards are journaled and resumable.
    Cancelled {
        /// Shards that completed before the deadline.
        completed: usize,
    },
    /// Unrecoverable failure (simulation, journal, or retry exhaustion).
    Failed {
        /// What happened.
        reason: String,
    },
}

/// One submission's report line.
#[derive(Debug)]
pub struct SubmissionReport {
    /// Tenant name.
    pub tenant: String,
    /// Submission id.
    pub id: String,
    /// How it ended.
    pub outcome: SubmissionOutcome,
}

/// Per-tenant service accounting — the degradation ladder's audit trail.
#[derive(Debug, Default, Clone)]
pub struct TenantHealth {
    /// Submissions admitted.
    pub admitted: u32,
    /// Submissions rejected by the bounded queue.
    pub rejected_overload: u32,
    /// Submissions rejected by quota.
    pub rejected_quota: u32,
    /// Queued submissions shed by the ladder.
    pub shed: u32,
    /// Admissions downgraded to checksum-only journaling.
    pub downgraded: u32,
    /// Submissions completed.
    pub completed: u32,
    /// Submissions cancelled by deadline.
    pub cancelled: u32,
    /// Submissions failed.
    pub failed: u32,
    /// Peak concurrently charged amp-buffer bytes.
    pub peak_bytes: u64,
    /// Merged fault/recovery accounting across the tenant's executed
    /// shards.
    pub faults: RunHealth,
}

/// The result of one service session.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-submission outcomes: re-admitted (resumed) submissions first
    /// in manifest order, then this session's submissions in input
    /// order.
    pub submissions: Vec<SubmissionReport>,
    /// Per-tenant accounting.
    pub tenants: BTreeMap<String, TenantHealth>,
    /// Devices lost during the session.
    pub devices_lost: usize,
    /// Where the schedule trace was written (input to
    /// `bqsim analyze --service-schedule`).
    pub trace_path: PathBuf,
    /// Artifact-store traffic counters for this session's handle, when
    /// [`ServiceConfig::artifact_dir`] was set.
    pub store_stats: Option<StoreStats>,
    /// Admissions whose circuit executable was loaded from the store.
    pub warm_compiles: usize,
    /// Admissions that compiled from scratch (including corrupt-artifact
    /// recompiles).
    pub cold_compiles: usize,
}

impl ServiceReport {
    /// Whether any submission was rejected by the bounded queue.
    pub fn any_overloaded(&self) -> bool {
        self.submissions.iter().any(|s| {
            matches!(
                s.outcome,
                SubmissionOutcome::Rejected(ServeError::Overloaded { .. })
            )
        })
    }

    /// Whether any submission was rejected by quota.
    pub fn any_quota_rejected(&self) -> bool {
        self.submissions.iter().any(|s| {
            matches!(
                s.outcome,
                SubmissionOutcome::Rejected(ServeError::QuotaExceeded { .. })
            )
        })
    }

    /// Whether every submission completed.
    pub fn all_completed(&self) -> bool {
        self.submissions
            .iter()
            .all(|s| matches!(s.outcome, SubmissionOutcome::Completed { .. }))
    }
}

/// Path of the session manifest inside a state dir.
pub fn manifest_path(state_dir: &Path) -> PathBuf {
    state_dir.join("manifest")
}

/// Path of the session schedule trace inside a state dir.
pub fn trace_path(state_dir: &Path) -> PathBuf {
    state_dir.join("schedule.trace")
}

/// Path of a submission's campaign journal inside a state dir.
pub fn journal_path(state_dir: &Path, tenant: &str, id: &str) -> PathBuf {
    state_dir.join(format!("{tenant}__{id}.journal"))
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// One manifest line, replayed on resume and by `bqsim status`.
#[derive(Debug)]
enum ManifestLine {
    Admitted(SubmitSpec, StateMode),
    Done {
        tenant: String,
        id: String,
        digest: u64,
    },
    Shed {
        tenant: String,
        id: String,
    },
    Cancelled {
        tenant: String,
        id: String,
    },
    Failed {
        tenant: String,
        id: String,
        reason: String,
    },
    Rejected {
        tenant: String,
        id: String,
        reason: String,
    },
}

fn mode_token(mode: StateMode) -> &'static str {
    match mode {
        StateMode::Full => "full",
        StateMode::ChecksumOnly => "checksum",
    }
}

fn parse_mode(tok: &str) -> Option<StateMode> {
    match tok {
        "full" => Some(StateMode::Full),
        "checksum" => Some(StateMode::ChecksumOnly),
        _ => None,
    }
}

fn kv_of<'a>(tokens: &'a [&'a str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn parse_manifest_line(line: &str) -> Result<ManifestLine, String> {
    let (kw, rest) = line
        .split_once(' ')
        .ok_or_else(|| format!("bare keyword `{line}`"))?;
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    let tenant_id = || -> Result<(String, String), String> {
        let t = kv_of(&tokens, "tenant").ok_or("missing tenant=")?;
        let i = kv_of(&tokens, "id").ok_or("missing id=")?;
        Ok((t.to_string(), i.to_string()))
    };
    match kw {
        "admitted" => {
            let mode = kv_of(&tokens, "mode")
                .and_then(parse_mode)
                .ok_or("missing or bad mode=")?;
            let spec_line: String = tokens
                .iter()
                .filter(|t| !t.starts_with("mode="))
                .copied()
                .collect::<Vec<_>>()
                .join(" ");
            let spec = SubmitSpec::parse_line(&spec_line).map_err(|e| e.to_string())?;
            Ok(ManifestLine::Admitted(spec, mode))
        }
        "done" => {
            let (tenant, id) = tenant_id()?;
            let digest = kv_of(&tokens, "digest")
                .and_then(|d| u64::from_str_radix(d, 16).ok())
                .ok_or("missing or bad digest=")?;
            Ok(ManifestLine::Done { tenant, id, digest })
        }
        "shed" => {
            let (tenant, id) = tenant_id()?;
            Ok(ManifestLine::Shed { tenant, id })
        }
        "cancelled" => {
            let (tenant, id) = tenant_id()?;
            Ok(ManifestLine::Cancelled { tenant, id })
        }
        "failed" => {
            let (tenant, id) = tenant_id()?;
            let reason = kv_of(&tokens, "reason").unwrap_or("unknown").to_string();
            Ok(ManifestLine::Failed { tenant, id, reason })
        }
        "rejected" => {
            let (tenant, id) = tenant_id()?;
            let reason = kv_of(&tokens, "reason").unwrap_or("unknown").to_string();
            Ok(ManifestLine::Rejected { tenant, id, reason })
        }
        other => Err(format!("unknown manifest keyword `{other}`")),
    }
}

/// Parses a manifest, tolerating a torn (unterminated or unparsable)
/// final line — the crash-safety twin of the journal's torn-tail rule.
fn parse_manifest(text: &str) -> Result<Vec<ManifestLine>, ServeError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let ends_clean = text.is_empty() || text.ends_with('\n');
    for (i, line) in lines.iter().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_manifest_line(line) {
            Ok(m) => out.push(m),
            Err(reason) => {
                let last = i + 1 == lines.len();
                if last {
                    // Torn tail from a hard kill: ignore.
                    break;
                }
                return Err(ServeError::State(format!(
                    "manifest line {}: {reason}",
                    i + 1
                )));
            }
        }
    }
    // A final line without its newline (hard kill mid-append) was either
    // parsed — harmless, its effect is idempotent on replay — or skipped
    // above as the torn tail.
    let _ = ends_clean;
    Ok(out)
}

/// One submission's state as recorded by the manifest.
#[derive(Debug, PartialEq, Eq)]
pub enum StatusState {
    /// Admitted with no terminal record — in flight (or interrupted; a
    /// `--resume` session will pick it up).
    InFlight,
    /// Completed with this campaign digest.
    Done(u64),
    /// Shed by the overload ladder.
    Shed,
    /// Cancelled by deadline.
    Cancelled,
    /// Failed; the string says why.
    Failed(String),
    /// Rejected at admission; the string says why.
    Rejected(String),
}

/// One row of `bqsim status` output.
#[derive(Debug)]
pub struct StatusEntry {
    /// Tenant name.
    pub tenant: String,
    /// Submission id.
    pub id: String,
    /// Manifest-derived state.
    pub state: StatusState,
}

/// Reads a state dir's manifest into per-submission status rows, in
/// first-seen order.
///
/// # Errors
///
/// [`ServeError::State`] when the manifest is unreadable or corrupt past
/// its torn tail.
pub fn read_status(state_dir: &Path) -> Result<Vec<StatusEntry>, ServeError> {
    let path = manifest_path(state_dir);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ServeError::State(format!("{}: {e}", path.display())))?;
    let mut order: Vec<(String, String)> = Vec::new();
    let mut states: BTreeMap<(String, String), StatusState> = BTreeMap::new();
    for line in parse_manifest(&text)? {
        let (key, state) = match line {
            ManifestLine::Admitted(spec, _) => (
                (spec.tenant.clone(), spec.id.clone()),
                StatusState::InFlight,
            ),
            ManifestLine::Done { tenant, id, digest } => ((tenant, id), StatusState::Done(digest)),
            ManifestLine::Shed { tenant, id } => ((tenant, id), StatusState::Shed),
            ManifestLine::Cancelled { tenant, id } => ((tenant, id), StatusState::Cancelled),
            ManifestLine::Failed { tenant, id, reason } => {
                ((tenant, id), StatusState::Failed(reason))
            }
            ManifestLine::Rejected { tenant, id, reason } => {
                ((tenant, id), StatusState::Rejected(reason))
            }
        };
        if !states.contains_key(&key) {
            order.push(key.clone());
        }
        states.insert(key, state);
    }
    Ok(order
        .into_iter()
        .filter_map(|key| {
            states.remove(&key).map(|state| StatusEntry {
                tenant: key.0,
                id: key.1,
                state,
            })
        })
        .collect())
}

// ---------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Phase {
    Runnable,
    Backoff { ready_at_ns: u64 },
    Running,
    Done { digest: u64 },
    Cancelled,
    Shed,
    Failed,
}

impl Phase {
    fn terminal(&self) -> bool {
        matches!(
            self,
            Phase::Done { .. } | Phase::Cancelled | Phase::Shed | Phase::Failed
        )
    }
}

/// The per-submission execution bundle, taken out of the scheduler lock
/// by the claiming worker (one shard in flight per submission makes this
/// exclusive by construction).
struct JobExec {
    sim: BqSimulator,
    inputs: Vec<Vec<Vec<Complex>>>,
    writer: Option<JournalWriter>,
    copts: CampaignOptions,
}

struct Job {
    spec: SubmitSpec,
    weight: u32,
    vt: u64,
    phase: Phase,
    /// Not-yet-terminal shard indices, ascending; the front is next.
    pending: VecDeque<usize>,
    checksums: Vec<Option<u64>>,
    quarantined: Vec<usize>,
    resumed: usize,
    executed: usize,
    /// Device-loss requeue attempts for the shard at the queue front.
    attempts: u32,
    started_any: bool,
    downgraded: bool,
    charged: u64,
    cancel: CancelToken,
    exec: Option<Box<JobExec>>,
    fail_reason: Option<String>,
}

#[derive(Debug, Default)]
struct TenantLedger {
    quota: TenantQuota,
    in_use_bytes: u64,
    inflight: u32,
    health: TenantHealth,
}

struct Core {
    jobs: Vec<Job>,
    tenants: BTreeMap<String, TenantLedger>,
    /// Admitted submissions that have not started a shard — the bounded
    /// queue the ladder protects.
    queued: usize,
    lost: Vec<bool>,
    starts_on_device: Vec<usize>,
    trace: File,
    manifest: File,
    fatal: Option<String>,
    warm_compiles: usize,
    cold_compiles: usize,
}

impl Core {
    fn emit(&mut self, ev: &ScheduleEvent) {
        let mut line = ev.render_line();
        line.push('\n');
        if let Err(e) = self.trace.write_all(line.as_bytes()) {
            self.fatal.get_or_insert(format!("trace write failed: {e}"));
        }
    }

    fn manifest_line(&mut self, line: &str) {
        let res = self
            .manifest
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.manifest.sync_data());
        if let Err(e) = res {
            self.fatal
                .get_or_insert(format!("manifest write failed: {e}"));
        }
    }

    fn ledger(&mut self, tenant: &str, cfg: &ServiceConfig) -> &mut TenantLedger {
        if !self.tenants.contains_key(tenant) {
            let quota = cfg.quotas.get(tenant).copied().unwrap_or(cfg.default_quota);
            self.tenants.insert(
                tenant.to_string(),
                TenantLedger {
                    quota,
                    ..TenantLedger::default()
                },
            );
        }
        // The entry was just ensured above.
        self.tenants
            .get_mut(tenant)
            .unwrap_or_else(|| unreachable!("ledger entry was just inserted"))
    }

    fn all_terminal(&self) -> bool {
        self.jobs.iter().all(|j| j.phase.terminal())
    }

    /// Releases a job's quota charge and emits the `release` event.
    fn release(&mut self, idx: usize) {
        let (tenant, id, charged) = {
            let j = &self.jobs[idx];
            (j.spec.tenant.clone(), j.spec.id.clone(), j.charged)
        };
        if let Some(led) = self.tenants.get_mut(&tenant) {
            led.in_use_bytes = led.in_use_bytes.saturating_sub(charged);
            led.inflight = led.inflight.saturating_sub(1);
        }
        self.emit(&ScheduleEvent::Release {
            tenant,
            id,
            bytes: charged,
        });
    }

    fn finalize_done(&mut self, idx: usize) {
        let digest = campaign_digest(&self.jobs[idx].checksums);
        let (tenant, id) = {
            let j = &mut self.jobs[idx];
            j.phase = Phase::Done { digest };
            (j.spec.tenant.clone(), j.spec.id.clone())
        };
        self.emit(&ScheduleEvent::Done {
            tenant: tenant.clone(),
            id: id.clone(),
            digest,
        });
        self.release(idx);
        self.manifest_line(&format!(
            "done tenant={tenant} id={id} digest={digest:016x}"
        ));
        if let Some(led) = self.tenants.get_mut(&tenant) {
            led.health.completed += 1;
        }
    }

    fn finalize_cancelled(&mut self, idx: usize) {
        let (tenant, id) = {
            let j = &mut self.jobs[idx];
            j.phase = Phase::Cancelled;
            if !j.started_any {
                // Never started: it leaves the bounded queue.
                j.started_any = true;
                self.queued = self.queued.saturating_sub(1);
                (j.spec.tenant.clone(), j.spec.id.clone())
            } else {
                (j.spec.tenant.clone(), j.spec.id.clone())
            }
        };
        self.release(idx);
        self.manifest_line(&format!("cancelled tenant={tenant} id={id}"));
        if let Some(led) = self.tenants.get_mut(&tenant) {
            led.health.cancelled += 1;
        }
    }

    fn finalize_failed(&mut self, idx: usize, reason: String) {
        let (tenant, id) = {
            let j = &mut self.jobs[idx];
            j.phase = Phase::Failed;
            j.fail_reason = Some(reason.clone());
            if !j.started_any {
                j.started_any = true;
                self.queued = self.queued.saturating_sub(1);
            }
            (j.spec.tenant.clone(), j.spec.id.clone())
        };
        self.release(idx);
        let token: String = reason
            .chars()
            .map(|c| if c.is_whitespace() { '-' } else { c })
            .take(120)
            .collect();
        self.manifest_line(&format!("failed tenant={tenant} id={id} reason={token}"));
        if let Some(led) = self.tenants.get_mut(&tenant) {
            led.health.failed += 1;
        }
    }

    fn finalize_shed(&mut self, idx: usize) {
        let (tenant, id) = {
            let j = &mut self.jobs[idx];
            j.phase = Phase::Shed;
            j.started_any = true;
            self.queued = self.queued.saturating_sub(1);
            (j.spec.tenant.clone(), j.spec.id.clone())
        };
        self.emit(&ScheduleEvent::Shed {
            tenant: tenant.clone(),
            id: id.clone(),
        });
        self.release(idx);
        self.manifest_line(&format!("shed tenant={tenant} id={id}"));
        if let Some(led) = self.tenants.get_mut(&tenant) {
            led.health.shed += 1;
        }
    }
}

struct Shared<'a> {
    cfg: &'a ServiceConfig,
    core: Mutex<Core>,
    cv: Condvar,
}

fn lock<'a>(sh: &'a Shared<'_>) -> std::sync::MutexGuard<'a, Core> {
    sh.core.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------

/// Outcome of one admission attempt (before any shard runs).
enum Admission {
    /// Pushed as `jobs[idx]`.
    Admitted(usize),
    Rejected(ServeError),
    /// Resume-time failure (e.g. fingerprint mismatch): recorded
    /// terminally.
    FailedAtAdmit(String),
}

#[allow(clippy::too_many_lines)]
fn admit(
    core: &mut Core,
    cfg: &ServiceConfig,
    store: Option<&ArtifactStore>,
    spec: SubmitSpec,
    readmit: Option<StateMode>,
) -> Admission {
    if let Err(e) = spec.validate() {
        if readmit.is_none() {
            core.manifest_line(&format!(
                "rejected tenant={} id={} reason=invalid",
                spec.tenant, spec.id
            ));
        }
        return Admission::Rejected(e);
    }
    let charged = spec.charged_bytes();
    let is_resume = readmit.is_some();

    // --- Quota gate (new admissions only; re-admissions were already
    // admitted once and must recharge unconditionally so the ledger
    // matches reality).
    if !is_resume {
        let led = core.ledger(&spec.tenant, cfg);
        let quota = led.quota;
        if led.in_use_bytes + charged > quota.max_amp_bytes {
            let err = ServeError::QuotaExceeded {
                tenant: spec.tenant.clone(),
                resource: "amp-bytes",
                requested: charged,
                limit: quota.max_amp_bytes,
                in_use: led.in_use_bytes,
            };
            led.health.rejected_quota += 1;
            core.manifest_line(&format!(
                "rejected tenant={} id={} reason=quota",
                spec.tenant, spec.id
            ));
            return Admission::Rejected(err);
        }
        if led.inflight + 1 > quota.max_inflight {
            let err = ServeError::QuotaExceeded {
                tenant: spec.tenant.clone(),
                resource: "in-flight",
                requested: 1,
                limit: u64::from(quota.max_inflight),
                in_use: u64::from(led.inflight),
            };
            led.health.rejected_quota += 1;
            core.manifest_line(&format!(
                "rejected tenant={} id={} reason=quota",
                spec.tenant, spec.id
            ));
            return Admission::Rejected(err);
        }
        // Precision floor: a tenant pinned to f64 may not submit work
        // below that accuracy rank (narrower than the floor).
        if spec.precision.rank() < quota.min_precision.rank() {
            let err = ServeError::QuotaExceeded {
                tenant: spec.tenant.clone(),
                resource: "precision-floor",
                requested: u64::from(spec.precision.rank()),
                limit: u64::from(quota.min_precision.rank()),
                in_use: 0,
            };
            led.health.rejected_quota += 1;
            core.manifest_line(&format!(
                "rejected tenant={} id={} reason=quota",
                spec.tenant, spec.id
            ));
            return Admission::Rejected(err);
        }
    }

    // --- Bounded-queue ladder (new admissions only).
    let mut mode = StateMode::Full;
    let mut downgraded = false;
    if let Some(m) = readmit {
        mode = m;
        downgraded = matches!(m, StateMode::ChecksumOnly);
    } else {
        if core.queued >= cfg.degrade_watermark {
            mode = StateMode::ChecksumOnly;
            downgraded = true;
        }
        if core.queued >= cfg.queue_capacity {
            // Rung 1: shed the lowest-weight queued submission of
            // strictly lower weight.
            let victim = core
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| {
                    matches!(j.phase, Phase::Runnable)
                        && !j.started_any
                        && j.weight < spec.priority.weight()
                })
                .min_by_key(|(i, j)| (j.weight, *i))
                .map(|(i, _)| i);
            match victim {
                Some(v) => core.finalize_shed(v),
                None => {
                    let depth = core.queued;
                    let err = ServeError::Overloaded {
                        queue_depth: depth,
                        queue_capacity: cfg.queue_capacity,
                        retry_after_ms: 25 * depth as u64,
                    };
                    core.emit(&ScheduleEvent::Reject {
                        tenant: spec.tenant.clone(),
                        id: spec.id.clone(),
                        queue_depth: depth,
                    });
                    core.manifest_line(&format!(
                        "rejected tenant={} id={} reason=overloaded",
                        spec.tenant, spec.id
                    ));
                    core.ledger(&spec.tenant, cfg).health.rejected_overload += 1;
                    return Admission::Rejected(err);
                }
            }
            // Room was made; over the watermark by definition.
            mode = StateMode::ChecksumOnly;
            downgraded = true;
        }
    }

    // --- Build the execution bundle.
    let circuit = match spec.build_circuit() {
        Ok(c) => c,
        Err(e) => return Admission::Rejected(e),
    };
    let opts = BqSimOptions {
        precision: spec.precision,
        ..BqSimOptions::default()
    };
    let inputs = spec.build_inputs();
    let fingerprint = plan_fingerprint(&circuit, &opts, &inputs, spec.fault_seed);
    let sim = match store {
        Some(store) => match BqSimulator::compile_or_load(&circuit, opts, store) {
            Ok((sim, source)) => {
                if let CompileSource::RecompiledCorrupt { warning } = &source {
                    eprintln!(
                        "warning: artifact store (tenant={} id={}): {warning}; \
                         recompiled and republished",
                        spec.tenant, spec.id
                    );
                }
                if source.is_warm() {
                    core.warm_compiles += 1;
                } else {
                    core.cold_compiles += 1;
                }
                sim
            }
            Err(e) => return Admission::FailedAtAdmit(format!("compile failed: {e}")),
        },
        None => match BqSimulator::compile(&circuit, opts) {
            Ok(s) => s,
            Err(e) => return Admission::FailedAtAdmit(format!("compile failed: {e}")),
        },
    };
    let mut copts = CampaignOptions {
        fault_seed: spec.fault_seed,
        recovery: cfg.recovery,
        persist_state: matches!(mode, StateMode::Full),
        ..CampaignOptions::default()
    };
    if spec.fault_seed.is_some() {
        copts.fault_budget = SubmitSpec::fault_budget();
    }

    // --- Journal: create fresh, or verify + reopen on resume.
    let jpath = journal_path(&cfg.state_dir, &spec.tenant, &spec.id);
    let mut checksums: Vec<Option<u64>> = vec![None; spec.batches];
    let mut resumed = 0usize;
    let writer = if is_resume && jpath.exists() {
        let contents = match read_journal(&jpath) {
            Ok(c) => c,
            Err(e) => return Admission::FailedAtAdmit(format!("journal unreadable: {e}")),
        };
        if let Some(field) = fingerprint.mismatch(&contents.fingerprint) {
            return Admission::FailedAtAdmit(format!("journal fingerprint mismatch on {field}"));
        }
        if contents.state_mode != mode {
            return Admission::FailedAtAdmit(
                "journal state mode differs from the manifest's".to_string(),
            );
        }
        for rec in &contents.records {
            if let Record::Batch { index, checksum } = rec {
                if *index < spec.batches && checksums[*index].is_none() {
                    checksums[*index] = Some(*checksum);
                    resumed += 1;
                }
            }
            // Prior-session quarantines stay pending: like
            // `run_campaign`, a resume retries them.
        }
        match JournalWriter::open_append(&jpath, contents.valid_len, mode) {
            Ok(w) => Some(w),
            Err(e) => return Admission::FailedAtAdmit(format!("journal reopen failed: {e}")),
        }
    } else {
        match JournalWriter::create(&jpath, &fingerprint, mode) {
            Ok(w) => Some(w),
            Err(e) => return Admission::FailedAtAdmit(format!("journal create failed: {e}")),
        }
    };

    let pending: VecDeque<usize> = (0..spec.batches)
        .filter(|b| checksums[*b].is_none())
        .collect();

    // --- Charge the ledger and enqueue.
    {
        let led = core.ledger(&spec.tenant, cfg);
        led.in_use_bytes += charged;
        led.inflight += 1;
        led.health.admitted += 1;
        if downgraded {
            led.health.downgraded += 1;
        }
        led.health.peak_bytes = led.health.peak_bytes.max(led.in_use_bytes);
    }
    let (quota_bytes, quota_inflight) = {
        let led = core.ledger(&spec.tenant, cfg);
        (led.quota.max_amp_bytes, led.quota.max_inflight)
    };

    // New admissions start at the active set's minimum virtual time so
    // the starvation bound holds for incumbents (a fresh vt of 0 would
    // let a newcomer monopolize the fleet while it "caught up").
    let vt0 = core
        .jobs
        .iter()
        .filter(|j| !j.phase.terminal())
        .map(|j| j.vt)
        .min()
        .unwrap_or(0);

    let cancel = match spec.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };

    if !is_resume {
        core.manifest_line(&format!(
            "admitted {} mode={}",
            spec.render_line(),
            mode_token(mode)
        ));
    }
    core.emit(&ScheduleEvent::Admit {
        tenant: spec.tenant.clone(),
        id: spec.id.clone(),
        weight: spec.priority.weight(),
        quota_bytes,
        quota_inflight,
        charged_bytes: charged,
        downgraded,
    });

    let job = Job {
        weight: spec.priority.weight(),
        vt: vt0,
        phase: Phase::Runnable,
        pending,
        checksums,
        quarantined: Vec::new(),
        resumed,
        executed: 0,
        attempts: 0,
        started_any: false,
        downgraded,
        charged,
        cancel,
        exec: Some(Box::new(JobExec {
            sim,
            inputs,
            writer,
            copts,
        })),
        fail_reason: None,
        spec,
    };
    core.jobs.push(job);
    core.queued += 1;
    let idx = core.jobs.len() - 1;
    // A submission with nothing pending (fully resumed) is already done.
    if core.jobs[idx].pending.is_empty() {
        core.jobs[idx].started_any = true;
        core.queued = core.queued.saturating_sub(1);
        core.finalize_done(idx);
    }
    Admission::Admitted(idx)
}

// ---------------------------------------------------------------------
// Device workers
// ---------------------------------------------------------------------

enum ShardResult {
    Completed { checksum: u64, health: RunHealth },
    Quarantined,
    Cancelled,
    Failed(String),
}

fn worker(device: usize, sh: &Shared<'_>) {
    let cfg = sh.cfg;
    'serve: loop {
        let mut g = lock(sh);
        let (idx, shard, exec, cancel) = loop {
            if g.fatal.is_some() || g.lost[device] || g.all_terminal() {
                sh.cv.notify_all();
                return;
            }
            let now = cfg.clock.now_ns();
            // Wake expired backoffs and finalize dead-on-arrival
            // (deadline-cancelled) queued jobs.
            for i in 0..g.jobs.len() {
                if let Phase::Backoff { ready_at_ns } = g.jobs[i].phase {
                    if ready_at_ns <= now {
                        g.jobs[i].phase = Phase::Runnable;
                    }
                }
                if matches!(g.jobs[i].phase, Phase::Runnable) && g.jobs[i].cancel.is_cancelled() {
                    g.finalize_cancelled(i);
                }
            }
            // Weighted-fair pick: minimal virtual time, ties by
            // admission order.
            let pick = g
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| matches!(j.phase, Phase::Runnable))
                .min_by_key(|(i, j)| (j.vt, *i))
                .map(|(i, _)| i);
            if let Some(i) = pick {
                let min_vt = g.jobs[i].vt;
                let Some(&shard) = g.jobs[i].pending.front() else {
                    // Defensive: a runnable job always has pending work.
                    g.finalize_done(i);
                    continue;
                };
                if g.jobs[i].started_any {
                    // Already counted out of the queue.
                } else {
                    g.jobs[i].started_any = true;
                    g.queued = g.queued.saturating_sub(1);
                }
                g.jobs[i].phase = Phase::Running;
                let (tenant, id, vt) = {
                    let j = &g.jobs[i];
                    (j.spec.tenant.clone(), j.spec.id.clone(), j.vt)
                };
                g.emit(&ScheduleEvent::Start {
                    tenant,
                    id,
                    device,
                    shard,
                    vt,
                    min_runnable_vt: min_vt,
                });
                g.jobs[i].vt += VT_SCALE / u64::from(g.jobs[i].weight);
                g.starts_on_device[device] += 1;

                // Deterministic device loss: this claim kills the device
                // and requeues the shard to the survivors.
                let dies = cfg.device_loss.is_some_and(|dl| {
                    dl.device == device && g.starts_on_device[device] == dl.after_starts
                });
                if dies {
                    g.lost[device] = true;
                    g.emit(&ScheduleEvent::DeviceLost { device });
                    g.jobs[i].attempts += 1;
                    let attempt = g.jobs[i].attempts;
                    if attempt > cfg.max_requeues {
                        g.finalize_failed(
                            i,
                            format!("device-loss requeue bound ({}) exhausted", cfg.max_requeues),
                        );
                    } else {
                        let backoff = cfg.recovery.backoff_ns(attempt);
                        let (tenant, id) = {
                            let j = &g.jobs[i];
                            (j.spec.tenant.clone(), j.spec.id.clone())
                        };
                        g.emit(&ScheduleEvent::Requeue {
                            tenant,
                            id,
                            shard,
                            attempt,
                            backoff_ns: backoff,
                        });
                        g.jobs[i].phase = Phase::Backoff {
                            ready_at_ns: now + backoff,
                        };
                    }
                    sh.cv.notify_all();
                    return; // this device is gone
                }

                let Some(exec) = g.jobs[i].exec.take() else {
                    g.finalize_failed(i, "execution bundle missing".to_string());
                    continue;
                };
                let cancel = g.jobs[i].cancel.clone();
                break (i, shard, exec, cancel);
            }
            // Nothing runnable. Sleep toward the nearest backoff (the
            // Clock makes this deterministic under VirtualClock), or
            // wait for a finish/requeue notification.
            let next_ready = g
                .jobs
                .iter()
                .filter_map(|j| match j.phase {
                    Phase::Backoff { ready_at_ns } => Some(ready_at_ns),
                    _ => None,
                })
                .min();
            if let Some(ready) = next_ready {
                drop(g);
                let wait = ready.saturating_sub(now).min(5_000_000);
                cfg.clock.sleep_ns(wait.max(1));
                continue 'serve;
            }
            let (g2, _) = sh
                .cv
                .wait_timeout(g, Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner);
            g = g2;
        };
        drop(g);
        // ---- Execute the shard outside the lock.
        let mut exec = exec;
        let batch_in = &exec.inputs[shard];
        let result = match execute_campaign_batch(&exec.sim, batch_in, shard, &exec.copts, &cancel)
        {
            Ok(eb) => match check_batch(batch_in, &eb.outputs, &exec.copts.integrity) {
                IntegrityVerdict::Ok => {
                    let checksum = state_checksum(&eb.outputs);
                    let write = match &mut exec.writer {
                        Some(w) if exec.copts.persist_state => {
                            w.append_batch(shard, checksum, &encode_state(&eb.outputs))
                        }
                        Some(w) => w.append(&Record::Batch {
                            index: shard,
                            checksum,
                        }),
                        None => Ok(()),
                    };
                    match write {
                        Ok(()) => ShardResult::Completed {
                            checksum,
                            health: eb.health,
                        },
                        Err(e) => ShardResult::Failed(format!("journal append failed: {e}")),
                    }
                }
                IntegrityVerdict::Quarantine { reason, drift } => {
                    let write = match &mut exec.writer {
                        Some(w) => w.append(&Record::Quarantine {
                            index: shard,
                            reason: reason.to_string(),
                            drift_bits: drift.to_bits(),
                        }),
                        None => Ok(()),
                    };
                    match write {
                        Ok(()) => ShardResult::Quarantined,
                        Err(e) => ShardResult::Failed(format!("journal append failed: {e}")),
                    }
                }
            },
            Err(BqsimError::Cancelled) => ShardResult::Cancelled,
            Err(e) => ShardResult::Failed(format!("{e}")),
        };

        // ---- Publish the result.
        let mut g = lock(sh);
        let (tenant, id) = {
            let j = &mut g.jobs[idx];
            j.exec = Some(exec);
            j.attempts = 0;
            (j.spec.tenant.clone(), j.spec.id.clone())
        };
        match result {
            ShardResult::Completed { checksum, health } => {
                g.emit(&ScheduleEvent::Finish {
                    tenant: tenant.clone(),
                    id,
                    device,
                    shard,
                    outcome: ShardOutcome::Ok,
                });
                let done = {
                    let j = &mut g.jobs[idx];
                    j.checksums[shard] = Some(checksum);
                    j.pending.pop_front();
                    j.executed += 1;
                    j.phase = Phase::Runnable;
                    j.pending.is_empty()
                };
                if let Some(led) = g.tenants.get_mut(&tenant) {
                    led.health.faults.merge(health);
                }
                if done {
                    g.finalize_done(idx);
                }
            }
            ShardResult::Quarantined => {
                g.emit(&ScheduleEvent::Finish {
                    tenant,
                    id,
                    device,
                    shard,
                    outcome: ShardOutcome::Quarantined,
                });
                let done = {
                    let j = &mut g.jobs[idx];
                    j.pending.pop_front();
                    j.executed += 1;
                    j.quarantined.push(shard);
                    j.phase = Phase::Runnable;
                    j.pending.is_empty()
                };
                if done {
                    g.finalize_done(idx);
                }
            }
            ShardResult::Cancelled => {
                g.emit(&ScheduleEvent::Finish {
                    tenant,
                    id,
                    device,
                    shard,
                    outcome: ShardOutcome::Cancelled,
                });
                g.finalize_cancelled(idx);
            }
            ShardResult::Failed(reason) => {
                g.emit(&ScheduleEvent::Finish {
                    tenant,
                    id,
                    device,
                    shard,
                    outcome: ShardOutcome::Failed,
                });
                g.finalize_failed(idx, reason);
            }
        }
        sh.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Session driver
// ---------------------------------------------------------------------

/// Runs one service session: re-admits non-terminal manifest entries
/// when [`ServiceConfig::resume`] is set, admits `specs` in order
/// through the bounded queue and quota gates, then drives everything to
/// a terminal state over the device fleet.
///
/// # Errors
///
/// [`ServeError::State`] for state-dir/manifest/trace failures and
/// [`ServeError::InvalidSpec`] for an unusable config. Per-submission
/// failures (quota, overload, journal trouble, simulation errors) are
/// *not* session errors — they are reported in the returned
/// [`ServiceReport`].
pub fn run_service(cfg: &ServiceConfig, specs: &[SubmitSpec]) -> Result<ServiceReport, ServeError> {
    if cfg.devices == 0 {
        return Err(ServeError::InvalidSpec("devices must be >= 1".to_string()));
    }
    if cfg.queue_capacity == 0 {
        return Err(ServeError::InvalidSpec(
            "queue-capacity must be >= 1".to_string(),
        ));
    }
    std::fs::create_dir_all(&cfg.state_dir)
        .map_err(|e| ServeError::State(format!("{}: {e}", cfg.state_dir.display())))?;
    // One store handle for the whole session: every admission shares its
    // published executables, and the on-disk lock files single-flight
    // concurrent sessions compiling the same circuit.
    let store = match &cfg.artifact_dir {
        Some(dir) => Some(
            ArtifactStore::open(dir)
                .map_err(|e| ServeError::State(format!("{}: {e}", dir.display())))?,
        ),
        None => None,
    };

    // Resume: collect non-terminal admissions from the manifest before
    // truncating nothing — the manifest only ever appends.
    let mut readmits: Vec<(SubmitSpec, StateMode)> = Vec::new();
    let mut settled: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mpath = manifest_path(&cfg.state_dir);
    if cfg.resume && mpath.exists() {
        let text = std::fs::read_to_string(&mpath)
            .map_err(|e| ServeError::State(format!("{}: {e}", mpath.display())))?;
        let mut open: Vec<(SubmitSpec, StateMode)> = Vec::new();
        for line in parse_manifest(&text)? {
            match line {
                ManifestLine::Admitted(spec, mode) => {
                    settled.remove(&(spec.tenant.clone(), spec.id.clone()));
                    open.retain(|(s, _)| !(s.tenant == spec.tenant && s.id == spec.id));
                    open.push((spec, mode));
                }
                ManifestLine::Done { tenant, id, digest } => {
                    open.retain(|(s, _)| !(s.tenant == tenant && s.id == id));
                    settled.insert((tenant, id), digest);
                }
                ManifestLine::Shed { tenant, id }
                | ManifestLine::Cancelled { tenant, id }
                | ManifestLine::Failed { tenant, id, .. } => {
                    open.retain(|(s, _)| !(s.tenant == tenant && s.id == id));
                    settled.remove(&(tenant, id));
                }
                ManifestLine::Rejected { .. } => {}
            }
        }
        readmits = open;
    }

    let manifest = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&mpath)
        .map_err(|e| ServeError::State(format!("{}: {e}", mpath.display())))?;
    let tpath = trace_path(&cfg.state_dir);
    let trace =
        File::create(&tpath).map_err(|e| ServeError::State(format!("{}: {e}", tpath.display())))?;

    let mut core = Core {
        jobs: Vec::new(),
        tenants: BTreeMap::new(),
        queued: 0,
        lost: vec![false; cfg.devices],
        starts_on_device: vec![0; cfg.devices],
        trace,
        manifest,
        fatal: None,
        warm_compiles: 0,
        cold_compiles: 0,
    };
    core.emit(&ScheduleEvent::Config {
        devices: cfg.devices,
        queue_capacity: cfg.queue_capacity,
        max_retries: cfg.max_requeues,
    });

    // Report slots: Admitted entries resolve to job outcomes after the
    // run; rejections are final immediately.
    enum Slot {
        Job(usize),
        Immediate(SubmissionReport),
    }
    let mut slots: Vec<Slot> = Vec::new();

    for (spec, mode) in readmits {
        let (tenant, id) = (spec.tenant.clone(), spec.id.clone());
        match admit(&mut core, cfg, store.as_ref(), spec, Some(mode)) {
            Admission::Admitted(idx) => slots.push(Slot::Job(idx)),
            Admission::Rejected(e) => slots.push(Slot::Immediate(SubmissionReport {
                tenant,
                id,
                outcome: SubmissionOutcome::Rejected(e),
            })),
            Admission::FailedAtAdmit(reason) => {
                core.manifest_line(&format!(
                    "failed tenant={tenant} id={id} reason=resume-{}",
                    reason
                        .chars()
                        .map(|c| if c.is_whitespace() { '-' } else { c })
                        .take(100)
                        .collect::<String>()
                ));
                slots.push(Slot::Immediate(SubmissionReport {
                    tenant,
                    id,
                    outcome: SubmissionOutcome::Failed { reason },
                }));
            }
        }
    }
    // Resubmitting a command file alongside --resume is idempotent:
    // specs already being readmitted are skipped, specs the manifest
    // records as done report their settled digest without re-running.
    let readmitting: std::collections::BTreeSet<(String, String)> = core
        .jobs
        .iter()
        .map(|j| (j.spec.tenant.clone(), j.spec.id.clone()))
        .collect();
    for spec in specs {
        let (tenant, id) = (spec.tenant.clone(), spec.id.clone());
        if cfg.resume {
            if readmitting.contains(&(tenant.clone(), id.clone())) {
                continue;
            }
            if let Some(&digest) = settled.get(&(tenant.clone(), id.clone())) {
                slots.push(Slot::Immediate(SubmissionReport {
                    tenant,
                    id,
                    outcome: SubmissionOutcome::Completed {
                        digest,
                        executed: 0,
                        resumed: 0,
                        quarantined: 0,
                        downgraded: false,
                    },
                }));
                continue;
            }
        }
        match admit(&mut core, cfg, store.as_ref(), spec.clone(), None) {
            Admission::Admitted(idx) => slots.push(Slot::Job(idx)),
            Admission::Rejected(e) => slots.push(Slot::Immediate(SubmissionReport {
                tenant,
                id,
                outcome: SubmissionOutcome::Rejected(e),
            })),
            Admission::FailedAtAdmit(reason) => {
                core.manifest_line(&format!(
                    "failed tenant={tenant} id={id} reason={}",
                    reason
                        .chars()
                        .map(|c| if c.is_whitespace() { '-' } else { c })
                        .take(100)
                        .collect::<String>()
                ));
                slots.push(Slot::Immediate(SubmissionReport {
                    tenant,
                    id,
                    outcome: SubmissionOutcome::Failed { reason },
                }));
            }
        }
    }

    let shared = Shared {
        cfg,
        core: Mutex::new(core),
        cv: Condvar::new(),
    };
    let shared_ref = &shared;
    std::thread::scope(|s| {
        for d in 0..cfg.devices {
            s.spawn(move || worker(d, shared_ref));
        }
    });

    let mut core = shared
        .core
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    // If every device died with work outstanding, the stragglers fail
    // terminally (their journals remain resumable).
    let stuck: Vec<usize> = core
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| !j.phase.terminal())
        .map(|(i, _)| i)
        .collect();
    for i in stuck {
        core.finalize_failed(i, "no surviving devices".to_string());
    }
    if let Some(f) = core.fatal.take() {
        return Err(ServeError::State(f));
    }

    let submissions = slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Immediate(r) => r,
            Slot::Job(idx) => {
                let j = &core.jobs[idx];
                let outcome = match &j.phase {
                    Phase::Done { digest } => SubmissionOutcome::Completed {
                        digest: *digest,
                        executed: j.executed,
                        resumed: j.resumed,
                        quarantined: j.quarantined.len(),
                        downgraded: j.downgraded,
                    },
                    Phase::Cancelled => SubmissionOutcome::Cancelled {
                        completed: j.checksums.iter().flatten().count(),
                    },
                    Phase::Shed => SubmissionOutcome::Shed,
                    _ => SubmissionOutcome::Failed {
                        reason: j
                            .fail_reason
                            .clone()
                            .unwrap_or_else(|| "unknown failure".to_string()),
                    },
                };
                SubmissionReport {
                    tenant: j.spec.tenant.clone(),
                    id: j.spec.id.clone(),
                    outcome,
                }
            }
        })
        .collect();

    Ok(ServiceReport {
        submissions,
        tenants: core
            .tenants
            .into_iter()
            .map(|(k, v)| (k, v.health))
            .collect(),
        devices_lost: core.lost.iter().filter(|l| **l).count(),
        trace_path: tpath,
        store_stats: store.as_ref().map(ArtifactStore::stats),
        warm_compiles: core.warm_compiles,
        cold_compiles: core.cold_compiles,
    })
}
