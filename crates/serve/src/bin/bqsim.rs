//! `bqsim` — command-line front end: simulate an OpenQASM 2.0 circuit
//! against batches of random input states and report results + timing.
//!
//! ```sh
//! bqsim circuit.qasm --batches 4 --batch-size 64 --shots 1000
//! bqsim --family vqe --qubits 10 --gantt
//! bqsim run --family routing --qubits 6 --journal camp.journal --deadline-ms 5000
//! bqsim run --family routing --qubits 6 --journal camp.journal --resume
//! bqsim analyze --journal camp.journal
//! bqsim submit --submissions jobs.cmd tenant=alice id=j1 qubits=4 batches=3 batch-size=8
//! bqsim serve --state-dir svc --submissions jobs.cmd --devices 2
//! bqsim status --state-dir svc
//! bqsim analyze --service-schedule svc/schedule.trace
//! ```
//!
//! `--threads` (default `BQSIM_THREADS`, else the core count) sets the
//! state lanes per batch: a batch large enough splits its states over up
//! to that many host threads, each running the whole gate chain on its
//! share. It is the only host parallelism, and digests are bit-identical
//! at every value. `serve` shares `BQSIM_THREADS` (else the cores) among
//! its device workers instead.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | success |
//! | 1 | analysis findings, shed/cancelled submissions, or a generic failure |
//! | 2 | usage error (bad flags, malformed spec or circuit) |
//! | 3 | journal error (I/O, corruption, CRC) |
//! | 4 | journal fingerprint mismatch on resume |
//! | 5 | unrecoverable simulation failure |
//! | 6 | service overloaded — bounded queue rejected a submission |
//! | 7 | tenant quota exceeded |

use bqsim_analyze::{check_service_schedule, parse_schedule_trace};
use bqsim_campaign::{
    audit_journal, campaign_digest, stream_campaign, BatchOutcome, CampaignError, CampaignOptions,
    GeneratedInputs, Generator, IntegrityBudget, JournalError, StateMode,
};
use bqsim_core::{
    artifact_key, audit_store, random_input_batch, tune_or_stored, AnalysisReport, ArtifactStore,
    AuditVerdict, BqSimOptions, BqSimulator, CompileSource, CompileWall, FaultBudget, FaultPlan,
    Precision, RecoveryPolicy, RunRequest, SeededDefect, StoreStats, TuneOutcome, TuningSource,
};
use bqsim_gpu::LaunchMode;
use bqsim_qcir::observable::{expectation, sample_counts, PauliString};
use bqsim_qcir::{generators::Family, qasm, Circuit};
use bqsim_serve::{
    check_campaign_shape, read_status, run_service, DeviceLossSpec, ServeError, ServiceConfig,
    StatusState, SubmissionOutcome, SubmitSpec, TenantQuota,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// A CLI failure with a distinct exit code per failure class (see the
/// module docs' exit-code table).
enum CliError {
    /// Exit 1: anything without a more specific class.
    Generic(String),
    /// Exit 2: the invocation itself is wrong.
    Usage(String),
    /// Exit 3: journal I/O, corruption, or CRC damage.
    Journal(String),
    /// Exit 4: a resume hit a journal recorded under a different plan.
    Fingerprint(String),
    /// Exit 5: the simulation failed unrecoverably.
    Sim(String),
    /// Exit 6: the service's bounded admission queue rejected work.
    Overloaded(String),
    /// Exit 7: a tenant quota rejected work.
    Quota(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn code(&self) -> u8 {
        match self {
            CliError::Generic(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Journal(_) => 3,
            CliError::Fingerprint(_) => 4,
            CliError::Sim(_) => 5,
            CliError::Overloaded(_) => 6,
            CliError::Quota(_) => 7,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Generic(m)
            | CliError::Usage(m)
            | CliError::Journal(m)
            | CliError::Fingerprint(m)
            | CliError::Sim(m)
            | CliError::Overloaded(m)
            | CliError::Quota(m) => m,
        }
    }
}

impl From<CampaignError> for CliError {
    fn from(e: CampaignError) -> CliError {
        match e {
            CampaignError::Journal(JournalError::FingerprintMismatch { .. }) => {
                CliError::Fingerprint(e.to_string())
            }
            CampaignError::Journal(_) => CliError::Journal(e.to_string()),
            CampaignError::Sim(_) => CliError::Sim(e.to_string()),
        }
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> CliError {
        match &e {
            ServeError::Overloaded { .. } => CliError::Overloaded(e.to_string()),
            ServeError::QuotaExceeded { .. } => CliError::Quota(e.to_string()),
            ServeError::InvalidSpec(_) => CliError::Usage(e.to_string()),
            ServeError::Journal(JournalError::FingerprintMismatch { .. }) => {
                CliError::Fingerprint(e.to_string())
            }
            ServeError::Journal(_) => CliError::Journal(e.to_string()),
            ServeError::Sim(_) => CliError::Sim(e.to_string()),
            ServeError::State(_) => CliError::Generic(e.to_string()),
        }
    }
}

/// Parsed `--fault-plan` spec: fault counts per kind plus recovery-policy
/// overrides. The actual [`FaultPlan`] is seeded after compilation, when
/// the task count is known.
#[derive(Clone, Default)]
struct FaultArgs {
    seed: Option<u64>,
    kernel: usize,
    copy: usize,
    hang: usize,
    oom: usize,
    loss: usize,
    retries: Option<u32>,
    backoff: Option<u64>,
}

/// How `bqsim analyze` renders its report.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

/// Parsed `--precision`: a concrete precision the run uses as-is, or
/// `auto`, which resolves through the per-circuit tuner (stored record
/// when the artifact store has one, probe sweep otherwise).
#[derive(Clone, Copy, PartialEq, Eq)]
enum PrecisionArg {
    Fixed(Precision),
    Auto,
}

struct Args {
    analyze: bool,
    serve: bool,
    submit: bool,
    status: bool,
    state_dir: Option<PathBuf>,
    submissions: Option<PathBuf>,
    devices: Option<usize>,
    queue_cap: Option<usize>,
    degrade_watermark: Option<usize>,
    max_requeues: Option<u32>,
    device_loss: Option<String>,
    quotas: Vec<String>,
    service_schedule: Option<PathBuf>,
    spec_parts: Vec<String>,
    inject_defect: Option<SeededDefect>,
    format: OutputFormat,
    faults: bool,
    campaign: bool,
    journal: Option<PathBuf>,
    journal_state: StateMode,
    journal_sync_ms: Option<u64>,
    resume: bool,
    artifact_dir: Option<PathBuf>,
    artifact_audit: Option<PathBuf>,
    deadline_ms: Option<u64>,
    stop_after: Option<usize>,
    integrity_budget: Option<f64>,
    fault_plan: Option<FaultArgs>,
    source: Option<String>,
    family: Option<String>,
    qubits: usize,
    batches: usize,
    batch_size: usize,
    tau: usize,
    seed: u64,
    stream: bool,
    skip_fusion: bool,
    gantt: bool,
    shots: usize,
    observable: Option<String>,
    zero_input: bool,
    optimize: bool,
    threads: Option<usize>,
    precision: Option<PrecisionArg>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        analyze: false,
        serve: false,
        submit: false,
        status: false,
        state_dir: None,
        submissions: None,
        devices: None,
        queue_cap: None,
        degrade_watermark: None,
        max_requeues: None,
        device_loss: None,
        quotas: Vec::new(),
        service_schedule: None,
        spec_parts: Vec::new(),
        inject_defect: None,
        format: OutputFormat::Text,
        faults: false,
        campaign: false,
        journal: None,
        journal_state: StateMode::Full,
        journal_sync_ms: None,
        resume: false,
        artifact_dir: None,
        artifact_audit: None,
        deadline_ms: None,
        stop_after: None,
        integrity_budget: None,
        fault_plan: None,
        source: None,
        family: None,
        qubits: 8,
        batches: 2,
        batch_size: 32,
        tau: 2000,
        seed: 42,
        stream: false,
        skip_fusion: false,
        gantt: false,
        shots: 0,
        observable: None,
        zero_input: false,
        optimize: false,
        threads: None,
        precision: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--family" => args.family = Some(value(&mut i)?),
            "--qubits" => args.qubits = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--batches" => args.batches = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--batch-size" => {
                args.batch_size = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--tau" => args.tau = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                let n: usize = value(&mut i)?.parse().map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                args.threads = Some(n);
            }
            "--precision" => {
                let v = value(&mut i)?;
                args.precision = Some(match v.as_str() {
                    "auto" => PrecisionArg::Auto,
                    other => PrecisionArg::Fixed(Precision::parse(other).ok_or_else(|| {
                        format!("--precision must be `f64`, `f32`, or `auto`, got `{v}`")
                    })?),
                });
            }
            "--inject-defect" => {
                let v = value(&mut i)?;
                args.inject_defect = Some(SeededDefect::parse(&v).ok_or_else(|| {
                    format!("--inject-defect must be one of race|journal, got `{v}`")
                })?);
            }
            "--format" => {
                args.format = match value(&mut i)?.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => {
                        return Err(format!("--format must be `text` or `json`, got `{other}`"))
                    }
                }
            }
            "--shots" => args.shots = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--observable" => args.observable = Some(value(&mut i)?),
            "--fault-plan" => args.fault_plan = Some(parse_fault_plan(&value(&mut i)?)?),
            "--journal" => args.journal = Some(PathBuf::from(value(&mut i)?)),
            "--journal-state" => {
                let v = value(&mut i)?;
                args.journal_state = StateMode::parse(&v).ok_or_else(|| {
                    format!("--journal-state must be `full` or `checksum`, got `{v}`")
                })?;
            }
            "--journal-sync-ms" => {
                args.journal_sync_ms = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--resume" => args.resume = true,
            "--artifact-dir" => args.artifact_dir = Some(PathBuf::from(value(&mut i)?)),
            "--artifact" => args.artifact_audit = Some(PathBuf::from(value(&mut i)?)),
            "--deadline-ms" => {
                args.deadline_ms = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--stop-after" => {
                args.stop_after = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--integrity-budget" => {
                args.integrity_budget = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--stream" => args.stream = true,
            "--skip-fusion" => args.skip_fusion = true,
            "--gantt" => args.gantt = true,
            "--zero-input" => args.zero_input = true,
            "--optimize" => args.optimize = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            "--state-dir" => args.state_dir = Some(PathBuf::from(value(&mut i)?)),
            "--submissions" => args.submissions = Some(PathBuf::from(value(&mut i)?)),
            "--devices" => {
                let n: usize = value(&mut i)?.parse().map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("--devices must be at least 1".to_string());
                }
                args.devices = Some(n);
            }
            "--queue-cap" => {
                let n: usize = value(&mut i)?.parse().map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("--queue-cap must be at least 1".to_string());
                }
                args.queue_cap = Some(n);
            }
            "--degrade-watermark" => {
                args.degrade_watermark = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--max-requeues" => {
                args.max_requeues = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--device-loss" => args.device_loss = Some(value(&mut i)?),
            "--quota" => args.quotas.push(value(&mut i)?),
            "--service-schedule" => args.service_schedule = Some(PathBuf::from(value(&mut i)?)),
            "analyze" if !subcommand_chosen(&args) && args.source.is_none() => args.analyze = true,
            "faults" if !subcommand_chosen(&args) && args.source.is_none() => args.faults = true,
            "run" if !subcommand_chosen(&args) && args.source.is_none() => args.campaign = true,
            "serve" if !subcommand_chosen(&args) && args.source.is_none() => args.serve = true,
            "submit" if !subcommand_chosen(&args) && args.source.is_none() => args.submit = true,
            "status" if !subcommand_chosen(&args) && args.source.is_none() => args.status = true,
            part if args.submit && part.contains('=') && !part.starts_with('-') => {
                args.spec_parts.push(part.to_string())
            }
            path if !path.starts_with('-') => args.source = Some(path.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(args)
}

/// Whether a subcommand keyword has already been consumed (subcommands
/// are mutually exclusive and must precede positional arguments).
fn subcommand_chosen(args: &Args) -> bool {
    args.analyze || args.faults || args.campaign || args.serve || args.submit || args.status
}

/// Parses a `--fault-plan` spec like `seed=7,kernel=2,hang=1,oom=1,retries=3`.
/// An empty spec means the default transient mix (2 kernel faults, 1 copy
/// corruption, 1 hang).
fn parse_fault_plan(spec: &str) -> Result<FaultArgs, String> {
    let mut fa = FaultArgs {
        kernel: 2,
        copy: 1,
        hang: 1,
        ..FaultArgs::default()
    };
    if spec.is_empty() || spec == "default" {
        return Ok(fa);
    }
    for part in spec.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("bad fault-plan entry `{part}` (want key=value)"))?;
        let num = || v.parse::<usize>().map_err(|e| format!("{k}: {e}"));
        match k {
            "seed" => fa.seed = Some(v.parse().map_err(|e| format!("seed: {e}"))?),
            "kernel" => fa.kernel = num()?,
            "copy" => fa.copy = num()?,
            "hang" => fa.hang = num()?,
            "oom" => fa.oom = num()?,
            "loss" => fa.loss = num()?,
            "retries" => fa.retries = Some(v.parse().map_err(|e| format!("retries: {e}"))?),
            "backoff" => fa.backoff = Some(v.parse().map_err(|e| format!("backoff: {e}"))?),
            other => return Err(format!("unknown fault-plan key `{other}`")),
        }
    }
    Ok(fa)
}

/// Seeds the plan for `num_batches` batches of `sim`'s schedule and
/// applies any policy overrides from the spec.
fn build_fault_setup(
    fa: &FaultArgs,
    sim: &BqSimulator,
    num_batches: usize,
    default_seed: u64,
) -> (FaultPlan, RecoveryPolicy) {
    let budget = FaultBudget {
        kernel_faults: fa.kernel,
        copy_corruptions: fa.copy,
        hangs: fa.hang,
        ooms: fa.oom,
        device_losses: fa.loss,
    };
    let plan = sim.seeded_fault_plan(fa.seed.unwrap_or(default_seed), num_batches, &budget);
    let mut policy = RecoveryPolicy::default();
    if let Some(r) = fa.retries {
        policy.max_retries = r;
    }
    if let Some(b) = fa.backoff {
        policy.backoff_base_ns = b;
    }
    (plan, policy)
}

fn print_help() {
    println!(
        "bqsim — batch quantum circuit simulator (BQSim reproduction)

USAGE:
    bqsim [circuit.qasm] [OPTIONS]
    bqsim run [OPTIONS] --journal <path>
    bqsim analyze [circuit.qasm] [OPTIONS]
    bqsim analyze --journal <path>
    bqsim analyze --service-schedule <path>
    bqsim faults [OPTIONS]
    bqsim submit --submissions <file> key=value...
    bqsim serve --state-dir <dir> --submissions <file> [OPTIONS]
    bqsim status --state-dir <dir>

SUBCOMMANDS:
    run                  durable campaign: journal every completed batch
                         (write-ahead, fsync'd, checksummed) so the run
                         survives kills and deadlines and resumes
                         bit-identically with --resume; batches failing
                         the numerical-integrity check are quarantined
                         and retried on resume
    analyze              statically check every pipeline artifact (QMDD
                         invariants, NZRV consistency, ELL layout, task-graph
                         races + Fig. 8b conformance) without simulating;
                         with --fault-plan, additionally executes the
                         schedule under the plan and verifies the recovery
                         schedule (attempt discipline, happens-before,
                         buffer hazards); with --journal, audits
                         a campaign journal instead against the
                         header → batch* → final state machine
                         (exactly-once completion, fingerprint/CRC
                         integrity, monotone ordering);
                         exits non-zero on any finding
    faults               fault-injection demo: run fault-free, re-run under
                         a seeded fault plan with recovery enabled, print
                         the health report, and verify transient recovery
                         reproduces the fault-free outputs bit-for-bit
    submit               validate one submission spec (key=value fields:
                         tenant, id, family, qubits, batches, batch-size,
                         seed, fault-seed, priority, deadline-ms,
                         precision) and append it to the --submissions
                         command file
    serve                one multi-tenant service session: admit every
                         spec in --submissions through the bounded queue
                         and per-tenant quotas, schedule shards fair-share
                         across --devices workers, journal every batch,
                         and exit 6/7 (never OOM) when overload/quota
                         rejects work; --resume re-admits interrupted
                         submissions from the state dir bit-identically
    status               render the state dir's manifest: which
                         submissions are done (with digests), in flight,
                         shed, cancelled, failed, or rejected

SERVICE OPTIONS (serve/submit/status):
    --state-dir <dir>    service state: manifest, per-submission journals,
                         schedule trace
    --submissions <f>    command file, one key=value spec per line
                         (# comments and blank lines ignored)
    --devices <n>        fleet size                          [default: 2]
    --queue-cap <n>      bounded admission-queue capacity    [default: 16]
    --degrade-watermark <n> queue depth at which new admissions downgrade
                         to checksum-only journaling [default: queue-cap]
    --max-requeues <n>   device-loss requeues per shard      [default: 3]
    --device-loss <spec> deterministic loss injection: dev=<d>,after=<k>
    --quota <spec>       per-tenant quota override (repeatable):
                         tenant=<name>,bytes=<B>,inflight=<K>,precision=<p>
                         (`precision` pins the tenant's accuracy floor —
                         f64 > f32; below-floor submissions are rejected
                         with exit 7)
    --resume             (serve) replay the manifest and finish every
                         non-terminal submission before taking new work
    --service-schedule <p> (analyze) replay a recorded schedule trace and
                         verify quota accounting, fair picks, the
                         starvation bound, and bounded queue/retries

ARTIFACT STORE:
    --artifact-dir <dir> content-addressed store of compiled circuit
                         executables; (run/serve) load the compile when a
                         valid artifact exists — bit-identical digests,
                         no fusion/conversion work — else compile and
                         publish (atomic tmp+rename, on-disk single
                         flight); corrupt artifacts are quarantined and
                         recompiled with a warning, never fatal;
                         (status) also list the store inventory
    --artifact <dir>     (analyze) audit a store: recompile every entry
                         from its embedded QASM and require bit-exact
                         ELL/DD agreement; exit 1 on corruption/mismatch

EXIT CODES:
    0 success; 1 findings/degraded; 2 usage; 3 journal error;
    4 fingerprint mismatch; 5 simulation failure; 6 overloaded;
    7 quota exceeded

OPTIONS:
    --family <name>      built-in circuit instead of a QASM file
                         (qnn|vqe|portfolio|graph|tsp|routing|supremacy|ghz|qft)
    --precision <p>      amplitude precision, which fixes the layout:
                         `f64` (bit-exact baseline, interleaved AoS
                         kernels), `f32` (narrow storage and arithmetic,
                         planar kernels), or `auto`
                         (empirical per-circuit tuner: applies the
                         artifact store's stored record with zero probes,
                         else probes every valid candidate and — with
                         --artifact-dir — republishes the winner under
                         the same content key; pair with --artifact-dir
                         when journaling so --resume re-resolves the
                         same plan); digests are bit-identical across
                         threads, and f64 ones across tuning; narrow
                         runs that drift past --integrity-budget are
                         quarantined and retried at f64
                         [default: $BQSIM_PRECISION or f64]
    --qubits <n>         width for --family circuits        [default: 8]
    --batches <N>        number of input batches            [default: 2]
    --batch-size <B>     inputs per batch                   [default: 32]
    --tau <edges>        hybrid conversion threshold        [default: 2000]
    --seed <s>           RNG seed for inputs/parameters     [default: 42]
    --threads <n>        state lanes per batch: a batch with at least
                         300,000 MACs per lane splits its states across
                         up to n host threads (bit-identical at every n;
                         1 = one thread; serve gives each of its devices
                         max(1, min(n, cores) / devices) lanes)
                         [default: $BQSIM_THREADS or available cores]
    --inject-defect <d>  (analyze) seed a known defect before checking so
                         the pass that owns it must fire: race (drop a
                         hazard edge; `races`) or journal (a batch
                         completed twice; `journal-exactly-once`)
    --format <f>         (analyze) report format: `text` or `json`
                         [default: text]
    --stream             disable the task graph (stream launches)
    --skip-fusion        disable BQCS-aware gate fusion
    --zero-input         use |0…0> inputs instead of random states
    --optimize           run peephole optimisation before compiling
    --shots <k>          sample k measurements from the first output
    --observable <P>     report <P> (Pauli string, e.g. ZZIZ) per output
    --gantt              print the device schedule as ASCII Gantt
    --journal <path>     (run) write-ahead journal file; (analyze) journal
                         to audit
    --journal-state <m>  (run) what the journal persists per batch:
                         `full` (amplitudes in a state sidecar; resume
                         rematerializes them bit-exactly) or `checksum`
                         (records only; resume skips completed batches
                         and keeps the digest bit-identical) [default: full]
    --journal-sync-ms <t> (run) group-commit window; records are
                         fsync'd at most t ms after their batch completes
                         (0 = every record individually)  [default: 100]
    --resume             (run) resume from --journal instead of starting
                         fresh; the journal's plan fingerprint must match
    --deadline-ms <ms>   (run) wall-clock session budget; on expiry the
                         campaign drains gracefully, leaving a resumable
                         journal
    --stop-after <k>     (run) cancel after k batches execute this session
                         (deterministic interruption, for tests/CI)
    --integrity-budget <d> (run) max |l2(out)-l2(in)| before a batch is
                         quarantined                     [default: 1e-9]
    --fault-plan <spec>  inject a seeded fault plan and recover; <spec> is
                         comma-separated key=value pairs:
                           seed=<u64>    plan seed          [default: --seed]
                           kernel=<n>    transient kernel faults  [default: 2]
                           copy=<n>      ECC-style copy corruptions [default: 1]
                           hang=<n>      task hangs/stragglers    [default: 1]
                           oom=<n>       allocation failures      [default: 0]
                           loss=<n>      whole-device losses      [default: 0]
                           retries=<n>   max retries per task     [default: 3]
                           backoff=<ns>  base retry backoff       [default: 5000]
                         pass `default` for the default transient mix"
    );
}

/// State lanes per batch for this invocation: `--threads` wins, else the
/// `BQSIM_THREADS` / available-parallelism default.
fn effective_threads(args: &Args) -> usize {
    args.threads.unwrap_or_else(bqsim_core::default_threads)
}

/// Amplitude precision for this invocation: `--precision` wins, then
/// `BQSIM_PRECISION` (which may also say `auto`), then the f64 default.
fn effective_precision_arg(args: &Args) -> PrecisionArg {
    if let Some(p) = args.precision {
        return p;
    }
    if let Ok(v) = std::env::var("BQSIM_PRECISION") {
        if v.trim() == "auto" {
            return PrecisionArg::Auto;
        }
    }
    PrecisionArg::Fixed(bqsim_core::default_precision())
}

/// The concrete precision for subcommands that never run the tuner.
fn concrete_precision(args: &Args, ctx: &str) -> Result<Precision, CliError> {
    match effective_precision_arg(args) {
        PrecisionArg::Fixed(p) => Ok(p),
        PrecisionArg::Auto => Err(CliError::usage(format!(
            "--precision auto resolves through the run-time tuner; `{ctx}` \
             needs a concrete precision (f64 or f32)"
        ))),
    }
}

/// `--precision auto`: compile the circuit (warm from the artifact store
/// when one is given), then apply the artifact's stored tuning record —
/// zero probes — or run the probe sweep and republish the winner under
/// the same content key. Prints the one-line tuning provenance.
fn compile_auto_tuned(
    circuit: &Circuit,
    opts: BqSimOptions,
    artifact_dir: Option<&Path>,
    integrity_budget: Option<f64>,
) -> Result<(BqSimulator, TuneOutcome), CliError> {
    let (sim, outcome) = match artifact_dir {
        Some(dir) => {
            let store = ArtifactStore::open(dir)
                .map_err(|e| CliError::Generic(format!("{}: {e}", dir.display())))?;
            let key = artifact_key(circuit, &opts);
            let (mut sim, source) = BqSimulator::compile_or_load(circuit, opts, &store)
                .map_err(|e| CliError::Sim(e.to_string()))?;
            if let CompileSource::RecompiledCorrupt { warning } = &source {
                eprintln!("warning: artifact store: {warning}; recompiled and republished");
            }
            if !source.is_warm() {
                // The campaign that follows loads this publication warm.
                print_compile_wall(sim.compile_wall());
            }
            let outcome = tune_or_stored(
                &mut sim,
                Precision::F32,
                integrity_budget,
                Some((&store, key)),
            )
            .map_err(|e| CliError::Sim(e.to_string()))?;
            (sim, outcome)
        }
        None => {
            let mut sim =
                BqSimulator::compile(circuit, opts).map_err(|e| CliError::Sim(e.to_string()))?;
            let outcome = tune_or_stored(&mut sim, Precision::F32, integrity_budget, None)
                .map_err(|e| CliError::Sim(e.to_string()))?;
            (sim, outcome)
        }
    };
    println!(
        "auto-tuned: {} — {}",
        outcome.record,
        match outcome.source {
            TuningSource::Stored => "stored record, 0 probes".to_string(),
            TuningSource::Probed => format!("{} probe execution(s) measured", outcome.probes),
        },
    );
    Ok((sim, outcome))
}

fn build_circuit(args: &Args) -> Result<Circuit, String> {
    if let Some(path) = &args.source {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return qasm::parse(&text).map_err(|e| e.to_string());
    }
    let token = args.family.as_deref().unwrap_or("vqe");
    let family = Family::from_token(token)
        .ok_or_else(|| format!("unknown family `{token}` (see --help)"))?;
    family.try_build(args.qubits, args.seed)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.code())
        }
    }
}

/// Prints `report` in the requested format and maps it to an exit code
/// (failure on any finding at all — warnings gate too, matching the CI
/// contract that an analyzed artifact is either clean or suspect).
fn emit_report(report: &AnalysisReport, format: OutputFormat) -> ExitCode {
    match format {
        OutputFormat::Json => println!("{}", report.to_json()),
        OutputFormat::Text => print!("{}", report.render_text()),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `bqsim analyze`: run the whole compile pipeline and statically check
/// every artifact it produces (with `--inject-defect`, after seeding that
/// defect); with `--fault-plan`, also verify the executed recovery
/// schedule. Exit code 1 if anything is reported.
fn run_analysis(args: &Args, circuit: &Circuit) -> Result<ExitCode, CliError> {
    let opts = BqSimOptions {
        tau: args.tau,
        skip_fusion: args.skip_fusion,
        threads: effective_threads(args),
        precision: concrete_precision(args, "analyze")?,
        ..BqSimOptions::default()
    };
    let pipeline = bqsim_core::analyze_pipeline(
        circuit,
        &opts,
        args.batches,
        args.batch_size,
        args.integrity_budget,
        args.inject_defect,
    )
    .map_err(|e| CliError::Sim(e.to_string()))?;
    let mut report = pipeline.report;

    // With a fault plan, also execute the schedule under injection and
    // verify the *recovery* schedule introduces no hazards.
    if let Some(fa) = &args.fault_plan {
        let sim = BqSimulator::compile(circuit, opts.clone())
            .map_err(|e| CliError::Sim(e.to_string()))?;
        let (plan, policy) = build_fault_setup(fa, &sim, args.batches, args.seed);
        let diags =
            bqsim_core::analyze_recovery(&sim, args.batches, args.batch_size, &plan, &policy)
                .map_err(|e| CliError::Sim(e.to_string()))?;
        report.push_section(
            "recovery schedule",
            format!("executed under {} injected fault(s)", plan.len()),
            diags,
        );
    }

    Ok(emit_report(&report, args.format))
}

/// `bqsim faults`: the fault-injection demo. Runs the circuit fault-free,
/// re-runs it under a seeded plan with recovery enabled, prints the health
/// report, and (for transient plans) verifies bit-identical recovery.
fn run_faults_demo(args: &Args, circuit: &Circuit) -> Result<ExitCode, CliError> {
    let n = circuit.num_qubits();
    let opts = BqSimOptions {
        tau: args.tau,
        launch_mode: if args.stream {
            LaunchMode::Stream
        } else {
            LaunchMode::Graph
        },
        skip_fusion: args.skip_fusion,
        threads: effective_threads(args),
        precision: concrete_precision(args, "faults")?,
        ..BqSimOptions::default()
    };
    let sim = BqSimulator::compile(circuit, opts).map_err(|e| CliError::Sim(e.to_string()))?;
    let batches: Vec<_> = (0..args.batches)
        .map(|b| random_input_batch(n, args.batch_size, args.seed ^ b as u64))
        .collect();
    let clean = sim
        .run_batches(&batches)
        .map_err(|e| CliError::Sim(e.to_string()))?;
    println!(
        "fault-free run: {} batches x {} inputs in {:.3} ms virtual",
        args.batches,
        args.batch_size,
        clean.timeline.total_ms()
    );

    let fa = args.fault_plan.clone().unwrap_or_else(|| FaultArgs {
        kernel: 2,
        copy: 1,
        hang: 1,
        ..FaultArgs::default()
    });
    let (plan, policy) = build_fault_setup(&fa, &sim, args.batches, args.seed);
    println!(
        "\ninjecting {} fault(s) (seed {}), max {} retries:",
        plan.len(),
        fa.seed.unwrap_or(args.seed),
        policy.max_retries
    );
    for kind in plan.faults() {
        println!("  dev{} {kind:?}", bqsim_faults::DEVICE);
    }

    let rec = sim
        .execute(&RunRequest::batches(&batches).with_faults(&plan, &policy))
        .map_err(|e| CliError::Sim(e.to_string()))?;
    println!(
        "\nfaulted run: {:.3} ms virtual\nhealth: {}",
        rec.timeline.total_ms(),
        rec.health
    );

    if args.gantt {
        println!("device schedule ('x' marks failed attempts):");
        println!("{}", rec.timeline.render_gantt(72));
    }

    let ok = if plan.is_transient() {
        let identical = rec.outputs == clean.outputs;
        println!(
            "recovered outputs bit-identical to fault-free run: {}",
            if identical { "yes" } else { "NO" }
        );
        identical && rec.health.fault_count() == plan.len()
    } else {
        println!(
            "plan is not all-transient; {} batch(es) recomputed via the degradation ladder",
            rec.health.degraded_batches.len()
        );
        true
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `bqsim analyze --journal`: authenticate and conformance-check a
/// campaign journal. Exit code 1 on any error-severity finding or
/// envelope damage (CRC failure, corruption, missing header).
fn run_journal_audit(path: &Path, format: OutputFormat) -> Result<ExitCode, CliError> {
    let diags = audit_journal(path).map_err(|e| CliError::Journal(e.to_string()))?;
    let errors = diags.error_count();
    let mut report = AnalysisReport::new();
    report.push_section(
        "journal state machine",
        format!(
            "journal {}: checked against the header → batch* → final automaton",
            path.display()
        ),
        diags,
    );
    match format {
        OutputFormat::Json => println!("{}", report.to_json()),
        OutputFormat::Text => print!("{}", report.render_text()),
    }
    // Unlike artifact analysis, warnings (pending batches, torn tails) are
    // the normal state of an interrupted-but-resumable journal: only
    // error-severity findings gate the exit code.
    Ok(if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The input batches `--seed` / `--zero-input` name for an `n`-qubit
/// circuit: batch `b` from `seed ^ b`, or every state `|0…0⟩`.
fn input_source(args: &Args, n: usize) -> GeneratedInputs {
    GeneratedInputs {
        generator: if args.zero_input {
            Generator::Zero
        } else {
            Generator::Random { seed: args.seed }
        },
        qubits: n,
        batch_size: args.batch_size,
        num_batches: args.batches,
    }
}

/// `bqsim run`: the durable campaign runner.
fn run_campaign_cmd(args: &Args, circuit: &Circuit) -> Result<ExitCode, CliError> {
    let n = circuit.num_qubits();
    let precision_arg = effective_precision_arg(args);
    let mut opts = BqSimOptions {
        tau: args.tau,
        launch_mode: if args.stream {
            LaunchMode::Stream
        } else {
            LaunchMode::Graph
        },
        skip_fusion: args.skip_fusion,
        threads: effective_threads(args),
        precision: match precision_arg {
            PrecisionArg::Fixed(p) => p,
            // Placeholder until the tuner resolves the record below.
            PrecisionArg::Auto => Precision::F64,
        },
        ..BqSimOptions::default()
    };
    // Pulled one batch at a time as the campaign runs it.
    let inputs = input_source(args, n);

    let mut copts = CampaignOptions {
        journal_path: args.journal.clone(),
        resume: args.resume,
        deadline: args.deadline_ms.map(Duration::from_millis),
        stop_after: args.stop_after,
        persist_state: args.journal_state == StateMode::Full,
        artifact_dir: args.artifact_dir.clone(),
        ..CampaignOptions::default()
    };
    if let Some(ms) = args.journal_sync_ms {
        copts.commit_interval = Duration::from_millis(ms);
    }
    if let Some(d) = args.integrity_budget {
        copts.integrity = IntegrityBudget { max_norm_drift: d };
    }
    if let Some(fa) = &args.fault_plan {
        copts.fault_seed = Some(fa.seed.unwrap_or(args.seed));
        copts.fault_budget = FaultBudget {
            kernel_faults: fa.kernel,
            copy_corruptions: fa.copy,
            hangs: fa.hang,
            ooms: fa.oom,
            device_losses: fa.loss,
        };
        if let Some(r) = fa.retries {
            copts.recovery.max_retries = r;
        }
        if let Some(b) = fa.backoff {
            copts.recovery.backoff_base_ns = b;
        }
    }

    if precision_arg == PrecisionArg::Auto {
        let (_, outcome) = compile_auto_tuned(
            circuit,
            opts.clone(),
            args.artifact_dir.as_deref(),
            Some(copts.integrity.max_norm_drift),
        )?;
        opts.precision = outcome.record.precision;
        opts.use_pattern = outcome.record.use_pattern;
    }
    let threads = opts.threads.max(1);
    let (precision, layout) = (opts.effective_precision(), opts.effective_layout());
    let result = stream_campaign(circuit, opts, inputs, &copts).map_err(CliError::from)?;
    println!(
        "execution: precision={} layout={} threads={threads} {} ({})",
        precision.token(),
        layout.token(),
        render_lanes(&result.state_shares),
        match precision_arg {
            PrecisionArg::Auto => "auto-tuned",
            PrecisionArg::Fixed(_) => "requested",
        },
    );
    println!(
        "campaign: {} batches x {} inputs — {} resumed from journal, {} executed, \
         {} quarantined, {} retried at f64",
        args.batches,
        args.batch_size,
        result.resumed,
        result.executed,
        result.quarantined.len(),
        result.precision_retries,
    );
    for b in &result.quarantined {
        if let BatchOutcome::Quarantined { reason, drift } = &result.outcomes[*b] {
            println!("  quarantined batch {b}: {reason} (drift {drift:.3e})");
        }
    }
    if result.health.fault_count() > 0 {
        println!("health: {}", result.health);
    }
    if result.cancelled {
        let next = result.next_pending().unwrap_or(args.batches);
        println!(
            "campaign interrupted before batch {next}; journal is resumable \
             (re-run with --resume)"
        );
    }
    let cache = result.cache_stats;
    println!(
        "conversion cache: {} hit(s) / {} miss(es) / {} eviction(s)",
        cache.hits, cache.misses, cache.evictions
    );
    if !matches!(result.compile_source, Some(CompileSource::Warm)) {
        print_compile_wall(result.compile_wall);
    }
    if let Some(source) = &result.compile_source {
        println!(
            "artifact store: {} compile — {}",
            compile_source_label(source),
            render_store_stats(result.store_stats.unwrap_or_default()),
        );
    }
    if result.is_complete() {
        println!(
            "campaign digest: {:016x}",
            campaign_digest(&result.checksums)
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The state lanes a batch ran on: `lanes=2 (16+16 states)`.
fn render_lanes(shares: &[usize]) -> String {
    let states: Vec<String> = shares.iter().map(usize::to_string).collect();
    format!("lanes={} ({} states)", shares.len(), states.join("+"))
}

/// Where a cold start's host time went (a warm start compiled nothing,
/// so callers skip it there).
fn print_compile_wall(wall: CompileWall) {
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "compile: fusion {:.1} ms conversion {:.1} ms publish {:.1} ms",
        ms(wall.fusion_ns),
        ms(wall.conversion_ns),
        ms(wall.publish_ns),
    );
}

/// One-word provenance tag for a campaign/service compile.
fn compile_source_label(source: &CompileSource) -> &'static str {
    match source {
        CompileSource::Warm => "warm",
        CompileSource::Cold { .. } => "cold",
        CompileSource::RecompiledCorrupt { .. } => "recompiled",
    }
}

/// Renders the artifact-store traffic counters on one line.
fn render_store_stats(s: StoreStats) -> String {
    format!(
        "{} hit(s) / {} miss(es) / {} corrupt / {} published / {} eviction(s)",
        s.hits, s.misses, s.corrupt, s.published, s.evictions
    )
}

/// `bqsim serve`: one multi-tenant service session over a submissions
/// command file. The exit code reports the worst thing that happened:
/// overload rejections (6) and quota rejections (7) dominate, then
/// failures (5), then shed/cancelled work (1).
fn run_serve(args: &Args) -> Result<ExitCode, CliError> {
    let state_dir = args
        .state_dir
        .clone()
        .ok_or_else(|| CliError::usage("serve needs --state-dir <dir>"))?;
    let mut cfg = ServiceConfig::new(state_dir);
    if let Some(d) = args.devices {
        cfg.devices = d;
    }
    if let Some(c) = args.queue_cap {
        cfg.queue_capacity = c;
        cfg.degrade_watermark = c;
    }
    if let Some(w) = args.degrade_watermark {
        cfg.degrade_watermark = w;
    }
    if let Some(m) = args.max_requeues {
        cfg.max_requeues = m;
    }
    if let Some(dl) = &args.device_loss {
        cfg.device_loss =
            Some(DeviceLossSpec::parse(dl).map_err(|e| CliError::usage(e.to_string()))?);
    }
    for q in &args.quotas {
        let (tenant, quota) = parse_quota(q).map_err(CliError::usage)?;
        cfg.quotas.insert(tenant, quota);
    }
    cfg.resume = args.resume;
    cfg.artifact_dir = args.artifact_dir.clone();

    let mut specs = Vec::new();
    if let Some(path) = &args.submissions {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::usage(format!("{}: {e}", path.display())))?;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let spec = SubmitSpec::parse_line(line)
                .map_err(|e| CliError::usage(format!("{} line {}: {e}", path.display(), i + 1)))?;
            specs.push(spec);
        }
    }
    if specs.is_empty() && !cfg.resume {
        return Err(CliError::usage(
            "serve needs --submissions <file> with at least one spec (or --resume)",
        ));
    }

    let report = run_service(&cfg, &specs).map_err(CliError::from)?;
    println!(
        "workers: {} device(s) x {} state lane(s)",
        cfg.devices, report.lanes_per_worker
    );

    let mut overloaded = 0usize;
    let mut quota_rejected = 0usize;
    let mut failed = 0usize;
    let mut degraded = 0usize;
    for sub in &report.submissions {
        match &sub.outcome {
            SubmissionOutcome::Completed {
                digest,
                executed,
                resumed,
                quarantined,
                downgraded,
            } => println!(
                "{}/{}: completed digest={digest:016x} executed={executed} \
                 resumed={resumed} quarantined={quarantined} downgraded={}",
                sub.tenant,
                sub.id,
                u8::from(*downgraded),
            ),
            SubmissionOutcome::Rejected(e) => {
                match e {
                    ServeError::Overloaded { .. } => overloaded += 1,
                    ServeError::QuotaExceeded { .. } => quota_rejected += 1,
                    _ => failed += 1,
                }
                println!("{}/{}: rejected ({e})", sub.tenant, sub.id);
            }
            SubmissionOutcome::Shed => {
                degraded += 1;
                println!("{}/{}: shed by the overload ladder", sub.tenant, sub.id);
            }
            SubmissionOutcome::Cancelled { completed } => {
                degraded += 1;
                println!(
                    "{}/{}: cancelled by deadline ({completed} batch(es) journaled)",
                    sub.tenant, sub.id
                );
            }
            SubmissionOutcome::Failed { reason } => {
                failed += 1;
                println!("{}/{}: failed ({reason})", sub.tenant, sub.id);
            }
        }
    }
    for (tenant, h) in &report.tenants {
        println!(
            "tenant {tenant}: admitted={} completed={} downgraded={} shed={} \
             rejected-overload={} rejected-quota={} cancelled={} failed={} peak-bytes={}",
            h.admitted,
            h.completed,
            h.downgraded,
            h.shed,
            h.rejected_overload,
            h.rejected_quota,
            h.cancelled,
            h.failed,
            h.peak_bytes,
        );
    }
    if report.devices_lost > 0 {
        println!(
            "devices lost: {} of {} (shards requeued to survivors)",
            report.devices_lost, cfg.devices
        );
    }
    if let Some(stats) = report.store_stats {
        println!(
            "artifact store: {} warm / {} cold compile(s) — {}",
            report.warm_compiles,
            report.cold_compiles,
            render_store_stats(stats),
        );
    }
    println!("schedule trace: {}", report.trace_path.display());

    Ok(if overloaded > 0 {
        ExitCode::from(6)
    } else if quota_rejected > 0 {
        ExitCode::from(7)
    } else if failed > 0 {
        ExitCode::from(5)
    } else if degraded > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Parses a `--quota` spec:
/// `tenant=<name>,bytes=<B>,inflight=<K>,precision=<p>` (any limit may
/// be omitted to keep the default; `precision` is the tenant's accuracy
/// floor — submissions below it are rejected with exit 7).
fn parse_quota(spec: &str) -> Result<(String, TenantQuota), String> {
    let mut tenant = None;
    let mut quota = TenantQuota::default();
    for part in spec.split(',') {
        match part.split_once('=') {
            Some(("tenant", v)) => tenant = Some(v.to_string()),
            Some(("bytes", v)) => {
                quota.max_amp_bytes = v.parse().map_err(|e| format!("quota bytes: {e}"))?;
            }
            Some(("inflight", v)) => {
                quota.max_inflight = v.parse().map_err(|e| format!("quota inflight: {e}"))?;
            }
            Some(("precision", v)) => {
                quota.min_precision = Precision::parse(v)
                    .ok_or_else(|| format!("quota precision: want f64 or f32, got `{v}`"))?;
            }
            _ => {
                return Err(format!(
                    "bad quota entry `{part}` (want \
                     tenant=<name>,bytes=<B>,inflight=<K>,precision=<p>)"
                ))
            }
        }
    }
    let tenant = tenant.ok_or("quota needs tenant=<name>")?;
    Ok((tenant, quota))
}

/// `bqsim submit`: validate a submission spec and append it to the
/// command file a later `bqsim serve` session will admit from.
fn run_submit(args: &Args) -> Result<ExitCode, CliError> {
    let path = args
        .submissions
        .clone()
        .ok_or_else(|| CliError::usage("submit needs --submissions <file>"))?;
    if args.spec_parts.is_empty() {
        return Err(CliError::usage(
            "submit needs a spec: tenant=<t> id=<i> qubits=<n> batches=<N> batch-size=<B> …",
        ));
    }
    let spec = SubmitSpec::parse_line(&args.spec_parts.join(" "))
        .map_err(|e| CliError::usage(e.to_string()))?;
    let mut line = spec.render_line();
    line.push('\n');
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| CliError::Generic(format!("{}: {e}", path.display())))?;
    f.write_all(line.as_bytes())
        .and_then(|()| f.sync_data())
        .map_err(|e| CliError::Generic(format!("{}: {e}", path.display())))?;
    println!(
        "submitted {}/{} to {}",
        spec.tenant,
        spec.id,
        path.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// `bqsim status`: render the service manifest's per-submission states
/// and/or the artifact store's executable inventory.
fn run_status(args: &Args) -> Result<ExitCode, CliError> {
    if args.state_dir.is_none() && args.artifact_dir.is_none() {
        return Err(CliError::usage(
            "status needs --state-dir <dir> and/or --artifact-dir <dir>",
        ));
    }
    if let Some(state_dir) = &args.state_dir {
        let entries = read_status(state_dir).map_err(CliError::from)?;
        if entries.is_empty() {
            println!("no submissions recorded in {}", state_dir.display());
        }
        for e in &entries {
            let state = match &e.state {
                StatusState::InFlight => "in-flight (resumable)".to_string(),
                StatusState::Done(digest) => format!("done digest={digest:016x}"),
                StatusState::Shed => "shed".to_string(),
                StatusState::Cancelled => "cancelled".to_string(),
                StatusState::Failed(reason) => format!("failed ({reason})"),
                StatusState::Rejected(reason) => format!("rejected ({reason})"),
            };
            println!("{}/{}: {state}", e.tenant, e.id);
        }
    }
    if let Some(dir) = &args.artifact_dir {
        let store = ArtifactStore::open(dir)
            .map_err(|e| CliError::Generic(format!("{}: {e}", dir.display())))?;
        let entries = store
            .entries()
            .map_err(|e| CliError::Generic(format!("{}: {e}", dir.display())))?;
        let total: u64 = entries.iter().map(|e| e.bytes).sum();
        println!(
            "artifact store {}: {} executable(s), {} byte(s)",
            dir.display(),
            entries.len(),
            total,
        );
        for e in &entries {
            // Peek the tuning record without the load path's
            // corrupt-unlink side effect: status reports, never repairs.
            let tuning = std::fs::read(&e.path)
                .ok()
                .and_then(|bytes| bqsim_core::decode_artifact(&bytes, Some(e.key)).ok())
                .map(|a| match a.tuning {
                    Some(rec) => format!("tuned: {rec}"),
                    None => "untuned (next `--precision auto` load probes)".to_string(),
                })
                .unwrap_or_else(|| "unreadable (quarantined on next load)".to_string());
            println!(
                "  {:016x}  v{}  {:>10} bytes  {tuning}",
                e.key, e.version, e.bytes
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `bqsim analyze --artifact`: recompile every stored circuit executable
/// from its embedded QASM and verify bit-exact agreement with the stored
/// ELL/DD payloads. Exit 1 on any corrupt or diverging artifact.
fn run_artifact_audit(dir: &Path, format: OutputFormat) -> Result<ExitCode, CliError> {
    let audit =
        audit_store(dir).map_err(|e| CliError::Generic(format!("{}: {e}", dir.display())))?;
    let mut diags = bqsim_analyze::Diagnostics::new();
    let mut gates = 0usize;
    for e in &audit.entries {
        match &e.verdict {
            AuditVerdict::Ok { gates: g, .. } => gates += g,
            AuditVerdict::Corrupt(why) => {
                diags.error("artifact-store", format!("{:016x}", e.key), why.clone());
            }
            AuditVerdict::Mismatch(why) => {
                diags.error("artifact-store", format!("{:016x}", e.key), why.clone());
            }
        }
    }
    let mut report = AnalysisReport::new();
    report.push_section(
        "artifact store",
        format!(
            "store {}: {} executable(s) recompiled from embedded QASM \
             ({} ok / {} corrupt / {} mismatched, {} fused gate(s) cross-checked)",
            dir.display(),
            audit.entries.len(),
            audit.ok(),
            audit.corrupt(),
            audit.mismatch(),
            gates,
        ),
        diags,
    );
    Ok(emit_report(&report, format))
}

/// `bqsim analyze --service-schedule`: replay a recorded schedule trace
/// through the scheduler-invariant checker (quota accounting, fair
/// picks, the starvation bound, bounded queue/retries, device-loss
/// placement). Exit 1 on any finding.
fn run_schedule_check(path: &Path, format: OutputFormat) -> Result<ExitCode, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Generic(format!("{}: {e}", path.display())))?;
    let events = parse_schedule_trace(&text)
        .map_err(|e| CliError::Generic(format!("{}: {e}", path.display())))?;
    let diags = check_service_schedule(&events);
    let mut report = AnalysisReport::new();
    report.push_section(
        "service schedule",
        format!(
            "trace {}: replayed {} event(s) against admission, quota, \
             fair-share, starvation, and retry invariants",
            path.display(),
            events.len()
        ),
        diags,
    );
    Ok(emit_report(&report, format))
}

fn run() -> Result<ExitCode, CliError> {
    // A misspelt or retired `BQSIM_*` token must not silently run the
    // defaults: the library's `default_*()` fall back, so refuse here.
    bqsim_core::validate_env().map_err(CliError::Usage)?;
    let args = parse_args().map_err(CliError::Usage)?;
    if args.serve {
        return run_serve(&args);
    }
    if args.submit {
        return run_submit(&args);
    }
    if args.status {
        return run_status(&args);
    }
    if args.analyze {
        if let Some(trace) = args.service_schedule.clone() {
            return run_schedule_check(&trace, args.format);
        }
        if let Some(journal) = args.journal.clone() {
            return run_journal_audit(&journal, args.format);
        }
        if let Some(dir) = args.artifact_audit.clone() {
            return run_artifact_audit(&dir, args.format);
        }
    }
    let mut circuit = build_circuit(&args).map_err(CliError::Usage)?;
    // The bounds a service submission is held to, before any input or
    // schedule exists: an empty batch or a 2^40-amplitude state is a
    // usage error, not a panic, an allocation abort, or a clean report
    // over nothing. Checked on the built circuit so QASM widths count.
    check_campaign_shape(circuit.num_qubits(), args.batches, args.batch_size)
        .map_err(CliError::Usage)?;
    if args.analyze {
        return run_analysis(&args, &circuit);
    }
    if args.faults {
        return run_faults_demo(&args, &circuit);
    }
    if args.campaign {
        return run_campaign_cmd(&args, &circuit);
    }
    if args.optimize {
        let (opt, stats) = bqsim_qcir::optimize::optimize(&circuit);
        println!(
            "peephole optimisation: {} -> {} gates ({} cancelled, {} merged)",
            stats.gates_before, stats.gates_after, stats.pairs_cancelled, stats.rotations_merged
        );
        circuit = opt;
    }
    let n = circuit.num_qubits();
    println!(
        "circuit: {} — {} qubits, {} gates, depth {}",
        if circuit.name().is_empty() {
            "<qasm>"
        } else {
            circuit.name()
        },
        n,
        circuit.num_gates(),
        circuit.depth()
    );

    let precision_arg = effective_precision_arg(&args);
    let opts = BqSimOptions {
        tau: args.tau,
        launch_mode: if args.stream {
            LaunchMode::Stream
        } else {
            LaunchMode::Graph
        },
        skip_fusion: args.skip_fusion,
        threads: effective_threads(&args),
        precision: match precision_arg {
            PrecisionArg::Fixed(p) => p,
            // Placeholder; the tuner picks the real precision below.
            PrecisionArg::Auto => Precision::F64,
        },
        ..BqSimOptions::default()
    };
    let sim = match precision_arg {
        PrecisionArg::Auto => {
            compile_auto_tuned(
                &circuit,
                opts,
                args.artifact_dir.as_deref(),
                args.integrity_budget,
            )?
            .0
        }
        PrecisionArg::Fixed(_) => {
            BqSimulator::compile(&circuit, opts).map_err(|e| CliError::Sim(e.to_string()))?
        }
    };
    println!(
        "compiled: {} fused gates, {} MAC/input, fusion {:.3} ms + conversion {:.3} ms (virtual)",
        sim.gates().len(),
        sim.mac_per_input(),
        sim.compile_breakdown().fusion_ns as f64 / 1e6,
        sim.compile_breakdown().conversion_ns as f64 / 1e6,
    );
    let resolved = sim.resolved_options();
    println!(
        "execution: precision={} layout={} threads={} {} pattern={} ({})",
        resolved.precision.token(),
        resolved.layout.token(),
        resolved.threads,
        render_lanes(&sim.state_shares(args.batch_size)),
        if resolved.use_pattern { "on" } else { "off" },
        match precision_arg {
            PrecisionArg::Auto => "auto-tuned",
            PrecisionArg::Fixed(_) => "requested",
        },
    );

    let source = input_source(&args, n);
    let batches: Vec<_> = (0..args.batches).map(|b| source.batch(b)).collect();
    let faults = args
        .fault_plan
        .as_ref()
        .map(|fa| build_fault_setup(fa, &sim, args.batches, args.seed));
    let result = sim
        .execute(&RunRequest {
            faults: faults.as_ref().map(|(plan, policy)| (plan, policy)),
            ..RunRequest::batches(&batches)
        })
        .map_err(|e| CliError::Sim(e.to_string()))?;
    if let Some((plan, _)) = &faults {
        println!(
            "injected {} fault(s); health: {}",
            plan.len(),
            result.health
        );
    }
    println!(
        "simulated {} inputs in {:.3} ms virtual device time ({:.0} W GPU avg)",
        args.batches * args.batch_size,
        result.timeline.total_ms(),
        result.power.gpu_w,
    );
    let pool = sim.pool_stats();
    println!(
        "buffer pool: {} hit(s) / {} miss(es), {:.3} MiB idle across {} buffer(s)",
        pool.hits,
        pool.misses,
        pool.idle_bytes as f64 / (1024.0 * 1024.0),
        pool.idle_buffers,
    );

    if args.gantt {
        println!("\ndevice schedule:\n{}", result.timeline.render_gantt(72));
    }

    if let Some(p) = &args.observable {
        let obs = PauliString::parse(p)
            .map_err(|c| CliError::usage(format!("bad Pauli `{c}` in {p}")))?;
        let first = result.outputs.first().filter(|b| !b.is_empty()).ok_or_else(|| {
            CliError::usage("--observable needs at least one batch with one input (see --batches/--batch-size)")
        })?;
        let values: Vec<f64> = first.iter().map(|s| expectation(&obs, s)).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        println!("<{obs}> over batch 0: mean {mean:+.6}");
    }

    if args.shots > 0 {
        let first_state = result
            .outputs
            .first()
            .and_then(|b| b.first())
            .ok_or_else(|| {
                CliError::usage(
                    "--shots needs at least one batch with one input (see --batches/--batch-size)",
                )
            })?;
        let mut rng = SmallRng::seed_from_u64(args.seed);
        let counts = sample_counts(first_state, args.shots, &mut rng);
        println!("\ntop outcomes of output state 0 ({} shots):", args.shots);
        let mut ranked: Vec<(usize, usize)> = counts
            .into_iter()
            .enumerate()
            .filter(|(_, c)| *c > 0)
            .collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
        for (state, count) in ranked.into_iter().take(8) {
            println!("  |{state:0width$b}⟩  {count}", width = n);
        }
    }
    Ok(ExitCode::SUCCESS)
}
