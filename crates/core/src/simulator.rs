//! The top-level BQSim simulator API.

use crate::convert::{ConversionMethod, ConvertedGate, EllCache, EllCacheStats, HybridConverter};
use crate::error::BqsimError;
use crate::executor::{BatchExecutor, RUN_ALLOC_SITES};
use crate::fusion::{self, FusedGate};
use crate::schedule;
use bqsim_ell::{Layout, Precision};
use bqsim_faults::{CancelToken, FaultBudget, FaultPlan, RecoveryPolicy, RunHealth};
use bqsim_gpu::power::PowerReport;
use bqsim_gpu::{BufferPool, CpuSpec, DeviceSpec, ExecMode, LaunchMode, PoolStats, Timeline};
use bqsim_num::Complex;
use bqsim_qcir::{dense, Circuit};
use bqsim_qdd::gates::lower_circuit;
use bqsim_qdd::DdPackage;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Virtual nanoseconds charged per DD operation (node construction or
/// compute-cache miss) when modelling the fusion stage: a hash probe, a
/// unique-table insert, and a few interned-complex multiplies.
const FUSION_NS_PER_DD_OP: u64 = 60;

/// Configuration of a BQSim compilation.
#[derive(Debug, Clone)]
pub struct BqSimOptions {
    /// Hybrid-conversion threshold τ (paper default 2000).
    pub tau: usize,
    /// Simulated GPU.
    pub device: DeviceSpec,
    /// Simulated host CPU (for conversion timing and power).
    pub cpu: CpuSpec,
    /// Task-graph vs. per-kernel stream launching (the latter is the
    /// "without task graph" ablation).
    pub launch_mode: LaunchMode,
    /// Whether kernels actually produce amplitudes.
    pub exec_mode: ExecMode,
    /// Force one conversion path (Fig. 9's GPU-only / CPU-only bars).
    pub force_conversion: Option<ConversionMethod>,
    /// Skip BQCS-aware gate fusion (ablation).
    pub skip_fusion: bool,
    /// Simulate straight from DDs, skipping ELL (ablation).
    pub skip_ell: bool,
    /// State lanes per batch — the only host parallelism of functional
    /// execution (the engine applies tasks inline). A batch splits its
    /// states into up to this many contiguous shares, capped at the
    /// host's cores and at one lane per
    /// [`MIN_MACS_PER_LANE`](crate::executor::MIN_MACS_PER_LANE), and
    /// sweeps each on its own thread. Outputs are bit-identical at every
    /// value; `1` runs every batch on the calling thread. The default
    /// honours `BQSIM_THREADS` and falls back to the host's available
    /// parallelism.
    pub threads: usize,
    /// Force the generic (pre-fast-path) spMM inner loop — the ablation
    /// baseline for the shape-specialised kernels.
    pub generic_spmm: bool,
    /// Amplitude precision: `f64` (the bit-identity reference) or `f32`
    /// (narrow storage and arithmetic). The layout follows it (see
    /// [`BqSimOptions::effective_layout`]). The default honours
    /// `BQSIM_PRECISION` and falls back to `f64`.
    pub precision: Precision,
    /// Whether the `f32` planar kernels exploit the ELL
    /// pattern-compression annotation. Bit-identical either way (the
    /// annotation only dedups dispatch decisions); the auto-tuner probes
    /// both settings. The `f64` AoS kernels never read it.
    pub use_pattern: bool,
}

impl BqSimOptions {
    /// The precision the run actually executes with. The `skip_ell` and
    /// `generic_spmm` ablation kernels exist only in `f64`, so they run
    /// it whatever precision is requested.
    pub fn effective_precision(&self) -> Precision {
        if self.skip_ell || self.generic_spmm {
            Precision::F64
        } else {
            self.precision
        }
    }

    /// The amplitude layout the run executes with, a fact derived from
    /// [`effective_precision`](Self::effective_precision): `f64` runs the
    /// interleaved AoS kernels (the paper's §3.3.1 block-per-row,
    /// batch-strided layout), `f32` the planar kernels, the only path
    /// with narrow planes and pattern compression.
    pub fn effective_layout(&self) -> Layout {
        match self.effective_precision() {
            Precision::F64 => Layout::Aos,
            Precision::F32 => Layout::Planar,
        }
    }
}

/// Reads the `BQSIM_*` variable `name` through `parse`: `Ok(None)` when
/// unset, an error naming the variable and the accepted values (`want`)
/// when set to anything `parse` does not recognise.
fn env_value<T>(
    name: &str,
    want: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name} must be {want}")),
        Ok(s) => parse(s.trim())
            .map(Some)
            .ok_or_else(|| format!("{name} must be {want}, got `{s}`")),
    }
}

fn env_threads() -> Result<Option<usize>, String> {
    env_value("BQSIM_THREADS", "a positive integer", |s| {
        s.parse().ok().filter(|&n| n >= 1)
    })
}

/// `auto` is recognised but reads as unset: it is a tuner request the CLI
/// resolves, not a precision.
fn env_precision() -> Result<Option<Precision>, String> {
    env_value("BQSIM_PRECISION", "`f64`, `f32`, or `auto`", |s| {
        if s == "auto" {
            Some(None)
        } else {
            Precision::parse(s).map(Some)
        }
    })
    .map(Option::flatten)
}

/// Checks `BQSIM_THREADS` and `BQSIM_PRECISION`: a set but unrecognised
/// value is an error naming the variable. The `default_*` functions
/// below cannot fail (they back `Default`), so they fall back on such a
/// value; a front end calls this first so a misspelt or retired token is
/// a usage error rather than a silent `f64`. `BQSIM_LAYOUT` is retired:
/// set to anything, it is an error.
///
/// # Errors
///
/// The first offending variable, with the values it accepts.
pub fn validate_env() -> Result<(), String> {
    env_threads()?;
    env_precision()?;
    if std::env::var_os("BQSIM_LAYOUT").is_some() {
        return Err("BQSIM_LAYOUT is retired: the layout follows the precision \
                    (f64 runs aos, f32 runs planar)"
            .to_string());
    }
    Ok(())
}

/// Default spMM lane count: `BQSIM_THREADS` if set to a positive
/// integer, else the host's available parallelism, else 1.
pub fn default_threads() -> usize {
    env_threads()
        .ok()
        .flatten()
        .unwrap_or_else(crate::executor::host_parallelism)
}

/// Default amplitude precision: `BQSIM_PRECISION` if set to a recognised
/// token (`f64` / `f32`), else [`Precision::F64`]. The `auto` token is
/// resolved by the CLI/auto-tuner before options are built and reads as
/// unset here.
pub fn default_precision() -> Precision {
    env_precision().ok().flatten().unwrap_or_default()
}

impl Default for BqSimOptions {
    fn default() -> Self {
        BqSimOptions {
            tau: 2000,
            device: DeviceSpec::rtx_a6000(),
            cpu: CpuSpec::i7_11700(),
            launch_mode: LaunchMode::Graph,
            exec_mode: ExecMode::Functional,
            force_conversion: None,
            skip_fusion: false,
            skip_ell: false,
            threads: default_threads(),
            generic_spmm: false,
            precision: default_precision(),
            use_pattern: true,
        }
    }
}

/// Stage times of one compiled simulation (paper Fig. 12's breakdown).
///
/// All three stages are reported in the same **virtual-time** domain:
/// fusion time is modelled from the DD package's real operation counts
/// (node constructions + compute-cache misses — the algorithm's true work,
/// independent of this host's speed), conversion from the §3.2 hybrid
/// models, and simulation from the device schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBreakdown {
    /// BQCS-aware gate fusion (modelled from real DD operation counts).
    pub fusion_ns: u64,
    /// DD-to-ELL conversion (modelled, per §3.2 method).
    pub conversion_ns: u64,
    /// Batch simulation (virtual device time of the task graph).
    pub simulation_ns: u64,
}

impl RunBreakdown {
    /// Total pipeline time.
    pub fn total_ns(&self) -> u64 {
        self.fusion_ns + self.conversion_ns + self.simulation_ns
    }

    /// Fraction of the total spent in each stage:
    /// `(fusion, conversion, simulation)`.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total_ns().max(1) as f64;
        (
            self.fusion_ns as f64 / t,
            self.conversion_ns as f64 / t,
            self.simulation_ns as f64 / t,
        )
    }
}

/// The result of running batches through a compiled simulator.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Output states per batch (empty in timing-only mode), each a vector
    /// of `batch_size` state vectors. Batches that fell back to the host
    /// hold the dense-reference results; all others come off the
    /// (simulated) device.
    pub outputs: Vec<Vec<Vec<Complex>>>,
    /// The device schedule.
    pub timeline: Timeline,
    /// Stage breakdown including this run's simulation time.
    pub breakdown: RunBreakdown,
    /// Power/energy estimate for the run (Fig. 11).
    pub power: PowerReport,
    /// What went wrong and how it was absorbed: every injected fault,
    /// retry, degradation and failure, plus the device memory high-water
    /// mark. Healthy on a fault-free run.
    pub health: RunHealth,
}

/// Where a run's input batches come from.
#[derive(Debug, Clone)]
pub enum BatchSource<'a> {
    /// Borrowed batches, each a list of `2^n`-amplitude input states; every
    /// batch must hold as many states as batch 0.
    Batches(Vec<&'a [Vec<Complex>]>),
    /// `batches × batch_size` inputs in timing-only mode: no amplitudes are
    /// materialised (the large-circuit report experiments).
    Synthetic {
        /// Number of batches.
        batches: usize,
        /// Inputs per batch.
        batch_size: usize,
    },
}

impl<'a> BatchSource<'a> {
    /// `(num_batches, batch_size)`; borrowed batches take batch 0's size.
    pub(crate) fn counts(&self) -> (usize, usize) {
        match self {
            BatchSource::Batches(b) => (b.len(), b.first().map_or(0, |b| b.len())),
            BatchSource::Synthetic {
                batches,
                batch_size,
            } => (*batches, *batch_size),
        }
    }

    /// The one shape check of a request: every batch as large as batch 0,
    /// every state `2^num_qubits` amplitudes, and something to schedule.
    pub(crate) fn validate(&self, num_qubits: usize) -> Result<(), BqsimError> {
        let (num_batches, batch_size) = self.counts();
        if let BatchSource::Batches(batches) = self {
            let dim = 1usize << num_qubits;
            for (batch_index, batch) in batches.iter().enumerate() {
                if batch.len() != batch_size {
                    return Err(BqsimError::MismatchedBatchSize {
                        batch_index,
                        expected: batch_size,
                        got: batch.len(),
                    });
                }
                if let Some(v) = batch.iter().find(|v| v.len() != dim) {
                    return Err(BqsimError::BadInputLength {
                        expected: dim,
                        got: v.len(),
                    });
                }
            }
        }
        if num_batches == 0 || batch_size == 0 {
            return Err(BqsimError::EmptyBatchRun {
                num_batches,
                batch_size,
            });
        }
        Ok(())
    }
}

/// One run of a compiled circuit: what to run, whether it may be
/// cancelled, and which faults to inject. Every run — fault-free,
/// cancellable or recovering — is one request.
#[derive(Debug, Clone)]
pub struct RunRequest<'a> {
    /// The input batches.
    pub source: BatchSource<'a>,
    /// Polled at every task boundary of the engine sweep; when it fires
    /// the run ends in [`BqsimError::Cancelled`].
    pub cancel: Option<&'a CancelToken>,
    /// An injected fault plan and the policy that recovers from it;
    /// `None` runs fault-free under [`RecoveryPolicy::no_recovery`].
    pub faults: Option<(&'a FaultPlan, &'a RecoveryPolicy)>,
}

impl<'a> RunRequest<'a> {
    /// A fault-free, uncancellable request over borrowed batches.
    pub fn batches(batches: &'a [Vec<Vec<Complex>>]) -> Self {
        RunRequest {
            source: BatchSource::Batches(batches.iter().map(Vec::as_slice).collect()),
            cancel: None,
            faults: None,
        }
    }

    /// A fault-free, uncancellable timing-only request.
    pub fn synthetic(num_batches: usize, batch_size: usize) -> Self {
        RunRequest {
            source: BatchSource::Synthetic {
                batches: num_batches,
                batch_size,
            },
            cancel: None,
            faults: None,
        }
    }

    /// This request, under `plan`'s faults recovered per `policy`.
    pub fn with_faults(self, plan: &'a FaultPlan, policy: &'a RecoveryPolicy) -> Self {
        RunRequest {
            faults: Some((plan, policy)),
            ..self
        }
    }
}

/// Real host wall-clock of the compile stages, as opposed to the modelled
/// virtual times of [`RunBreakdown`]. `bqsim run` prints it after a cold
/// compile so a slow start explains itself without a bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileWall {
    /// Gate fusion (on a warm artifact load: the load, which replaces it).
    pub fusion_ns: u64,
    /// DD-to-ELL conversion of the fused gates (0 on a warm load).
    pub conversion_ns: u64,
    /// Serialising and publishing the artifact (0 without a store or on a
    /// warm load).
    pub publish_ns: u64,
}

/// A circuit compiled by the BQSim pipeline into reusable ELL gates.
///
/// Compile once, run any number of batches — the paper's key amortisation
/// argument (§4.8).
#[derive(Debug)]
pub struct BqSimulator {
    // Crate-visible: `artifact.rs` continues this type's impl (load and
    // publish) and the executor builds launches from `opts`.
    pub(crate) num_qubits: usize,
    pub(crate) gates: Vec<ConvertedGate>,
    // Kept for the recovery paths: the degradation ladder recompiles the
    // circuit unfused, and the dense host fallback replays it per batch.
    pub(crate) circuit: Circuit,
    pub(crate) opts: BqSimOptions,
    pub(crate) fusion_ns: u64,
    pub(crate) wall: CompileWall,
    pub(crate) conversion_ns: u64,
    pub(crate) cache_stats: EllCacheStats,
    // The tuning record that rode in with a warm artifact load or was
    // installed by `apply_tuning` (None on cold, untuned compiles), so
    // `to_artifact` republishes it and the tuner can skip its probes.
    pub(crate) stored_tuning: Option<bqsim_artifact::TuningRecord>,
    // One pool per compiled simulator: buffers recycled across every run,
    // so steady-state batch runs allocate nothing.
    pub(crate) pool: Arc<BufferPool>,
}

/// The execution configuration actually in effect for a simulator's next
/// run: effective precision, the layout it implies, state lanes and the
/// pattern toggle.
/// Rendered by the CLI's `resolved` summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedExec {
    /// Effective amplitude precision.
    pub precision: Precision,
    /// Amplitude layout, derived from the precision.
    pub layout: Layout,
    /// State lanes per batch.
    pub threads: usize,
    /// Pattern-compression toggle of the planar kernels.
    pub use_pattern: bool,
}

impl BqSimulator {
    /// Runs stages ① and ② of the pipeline: fusion and hybrid conversion.
    ///
    /// # Errors
    ///
    /// Returns [`BqsimError::EmptyCircuit`] for a zero-qubit circuit.
    pub fn compile(circuit: &Circuit, opts: BqSimOptions) -> Result<Self, BqsimError> {
        let n = circuit.num_qubits();
        if n == 0 {
            return Err(BqsimError::EmptyCircuit);
        }
        let mut dd = DdPackage::new();
        let lowered = lower_circuit(circuit);

        let fusion_wall = Instant::now();
        let fused: Vec<FusedGate> = if lowered.is_empty() {
            let id = dd.identity(n);
            vec![FusedGate::classify(&mut dd, id, n, 0)]
        } else if opts.skip_fusion {
            fusion::classify_gates(&mut dd, n, &lowered)
        } else {
            fusion::bqcs_aware_fusion(&mut dd, n, &lowered)
        };
        let fusion_wall_ns = fusion_wall.elapsed().as_nanos() as u64;
        // Model fusion time from the work the algorithm actually did:
        // every DD node construction and compute-cache miss is a bounded
        // unit of hashing + interned-complex arithmetic on the host CPU.
        let stats = dd.stats();
        let fusion_ops = stats.matrix_nodes as u64 + stats.vector_nodes as u64 + stats.cache_misses;
        let fusion_ns = fusion_ops * FUSION_NS_PER_DD_OP;

        let converter = HybridConverter::new(opts.tau, opts.device.clone(), opts.cpu.clone());
        // Repeated fused gates (layered ansätze, QAOA/QFT structure) share a
        // canonical DD edge, so the cache converts each distinct gate once;
        // the conversion stage is charged for distinct conversions only.
        let conversion_wall = Instant::now();
        let mut cache = EllCache::new();
        let gates: Vec<ConvertedGate> = fused
            .iter()
            .map(|g| match opts.force_conversion {
                Some(m) => converter.convert_with_cached(&mut cache, &mut dd, g, n, m),
                None => converter.convert_cached(&mut cache, &mut dd, g, n),
            })
            .collect();
        let conversion_ns = cache.unique_conversion_ns();
        let wall = CompileWall {
            fusion_ns: fusion_wall_ns,
            conversion_ns: conversion_wall.elapsed().as_nanos() as u64,
            publish_ns: 0,
        };

        Ok(BqSimulator {
            num_qubits: n,
            gates,
            circuit: circuit.clone(),
            opts,
            fusion_ns,
            wall,
            conversion_ns,
            cache_stats: cache.stats(),
            stored_tuning: None,
            pool: Arc::new(BufferPool::new()),
        })
    }

    /// The tuning record this simulator carries — loaded with its
    /// artifact or installed by [`BqSimulator::apply_tuning`]; `None`
    /// until either happens. A `Some` here is what lets `--precision
    /// auto` skip its probe runs on a warm store.
    pub fn stored_tuning(&self) -> Option<bqsim_artifact::TuningRecord> {
        self.stored_tuning
    }

    /// Crate-internal: a sibling sharing this simulator's compiled gates
    /// (cheap: the ELL matrices and GPU DDs sit behind `Arc`s) but
    /// executing under `opts`, which may differ only in execution options.
    /// The sibling gets its own buffer pool, so its pool statistics are
    /// its own.
    pub(crate) fn sibling(&self, opts: BqSimOptions) -> BqSimulator {
        BqSimulator {
            num_qubits: self.num_qubits,
            gates: self.gates.clone(),
            circuit: self.circuit.clone(),
            opts,
            fusion_ns: self.fusion_ns,
            wall: self.wall,
            conversion_ns: self.conversion_ns,
            cache_stats: self.cache_stats,
            stored_tuning: self.stored_tuning,
            pool: Arc::new(BufferPool::new()),
        }
    }

    /// A sibling simulator sharing this one's compiled gates but executing
    /// at `precision`. The campaign runner uses this to transparently
    /// retry a quarantined batch at the `f64` reference when a narrow
    /// precision drifted past its integrity budget.
    pub fn with_precision(&self, precision: Precision) -> BqSimulator {
        self.sibling(BqSimOptions {
            precision,
            ..self.opts.clone()
        })
    }

    /// Crate-internal probe harness for the auto-tuner: a sibling with
    /// every tunable execution axis overridden explicitly and the exec
    /// mode forced functional (probes must produce real amplitudes so
    /// narrow precisions can be validated against the f64 reference).
    pub(crate) fn with_exec(
        &self,
        precision: Precision,
        use_pattern: bool,
        generic_spmm: bool,
    ) -> BqSimulator {
        self.sibling(BqSimOptions {
            precision,
            use_pattern,
            generic_spmm,
            exec_mode: ExecMode::Functional,
            ..self.opts.clone()
        })
    }

    /// Applies an auto-tuner decision to the execution-only options:
    /// precision and the pattern-compression toggle. The compiled gates
    /// are untouched — neither axis affects compilation — so applying a
    /// tuning can never fork the artifact key. State lanes stay the
    /// requested `threads`. The tuner never selects `generic_spmm`
    /// (probed for honesty, ablation-only), so it is deliberately not
    /// applied.
    pub fn apply_tuning(&mut self, rec: &bqsim_artifact::TuningRecord) {
        self.opts.precision = rec.precision;
        self.opts.use_pattern = rec.use_pattern;
        self.stored_tuning = Some(*rec);
    }

    /// The execution configuration the next run will actually use, after
    /// ablation overrides and any applied tuning — what `bqsim run`
    /// prints as its `resolved` line.
    pub fn resolved_options(&self) -> ResolvedExec {
        ResolvedExec {
            precision: self.opts.effective_precision(),
            layout: self.opts.effective_layout(),
            threads: self.opts.threads,
            use_pattern: self.opts.use_pattern,
        }
    }

    /// The compiled fused gates.
    pub fn gates(&self) -> &[ConvertedGate] {
        &self.gates
    }

    /// Circuit width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The simulated device's name.
    pub fn device_name(&self) -> &str {
        &self.opts.device.name
    }

    /// Host wall-clock of every compile stage, publication included.
    pub fn compile_wall(&self) -> CompileWall {
        self.wall
    }

    /// Compile-time conversion-cache stats, as one coherent
    /// [`EllCacheStats`] snapshot (captured once at compile, immutable
    /// afterwards — safe for a concurrent status reporter to read).
    /// `misses` counts the distinct gates actually converted; `hits` are
    /// repeats served from the cache; `evictions` count entries displaced
    /// by the cache's LRU capacity bound.
    pub fn conversion_cache_stats(&self) -> EllCacheStats {
        self.cache_stats
    }

    /// Stats of the simulator's buffer pool: checkout hits/misses and the
    /// bytes currently shelved idle. After one warm-up run, steady-state
    /// batch runs check every state buffer and host staging copy out of the
    /// pool (`hits` grows, `misses` stays flat).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Compile-time stage durations (both in modelled virtual time).
    pub fn compile_breakdown(&self) -> RunBreakdown {
        RunBreakdown {
            fusion_ns: self.fusion_ns,
            conversion_ns: self.conversion_ns,
            simulation_ns: 0,
        }
    }

    /// #MAC per simulated input after fusion (Table 3 row for BQSim).
    pub fn mac_per_input(&self) -> u64 {
        self.gates.iter().map(|g| g.ell.mac_per_input()).sum()
    }

    /// Runs the given batches through the simulation task graph: the
    /// fault-free, uncancellable [`execute`](Self::execute).
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    pub fn run_batches(&self, batches: &[Vec<Vec<Complex>>]) -> Result<RunResult, BqsimError> {
        self.execute(&RunRequest::batches(batches))
    }

    /// Runs `num_batches` synthetic batches of `batch_size` inputs in
    /// timing-only mode (no amplitudes materialised) — used by the
    /// large-circuit report experiments.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    pub fn run_synthetic(
        &self,
        num_batches: usize,
        batch_size: usize,
    ) -> Result<RunResult, BqsimError> {
        self.execute(&RunRequest::synthetic(num_batches, batch_size))
    }

    /// Runs one request through the simulation task graph on a
    /// [`BatchExecutor`] built for it — the single engine path behind
    /// every run. Callers that run many requests of one shape keep an
    /// executor instead (a campaign does).
    ///
    /// Injected faults are recovered per the request's policy. Transient
    /// faults (kernel faults, copy corruption, hangs) are absorbed by
    /// retry/backoff inside the engine, so with enough retries the outputs
    /// are **bit-identical** to a fault-free run. An injected OOM walks the
    /// degradation ladder: re-split the fused gates and convert on the CPU
    /// (smaller device tables), then fall back to the dense host reference
    /// for every batch. Tasks that exhaust their retries — and batches on a
    /// lost device — are recomputed per batch on the host when
    /// `policy.host_fallback` is set. A fault-free request runs the same
    /// loop with an empty plan and [`RecoveryPolicy::no_recovery`].
    ///
    /// # Errors
    ///
    /// - [`BqsimError::MismatchedBatchSize`], [`BqsimError::BadInputLength`]
    ///   and [`BqsimError::EmptyBatchRun`] when the batches are not a
    ///   non-empty rectangle of `2^n`-amplitude states;
    /// - [`BqsimError::GraphTooLarge`] when the batch graph would exceed
    ///   [`MAX_GRAPH_TASKS`](crate::MAX_GRAPH_TASKS) tasks;
    /// - [`BqsimError::Cancelled`] when the token fires mid-run (partial
    ///   outputs are discarded; the campaign runner journals completed
    ///   batches, so it never re-runs finished work);
    /// - [`BqsimError::DeviceOom`] when allocation fails and the policy
    ///   forbids the next ladder rung;
    /// - [`BqsimError::RetriesExhausted`] / [`BqsimError::DeviceLost`] when
    ///   batches fail permanently and `policy.host_fallback` is off (or
    ///   outputs are not materialised).
    pub fn execute(&self, req: &RunRequest) -> Result<RunResult, BqsimError> {
        req.source.validate(self.num_qubits)?;
        BatchExecutor::for_source(self, &req.source)?.run(self, req)
    }

    /// Crate-internal: the result of a run that put no work on the device
    /// — the dense host fallback, before it fills in outputs and host
    /// power.
    pub(crate) fn idle_result(&self) -> RunResult {
        RunResult {
            outputs: Vec::new(),
            timeline: Timeline::default(),
            breakdown: self.compile_breakdown(),
            power: PowerReport {
                cpu_w: 0.0,
                gpu_w: 0.0,
                duration_ns: 0,
            },
            health: RunHealth::new(),
        }
    }

    /// A seeded fault plan sized to this simulator's run of
    /// `num_batches` batches: task faults land among the schedule's tasks
    /// and OOMs among the device allocations one run makes. The CLI,
    /// campaigns and tests draw every seeded plan here, so the run's fault
    /// surface has one owner.
    pub fn seeded_fault_plan(
        &self,
        seed: u64,
        num_batches: usize,
        budget: &FaultBudget,
    ) -> FaultPlan {
        let tasks = num_batches * schedule::tasks_per_batch(self.gates.len());
        FaultPlan::seeded(seed, tasks, RUN_ALLOC_SITES, budget)
    }

    /// The dense host reference for one batch — the bottom of the
    /// degradation ladder.
    pub(crate) fn dense_reference(&self, batch: &[Vec<Complex>]) -> Vec<Vec<Complex>> {
        batch
            .iter()
            .map(|input| {
                let mut s = input.clone();
                dense::apply_circuit(&mut s, &self.circuit);
                s
            })
            .collect()
    }
}

/// Generates `batch` random normalised input state vectors over `n` qubits
/// (the paper's randomly generated inputs, §4).
pub fn random_input_batch(n: usize, batch: usize, seed: u64) -> Vec<Vec<Complex>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..batch)
        .map(|_| {
            let mut v: Vec<Complex> = (0..1usize << n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let norm = bqsim_num::approx::l2_norm(&v);
            for z in &mut v {
                *z = z.scale(1.0 / norm);
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_num::approx::vectors_eq;
    use bqsim_qcir::{dense, generators};

    fn reference_outputs(
        circuit: &Circuit,
        batches: &[Vec<Vec<Complex>>],
    ) -> Vec<Vec<Vec<Complex>>> {
        batches
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|input| {
                        let mut s = input.clone();
                        dense::apply_circuit(&mut s, circuit);
                        s
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_outputs_match(circuit: &Circuit, opts: BqSimOptions) {
        let n = circuit.num_qubits();
        let sim = BqSimulator::compile(circuit, opts).unwrap();
        let batches: Vec<_> = (0..3).map(|b| random_input_batch(n, 4, b as u64)).collect();
        let run = sim.run_batches(&batches).unwrap();
        let want = reference_outputs(circuit, &batches);
        assert_eq!(run.outputs.len(), want.len());
        for (batch_got, batch_want) in run.outputs.iter().zip(&want) {
            for (got, want) in batch_got.iter().zip(batch_want) {
                assert!(
                    vectors_eq(got, want, 1e-9),
                    "{}: BQSim amplitudes diverge from dense oracle",
                    circuit.name()
                );
            }
        }
    }

    #[test]
    fn bqsim_matches_dense_oracle_on_families() {
        for circuit in [
            generators::vqe(5, 3),
            generators::qnn(4, 3),
            generators::graph_state(5),
            generators::routing(5, 3),
            generators::qft(5),
        ] {
            assert_outputs_match(&circuit, BqSimOptions::default());
        }
    }

    #[test]
    fn ablation_variants_are_functionally_identical() {
        let circuit = generators::vqe(5, 9);
        for opts in [
            BqSimOptions {
                skip_fusion: true,
                ..BqSimOptions::default()
            },
            BqSimOptions {
                skip_ell: true,
                ..BqSimOptions::default()
            },
            BqSimOptions {
                launch_mode: LaunchMode::Stream,
                ..BqSimOptions::default()
            },
        ] {
            assert_outputs_match(&circuit, opts);
        }
    }

    #[test]
    fn layouts_and_threads_produce_bit_identical_amplitudes() {
        let circuit = generators::vqe(5, 3);
        let batches: Vec<_> = (0..2).map(|b| random_input_batch(5, 4, b as u64)).collect();
        // The layout follows the precision: f64 runs AoS, f32 planar.
        for (precision, layout) in [
            (Precision::F64, Layout::Aos),
            (Precision::F32, Layout::Planar),
        ] {
            let mut outs = Vec::new();
            for threads in [1usize, 4] {
                let sim = BqSimulator::compile(
                    &circuit,
                    BqSimOptions {
                        precision,
                        threads,
                        ..BqSimOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(sim.resolved_options().layout, layout);
                outs.push(sim.run_batches(&batches).unwrap().outputs);
            }
            assert_eq!(
                outs[1], outs[0],
                "{precision} must be bit-identical across threads"
            );
        }
    }

    #[test]
    fn ablations_force_aos_layout() {
        for opts in [
            BqSimOptions {
                skip_ell: true,
                precision: Precision::F32,
                ..BqSimOptions::default()
            },
            BqSimOptions {
                generic_spmm: true,
                precision: Precision::F32,
                ..BqSimOptions::default()
            },
        ] {
            assert_eq!(opts.effective_precision(), Precision::F64);
            assert_eq!(opts.effective_layout(), Layout::Aos);
            // The f64-only ablation kernels still run (and agree with the
            // oracle) even when f32 was requested.
            assert_outputs_match(&generators::ghz(4), opts);
        }
    }

    #[test]
    fn steady_state_runs_hit_the_pool_without_allocating() {
        let circuit = generators::ghz(4);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches = vec![random_input_batch(4, 4, 0)];
        let first = sim.run_batches(&batches).unwrap();
        let warm = sim.pool_stats();
        assert!(warm.misses > 0, "cold run populates the pool");
        assert!(warm.idle_bytes > 0, "buffers shelved between runs");
        let second = sim.run_batches(&batches).unwrap();
        let steady = sim.pool_stats();
        assert_eq!(
            steady.misses, warm.misses,
            "a warm run must check every buffer out of the pool"
        );
        assert!(steady.hits > warm.hits);
        assert_eq!(
            first.outputs, second.outputs,
            "pooling must be invisible to results"
        );
    }

    #[test]
    fn fusion_reduces_simulated_time() {
        let circuit = generators::portfolio_opt(6, 1);
        let fused = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let unfused = BqSimulator::compile(
            &circuit,
            BqSimOptions {
                skip_fusion: true,
                ..BqSimOptions::default()
            },
        )
        .unwrap();
        let t_fused = fused.run_synthetic(10, 32).unwrap().timeline.total_ns();
        let t_unfused = unfused.run_synthetic(10, 32).unwrap().timeline.total_ns();
        assert!(
            t_fused < t_unfused,
            "fusion must speed up simulation: {t_fused} !< {t_unfused}"
        );
        assert!(fused.mac_per_input() <= unfused.mac_per_input());
    }

    #[test]
    fn graph_mode_beats_stream_mode() {
        let circuit = generators::vqe(6, 2);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let stream_sim = BqSimulator::compile(
            &circuit,
            BqSimOptions {
                launch_mode: LaunchMode::Stream,
                ..BqSimOptions::default()
            },
        )
        .unwrap();
        let tg = sim.run_synthetic(20, 64).unwrap().timeline;
        let ts = stream_sim.run_synthetic(20, 64).unwrap().timeline;
        assert!(
            tg.total_ns() < ts.total_ns(),
            "task graph must beat stream: {} !< {}",
            tg.total_ns(),
            ts.total_ns()
        );
        assert!(tg.overlap_ns() > 0, "task graph must overlap copies");
    }

    #[test]
    fn breakdown_amortises_with_batches() {
        let circuit = generators::routing(6, 1);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let small = sim.run_synthetic(2, 16).unwrap();
        let large = sim.run_synthetic(100, 16).unwrap();
        let (f_small, _, _) = small.breakdown.fractions();
        let (f_large, _, _) = large.breakdown.fractions();
        assert!(
            f_large < f_small,
            "fusion fraction must shrink as batches grow"
        );
        assert!(large.breakdown.simulation_ns > small.breakdown.simulation_ns);
    }

    #[test]
    fn error_paths() {
        let circuit = Circuit::new(0);
        assert!(matches!(
            BqSimulator::compile(&circuit, BqSimOptions::default()),
            Err(BqsimError::EmptyCircuit)
        ));
        let circuit = generators::ghz(3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let bad = vec![vec![vec![Complex::ONE; 4]]]; // wrong dim (4 != 8)
        assert!(matches!(
            sim.run_batches(&bad),
            Err(BqsimError::BadInputLength {
                expected: 8,
                got: 4
            })
        ));
    }

    #[test]
    fn ragged_batches_name_the_offending_batch() {
        let circuit = generators::ghz(3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let ragged = vec![
            random_input_batch(3, 2, 0),
            random_input_batch(3, 2, 1),
            random_input_batch(3, 3, 2), // 3 vectors where batch 0 had 2
        ];
        assert!(matches!(
            sim.run_batches(&ragged),
            Err(BqsimError::MismatchedBatchSize {
                batch_index: 2,
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn run_batches_with_no_batches_is_an_error() {
        let sim = BqSimulator::compile(&generators::ghz(3), BqSimOptions::default()).unwrap();
        assert!(matches!(
            sim.run_batches(&[]),
            Err(BqsimError::EmptyBatchRun {
                num_batches: 0,
                batch_size: 0
            })
        ));
    }

    #[test]
    fn run_batches_with_an_empty_batch_is_an_error() {
        let sim = BqSimulator::compile(&generators::ghz(3), BqSimOptions::default()).unwrap();
        assert!(matches!(
            sim.run_batches(&[vec![]]),
            Err(BqsimError::EmptyBatchRun {
                num_batches: 1,
                batch_size: 0
            })
        ));
    }

    #[test]
    fn run_synthetic_with_no_batches_is_an_error() {
        let sim = BqSimulator::compile(&generators::ghz(3), BqSimOptions::default()).unwrap();
        assert!(matches!(
            sim.run_synthetic(0, 8),
            Err(BqsimError::EmptyBatchRun {
                num_batches: 0,
                batch_size: 8
            })
        ));
    }

    #[test]
    fn pre_cancelled_token_aborts_before_any_output() {
        use bqsim_faults::CancelToken;
        let circuit = generators::ghz(3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches = vec![random_input_batch(3, 2, 0)];
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(matches!(
            sim.execute(&RunRequest {
                cancel: Some(&cancel),
                ..RunRequest::batches(&batches)
            }),
            Err(BqsimError::Cancelled)
        ));
        // A fresh token changes nothing about the result.
        let clean = sim.run_batches(&batches).unwrap();
        let fresh = CancelToken::new();
        let again = sim
            .execute(&RunRequest {
                cancel: Some(&fresh),
                ..RunRequest::batches(&batches)
            })
            .unwrap();
        assert_eq!(clean.outputs, again.outputs);
    }

    #[test]
    fn transient_faults_recover_bit_identically() {
        use bqsim_faults::{FaultBudget, RecoveryPolicy};
        let circuit = generators::vqe(5, 3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches: Vec<_> = (0..3).map(|b| random_input_batch(5, 4, b as u64)).collect();
        let clean = sim.run_batches(&batches).unwrap();
        let plan = sim.seeded_fault_plan(11, batches.len(), &FaultBudget::transient(2, 1, 2));
        assert!(plan.is_transient() && !plan.is_empty());
        let rec = sim
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()))
            .unwrap();
        assert_eq!(
            rec.outputs, clean.outputs,
            "recovered outputs must be bit-identical to the fault-free run"
        );
        assert_eq!(
            rec.health.fault_count(),
            plan.len(),
            "every injected fault appears exactly once:\n{}",
            rec.health
        );
        assert!(rec.health.degraded_batches.is_empty());
        assert!(!rec.health.high_water_bytes.is_empty());
    }

    #[test]
    fn injected_oom_walks_the_degradation_ladder() {
        use bqsim_faults::{FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::qnn(4, 3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches: Vec<_> = (0..2).map(|b| random_input_batch(4, 3, b as u64)).collect();
        let want = reference_outputs(&circuit, &batches);
        let check = |outputs: &Vec<Vec<Vec<Complex>>>| {
            for (got_b, want_b) in outputs.iter().zip(&want) {
                for (got, want) in got_b.iter().zip(want_b) {
                    assert!(vectors_eq(got, want, 1e-9), "degraded run diverges");
                }
            }
        };

        // One OOM: rung two (re-split + CPU conversion) absorbs it.
        let mut plan = FaultPlan::new();
        plan.push(FaultKind::Oom { alloc: 4 });
        let rec = sim
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()))
            .unwrap();
        assert_eq!(rec.health.count_of("oom"), 1);
        assert_eq!(
            rec.health.degradations,
            vec!["re-split fused gates + CPU conversion"]
        );
        assert!(rec.timeline.total_ns() > 0, "rung two still runs on-device");
        check(&rec.outputs);

        // Two OOMs: the second knocks the re-split run down to the dense
        // host reference.
        let mut plan = FaultPlan::new();
        plan.push(FaultKind::Oom { alloc: 0 })
            .push(FaultKind::Oom { alloc: 1 });
        let rec = sim
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()))
            .unwrap();
        assert_eq!(rec.health.count_of("oom"), 2);
        assert_eq!(
            rec.health.degradations.last().map(String::as_str),
            Some("dense host fallback")
        );
        assert_eq!(rec.health.degraded_batches, vec![0, 1]);
        check(&rec.outputs);
    }

    #[test]
    fn every_seeded_oom_lands_on_an_allocation_the_run_makes() {
        use bqsim_faults::{FaultBudget, RecoveryPolicy};
        let sim = BqSimulator::compile(&generators::ghz(3), BqSimOptions::default()).unwrap();
        let batches = vec![random_input_batch(3, 2, 0)];
        let budget = FaultBudget {
            ooms: 1,
            ..FaultBudget::default()
        };
        for seed in 0..32 {
            let plan = sim.seeded_fault_plan(seed, batches.len(), &budget);
            let run = sim
                .execute(
                    &RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()),
                )
                .unwrap();
            assert_eq!(run.health.count_of("oom"), 1, "seed {seed}: {plan:?}");
        }
    }

    #[test]
    fn exhausted_retries_fall_back_per_batch() {
        use bqsim_faults::{FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::ghz(3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches: Vec<_> = (0..3).map(|b| random_input_batch(3, 2, b as u64)).collect();
        // Two faults on the same kernel exhaust a single-retry policy.
        let mut plan = FaultPlan::new();
        plan.push(FaultKind::KernelFault { task: 1 })
            .push(FaultKind::KernelFault { task: 1 });
        let policy = RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::default()
        };
        let rec = sim
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &policy))
            .unwrap();
        assert!(
            rec.health.degraded_batches.contains(&0),
            "the faulted batch must fall back to the host:\n{}",
            rec.health
        );
        assert_eq!(rec.health.count_of("kernel-fault"), 2);
        assert!(rec.health.abandoned_tasks > 0);
        let want = reference_outputs(&circuit, &batches);
        for (got_b, want_b) in rec.outputs.iter().zip(&want) {
            for (got, want) in got_b.iter().zip(want_b) {
                assert!(vectors_eq(got, want, 1e-9));
            }
        }

        // With every fallback forbidden, the failure surfaces as a
        // structured error naming the task and batch.
        let strict = RecoveryPolicy {
            max_retries: 1,
            degrade: false,
            host_fallback: false,
            ..RecoveryPolicy::default()
        };
        match sim.execute(&RunRequest::batches(&batches).with_faults(&plan, &strict)) {
            Err(BqsimError::RetriesExhausted {
                device,
                batch,
                task_label,
                attempts,
            }) => {
                assert_eq!(device, 0);
                assert_eq!(batch, 0);
                assert_eq!(task_label, "k0 b0");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn device_loss_falls_back_per_batch_or_is_raised() {
        use bqsim_faults::{FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::ghz(3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches: Vec<_> = (0..3).map(|b| random_input_batch(3, 2, b as u64)).collect();
        let mut plan = FaultPlan::new();
        plan.push(FaultKind::DeviceLoss { at_task: 1 });
        let rec = sim
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()))
            .unwrap();
        assert_eq!(rec.health.count_of("device-loss"), 1);
        assert_eq!(rec.health.lost_devices, vec![0]);
        assert_eq!(rec.health.degraded_batches, vec![0, 1, 2]);
        assert_eq!(rec.outputs, reference_outputs(&circuit, &batches));

        let strict = RecoveryPolicy {
            host_fallback: false,
            ..RecoveryPolicy::default()
        };
        match sim.execute(&RunRequest::batches(&batches).with_faults(&plan, &strict)) {
            Err(BqsimError::DeviceLost { device: 0 }) => {}
            other => panic!("expected DeviceLost, got {other:?}"),
        }
    }

    #[test]
    fn power_report_is_populated() {
        let circuit = generators::vqe(5, 4);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let run = sim.run_synthetic(5, 32).unwrap();
        assert!(run.power.gpu_w > 0.0);
        assert!(run.power.cpu_w > 0.0);
        assert!(run.power.energy_j() > 0.0);
    }

    #[test]
    fn random_inputs_are_normalised() {
        let batch = random_input_batch(4, 3, 7);
        for v in &batch {
            assert!((bqsim_num::approx::l2_norm(v) - 1.0).abs() < 1e-9);
        }
        // Deterministic per seed.
        assert_eq!(batch, random_input_batch(4, 3, 7));
        assert_ne!(batch, random_input_batch(4, 3, 8));
    }
}
