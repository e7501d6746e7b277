//! The top-level BQSim simulator API.

use crate::convert::{ConversionMethod, ConvertedGate, EllCache, EllCacheStats, HybridConverter};
use crate::error::BqsimError;
use crate::fusion::{self, FusedGate};
use crate::kernels::{DdSpmvKernel, EllSpmmKernel};
use crate::schedule;
use bqsim_ell::{Layout, Precision};
use bqsim_faults::{
    CancelToken, FaultEvent, FaultInjector, FaultKind, FaultPlan, RecoveryPolicy, Resolution,
    RunHealth,
};
use bqsim_gpu::power::{cpu_average_power_w, gpu_average_power_w, PowerReport};
use bqsim_gpu::{
    BufferPool, CpuSpec, DeviceMemory, DeviceSpec, Engine, ExecMode, FaultedRun, HostMemory,
    Kernel, LaunchMode, PoolStats, Timeline,
};
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
    /// Host worker threads for functional execution: the parallel
    /// task-graph executor and spMM row partitioning. `1` preserves the
    /// serial path byte for byte; the default honours `BQSIM_THREADS` and
    /// falls back to the host's available parallelism.
    pub threads: usize,
    /// Force the generic (pre-fast-path) spMM inner loop — the ablation
    /// baseline for the shape-specialised kernels.
    pub generic_spmm: bool,
    /// Amplitude memory layout on the simulated device: batch-major planar
    /// planes feed the SIMD-tiled microkernels; interleaved AoS is the
    /// ablation baseline. Both produce **bit-identical** amplitudes. The
    /// default honours `BQSIM_LAYOUT` and falls back to planar.
    pub layout: Layout,
    /// Amplitude precision of the planar execution path: `f64` (the
    /// bit-identity reference) or `f32` (narrow storage and arithmetic).
    /// Only the planar layout has narrow kernels, so
    /// [`BqSimOptions::effective_precision`] falls back to `f64`
    /// whenever the effective layout is AoS. The default honours
    /// `BQSIM_PRECISION` and falls back to `f64`.
    pub precision: Precision,
    /// Whether the planar kernels exploit the ELL pattern-compression
    /// annotation. Bit-identical either way (the annotation only dedups
    /// dispatch decisions); the auto-tuner probes both settings.
    pub use_pattern: bool,
}

impl BqSimOptions {
    /// The layout the run actually executes with. The DD-direct ablation
    /// kernel and the generic spMM baseline only exist in interleaved
    /// form, so `skip_ell` and `generic_spmm` force [`Layout::Aos`]
    /// regardless of the requested layout.
    pub fn effective_layout(&self) -> Layout {
        if self.skip_ell || self.generic_spmm {
            Layout::Aos
        } else {
            self.layout
        }
    }

    /// The precision the run actually executes with. The narrow (`f32`
    /// plane) kernels exist only on the planar spMM path, so any
    /// configuration whose [`effective_layout`](Self::effective_layout)
    /// is AoS — including the `skip_ell` and `generic_spmm` ablations —
    /// silently runs the `f64` reference.
    pub fn effective_precision(&self) -> Precision {
        if self.effective_layout() == Layout::Planar {
            self.precision
        } else {
            Precision::F64
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

fn env_layout() -> Result<Option<Layout>, String> {
    env_value("BQSIM_LAYOUT", "`aos` or `planar`", Layout::parse)
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

/// Checks `BQSIM_THREADS`, `BQSIM_LAYOUT` and `BQSIM_PRECISION`: a set
/// but unrecognised value is an error naming the variable. The
/// `default_*` functions below cannot fail (they back `Default`), so
/// they fall back on such a value; a front end calls this first so a
/// misspelt or retired token is a usage error rather than a silent `f64`.
///
/// # Errors
///
/// The first offending variable, with the values it accepts.
pub fn validate_env() -> Result<(), String> {
    env_threads()?;
    env_layout()?;
    env_precision()?;
    Ok(())
}

/// Default worker-thread count: `BQSIM_THREADS` if set to a positive
/// integer, else the host's available parallelism, else 1.
pub fn default_threads() -> usize {
    env_threads().ok().flatten().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Default amplitude layout: `BQSIM_LAYOUT` if set to a recognised token
/// (`aos` / `planar`), else [`Layout::Planar`].
pub fn default_layout() -> Layout {
    env_layout().ok().flatten().unwrap_or_default()
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
            layout: default_layout(),
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
    /// of `batch_size` state vectors.
    pub outputs: Vec<Vec<Vec<Complex>>>,
    /// The device schedule.
    pub timeline: Timeline,
    /// Stage breakdown including this run's simulation time.
    pub breakdown: RunBreakdown,
    /// Power/energy estimate for the run (Fig. 11).
    pub power: PowerReport,
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
    num_qubits: usize,
    gates: Vec<ConvertedGate>,
    // Kept for the recovery paths: the degradation ladder recompiles the
    // circuit unfused, and the dense host fallback replays it per batch.
    circuit: Circuit,
    opts: BqSimOptions,
    fusion_ns: u64,
    wall: CompileWall,
    conversion_ns: u64,
    cache_stats: EllCacheStats,
    // The tuning record that rode in with a warm artifact load or was
    // installed by `apply_tuning` (None on cold, untuned compiles), so
    // `to_artifact` republishes it and the tuner can skip its probes.
    stored_tuning: Option<bqsim_artifact::TuningRecord>,
    // One pool per compiled simulator: buffers recycled across every
    // `run_*` call, so steady-state batch runs allocate nothing.
    pool: Arc<BufferPool>,
}

/// The execution configuration actually in effect for a simulator's next
/// run: effective precision and layout plus the tunable execution axes.
/// Rendered by the CLI's `resolved` summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedExec {
    /// Effective amplitude precision.
    pub precision: Precision,
    /// Effective amplitude layout.
    pub layout: Layout,
    /// Host worker threads.
    pub threads: usize,
    /// Pattern-compression toggle of the planar kernels.
    pub use_pattern: bool,
}

/// The result of a fault-injected run: the run itself plus a [`RunHealth`]
/// account of every fault, retry, degradation, and failure.
#[derive(Debug, Clone)]
pub struct RecoveredRun {
    /// The run. Outputs of batches that fell back to the host are the
    /// dense-reference results; all others come off the (simulated) device.
    pub run: RunResult,
    /// What went wrong and how it was absorbed.
    pub health: RunHealth,
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

    /// Crate-internal: reassembles a simulator from artifact-loaded parts
    /// (the warm half of [`BqSimulator::compile_or_load`]). The fused-gate
    /// pipeline never runs; `fusion_wall_ns` records the artifact-load wall
    /// time instead, keeping `fusion_wall_ns()` meaningful as "real host
    /// time spent producing the gates".
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        num_qubits: usize,
        gates: Vec<ConvertedGate>,
        circuit: Circuit,
        opts: BqSimOptions,
        fusion_ns: u64,
        fusion_wall_ns: u64,
        conversion_ns: u64,
        cache_stats: EllCacheStats,
    ) -> Self {
        BqSimulator {
            num_qubits,
            gates,
            circuit,
            opts,
            fusion_ns,
            wall: CompileWall {
                fusion_ns: fusion_wall_ns,
                ..CompileWall::default()
            },
            conversion_ns,
            cache_stats,
            stored_tuning: None,
            pool: Arc::new(BufferPool::new()),
        }
    }

    /// Crate-internal: records how long publishing this simulator's
    /// artifact took (see [`BqSimulator::compile_or_load`]).
    pub(crate) fn set_publish_wall_ns(&mut self, ns: u64) {
        self.wall.publish_ns = ns;
    }

    /// Crate-internal: attaches the tuning record a warm artifact load
    /// carried (see [`BqSimulator::compile_or_load`]).
    pub(crate) fn set_stored_tuning(&mut self, rec: Option<bqsim_artifact::TuningRecord>) {
        self.stored_tuning = rec;
    }

    /// The tuning record this simulator carries — loaded with its
    /// artifact or installed by [`BqSimulator::apply_tuning`]; `None`
    /// until either happens. A `Some` here is what lets `--precision
    /// auto` skip its probe runs on a warm store.
    pub fn stored_tuning(&self) -> Option<bqsim_artifact::TuningRecord> {
        self.stored_tuning
    }

    /// Crate-internal: the compile options (for artifact serialization).
    pub(crate) fn opts(&self) -> &BqSimOptions {
        &self.opts
    }

    /// A sibling simulator sharing this one's compiled gates (cheap: the
    /// ELL matrices and GPU DDs sit behind `Arc`s) but executing at
    /// `precision`. The campaign runner uses this to transparently retry
    /// a quarantined batch at the `f64` reference when a narrow
    /// precision drifted past its integrity budget. The sibling gets its
    /// own buffer pool: its shelves are width-disjoint from the
    /// parent's, so sharing would only interleave the event logs.
    pub fn with_precision(&self, precision: Precision) -> BqSimulator {
        BqSimulator {
            num_qubits: self.num_qubits,
            gates: self.gates.clone(),
            circuit: self.circuit.clone(),
            opts: BqSimOptions {
                precision,
                ..self.opts.clone()
            },
            fusion_ns: self.fusion_ns,
            wall: self.wall,
            conversion_ns: self.conversion_ns,
            cache_stats: self.cache_stats,
            stored_tuning: self.stored_tuning,
            pool: Arc::new(BufferPool::new()),
        }
    }

    /// Crate-internal probe harness for the auto-tuner: a sibling with
    /// every tunable execution axis overridden explicitly and the exec
    /// mode forced functional (probes must produce real amplitudes so
    /// narrow precisions can be validated against the f64 reference).
    pub(crate) fn with_exec(
        &self,
        precision: Precision,
        layout: Layout,
        threads: usize,
        use_pattern: bool,
        generic_spmm: bool,
    ) -> BqSimulator {
        BqSimulator {
            num_qubits: self.num_qubits,
            gates: self.gates.clone(),
            circuit: self.circuit.clone(),
            opts: BqSimOptions {
                precision,
                layout,
                threads: threads.max(1),
                use_pattern,
                generic_spmm,
                exec_mode: ExecMode::Functional,
                ..self.opts.clone()
            },
            fusion_ns: self.fusion_ns,
            wall: self.wall,
            conversion_ns: self.conversion_ns,
            cache_stats: self.cache_stats,
            stored_tuning: None,
            pool: Arc::new(BufferPool::new()),
        }
    }

    /// Applies an auto-tuner decision to the execution-only options:
    /// precision, layout, worker threads, and the pattern-compression
    /// toggle. The compiled gates are untouched — none of these axes
    /// affect compilation — so applying a tuning can never fork the
    /// artifact key. The tuner never selects `generic_spmm` (probed for
    /// honesty, ablation-only), so it is deliberately not applied.
    pub fn apply_tuning(&mut self, rec: &bqsim_artifact::TuningRecord) {
        self.opts.precision = rec.precision;
        self.opts.layout = rec.layout;
        self.opts.threads = rec.threads.max(1);
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

    /// Crate-internal: the source circuit (for artifact serialization).
    pub(crate) fn circuit(&self) -> &Circuit {
        &self.circuit
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

    /// Real wall-clock the fusion stage took on this host (informational;
    /// the breakdown uses the modelled virtual time).
    pub fn fusion_wall_ns(&self) -> u64 {
        self.wall.fusion_ns
    }

    /// Real wall-clock the DD-to-ELL conversion stage took on this host
    /// (0 when the gates came from a warm artifact load).
    pub fn conversion_wall_ns(&self) -> u64 {
        self.wall.conversion_ns
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

    /// The pool's shelf-transition event log (serialised under the
    /// shelves mutex, so log order is occupancy order) plus its
    /// truncation counter — the input to the analyzer's pool-aliasing
    /// audit (`bqsim analyze --model-check`).
    pub fn pool_events(&self) -> (Vec<bqsim_gpu::PoolEvent>, u64) {
        (self.pool.events(), self.pool.events_dropped())
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

    /// Runs the given batches through the simulation task graph.
    ///
    /// Every batch must contain the same number of state vectors, each of
    /// length `2^n`.
    ///
    /// # Errors
    ///
    /// Returns [`BqsimError::BadInputLength`] on malformed inputs and
    /// [`BqsimError::DeviceOom`] if buffers exceed device memory.
    pub fn run_batches(&self, batches: &[Vec<Vec<Complex>>]) -> Result<RunResult, BqsimError> {
        self.run_batches_cancellable(batches, &CancelToken::new())
    }

    /// [`run_batches`](Self::run_batches) under a cooperative
    /// [`CancelToken`], polled at every task boundary of the engine sweep.
    ///
    /// # Errors
    ///
    /// In addition to [`run_batches`](Self::run_batches)' errors, returns
    /// [`BqsimError::Cancelled`] when the token fires mid-run; the partial
    /// outputs are discarded — callers resume by re-running the
    /// uncompleted batches (the campaign runner journals completed batches
    /// so it never re-runs finished work).
    pub fn run_batches_cancellable(
        &self,
        batches: &[Vec<Vec<Complex>>],
        cancel: &CancelToken,
    ) -> Result<RunResult, BqsimError> {
        let batch_size = self.validate_batches(batches)?;
        self.run_direct(batches, batches.len(), batch_size, cancel)
    }

    /// Checks every batch has one size and every vector has `2^n`
    /// amplitudes; returns the batch size.
    ///
    /// Ragged batches (a batch whose vector count differs from batch 0's)
    /// are a distinct failure from wrong-width vectors and get their own
    /// [`BqsimError::MismatchedBatchSize`] naming the offending batch.
    fn validate_batches(&self, batches: &[Vec<Vec<Complex>>]) -> Result<usize, BqsimError> {
        let dim = 1usize << self.num_qubits;
        let batch_size = batches.first().map(|b| b.len()).unwrap_or(0);
        for (batch_index, batch) in batches.iter().enumerate() {
            if batch.len() != batch_size {
                return Err(BqsimError::MismatchedBatchSize {
                    batch_index,
                    expected: batch_size,
                    got: batch.len(),
                });
            }
            for v in batch {
                if v.len() != dim {
                    return Err(BqsimError::BadInputLength {
                        expected: dim,
                        got: v.len(),
                    });
                }
            }
        }
        Ok(batch_size)
    }

    /// Runs `num_batches` synthetic batches of `batch_size` inputs in
    /// timing-only mode (no amplitudes materialised) — used by the
    /// large-circuit report experiments.
    ///
    /// # Errors
    ///
    /// Returns [`BqsimError::DeviceOom`] if buffers exceed device memory.
    pub fn run_synthetic(
        &self,
        num_batches: usize,
        batch_size: usize,
    ) -> Result<RunResult, BqsimError> {
        self.run_direct(&[], num_batches, batch_size, &CancelToken::new())
    }

    fn run_direct(
        &self,
        batches: &[Vec<Vec<Complex>>],
        num_batches: usize,
        batch_size: usize,
        cancel: &CancelToken,
    ) -> Result<RunResult, BqsimError> {
        let (run, faulted, _) = self.run_gates_faulted(
            &self.gates,
            batches,
            num_batches,
            batch_size,
            0,
            &FaultInjector::none(),
            &[],
            &RecoveryPolicy::no_recovery(),
            cancel,
        )?;
        if faulted.cancelled_at.is_some() {
            return Err(BqsimError::Cancelled);
        }
        Ok(run)
    }

    /// One engine pass over `gates` with fault hooks armed. Returns the
    /// run, the engine's fault account, and the device memory high-water
    /// mark. The fault-free paths call this with an empty injector.
    #[allow(clippy::too_many_arguments)]
    fn run_gates_faulted(
        &self,
        gates: &[ConvertedGate],
        batches: &[Vec<Vec<Complex>>],
        num_batches: usize,
        batch_size: usize,
        device: usize,
        injector: &FaultInjector,
        oom_allocs: &[usize],
        policy: &RecoveryPolicy,
        cancel: &CancelToken,
    ) -> Result<(RunResult, FaultedRun, u64), BqsimError> {
        assert!(num_batches > 0 && batch_size > 0, "empty batch run");
        let dim = 1usize << self.num_qubits;
        let elems = dim * batch_size;
        let precision = self.opts.effective_precision();
        let width = precision.storage_bytes();
        let bytes_per_batch = (elems * width) as u64;
        let functional = !batches.is_empty() && self.opts.exec_mode == ExecMode::Functional;

        let layout = self.opts.effective_layout();
        let engine = Engine::with_threads(self.opts.device.clone(), self.opts.threads);
        let mut mem = DeviceMemory::with_pool(&self.opts.device, Arc::clone(&self.pool));
        mem.inject_oom_at(oom_allocs);
        let mut host = HostMemory::with_pool(Arc::clone(&self.pool));

        let oom = |source| BqsimError::DeviceOom {
            device,
            batch: None,
            source,
        };
        // Device residency: four state buffers plus the gate tables. The
        // narrow precisions genuinely halve the state-buffer residency
        // (and the H2D/D2H traffic `bytes_per_batch` models above); the
        // allocation *sequence* is width-independent so injected OOM
        // traps fire at the same indices in every precision.
        let buffers = [
            mem.alloc_amp(elems, layout, width).map_err(oom)?,
            mem.alloc_amp(elems, layout, width).map_err(oom)?,
            mem.alloc_amp(elems, layout, width).map_err(oom)?,
            mem.alloc_amp(elems, layout, width).map_err(oom)?,
        ];
        let gate_bytes: u64 = gates
            .iter()
            .map(|g| g.device_bytes(self.opts.skip_ell))
            .sum();
        mem.reserve_bytes(gate_bytes).map_err(oom)?;

        let inputs: Vec<_> = (0..num_batches)
            .map(|b| {
                if functional {
                    // Transpose-pack each batch straight into a pooled host
                    // buffer in the device layout and width: no intermediate
                    // packed Vec, the H2D copy becomes a plane memcpy, and
                    // in the narrow precisions each amplitude rounds exactly
                    // once, here.
                    host.alloc_staged_amp(&batches[b], layout, width)
                } else {
                    host.alloc_zeroed(0)
                }
            })
            .collect();
        let outputs: Vec<_> = (0..num_batches)
            .map(|_| {
                if functional {
                    host.alloc_zeroed_amp(elems, layout, width)
                } else {
                    host.alloc_zeroed(0)
                }
            })
            .collect();

        let graph = schedule::build_batch_graph(
            &buffers,
            &inputs,
            &outputs,
            gates.len(),
            bytes_per_batch,
            &|k, src, dst| -> Arc<dyn Kernel> {
                let g = &gates[k];
                if self.opts.skip_ell {
                    Arc::new(DdSpmvKernel::new(
                        Arc::clone(&g.gpu_dd),
                        g.cost,
                        g.work,
                        src,
                        dst,
                        batch_size,
                    ))
                } else {
                    Arc::new(EllSpmmKernel::with_tuning(
                        Arc::clone(&g.ell),
                        src,
                        dst,
                        batch_size,
                        // Lane-splitting a launch past the host's hardware
                        // threads cannot make it faster — the spawned lanes
                        // just time-slice one core — so the pipeline clamps
                        // here while `with_lanes` keeps honouring explicit
                        // oversubscription for tests.
                        self.opts
                            .threads
                            .min(std::thread::available_parallelism().map_or(1, |p| p.get())),
                        self.opts.generic_spmm,
                        precision,
                        self.opts.use_pattern,
                    ))
                }
            },
        );

        let exec = if functional {
            ExecMode::Functional
        } else {
            ExecMode::TimingOnly
        };
        let faulted = engine.run_faulted_cancellable(
            &graph,
            &mut mem,
            &mut host,
            self.opts.launch_mode,
            exec,
            injector,
            policy,
            cancel,
        );
        let timeline = faulted.timeline.clone();

        let outputs_data: Vec<Vec<Vec<Complex>>> = if functional {
            outputs
                .iter()
                .map(|&h| host.buffer(h).store().unpack_states(batch_size))
                .collect()
        } else {
            Vec::new()
        };
        let breakdown = RunBreakdown {
            fusion_ns: self.fusion_ns,
            conversion_ns: self.conversion_ns,
            simulation_ns: timeline.total_ns(),
        };
        let power = PowerReport {
            // BQSim's host CPU only orchestrates during simulation: one
            // submission thread, mostly waiting.
            cpu_w: cpu_average_power_w(&self.opts.cpu, 1, 0.3),
            gpu_w: gpu_average_power_w(&self.opts.device, &timeline),
            duration_ns: timeline.total_ns(),
        };
        let high_water = mem.high_water_bytes();
        Ok((
            RunResult {
                outputs: outputs_data,
                timeline,
                breakdown,
                power,
            },
            faulted,
            high_water,
        ))
    }

    /// Runs batches under an injected [`FaultPlan`], recovering per
    /// `policy`, and reports a [`RunHealth`] account alongside the result.
    ///
    /// Transient faults (kernel faults, copy corruption, hangs) are
    /// absorbed by retry/backoff inside the engine, so with enough retries
    /// the outputs are **bit-identical** to a fault-free run. An injected
    /// OOM walks the degradation ladder: re-split the fused gates and
    /// convert on the CPU (smaller device tables), then fall back to the
    /// dense host reference for every batch. Tasks that exhaust their
    /// retries — and batches on a lost device — are recomputed per batch on
    /// the host when `policy.host_fallback` is set.
    ///
    /// # Errors
    ///
    /// Returns [`BqsimError::BadInputLength`] on malformed inputs,
    /// [`BqsimError::DeviceOom`] when allocation fails and the policy
    /// forbids the next ladder rung, [`BqsimError::RetriesExhausted`] /
    /// [`BqsimError::DeviceLost`] when batches fail permanently and
    /// `policy.host_fallback` is off (or outputs are not materialised).
    pub fn run_batches_recovering(
        &self,
        batches: &[Vec<Vec<Complex>>],
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Result<RecoveredRun, BqsimError> {
        self.run_batches_recovering_cancellable(batches, plan, policy, &CancelToken::new())
    }

    /// [`run_batches_recovering`](Self::run_batches_recovering) under a
    /// cooperative [`CancelToken`].
    ///
    /// # Errors
    ///
    /// In addition to [`run_batches_recovering`](Self::run_batches_recovering)'
    /// errors, returns [`BqsimError::Cancelled`] when the token fires;
    /// partial outputs are discarded.
    pub fn run_batches_recovering_cancellable(
        &self,
        batches: &[Vec<Vec<Complex>>],
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        cancel: &CancelToken,
    ) -> Result<RecoveredRun, BqsimError> {
        let rec = self.run_batches_recovering_cancellable_on(0, batches, plan, policy, cancel)?;
        if let Some(&batch) = rec.health.failed_batches.first() {
            if let Some(&device) = rec.health.lost_devices.first() {
                return Err(BqsimError::DeviceLost { device });
            }
            if let Some(e) = rec
                .health
                .events
                .iter()
                .find(|e| e.resolution == Resolution::Exhausted)
            {
                return Err(BqsimError::RetriesExhausted {
                    device: e.device,
                    batch,
                    task_label: e.label.clone(),
                    attempts: e.attempt + 1,
                });
            }
        }
        Ok(rec)
    }

    /// [`run_batches_recovering`](Self::run_batches_recovering) for device
    /// `device` of a multi-device plan, with one difference: batches that
    /// cannot be absorbed locally are *reported* in `health.failed_batches`
    /// instead of raised as errors — the multi-GPU runner drains that list
    /// by requeueing onto surviving devices.
    pub fn run_batches_recovering_on(
        &self,
        device: usize,
        batches: &[Vec<Vec<Complex>>],
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Result<RecoveredRun, BqsimError> {
        self.run_batches_recovering_cancellable_on(
            device,
            batches,
            plan,
            policy,
            &CancelToken::new(),
        )
    }

    /// [`run_batches_recovering_on`](Self::run_batches_recovering_on) under
    /// a cooperative [`CancelToken`], polled at task boundaries.
    ///
    /// # Errors
    ///
    /// Additionally returns [`BqsimError::Cancelled`] when the token fires
    /// mid-run; partial outputs are discarded.
    pub fn run_batches_recovering_cancellable_on(
        &self,
        device: usize,
        batches: &[Vec<Vec<Complex>>],
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        cancel: &CancelToken,
    ) -> Result<RecoveredRun, BqsimError> {
        let batch_size = self.validate_batches(batches)?;
        let num_batches = batches.len();
        let injector = FaultInjector::for_device(plan, device);
        let mut traps = plan.oom_allocs(device);
        let mut health = RunHealth::new();
        let mut degraded_gates: Option<Vec<ConvertedGate>> = None;

        let (result, faulted, kernels) = loop {
            let gates = degraded_gates.as_deref().unwrap_or(&self.gates);
            match self.run_gates_faulted(
                gates,
                batches,
                num_batches,
                batch_size,
                device,
                &injector,
                &traps,
                policy,
                cancel,
            ) {
                Ok((run, faulted, high_water)) => {
                    if faulted.cancelled_at.is_some() {
                        return Err(BqsimError::Cancelled);
                    }
                    health.high_water_bytes.push((device, high_water));
                    break (run, faulted, gates.len());
                }
                Err(BqsimError::DeviceOom { source, .. }) => {
                    // Allocation order is deterministic, so the lowest armed
                    // trap is the one that fired; disarm it so the next rung
                    // can only be knocked down by a *different* injected OOM
                    // (exactly-once accounting).
                    let fired = traps.iter().copied().min();
                    if let Some(alloc) = fired {
                        traps.retain(|&a| a != alloc);
                    }
                    let can_resplit = policy.degrade && degraded_gates.is_none();
                    if !can_resplit && !policy.host_fallback {
                        return Err(BqsimError::DeviceOom {
                            device,
                            batch: None,
                            source,
                        });
                    }
                    if let Some(alloc) = fired {
                        health.events.push(FaultEvent {
                            device,
                            kind: FaultKind::Oom { alloc },
                            label: String::new(),
                            attempt: 0,
                            at_ns: 0,
                            resolution: Resolution::Degraded,
                        });
                    }
                    if can_resplit {
                        health
                            .degradations
                            .push("re-split fused gates + CPU conversion".to_string());
                        degraded_gates = Some(self.resplit_gates());
                    } else {
                        // Bottom rung: dense reference on the host.
                        health.degradations.push("dense host fallback".to_string());
                        health.degraded_batches.extend(0..num_batches);
                        let outputs = if self.opts.exec_mode == ExecMode::Functional {
                            batches.iter().map(|b| self.dense_reference(b)).collect()
                        } else {
                            Vec::new()
                        };
                        let run = RunResult {
                            outputs,
                            timeline: Timeline::default(),
                            breakdown: self.compile_breakdown(),
                            power: PowerReport {
                                cpu_w: cpu_average_power_w(&self.opts.cpu, 1, 1.0),
                                gpu_w: 0.0,
                                duration_ns: 0,
                            },
                        };
                        return Ok(RecoveredRun { run, health });
                    }
                }
                Err(e) => return Err(e),
            }
        };

        health.events.extend(faulted.events.iter().cloned());
        health.retries += faulted.retries;
        health.backoff_ns += faulted.backoff_ns;
        health.abandoned_tasks += faulted.abandoned.len() as u64;
        if faulted.device_lost_at.is_some() {
            health.lost_devices.push(device);
        }

        let mut failed: Vec<usize> = faulted
            .exhausted
            .iter()
            .chain(faulted.abandoned.iter())
            .map(|t| schedule::batch_of_task(t.index(), kernels))
            .collect();
        failed.sort_unstable();
        failed.dedup();

        let mut run = result;
        if !failed.is_empty() {
            let materialised =
                self.opts.exec_mode == ExecMode::Functional && !run.outputs.is_empty();
            if policy.host_fallback && materialised {
                health
                    .degradations
                    .push("per-batch dense fallback".to_string());
                for &b in &failed {
                    run.outputs[b] = self.dense_reference(&batches[b]);
                }
                health.degraded_batches.extend(failed.iter().copied());
            } else {
                health.failed_batches = failed;
            }
        }
        Ok(RecoveredRun { run, health })
    }

    /// Rung two of the degradation ladder: recompile the stored circuit
    /// with fusion disabled (each source gate keeps its small NZR
    /// footprint) and force the CPU conversion path, shrinking the
    /// device-resident gate tables an injected OOM said we cannot afford.
    fn resplit_gates(&self) -> Vec<ConvertedGate> {
        let n = self.num_qubits;
        let mut dd = DdPackage::new();
        let lowered = lower_circuit(&self.circuit);
        let fused: Vec<FusedGate> = if lowered.is_empty() {
            let id = dd.identity(n);
            vec![FusedGate::classify(&mut dd, id, n, 0)]
        } else {
            fusion::classify_gates(&mut dd, n, &lowered)
        };
        let converter = HybridConverter::new(
            self.opts.tau,
            self.opts.device.clone(),
            self.opts.cpu.clone(),
        );
        // Fresh DdPackage → fresh cache (edge ids are arena indices and
        // must not cross packages); unfused circuits repeat gates heavily.
        let mut cache = EllCache::new();
        fused
            .iter()
            .map(|g| {
                converter.convert_with_cached(&mut cache, &mut dd, g, n, ConversionMethod::Cpu)
            })
            .collect()
    }

    /// The dense host reference for one batch — the bottom of the
    /// degradation ladder.
    fn dense_reference(&self, batch: &[Vec<Complex>]) -> Vec<Vec<Complex>> {
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
        let mut outs = Vec::new();
        for layout in [Layout::Aos, Layout::Planar] {
            for threads in [1usize, 4] {
                let sim = BqSimulator::compile(
                    &circuit,
                    BqSimOptions {
                        layout,
                        threads,
                        ..BqSimOptions::default()
                    },
                )
                .unwrap();
                outs.push(sim.run_batches(&batches).unwrap().outputs);
            }
        }
        for o in &outs[1..] {
            assert_eq!(o, &outs[0], "layout × threads grid must be bit-identical");
        }
    }

    #[test]
    fn ablations_force_aos_layout() {
        for opts in [
            BqSimOptions {
                skip_ell: true,
                layout: Layout::Planar,
                ..BqSimOptions::default()
            },
            BqSimOptions {
                generic_spmm: true,
                layout: Layout::Planar,
                ..BqSimOptions::default()
            },
        ] {
            assert_eq!(opts.effective_layout(), Layout::Aos);
            // The AoS-only ablation kernels still run (and agree with the
            // oracle) even when planar was requested.
            assert_outputs_match(&generators::ghz(4), opts);
        }
        let planar = BqSimOptions::default();
        assert_eq!(planar.effective_layout(), planar.layout);
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
    fn pre_cancelled_token_aborts_before_any_output() {
        use bqsim_faults::CancelToken;
        let circuit = generators::ghz(3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches = vec![random_input_batch(3, 2, 0)];
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(matches!(
            sim.run_batches_cancellable(&batches, &cancel),
            Err(BqsimError::Cancelled)
        ));
        // A fresh token changes nothing about the result.
        let clean = sim.run_batches(&batches).unwrap();
        let again = sim
            .run_batches_cancellable(&batches, &CancelToken::new())
            .unwrap();
        assert_eq!(clean.outputs, again.outputs);
    }

    #[test]
    fn transient_faults_recover_bit_identically() {
        use bqsim_faults::{FaultBudget, FaultPlan, RecoveryPolicy};
        let circuit = generators::vqe(5, 3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches: Vec<_> = (0..3).map(|b| random_input_batch(5, 4, b as u64)).collect();
        let clean = sim.run_batches(&batches).unwrap();
        let tasks = batches.len() * schedule::tasks_per_batch(sim.gates().len());
        let plan = FaultPlan::seeded(11, 1, tasks, 5, &FaultBudget::transient(2, 1, 2));
        assert!(plan.is_transient() && !plan.is_empty());
        let rec = sim
            .run_batches_recovering(&batches, &plan, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(
            rec.run.outputs, clean.outputs,
            "recovered outputs must be bit-identical to the fault-free run"
        );
        assert_eq!(
            rec.health.fault_count(),
            plan.len(),
            "every injected fault appears exactly once:\n{}",
            rec.health
        );
        assert!(rec.health.failed_batches.is_empty());
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
        plan.push(0, FaultKind::Oom { alloc: 4 });
        let rec = sim
            .run_batches_recovering(&batches, &plan, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(rec.health.count_of("oom"), 1);
        assert_eq!(
            rec.health.degradations,
            vec!["re-split fused gates + CPU conversion"]
        );
        assert!(
            rec.run.timeline.total_ns() > 0,
            "rung two still runs on-device"
        );
        check(&rec.run.outputs);

        // Two OOMs: the second knocks the re-split run down to the dense
        // host reference.
        let mut plan = FaultPlan::new();
        plan.push(0, FaultKind::Oom { alloc: 0 })
            .push(0, FaultKind::Oom { alloc: 1 });
        let rec = sim
            .run_batches_recovering(&batches, &plan, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(rec.health.count_of("oom"), 2);
        assert_eq!(
            rec.health.degradations.last().map(String::as_str),
            Some("dense host fallback")
        );
        assert_eq!(rec.health.degraded_batches, vec![0, 1]);
        check(&rec.run.outputs);
    }

    #[test]
    fn exhausted_retries_fall_back_per_batch() {
        use bqsim_faults::{FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::ghz(3);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches: Vec<_> = (0..3).map(|b| random_input_batch(3, 2, b as u64)).collect();
        // Two faults on the same kernel exhaust a single-retry policy.
        let mut plan = FaultPlan::new();
        plan.push(0, FaultKind::KernelFault { task: 1 })
            .push(0, FaultKind::KernelFault { task: 1 });
        let policy = RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::default()
        };
        let rec = sim
            .run_batches_recovering(&batches, &plan, &policy)
            .unwrap();
        assert!(
            rec.health.degraded_batches.contains(&0),
            "the faulted batch must fall back to the host:\n{}",
            rec.health
        );
        assert!(rec.health.failed_batches.is_empty());
        assert_eq!(rec.health.count_of("kernel-fault"), 2);
        assert!(rec.health.abandoned_tasks > 0);
        let want = reference_outputs(&circuit, &batches);
        for (got_b, want_b) in rec.run.outputs.iter().zip(&want) {
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
        match sim.run_batches_recovering(&batches, &plan, &strict) {
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
