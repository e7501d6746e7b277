//! BQSim: GPU-accelerated batch quantum circuit simulation using decision
//! diagrams — the paper's primary contribution.
//!
//! A batch quantum circuit simulation (BQCS) feeds hundreds of batches of
//! input state vectors through one circuit. BQSim compiles the circuit once
//! into a reusable *simulation task graph* through three stages (Fig. 2):
//!
//! 1. **BQCS-aware gate fusion** ([`fusion`]) — gates become decision
//!    diagrams; the BQCS cost of a gate is its max NZR (paper §3.1); fusion
//!    runs the paper's three steps (runs of cost-1 gates, pairs of cost-2
//!    gates, FlatDD-style greedy).
//! 2. **DD-to-ELL conversion** ([`convert`]) — each fused gate's DD becomes
//!    an ELL sparse matrix, via the GPU kernel (Algorithm 1) when the DD
//!    has at most τ edges, and CPU path enumeration otherwise (hybrid,
//!    §3.2).
//! 3. **Task-graph execution** ([`schedule`], [`simulator`]) — per batch, a
//!    chain of ELL spMM kernels over double-buffered device memory
//!    (§3.3.2), scheduled CUDA-Graph-style so copies overlap compute.
//!
//! The "GPU" is the execution-model simulator of [`bqsim_gpu`] (see
//! DESIGN.md §2): runs report **virtual device time** and, in functional
//! mode, real output amplitudes validated against the dense oracle.
//!
//! # Quickstart
//!
//! ```
//! use bqsim_core::{BqSimOptions, BqSimulator};
//! use bqsim_qcir::generators;
//!
//! let circuit = generators::vqe(6, 42);
//! let sim = BqSimulator::compile(&circuit, BqSimOptions::default())?;
//! let inputs = bqsim_core::random_input_batch(6, 8, 1);
//! let run = sim.run_batches(&[inputs])?;
//! println!("simulated {} ms on {}", run.timeline.total_ms(), sim.device_name());
//! # Ok::<(), bqsim_core::BqsimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod ablation;
pub mod analysis;
pub mod artifact;
pub mod convert;
pub mod executor;
pub mod fusion;
pub mod kernels;
pub mod schedule;
pub mod simulator;
pub mod tune;

pub use analysis::{analyze_pipeline, analyze_recovery, PipelineAnalysis, SeededDefect};
pub use artifact::{
    artifact_key, audit_store, AuditEntry, AuditVerdict, CompileSource, StoreAudit,
};
pub use convert::{
    ConversionMethod, ConvertedGate, EllCache, EllCacheStats, HybridConverter,
    DEFAULT_ELL_CACHE_CAPACITY,
};
pub use error::BqsimError;
pub use executor::{host_parallelism, BatchExecutor, MAX_GRAPH_TASKS};
pub use fusion::{bqcs_aware_fusion, greedy_fusion, FusedGate};
pub use simulator::{
    default_layout, default_precision, default_threads, random_input_batch, validate_env,
    BatchSource, BqSimOptions, BqSimulator, CompileWall, ResolvedExec, RunBreakdown, RunRequest,
    RunResult,
};
pub use tune::{tune_or_stored, ProbeSample, TuneOutcome, TuningSource, PROBE_BATCH};

// Re-exported so layout/precision selection composes without a direct
// `bqsim-ell` dependency (mirrors the fault-plan re-exports below).
pub use bqsim_ell::{precision_tolerance, Layout, Precision};
// Re-exported so campaign/serve/CLI open stores without depending on
// `bqsim-artifact` directly.
pub use bqsim_artifact::{
    decode_artifact, ArtifactStore, LoadOutcome, StoreEntry, StoreStats, TuningRecord,
    DEFAULT_STORE_CAPACITY,
};
pub use bqsim_gpu::PoolStats;

// Re-exported so the CLI can render analysis reports without a direct
// `bqsim-analyze` dependency.
pub use bqsim_analyze::AnalysisReport;

// Re-exported so downstream users (CLI, tests) can build fault plans and
// policies without depending on `bqsim-faults` directly.
pub use bqsim_faults::{
    FaultBudget, FaultEvent, FaultKind, FaultPlan, RecoveryPolicy, Resolution, RunHealth,
};
