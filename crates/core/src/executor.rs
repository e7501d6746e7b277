//! The batch executor: everything a compiled circuit's runs of one shape
//! reuse, resolved once.
//!
//! A [`BatchExecutor`] is built for `num_batches × batch_size` runs of one
//! [`BqSimulator`]. Construction resolves the spMM lane count, checks the
//! four device state buffers, the gate-table reservation and the host
//! staging buffers out of the simulator's pool, and builds the kernel
//! chain and the §3.3.2 batch graph. Each [`BatchExecutor::run`] then
//! only stages its inputs into the kept host buffers, sweeps the kept
//! graph through the engine under the run's own fault plan, and unpacks
//! the outputs. `BqSimulator::execute` builds one executor per request;
//! a campaign builds one for its first batch and runs every batch
//! through it.
//!
//! Reuse is invisible to results: every staging, copy and kernel task
//! overwrites all of its destination, so a run never reads what the
//! previous one left behind.
//!
//! # The OOM ladder
//!
//! Injected OOMs index into the allocation sequence one launch makes
//! (`RUN_ALLOC_SITES`: four state buffers, then the gate tables). A
//! run first replays that sequence against the device capacity and its
//! plan's traps on a storage-free probe arena; only when the probe passes
//! does it sweep the kept launch. A trap that fires walks the same ladder
//! as a fresh allocation would: re-split the gates and convert on the CPU
//! (a launch built for that run alone), then the dense host reference.

use crate::convert::{ConversionMethod, ConvertedGate};
use crate::error::BqsimError;
use crate::kernels::{DdSpmvKernel, EllSpmmKernel};
use crate::schedule;
use crate::simulator::{
    BatchSource, BqSimOptions, BqSimulator, RunBreakdown, RunRequest, RunResult,
};
use bqsim_faults::{
    CancelToken, FaultEvent, FaultInjector, FaultKind, FaultPlan, RecoveryPolicy, Resolution,
    RunHealth, DEVICE,
};
use bqsim_gpu::power::{cpu_average_power_w, gpu_average_power_w, PowerReport};
use bqsim_gpu::{
    AllocDeviceError, BufferPool, DeviceMemory, DeviceSpec, Engine, ExecMode, FaultedRun,
    HostBufId, HostMemory, Kernel, TaskGraph,
};
use bqsim_num::Complex;
use std::sync::{Arc, OnceLock};

/// Device allocations one launch makes, in order: four state buffers,
/// then the gate-table reservation. Injected OOMs index into this
/// sequence.
pub(crate) const RUN_ALLOC_SITES: usize = 5;

/// The most tasks one batch graph may hold. A graph costs a few hundred
/// host bytes per task (task, kernel, timeline record), so this bound —
/// about 190k batches of a 20-gate circuit — keeps a run's schedule near
/// a gigabyte instead of letting a batch count size an allocation.
pub const MAX_GRAPH_TASKS: usize = 1 << 22;

/// The host's available parallelism, read once per process: the read
/// goes to cgroup files and costs tens of microseconds, too much to repeat
/// per kernel. The one sanctioned caller of
/// `std::thread::available_parallelism` (clippy's `disallowed-methods`).
#[allow(clippy::disallowed_methods)]
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Checks that a graph of `num_batches` batches of `kernels` gates each
/// stays within [`MAX_GRAPH_TASKS`], before anything is sized by it.
///
/// # Errors
///
/// [`BqsimError::GraphTooLarge`] past the bound.
fn check_graph_size(num_batches: usize, kernels: usize) -> Result<(), BqsimError> {
    let per_batch = schedule::tasks_per_batch(kernels);
    match num_batches.checked_mul(per_batch) {
        Some(tasks) if tasks <= MAX_GRAPH_TASKS => Ok(()),
        _ => Err(BqsimError::GraphTooLarge {
            num_batches,
            tasks_per_batch: per_batch,
            max_tasks: MAX_GRAPH_TASKS,
        }),
    }
}

/// What an executor runs: its batch count and size, and whether it moves
/// real amplitudes or only schedules (timing-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    num_batches: usize,
    batch_size: usize,
    functional: bool,
}

impl Shape {
    fn of(opts: &BqSimOptions, source: &BatchSource) -> Shape {
        let (num_batches, batch_size) = source.counts();
        Shape {
            num_batches,
            batch_size,
            functional: opts.exec_mode == ExecMode::Functional
                && matches!(source, BatchSource::Batches(_)),
        }
    }
}

/// Bytes of each allocation site of a launch of `gates`, in sequence.
fn alloc_sites(sim: &BqSimulator, gates: &[ConvertedGate], shape: Shape) -> [u64; RUN_ALLOC_SITES] {
    let width = sim.opts.effective_precision().storage_bytes();
    let state = (shape.batch_size << sim.num_qubits) as u64 * width as u64;
    let tables = gates
        .iter()
        .map(|g| g.device_bytes(sim.opts.skip_ell))
        .sum();
    [state, state, state, state, tables]
}

/// Replays an allocation sequence against the device's capacity and the
/// armed OOM traps on an arena that backs nothing, so the first failing
/// site is known before any buffer is checked out.
fn probe_allocs(spec: &DeviceSpec, sites: &[u64], traps: &[usize]) -> Result<(), AllocDeviceError> {
    let mut probe = DeviceMemory::new(spec);
    probe.inject_oom_at(traps);
    sites
        .iter()
        .try_for_each(|&bytes| probe.reserve_bytes(bytes))
}

/// One gate chain's launch: the device arena with its four state buffers
/// and gate-table reservation, the host staging buffers, and the batch
/// graph whose kernels read and write them.
#[derive(Debug)]
struct Launch {
    engine: Engine,
    mem: DeviceMemory,
    host: HostMemory,
    graph: TaskGraph,
    inputs: Vec<HostBufId>,
    outputs: Vec<HostBufId>,
    kernels: usize,
}

impl Launch {
    fn build(
        sim: &BqSimulator,
        gates: &[ConvertedGate],
        shape: Shape,
    ) -> Result<Launch, BqsimError> {
        check_graph_size(shape.num_batches, gates.len())?;
        let opts = &sim.opts;
        let elems = shape.batch_size << sim.num_qubits;
        let layout = opts.effective_layout();
        let precision = opts.effective_precision();
        let width = precision.storage_bytes();
        let sites = alloc_sites(sim, gates, shape);

        let mut mem = DeviceMemory::with_pool(&opts.device, Arc::clone(&sim.pool));
        let mut host = HostMemory::with_pool(Arc::clone(&sim.pool));
        let oom = BqsimError::oom;
        // The `RUN_ALLOC_SITES` sequence. The narrow precisions genuinely
        // halve the state-buffer residency (and the H2D/D2H traffic
        // modelled below); the sequence itself is width-independent, so
        // injected OOM traps fire at the same indices in every precision.
        let buffers = [
            mem.alloc_amp(elems, layout, width).map_err(oom)?,
            mem.alloc_amp(elems, layout, width).map_err(oom)?,
            mem.alloc_amp(elems, layout, width).map_err(oom)?,
            mem.alloc_amp(elems, layout, width).map_err(oom)?,
        ];
        mem.reserve_bytes(sites[4]).map_err(oom)?;

        // Host staging in the device layout and width: the H2D/D2H copies
        // are plane memcpys, and in the narrow precisions each input
        // amplitude rounds exactly once, when a run stages it.
        let host_len = if shape.functional { elems } else { 0 };
        let mut staging = || host.alloc_zeroed_amp(host_len, layout, width);
        let inputs: Vec<_> = (0..shape.num_batches).map(|_| staging()).collect();
        let outputs: Vec<_> = (0..shape.num_batches).map(|_| staging()).collect();

        // Lane-splitting a launch past the host's hardware threads cannot
        // make it faster — the spawned lanes just time-slice one core — so
        // the pipeline clamps here while `with_lanes` keeps honouring
        // explicit oversubscription for tests.
        let lanes = opts.threads.min(host_parallelism());
        let graph = schedule::build_batch_graph(
            &buffers,
            &inputs,
            &outputs,
            gates.len(),
            sites[0],
            &|k, src, dst| -> Arc<dyn Kernel> {
                let g = &gates[k];
                if opts.skip_ell {
                    Arc::new(DdSpmvKernel::new(
                        Arc::clone(&g.gpu_dd),
                        g.cost,
                        g.work,
                        src,
                        dst,
                        shape.batch_size,
                    ))
                } else {
                    Arc::new(EllSpmmKernel::with_tuning(
                        Arc::clone(&g.ell),
                        src,
                        dst,
                        shape.batch_size,
                        lanes,
                        opts.generic_spmm,
                        precision,
                        opts.use_pattern,
                    ))
                }
            },
        );
        Ok(Launch {
            engine: Engine::new(opts.device.clone()),
            mem,
            host,
            graph,
            inputs,
            outputs,
            kernels: gates.len(),
        })
    }

    /// One engine sweep of the graph with fault hooks armed: stages
    /// `batches` (empty when timing-only), runs, and unpacks the outputs
    /// unless the token fired. Returns the run and the engine's fault
    /// account.
    fn sweep(
        &mut self,
        sim: &BqSimulator,
        shape: Shape,
        batches: &[&[Vec<Complex>]],
        injector: &FaultInjector,
        policy: &RecoveryPolicy,
        cancel: &CancelToken,
    ) -> (RunResult, FaultedRun) {
        if shape.functional {
            for (&h, batch) in self.inputs.iter().zip(batches) {
                self.host.restage(h, batch);
            }
        }
        let exec = if shape.functional {
            ExecMode::Functional
        } else {
            ExecMode::TimingOnly
        };
        let mut faulted = self.engine.run_faulted_cancellable(
            &self.graph,
            &mut self.mem,
            &mut self.host,
            sim.opts.launch_mode,
            exec,
            injector,
            policy,
            cancel,
        );
        let timeline = std::mem::take(&mut faulted.timeline);
        let outputs = if shape.functional && faulted.cancelled_at.is_none() {
            self.outputs
                .iter()
                .map(|&h| self.host.buffer(h).store().unpack_states(shape.batch_size))
                .collect()
        } else {
            Vec::new()
        };
        let run = RunResult {
            outputs,
            breakdown: RunBreakdown {
                fusion_ns: sim.fusion_ns,
                conversion_ns: sim.conversion_ns,
                simulation_ns: timeline.total_ns(),
            },
            power: PowerReport {
                // BQSim's host CPU only orchestrates during simulation:
                // one submission thread, mostly waiting.
                cpu_w: cpu_average_power_w(&sim.opts.cpu, 1, 0.3),
                gpu_w: gpu_average_power_w(&sim.opts.device, &timeline),
                duration_ns: timeline.total_ns(),
            },
            timeline,
            health: RunHealth::new(),
        };
        (run, faulted)
    }
}

/// The resources a compiled circuit's runs of one shape reuse: built once,
/// run any number of times (see the module docs).
///
/// An executor belongs to the simulator it was built from; every
/// [`run`](Self::run) takes that simulator again for the parts of
/// recovery that recompile or replay the circuit.
#[derive(Debug)]
pub struct BatchExecutor {
    /// The simulator's pool, kept to check that a run is handed the
    /// simulator this executor was built from.
    pool: Arc<BufferPool>,
    shape: Shape,
    /// The compiled gates' launch; `None` when its allocations do not fit
    /// the device, so every run walks the OOM ladder.
    launch: Option<Launch>,
}

impl BatchExecutor {
    /// An executor for `sim`'s runs of `num_batches` batches of
    /// `batch_size` state vectors each (timing-only when the simulator's
    /// exec mode is).
    ///
    /// # Errors
    ///
    /// [`BqsimError::EmptyBatchRun`] for a zero count, and
    /// [`BqsimError::GraphTooLarge`] past [`MAX_GRAPH_TASKS`].
    pub fn new(
        sim: &BqSimulator,
        num_batches: usize,
        batch_size: usize,
    ) -> Result<BatchExecutor, BqsimError> {
        let shape = Shape {
            num_batches,
            batch_size,
            functional: sim.opts.exec_mode == ExecMode::Functional,
        };
        BatchExecutor::with_shape(sim, shape)
    }

    /// Crate-internal: the executor for `source`'s shape.
    pub(crate) fn for_source(
        sim: &BqSimulator,
        source: &BatchSource,
    ) -> Result<BatchExecutor, BqsimError> {
        BatchExecutor::with_shape(sim, Shape::of(&sim.opts, source))
    }

    fn with_shape(sim: &BqSimulator, shape: Shape) -> Result<BatchExecutor, BqsimError> {
        if shape.num_batches == 0 || shape.batch_size == 0 {
            return Err(BqsimError::EmptyBatchRun {
                num_batches: shape.num_batches,
                batch_size: shape.batch_size,
            });
        }
        check_graph_size(shape.num_batches, sim.gates.len())?;
        let sites = alloc_sites(sim, &sim.gates, shape);
        let launch = match probe_allocs(&sim.opts.device, &sites, &[]) {
            Ok(()) => Some(Launch::build(sim, &sim.gates, shape)?),
            Err(_) => None,
        };
        Ok(BatchExecutor {
            pool: Arc::clone(&sim.pool),
            shape,
            launch,
        })
    }

    /// Runs one request through the kept launch — the contract of
    /// [`BqSimulator::execute`], which is this method on a fresh executor.
    ///
    /// # Errors
    ///
    /// As [`BqSimulator::execute`], plus
    /// [`BqsimError::ExecutorShapeMismatch`] when the request's batch
    /// count, batch size or kind (amplitudes vs timing-only) is not the
    /// executor's.
    ///
    /// # Panics
    ///
    /// Panics when `sim` is not the simulator the executor was built from.
    pub fn run(&mut self, sim: &BqSimulator, req: &RunRequest) -> Result<RunResult, BqsimError> {
        assert!(
            Arc::ptr_eq(&self.pool, &sim.pool),
            "a BatchExecutor runs only with the simulator it was built from"
        );
        req.source.validate(sim.num_qubits)?;
        let got = Shape::of(&sim.opts, &req.source);
        if got != self.shape {
            return Err(BqsimError::ExecutorShapeMismatch {
                expected: (self.shape.num_batches, self.shape.batch_size),
                got: (got.num_batches, got.batch_size),
            });
        }
        let shape = self.shape;
        let fault_free = (FaultPlan::new(), RecoveryPolicy::no_recovery());
        let (plan, policy) = req.faults.unwrap_or((&fault_free.0, &fault_free.1));
        let never = CancelToken::new();
        let cancel = req.cancel.unwrap_or(&never);
        let batches: &[&[Vec<Complex>]] = match &req.source {
            BatchSource::Batches(b) => b,
            BatchSource::Synthetic { .. } => &[],
        };
        let injector = FaultInjector::new(plan);
        let mut traps = plan.oom_allocs();
        let mut health = RunHealth::new();
        let mut degraded: Option<Vec<ConvertedGate>> = None;

        let (mut run, faulted, kernels) = loop {
            let gates = degraded.as_deref().unwrap_or(&sim.gates);
            let sites = alloc_sites(sim, gates, shape);
            let source = match probe_allocs(&sim.opts.device, &sites, &traps) {
                Ok(()) => {
                    let mut rebuilt;
                    let launch = match (&degraded, self.launch.as_mut()) {
                        (None, Some(kept)) => kept,
                        _ => {
                            rebuilt = Launch::build(sim, gates, shape)?;
                            &mut rebuilt
                        }
                    };
                    let (run, faulted) =
                        launch.sweep(sim, shape, batches, &injector, policy, cancel);
                    if faulted.cancelled_at.is_some() {
                        return Err(BqsimError::Cancelled);
                    }
                    health
                        .high_water_bytes
                        .push((DEVICE, launch.mem.high_water_bytes()));
                    break (run, faulted, launch.kernels);
                }
                Err(source) => source,
            };
            // Allocation order is deterministic, so the lowest armed trap
            // is the one that fired; disarm it so the next rung can only
            // be knocked down by a *different* injected OOM (exactly-once
            // accounting).
            let fired = traps.iter().copied().min();
            if let Some(alloc) = fired {
                traps.retain(|&a| a != alloc);
            }
            let can_resplit = policy.degrade && degraded.is_none();
            if !can_resplit && !policy.host_fallback {
                return Err(BqsimError::oom(source));
            }
            if let Some(alloc) = fired {
                health.events.push(FaultEvent {
                    device: DEVICE,
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
                degraded = Some(resplit_gates(sim)?);
            } else {
                // Bottom rung: dense reference on the host.
                health.degradations.push("dense host fallback".to_string());
                health.degraded_batches.extend(0..shape.num_batches);
                let mut run = sim.idle_result();
                if shape.functional {
                    run.outputs = batches.iter().map(|b| sim.dense_reference(b)).collect();
                }
                run.power.cpu_w = cpu_average_power_w(&sim.opts.cpu, 1, 1.0);
                run.health = health;
                return Ok(run);
            }
        };

        health.events.extend(faulted.events.iter().cloned());
        health.retries += faulted.retries;
        health.backoff_ns += faulted.backoff_ns;
        health.abandoned_tasks += faulted.abandoned.len() as u64;
        if faulted.device_lost_at.is_some() {
            health.lost_devices.push(DEVICE);
        }

        let mut failed: Vec<usize> = faulted
            .exhausted
            .iter()
            .chain(faulted.abandoned.iter())
            .map(|t| schedule::batch_of_task(t.index(), kernels))
            .collect();
        failed.sort_unstable();
        failed.dedup();

        if let Some(&batch) = failed.first() {
            if !policy.host_fallback || run.outputs.is_empty() {
                let exhausted = health
                    .events
                    .iter()
                    .find(|e| e.resolution == Resolution::Exhausted);
                return Err(match exhausted {
                    Some(e) if faulted.device_lost_at.is_none() => BqsimError::RetriesExhausted {
                        device: e.device,
                        batch,
                        task_label: e.label.clone(),
                        attempts: e.attempt + 1,
                    },
                    // Tasks are abandoned only behind an exhausted task or
                    // a lost device (a cancelled sweep returned above).
                    _ => BqsimError::DeviceLost { device: DEVICE },
                });
            }
            health
                .degradations
                .push("per-batch dense fallback".to_string());
            for &b in &failed {
                run.outputs[b] = sim.dense_reference(batches[b]);
            }
            health.degraded_batches.extend(failed.iter().copied());
        }
        run.health = health;
        Ok(run)
    }
}

/// Rung two of the degradation ladder: recompile the stored circuit with
/// fusion disabled (each source gate keeps its small NZR footprint) and
/// force the CPU conversion path, shrinking the device-resident gate
/// tables an injected OOM said we cannot afford.
fn resplit_gates(sim: &BqSimulator) -> Result<Vec<ConvertedGate>, BqsimError> {
    let opts = BqSimOptions {
        skip_fusion: true,
        force_conversion: Some(ConversionMethod::Cpu),
        ..sim.opts.clone()
    };
    Ok(BqSimulator::compile(&sim.circuit, opts)?.gates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::EllSpmmKernel;
    use crate::simulator::random_input_batch;
    use bqsim_ell::{Layout, Precision};
    use bqsim_faults::FaultBudget;
    use bqsim_qcir::generators;

    /// Runs batches `0..k` of `inputs` through one executor and through a
    /// fresh `execute` each, batch `b` under the plan seeded from
    /// `seed ^ b` (a campaign's per-batch plan), and requires both to
    /// agree bit for bit — outputs and fault accounting — with the
    /// executor's pool taking no fresh buffer after batch 0.
    fn reuse_matches_fresh(
        sim: &BqSimulator,
        inputs: &[Vec<Vec<Complex>>],
        faults: Option<(u64, FaultBudget)>,
    ) {
        let policy = RecoveryPolicy::default();
        let batch_size = inputs[0].len();
        let mut executor = BatchExecutor::new(sim, 1, batch_size).unwrap();
        let mut misses_after_first = None;
        for (b, batch) in inputs.iter().enumerate() {
            let plan = faults
                .as_ref()
                .map(|(seed, budget)| sim.seeded_fault_plan(seed ^ b as u64, 1, budget));
            let req = RunRequest {
                source: BatchSource::Batches(vec![batch.as_slice()]),
                cancel: None,
                faults: plan.as_ref().map(|p| (p, &policy)),
            };
            let kept = executor.run(sim, &req).unwrap();
            let fresh = sim.execute(&req).unwrap();
            assert_eq!(kept.outputs, fresh.outputs, "batch {b}: outputs differ");
            assert_eq!(
                kept.health, fresh.health,
                "batch {b}: fault accounting differs"
            );
            assert_eq!(kept.timeline.total_ns(), fresh.timeline.total_ns());
            let misses = sim.pool_stats().misses;
            let first = *misses_after_first.get_or_insert(misses);
            assert_eq!(misses, first, "batch {b} took a fresh buffer from the pool");
        }
    }

    #[test]
    fn executor_reuse_is_bit_identical_to_fresh_runs() {
        // qft-8 × 32 gives 8192 output elements per launch: two lanes of
        // MIN_ELEMS_PER_LANE, so at two threads every launch splits.
        let (n, batch_size, k) = (8, 32, 3);
        let circuit = generators::qft(n);
        let inputs: Vec<_> = (0..k)
            .map(|b| random_input_batch(n, batch_size, 40 + b as u64))
            .collect();
        let plans = [
            None,
            Some((11, FaultBudget::transient(2, 1, 1))),
            Some((
                12,
                FaultBudget {
                    ooms: 1,
                    device_losses: 1,
                    ..FaultBudget::transient(1, 1, 1)
                },
            )),
        ];
        for layout in [Layout::Aos, Layout::Planar] {
            for precision in [Precision::F64, Precision::F32] {
                for threads in [1, 2] {
                    let opts = BqSimOptions {
                        layout,
                        precision,
                        threads,
                        ..BqSimOptions::default()
                    };
                    let sim = BqSimulator::compile(&circuit, opts).unwrap();
                    if threads == 2 && host_parallelism() >= 2 {
                        let g = &sim.gates()[0];
                        let mut mem = DeviceMemory::new(&DeviceSpec::tiny_test_gpu());
                        let (a, b) = (mem.alloc(1).unwrap(), mem.alloc(1).unwrap());
                        let probe =
                            EllSpmmKernel::with_lanes(Arc::clone(&g.ell), a, b, batch_size, 2);
                        assert_eq!(probe.effective_lanes(), 2, "the shape must split lanes");
                    }
                    for faults in &plans {
                        reuse_matches_fresh(&sim, &inputs, *faults);
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_oom_fires_at_the_same_site_through_a_kept_executor() {
        let sim = BqSimulator::compile(&generators::ghz(4), BqSimOptions::default()).unwrap();
        let batch = random_input_batch(4, 2, 0);
        let budget = FaultBudget {
            ooms: 1,
            ..FaultBudget::default()
        };
        let policy = RecoveryPolicy::default();
        let mut executor = BatchExecutor::new(&sim, 1, 2).unwrap();
        for seed in 0..16 {
            let plan = sim.seeded_fault_plan(seed, 1, &budget);
            let site = plan.oom_allocs()[0];
            assert!(site < RUN_ALLOC_SITES, "seed {seed}: {plan:?}");
            let req = RunRequest::batches(std::slice::from_ref(&batch)).with_faults(&plan, &policy);
            let run = executor.run(&sim, &req).unwrap();
            let fired: Vec<_> = run
                .health
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    FaultKind::Oom { alloc } => Some(alloc),
                    _ => None,
                })
                .collect();
            assert_eq!(fired, vec![site], "seed {seed}");
        }
    }

    #[test]
    fn oversized_runs_are_refused_before_any_allocation() {
        // The bound is pure arithmetic: no graph, buffer or Vec is sized
        // by the batch count on the way to the error.
        assert!(check_graph_size(MAX_GRAPH_TASKS / 3, 1).is_ok());
        assert!(matches!(
            check_graph_size(100_000_000_000, 12),
            Err(BqsimError::GraphTooLarge {
                num_batches: 100_000_000_000,
                tasks_per_batch: 14,
                max_tasks: MAX_GRAPH_TASKS,
            })
        ));
        assert!(
            check_graph_size(usize::MAX, 1).is_err(),
            "overflow is refused"
        );
        let sim = BqSimulator::compile(&generators::ghz(3), BqSimOptions::default()).unwrap();
        assert!(matches!(
            sim.run_synthetic(100_000_000_000, 64),
            Err(BqsimError::GraphTooLarge { .. })
        ));
    }

    #[test]
    fn a_run_of_another_shape_is_refused() {
        let sim = BqSimulator::compile(&generators::ghz(3), BqSimOptions::default()).unwrap();
        let mut executor = BatchExecutor::new(&sim, 1, 2).unwrap();
        let batches = vec![random_input_batch(3, 4, 0)];
        assert!(matches!(
            executor.run(&sim, &RunRequest::batches(&batches)),
            Err(BqsimError::ExecutorShapeMismatch {
                expected: (1, 2),
                got: (1, 4)
            })
        ));
        assert!(matches!(
            executor.run(&sim, &RunRequest::synthetic(1, 2)),
            Err(BqsimError::ExecutorShapeMismatch { .. })
        ));
    }
}
