//! Whole-pipeline static analysis — the library behind `bqsim analyze`.
//!
//! Runs a circuit through every compile stage (fusion → conversion →
//! schedule construction) and subjects each produced artifact to the
//! corresponding `bqsim-analyze` pass: QMDD well-formedness and NZRV
//! consistency per fused gate, ELL layout validity per converted gate, and
//! race/lifetime/Fig.-8b conformance on the batch task graph. Nothing is
//! executed; the report says whether the *artifacts* are sound.

use crate::convert::{ConvertedGate, HybridConverter};
use crate::error::BqsimError;
use crate::kernels::EllSpmmKernel;
use crate::schedule;
use crate::simulator::{BqSimOptions, BqSimulator};
use bqsim_analyze as analyze;
use bqsim_analyze::{AnalysisReport, Diagnostics, ModelCheckBudget};
use bqsim_faults::{FaultInjector, FaultPlan, RecoveryPolicy};
use bqsim_gpu::{
    BufferId, DeviceMemory, Engine, ExecMode, HostMemory, Kernel, LockMode, LockSite, PoolEvent,
    PoolEventKind, TaskGraph, WakeDiscipline, WAKE_DISCIPLINE,
};
use bqsim_qcir::Circuit;
use bqsim_qdd::gates::lower_circuit;
use bqsim_qdd::DdPackage;
use std::sync::Arc;

/// The artifacts every analysis entry point inspects: the four
/// double-buffered device state buffers and the batch task graph built
/// over them, plus the live memories that keep the ids valid. Previously
/// each entry point rebuilt this block by hand.
struct AnalysisSchedule {
    mem: DeviceMemory,
    host: HostMemory,
    buffers: [BufferId; 4],
    graph: TaskGraph,
}

/// Allocates the analysis schedule for `converted` gates. With
/// `functional_inputs`, host staging buffers carry real packed amplitudes
/// (needed when the schedule will actually execute in functional mode);
/// otherwise they are zero-length placeholders.
fn build_analysis_schedule(
    converted: &[ConvertedGate],
    opts: &BqSimOptions,
    num_qubits: usize,
    num_batches: usize,
    batch_size: usize,
    functional_inputs: bool,
) -> Result<AnalysisSchedule, BqsimError> {
    let dim = 1usize << num_qubits;
    let elems = dim * batch_size;
    let mut mem = DeviceMemory::new(&opts.device);
    let mut host = HostMemory::new();
    // Analysis builds its schedule for a single simulated device; OOMs are
    // attributed to it explicitly (there is no blanket allocator-error
    // conversion precisely so multi-device paths cannot misattribute).
    let oom = |e| BqsimError::oom_on(0, e);
    let buffers = [
        mem.alloc(elems).map_err(oom)?,
        mem.alloc(elems).map_err(oom)?,
        mem.alloc(elems).map_err(oom)?,
        mem.alloc(elems).map_err(oom)?,
    ];
    let inputs: Vec<_> = (0..num_batches)
        .map(|b| {
            if functional_inputs {
                let batch = crate::simulator::random_input_batch(num_qubits, batch_size, b as u64);
                host.alloc_from(bqsim_ell::pack_batch(&batch))
            } else {
                host.alloc_zeroed(0)
            }
        })
        .collect();
    let out_len = if functional_inputs { elems } else { 0 };
    let outputs: Vec<_> = (0..num_batches)
        .map(|_| host.alloc_zeroed(out_len))
        .collect();
    let graph = schedule::build_batch_graph(
        &buffers,
        &inputs,
        &outputs,
        converted.len(),
        (elems * 16) as u64,
        &|k, src, dst| -> Arc<dyn Kernel> {
            Arc::new(EllSpmmKernel::new(
                Arc::clone(&converted[k].ell),
                src,
                dst,
                batch_size,
            ))
        },
    );
    Ok(AnalysisSchedule {
        mem,
        host,
        buffers,
        graph,
    })
}

/// Dense NZRV cross-checking enumerates `O(4^n)` matrix entries, so it is
/// gated to gates at or below this width.
pub const NZRV_DENSE_CHECK_MAX_QUBITS: usize = 6;

/// The outcome of [`analyze_pipeline`]: the merged findings plus coverage
/// counters for the report.
#[derive(Debug)]
pub struct PipelineAnalysis {
    /// All findings, in pipeline order (DD → ELL → task graph).
    pub diagnostics: Diagnostics,
    /// Fused gates whose DD and ELL artifacts were checked.
    pub gates_checked: usize,
    /// Gates that additionally ran the dense NZRV cross-check.
    pub nzrv_checked: usize,
    /// Tasks in the analysed batch graph.
    pub tasks_checked: usize,
    /// Matrix nodes alive in the DD package after compilation.
    pub dd_nodes: usize,
}

/// Compiles `circuit` for `num_batches` batches of `batch_size` inputs and
/// statically analyzes every pipeline artifact. `integrity_budget`, when
/// supplied, additionally audits whether the plan's precision can meet
/// that norm-drift budget (the campaign `--integrity-budget` value).
///
/// # Errors
///
/// Returns [`BqsimError::EmptyCircuit`] for a zero-qubit circuit and
/// [`BqsimError::DeviceOom`] if the schedule's buffers exceed the simulated
/// device memory.
pub fn analyze_pipeline(
    circuit: &Circuit,
    opts: &BqSimOptions,
    num_batches: usize,
    batch_size: usize,
    integrity_budget: Option<f64>,
) -> Result<PipelineAnalysis, BqsimError> {
    let n = circuit.num_qubits();
    if n == 0 {
        return Err(BqsimError::EmptyCircuit);
    }
    let mut diags = Diagnostics::new();
    let mut dd = DdPackage::new();
    let lowered = lower_circuit(circuit);

    // Stage ①: fusion (or bare classification in the ablation).
    let fused = if lowered.is_empty() {
        let id = dd.identity(n);
        vec![crate::fusion::FusedGate::classify(&mut dd, id, n, 0)]
    } else if opts.skip_fusion {
        crate::fusion::classify_gates(&mut dd, n, &lowered)
    } else {
        crate::fusion::bqcs_aware_fusion(&mut dd, n, &lowered)
    };

    // Stage ②: per-gate DD invariants, NZRV consistency, ELL validity.
    let converter = HybridConverter::new(opts.tau, opts.device.clone(), opts.cpu.clone());
    let mut nzrv_checked = 0;
    let mut converted = Vec::with_capacity(fused.len());
    for (gi, g) in fused.iter().enumerate() {
        let mut gate_diags = analyze::analyze_dd(&analyze::matrix_dd_facts(&dd, g.edge, n));
        if n <= NZRV_DENSE_CHECK_MAX_QUBITS {
            gate_diags.merge(analyze::check_nzrv_consistency(&mut dd, g.edge, n));
            nzrv_checked += 1;
        }
        let conv = match opts.force_conversion {
            Some(m) => converter.convert_with(&mut dd, g, n, m),
            None => converter.convert(&mut dd, g, n),
        };
        gate_diags.merge(analyze::analyze_ell(&analyze::ell_facts(&conv.ell)));
        // Conversion annotates block-periodic rows for the planar kernels;
        // prove the annotation decodes back to the exact tensor before any
        // kernel is allowed to execute from the compressed template.
        gate_diags.merge(analyze::check_pattern_roundtrip(&conv.ell));
        for d in gate_diags.iter() {
            diags.push(
                d.severity,
                d.pass,
                format!("gate {gi}: {}", d.location),
                d.message.clone(),
            );
        }
        converted.push(conv);
    }

    // Stage ③: build the real batch schedule and analyse it.
    let sched = build_analysis_schedule(&converted, opts, n, num_batches, batch_size, false)?;
    let facts = schedule::schedule_graph_facts(&sched.graph, &sched.buffers);
    diags.merge(analyze::analyze_graph(&facts));
    diags.merge(analyze::check_double_buffer_discipline(
        &facts,
        num_batches,
        converted.len(),
    ));

    // Stage ④: the plan's precision obligation — when an integrity
    // budget is supplied, the depth-derived tolerance audit (would this
    // precision's worst-case drift fit the budget, or would every batch
    // quarantine?).
    diags.merge(analyze::check_precision_safety(&analyze::PrecisionFacts {
        precision: opts.effective_precision(),
        depth: converted.len(),
        budget: integrity_budget,
    }));

    Ok(PipelineAnalysis {
        diagnostics: diags,
        gates_checked: converted.len(),
        nzrv_checked,
        tasks_checked: sched.graph.len(),
        dd_nodes: dd.mat_node_count(),
    })
}

/// Builds the batch schedule, executes it (timing-only) under the faults of
/// `plan` with recovery per `policy`, and statically verifies the
/// *executed* recovery schedule: per-task attempt discipline, preserved
/// happens-before across retries and backoff, and freedom from buffer
/// hazards between overlapping attempts. This is the check behind
/// `bqsim analyze --fault-plan …`.
///
/// # Errors
///
/// Returns [`BqsimError::EmptyCircuit`] for a zero-qubit circuit and
/// [`BqsimError::DeviceOom`] if the schedule's buffers exceed the simulated
/// device memory (injected OOM traps are *not* armed here — this pass
/// inspects the retry schedule, not the allocation ladder).
pub fn analyze_recovery(
    circuit: &Circuit,
    opts: &BqSimOptions,
    num_batches: usize,
    batch_size: usize,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> Result<Diagnostics, BqsimError> {
    let sim = BqSimulator::compile(circuit, opts.clone())?;
    let mut sched = build_analysis_schedule(
        sim.gates(),
        opts,
        circuit.num_qubits(),
        num_batches,
        batch_size,
        false,
    )?;

    let engine = Engine::new(opts.device.clone());
    let injector = FaultInjector::for_device(plan, 0);
    let faulted = engine.run_faulted(
        &sched.graph,
        &mut sched.mem,
        &mut sched.host,
        opts.launch_mode,
        ExecMode::TimingOnly,
        &injector,
        policy,
    );

    let facts = schedule::schedule_graph_facts(&sched.graph, &sched.buffers);
    let attempts = analyze::recovery_attempt_facts(faulted.timeline.records());
    Ok(analyze::check_recovery_schedule(&facts, &attempts))
}

/// Executes the batch schedule functionally on the parallel worker-pool
/// executor and statically verifies the *executed* parallel schedule
/// against the task graph: dependency order preserved (no task's span
/// starts before all predecessors' spans end on the shared logical clock)
/// and no two buffer-conflicting tasks overlapped. This is the
/// parallel-schedule conformance check behind `bqsim analyze --threads N`.
///
/// `opts.threads` is forced to at least 2 — a serial run produces no
/// concurrency to certify. Faults from `plan` are injected so the check
/// also covers replayed retries and abandoned tasks.
///
/// # Errors
///
/// Returns [`BqsimError::EmptyCircuit`] for a zero-qubit circuit and
/// [`BqsimError::DeviceOom`] if the schedule's buffers exceed the simulated
/// device memory.
pub fn analyze_parallel_execution(
    circuit: &Circuit,
    opts: &BqSimOptions,
    num_batches: usize,
    batch_size: usize,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> Result<Diagnostics, BqsimError> {
    let sim = BqSimulator::compile(circuit, opts.clone())?;
    // Functional mode needs real amplitudes behind the H2D copies.
    let mut sched = build_analysis_schedule(
        sim.gates(),
        opts,
        circuit.num_qubits(),
        num_batches,
        batch_size,
        true,
    )?;

    let engine = Engine::with_threads(opts.device.clone(), opts.threads.max(2));
    let injector = FaultInjector::for_device(plan, 0);
    let faulted = engine.run_faulted(
        &sched.graph,
        &mut sched.mem,
        &mut sched.host,
        opts.launch_mode,
        ExecMode::Functional,
        &injector,
        policy,
    );

    let facts = schedule::schedule_graph_facts(&sched.graph, &sched.buffers);
    Ok(analyze::check_parallel_schedule(
        &facts,
        &faulted.parallel_spans,
    ))
}

/// A defect deliberately seeded into an otherwise-correct pipeline
/// artifact before analysis, used to prove each model-check pass actually
/// fires (`bqsim analyze --model-check --inject-defect <name>` and the
/// seeded-defect CI corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededDefect {
    /// Drop the hazard edge ordering a buffer-recycling H2D copy after
    /// the D2H still reading the buffer (schedule-space data race).
    Race,
    /// Add two co-runnable tasks whose lock acquisition orders invert
    /// each other (ABBA deadlock).
    LockOrder,
    /// Drop the worker pool's final `notify_all` broadcast (lost final
    /// wake-up).
    Wake,
    /// Replay a pool event log whose shelf hands out a buffer it never
    /// got back (retire-before-reuse violation).
    Pool,
    /// Audit a journal whose record sequence completes a batch twice.
    Journal,
}

impl SeededDefect {
    /// Every defect, in the order the CI corpus iterates them.
    pub const ALL: [SeededDefect; 5] = [
        SeededDefect::Race,
        SeededDefect::LockOrder,
        SeededDefect::Wake,
        SeededDefect::Pool,
        SeededDefect::Journal,
    ];

    /// The CLI name of the defect.
    pub fn name(self) -> &'static str {
        match self {
            SeededDefect::Race => "race",
            SeededDefect::LockOrder => "lock-order",
            SeededDefect::Wake => "wake",
            SeededDefect::Pool => "pool",
            SeededDefect::Journal => "journal",
        }
    }

    /// Parses a CLI name back into a defect.
    pub fn parse(s: &str) -> Option<SeededDefect> {
        SeededDefect::ALL.into_iter().find(|d| d.name() == s)
    }
}

/// Options for [`model_check_pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct ModelCheckOptions {
    /// Cap on the number of inequivalent serializations the DPOR
    /// exploration may enumerate before truncating with a warning.
    pub budget: ModelCheckBudget,
    /// Worker-pool size the wake-discipline pass verifies against.
    pub workers: usize,
    /// A defect to seed before checking (None = check the real artifacts).
    pub defect: Option<SeededDefect>,
}

impl Default for ModelCheckOptions {
    fn default() -> Self {
        ModelCheckOptions {
            budget: ModelCheckBudget::default(),
            workers: crate::simulator::default_threads(),
            defect: None,
        }
    }
}

/// The outcome of [`model_check_pipeline`]: a sectioned report plus the
/// exploration counters the CLI summarises.
#[derive(Debug)]
pub struct ModelCheckReport {
    /// All findings, sectioned per pass family.
    pub report: AnalysisReport,
    /// Inequivalent serializations the DPOR exploration enumerated.
    pub traces_explored: usize,
    /// Whether exploration stopped at the budget.
    pub truncated: bool,
    /// Distinct per-buffer effect orders observed (1 = deterministic).
    pub distinct_orders: usize,
    /// Tasks in the checked batch graph.
    pub tasks: usize,
}

impl ModelCheckReport {
    /// Whether every pass ran to completion with no findings.
    pub fn verified(&self) -> bool {
        !self.truncated && self.report.is_clean()
    }
}

/// Model-checks the schedule space of `circuit`'s compiled batch graph:
/// DPOR exploration of every inequivalent serialization (races and
/// determinism, with counterexample traces), static lock-order deadlock
/// freedom over the executor's per-buffer `RwLock` acquisitions, a
/// lost-wakeup search over the worker pool's wake accounting, and a
/// retire-before-reuse audit of the simulator's buffer pool after a cold
/// and a warm functional run.
///
/// # Errors
///
/// Returns [`BqsimError::EmptyCircuit`] for a zero-qubit circuit,
/// [`BqsimError::DeviceOom`] if the schedule's buffers exceed the
/// simulated device memory, and propagates functional-run failures from
/// the pool-audit stage.
pub fn model_check_pipeline(
    circuit: &Circuit,
    opts: &BqSimOptions,
    num_batches: usize,
    batch_size: usize,
    mc: &ModelCheckOptions,
) -> Result<ModelCheckReport, BqsimError> {
    let sim = BqSimulator::compile(circuit, opts.clone())?;
    let n = circuit.num_qubits();
    let sched = build_analysis_schedule(sim.gates(), opts, n, num_batches, batch_size, false)?;
    let mut facts = schedule::schedule_graph_facts(&sched.graph, &sched.buffers);
    let mut locks = analyze::derive_lock_facts(&sched.graph);

    match mc.defect {
        Some(SeededDefect::Race) => {
            // Cut the hazard edges into the first buffer-recycling H2D:
            // it now overlaps the tasks still using the recycled pair.
            if let Some(t) = facts
                .tasks
                .iter_mut()
                .find(|t| t.op == analyze::TaskOp::H2D && !t.preds.is_empty())
            {
                t.preds.clear();
            }
        }
        Some(SeededDefect::LockOrder) => {
            // Two footprint-free (hence unordered) tasks taking the first
            // two state buffers in opposite orders.
            for (label, first, second) in [
                ("seeded defect a", 0usize, 1usize),
                ("seeded defect b", 1, 0),
            ] {
                facts.tasks.push(analyze::TaskFacts {
                    label: label.to_string(),
                    op: analyze::TaskOp::Kernel,
                    preds: Vec::new(),
                    reads: Vec::new(),
                    writes: Vec::new(),
                });
                locks.push(analyze::TaskLockFacts {
                    label: label.to_string(),
                    acquisitions: vec![
                        (LockSite::Device(first), LockMode::Read),
                        (LockSite::Device(second), LockMode::Write),
                    ],
                });
            }
        }
        _ => {}
    }

    let mut report = AnalysisReport::new();

    // ① DPOR exploration: races and determinism over the effect lists.
    let outcome = analyze::model_check_graph(&facts, mc.budget);
    report.push_section(
        "schedule space (DPOR)",
        format!(
            "explored {} inequivalent serialization(s) of {} task(s); \
             {} distinct per-buffer effect order(s){}",
            outcome.traces_explored,
            facts.tasks.len(),
            outcome.distinct_orders,
            if outcome.truncated {
                " [truncated at budget]"
            } else {
                ""
            },
        ),
        outcome.diagnostics.clone(),
    );

    // ② Static lock-order deadlock freedom.
    let acquisitions: usize = locks.iter().map(|l| l.acquisitions.len()).sum();
    report.push_section(
        "lock order",
        format!(
            "{} task(s), {} lock acquisition(s) over the per-buffer RwLocks",
            locks.len(),
            acquisitions
        ),
        analyze::check_lock_order(&facts, &locks),
    );

    // ③ Lost-wakeup search over the wake accounting. The seeded wake
    // defect forces a multi-worker pool: with one worker there is never
    // anybody parked while another worker finishes the last task, so a
    // missing broadcast is genuinely harmless there.
    let workers = if mc.defect == Some(SeededDefect::Wake) {
        mc.workers.max(2)
    } else {
        mc.workers.max(1)
    };
    let discipline = if mc.defect == Some(SeededDefect::Wake) {
        WakeDiscipline {
            final_broadcast: false,
            ..WAKE_DISCIPLINE
        }
    } else {
        WAKE_DISCIPLINE
    };
    let mut succ_counts = vec![0usize; facts.tasks.len()];
    let mut roots = 0usize;
    for t in &facts.tasks {
        if t.preds.is_empty() {
            roots += 1;
        }
        for &p in &t.preds {
            if let Some(c) = succ_counts.get_mut(p) {
                *c += 1;
            }
        }
    }
    let wake_facts = analyze::WakeFacts {
        workers,
        tasks: facts.tasks.len(),
        roots,
        max_fanout: succ_counts.iter().copied().max().unwrap_or(0),
        discipline,
    };
    report.push_section(
        "worker pool",
        format!(
            "{workers} worker(s); notify_per_newly_ready={}, final_broadcast={}",
            discipline.notify_per_newly_ready, discipline.final_broadcast
        ),
        analyze::check_wake_discipline(&wake_facts),
    );

    // ④ Pool aliasing: audit the real event log after a cold and a warm
    // functional run (the warm run is what exercises shelf reuse), or a
    // seeded defective log.
    let (events, dropped) = if mc.defect == Some(SeededDefect::Pool) {
        let defective = vec![
            PoolEvent {
                seq: 0,
                class: 64,
                layout: crate::Layout::Aos,
                width: 16,
                kind: PoolEventKind::CheckoutMiss,
            },
            PoolEvent {
                seq: 1,
                class: 64,
                layout: crate::Layout::Aos,
                width: 16,
                kind: PoolEventKind::CheckoutHit,
            },
        ];
        (defective, 0)
    } else {
        let batches: Vec<_> = (0..num_batches)
            .map(|b| crate::simulator::random_input_batch(n, batch_size, b as u64))
            .collect();
        sim.run_batches(&batches)?;
        sim.run_batches(&batches)?;
        sim.pool_events()
    };
    report.push_section(
        "buffer pool",
        format!("{} event(s), {} dropped", events.len(), dropped),
        analyze::check_pool_discipline(&events, dropped, true),
    );

    // ⑤ Journal state machine (only meaningful with the seeded defect —
    // live journals are audited by `bqsim analyze --journal`).
    if mc.defect == Some(SeededDefect::Journal) {
        let journal = analyze::JournalFacts {
            num_batches: 2,
            torn_tail: false,
            records: vec![
                analyze::JournalRecordFacts {
                    line: 1,
                    kind: analyze::JournalRecordKind::Header,
                    batch: 0,
                },
                analyze::JournalRecordFacts {
                    line: 2,
                    kind: analyze::JournalRecordKind::Completion,
                    batch: 0,
                },
                analyze::JournalRecordFacts {
                    line: 3,
                    kind: analyze::JournalRecordKind::Completion,
                    batch: 0,
                },
            ],
        };
        report.push_section(
            "journal state machine",
            "seeded journal: batch 0 completed twice".to_string(),
            analyze::check_journal(&journal),
        );
    }

    Ok(ModelCheckReport {
        traces_explored: outcome.traces_explored,
        truncated: outcome.truncated,
        distinct_orders: outcome.distinct_orders,
        tasks: facts.tasks.len(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_qcir::generators;

    #[test]
    fn qft_pipeline_is_clean() {
        // The acceptance scenario: 8-qubit QFT, 6 batches.
        let circuit = generators::qft(8);
        let report = analyze_pipeline(&circuit, &BqSimOptions::default(), 6, 16, None)
            .expect("analysis runs");
        assert!(
            report.diagnostics.is_clean(),
            "expected a clean pipeline:\n{}",
            report.diagnostics
        );
        assert!(report.gates_checked > 0);
        assert_eq!(
            report.tasks_checked,
            6 * (report.gates_checked + 2),
            "batch layout: H2D + kernels + D2H per batch"
        );
        assert_eq!(report.nzrv_checked, 0, "8 qubits exceeds the dense gate");
    }

    #[test]
    fn small_circuits_get_the_dense_nzrv_check() {
        let circuit = generators::ghz(4);
        let report = analyze_pipeline(&circuit, &BqSimOptions::default(), 2, 4, None)
            .expect("analysis runs");
        assert!(report.diagnostics.is_clean(), "{}", report.diagnostics);
        assert_eq!(report.nzrv_checked, report.gates_checked);
    }

    #[test]
    fn recovery_schedules_stay_hazard_free_under_seeded_faults() {
        use bqsim_faults::{FaultBudget, FaultPlan};
        let circuit = generators::vqe(5, 5);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let (num_batches, batch_size) = (4, 8);
        let tasks = num_batches * schedule::tasks_per_batch(sim.gates().len());
        for seed in [1u64, 7, 42] {
            let plan = FaultPlan::seeded(seed, 1, tasks, 5, &FaultBudget::transient(2, 1, 1));
            let diags = analyze_recovery(
                &circuit,
                &BqSimOptions::default(),
                num_batches,
                batch_size,
                &plan,
                &RecoveryPolicy::default(),
            )
            .expect("analysis runs");
            assert!(
                diags.is_clean(),
                "seed {seed}: recovery schedule must be hazard-free:\n{diags}"
            );
        }
    }

    #[test]
    fn parallel_schedules_are_certified_race_free() {
        use bqsim_faults::FaultPlan;
        let circuit = generators::vqe(5, 5);
        for threads in [2usize, 4, 7] {
            let opts = BqSimOptions {
                threads,
                ..BqSimOptions::default()
            };
            let diags = analyze_parallel_execution(
                &circuit,
                &opts,
                4,
                8,
                &FaultPlan::new(),
                &RecoveryPolicy::default(),
            )
            .expect("analysis runs");
            assert!(
                diags.is_clean(),
                "{threads} threads: parallel schedule must be clean:\n{diags}"
            );
        }
    }

    #[test]
    fn parallel_schedules_stay_clean_under_fault_replay() {
        use bqsim_faults::{FaultBudget, FaultPlan};
        let circuit = generators::vqe(5, 5);
        let (num_batches, batch_size) = (4, 8);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let tasks = num_batches * schedule::tasks_per_batch(sim.gates().len());
        let opts = BqSimOptions {
            threads: 4,
            ..BqSimOptions::default()
        };
        for seed in [3u64, 19] {
            let plan = FaultPlan::seeded(seed, 1, tasks, 5, &FaultBudget::transient(2, 1, 1));
            let diags = analyze_parallel_execution(
                &circuit,
                &opts,
                num_batches,
                batch_size,
                &plan,
                &RecoveryPolicy::default(),
            )
            .expect("analysis runs");
            assert!(
                diags.is_clean(),
                "seed {seed}: parallel replay schedule must be clean:\n{diags}"
            );
        }
    }

    #[test]
    fn model_check_certifies_the_compiled_schedule() {
        let circuit = generators::ghz(4);
        let mc = ModelCheckOptions {
            workers: 4,
            ..ModelCheckOptions::default()
        };
        let report = model_check_pipeline(&circuit, &BqSimOptions::default(), 4, 4, &mc)
            .expect("model check runs");
        assert!(
            report.verified(),
            "expected a verified schedule:\n{}",
            report.report.render_text()
        );
        // A correct double-buffered schedule has exactly one inequivalent
        // serialization: every conflicting pair is ordered by an edge.
        assert_eq!(report.traces_explored, 1, "{}", report.report.render_text());
        assert_eq!(report.distinct_orders, 1);
        assert!(!report.truncated);
        assert!(report.tasks > 0);
    }

    #[test]
    fn every_seeded_defect_is_caught_by_its_pass() {
        let circuit = generators::ghz(3);
        for defect in SeededDefect::ALL {
            let mc = ModelCheckOptions {
                workers: 4,
                defect: Some(defect),
                ..ModelCheckOptions::default()
            };
            let report = model_check_pipeline(&circuit, &BqSimOptions::default(), 4, 2, &mc)
                .expect("model check runs");
            assert!(
                report.report.error_count() > 0,
                "defect {:?} must produce at least one error:\n{}",
                defect,
                report.report.render_text()
            );
        }
    }

    #[test]
    fn ablation_options_stay_clean() {
        let circuit = generators::vqe(5, 11);
        for opts in [
            BqSimOptions {
                skip_fusion: true,
                ..BqSimOptions::default()
            },
            BqSimOptions {
                force_conversion: Some(crate::convert::ConversionMethod::Cpu),
                ..BqSimOptions::default()
            },
        ] {
            let report = analyze_pipeline(&circuit, &opts, 3, 8, None).expect("analysis runs");
            assert!(report.diagnostics.is_clean(), "{}", report.diagnostics);
        }
    }
}
