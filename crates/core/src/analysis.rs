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
use bqsim_analyze::{AnalysisReport, Diagnostics};
use bqsim_faults::{FaultInjector, FaultPlan, RecoveryPolicy};
use bqsim_gpu::{BufferId, DeviceMemory, Engine, ExecMode, HostMemory, Kernel, TaskGraph};
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

/// Allocates the analysis schedule for `converted` gates. Host staging
/// buffers are zero-length placeholders: analysis only ever runs the
/// schedule in timing-only mode.
fn build_analysis_schedule(
    converted: &[ConvertedGate],
    opts: &BqSimOptions,
    num_qubits: usize,
    num_batches: usize,
    batch_size: usize,
) -> Result<AnalysisSchedule, BqsimError> {
    let dim = 1usize << num_qubits;
    let elems = dim * batch_size;
    let mut mem = DeviceMemory::new(&opts.device);
    let mut host = HostMemory::new();
    let buffers = [
        mem.alloc(elems).map_err(BqsimError::oom)?,
        mem.alloc(elems).map_err(BqsimError::oom)?,
        mem.alloc(elems).map_err(BqsimError::oom)?,
        mem.alloc(elems).map_err(BqsimError::oom)?,
    ];
    let inputs: Vec<_> = (0..num_batches).map(|_| host.alloc_zeroed(0)).collect();
    let outputs: Vec<_> = (0..num_batches).map(|_| host.alloc_zeroed(0)).collect();
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

/// The outcome of [`analyze_pipeline`]: the sectioned findings plus
/// coverage counters.
#[derive(Debug)]
pub struct PipelineAnalysis {
    /// The `pipeline artifacts` section (findings in pipeline order:
    /// DD → ELL → task graph → precision), followed by the `journal state
    /// machine` section when a journal defect was seeded.
    pub report: AnalysisReport,
    /// Fused gates whose DD and ELL artifacts were checked.
    pub gates_checked: usize,
    /// Gates that additionally ran the dense NZRV cross-check.
    pub nzrv_checked: usize,
    /// Tasks in the analysed batch graph.
    pub tasks_checked: usize,
}

/// Compiles `circuit` for `num_batches` batches of `batch_size` inputs and
/// statically analyzes every pipeline artifact. `integrity_budget`, when
/// supplied, additionally audits whether the plan's precision can meet
/// that norm-drift budget (the campaign `--integrity-budget` value).
/// `defect`, when supplied, is seeded into an artifact before its pass
/// runs, so the pass that owns it must report it (see [`SeededDefect`]).
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
    defect: Option<SeededDefect>,
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
    let sched = build_analysis_schedule(&converted, opts, n, num_batches, batch_size)?;
    let mut facts = schedule::schedule_graph_facts(&sched.graph, &sched.buffers);
    if defect == Some(SeededDefect::Race) {
        // Cut the hazard edges into the first buffer-recycling H2D: it now
        // overlaps the tasks still using the recycled pair.
        if let Some(t) = facts
            .tasks
            .iter_mut()
            .find(|t| t.op == analyze::TaskOp::H2D && !t.preds.is_empty())
        {
            t.preds.clear();
        }
    }
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

    let mut report = AnalysisReport::new();
    report.push_section(
        "pipeline artifacts",
        format!(
            "analyzed {} fused gate(s) ({nzrv_checked} with dense NZRV cross-check), \
             {} task(s) over {num_batches} batch(es), {} DD node(s)",
            converted.len(),
            sched.graph.len(),
            dd.mat_node_count(),
        ),
        diags,
    );

    // A seeded journal defect: a record sequence that completes a batch
    // twice (live journals are audited by `bqsim analyze --journal`).
    if defect == Some(SeededDefect::Journal) {
        let record = |line, kind| analyze::JournalRecordFacts {
            line,
            kind,
            batch: 0,
        };
        let journal = analyze::JournalFacts {
            num_batches: 2,
            torn_tail: false,
            records: vec![
                record(1, analyze::JournalRecordKind::Header),
                record(2, analyze::JournalRecordKind::Completion),
                record(3, analyze::JournalRecordKind::Completion),
            ],
        };
        report.push_section(
            "journal state machine",
            "seeded journal: batch 0 completed twice",
            analyze::check_journal(&journal),
        );
    }

    Ok(PipelineAnalysis {
        report,
        gates_checked: converted.len(),
        nzrv_checked,
        tasks_checked: sched.graph.len(),
    })
}

/// Builds `sim`'s batch schedule, executes it (timing-only) under the
/// faults of `plan` with recovery per `policy`, and statically verifies the
/// *executed* recovery schedule: per-task attempt discipline, preserved
/// happens-before across retries and backoff, and freedom from buffer
/// hazards between overlapping attempts. This is the check behind
/// `bqsim analyze --fault-plan …`.
///
/// # Errors
///
/// Returns [`BqsimError::DeviceOom`] if the schedule's buffers exceed the
/// simulated device memory (injected OOM traps are *not* armed here — this
/// pass inspects the retry schedule, not the allocation ladder).
pub fn analyze_recovery(
    sim: &BqSimulator,
    num_batches: usize,
    batch_size: usize,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> Result<Diagnostics, BqsimError> {
    let opts = &sim.opts;
    let mut sched =
        build_analysis_schedule(sim.gates(), opts, sim.num_qubits(), num_batches, batch_size)?;

    let engine = Engine::new(opts.device.clone());
    let injector = FaultInjector::new(plan);
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

/// A defect deliberately seeded into an otherwise-correct pipeline
/// artifact before analysis, used to prove the pass that owns it actually
/// fires (`bqsim analyze --inject-defect <name>` and the seeded-defect CI
/// corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededDefect {
    /// Drop the hazard edges ordering a buffer-recycling H2D copy after
    /// the tasks still using the buffer (a `races` error).
    Race,
    /// Audit a journal whose record sequence completes a batch twice (a
    /// `journal-exactly-once` error).
    Journal,
}

impl SeededDefect {
    /// Every defect, in the order the CI corpus iterates them.
    pub const ALL: [SeededDefect; 2] = [SeededDefect::Race, SeededDefect::Journal];

    /// The CLI name of the defect.
    pub fn name(self) -> &'static str {
        match self {
            SeededDefect::Race => "race",
            SeededDefect::Journal => "journal",
        }
    }

    /// Parses a CLI name back into a defect.
    pub fn parse(s: &str) -> Option<SeededDefect> {
        SeededDefect::ALL.into_iter().find(|d| d.name() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_qcir::generators;

    #[test]
    fn qft_pipeline_is_clean() {
        // The acceptance scenario: 8-qubit QFT, 6 batches.
        let circuit = generators::qft(8);
        let report = analyze_pipeline(&circuit, &BqSimOptions::default(), 6, 16, None, None)
            .expect("analysis runs");
        assert!(
            report.report.is_clean(),
            "expected a clean pipeline:\n{}",
            report.report.render_text()
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
        let report = analyze_pipeline(&circuit, &BqSimOptions::default(), 2, 4, None, None)
            .expect("analysis runs");
        assert!(report.report.is_clean(), "{}", report.report.render_text());
        assert_eq!(report.nzrv_checked, report.gates_checked);
    }

    #[test]
    fn recovery_schedules_stay_hazard_free_under_seeded_faults() {
        use bqsim_faults::FaultBudget;
        let circuit = generators::vqe(5, 5);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let (num_batches, batch_size) = (4, 8);
        for seed in [1u64, 7, 42] {
            let plan = sim.seeded_fault_plan(seed, num_batches, &FaultBudget::transient(2, 1, 1));
            let diags = analyze_recovery(
                &sim,
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
    fn every_seeded_defect_is_caught_by_its_pass() {
        let circuit = generators::ghz(3);
        for defect in SeededDefect::ALL {
            let report =
                analyze_pipeline(&circuit, &BqSimOptions::default(), 4, 2, None, Some(defect))
                    .expect("analysis runs")
                    .report;
            assert!(
                report.error_count() > 0,
                "defect {:?} must produce at least one error:\n{}",
                defect,
                report.render_text()
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
            let report =
                analyze_pipeline(&circuit, &opts, 3, 8, None, None).expect("analysis runs");
            assert!(report.report.is_clean(), "{}", report.report.render_text());
        }
    }
}
