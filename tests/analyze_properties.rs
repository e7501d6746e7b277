//! Integration tests for `bqsim-analyze` against real pipeline artifacts:
//! clean pipelines report zero diagnostics, the analyzer's independently
//! re-derived §3.3.2 buffer walk matches the schedule builder's formula,
//! and one seeded defect of each class — dropped hazard edge, denormalised
//! DD weight, out-of-bounds ELL column — is caught.

use bqsim_analyze as analyze;
use bqsim_core::kernels::EllSpmmKernel;
use bqsim_core::{analyze_pipeline, schedule, BqSimOptions};
use bqsim_ell::convert::ell_from_dd_cpu;
use bqsim_gpu::{DeviceMemory, DeviceSpec, HostMemory, Kernel};
use bqsim_num::Complex;
use bqsim_qcir::generators;
use bqsim_qdd::gates::{gate_dd, lower_circuit};
use bqsim_qdd::{DdPackage, MEdge};
use proptest::prelude::*;
use std::sync::Arc;

/// The full 3-qubit QFT multiplied into one DD (a dense, structurally
/// interesting matrix) plus its owning package.
fn qft_product(n: usize) -> (DdPackage, MEdge) {
    let mut dd = DdPackage::new();
    let mut product = dd.identity(n);
    for g in lower_circuit(&generators::qft(n)) {
        let e = gate_dd(&mut dd, n, &g);
        product = dd.mat_mul(e, product);
    }
    (dd, product)
}

/// Facts of a *real* §3.3.2 schedule built by `build_batch_graph`:
/// `batches` batches of `l` identical spMM kernels over the QFT product.
fn real_schedule_facts(batches: usize, l: usize) -> analyze::GraphFacts {
    let n = 3;
    let (mut dd, product) = qft_product(n);
    let ell = Arc::new(ell_from_dd_cpu(&mut dd, product, n));
    let spec = DeviceSpec::rtx_a6000();
    let mut mem = DeviceMemory::new(&spec);
    let mut host = HostMemory::new();
    let elems = 1usize << n;
    let buffers = [
        mem.alloc(elems).expect("device alloc"),
        mem.alloc(elems).expect("device alloc"),
        mem.alloc(elems).expect("device alloc"),
        mem.alloc(elems).expect("device alloc"),
    ];
    let inputs: Vec<_> = (0..batches).map(|_| host.alloc_zeroed(0)).collect();
    let outputs: Vec<_> = (0..batches).map(|_| host.alloc_zeroed(0)).collect();
    let graph = schedule::build_batch_graph(
        &buffers,
        &inputs,
        &outputs,
        l,
        (elems * 16) as u64,
        &|_k, src, dst| -> Arc<dyn Kernel> {
            Arc::new(EllSpmmKernel::new(Arc::clone(&ell), src, dst, 1))
        },
    );
    schedule::schedule_graph_facts(&graph, &buffers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every artifact of a random circuit's pipeline — fused DDs, ELL
    /// gates, the batch task graph — passes every analyzer pass.
    #[test]
    fn random_pipelines_are_clean(
        seed in 0u64..1_000,
        n in 3usize..6,
        gates in 4usize..20,
        batches in 1usize..6,
    ) {
        let circuit = generators::random_circuit(n, gates, seed);
        let report =
            analyze_pipeline(&circuit, &BqSimOptions::default(), batches, 4, None, None).unwrap();
        prop_assert!(report.report.is_clean(), "{}", report.report.render_text());
        prop_assert_eq!(report.tasks_checked, batches * (report.gates_checked + 2));
    }

    /// The analyzer's independent reimplementation of the §3.3.2 buffer
    /// walk agrees with the schedule builder's formula everywhere.
    #[test]
    fn analyzer_buffer_walk_matches_builder(
        b in 0usize..64,
        l in 1usize..16,
        k_raw in 0usize..16,
    ) {
        let k = k_raw % l;
        prop_assert_eq!(
            analyze::expected_buffer_indices(b, k, l),
            schedule::buffer_indices(b, k, l)
        );
    }
}

/// The acceptance scenario from the issue: `bqsim analyze` over the
/// 8-qubit QFT with 6 batches reports nothing.
#[test]
fn qft_acceptance_scenario_is_clean() {
    let circuit = generators::qft(8);
    let report = analyze_pipeline(&circuit, &BqSimOptions::default(), 6, 16, None, None)
        .expect("analysis runs");
    assert!(report.report.is_clean(), "{}", report.report.render_text());
}

/// Seeded defect 1: dropping a hazard edge from a real schedule is
/// reported as a data race.
#[test]
fn dropped_hazard_edge_is_caught_on_a_real_schedule() {
    let mut facts = real_schedule_facts(4, 2);
    assert!(analyze::analyze_graph(&facts).is_clean());
    assert!(analyze::check_double_buffer_discipline(&facts, 4, 2).is_clean());
    // Batch 2's H2D re-uses batch 0's buffer pair; dropping its WAR/WAW
    // edges makes it race with batch 0's kernels.
    let h2d_b2 = 2 * (2 + 2);
    assert_eq!(facts.tasks[h2d_b2].op, analyze::TaskOp::H2D);
    facts.tasks[h2d_b2].preds.clear();
    let diags = analyze::analyze_graph(&facts);
    assert!(diags.error_count() > 0, "expected a race:\n{diags}");
    assert!(diags.mentions("data race"), "{diags}");
}

/// Seeded defect 2: scaling a node's children breaks QMDD normalisation
/// and the analyzer says so.
#[test]
fn denormalised_dd_weight_is_caught() {
    let n = 3;
    let (dd, product) = qft_product(n);
    let mut facts = analyze::matrix_dd_facts(&dd, product, n);
    assert!(analyze::analyze_dd(&facts).is_clean());
    let node = facts.nodes.first_mut().expect("qft DD has nodes");
    for c in &mut node.children {
        c.weight = Complex::new(c.weight.re * 2.0, c.weight.im * 2.0);
    }
    let diags = analyze::analyze_dd(&facts);
    assert!(diags.error_count() > 0, "expected a finding:\n{diags}");
    assert!(format!("{diags}").contains("dd-normalisation"), "{diags}");
}

/// Seeded defect 4: a forged row-pattern annotation on a real converted
/// ELL matrix — claiming a period the slots do not actually repeat at —
/// is caught by the round-trip check `analyze_pipeline` runs per gate.
/// The pipeline itself stays clean (its annotations come from
/// `detect_pattern`, which only writes provable periods).
#[test]
fn forged_pattern_annotation_is_caught() {
    let n = 3;
    let (mut dd, product) = qft_product(n);
    let mut ell = ell_from_dd_cpu(&mut dd, product, n);
    // Whatever detection honestly found round-trips.
    ell.detect_pattern();
    assert!(analyze::check_pattern_roundtrip(&ell).is_clean());
    // The dense QFT product is not block-periodic at period 1: every row
    // differs from row 0. Annotating it as such must be reported.
    ell.set_pattern_period_unchecked(Some(1));
    let diags = analyze::check_pattern_roundtrip(&ell);
    assert!(diags.error_count() > 0, "expected a finding:\n{diags}");
    assert!(diags.mentions("compressed execution"), "{diags}");
}

/// Seeded defect 3: an out-of-range ELL column index is reported.
#[test]
fn out_of_bounds_ell_column_is_caught() {
    let n = 3;
    let (mut dd, product) = qft_product(n);
    let ell = ell_from_dd_cpu(&mut dd, product, n);
    let mut facts = analyze::ell_facts(&ell);
    assert!(analyze::analyze_ell(&facts).is_clean());
    // The QFT matrix is dense, so slot 0 of row 0 is a real entry.
    facts.cols[0] = facts.rows as u32;
    let diags = analyze::analyze_ell(&facts);
    assert!(diags.error_count() > 0, "expected a finding:\n{diags}");
    assert!(diags.mentions("out of bounds"), "{diags}");
}
