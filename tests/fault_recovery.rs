//! Fault-injection and recovery properties across the execution pipeline:
//! random circuits under random seeded fault plans must recover
//! bit-identically (transient faults) and stay correct through the OOM
//! degradation ladder — with every injected fault accounted exactly once
//! in the [`bqsim_faults::RunHealth`] report. Device loss with requeue to
//! surviving devices is the service's (`bqsim-serve`'s tests).

use bqsim_core::{random_input_batch, BqSimOptions, BqSimulator, BqsimError, RunRequest};
use bqsim_faults::{FaultBudget, FaultKind, FaultPlan, RecoveryPolicy};
use bqsim_num::approx::vectors_eq;
use bqsim_num::Complex;
use bqsim_qcir::{dense, generators, Circuit};
use proptest::prelude::*;

fn assert_matches_oracle(circuit: &Circuit, inputs: &[Vec<Complex>], outputs: &[Vec<Complex>]) {
    for (input, got) in inputs.iter().zip(outputs) {
        let mut want = input.clone();
        dense::apply_circuit(&mut want, circuit);
        assert!(
            vectors_eq(got, &want, 1e-9),
            "recovered amplitudes diverge from the dense oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acceptance property: with any seeded all-transient plan and retries
    /// enabled, recovered outputs are **bit-identical** to the fault-free
    /// run, and every injected fault appears exactly once in RunHealth.
    #[test]
    fn transient_plans_recover_bit_identically(
        circuit_seed in 0u64..500,
        fault_seed in 0u64..500,
        n in 3usize..6,
        gates in 5usize..25,
        kernel in 0usize..3,
        copy in 0usize..2,
        hang in 0usize..2,
    ) {
        let circuit = generators::random_circuit(n, gates, circuit_seed);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches: Vec<_> = (0..2)
            .map(|b| random_input_batch(n, 3, circuit_seed ^ b))
            .collect();
        let clean = sim.run_batches(&batches).unwrap();

        let budget = FaultBudget::transient(kernel, copy, hang);
        let plan = sim.seeded_fault_plan(fault_seed, batches.len(), &budget);
        prop_assert!(plan.is_transient());
        let rec = sim
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()))
            .unwrap();

        prop_assert_eq!(&rec.outputs, &clean.outputs);
        prop_assert_eq!(rec.health.fault_count(), plan.len());
        let planned = |pred: fn(&FaultKind) -> bool| {
            plan.faults().iter().filter(|k| pred(k)).count()
        };
        prop_assert_eq!(
            rec.health.count_of("kernel-fault"),
            planned(|k| matches!(k, FaultKind::KernelFault { .. }))
        );
        prop_assert_eq!(
            rec.health.count_of("copy-corruption"),
            planned(|k| matches!(k, FaultKind::CopyCorruption { .. }))
        );
        prop_assert_eq!(
            rec.health.count_of("hang"),
            planned(|k| matches!(k, FaultKind::Hang { .. }))
        );
        prop_assert!(rec.health.degraded_batches.is_empty());
    }

    /// Injected OOM walks the degradation ladder (re-split + CPU
    /// conversion, then the dense host reference) without losing
    /// correctness, one recorded degradation per injected OOM.
    #[test]
    fn oom_ladder_preserves_outputs(seed in 0u64..200, ooms in 1usize..3) {
        let circuit = generators::random_circuit(4, 12, seed);
        let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
        let batches: Vec<_> = (0..2).map(|b| random_input_batch(4, 2, seed ^ b)).collect();
        let mut plan = FaultPlan::new();
        for a in 0..ooms {
            plan.push(FaultKind::Oom { alloc: a });
        }
        let rec = sim
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()))
            .unwrap();
        prop_assert_eq!(rec.health.count_of("oom"), ooms);
        prop_assert_eq!(rec.health.degradations.len(), ooms);
        for (batch_in, batch_out) in batches.iter().zip(&rec.outputs) {
            assert_matches_oracle(&circuit, batch_in, batch_out);
        }
    }
}

/// Fixed-seed matrix entry for CI: the whole recovery pipeline is
/// deterministic per seed, and transient recovery is bit-identical. The
/// seed comes from `BQSIM_FAULT_SEED` when set (ci.sh loops over a matrix).
#[test]
fn seed_matrix_recovery_is_deterministic() {
    let seed: u64 = std::env::var("BQSIM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let circuit = generators::vqe(5, 3);
    let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
    let batches: Vec<_> = (0..3).map(|b| random_input_batch(5, 4, b)).collect();
    let clean = sim.run_batches(&batches).unwrap();

    let plan = sim.seeded_fault_plan(seed, batches.len(), &FaultBudget::transient(2, 1, 2));
    let policy = RecoveryPolicy::default();
    let rec1 = sim
        .execute(&RunRequest::batches(&batches).with_faults(&plan, &policy))
        .unwrap();
    let rec2 = sim
        .execute(&RunRequest::batches(&batches).with_faults(&plan, &policy))
        .unwrap();
    assert_eq!(
        rec1.health, rec2.health,
        "seed {seed}: health must be deterministic"
    );
    assert_eq!(
        rec1.outputs, clean.outputs,
        "seed {seed}: transient recovery must be bit-identical"
    );
    assert_eq!(rec1.health.fault_count(), plan.len(), "seed {seed}");
}

/// With recovery disabled entirely, a persistent fault surfaces as the
/// structured error naming the device, batch, and task.
#[test]
fn no_recovery_surfaces_structured_errors() {
    let circuit = generators::ghz(3);
    let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
    let batches = vec![random_input_batch(3, 2, 1)];
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::KernelFault { task: 1 });
    let no_recovery = RecoveryPolicy::no_recovery();
    match sim.execute(&RunRequest::batches(&batches).with_faults(&plan, &no_recovery)) {
        Err(BqsimError::RetriesExhausted {
            device,
            batch,
            task_label,
            attempts,
        }) => {
            assert_eq!((device, batch, attempts), (0, 0, 1));
            assert_eq!(task_label, "k0 b0");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}
