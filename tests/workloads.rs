//! End-to-end application workloads: the BQCS use cases the paper's
//! introduction motivates, composed from the public APIs.

use bqsim_core::{random_input_batch, BqSimOptions, BqSimulator};
use bqsim_num::approx::vectors_eq;
use bqsim_qcir::observable::{expectation, sample_counts, PauliString};
use bqsim_qcir::{dense, generators};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// State analysis (paper §1, refs [25, 33, 41]): run a QNN over a batch of
/// probe states and compute per-qubit ⟨Z⟩ — cross-checked against the
/// dense oracle.
#[test]
fn qnn_state_analysis_pipeline() {
    let n = 5;
    let circuit = generators::qnn(n, 21);
    let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
    let batch = random_input_batch(n, 8, 7);
    let run = sim.run_batches(std::slice::from_ref(&batch)).unwrap();

    for (input, output) in batch.iter().zip(&run.outputs[0]) {
        let mut oracle = input.clone();
        dense::apply_circuit(&mut oracle, &circuit);
        for q in 0..n {
            let mut s = "I".repeat(q);
            s.push('Z');
            let obs = PauliString::parse(&s).unwrap();
            let got = expectation(&obs, output);
            let want = expectation(&obs, &oracle);
            assert!(
                (got - want).abs() < 1e-9,
                "qubit {q}: <Z> {got} vs oracle {want}"
            );
        }
    }
}

/// Verification-style equivalence checking (paper §1, ref [9]): a circuit
/// and its inverse compose to identity on every probe state.
#[test]
fn equivalence_checking_via_batches() {
    let n = 5;
    let circuit = generators::supremacy(n, 6, 9);
    let mut roundtrip = circuit.clone();
    roundtrip.extend_from(&circuit.inverse());
    let sim = BqSimulator::compile(&roundtrip, BqSimOptions::default()).unwrap();
    let batch = random_input_batch(n, 10, 11);
    let run = sim.run_batches(std::slice::from_ref(&batch)).unwrap();
    for (input, output) in batch.iter().zip(&run.outputs[0]) {
        assert!(vectors_eq(input, output, 1e-8), "U·U† must act as identity");
    }
}

/// Measurement sampling over BQSim outputs is statistically consistent
/// with the oracle's probabilities.
#[test]
fn sampling_from_batched_outputs() {
    let n = 4;
    let circuit = generators::ghz(n);
    let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
    let batch = vec![dense::zero_state(n)];
    let run = sim.run_batches(&[batch]).unwrap();
    let out = &run.outputs[0][0];
    let mut rng = SmallRng::seed_from_u64(5);
    let counts = sample_counts(out, 4000, &mut rng);
    // GHZ: only all-zeros and all-ones outcomes.
    let extremes = counts[0] + counts[(1 << n) - 1];
    assert_eq!(extremes, 4000);
    let frac = counts[0] as f64 / 4000.0;
    assert!((frac - 0.5).abs() < 0.06, "frac = {frac}");
}

/// A QASM program from text to sampled measurement outcomes — the full
/// user-facing path.
#[test]
fn qasm_to_samples_end_to_end() {
    let src = r#"
        OPENQASM 2.0;
        qreg q[3];
        h q[0];
        cx q[0],q[1];
        cx q[1],q[2];
    "#;
    let circuit = bqsim_qcir::qasm::parse(src).unwrap();
    let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
    let run = sim.run_batches(&[vec![dense::zero_state(3)]]).unwrap();
    let mut rng = SmallRng::seed_from_u64(1);
    let counts = sample_counts(&run.outputs[0][0], 1000, &mut rng);
    assert_eq!(counts[0] + counts[7], 1000, "GHZ outcomes only");
}
