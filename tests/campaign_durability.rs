//! Durability properties of the campaign runner: for *any* interruption
//! point — a cooperative kill after a random number of batches, or a torn
//! write truncating the journal at a random byte offset — resuming the
//! campaign produces outputs **bit-identical** to an uninterrupted run,
//! under injected fault plans and across spMM lane counts, and the
//! resulting journal passes the analyzer's exactly-once audit.

use bqsim_campaign::{
    audit_journal, campaign_digest, read_journal, run_campaign, state_path, CampaignOptions,
    CampaignResult, IntegrityBudget,
};
use bqsim_core::{random_input_batch, BqSimOptions, BqSimulator};
use bqsim_faults::FaultBudget;
use bqsim_num::Complex;
use bqsim_qcir::{generators, Circuit};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_journal() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "bqsim-durability-{}-{case}.journal",
        std::process::id()
    ));
    p
}

fn cleanup(journal: &PathBuf) {
    std::fs::remove_file(journal).ok();
    std::fs::remove_file(state_path(journal)).ok();
}

fn inputs_for(circuit: &Circuit, num_batches: usize, batch_size: usize) -> Vec<Vec<Vec<Complex>>> {
    (0..num_batches)
        .map(|b| random_input_batch(circuit.num_qubits(), batch_size, 1000 + b as u64))
        .collect()
}

fn opts_with(threads: usize) -> BqSimOptions {
    BqSimOptions {
        threads,
        ..BqSimOptions::default()
    }
}

fn campaign_opts(fault_seed: Option<u64>) -> CampaignOptions {
    CampaignOptions {
        fault_seed,
        fault_budget: if fault_seed.is_some() {
            FaultBudget::transient(2, 1, 1)
        } else {
            FaultBudget::default()
        },
        ..CampaignOptions::default()
    }
}

/// Asserts both campaigns completed with bit-identical outputs.
fn assert_bit_identical(reference: &CampaignResult, resumed: &CampaignResult) {
    assert!(reference.is_complete() && resumed.is_complete());
    assert_eq!(reference.outputs.len(), resumed.outputs.len());
    for (b, (a, c)) in reference.outputs.iter().zip(&resumed.outputs).enumerate() {
        let a = a.as_ref().expect("reference batch completed");
        let c = c.as_ref().expect("resumed batch completed");
        assert_eq!(a.len(), c.len(), "batch {b} shape");
        for (va, vc) in a.iter().zip(c) {
            for (za, zc) in va.iter().zip(vc) {
                assert_eq!(za.re.to_bits(), zc.re.to_bits(), "batch {b} diverges (re)");
                assert_eq!(za.im.to_bits(), zc.im.to_bits(), "batch {b} diverges (im)");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill the campaign after a random number of batches (cooperative
    /// cancel, the deterministic stand-in for SIGKILL), resume, and
    /// require bit-identical outputs — under optional fault injection and
    /// at one or four lanes.
    #[test]
    fn kill_after_any_batch_then_resume_is_bit_identical(
        circuit_seed in 0u64..300,
        n in 3usize..5,
        gates in 5usize..18,
        num_batches in 1usize..5,
        stop_after in 0usize..5,
        fault_sel in 0u64..200,
        four_threads in 0usize..2,
    ) {
        let threads = if four_threads == 1 { 4 } else { 1 };
        let fault_seed = (fault_sel % 2 == 1).then_some(fault_sel);
        let circuit = generators::random_circuit(n, gates, circuit_seed);
        let inputs = inputs_for(&circuit, num_batches, 2);

        let reference = run_campaign(
            &circuit,
            opts_with(threads),
            &inputs,
            &campaign_opts(fault_seed),
        ).unwrap();
        prop_assert!(reference.is_complete());

        let journal = scratch_journal();
        let interrupted = run_campaign(
            &circuit,
            opts_with(threads),
            &inputs,
            &CampaignOptions {
                journal_path: Some(journal.clone()),
                stop_after: Some(stop_after),
                ..campaign_opts(fault_seed)
            },
        ).unwrap();
        prop_assert_eq!(interrupted.executed, stop_after.min(num_batches));

        let resumed = run_campaign(
            &circuit,
            opts_with(threads),
            &inputs,
            &CampaignOptions {
                journal_path: Some(journal.clone()),
                resume: true,
                ..campaign_opts(fault_seed)
            },
        ).unwrap();
        prop_assert_eq!(resumed.resumed, stop_after.min(num_batches));
        assert_bit_identical(&reference, &resumed);

        let diags = audit_journal(&journal).unwrap();
        prop_assert_eq!(diags.error_count(), 0);
        cleanup(&journal);
    }

    /// Truncate the journal at a random byte offset past the (write-ahead,
    /// fsync'd) header — simulating a torn write at any point of the
    /// campaign — then resume and require bit-identical outputs.
    #[test]
    fn torn_write_at_any_offset_then_resume_is_bit_identical(
        circuit_seed in 0u64..300,
        n in 3usize..5,
        gates in 5usize..18,
        num_batches in 1usize..4,
        cut_sel in 0usize..10_000,
        fault_sel in 0u64..200,
        four_threads in 0usize..2,
    ) {
        let threads = if four_threads == 1 { 4 } else { 1 };
        let fault_seed = (fault_sel % 2 == 1).then_some(fault_sel);
        let circuit = generators::random_circuit(n, gates, circuit_seed);
        let inputs = inputs_for(&circuit, num_batches, 2);

        let reference = run_campaign(
            &circuit,
            opts_with(threads),
            &inputs,
            &campaign_opts(fault_seed),
        ).unwrap();

        // Complete run, fully journaled.
        let journal = scratch_journal();
        let full = run_campaign(
            &circuit,
            opts_with(threads),
            &inputs,
            &CampaignOptions {
                journal_path: Some(journal.clone()),
                ..campaign_opts(fault_seed)
            },
        ).unwrap();
        prop_assert!(full.is_complete());

        // Tear it: cut anywhere from just after the header to the full
        // length (the header itself is fsync'd before any batch runs, so
        // no crash can tear it).
        let bytes = std::fs::read(&journal).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut = header_end + cut_sel % (bytes.len() - header_end + 1);
        std::fs::write(&journal, &bytes[..cut]).unwrap();
        let surviving = read_journal(&journal).unwrap();
        prop_assert!(surviving.records.len() <= num_batches);

        let resumed = run_campaign(
            &circuit,
            opts_with(threads),
            &inputs,
            &CampaignOptions {
                journal_path: Some(journal.clone()),
                resume: true,
                ..campaign_opts(fault_seed)
            },
        ).unwrap();
        prop_assert_eq!(resumed.resumed, surviving.records.len());
        assert_bit_identical(&reference, &resumed);

        let diags = audit_journal(&journal).unwrap();
        prop_assert_eq!(diags.error_count(), 0);
        cleanup(&journal);
    }

    /// A zero unitarity budget quarantines batches instead of aborting;
    /// resuming with a sane budget retries exactly the quarantined set and
    /// converges to the uninterrupted outputs, and the journal (now holding
    /// quarantine records followed by retry completions) still audits
    /// clean.
    #[test]
    fn quarantined_batches_retry_on_resume_and_converge(
        circuit_seed in 0u64..300,
        n in 3usize..5,
        gates in 8usize..18,
        num_batches in 1usize..4,
    ) {
        let circuit = generators::random_circuit(n, gates, circuit_seed);
        let inputs = inputs_for(&circuit, num_batches, 2);
        let reference = run_campaign(
            &circuit,
            opts_with(1),
            &inputs,
            &CampaignOptions::default(),
        ).unwrap();

        let journal = scratch_journal();
        let strict = run_campaign(
            &circuit,
            opts_with(1),
            &inputs,
            &CampaignOptions {
                journal_path: Some(journal.clone()),
                integrity: IntegrityBudget { max_norm_drift: 0.0 },
                ..CampaignOptions::default()
            },
        ).unwrap();
        prop_assert!(!strict.cancelled, "quarantine must not stop the campaign");

        let resumed = run_campaign(
            &circuit,
            opts_with(1),
            &inputs,
            &CampaignOptions {
                journal_path: Some(journal.clone()),
                resume: true,
                ..CampaignOptions::default()
            },
        ).unwrap();
        prop_assert_eq!(resumed.executed, strict.quarantined.len());
        prop_assert_eq!(
            resumed.resumed,
            num_batches - strict.quarantined.len(),
            "non-quarantined batches load from the journal"
        );
        assert_bit_identical(&reference, &resumed);

        let diags = audit_journal(&journal).unwrap();
        prop_assert_eq!(diags.error_count(), 0);
        cleanup(&journal);
    }
}

/// The lane count is not part of the plan: a campaign interrupted at two
/// state lanes resumes at one (and one at two) with the uninterrupted
/// digest. The shape is large enough (qft-10 × 33, 675,840 MACs a batch)
/// that on a multi-core host its batches really split their states.
#[test]
fn resume_at_a_different_thread_count_is_bit_identical() {
    let circuit = generators::qft(10);
    let inputs = inputs_for(&circuit, 3, 33);
    if bqsim_core::host_parallelism() >= 2 {
        let sim = BqSimulator::compile(&circuit, opts_with(2)).unwrap();
        assert_eq!(sim.state_shares(33), [17, 16], "batches must split");
    }
    let reference = run_campaign(&circuit, opts_with(1), &inputs, &CampaignOptions::default())
        .expect("reference campaign");
    for (first, second) in [(2, 1), (1, 2)] {
        let journal = scratch_journal();
        let interrupted = run_campaign(
            &circuit,
            opts_with(first),
            &inputs,
            &CampaignOptions {
                journal_path: Some(journal.clone()),
                stop_after: Some(1),
                ..CampaignOptions::default()
            },
        )
        .expect("interrupted campaign");
        assert!(interrupted.cancelled, "stop_after must interrupt");
        let resumed = run_campaign(
            &circuit,
            opts_with(second),
            &inputs,
            &CampaignOptions {
                journal_path: Some(journal.clone()),
                resume: true,
                ..CampaignOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("resume at {second} after {first} refused: {e}"));
        assert_eq!(resumed.resumed, 1);
        assert_bit_identical(&reference, &resumed);
        assert_eq!(
            campaign_digest(&resumed.checksums),
            campaign_digest(&reference.checksums)
        );
        cleanup(&journal);
    }
}

/// Resuming a finished campaign is a no-op that still reports complete —
/// the degenerate interruption point the deadline path can hit when the
/// timer fires after the last batch.
#[test]
fn resume_of_a_finished_campaign_is_a_noop() {
    let circuit = generators::ghz(4);
    let inputs = inputs_for(&circuit, 3, 2);
    let journal = scratch_journal();
    let first = run_campaign(
        &circuit,
        opts_with(1),
        &inputs,
        &CampaignOptions {
            journal_path: Some(journal.clone()),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    let again = run_campaign(
        &circuit,
        opts_with(1),
        &inputs,
        &CampaignOptions {
            journal_path: Some(journal.clone()),
            resume: true,
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert_eq!(again.executed, 0, "nothing left to run");
    assert_eq!(again.resumed, 3);
    assert_bit_identical(&first, &again);
    cleanup(&journal);
}
