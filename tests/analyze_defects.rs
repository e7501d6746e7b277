//! Seeded-defect corpus: one deliberately broken artifact per analyzer
//! pass, asserting that the pass that owns the defect fires with the
//! right diagnostic code. This is the negative counterpart of the clean
//! gates in `analyze_properties.rs` — an analyzer that never rejects
//! anything would pass those trivially.
//!
//! The CLI-level counterpart (`bqsim analyze --model-check
//! --inject-defect <d>` must exit non-zero) lives in `scripts/ci.sh`,
//! because integration tests cannot reference another crate's binary.

use bqsim_analyze as analyze;
use bqsim_analyze::{
    check_journal, check_pool_discipline, model_check_graph, Diagnostics, GraphFacts, JournalFacts,
    JournalRecordFacts, JournalRecordKind, Loc, ModelCheckBudget, Severity, TaskFacts, TaskOp,
};
use bqsim_core::{model_check_pipeline, BqSimOptions, ModelCheckOptions, SeededDefect};
use bqsim_gpu::{PoolEvent, PoolEventKind};
use bqsim_qcir::generators;

/// Asserts `diags` contains at least one finding of `severity` under
/// `pass`, and returns its message.
fn expect_finding(diags: &Diagnostics, pass: &str, severity: Severity) -> String {
    diags
        .iter()
        .find(|d| d.pass == pass && d.severity == severity)
        .unwrap_or_else(|| panic!("expected a {severity} under pass `{pass}`, got:\n{diags}"))
        .message
        .clone()
}

fn task(label: &str, preds: &[usize], reads: &[Loc], writes: &[Loc]) -> TaskFacts {
    TaskFacts {
        label: label.to_string(),
        op: TaskOp::Kernel,
        preds: preds.to_vec(),
        reads: reads.to_vec(),
        writes: writes.to_vec(),
    }
}

#[test]
fn broken_graph_unordered_writers_trip_mc_race() {
    // Two unordered writers of D[0]: every serialization disagrees.
    let facts = GraphFacts {
        tasks: vec![
            task("writer a", &[], &[], &[Loc::Device(0)]),
            task("writer b", &[], &[], &[Loc::Device(0)]),
        ],
    };
    let outcome = model_check_graph(&facts, ModelCheckBudget::default());
    let msg = expect_finding(&outcome.diagnostics, "mc-race", Severity::Error);
    assert!(msg.contains("counterexample trace"), "{msg}");
    let det = expect_finding(&outcome.diagnostics, "mc-determinism", Severity::Error);
    assert!(det.contains("nondeterministic"), "{det}");
    assert_eq!(outcome.traces_explored, 2);
    assert!(!outcome.verified());
}

#[test]
fn broken_graph_blows_the_dpor_budget_with_a_warning() {
    // Many pairwise-conflicting unordered tasks: factorially many
    // inequivalent serializations, far beyond a budget of 3.
    let facts = GraphFacts {
        tasks: (0..6)
            .map(|i| task(&format!("w{i}"), &[], &[], &[Loc::Device(0)]))
            .collect(),
    };
    let outcome = model_check_graph(&facts, ModelCheckBudget::with_max_traces(3));
    assert!(outcome.truncated);
    let msg = expect_finding(&outcome.diagnostics, "mc-budget", Severity::Warning);
    assert!(msg.contains("--dpor-budget"), "{msg}");
}

#[test]
fn broken_pool_lifetime_trips_aliasing_and_leak_passes() {
    use PoolEventKind::{CheckoutHit, CheckoutMiss};
    let layout = bqsim_ell::Layout::Aos;
    let ev = |seq, kind| PoolEvent {
        seq,
        class: 64,
        layout,
        width: 16,
        kind,
    };
    // A hit on an empty shelf: storage recycled before it was returned.
    let diags = check_pool_discipline(&[ev(0, CheckoutMiss), ev(1, CheckoutHit)], 0, true);
    let msg = expect_finding(&diags, "pool-alias", Severity::Error);
    assert!(msg.contains("retire-before-reuse"), "{msg}");
    // Checkouts never returned by the drain point leak.
    let leak = expect_finding(&diags, "pool-leak", Severity::Warning);
    assert!(leak.contains("leaked"), "{leak}");
}

#[test]
fn broken_journal_sequences_trip_each_dfa_rejection() {
    let rec = |line, kind, batch| JournalRecordFacts { line, kind, batch };
    // Duplicate completion + backwards record + out-of-range index +
    // mid-body header, all in one journal.
    let facts = JournalFacts {
        num_batches: 3,
        torn_tail: false,
        records: vec![
            rec(1, JournalRecordKind::Header, 0),
            rec(2, JournalRecordKind::Completion, 2),
            rec(3, JournalRecordKind::Completion, 2),
            rec(4, JournalRecordKind::Completion, 0),
            rec(5, JournalRecordKind::Completion, 9),
            rec(6, JournalRecordKind::Header, 0),
        ],
    };
    let diags = check_journal(&facts);
    let dup = expect_finding(&diags, "journal-exactly-once", Severity::Error);
    assert!(dup.contains("more than once"), "{dup}");
    let back = expect_finding(&diags, "journal-order", Severity::Error);
    assert!(back.contains("without a prior quarantine"), "{back}");
    let range = expect_finding(&diags, "journal-range", Severity::Error);
    assert!(range.contains("only 3 batches"), "{range}");
    let dfa = expect_finding(&diags, "journal-dfa", Severity::Error);
    assert!(dfa.contains("mid-journal"), "{dfa}");
}

#[test]
fn pipeline_seeded_defects_map_to_their_owning_pass() {
    // End-to-end: each SeededDefect injected through the real compiled
    // pipeline must surface under the pass that owns it.
    let circuit = generators::ghz(3);
    let expectations = [
        (SeededDefect::Race, "mc-race"),
        (SeededDefect::Pool, "pool-alias"),
        (SeededDefect::Journal, "journal-exactly-once"),
    ];
    for (defect, pass) in expectations {
        let mc = ModelCheckOptions {
            defect: Some(defect),
            ..ModelCheckOptions::default()
        };
        let checked = model_check_pipeline(&circuit, &BqSimOptions::default(), 4, 2, &mc)
            .expect("model check runs");
        let found = checked.report.sections().iter().any(|s| {
            s.diagnostics
                .iter()
                .any(|d| d.pass == pass && d.severity == Severity::Error)
        });
        assert!(
            found,
            "defect {:?} must fire pass `{pass}`:\n{}",
            defect,
            checked.report.render_text()
        );
    }
}

#[test]
fn clean_pipeline_is_verified_and_machine_readable() {
    // The positive control for the corpus: no defect, everything clean,
    // and the JSON rendering is parseable with the expected structure.
    let circuit = generators::ghz(3);
    let mc = ModelCheckOptions::default();
    let checked = model_check_pipeline(&circuit, &BqSimOptions::default(), 4, 2, &mc)
        .expect("model check runs");
    assert!(checked.verified(), "{}", checked.report.render_text());
    let json = checked.report.to_json();
    assert!(json.contains("\"errors\":0"), "{json}");
    assert!(json.contains("\"warnings\":0"), "{json}");
    assert!(json.contains("\"sections\":[{"), "{json}");
    assert!(
        json.contains("\"title\":\"schedule space (DPOR)\""),
        "{json}"
    );
}

#[test]
fn defect_messages_survive_json_escaping() {
    // Counterexample traces carry arrows and quotes; the JSON path must
    // round-trip them losslessly.
    let facts = GraphFacts {
        tasks: vec![
            task("writer \"a\"", &[], &[], &[Loc::Device(0)]),
            task("writer \\b", &[], &[], &[Loc::Device(0)]),
        ],
    };
    let outcome = model_check_graph(&facts, ModelCheckBudget::default());
    let json = outcome.diagnostics.to_json();
    // The quote and backslash in the labels must come out escaped, and
    // the payload must stay a single line (newlines become \n).
    assert!(
        json.contains(&analyze::json_escape("writer \"a\"")),
        "{json}"
    );
    assert!(json.contains(&analyze::json_escape("writer \\b")), "{json}");
    assert!(!json.contains('\n'), "{json}");
}

// Keep the unused-import lint honest: the corpus exercises the analyze
// crate's facts types directly.
#[allow(dead_code)]
fn _typecheck(_: &analyze::Diagnostics) {}
