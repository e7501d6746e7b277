//! Seeded-defect corpus: one deliberately broken artifact per analyzer
//! pass, asserting that the pass that owns the defect fires with the
//! right diagnostic code. This is the negative counterpart of the clean
//! gates in `analyze_properties.rs` — an analyzer that never rejects
//! anything would pass those trivially.
//!
//! The CLI-level counterpart (`bqsim analyze --inject-defect <d>` must
//! exit 1) lives in `scripts/ci.sh` and `crates/serve/tests/usage_errors_cli.rs`.

use bqsim_analyze as analyze;
use bqsim_analyze::{
    analyze_graph, check_journal, Diagnostics, GraphFacts, JournalFacts, JournalRecordFacts,
    JournalRecordKind, Loc, Severity, TaskFacts, TaskOp,
};
use bqsim_core::{analyze_pipeline, BqSimOptions, SeededDefect};
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
fn broken_graph_unordered_writers_trip_races() {
    // Two unordered writers of D[0]: no path orders them either way.
    let facts = GraphFacts {
        tasks: vec![
            task("writer a", &[], &[], &[Loc::Device(0)]),
            task("writer b", &[], &[], &[Loc::Device(0)]),
        ],
    };
    let diags = analyze_graph(&facts);
    let msg = expect_finding(&diags, "races", Severity::Error);
    assert!(msg.contains("data race"), "{msg}");
    assert!(
        msg.contains("'writer a'") && msg.contains("'writer b'"),
        "{msg}"
    );
    assert_eq!(diags.error_count(), 1, "{diags}");
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
        (SeededDefect::Race, "races"),
        (SeededDefect::Journal, "journal-exactly-once"),
    ];
    for (defect, pass) in expectations {
        let report = analyze_pipeline(&circuit, &BqSimOptions::default(), 4, 2, None, Some(defect))
            .expect("analysis runs")
            .report;
        let found = report.sections().iter().any(|s| {
            s.diagnostics
                .iter()
                .any(|d| d.pass == pass && d.severity == Severity::Error)
        });
        assert!(
            found,
            "defect {:?} must fire pass `{pass}`:\n{}",
            defect,
            report.render_text()
        );
    }
}

#[test]
fn clean_pipeline_is_verified_and_machine_readable() {
    // The positive control for the corpus: no defect, everything clean,
    // and the JSON rendering is parseable with the expected structure.
    let circuit = generators::ghz(3);
    let report = analyze_pipeline(&circuit, &BqSimOptions::default(), 4, 2, None, None)
        .expect("analysis runs")
        .report;
    assert!(report.is_clean(), "{}", report.render_text());
    let json = report.to_json();
    assert!(json.contains("\"errors\":0"), "{json}");
    assert!(json.contains("\"warnings\":0"), "{json}");
    assert!(json.contains("\"sections\":[{"), "{json}");
    assert!(json.contains("\"title\":\"pipeline artifacts\""), "{json}");
}

#[test]
fn defect_messages_survive_json_escaping() {
    // Race messages quote the task labels; the JSON path must round-trip
    // quotes and backslashes in them losslessly.
    let facts = GraphFacts {
        tasks: vec![
            task("writer \"a\"", &[], &[], &[Loc::Device(0)]),
            task("writer \\b", &[], &[], &[Loc::Device(0)]),
        ],
    };
    let json = analyze_graph(&facts).to_json();
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
