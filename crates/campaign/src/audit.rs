//! Bridging parsed journals into `bqsim-analyze`'s journal state-machine
//! pass — the backend of `bqsim analyze --journal <path>`.

use crate::journal::{read_journal, JournalContents, JournalError, Record};
use bqsim_analyze::{
    check_journal_dfa, Diagnostics, JournalDfa, JournalFacts, JournalRecordFacts,
    JournalRecordKind, JournalState, JournalSymbolClass,
};
use std::path::Path;

/// Extracts the analyzer's facts snapshot from a validated journal. The
/// fingerprint header becomes a [`JournalRecordKind::Header`] record at
/// line 1, so the automaton sees the full `header → batch*` shape the
/// writer produced.
pub fn journal_facts(contents: &JournalContents) -> JournalFacts {
    let mut records = vec![JournalRecordFacts {
        line: 1,
        kind: JournalRecordKind::Header,
        batch: 0,
    }];
    records.extend(contents.records.iter().enumerate().map(|(i, rec)| {
        JournalRecordFacts {
            line: i + 2, // the plan header is line 1
            kind: match rec {
                Record::Batch { .. } => JournalRecordKind::Completion,
                Record::Quarantine { .. } => JournalRecordKind::Quarantine,
            },
            batch: rec.index(),
        }
    }));
    JournalFacts {
        num_batches: contents.fingerprint.num_batches,
        torn_tail: contents.torn,
        records,
    }
}

/// The journal writer's own spec of the record sequences it can emit:
/// exactly one fingerprint header, then batch records — completions,
/// quarantines, and the quarantine→retry-completion edge — until the
/// campaign finishes. Error symbols (duplicates, out-of-range indices,
/// unjustified backwards records, a second header) have no transitions:
/// an automaton rejection *is* the finding.
///
/// This is the authoritative copy checked against the analyzer's
/// independent [`JournalDfa::standard`] in tests, so a drift in either
/// spec fails the suite.
pub fn journal_dfa() -> JournalDfa {
    use JournalState::{Body, Start};
    use JournalSymbolClass::{Completion, Header, Quarantine, RetryCompletion};
    JournalDfa {
        start: Start,
        transitions: vec![
            // The fingerprint header opens the session.
            (Start, Header, Body),
            // Hand-built facts (and pre-header-era extracts) may start
            // directly with batch records.
            (Start, Completion, Body),
            (Start, RetryCompletion, Body),
            (Start, Quarantine, Body),
            // The body loops on batch records until the campaign is done.
            (Body, Completion, Body),
            (Body, RetryCompletion, Body),
            (Body, Quarantine, Body),
        ],
    }
}

/// Reads, authenticates, and conformance-checks the journal at `path`
/// against the writer's [`journal_dfa`] spec.
///
/// Envelope damage (CRC, parse, missing header) surfaces as
/// [`JournalError`]; semantic violations (duplicate completions,
/// ordering, range, concatenated sessions) come back as error-severity
/// diagnostics from the analyzer pass.
///
/// # Errors
///
/// Propagates [`read_journal`]'s errors.
pub fn audit_journal(path: &Path) -> Result<Diagnostics, JournalError> {
    let contents = read_journal(path)?;
    Ok(check_journal_dfa(&journal_facts(&contents), &journal_dfa()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Fingerprint, JournalWriter, StateMode};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bqsim-audit-test-{}-{name}", std::process::id()));
        p
    }

    fn fp(num_batches: usize) -> Fingerprint {
        Fingerprint {
            circuit: 1,
            options: 2,
            source: None,
            inputs: 3,
            artifact: 4,
            fault_seed: None,
            threads: 1,
            layout: bqsim_core::Layout::Planar,
            precision: bqsim_core::Precision::F64,
            num_batches,
            batch_size: 1,
            amps: 2,
        }
    }

    #[test]
    fn complete_journal_audits_clean() {
        let path = tmp("clean");
        let mut w = JournalWriter::create(&path, &fp(2), StateMode::ChecksumOnly).unwrap();
        for b in 0..2 {
            w.append(&Record::Batch {
                index: b,
                checksum: 0,
            })
            .unwrap();
        }
        drop(w);
        let d = audit_journal(&path).unwrap();
        assert!(d.is_clean(), "{d}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::journal::state_path(&path)).ok();
    }

    #[test]
    fn duplicate_completion_is_flagged_with_its_line() {
        let path = tmp("dup");
        let mut w = JournalWriter::create(&path, &fp(1), StateMode::ChecksumOnly).unwrap();
        for _ in 0..2 {
            w.append(&Record::Batch {
                index: 0,
                checksum: 0,
            })
            .unwrap();
        }
        drop(w);
        let d = audit_journal(&path).unwrap();
        assert_eq!(d.error_count(), 1, "{d}");
        assert!(d.mentions("line 3"), "{d}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::journal::state_path(&path)).ok();
    }

    #[test]
    fn writer_spec_matches_the_analyzers_standard_automaton() {
        // Two independently written copies of the same machine; drift in
        // either one is a bug.
        assert_eq!(journal_dfa(), JournalDfa::standard());
    }
}
