//! Reconstructing per-batch campaign state from a validated journal and
//! its state sidecar.

use crate::checksum::{decode_state, fnv1a, state_slot_bytes};
use crate::journal::{read_state_slot, JournalContents, JournalError, Record, StateMode};
use bqsim_num::Complex;
use std::path::Path;

/// A batch the journal records as completed.
#[derive(Debug)]
pub(crate) struct CompletedBatch {
    /// The record's output checksum.
    pub checksum: u64,
    /// The decoded, checksum-verified output amplitudes — present only
    /// for a [`StateMode::Full`] journal.
    pub state: Option<Vec<Vec<Complex>>>,
}

/// What a journal says about every batch of its campaign.
#[derive(Debug)]
pub(crate) struct JournalState {
    /// Per-batch completion evidence.
    pub completed: Vec<Option<CompletedBatch>>,
    /// `(reason, drift)` of batches whose *latest* record is a
    /// quarantine (a later completion — a successful retry — clears it).
    pub quarantined: Vec<Option<(String, f64)>>,
}

/// Decodes a journal's records into [`JournalState`]. For a
/// [`StateMode::Full`] journal, every completed batch's sidecar slot is
/// read and its raw bytes verified against the record checksum, then
/// decoded and kept only with `keep_states` (so a caller that drops
/// outputs holds one slot at a time); for [`StateMode::ChecksumOnly`],
/// completion is taken from the record alone.
///
/// # Errors
///
/// [`JournalError::Corrupt`] on an out-of-range batch index or a
/// duplicate completion (line numbers count the header as line 1);
/// [`JournalError::State`] on a missing, short, or checksum-failing
/// sidecar slot.
pub(crate) fn load_journal_state(
    path: &Path,
    contents: &JournalContents,
    keep_states: bool,
) -> Result<JournalState, JournalError> {
    let n = contents.fingerprint.num_batches;
    let slot_bytes = state_slot_bytes(contents.fingerprint.batch_size, contents.fingerprint.amps);
    let mut completed: Vec<Option<CompletedBatch>> = (0..n).map(|_| None).collect();
    let mut quarantined: Vec<Option<(String, f64)>> = vec![None; n];

    for (i, rec) in contents.records.iter().enumerate() {
        let line = i + 2; // header is line 1
        let corrupt = |reason: String| JournalError::Corrupt { line, reason };
        match rec {
            Record::Batch { index, checksum } => {
                let b = *index;
                if b >= n {
                    return Err(corrupt(format!(
                        "batch index {b} out of range (campaign has {n} batches)"
                    )));
                }
                if completed[b].is_some() {
                    return Err(corrupt(format!("duplicate completion of batch {b}")));
                }
                let state = match contents.state_mode {
                    StateMode::ChecksumOnly => None,
                    StateMode::Full => {
                        let bytes = read_state_slot(path, b, slot_bytes)?;
                        if fnv1a(&bytes) != *checksum {
                            return Err(JournalError::State {
                                index: b,
                                reason: "slot bytes do not match the record checksum".to_string(),
                            });
                        }
                        let Some(state) = decode_state(
                            &bytes,
                            contents.fingerprint.batch_size,
                            contents.fingerprint.amps,
                        ) else {
                            return Err(JournalError::State {
                                index: b,
                                reason: "undecodable slot".to_string(),
                            });
                        };
                        keep_states.then_some(state)
                    }
                };
                quarantined[b] = None; // a completion supersedes any earlier quarantine
                completed[b] = Some(CompletedBatch {
                    checksum: *checksum,
                    state,
                });
            }
            Record::Quarantine {
                index,
                reason,
                drift_bits,
            } => {
                let b = *index;
                if b >= n {
                    return Err(corrupt(format!(
                        "quarantine index {b} out of range (campaign has {n} batches)"
                    )));
                }
                if completed[b].is_none() {
                    quarantined[b] = Some((reason.clone(), f64::from_bits(*drift_bits)));
                }
            }
        }
    }

    Ok(JournalState {
        completed,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::{encode_state, state_checksum};
    use crate::journal::{read_journal, state_path, Fingerprint, JournalWriter, StateMode};
    use std::io::{Seek as _, SeekFrom, Write as _};
    use std::path::PathBuf;

    fn fp() -> Fingerprint {
        Fingerprint {
            circuit: 0,
            options: 0,
            source: None,
            inputs: 0,
            artifact: 0,
            fault_seed: None,
            threads: 1,
            layout: bqsim_core::Layout::Planar,
            precision: bqsim_core::Precision::F64,
            num_batches: 3,
            batch_size: 1,
            amps: 2,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bqsim-resume-test-{}-{name}", std::process::id()));
        p
    }

    fn cleanup(path: &PathBuf) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(state_path(path)).ok();
    }

    fn append_state(w: &mut JournalWriter, index: usize, batch: &[Vec<Complex>]) {
        w.write_slot(index, &encode_state(batch)).unwrap();
        w.sync_state().unwrap();
        let checksum = state_checksum(batch);
        w.append(&Record::Batch { index, checksum }).unwrap();
    }

    #[test]
    fn completion_supersedes_quarantine_and_roundtrips() {
        let path = tmp("supersede");
        let state = vec![vec![Complex::new(0.5, 0.5), Complex::new(-0.5, 0.5)]];
        let mut w = JournalWriter::create(&path, &fp(), StateMode::Full).unwrap();
        w.append(&Record::Quarantine {
            index: 1,
            reason: "norm-drift".to_string(),
            drift_bits: 0.25f64.to_bits(),
        })
        .unwrap();
        append_state(&mut w, 1, &state);
        drop(w);
        let contents = read_journal(&path).unwrap();
        let st = load_journal_state(&path, &contents, true).unwrap();
        assert!(st.quarantined[1].is_none(), "retry cleared the quarantine");
        let cb = st.completed[1].as_ref().unwrap();
        assert_eq!(cb.checksum, state_checksum(&state));
        assert_eq!(cb.state.as_deref(), Some(&state[..]));
        assert!(st.completed[0].is_none() && st.completed[2].is_none());
        // Without `keep_states` the slot is verified but not kept.
        let st = load_journal_state(&path, &contents, false).unwrap();
        let cb = st.completed[1].as_ref().unwrap();
        assert_eq!(cb.checksum, state_checksum(&state));
        assert!(cb.state.is_none());
        cleanup(&path);
    }

    #[test]
    fn checksum_only_journal_completes_without_a_sidecar() {
        let path = tmp("checksum-only");
        let mut w = JournalWriter::create(&path, &fp(), StateMode::ChecksumOnly).unwrap();
        w.append(&Record::Batch {
            index: 2,
            checksum: 0xfeed,
        })
        .unwrap();
        drop(w);
        assert!(
            !state_path(&path).exists(),
            "checksum-only journals have no sidecar"
        );
        let contents = read_journal(&path).unwrap();
        let st = load_journal_state(&path, &contents, true).unwrap();
        let cb = st.completed[2].as_ref().unwrap();
        assert_eq!(cb.checksum, 0xfeed);
        assert!(cb.state.is_none(), "no amplitudes to rematerialize");
        cleanup(&path);
    }

    #[test]
    fn tampered_slot_fails_the_checksum() {
        let path = tmp("tamper");
        let state = vec![vec![Complex::new(0.5, 0.5), Complex::new(-0.5, 0.5)]];
        let mut w = JournalWriter::create(&path, &fp(), StateMode::Full).unwrap();
        append_state(&mut w, 0, &state);
        drop(w);
        // Flip one byte of the committed slot behind the journal's back.
        let sidecar = state_path(&path);
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&sidecar)
            .unwrap();
        f.seek(SeekFrom::Start(3)).unwrap();
        f.write_all(&[0xff]).unwrap();
        drop(f);
        let contents = read_journal(&path).unwrap();
        for keep_states in [true, false] {
            match load_journal_state(&path, &contents, keep_states) {
                Err(JournalError::State { index: 0, reason }) => {
                    assert!(reason.contains("checksum"), "{reason}");
                }
                other => panic!("expected slot checksum failure, got {other:?}"),
            }
        }
        cleanup(&path);
    }

    #[test]
    fn missing_sidecar_is_reported_per_batch() {
        let path = tmp("missing");
        let state = vec![vec![Complex::new(1.0, 0.0), Complex::new(0.0, 0.0)]];
        let mut w = JournalWriter::create(&path, &fp(), StateMode::Full).unwrap();
        append_state(&mut w, 2, &state);
        drop(w);
        std::fs::remove_file(state_path(&path)).unwrap();
        let contents = read_journal(&path).unwrap();
        match load_journal_state(&path, &contents, true) {
            Err(JournalError::State { index: 2, .. }) => {}
            other => panic!("expected missing-sidecar State error, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn duplicate_completion_and_range_violations_are_corrupt() {
        let path = tmp("dup");
        let state = vec![vec![Complex::new(1.0, 0.0), Complex::new(0.0, 0.0)]];
        let mut w = JournalWriter::create(&path, &fp(), StateMode::Full).unwrap();
        append_state(&mut w, 0, &state);
        append_state(&mut w, 0, &state);
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert!(matches!(
            load_journal_state(&path, &contents, true),
            Err(JournalError::Corrupt { line: 3, .. })
        ));
        cleanup(&path);

        let path = tmp("range");
        let mut w = JournalWriter::create(&path, &fp(), StateMode::Full).unwrap();
        append_state(&mut w, 7, &state);
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert!(matches!(
            load_journal_state(&path, &contents, true),
            Err(JournalError::Corrupt { line: 2, .. })
        ));
        cleanup(&path);
    }
}
