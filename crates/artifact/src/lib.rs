//! Compile-once circuit executables: a versioned, CRC'd on-disk format
//! plus a content-addressed store (ROADMAP item 2, DESIGN.md §16).
//!
//! BQSim's pipeline front half (gate fusion → QMDD → ELL conversion →
//! task-graph structure) is a pure function of the circuit and the
//! compile-relevant options, yet historically re-ran in every process.
//! Production batch traffic is few circuits × huge batch counts, so
//! this crate persists the compiled result as a **circuit executable**:
//!
//! * [`CircuitArtifact`] / [`GateRecord`] — the complete compiled form:
//!   per-gate ELL matrices (pattern annotation included), flattened GPU
//!   DDs, conversion provenance, compile-time cache stats, and the
//!   source QASM for self-contained auditing.
//! * [`format`](mod@format) — the flat little-endian serialization: a 32-byte
//!   validated header (magic, version, content key, payload CRC) then
//!   bulk arrays decoded with `chunks_exact` sweeps — the safe-Rust
//!   equivalent of an mmap-and-go loader (the workspace forbids
//!   `unsafe`, so bytes are bulk-copied rather than transmuted; the
//!   load remains free of per-element framing).
//! * [`ArtifactStore`] — the keyed directory: atomic tmp+rename
//!   publication, corrupt-file quarantine (unlink + recompile, never a
//!   hard error), single-flight compile election for concurrent
//!   processes, and an occupancy bound with oldest-first eviction.
//!
//! The content key itself is computed one layer up (`bqsim-core` owns
//! the circuit and options types); this crate treats keys as opaque
//! 64-bit content addresses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod store;

pub use format::{
    decode_artifact, encode_artifact, fnv1a, fnv1a_extend, ArtifactError, CircuitArtifact,
    GateRecord, TuningRecord, ARTIFACT_VERSION, MAGIC,
};
pub use store::{
    ArtifactStore, Flight, FlightGuard, LoadOutcome, StoreEntry, StoreStats,
    DEFAULT_STORE_CAPACITY, FLIGHT_TIMEOUT,
};

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_ell::{EllMatrix, GpuDd, GpuDdEdge, GpuDdNode, NIL};
    use bqsim_num::Complex;
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bqsim-artifact-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn sample_artifact(key: u64) -> CircuitArtifact {
        let mut ell = EllMatrix::zeros(4, 2);
        ell.set_slot(0, 0, 1, Complex::new(0.5, -0.25));
        ell.set_slot(0, 1, 2, Complex::I);
        ell.set_slot(1, 0, 0, Complex::ONE);
        ell.set_slot(2, 0, 3, Complex::new(-1.0, 0.0));
        ell.set_slot(3, 0, 2, Complex::new(0.0, -1.0));
        ell.detect_pattern();
        let gpu_dd = GpuDd::from_raw_parts(
            vec![
                GpuDdEdge {
                    weight: Complex::ONE,
                    node: 0,
                },
                GpuDdEdge {
                    weight: Complex::new(0.0, 1.0),
                    node: NIL,
                },
            ],
            vec![GpuDdNode {
                qubit_lv: 1,
                edges: [1, NIL, NIL, 1],
            }],
            2,
        )
        .unwrap();
        CircuitArtifact {
            key,
            num_qubits: 2,
            fusion_ns: 1234,
            conversion_ns: 5678,
            cache_hits: 3,
            cache_misses: 2,
            cache_evictions: 0,
            tau: 2000,
            skip_fusion: false,
            skip_ell: false,
            generic_spmm: false,
            force_conversion: Some(1),
            qasm: "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n".to_string(),
            gates: vec![GateRecord {
                ell,
                gpu_dd,
                cost: 2,
                method: 1,
                conversion_ns: 99,
                dd_edges: 2,
                work_total_steps: 17,
                work_max_row_steps: 5,
            }],
            tuning: None,
        }
    }

    #[test]
    fn encode_decode_is_identity() {
        let a = sample_artifact(0xdead_beef_cafe_f00d);
        let bytes = encode_artifact(&a);
        assert_eq!(&bytes[..4], &MAGIC);
        let back = decode_artifact(&bytes, Some(a.key)).unwrap();
        assert_eq!(back, a);
        // The pattern annotation survives the round trip bit-exactly.
        assert_eq!(
            back.gates[0].ell.pattern_period(),
            a.gates[0].ell.pattern_period()
        );
    }

    #[test]
    fn tuning_record_roundtrips() {
        use bqsim_ell::Precision;
        let mut a = sample_artifact(0xabcd);
        a.tuning = Some(TuningRecord {
            precision: Precision::F32,
            use_pattern: true,
            probe_ns: 123_456,
        });
        let bytes = encode_artifact(&a);
        let back = decode_artifact(&bytes, Some(0xabcd)).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.tuning.unwrap().to_string(), "precision=f32 pattern=on");
        // Tuning is execution metadata: the artifact key and everything
        // before the tuning section are unchanged by its presence.
        let plain = encode_artifact(&sample_artifact(0xabcd));
        assert_eq!(&bytes[8..16], &plain[8..16], "same content key");

        // Tag 2 was the retired third precision: a CRC-valid file that
        // carries it is corrupt (so the store recompiles), never f64.
        let mut retired = bytes.clone();
        let tag = retired.len() - 3 * 8;
        retired[tag..tag + 8].copy_from_slice(&2u64.to_le_bytes());
        let crc = fnv1a(&retired[32..]);
        retired[24..32].copy_from_slice(&crc.to_le_bytes());
        let err = decode_artifact(&retired, Some(0xabcd)).unwrap_err();
        assert!(err.to_string().contains("precision tag 2"), "{err}");
    }

    #[test]
    fn previous_versions_are_rejected() {
        // No backward compatibility: a file stamped with any earlier
        // version is corrupt, so the store recompiles over it.
        for version in 1..ARTIFACT_VERSION {
            let mut bytes = encode_artifact(&sample_artifact(0x5150));
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            match decode_artifact(&bytes, Some(0x5150)) {
                Err(ArtifactError::Corrupt(why)) => assert!(why.contains("version"), "{why}"),
                other => panic!("version {version} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = encode_artifact(&sample_artifact(9));
        bytes[4..8].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
        match decode_artifact(&bytes, Some(9)) {
            Err(ArtifactError::Corrupt(why)) => assert!(why.contains("version"), "{why}"),
            other => panic!("future version accepted: {other:?}"),
        }
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let a = sample_artifact(7);
        let clean = encode_artifact(&a);
        // Flipping any single byte must be caught by magic, version,
        // key, CRC, or structural validation — never produce Ok with
        // different content.
        for at in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            match decode_artifact(&bytes, Some(7)) {
                Err(ArtifactError::Corrupt(_)) => {}
                Err(other) => panic!("byte {at}: unexpected error {other}"),
                Ok(got) => panic!("byte {at}: corruption accepted: {got:?}"),
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let a = sample_artifact(7);
        let clean = encode_artifact(&a);
        for len in 0..clean.len() {
            match decode_artifact(&clean[..len], Some(7)) {
                Err(ArtifactError::Corrupt(_)) => {}
                other => panic!("prefix {len}: {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_key_is_rejected() {
        let a = sample_artifact(41);
        let bytes = encode_artifact(&a);
        assert!(decode_artifact(&bytes, Some(42)).is_err());
        assert!(decode_artifact(&bytes, None).is_ok());
    }

    #[test]
    fn store_publishes_loads_and_counts() {
        let dir = tmp_dir("basic");
        let store = ArtifactStore::open(&dir).unwrap();
        let a = sample_artifact(0x1111);
        assert!(matches!(store.load(0x1111), LoadOutcome::Miss));
        let path = store.publish(&a).unwrap();
        assert!(path.ends_with("0000000000001111.bqc"));
        match store.load(0x1111) {
            LoadOutcome::Hit(got) => assert_eq!(*got, a),
            other => panic!("expected hit, got {other:?}"),
        }
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.published), (1, 1, 1));
        let inv = store.entries().unwrap();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].key, 0x1111);
        assert_eq!(inv[0].version, ARTIFACT_VERSION);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_is_quarantined_not_fatal() {
        let dir = tmp_dir("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        let a = sample_artifact(0x2222);
        let path = store.publish(&a).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match store.load(0x2222) {
            LoadOutcome::Corrupt(why) => assert!(why.contains("corrupt"), "{why}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        // The poisoned file is gone: the next load is a clean miss and
        // a republish fully restores the entry.
        assert!(!path.exists());
        assert!(matches!(store.load(0x2222), LoadOutcome::Miss));
        store.publish(&a).unwrap();
        assert!(matches!(store.load(0x2222), LoadOutcome::Hit(_)));
        assert_eq!(store.stats().corrupt, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_drops_oldest_entries() {
        let dir = tmp_dir("evict");
        let store = ArtifactStore::with_capacity(&dir, 2).unwrap();
        for key in [1u64, 2, 3] {
            let mut a = sample_artifact(key);
            a.key = key;
            store.publish(&a).unwrap();
            // Distinct mtimes so oldest-first is deterministic.
            std::thread::sleep(Duration::from_millis(20));
        }
        let keys: Vec<u64> = store.entries().unwrap().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![2, 3], "oldest entry (key 1) evicted");
        assert_eq!(store.stats().evictions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_flight_elects_one_leader_and_follower_sees_publication() {
        let dir = tmp_dir("flight");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = 0x3333;
        let leader = store.begin_flight(key, Duration::from_secs(5));
        let Flight::Leader(guard) = leader else {
            panic!("first flight must lead");
        };
        // While the lock is held and no artifact exists, a second
        // flight from another store handle (same dir) blocks; publish
        // then releases it as a follower.
        let store2 = ArtifactStore::open(&dir).unwrap();
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            store2.publish(&sample_artifact(key)).unwrap();
        });
        let store3 = ArtifactStore::open(&dir).unwrap();
        match store3.begin_flight(key, Duration::from_secs(5)) {
            Flight::Follower => {}
            Flight::Leader(_) => panic!("second flight must follow the publication"),
        }
        publisher.join().unwrap();
        drop(guard);
        assert!(
            !dir.join(format!("{key:016x}.lock")).exists(),
            "guard drop removes the lock"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_is_broken_by_timeout() {
        let dir = tmp_dir("stale");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = 0x4444;
        // Simulate a crashed leader: a lock file nobody will release.
        std::fs::write(dir.join(format!("{key:016x}.lock")), b"").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        match store.begin_flight(key, Duration::from_millis(20)) {
            Flight::Leader(_) => {}
            Flight::Follower => panic!("stale lock must not make us wait forever"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
