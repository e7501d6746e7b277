//! Artifact-store round-trip properties (the PR 8 compile-once
//! contract): a circuit executable published by one compile and loaded
//! by a later one must run **bit-identically** — `f64::to_bits`
//! equality over every output amplitude — at both precisions (and so
//! both amplitude layouts) and across worker-thread counts (the content
//! key excludes execution-only options, so one artifact serves every
//! `precision` and `threads` setting). Corrupt artifacts, and files of
//! any other format version, must degrade to a recompile that
//! republishes and still matches, never to an error.

use bqsim_campaign::{campaign_digest, run_campaign, CampaignOptions};
use bqsim_core::{
    artifact_key, random_input_batch, ArtifactStore, BqSimOptions, BqSimulator, CompileSource,
    Precision,
};
use bqsim_num::Complex;
use bqsim_qcir::generators;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn store_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("bqsim-artifact-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Folds every output amplitude into an exact bit pattern: equality here
/// is `to_bits` equality, with no tolerance.
fn output_bits(outputs: &[Vec<Vec<Complex>>]) -> Vec<(u64, u64)> {
    outputs
        .iter()
        .flatten()
        .flatten()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Same, over a campaign's per-batch optional outputs.
fn campaign_bits(outputs: &[Option<Vec<Vec<Complex>>>]) -> Vec<(u64, u64)> {
    outputs
        .iter()
        .flatten()
        .flatten()
        .flatten()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// compile → store → load → execute is bit-identical to the direct
    /// compile across {f64 (aos), f32 (planar)} × threads {1, 4}. The
    /// very first compile publishes; every later combination loads it
    /// warm — the content key excludes execution-only options, so
    /// **one** artifact serves every precision and thread count (which
    /// is also what keeps the auto-tuner's precision moves from forking
    /// artifacts).
    #[test]
    fn store_round_trip_is_bit_identical_across_layouts_and_threads(
        seed in 0u64..1_000,
        n in 3usize..6,
        gates in 5usize..30,
    ) {
        let circuit = generators::random_circuit(n, gates, seed);
        let batches = vec![random_input_batch(n, 3, seed ^ 0x5eed)];
        let dir = store_dir("roundtrip");
        let mut first = true;
        for precision in [Precision::F64, Precision::F32] {
            let mut bits = Vec::new();
            for threads in [1usize, 4] {
                let opts = BqSimOptions { threads, precision, ..BqSimOptions::default() };
                // Direct compile, no store: the reference output.
                let reference = BqSimulator::compile(&circuit, opts.clone()).unwrap()
                    .run_batches(&batches).unwrap();
                let store = ArtifactStore::open(&dir).unwrap();
                let (sim, source) = BqSimulator::compile_or_load(&circuit, opts, &store).unwrap();
                if first {
                    prop_assert!(
                        matches!(source, CompileSource::Cold { published: true }),
                        "the first compile must publish, got {source:?}"
                    );
                    first = false;
                } else {
                    prop_assert!(
                        source.is_warm(),
                        "{precision} threads {threads} must reuse the one artifact, \
                         got {source:?}"
                    );
                }
                let run = sim.run_batches(&batches).unwrap();
                prop_assert_eq!(output_bits(&run.outputs), output_bits(&reference.outputs));
                bits.push(output_bits(&run.outputs));
            }
            // Every thread count agrees bit for bit over one artifact.
            prop_assert_eq!(&bits[0], &bits[1]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A byte flip at a random offset anywhere in the stored file makes
    /// the next campaign recompile with a warning — and its digest and
    /// amplitudes still match the cold run exactly.
    #[test]
    fn seeded_corruption_degrades_to_a_bit_identical_recompile(
        seed in 0u64..1_000,
        offset_frac in 0.0f64..1.0,
    ) {
        let circuit = generators::qft(4);
        let batches = vec![
            random_input_batch(4, 2, seed),
            random_input_batch(4, 2, seed ^ 1),
        ];
        let dir = store_dir("corrupt");
        let copts = CampaignOptions {
            artifact_dir: Some(dir.clone()),
            ..CampaignOptions::default()
        };
        let opts = BqSimOptions::default();
        let cold = run_campaign(&circuit, opts.clone(), &batches, &copts).unwrap();
        prop_assert!(matches!(
            cold.compile_source,
            Some(CompileSource::Cold { published: true })
        ));

        // Flip one byte at a seeded offset of the published file.
        let entries = ArtifactStore::open(&dir).unwrap().entries().unwrap();
        prop_assert_eq!(entries.len(), 1);
        let path = &entries[0].path;
        let mut bytes = std::fs::read(path).unwrap();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let at = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[at] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();

        let warm = run_campaign(&circuit, opts.clone(), &batches, &copts).unwrap();
        prop_assert!(
            matches!(warm.compile_source, Some(CompileSource::RecompiledCorrupt { .. })),
            "flipping byte {at} must be detected, got {:?}",
            warm.compile_source
        );
        prop_assert_eq!(
            campaign_digest(&warm.checksums),
            campaign_digest(&cold.checksums)
        );
        prop_assert_eq!(campaign_bits(&warm.outputs), campaign_bits(&cold.outputs));

        // The recompile republished a valid artifact: round three is warm.
        let third = run_campaign(&circuit, opts, &batches, &copts).unwrap();
        prop_assert!(matches!(third.compile_source, Some(CompileSource::Warm)));
        prop_assert_eq!(
            campaign_digest(&third.checksums),
            campaign_digest(&cold.checksums)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A store owes no backward compatibility: a file stamped with the
/// previous format version, under the current content key, is a miss
/// that recompiles through the corrupt→recompile path, republishes the
/// current version, and lands on an unchanged campaign digest.
#[test]
fn a_previous_version_file_recompiles_with_an_unchanged_digest() {
    let circuit = generators::ghz(3);
    let opts = BqSimOptions::default();
    let key = artifact_key(&circuit, &opts);
    assert_eq!(
        key, 0x5a72_c1f5_8191_c078,
        "the artifact key schema moved: every store would recompile"
    );
    let batches = vec![random_input_batch(3, 4, 21), random_input_batch(3, 4, 22)];
    let dir = store_dir("previous-version");
    let copts = CampaignOptions {
        artifact_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let cold = run_campaign(&circuit, opts.clone(), &batches, &copts).unwrap();
    assert!(matches!(
        cold.compile_source,
        Some(CompileSource::Cold { published: true })
    ));

    // Re-stamp the published file with the previous version. The stamp
    // sits in the header, outside the payload CRC, so only the version
    // check can refuse it.
    let store = ArtifactStore::open(&dir).unwrap();
    let entries = store.entries().unwrap();
    let current = entries[0].version;
    assert_eq!((entries.len(), entries[0].key), (1, key));
    let path = &entries[0].path;
    let mut bytes = std::fs::read(path).unwrap();
    bytes[4..8].copy_from_slice(&(current - 1).to_le_bytes());
    std::fs::write(path, &bytes).unwrap();

    let warm = run_campaign(&circuit, opts, &batches, &copts).unwrap();
    match &warm.compile_source {
        Some(CompileSource::RecompiledCorrupt { warning }) => {
            assert!(warning.contains("version"), "{warning}");
        }
        other => panic!("a previous-version file must recompile, got {other:?}"),
    }
    assert_eq!(
        campaign_digest(&warm.checksums),
        campaign_digest(&cold.checksums)
    );
    let entries = store.entries().unwrap();
    assert_eq!(
        (entries.len(), entries[0].key, entries[0].version),
        (1, key, current)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
