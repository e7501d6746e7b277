//! Adaptive-precision properties (the PR 10 contract): the `f64` path
//! must be **bit-identical** — `f64::to_bits` equality, no tolerance —
//! across amplitude layouts, worker-thread counts, and before/after the
//! auto-tuner (tuning is an execution-plan choice, never a numerical
//! one at `f64`). The narrow precisions trade exactness for speed under
//! an explicit contract: their error against the `f64` reference stays
//! within a tolerance derived from the circuit's fused depth, and when a
//! campaign's integrity budget is tighter than a narrow precision can
//! hold, the runner transparently retries at `f64` — so the campaign
//! digest degrades to the `f64` digest instead of quarantining batches.

use bqsim_campaign::{campaign_digest, run_campaign, CampaignOptions, IntegrityBudget};
use bqsim_core::{
    precision_tolerance, random_input_batch, tune_or_stored, BqSimOptions, BqSimulator, Layout,
    Precision,
};
use bqsim_num::approx::l2_norm;
use bqsim_num::Complex;
use bqsim_qcir::generators;
use proptest::prelude::*;

/// Folds a run's output amplitudes into exact bit patterns.
fn output_bits(outputs: &[Vec<Vec<Complex>>]) -> Vec<(u64, u64)> {
    outputs
        .iter()
        .flatten()
        .flatten()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Relative L2 error of `got` against `want`, worst case over the batch.
fn worst_rel_error(want: &[Vec<Complex>], got: &[Vec<Complex>]) -> f64 {
    assert_eq!(want.len(), got.len());
    let mut worst = 0.0f64;
    for (w, g) in want.iter().zip(got) {
        let diff: Vec<Complex> = w
            .iter()
            .zip(g)
            .map(|(a, b)| Complex::new(a.re - b.re, a.im - b.im))
            .collect();
        let denom = l2_norm(w).max(f64::MIN_POSITIVE);
        worst = worst.max(l2_norm(&diff) / denom);
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The `f64` path is one numerical artifact: every layout × thread
    /// combination, tuned or untuned, produces the same bits. This is
    /// the regression fence for the tuner refactor — a tuner that
    /// changed `f64` math would trip it immediately.
    #[test]
    fn f64_path_is_bit_identical_across_layouts_threads_and_tuning(
        seed in 0u64..1_000,
        n in 3usize..6,
        gates in 5usize..30,
    ) {
        let circuit = generators::random_circuit(n, gates, seed);
        let batches = vec![random_input_batch(n, 3, seed ^ 0xf00d)];
        let reference = output_bits(
            &BqSimulator::compile(&circuit, BqSimOptions::default())
                .unwrap()
                .run_batches(&batches)
                .unwrap()
                .outputs,
        );
        for layout in [Layout::Aos, Layout::Planar] {
            for threads in [1usize, 4] {
                let opts = BqSimOptions { layout, threads, ..BqSimOptions::default() };
                let plain = BqSimulator::compile(&circuit, opts.clone()).unwrap();
                prop_assert_eq!(
                    &output_bits(&plain.run_batches(&batches).unwrap().outputs),
                    &reference,
                    "untuned f64 ({:?}, threads={}) diverged", layout, threads
                );
                // Tune with an f64 floor: the tuner may move layout,
                // threads, or pattern compression, but never the bits.
                let mut tuned = BqSimulator::compile(&circuit, opts).unwrap();
                let outcome = tune_or_stored(&mut tuned, Precision::F64, None, None).unwrap();
                prop_assert_eq!(outcome.record.precision, Precision::F64);
                prop_assert_eq!(
                    &output_bits(&tuned.run_batches(&batches).unwrap().outputs),
                    &reference,
                    "tuned f64 ({:?}, threads={}) diverged", layout, threads
                );
            }
        }
    }

    /// Narrow-precision error is *bounded*, and the bound is a function
    /// of circuit depth — the same `precision_tolerance` curve the
    /// auto-tuner uses as its validity gate. The tolerance bounds norm
    /// drift; component-wise L2 error has no cancellation to hide
    /// behind, so it gets a fixed headroom factor on the same curve.
    #[test]
    fn narrow_precision_error_is_bounded_by_depth_tolerance(
        seed in 0u64..1_000,
        n in 3usize..6,
        gates in 5usize..30,
    ) {
        let circuit = generators::random_circuit(n, gates, seed);
        let batches = vec![random_input_batch(n, 4, seed ^ 0xbeef)];
        let f64_ref = BqSimulator::compile(&circuit, BqSimOptions::default())
            .unwrap()
            .run_batches(&batches)
            .unwrap();
        let opts = BqSimOptions {
            precision: Precision::F32,
            layout: Layout::Planar,
            ..BqSimOptions::default()
        };
        let sim = BqSimulator::compile(&circuit, opts).unwrap();
        let depth = sim.gates().len();
        let run = sim.run_batches(&batches).unwrap();
        let rel = worst_rel_error(&f64_ref.outputs[0], &run.outputs[0]);
        let tol = 64.0 * precision_tolerance(depth, Precision::F32);
        prop_assert!(
            rel <= tol,
            "f32 rel error {rel:.3e} exceeds depth-{depth} tolerance {tol:.3e}"
        );
    }

    /// A narrow-precision campaign under a budget tighter than f32 can
    /// hold does not lose batches: every drifting batch is retried at
    /// the `f64` reference, the retry passes the same budget, and the
    /// campaign digest equals the all-`f64` campaign's digest exactly.
    #[test]
    fn tight_budget_f32_campaign_retries_to_the_f64_digest(
        seed in 0u64..200,
    ) {
        let circuit = generators::qft(5);
        let inputs: Vec<_> = (0..3).map(|b| random_input_batch(5, 2, seed ^ b)).collect();
        // 1e-12 sits between f64 round-off (~1e-15) and f32 round-off
        // (~1e-7) for this family: f64 always passes, f32 never does.
        let copts = CampaignOptions {
            integrity: IntegrityBudget { max_norm_drift: 1e-12 },
            ..CampaignOptions::default()
        };
        let f64_run =
            run_campaign(&circuit, BqSimOptions::default(), &inputs, &copts).unwrap();
        prop_assert!(f64_run.is_complete());
        prop_assert_eq!(f64_run.precision_retries, 0, "f64 has nothing wider to retry at");

        let f32_opts = BqSimOptions {
            precision: Precision::F32,
            ..BqSimOptions::default()
        };
        let f32_run = run_campaign(&circuit, f32_opts, &inputs, &copts).unwrap();
        prop_assert!(f32_run.is_complete(), "retried batches must complete, not quarantine");
        prop_assert!(f32_run.quarantined.is_empty());
        prop_assert_eq!(
            f32_run.precision_retries, inputs.len(),
            "every f32 batch drifts past 1e-12 and must be retried"
        );
        prop_assert_eq!(
            campaign_digest(&f32_run.checksums),
            campaign_digest(&f64_run.checksums),
            "retried batches carry f64 checksums, so the digests coincide"
        );
    }
}
