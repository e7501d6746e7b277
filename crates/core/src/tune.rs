//! Empirical per-circuit auto-tuning of the execution axes.
//!
//! The compile pipeline is analytical (its cost model picks conversion
//! paths), but the best *execution* configuration — precision and, at
//! `f32`, pattern compression — depends on the compiled circuit's real
//! ELL shapes and the host it runs on, so it is measured, not modelled:
//! [`tune_or_stored`] runs short probe batches through the actual
//! compiled gates, one per candidate configuration, and keeps the
//! fastest one that is *valid*. The candidates are `f64`, `f32` with
//! pattern compression on and off, and the `generic_spmm` ablation arm.
//! Nothing else is a choice: the layout follows the precision (`f64`
//! runs AoS, `f32` planar), and state lanes follow the requested
//! `threads` and [`MIN_MACS_PER_LANE`](crate::MIN_MACS_PER_LANE).
//!
//! Validity has two gates:
//!
//! * **A priori**: a narrow precision whose depth-derived
//!   [`precision_tolerance`] estimate already exceeds the configured
//!   integrity budget is never probed — it would be quarantined at run
//!   time anyway. A *stored* record is held to the same bar: one tuned
//!   under a looser budget is re-probed, not replayed, when the current
//!   budget is tighter than its precision can meet.
//! * **Empirical**: the probe's observed L2-norm drift must stay within
//!   its own tolerance estimate, **and** its outputs must agree
//!   elementwise with the `f64` candidate's (`candidate_valid`'s
//!   relative-error bound) — norm drift alone would wave through a
//!   norm-preserving wrong kernel (sign, conjugation, and permutation
//!   bugs all preserve norms), so a broken narrow kernel can never win.
//!
//! The winning [`TuningRecord`] is applied to the simulator and, when a
//! store context is given, republished *inside* the existing artifact
//! (same content key — tuning never forks artifacts), so the next warm
//! load skips both the compile and every probe. The `generic_spmm`
//! ablation arm is probed for honesty in reports but never applied.

use crate::error::BqsimError;
use crate::simulator::{random_input_batch, BqSimulator, ResolvedExec};
use bqsim_artifact::{ArtifactStore, TuningRecord};
use bqsim_ell::{precision_tolerance, Precision};
use bqsim_num::approx::l2_norm;
use bqsim_num::Complex;
use std::time::Instant;

/// States per probe batch: large enough to exercise the batched sweep
/// and the pattern-compression arm, small enough that a full candidate
/// sweep costs a fraction of one production batch.
pub const PROBE_BATCH: usize = 8;

/// Wall-time measurements per candidate; the minimum is kept (min-of-N
/// rejects scheduler noise and first-touch pool allocation).
pub const PROBE_REPEATS: usize = 2;

/// Fixed probe-input seed: probing is deterministic given the circuit.
const PROBE_SEED: u64 = 0x9e37_79b9;

/// Headroom granted to the elementwise reference comparison over the
/// norm-drift tolerance model: relative L2 distance against the `f64`
/// reference lacks the cancellation that norm drift enjoys, so a clean
/// narrow kernel may sit a small factor above the drift estimate.
/// Broken-but-norm-preserving kernels produce O(1) relative error and
/// stay orders of magnitude outside even this loosened bound.
const REL_ERROR_HEADROOM: f64 = 4.0;

/// The empirical validity gate: a candidate may win only when its
/// observed norm drift stays inside `tolerance` *and* its outputs agree
/// with the `f64` reference elementwise. The second check is what
/// catches norm-preserving wrong kernels; the `f64` arm is the reference
/// and passes it with `rel_error == 0` exactly.
fn candidate_valid(generic: bool, drift: f64, rel_error: f64, tolerance: f64) -> bool {
    !generic && drift <= tolerance && rel_error <= tolerance * REL_ERROR_HEADROOM
}

/// Where a [`TuneOutcome`]'s record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningSource {
    /// The artifact already carried a record; zero probes ran.
    Stored,
    /// No usable stored record; the probe sweep ran.
    Probed,
}

/// One measured probe candidate (kept for reports and the benchmark's
/// cold-probe accounting).
#[derive(Debug, Clone)]
pub struct ProbeSample {
    /// The execution configuration probed.
    pub exec: ResolvedExec,
    /// Whether this was the generic-spMM honesty arm (never applied).
    pub generic_spmm: bool,
    /// Best-of-[`PROBE_REPEATS`] wall time in nanoseconds.
    pub ns: u64,
    /// Worst per-state L2-norm drift the probe observed.
    pub drift: f64,
    /// Worst per-state relative L2 error against the f64 reference.
    pub rel_error: f64,
    /// Whether the candidate passed its validity gates.
    pub valid: bool,
}

/// The auto-tuner's decision plus its full provenance.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The applied configuration.
    pub record: TuningRecord,
    /// Stored (warm, zero probes) or freshly probed.
    pub source: TuningSource,
    /// Probe executions performed — **0** on a stored hit; tests and the
    /// CLI's summary assert this is how warm runs prove they skipped the
    /// sweep.
    pub probes: u64,
    /// Every measured candidate, in probe order (empty on a stored hit).
    pub samples: Vec<ProbeSample>,
}

/// Applies the artifact's stored tuning record if one rode in with the
/// warm load (and satisfies `floor`), otherwise probes every candidate
/// execution configuration on the compiled gates and applies the
/// fastest valid one.
///
/// * `floor` — minimum accuracy rank the caller permits
///   ([`Precision::F32`] is fully permissive; tenant quotas pass their
///   cap). The stored record is re-probed, not trusted, when it falls
///   below the floor.
/// * `integrity_budget` — the run-time norm-drift budget; candidates
///   whose tolerance estimate exceeds it are excluded a priori, and a
///   stored record whose precision cannot meet it is re-probed rather
///   than replayed (replaying it would quarantine and re-execute every
///   batch at `f64` — the double-execution the pruning exists to avoid).
/// * `store` — when given `(store, key)`, a freshly probed record is
///   republished into the existing artifact under the **same** key.
///
/// The `skip_ell` and `generic_spmm` ablations pin every tunable axis,
/// so they return the current configuration without probing.
///
/// # Errors
///
/// Propagates probe-run failures ([`BqSimulator::run_batches`]' errors);
/// the simulator is left untuned in that case.
pub fn tune_or_stored(
    sim: &mut BqSimulator,
    floor: Precision,
    integrity_budget: Option<f64>,
    store: Option<(&ArtifactStore, u64)>,
) -> Result<TuneOutcome, BqsimError> {
    if let Some(rec) = sim.stored_tuning() {
        // A record tuned under a looser budget must not be replayed
        // under a tighter one: a narrow precision whose tolerance
        // estimate exceeds the current budget would make every batch
        // run narrow, quarantine, and re-execute at f64. `f64` itself
        // is exempt — it is the quarantine terminal and is never pruned.
        let budget_ok = integrity_budget.is_none_or(|budget| {
            rec.precision == Precision::F64
                || precision_tolerance(sim.gates().len(), rec.precision) <= budget
        });
        if rec.precision.rank() >= floor.rank() && budget_ok {
            sim.apply_tuning(&rec);
            return Ok(TuneOutcome {
                record: rec,
                source: TuningSource::Stored,
                probes: 0,
                samples: Vec::new(),
            });
        }
    }

    if sim.opts.skip_ell || sim.opts.generic_spmm {
        let resolved = sim.resolved_options();
        let record = TuningRecord {
            precision: resolved.precision,
            use_pattern: resolved.use_pattern,
            probe_ns: 0,
        };
        return Ok(TuneOutcome {
            record,
            source: TuningSource::Probed,
            probes: 0,
            samples: Vec::new(),
        });
    }
    let depth = sim.gates().len();
    let probe_inputs = random_input_batch(sim.num_qubits(), PROBE_BATCH, PROBE_SEED);

    // Candidate order is the deterministic tie-break: strictly faster
    // wins, so on equal times the earlier (more conservative) candidate
    // is kept — f64 before narrow, pattern on before off. `f64` comes
    // first and is never pruned: it is the quarantine-retry terminal, so
    // a valid winner always exists, and its outputs are the reference
    // every later candidate is compared against. The AoS kernels it runs
    // never read the pattern toggle, so it is probed once.
    let mut candidates = vec![(Precision::F64, true, false)];
    let narrow_ok = Precision::F32.rank() >= floor.rank()
        && integrity_budget
            .is_none_or(|budget| precision_tolerance(depth, Precision::F32) <= budget);
    if narrow_ok {
        candidates.push((Precision::F32, true, false));
        candidates.push((Precision::F32, false, false));
    }
    // The generic-spMM ablation arm: measured so reports can show what
    // the shape-specialised kernels buy, never applied.
    candidates.push((Precision::F64, true, true));

    let mut reference: Option<Vec<Vec<Complex>>> = None;
    let mut samples = Vec::with_capacity(candidates.len());
    let mut probes = 0u64;
    let mut best: Option<TuningRecord> = None;
    for (precision, use_pattern, generic) in candidates {
        let probe = sim.with_exec(precision, use_pattern, generic);
        let mut ns = u64::MAX;
        let mut outputs = Vec::new();
        for _ in 0..PROBE_REPEATS {
            let started = Instant::now();
            let run = probe.run_batches(std::slice::from_ref(&probe_inputs))?;
            ns = ns.min(started.elapsed().as_nanos() as u64);
            outputs = run.outputs;
            probes += 1;
        }
        let got = outputs.swap_remove(0);
        let reference = reference.get_or_insert_with(|| got.clone());
        let (drift, rel_error) = probe_errors(&probe_inputs, reference, &got);
        let valid = candidate_valid(
            generic,
            drift,
            rel_error,
            precision_tolerance(depth, precision),
        );
        if valid && best.is_none_or(|b| ns < b.probe_ns) {
            best = Some(TuningRecord {
                precision,
                use_pattern,
                probe_ns: ns,
            });
        }
        samples.push(ProbeSample {
            exec: probe.resolved_options(),
            generic_spmm: generic,
            ns,
            drift,
            rel_error,
            valid,
        });
    }

    // The f64 arm is always probed and should not fail its gates within
    // the loose tolerance model; if a pathological circuit ever defeats
    // the model anyway, degrade to the conservative f64 reference
    // configuration instead of panicking — auto-tuning must never be the
    // reason a run dies.
    let record = best.unwrap_or(TuningRecord {
        precision: Precision::F64,
        use_pattern: true,
        probe_ns: 0,
    });
    sim.apply_tuning(&record);
    if let Some((store, key)) = store {
        // Republish under the *same* key: the payload grows a tuning
        // section, the content address does not move.
        let _ = store.publish(&sim.to_artifact(key));
    }
    Ok(TuneOutcome {
        record,
        source: TuningSource::Probed,
        probes,
        samples,
    })
}

/// Worst per-state norm drift and relative L2 error of one probe output
/// against the inputs and the f64 reference.
fn probe_errors(
    inputs: &[Vec<Complex>],
    reference: &[Vec<Complex>],
    got: &[Vec<Complex>],
) -> (f64, f64) {
    let mut drift = 0.0f64;
    let mut rel = 0.0f64;
    for ((input, want), out) in inputs.iter().zip(reference).zip(got) {
        drift = drift.max((l2_norm(out) - l2_norm(input)).abs());
        let dist = want
            .iter()
            .zip(out)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt();
        let denom = l2_norm(want).max(f64::MIN_POSITIVE);
        rel = rel.max(dist / denom);
    }
    (drift, rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::BqSimOptions;
    use bqsim_qcir::generators;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bqsim-core-tune-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn opts() -> BqSimOptions {
        BqSimOptions {
            threads: 2,
            ..BqSimOptions::default()
        }
    }

    #[test]
    fn probing_selects_a_valid_configuration_and_reports_every_arm() {
        let circuit = generators::qft(5);
        let mut sim = BqSimulator::compile(&circuit, opts()).unwrap();
        let outcome = tune_or_stored(&mut sim, Precision::F32, Some(1e-9), None).unwrap();
        assert_eq!(outcome.source, TuningSource::Probed);
        assert!(outcome.probes > 0);
        // Every sample was measured and the winner is one of the valid ones.
        assert!(outcome.samples.iter().all(|s| s.ns > 0 && s.ns < u64::MAX));
        assert!(outcome
            .samples
            .iter()
            .any(|s| s.valid && s.ns == outcome.record.probe_ns));
        // The generic arm is probed for honesty but never valid.
        let generic: Vec<_> = outcome.samples.iter().filter(|s| s.generic_spmm).collect();
        assert_eq!(generic.len(), 1);
        assert!(!generic[0].valid);
        assert_ne!(outcome.record.precision.token(), "");
        // The decision was applied to the simulator.
        let resolved = sim.resolved_options();
        assert_eq!(resolved.precision, outcome.record.precision);
        assert_eq!(resolved.use_pattern, outcome.record.use_pattern);
    }

    #[test]
    fn tuning_keeps_the_requested_lanes_and_probes_only_the_precision_arms() {
        let circuit = generators::qft(10);
        let untuned = BqSimulator::compile(&circuit, opts()).unwrap();
        let mut sim = BqSimulator::compile(&circuit, opts()).unwrap();
        // A 1e-9 budget prunes f32 a priori: only f64 and the generic arm
        // run, each `PROBE_REPEATS` times.
        let outcome = tune_or_stored(&mut sim, Precision::F32, Some(1e-9), None).unwrap();
        let arms: Vec<_> = outcome
            .samples
            .iter()
            .map(|s| (s.exec.precision, s.generic_spmm))
            .collect();
        assert_eq!(arms, [(Precision::F64, false), (Precision::F64, true)]);
        assert_eq!(outcome.probes, 2 * PROBE_REPEATS as u64);
        assert_eq!(outcome.record.precision, Precision::F64);
        // Lanes follow `threads` and the work-size floor, not the tuner.
        assert_eq!(sim.resolved_options().threads, 2);
        assert_eq!(sim.state_shares(64), untuned.state_shares(64));
    }

    #[test]
    fn precision_floor_excludes_narrow_candidates() {
        let circuit = generators::ghz(4);
        let mut sim = BqSimulator::compile(&circuit, opts()).unwrap();
        let outcome = tune_or_stored(&mut sim, Precision::F64, None, None).unwrap();
        assert!(outcome
            .samples
            .iter()
            .filter(|s| !s.generic_spmm)
            .all(|s| s.exec.precision == Precision::F64));
        assert_eq!(outcome.record.precision, Precision::F64);
    }

    #[test]
    fn a_tight_integrity_budget_prunes_narrow_arms_a_priori() {
        let circuit = generators::ghz(4);
        let mut sim = BqSimulator::compile(&circuit, opts()).unwrap();
        // A budget below the f32 tolerance leaves only f64 arms.
        let budget = precision_tolerance(sim.gates().len(), Precision::F32) / 2.0;
        let outcome = tune_or_stored(&mut sim, Precision::F32, Some(budget), None).unwrap();
        assert!(outcome
            .samples
            .iter()
            .all(|s| s.exec.precision == Precision::F64));
        assert_eq!(outcome.record.precision, Precision::F64);
    }

    #[test]
    fn warm_artifact_with_tuning_skips_every_probe() {
        let dir = tmp_dir("warm-zero-probe");
        let store = bqsim_artifact::ArtifactStore::open(&dir).unwrap();
        let circuit = generators::vqe(4, 3);
        let (mut cold, _) = BqSimulator::compile_or_load(&circuit, opts(), &store).unwrap();
        let key = crate::artifact::artifact_key(&circuit, &cold.opts);
        let probed =
            tune_or_stored(&mut cold, Precision::F32, Some(1e-9), Some((&store, key))).unwrap();
        assert_eq!(probed.source, TuningSource::Probed);
        assert!(probed.probes > 0);

        // A second process: warm load carries the record, zero probes.
        let (mut warm, src) = BqSimulator::compile_or_load(&circuit, opts(), &store).unwrap();
        assert!(src.is_warm());
        assert_eq!(warm.stored_tuning(), Some(probed.record));
        let stored =
            tune_or_stored(&mut warm, Precision::F32, Some(1e-9), Some((&store, key))).unwrap();
        assert_eq!(stored.source, TuningSource::Stored);
        assert_eq!(stored.probes, 0, "warm tuned load must not probe");
        assert_eq!(stored.record, probed.record);
        assert_eq!(warm.resolved_options().precision, probed.record.precision);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_norm_preserving_wrong_output_fails_the_validity_gate() {
        // Swapping two amplitudes preserves the norm exactly — the bug
        // class (sign, conjugation, permutation) a drift-only gate
        // would wave through — but the elementwise reference
        // comparison sees O(1) error.
        let inputs = random_input_batch(3, 2, 5);
        let reference = inputs.clone();
        let mut got = inputs.clone();
        for state in &mut got {
            state.swap(0, 1);
        }
        let (drift, rel_error) = probe_errors(&inputs, &reference, &got);
        let tolerance = precision_tolerance(64, Precision::F32);
        assert!(drift <= tolerance, "permutation must be norm-preserving");
        assert!(rel_error > tolerance * REL_ERROR_HEADROOM);
        assert!(!candidate_valid(false, drift, rel_error, tolerance));
        // The clean output passes both checks.
        let (drift, rel_error) = probe_errors(&inputs, &reference, &reference);
        assert!(candidate_valid(false, drift, rel_error, tolerance));
    }

    #[test]
    fn a_stored_record_over_the_current_budget_is_reprobed() {
        let dir = tmp_dir("budget-reprobe");
        let store = bqsim_artifact::ArtifactStore::open(&dir).unwrap();
        let circuit = generators::ghz(3);
        let (mut sim, _) = BqSimulator::compile_or_load(&circuit, opts(), &store).unwrap();
        let key = crate::artifact::artifact_key(&circuit, &sim.opts);
        // Forge a stored f32 record (tuned under some looser budget)...
        sim.apply_tuning(&TuningRecord {
            precision: Precision::F32,
            use_pattern: true,
            probe_ns: 1,
        });
        store.publish(&sim.to_artifact(key)).unwrap();
        // ...then replay it under a budget `f32` cannot meet:
        // the record must be re-probed, not trusted, and only f64 arms
        // may run — otherwise every batch would quarantine and
        // double-execute at run time.
        let (mut warm, src) = BqSimulator::compile_or_load(&circuit, opts(), &store).unwrap();
        assert!(src.is_warm());
        let budget = precision_tolerance(warm.gates().len(), Precision::F32) / 2.0;
        let outcome = tune_or_stored(&mut warm, Precision::F32, Some(budget), None).unwrap();
        assert_eq!(outcome.source, TuningSource::Probed);
        assert!(outcome.probes > 0);
        assert_eq!(outcome.record.precision, Precision::F64);
        // A stored f64 record is exempt: f64 is the quarantine terminal.
        let (mut f64_warm, _) = BqSimulator::compile_or_load(&circuit, opts(), &store).unwrap();
        f64_warm.stored_tuning = Some(TuningRecord {
            precision: Precision::F64,
            use_pattern: true,
            probe_ns: 1,
        });
        let outcome = tune_or_stored(&mut f64_warm, Precision::F32, Some(budget), None).unwrap();
        assert_eq!(outcome.source, TuningSource::Stored);
        assert_eq!(outcome.probes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stored_record_below_the_floor_is_reprobed() {
        let dir = tmp_dir("floor-reprobe");
        let store = bqsim_artifact::ArtifactStore::open(&dir).unwrap();
        let circuit = generators::ghz(3);
        let (mut sim, _) = BqSimulator::compile_or_load(&circuit, opts(), &store).unwrap();
        let key = crate::artifact::artifact_key(&circuit, &sim.opts);
        // Forge a stored f32 record, then demand at least f64.
        sim.apply_tuning(&TuningRecord {
            precision: Precision::F32,
            use_pattern: true,
            probe_ns: 1,
        });
        store.publish(&sim.to_artifact(key)).unwrap();
        let (mut warm, src) = BqSimulator::compile_or_load(&circuit, opts(), &store).unwrap();
        assert!(src.is_warm());
        let outcome = tune_or_stored(&mut warm, Precision::F64, None, None).unwrap();
        assert_eq!(outcome.source, TuningSource::Probed);
        assert_eq!(outcome.record.precision, Precision::F64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ablation_compiles_pin_the_axes_without_probing() {
        let circuit = generators::ghz(3);
        let mut sim = BqSimulator::compile(
            &circuit,
            BqSimOptions {
                skip_ell: true,
                threads: 1,
                ..BqSimOptions::default()
            },
        )
        .unwrap();
        let outcome = tune_or_stored(&mut sim, Precision::F32, None, None).unwrap();
        assert_eq!(outcome.probes, 0);
        assert_eq!(outcome.record.precision, Precision::F64);
        assert_eq!(sim.resolved_options().layout, bqsim_ell::Layout::Aos);
    }

    #[test]
    fn f64_results_are_bit_identical_before_and_after_tuning() {
        let circuit = generators::qft(4);
        let batches = vec![random_input_batch(4, 6, 11)];
        let baseline = BqSimulator::compile(&circuit, opts())
            .unwrap()
            .run_batches(&batches)
            .unwrap()
            .outputs;
        let mut sim = BqSimulator::compile(&circuit, opts()).unwrap();
        // Floor f64 so the tuner may only choose f64 — whose AoS kernels
        // ignore the pattern toggle, so the bits cannot move.
        tune_or_stored(&mut sim, Precision::F64, None, None).unwrap();
        let tuned = sim.run_batches(&batches).unwrap().outputs;
        assert_eq!(baseline, tuned);
    }
}
