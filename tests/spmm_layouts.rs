//! Layout bit-identity properties (the PR 5 data-plane contract): the
//! ablation baseline `spmm_generic`, every shape-specialised AoS fast
//! path, and the planar (SoA) microkernels must produce **bit-identical**
//! outputs — `f64::to_bits` equality, no tolerance — over random ELL
//! matrices covering empty rows, unit/real/complex values, block-periodic
//! patterns, and ragged batches where `batch % TILE != 0`.
//!
//! The planar kernel is one generic function over the plane element type
//! ([`Lane`]: `f64`, `f32`); both instantiations are additionally held,
//! bit for bit and with pattern execution on and off, to a scalar
//! reference evaluated per element in the lane type, and the campaign
//! digests each instantiation produced when the kernels were unified are
//! pinned so neither can drift.

use bqsim_campaign::{campaign_digest, run_campaign, CampaignOptions, IntegrityBudget};
use bqsim_core::{random_input_batch, BqSimOptions, Precision};
use bqsim_ell::{AmpPlanes, EllMatrix, Lane, TILE};
use bqsim_num::Complex;
use bqsim_qcir::generators::Family;
use proptest::prelude::*;

/// Splitmix-style deterministic stream so every proptest case is
/// reproducible from its seed alone.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A non-zero value in (0, 1]; never exactly 0.0 so value-class dispatch
/// (`v.im == 0.0`, `v == ONE`) is decided by the class picker below, not
/// by sampling accidents.
fn unit_interval(bits: u64) -> f64 {
    ((bits >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Draws one slot value from the classes the fast paths dispatch on:
/// exact unit (row copy), real (half-cost combine), or full complex.
fn slot_value(class: u64, next: &mut impl FnMut() -> u64) -> Complex {
    match class % 3 {
        0 => Complex::ONE,
        1 => Complex::new(unit_interval(next()) * 2.0 - 1.5, 0.0),
        _ => Complex::new(
            unit_interval(next()) * 2.0 - 1.5,
            unit_interval(next()) * 2.0 - 1.5,
        ),
    }
}

/// Builds a random converter-shaped ELL matrix: non-zeros packed into the
/// leading slots in ascending column order, a mix of empty, unit, real,
/// and complex rows.
fn random_ell(rows: usize, max_nzr: usize, seed: u64) -> EllMatrix {
    let mut next = stream(seed);
    let mut ell = EllMatrix::zeros(rows, max_nzr);
    // Columns must be distinct within a row, so a row can never hold more
    // non-zeros than the matrix has columns.
    let widest = max_nzr.min(rows);
    for r in 0..rows {
        // Bias towards full rows but keep genuinely empty ones in play.
        let nnz = match next() % 8 {
            0 => 0,
            1 => 1 + next() as usize % widest.max(1),
            _ => widest,
        };
        if nnz == 0 {
            continue;
        }
        // Distinct ascending columns per row, as both converters emit.
        let mut cols: Vec<usize> = Vec::with_capacity(nnz);
        while cols.len() < nnz {
            let c = next() as usize % rows;
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols.sort_unstable();
        let class = next();
        for (s, c) in cols.into_iter().enumerate() {
            ell.set_slot(r, s, c, slot_value(class, &mut next));
        }
    }
    ell
}

/// A batch of random amplitudes, never exactly ±0.0.
fn random_batch(rows: usize, batch: usize, seed: u64) -> Vec<Complex> {
    let mut next = stream(seed);
    (0..rows * batch)
        .map(|_| {
            Complex::new(
                unit_interval(next()) * 2.0 - 1.0 + f64::EPSILON,
                unit_interval(next()) * 2.0 - 1.0 + f64::EPSILON,
            )
        })
        .collect()
}

fn assert_bits_eq(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{what}: amplitude {i} differs: {x} vs {y}"
        );
    }
}

/// What the planar kernel owes one output element, written out per
/// element in the lane type `T` with no slices, planes or pattern
/// addressing: gate values narrow once, arm choice is made on the `f64`
/// values, and each arm's association is the AoS expression's (the arms
/// differ observably — `0 + x` loses a negative zero that `x` keeps, and
/// at `f32` every re-association rounds differently).
fn scalar_reference<T: Lane>(ell: &EllMatrix, input: &AmpPlanes<T>, batch: usize) -> Vec<(T, T)> {
    let (in_re, in_im) = input.planes();
    let zero = T::default();
    let mut out = Vec::with_capacity(ell.num_rows() * batch);
    for r in 0..ell.num_rows() {
        let nnz = ell.row_nnz(r);
        let v = &ell.row_values(r)[..nnz];
        let cols = ell.row_cols(r);
        let all_real = v.iter().all(|z| z.im == 0.0);
        for b in 0..batch {
            let x = |k: usize| {
                let at = cols[k] as usize * batch + b;
                (in_re[at], in_im[at])
            };
            // One slot's full complex product with input element k.
            let term = |k: usize| {
                let (vr, vi) = (T::narrow(v[k].re), T::narrow(v[k].im));
                let (a, b) = x(k);
                (vr * a - vi * b, vr * b + vi * a)
            };
            let rterm = |k: usize| {
                let s = T::narrow(v[k].re);
                let (a, b) = x(k);
                (s * a, s * b)
            };
            out.push(match nnz {
                0 => (zero, zero),
                1 if ell.max_nzr() == 2 => term(0),
                1 if v[0] == Complex::ONE => x(0),
                1 if all_real => rterm(0),
                1 => term(0),
                2..=4 => {
                    let pick = |k: usize| if all_real { rterm(k) } else { term(k) };
                    let (mut re, mut im) = pick(0);
                    for k in 1..nnz {
                        let (tr, ti) = pick(k);
                        re += tr;
                        im += ti;
                    }
                    (re, im)
                }
                _ => {
                    let (mut re, mut im) = (zero, zero);
                    for k in 0..nnz {
                        let (tr, ti) = term(k);
                        re += tr;
                        im += ti;
                    }
                    (re, im)
                }
            });
        }
    }
    out
}

/// Runs the generic planar kernel at lane type `T` — annotated with
/// whatever pattern the detector finds, pattern execution on and off, in
/// one launch and in ragged row windows — against [`scalar_reference`].
fn check_lane<T: Lane>(ell: &EllMatrix, input: &[Complex], batch: usize, what: &str) {
    let rows = ell.num_rows();
    let planes = AmpPlanes::<T>::from_aos(input);
    let want = scalar_reference(ell, &planes, batch);
    let mut annotated = ell.clone();
    annotated.detect_pattern();
    let (ire, iim) = planes.planes();
    for use_pattern in [true, false] {
        for window_rows in [rows, 3] {
            let mut out = AmpPlanes::<T>::zeroed(rows * batch);
            out.fill(Complex::new(f64::NAN, f64::NAN));
            let (ore, oim) = out.planes_mut();
            for (w, (cre, cim)) in ore
                .chunks_mut(window_rows * batch)
                .zip(oim.chunks_mut(window_rows * batch))
                .enumerate()
            {
                annotated.spmm_rows_planar(ire, iim, cre, cim, w * window_rows, batch, use_pattern);
            }
            let (ore, oim) = out.planes();
            for (i, (&(wr, wi), (&gr, &gi))) in want.iter().zip(ore.iter().zip(oim)).enumerate() {
                let bits = |x: T| Into::<f64>::into(x).to_bits();
                assert_eq!(
                    (bits(wr), bits(wi)),
                    (bits(gr), bits(gi)),
                    "{what}: element {i} (pattern={use_pattern}, window={window_rows}): \
                     want ({wr:?}, {wi:?}), got ({gr:?}, {gi:?})"
                );
            }
        }
    }
}

/// Runs all three implementations on the same input and checks bitwise
/// agreement, then both lane types of the planar kernel against the
/// scalar reference. Outputs start from poisoned (non-zero) buffers so a
/// kernel that skips writes is caught.
fn check_tri_path(ell: &EllMatrix, batch: usize, seed: u64) {
    let rows = ell.num_rows();
    let input = random_batch(rows, batch, seed);
    let poison = Complex::new(f64::NAN, f64::NAN);

    let mut fast = vec![poison; rows * batch];
    ell.spmm(&input, &mut fast, batch);

    let mut generic = vec![poison; rows * batch];
    ell.spmm_generic(&input, &mut generic, batch);

    let planar_in = AmpPlanes::<f64>::from_aos(&input);
    let mut planar_out = AmpPlanes::zeroed(rows * batch);
    planar_out.fill(poison);
    ell.spmm_planar(&planar_in, &mut planar_out, batch);
    let planar = planar_out.to_aos();

    let ctx = format!(
        "rows={rows} max_nzr={} batch={batch} pattern={:?}",
        ell.max_nzr(),
        ell.pattern_period()
    );
    assert_bits_eq(&fast, &generic, &format!("AoS fast vs generic ({ctx})"));
    assert_bits_eq(&fast, &planar, &format!("AoS fast vs planar ({ctx})"));
    check_lane::<f64>(ell, &input, batch, &format!("f64 lanes vs scalar ({ctx})"));
    check_lane::<f32>(ell, &input, batch, &format!("f32 lanes vs scalar ({ctx})"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tri-path bit-identity over random matrices and batch widths,
    /// including every ragged remainder class modulo the lane tile.
    #[test]
    fn layouts_are_bit_identical_on_random_matrices(
        seed in 0u64..10_000,
        qubits in 2usize..6,
        max_nzr in 1usize..6,
    ) {
        let rows = 1usize << qubits;
        let ell = random_ell(rows, max_nzr, seed);
        // Whole tiles, a sub-tile batch, and ragged last tiles: TILE is a
        // compile-time constant, so pin the remainder classes explicitly.
        for batch in [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1] {
            prop_assert!(batch == TILE || batch % TILE != 0);
            check_tri_path(&ell, batch, seed ^ batch as u64);
        }
    }

    /// Pattern-annotated execution (template rows + rebased columns) is
    /// bit-identical to unannotated execution of the same matrix, and
    /// decoding the annotation reproduces the matrix exactly.
    #[test]
    fn pattern_execution_and_roundtrip_are_exact(
        seed in 0u64..10_000,
        template_qubits in 0usize..3,
        block_qubits in 1usize..4,
    ) {
        let d = 1usize << template_qubits;
        let rows = d << block_qubits;
        // Replicate a random d-row template across rows/d blocks with
        // block-rebased columns — the I ⊗ V structure QMDD tensors emit.
        let template = random_ell(d.next_power_of_two().max(2), 3, seed);
        let mut ell = EllMatrix::zeros(rows, 3);
        for r in 0..rows {
            let t = r % d;
            let base = r - t;
            for s in 0..template.row_nnz(t) {
                let v = template.row_values(t)[s];
                if v != Complex::ZERO {
                    let c = template.row_cols(t)[s] as usize % d;
                    ell.set_slot(r, s, base + c, v);
                }
            }
        }
        let mut annotated = ell.clone();
        // The true period divides d; the detector must find one at least
        // as small (never coarser, never miss).
        let found = annotated.detect_pattern();
        prop_assert!(found.is_some() && found.unwrap() <= d,
            "detector missed period {d} (found {found:?})");

        // Round-trip: decoding the compressed form is the exact matrix.
        let decoded = annotated.decode_pattern();
        prop_assert_eq!(&decoded, &ell);
        for r in 0..rows {
            prop_assert_eq!(decoded.row_nnz(r), ell.row_nnz(r));
            prop_assert_eq!(decoded.row_cols(r), ell.row_cols(r));
        }

        // Execution from the template block matches slot-exact execution.
        let batch = TILE + 3;
        let input = random_batch(rows, batch, seed ^ 0xdead);
        let planar_in = AmpPlanes::<f64>::from_aos(&input);
        let mut plain_out = AmpPlanes::zeroed(rows * batch);
        let mut pattern_out = AmpPlanes::zeroed(rows * batch);
        ell.spmm_planar(&planar_in, &mut plain_out, batch);
        annotated.spmm_planar(&planar_in, &mut pattern_out, batch);
        assert_bits_eq(
            &plain_out.to_aos(),
            &pattern_out.to_aos(),
            "pattern vs plain planar execution",
        );
        // Both lane types, from the template block and slot-exact.
        check_lane::<f64>(&ell, &input, batch, "f64 lanes on a periodic matrix");
        check_lane::<f32>(&ell, &input, batch, "f32 lanes on a periodic matrix");
        // The compressed working set never exceeds the uncompressed one.
        prop_assert!(annotated.working_set_bytes() <= ell.working_set_bytes());
    }
}

/// Directed shape coverage: every `(max_nzr, nnz)` dispatch arm —
/// gather-scale (one slot) with unit/real/complex values, the pair kernel
/// (`max_nzr == 2`) including its nnz==1 full-scale quirk, each
/// single-pass general arity (3, 4), and the wide accumulation fallback
/// (≥ 5), under-filled rows included — against generic, planar, and the
/// per-lane scalar reference, at a ragged batch.
#[test]
fn every_dispatch_arm_is_bit_identical() {
    for (max_nzr, fill) in (1usize..=6).flat_map(|m| (0..=m).map(move |f| (m, f))) {
        for class_seed in 0..3u64 {
            let rows = 16;
            let mut ell = EllMatrix::zeros(rows, max_nzr);
            let mut next = stream(class_seed * 977 + fill as u64);
            for r in 0..rows {
                for s in 0..fill {
                    let c = (r * 5 + s * 3 + 1) % rows;
                    ell.set_slot(r, s, c, slot_value(class_seed, &mut next));
                }
            }
            for batch in [1, TILE, TILE + 5] {
                check_tri_path(&ell, batch, class_seed ^ 0x5eed);
            }
        }
    }
}

/// Empty matrices (all rows zero) zero-fill identically in every path.
#[test]
fn all_empty_rows_zero_fill_in_every_layout() {
    for max_nzr in [1usize, 2, 4] {
        let ell = EllMatrix::zeros(8, max_nzr);
        check_tri_path(&ell, TILE + 1, 7);
    }
}

/// The campaign digests `bqsim run --family F --qubits N --batches B
/// --batch-size 32 --seed 42 --integrity-budget 1e-3 --precision P`
/// printed when the f64 / f32 / mixed kernel triplicate became one generic
/// kernel (and `scripts/ci.sh`'s qft-6 matrix digest at the default
/// budget), reproduced through the same `run_campaign` call the CLI
/// makes. A change to either instantiation's arithmetic moves one of them.
/// The `f64` rows now run the AoS kernels, which the tri-path properties
/// above hold bit-identical to the planar `f64` instantiation.
#[test]
fn pinned_campaign_digests_hold_at_both_lane_types() {
    for (family, qubits, batches, precision, budget, want) in [
        (
            Family::Qft,
            10,
            3,
            Precision::F64,
            1e-3,
            0x938c_9f46_68a7_0cea_u64,
        ),
        (
            Family::Qft,
            10,
            3,
            Precision::F32,
            1e-3,
            0x6308_aecf_a064_254b,
        ),
        (
            Family::Supremacy,
            12,
            2,
            Precision::F32,
            1e-3,
            0x0f35_2fa5_289a_5bd2,
        ),
        (
            Family::Qft,
            6,
            4,
            Precision::F64,
            1e-9,
            0xb8c7_fd75_b42a_30bd,
        ),
        (
            Family::Qft,
            6,
            4,
            Precision::F32,
            1e-4,
            0x5dbc_0b67_9280_f440,
        ),
    ] {
        let circuit = family.try_build(qubits, 42).unwrap();
        let inputs: Vec<_> = (0..batches)
            .map(|b| random_input_batch(qubits, 32, 42 ^ b as u64))
            .collect();
        let opts = BqSimOptions {
            precision,
            ..BqSimOptions::default()
        };
        let copts = CampaignOptions {
            integrity: IntegrityBudget {
                max_norm_drift: budget,
            },
            ..CampaignOptions::default()
        };
        let run = run_campaign(&circuit, opts, &inputs, &copts).unwrap();
        assert!(run.is_complete() && run.precision_retries == 0);
        assert_eq!(
            campaign_digest(&run.checksums),
            want,
            "{}-{qubits} x{batches} at {precision}",
            family.token()
        );
    }
}
