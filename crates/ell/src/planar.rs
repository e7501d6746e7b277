//! Planar (SoA) amplitude planes and the width-tiled spMM microkernels.
//!
//! The AoS spMM paths in [`format`](crate::format) walk `Vec<Complex>`
//! buffers whose re/im components interleave in memory. That layout costs
//! the auto-vectoriser dearly: every SIMD lane has to shuffle re/im pairs
//! apart before it can multiply, and the real-valued arms (the dominant
//! post-fusion case) still drag the unused imaginary halves through the
//! cache. This module stores the batch in **planar** form — one plane for
//! the real parts and one for the imaginary parts, both in the same
//! amplitude-major order (`plane[r * batch + b]`) — and rewrites the
//! shape-specialised kernels as width-generic microkernels along the
//! batch dimension: per-plane split passes the auto-vectoriser turns into
//! [`TILE`]-wide unrolled SIMD loops (see the lane-primitive section).
//!
//! **One kernel family, two lane types.** [`AmpPlanes`] and
//! [`EllMatrix::spmm_rows_planar`] are generic over the plane element
//! type [`Lane`]: `f64` is the reference, `f32` halves the plane traffic
//! of the bandwidth-bound sweep. Gate values stay `f64`; every dispatch
//! decision (unit value, all-real row) is made on them, so both
//! instantiations take identical arms on identical matrices, and each arm
//! narrows its gate values once through [`Lane::narrow`] (the identity at
//! `f64`) before multiplying in the lane type.
//!
//! **Bit identity.** Every microkernel arm evaluates *exactly* the same
//! per-element expression tree as its AoS counterpart in
//! [`EllMatrix::spmm_rows`] (same operand order, same association, same
//! value-pattern dispatch), so the `f64` instantiation is bit-identical
//! to the AoS path — including signed zeros and NaN payloads. That is what
//! lets `BqSimOptions::layout` switch layouts without perturbing campaign
//! digests, and what the `spmm_layouts` property test pins down (for both
//! lane types, against a scalar reference evaluated in the lane type).
//!
//! **Pattern execution.** When the matrix carries a detected row pattern
//! (see [`EllMatrix::detect_pattern`]), the planar kernels read values and
//! columns from the period-`d` template block only and rebase columns by
//! the block offset, shrinking the column-index working set from
//! `rows × maxNZR` to `d × maxNZR` entries. Template values are bit-equal
//! to the expanded rows by construction, so dispatch and arithmetic are
//! unchanged.

use crate::format::EllMatrix;
use bqsim_num::narrow::to_f32;
use bqsim_num::Complex;
use core::fmt;
use core::ops::{Add, AddAssign, Mul, Sub};

/// Nominal element count of one microkernel tile along the batch
/// dimension: the width the auto-vectoriser unrolls each per-plane pass
/// to on the baseline x86-64 target (2-wide SSE2 vectors × 4-way unroll).
/// Per-element independence of every arm means tile width cannot change
/// results; test coverage grids use `TILE` to pin the ragged case where
/// `batch % TILE != 0` exercises the vectoriser's scalar epilogue.
pub const TILE: usize = 8;

/// Which amplitude memory layout the pipeline's state buffers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Interleaved array-of-structures `Vec<Complex>` — the PR 3 layout,
    /// kept as the ablation baseline.
    Aos,
    /// Planar structure-of-arrays [`AmpPlanes`] — separate re/im planes,
    /// batch-major (the default).
    #[default]
    Planar,
}

impl Layout {
    /// Stable lowercase token, used by the CLI, `BQSIM_LAYOUT`, and the
    /// journal fingerprint header.
    pub fn token(self) -> &'static str {
        match self {
            Layout::Aos => "aos",
            Layout::Planar => "planar",
        }
    }

    /// Parses a [`Layout::token`] back; `None` for anything else.
    pub fn parse(s: &str) -> Option<Layout> {
        match s {
            "aos" => Some(Layout::Aos),
            "planar" => Some(Layout::Planar),
            _ => None,
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// The element type of an amplitude plane: `f64` (the bit-identity
/// reference) or `f32` (narrow storage and arithmetic). Sealed — the
/// kernels' bit-identity argument covers exactly these two.
///
/// Widening back to `f64` is the `Into<f64>` supertrait (exact for both).
pub trait Lane:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + fmt::Debug
    + Send
    + Sync
    + Into<f64>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + 'static
{
    /// Narrows an `f64` component to the lane type: the identity at
    /// `f64`, one round-to-nearest-even (via [`bqsim_num::narrow`], the
    /// workspace's only sanctioned narrowing point) at `f32`.
    fn narrow(v: f64) -> Self;
}

impl Lane for f64 {
    #[inline(always)]
    fn narrow(v: f64) -> f64 {
        v
    }
}

impl Lane for f32 {
    #[inline(always)]
    fn narrow(v: f64) -> f32 {
        to_f32(v)
    }
}

/// A batch of state vectors in planar (SoA) layout: one plane of `T` per
/// component, both in the amplitude-major order of
/// [`pack_batch`](crate::pack_batch) (`plane[r * batch + b]`).
///
/// Copies *into* `f32` planes narrow (each amplitude rounds exactly once
/// on entry — the staging path's intended precision-loss point); copies
/// *out* widen exactly. At `f64` both directions are pure component
/// moves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AmpPlanes<T> {
    re: Vec<T>,
    im: Vec<T>,
}

impl<T: Lane> AmpPlanes<T> {
    /// All-zero planes holding `len` amplitudes.
    pub fn zeroed(len: usize) -> Self {
        AmpPlanes::zeroed_with_capacity(len, len)
    }

    /// All-zero planes of `len` amplitudes reserving room for `cap`
    /// (buffer pools allocate whole size classes up front so a later
    /// checkout of any length in the class never reallocates).
    pub fn zeroed_with_capacity(len: usize, cap: usize) -> Self {
        let mut b = AmpPlanes {
            re: Vec::with_capacity(cap.max(len)),
            im: Vec::with_capacity(cap.max(len)),
        };
        b.reset_zeroed(len);
        b
    }

    /// Resizes to `len` amplitudes, all zero, reusing existing plane
    /// capacity — no heap traffic when `len <= capacity()`.
    pub fn reset_zeroed(&mut self, len: usize) {
        self.re.clear();
        self.re.resize(len, T::default());
        self.im.clear();
        self.im.resize(len, T::default());
    }

    /// Amplitudes the planes can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.re.capacity().min(self.im.capacity())
    }

    /// Number of amplitudes.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Whether the planes hold no amplitudes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Both planes, `(re, im)`.
    #[inline]
    pub fn planes(&self) -> (&[T], &[T]) {
        (&self.re, &self.im)
    }

    /// Both planes mutably, `(re, im)`.
    #[inline]
    pub fn planes_mut(&mut self) -> (&mut [T], &mut [T]) {
        (&mut self.re, &mut self.im)
    }

    /// Sets every amplitude to `v` (used for zeroing and NaN poisoning).
    pub fn fill(&mut self, v: Complex) {
        self.re.fill(T::narrow(v.re));
        self.im.fill(T::narrow(v.im));
    }

    /// De-interleaves `src` into the leading `src.len()` amplitudes —
    /// the planar equivalent of `dst[..len].copy_from_slice(src)`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() > self.len()`.
    pub fn copy_from_aos(&mut self, src: &[Complex]) {
        assert!(src.len() <= self.len(), "planar prefix copy overrun");
        // One pass over the interleaved source: each element is read once
        // and scattered to both planes (H2D runs this per batch, so it is
        // memory-bound traffic worth not doubling).
        for ((dr, di), s) in self.re.iter_mut().zip(self.im.iter_mut()).zip(src) {
            *dr = T::narrow(s.re);
            *di = T::narrow(s.im);
        }
    }

    /// Re-interleaves the leading `dst.len()` amplitudes into `dst` —
    /// the planar equivalent of `dst.copy_from_slice(&src[..len])`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() > self.len()`.
    pub fn copy_to_aos(&self, dst: &mut [Complex]) {
        assert!(dst.len() <= self.len(), "planar prefix copy overrun");
        for (d, (&re, &im)) in dst.iter_mut().zip(self.re.iter().zip(&self.im)) {
            *d = Complex::new(re.into(), im.into());
        }
    }

    /// Copies the leading `min(src.len(), self.len())` amplitudes from
    /// planes of the same lane type — two plane `memcpy`s, the
    /// layout-matched H2D/D2H fast path.
    pub fn copy_prefix_from(&mut self, src: &AmpPlanes<T>) {
        let len = src.len().min(self.len());
        self.re[..len].copy_from_slice(&src.re[..len]);
        self.im[..len].copy_from_slice(&src.im[..len]);
    }

    /// [`copy_prefix_from`](Self::copy_prefix_from) across lane types:
    /// `f64 → f32` narrows once per amplitude, `f32 → f64` widens exactly.
    pub fn convert_prefix_from<U: Lane>(&mut self, src: &AmpPlanes<U>) {
        let len = src.len().min(self.len());
        for (d, &s) in self.re[..len].iter_mut().zip(&src.re[..len]) {
            *d = T::narrow(s.into());
        }
        for (d, &s) in self.im[..len].iter_mut().zip(&src.im[..len]) {
            *d = T::narrow(s.into());
        }
    }

    /// Builds planes from an interleaved slice.
    pub fn from_aos(src: &[Complex]) -> Self {
        let mut b = AmpPlanes::zeroed(src.len());
        b.copy_from_aos(src);
        b
    }

    /// Interleaves back into a fresh `Vec<Complex>` (tests and D2H).
    pub fn to_aos(&self) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.len()];
        self.copy_to_aos(&mut out);
        out
    }
}

// --- Split-pass lane primitives --------------------------------------------
//
// Each primitive processes one output row (length `batch`) as **two
// independent per-plane passes**: one flat loop computing the real plane,
// one computing the imaginary plane. A dual-plane loop (one iteration
// writing both planes) defeats the auto-vectoriser on this workload — the
// two write streams force it into scatter-shaped addressing — while each
// single-plane pass is a textbook map over equal-length slices that it
// turns into [`TILE`]-wide unrolled SIMD (twice as many elements per
// vector register at `f32`). The per-element expressions are copied
// verbatim from the AoS arms (see `format.rs`) and the real/imaginary
// components of a complex expression never feed each other within one
// arm, so splitting the passes cannot change a single output bit; the doc
// comment of each primitive names the AoS expression it mirrors. Gate
// values arrive as `f64` and are narrowed once, before the loops.

/// `out_row.fill(Complex::ZERO)`.
#[inline(always)]
fn lane_zero<T: Lane>(or: &mut [T], oi: &mut [T]) {
    or.fill(T::default());
    oi.fill(T::default());
}

/// `out_row.copy_from_slice(src)` — unit-value row copy.
#[inline(always)]
fn lane_copy<T: Lane>(or: &mut [T], oi: &mut [T], xr: &[T], xi: &[T]) {
    or.copy_from_slice(xr);
    oi.copy_from_slice(xi);
}

/// `*o = rscale(s, *x)` — plane-independent real scale.
#[inline(always)]
fn lane_rscale<T: Lane>(s: f64, or: &mut [T], oi: &mut [T], xr: &[T], xi: &[T]) {
    let s = T::narrow(s);
    for (o, &a) in or.iter_mut().zip(xr) {
        *o = s * a;
    }
    for (o, &b) in oi.iter_mut().zip(xi) {
        *o = s * b;
    }
}

/// `*o = v * *x` — full complex scale:
/// `(v.re·a − v.im·b, v.re·b + v.im·a)` for `x = (a, b)`.
#[inline(always)]
fn lane_cscale<T: Lane>(v: Complex, or: &mut [T], oi: &mut [T], xr: &[T], xi: &[T]) {
    let (vr, vi) = (T::narrow(v.re), T::narrow(v.im));
    for (o, (&a, &b)) in or.iter_mut().zip(xr.iter().zip(xi)) {
        *o = vr * a - vi * b;
    }
    for (o, (&a, &b)) in oi.iter_mut().zip(xr.iter().zip(xi)) {
        *o = vr * b + vi * a;
    }
}

/// The single-slot row: unit copy, real scale, or full complex scale,
/// chosen on the `f64` gate value.
#[inline(always)]
fn lane_scale<T: Lane>(v: Complex, or: &mut [T], oi: &mut [T], xr: &[T], xi: &[T]) {
    if v == Complex::ONE {
        lane_copy(or, oi, xr, xi);
    } else if v.im == 0.0 {
        lane_rscale(v.re, or, oi, xr, xi);
    } else {
        lane_cscale(v, or, oi, xr, xi);
    }
}

/// `*o += vk * *x` — the accumulation sweep step of the wide fallback.
#[inline(always)]
fn lane_axpy<T: Lane>(v: Complex, or: &mut [T], oi: &mut [T], xr: &[T], xi: &[T]) {
    let (vr, vi) = (T::narrow(v.re), T::narrow(v.im));
    for (o, (&a, &b)) in or.iter_mut().zip(xr.iter().zip(xi)) {
        *o += vr * a - vi * b;
    }
    for (o, (&a, &b)) in oi.iter_mut().zip(xr.iter().zip(xi)) {
        *o += vr * b + vi * a;
    }
}

/// One `(re, im)` input-row plane pair.
type Planes<'a, T> = (&'a [T], &'a [T]);

/// `*o = Complex::new(s0·a.re + s1·b.re, s0·a.im + s1·b.im)` — the
/// all-real pair combine. Each plane pass touches only its own component
/// planes.
#[inline(always)]
fn lane_pair_r<T: Lane>(
    s0: f64,
    s1: f64,
    or: &mut [T],
    oi: &mut [T],
    (ar, ai): Planes<'_, T>,
    (br, bi): Planes<'_, T>,
) {
    let (s0, s1) = (T::narrow(s0), T::narrow(s1));
    for (o, (&a, &b)) in or.iter_mut().zip(ar.iter().zip(br)) {
        *o = s0 * a + s1 * b;
    }
    for (o, (&a, &b)) in oi.iter_mut().zip(ai.iter().zip(bi)) {
        *o = s0 * a + s1 * b;
    }
}

/// `*o = v0 * *a + v1 * *b` — the complex pair combine.
#[inline(always)]
fn lane_pair_c<T: Lane>(
    v0: Complex,
    v1: Complex,
    or: &mut [T],
    oi: &mut [T],
    (ar, ai): Planes<'_, T>,
    (br, bi): Planes<'_, T>,
) {
    let n = or.len();
    let (ar, ai, br, bi) = (&ar[..n], &ai[..n], &br[..n], &bi[..n]);
    let (v0r, v0i) = (T::narrow(v0.re), T::narrow(v0.im));
    let (v1r, v1i) = (T::narrow(v1.re), T::narrow(v1.im));
    for (t, o) in or.iter_mut().enumerate() {
        *o = (v0r * ar[t] - v0i * ai[t]) + (v1r * br[t] - v1i * bi[t]);
    }
    for (t, o) in oi[..n].iter_mut().enumerate() {
        *o = (v0r * ai[t] + v0i * ar[t]) + (v1r * bi[t] + v1i * br[t]);
    }
}

/// `Complex::new(s0·a.re + s1·b.re + …, …)` — the all-real 3/4-slot
/// single-pass combine, generic over slot count. The inner sum starts
/// from the first term and folds left, matching the left-associated AoS
/// expression bit-for-bit (the AoS arm already computes the re and im
/// sums independently, so per-plane passes are the same arithmetic).
#[inline(always)]
fn lane_multi_r<T: Lane, const K: usize>(
    s: [f64; K],
    or: &mut [T],
    oi: &mut [T],
    x: [Planes<'_, T>; K],
) {
    let n = or.len();
    let s = s.map(T::narrow);
    for (t, o) in or.iter_mut().enumerate() {
        let mut re = s[0] * x[0].0[t];
        for k in 1..K {
            re += s[k] * x[k].0[t];
        }
        *o = re;
    }
    for (t, o) in oi[..n].iter_mut().enumerate() {
        let mut im = s[0] * x[0].1[t];
        for k in 1..K {
            im += s[k] * x[k].1[t];
        }
        *o = im;
    }
}

/// `*o = v0 * *a + v1 * *b + …` — the complex 3/4-slot single-pass
/// combine, generic over slot count; same left fold of full products as
/// the AoS arm.
#[inline(always)]
fn lane_multi_c<T: Lane, const K: usize>(
    v: [Complex; K],
    or: &mut [T],
    oi: &mut [T],
    x: [Planes<'_, T>; K],
) {
    let n = or.len();
    let vr = v.map(|z| T::narrow(z.re));
    let vi = v.map(|z| T::narrow(z.im));
    for (t, o) in or.iter_mut().enumerate() {
        let (a, b) = (x[0].0[t], x[0].1[t]);
        let mut re = vr[0] * a - vi[0] * b;
        for k in 1..K {
            let (a, b) = (x[k].0[t], x[k].1[t]);
            re += vr[k] * a - vi[k] * b;
        }
        *o = re;
    }
    for (t, o) in oi[..n].iter_mut().enumerate() {
        let (a, b) = (x[0].0[t], x[0].1[t]);
        let mut im = vr[0] * b + vi[0] * a;
        for k in 1..K {
            let (a, b) = (x[k].0[t], x[k].1[t]);
            im += vr[k] * b + vi[k] * a;
        }
        *o = im;
    }
}

impl EllMatrix {
    /// Planar counterpart of [`EllMatrix::spmm`]: applies the gate to a
    /// batch held in [`AmpPlanes`], writing a second pair. At `f64` the
    /// outputs are bit-identical to the AoS path on the interleaved view
    /// of the same data.
    ///
    /// # Panics
    ///
    /// Panics if either buffer does not hold `rows × batch` amplitudes.
    pub fn spmm_planar<T: Lane>(
        &self,
        input: &AmpPlanes<T>,
        output: &mut AmpPlanes<T>,
        batch: usize,
    ) {
        assert_eq!(input.len(), self.num_rows() * batch, "input size mismatch");
        assert_eq!(
            output.len(),
            self.num_rows() * batch,
            "output size mismatch"
        );
        let (ire, iim) = input.planes();
        let (ore, oim) = output.planes_mut();
        self.spmm_rows_planar(ire, iim, ore, oim, 0, batch, true);
    }

    /// Planar counterpart of [`EllMatrix::spmm_rows`]: computes the
    /// consecutive output-row window starting at `first_row` covered by
    /// `out_re`/`out_im` (which must be equally long and a multiple of
    /// `batch`). This is the unit the parallel executor hands each worker
    /// when row-partitioning a planar launch.
    ///
    /// With `use_pattern` and a detected pattern period `d` (see
    /// [`EllMatrix::detect_pattern`]), each row reads its slots from the
    /// template block `0..d` and rebases columns by the block offset —
    /// one decoded pattern per block, a working set of `d` rows instead
    /// of `rows`. `use_pattern = false` addresses every row's own slots
    /// even when an annotation exists. The annotation is template-exact
    /// by construction, so both settings are bit-identical — the toggle
    /// exists for the auto-tuner to *measure* the addressing variants on
    /// a circuit's real shapes, not to change semantics.
    ///
    /// # Panics
    ///
    /// Panics on any size mismatch or window overrun.
    #[allow(clippy::too_many_arguments)] // one slice per plane plus the toggle
    pub fn spmm_rows_planar<T: Lane>(
        &self,
        in_re: &[T],
        in_im: &[T],
        out_re: &mut [T],
        out_im: &mut [T],
        first_row: usize,
        batch: usize,
        use_pattern: bool,
    ) {
        let rows = self.num_rows();
        let max_nzr = self.max_nzr();
        assert_eq!(in_re.len(), rows * batch, "input re plane size mismatch");
        assert_eq!(in_im.len(), rows * batch, "input im plane size mismatch");
        assert_eq!(out_re.len(), out_im.len(), "output plane size mismatch");
        assert!(out_re.len().is_multiple_of(batch), "ragged output window");
        assert!(
            first_row + out_re.len() / batch <= rows,
            "row window out of range"
        );
        let (values, cols, row_nnz) = self.slots();
        let period = if use_pattern {
            self.pattern_period()
        } else {
            None
        };
        let src = |col: u32| -> Planes<'_, T> {
            let at = col as usize * batch;
            (&in_re[at..at + batch], &in_im[at..at + batch])
        };
        for (i, (or, oi)) in out_re
            .chunks_exact_mut(batch)
            .zip(out_im.chunks_exact_mut(batch))
            .enumerate()
        {
            let r = first_row + i;
            // Pattern execution: row r's slots are the template row
            // t = r mod d with columns rebased by the block offset.
            let (t, offset) = match period {
                Some(d) => (r & (d - 1), (r - (r & (d - 1))) as u32),
                None => (r, 0),
            };
            let base = t * max_nzr;
            let nnz = row_nnz[t] as usize;
            let v = &values[base..base + max_nzr];
            let col = |k: usize| cols[base + k] + offset;
            // Mirror the AoS shape dispatch exactly: a single slot is the
            // gather-scale arm — except under max_nzr 2, whose pair kernel
            // deliberately keeps its nnz==1 case a full complex scale —
            // then the pair arms, the general single-pass arms, and the
            // wide fallback.
            match (max_nzr, nnz) {
                (_, 0) => lane_zero(or, oi),
                (2, 1) => {
                    let (xr, xi) = src(col(0));
                    lane_cscale(v[0], or, oi, xr, xi);
                }
                (_, 1) => {
                    let (xr, xi) = src(col(0));
                    lane_scale(v[0], or, oi, xr, xi);
                }
                (_, 2) => {
                    let (a, b) = (src(col(0)), src(col(1)));
                    if v[0].im == 0.0 && v[1].im == 0.0 {
                        lane_pair_r(v[0].re, v[1].re, or, oi, a, b);
                    } else {
                        lane_pair_c(v[0], v[1], or, oi, a, b);
                    }
                }
                (_, 3) => {
                    let x = [src(col(0)), src(col(1)), src(col(2))];
                    if v[..3].iter().all(|v| v.im == 0.0) {
                        lane_multi_r([v[0].re, v[1].re, v[2].re], or, oi, x);
                    } else {
                        lane_multi_c([v[0], v[1], v[2]], or, oi, x);
                    }
                }
                (_, 4) => {
                    let x = [src(col(0)), src(col(1)), src(col(2)), src(col(3))];
                    if v[..4].iter().all(|v| v.im == 0.0) {
                        lane_multi_r([v[0].re, v[1].re, v[2].re, v[3].re], or, oi, x);
                    } else {
                        lane_multi_c([v[0], v[1], v[2], v[3]], or, oi, x);
                    }
                }
                (_, nnz) => {
                    lane_zero(or, oi);
                    for (k, &vk) in v[..nnz].iter().enumerate() {
                        let (xr, xi) = src(col(k));
                        lane_axpy(vk, or, oi, xr, xi);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(nzr: usize, fill: usize, rows: usize) -> EllMatrix {
        let mut ell = EllMatrix::zeros(rows, nzr);
        for r in 0..rows {
            for s in 0..fill.min(nzr) {
                let c = (r * 5 + s * 3 + 2) % rows;
                let v = match (r + s) % 3 {
                    0 => Complex::ONE,
                    1 => Complex::new(0.25 + s as f64, 0.0),
                    _ => Complex::new(-0.5, 0.75 + r as f64 * 0.125),
                };
                ell.set_slot(r, s, c, v);
            }
        }
        ell
    }

    #[test]
    fn layout_tokens_roundtrip() {
        for l in [Layout::Aos, Layout::Planar] {
            assert_eq!(Layout::parse(l.token()), Some(l));
            assert_eq!(format!("{l}"), l.token());
        }
        assert_eq!(Layout::parse("soa"), None);
        assert_eq!(Layout::default(), Layout::Planar);
    }

    #[test]
    fn amp_buffer_roundtrips_aos() {
        let src: Vec<Complex> = (0..7)
            .map(|i| Complex::new(i as f64, -0.5 * i as f64))
            .collect();
        let buf = AmpPlanes::<f64>::from_aos(&src);
        assert_eq!(buf.len(), 7);
        assert_eq!(buf.to_aos(), src);

        // Prefix copies mirror `copy_from_slice` on a shorter slice.
        let mut wide = AmpPlanes::<f64>::zeroed(10);
        wide.copy_from_aos(&src);
        let mut back = vec![Complex::ZERO; 7];
        wide.copy_to_aos(&mut back);
        assert_eq!(back, src);

        let mut filled = AmpPlanes::<f64>::zeroed(3);
        filled.fill(Complex::new(2.0, -1.0));
        assert_eq!(filled.to_aos(), vec![Complex::new(2.0, -1.0); 3]);
    }

    /// Staging into `f32` planes rounds each amplitude exactly once, and
    /// the cross-width plane copies agree with the AoS round trip in both
    /// directions (narrowing in, exact widening out, truncating to the
    /// shorter side).
    #[test]
    fn amp_planes_f32_roundtrip_and_narrow_once() {
        let src: Vec<Complex> = (0..7)
            .map(|i| Complex::new(0.1 * i as f64, -0.3 * i as f64))
            .collect();
        let buf = AmpPlanes::<f32>::from_aos(&src);
        assert_eq!(buf.len(), 7);
        for (orig, back) in src.iter().zip(buf.to_aos()) {
            assert_eq!(back.re, f64::from(to_f32(orig.re)));
            assert_eq!(back.im, f64::from(to_f32(orig.im)));
        }
        let wide = AmpPlanes::<f64>::from_aos(&src);
        let mut narrow = AmpPlanes::<f32>::zeroed(7);
        narrow.convert_prefix_from(&wide);
        assert_eq!(narrow, buf);
        let mut back = AmpPlanes::<f64>::zeroed(9);
        back.convert_prefix_from(&narrow);
        assert_eq!(back.to_aos()[..7], buf.to_aos()[..]);
        assert_eq!(back.to_aos()[7..], [Complex::ZERO; 2]);
        let mut short = AmpPlanes::<f32>::zeroed(4);
        short.copy_prefix_from(&narrow);
        assert_eq!(short.to_aos()[..], buf.to_aos()[..4]);
    }

    /// Planar spMM must agree bit-for-bit with the AoS fast paths on a
    /// value mix covering every dispatch arm (the tests crate's
    /// `spmm_layouts` property test covers this exhaustively; this is the
    /// in-crate smoke version).
    #[test]
    fn planar_matches_aos_smoke() {
        for (nzr, fill) in [(1usize, 1usize), (2, 1), (2, 2), (3, 3), (4, 4), (5, 5)] {
            let rows = 16;
            let ell = test_matrix(nzr, fill, rows);
            // 17 exercises the ragged tail (17 % TILE != 0).
            for batch in [1usize, 8, 17] {
                let input: Vec<Complex> = (0..rows * batch)
                    .map(|i| Complex::new(0.1 * i as f64 - 3.0, 7.0 - 0.2 * i as f64))
                    .collect();
                let mut aos = vec![Complex::ZERO; rows * batch];
                ell.spmm(&input, &mut aos, batch);
                let pin = AmpPlanes::<f64>::from_aos(&input);
                let mut pout = AmpPlanes::zeroed(rows * batch);
                ell.spmm_planar(&pin, &mut pout, batch);
                let planar = pout.to_aos();
                for (a, p) in aos.iter().zip(&planar) {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (p.re.to_bits(), p.im.to_bits()),
                        "nzr={nzr} fill={fill} batch={batch}"
                    );
                }
            }
        }
    }

    /// Every dispatch arm of the `f32` instantiation stays within a small
    /// multiple of f32 epsilon of the `f64` one, and pattern on/off is
    /// bit-identical.
    #[test]
    fn f32_tracks_the_f64_reference() {
        for (nzr, fill) in [(1usize, 1usize), (2, 1), (2, 2), (3, 3), (4, 4), (5, 5)] {
            let rows = 16;
            let ell = test_matrix(nzr, fill, rows);
            for batch in [1usize, 8, 17] {
                let input: Vec<Complex> = (0..rows * batch)
                    .map(|i| Complex::new(0.01 * i as f64 - 0.3, 0.7 - 0.02 * i as f64))
                    .collect();
                let pin = AmpPlanes::<f64>::from_aos(&input);
                let mut pout = AmpPlanes::zeroed(rows * batch);
                ell.spmm_planar(&pin, &mut pout, batch);

                let fin = AmpPlanes::<f32>::from_aos(&input);
                let mut fout = AmpPlanes::zeroed(rows * batch);
                ell.spmm_planar(&fin, &mut fout, batch);
                let mut fout_nopat = AmpPlanes::zeroed(rows * batch);
                {
                    let (ire, iim) = fin.planes();
                    let (nre, nim) = fout_nopat.planes_mut();
                    ell.spmm_rows_planar(ire, iim, nre, nim, 0, batch, false);
                }
                assert_eq!(fout, fout_nopat, "pattern toggle must be bit-identical");
                // Inputs are O(1) and rows touch ≤ 5 slots, so a few
                // ulps of f32 per term bounds the divergence.
                let tol = 16.0 * f64::from(f32::EPSILON) * (nzr as f64 + 1.0);
                for (want, got) in pout.to_aos().iter().zip(&fout.to_aos()) {
                    assert!(
                        (want.re - got.re).abs() <= tol && (want.im - got.im).abs() <= tol,
                        "nzr={nzr} fill={fill} batch={batch}: {want:?} vs {got:?}"
                    );
                }
            }
        }
    }
}
