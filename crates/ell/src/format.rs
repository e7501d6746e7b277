//! The ELL matrix format and its reference spMV/spMM semantics.

use bqsim_num::Complex;
use core::fmt;

/// `s · x` for a real scalar `s`: two multiplies instead of the four
/// multiplies and two adds of a full complex product. Used by the
/// real-valued spMM arms (real-amplitudes ansätze, Ry/CX routing layers,
/// and Hadamard-heavy gates are entirely real). Agrees with
/// `Complex::new(s, 0.0) * x` in every component under `==`; the only
/// possible discrepancy is the sign of a zero (the full product adds a
/// `±0.0` cross term), which `f64` equality ignores.
#[inline]
fn rscale(s: f64, x: Complex) -> Complex {
    Complex::new(s * x.re, s * x.im)
}

/// A square sparse matrix in ELL format (paper Fig. 7a).
///
/// Every row stores exactly [`EllMatrix::max_nzr`] `(value, column)` slots;
/// rows with fewer non-zeros are padded with zero values (whose column
/// index is 0 and never contributes). The per-row slot count is what makes
/// the BQCS kernel's work per output amplitude uniform: `#MAC = maxNZR`
/// (§3.1.1).
///
/// Alongside the slots the matrix tracks `row_nnz`, the number of leading
/// slots of each row that have ever been set non-zero. The conversion
/// paths (CPU NZRV walk and Algorithm 1) both emit each row's non-zeros
/// into slots `0..nnz` in ascending column order, so for every matrix they
/// produce `row_nnz[r]` is exact and the spMV/spMM hot loops can iterate
/// just those slots with no per-slot zero test.
#[derive(Debug, Clone)]
pub struct EllMatrix {
    rows: usize,
    max_nzr: usize,
    values: Vec<Complex>,
    cols: Vec<u32>,
    row_nnz: Vec<u32>,
    /// Detected row-pattern period (see [`EllMatrix::detect_pattern`]):
    /// `Some(d)` when every row is the template row `r mod d` with columns
    /// shifted by the block base. Purely an execution accelerator — the
    /// slot content above remains the source of truth.
    pattern: Option<usize>,
}

impl PartialEq for EllMatrix {
    /// Equality is over the logical slot content only; `row_nnz` is a
    /// derived accelerator bound (and `pattern` a derived execution hint),
    /// so two matrices with identical slots are equal regardless of how
    /// those slots were written or annotated.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.max_nzr == other.max_nzr
            && self.values == other.values
            && self.cols == other.cols
    }
}

impl EllMatrix {
    /// Creates an all-padding (zero) matrix with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0 or not a power of two, or if the shape
    /// overflows `u32` column indices.
    pub fn zeros(rows: usize, max_nzr: usize) -> Self {
        assert!(rows.is_power_of_two(), "row count must be a power of two");
        assert!(u32::try_from(rows).is_ok(), "row count exceeds u32 range");
        EllMatrix {
            rows,
            max_nzr,
            values: vec![Complex::ZERO; rows * max_nzr],
            cols: vec![0; rows * max_nzr],
            row_nnz: vec![0; rows],
            pattern: None,
        }
    }

    /// Raw slot arrays `(values, cols, row_nnz)` for the in-crate planar
    /// kernels, which walk them directly instead of through the per-row
    /// accessors.
    #[inline]
    pub(crate) fn slots(&self) -> (&[Complex], &[u32], &[u32]) {
        (&self.values, &self.cols, &self.row_nnz)
    }

    /// The full raw slot arrays `(values, cols, row_nnz)` — the exact
    /// bytes a serializer must persist to reproduce this matrix
    /// bit-identically. `row_nnz` is included because it is *not*
    /// derivable from the slots alone (it is a monotone bound that may
    /// exceed the populated prefix after zero overwrites, and the hot
    /// loops iterate exactly this bound), and [`PartialEq`] deliberately
    /// ignores it.
    #[inline]
    pub fn raw_parts(&self) -> (&[Complex], &[u32], &[u32]) {
        (&self.values, &self.cols, &self.row_nnz)
    }

    /// Reassembles a matrix from raw slot arrays — the deserialization
    /// twin of [`EllMatrix::raw_parts`], validating every structural
    /// invariant the incremental builders ([`EllMatrix::zeros`] +
    /// [`EllMatrix::set_slot`]) enforce.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: non-power-
    /// of-two or over-`u32` row count, mis-sized arrays, an out-of-range
    /// column index or `row_nnz` bound, or a non-power-of-two / oversized
    /// pattern period.
    pub fn from_raw_parts(
        rows: usize,
        max_nzr: usize,
        values: Vec<Complex>,
        cols: Vec<u32>,
        row_nnz: Vec<u32>,
        pattern: Option<usize>,
    ) -> Result<Self, String> {
        if !rows.is_power_of_two() {
            return Err(format!("row count {rows} is not a power of two"));
        }
        if u32::try_from(rows).is_err() {
            return Err(format!("row count {rows} exceeds u32 range"));
        }
        let slots = rows
            .checked_mul(max_nzr)
            .ok_or_else(|| "rows x max_nzr overflows".to_string())?;
        if values.len() != slots || cols.len() != slots {
            return Err(format!(
                "slot arrays sized {}/{} do not match rows x max_nzr = {slots}",
                values.len(),
                cols.len()
            ));
        }
        if row_nnz.len() != rows {
            return Err(format!(
                "row_nnz has {} entries for {rows} rows",
                row_nnz.len()
            ));
        }
        if let Some(&c) = cols.iter().find(|&&c| c as usize >= rows) {
            return Err(format!("column index {c} out of range for {rows} rows"));
        }
        if let Some(&n) = row_nnz.iter().find(|&&n| n as usize > max_nzr) {
            return Err(format!("row_nnz bound {n} exceeds max_nzr {max_nzr}"));
        }
        if let Some(d) = pattern {
            if !d.is_power_of_two() || d > rows {
                return Err(format!("pattern period {d} invalid for {rows} rows"));
            }
        }
        Ok(EllMatrix {
            rows,
            max_nzr,
            values,
            cols,
            row_nnz,
            pattern,
        })
    }

    /// Number of rows (= columns).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of qubits spanned (`log2(rows)`).
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.rows.trailing_zeros() as usize
    }

    /// The padded slot count per row — the BQCS cost of this gate.
    #[inline]
    pub fn max_nzr(&self) -> usize {
        self.max_nzr
    }

    /// Value slots of `row`.
    #[inline]
    pub fn row_values(&self, row: usize) -> &[Complex] {
        &self.values[row * self.max_nzr..(row + 1) * self.max_nzr]
    }

    /// Column-index slots of `row`.
    #[inline]
    pub fn row_cols(&self, row: usize) -> &[u32] {
        &self.cols[row * self.max_nzr..(row + 1) * self.max_nzr]
    }

    /// Writes slot `slot` of `row`.
    ///
    /// Writing a non-zero value extends the row's `row_nnz` bound to cover
    /// the slot. The bound is monotone: overwriting a slot with zero does
    /// not shrink it (the zero simply contributes nothing), so `row_nnz`
    /// is always a safe upper bound on the populated prefix.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= max_nzr` or `col >= rows`.
    pub fn set_slot(&mut self, row: usize, slot: usize, col: usize, value: Complex) {
        assert!(slot < self.max_nzr, "slot out of range");
        assert!(col < self.rows, "column out of range");
        let at = row * self.max_nzr + slot;
        self.values[at] = value;
        self.cols[at] = col as u32;
        if value != Complex::ZERO {
            self.row_nnz[row] = self.row_nnz[row].max(slot as u32 + 1);
        }
    }

    /// Number of leading slots of `row` the hot loops must visit — the
    /// populated (possibly zero-containing, never under-counted) prefix.
    #[inline]
    pub fn row_nnz(&self, row: usize) -> usize {
        self.row_nnz[row] as usize
    }

    /// Total number of multiply-accumulate operations one application to a
    /// single state vector performs: `rows × maxNZR` (the paper's #MAC per
    /// input).
    #[inline]
    pub fn mac_per_input(&self) -> u64 {
        self.rows as u64 * self.max_nzr as u64
    }

    /// Device memory footprint in bytes (values + column indices), used by
    /// the GPU cost model.
    #[inline]
    pub fn byte_size(&self) -> u64 {
        (self.values.len() * 16 + self.cols.len() * 4) as u64
    }

    /// Count of genuinely non-zero stored values (excludes padding).
    pub fn stored_nonzeros(&self) -> usize {
        self.values.iter().filter(|v| **v != Complex::ZERO).count()
    }

    /// The detected row-pattern period, if any (see
    /// [`EllMatrix::detect_pattern`]).
    #[inline]
    pub fn pattern_period(&self) -> Option<usize> {
        self.pattern
    }

    /// Overrides the pattern annotation without re-detecting it.
    ///
    /// This exists for the analyzer's round-trip check and its tests,
    /// which need to probe how execution and decoding behave under a
    /// deliberately wrong annotation. Production code should only ever
    /// call [`EllMatrix::detect_pattern`], which validates the period
    /// against every slot before storing it.
    pub fn set_pattern_period_unchecked(&mut self, period: Option<usize>) {
        if let Some(d) = period {
            assert!(
                d.is_power_of_two() && d <= self.rows,
                "pattern period must be a power of two within the matrix"
            );
        }
        self.pattern = period;
    }

    /// Detects the smallest power-of-two period `d < rows` such that every
    /// row `r` is the **template row** `t = r mod d` with its populated
    /// columns shifted by the block base `r - t`, and records it for the
    /// planar kernels; returns the stored period.
    ///
    /// This is the ELL shadow of QMDD tensor structure: a gate acting on
    /// the low `k` qubits converts to `U = I ⊗ V` with `V` of dimension
    /// `d = 2^k`, whose ELL rows repeat block-diagonally with period `d`
    /// (identity above the gate ⇒ block `i` is `V` shifted to columns
    /// `i·d ..`). Detection is purely structural — values must be
    /// **bit-equal** to the template's (the DD's hash-consed weights make
    /// repeated blocks bit-equal in practice) and padding slots must match
    /// verbatim — so executing from the template block is bit-identical to
    /// executing the expanded rows, and [`EllMatrix::decode_pattern`]
    /// reproduces the matrix exactly.
    ///
    /// Runs in `O(rows × maxNZR)` per candidate period (at most
    /// `log2 rows` candidates), paid once at conversion time.
    pub fn detect_pattern(&mut self) -> Option<usize> {
        self.pattern = None;
        let mut d = 1;
        while d < self.rows {
            if self.is_pattern_period(d) {
                self.pattern = Some(d);
                break;
            }
            d *= 2;
        }
        self.pattern
    }

    /// Whether period `d` reproduces every slot of every row exactly (the
    /// validation behind [`EllMatrix::detect_pattern`]).
    fn is_pattern_period(&self, d: usize) -> bool {
        let bits = |v: Complex| (v.re.to_bits(), v.im.to_bits());
        for r in d..self.rows {
            let t = r & (d - 1);
            let base = (r - t) as u32;
            if self.row_nnz[r] != self.row_nnz[t] {
                return false;
            }
            let nnz = self.row_nnz[t] as usize;
            let (ra, ta) = (r * self.max_nzr, t * self.max_nzr);
            for k in 0..self.max_nzr {
                if bits(self.values[ra + k]) != bits(self.values[ta + k]) {
                    return false;
                }
                let expect = if k < nnz {
                    self.cols[ta + k] + base
                } else {
                    self.cols[ta + k]
                };
                if self.cols[ra + k] != expect {
                    return false;
                }
            }
        }
        true
    }

    /// Expands the pattern annotation back into a plain (unannotated)
    /// matrix built **only** from the template block: row `r` takes the
    /// values of row `r mod d`, with populated columns rebased by the
    /// block base and padding slots copied verbatim. With no annotation
    /// this is a pattern-free clone. The analyzer's round-trip check
    /// compares the result slot-for-slot against the stored matrix.
    pub fn decode_pattern(&self) -> EllMatrix {
        let mut out = self.clone();
        out.pattern = None;
        let Some(d) = self.pattern else {
            return out;
        };
        for r in 0..self.rows {
            let t = r & (d - 1);
            let base = (r - t) as u32;
            let nnz = self.row_nnz[t] as usize;
            let (ra, ta) = (r * self.max_nzr, t * self.max_nzr);
            for k in 0..self.max_nzr {
                out.values[ra + k] = self.values[ta + k];
                out.cols[ra + k] = if k < nnz {
                    self.cols[ta + k] + base
                } else {
                    self.cols[ta + k]
                };
            }
            out.row_nnz[r] = self.row_nnz[t];
        }
        out
    }

    /// Bytes of matrix data the spMM inner loops actually touch: the full
    /// `values`/`cols` arrays normally, or just the template block's when
    /// a pattern period is annotated — the working-set shrink pattern
    /// compression buys.
    pub fn working_set_bytes(&self) -> u64 {
        let rows = self.pattern.unwrap_or(self.rows);
        (rows * self.max_nzr) as u64 * (16 + 4)
    }

    /// Reference sparse matrix–vector product `y = A·x`, iterating only
    /// each row's populated `row_nnz` prefix (padding is skipped without a
    /// per-slot branch).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    #[allow(clippy::needless_range_loop)] // r is a matrix row index
    pub fn spmv(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.rows, "input length mismatch");
        let mut y = vec![Complex::ZERO; self.rows];
        for r in 0..self.rows {
            let mut acc = Complex::ZERO;
            let base = r * self.max_nzr;
            for k in 0..self.row_nnz[r] as usize {
                let v = self.values[base + k];
                acc += v * x[self.cols[base + k] as usize];
            }
            y[r] = acc;
        }
        y
    }

    /// Reference sparse matrix–matrix product over a **batch** of state
    /// vectors — the functional semantics of the paper's BQCS kernel
    /// (§3.3.1).
    ///
    /// `input` and `output` hold `batch` state vectors in amplitude-major
    /// layout: amplitude `r` of batch element `b` lives at
    /// `r * batch + b` (the coalescing-friendly layout of the GPU kernel).
    ///
    /// Dispatches to shape-specialised inner loops (see
    /// [`EllMatrix::spmm_rows`]): the fused pipeline produces almost
    /// exclusively cost-1 (diagonal/permutation) and cost-2 gates
    /// (§3.1, Table 1), so those shapes get dedicated single-pass kernels.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes don't equal `rows × batch`.
    pub fn spmm(&self, input: &[Complex], output: &mut [Complex], batch: usize) {
        assert_eq!(input.len(), self.rows * batch, "input size mismatch");
        assert_eq!(output.len(), self.rows * batch, "output size mismatch");
        self.spmm_rows(input, output, 0, batch);
    }

    /// [`EllMatrix::spmm`] restricted to the consecutive row window
    /// `first_row ..` covered by `out`: `out` receives the output rows and
    /// must be a multiple of `batch` long. This is the unit the parallel
    /// executor hands to each worker when row-partitioning one launch
    /// (mirroring the GPU's block-per-row decomposition); calling it once
    /// with the full output is exactly `spmm`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `rows × batch` long, `out` is not a
    /// multiple of `batch`, or the window overruns the matrix.
    pub fn spmm_rows(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        first_row: usize,
        batch: usize,
    ) {
        assert_eq!(input.len(), self.rows * batch, "input size mismatch");
        assert!(out.len().is_multiple_of(batch), "ragged output window");
        assert!(
            first_row + out.len() / batch <= self.rows,
            "row window out of range"
        );
        match self.max_nzr {
            1 => self.spmm_rows_gather_scale(input, out, first_row, batch),
            2 => self.spmm_rows_pair(input, out, first_row, batch),
            _ => self.spmm_rows_general(input, out, first_row, batch),
        }
    }

    /// Gather-scale kernel for `max_nzr == 1` gates (diagonals and
    /// permutations — the dominant post-fusion shape): each output row is
    /// one scaled gather, written in a single pass with no zero-fill and
    /// no accumulation. Unit values (permutation rows) degrade to a pure
    /// row copy, real values to the half-cost [`rscale`].
    fn spmm_rows_gather_scale(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        first_row: usize,
        batch: usize,
    ) {
        for (i, out_row) in out.chunks_exact_mut(batch).enumerate() {
            let r = first_row + i;
            if self.row_nnz[r] == 0 {
                out_row.fill(Complex::ZERO);
                continue;
            }
            let v = self.values[r];
            let src = &input[self.cols[r] as usize * batch..][..batch];
            if v == Complex::ONE {
                out_row.copy_from_slice(src);
            } else if v.im == 0.0 {
                for (o, x) in out_row.iter_mut().zip(src) {
                    *o = rscale(v.re, *x);
                }
            } else {
                for (o, x) in out_row.iter_mut().zip(src) {
                    *o = v * *x;
                }
            }
        }
    }

    /// Two-slot kernel for `max_nzr == 2` gates (the cost-2 products
    /// fusion deliberately produces): one pass computing
    /// `v0·x0 + v1·x1` per element, instead of zero-fill plus two
    /// read-modify-write sweeps. Rows whose two values are both real
    /// (Hadamard/Ry products) use the half-cost real combine.
    fn spmm_rows_pair(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        first_row: usize,
        batch: usize,
    ) {
        for (i, out_row) in out.chunks_exact_mut(batch).enumerate() {
            let r = first_row + i;
            let base = r * 2;
            match self.row_nnz[r] {
                0 => out_row.fill(Complex::ZERO),
                1 => {
                    let v = self.values[base];
                    let src = &input[self.cols[base] as usize * batch..][..batch];
                    for (o, x) in out_row.iter_mut().zip(src) {
                        *o = v * *x;
                    }
                }
                _ => {
                    let v0 = self.values[base];
                    let v1 = self.values[base + 1];
                    let x0 = &input[self.cols[base] as usize * batch..][..batch];
                    let x1 = &input[self.cols[base + 1] as usize * batch..][..batch];
                    if v0.im == 0.0 && v1.im == 0.0 {
                        let (s0, s1) = (v0.re, v1.re);
                        for ((o, a), b) in out_row.iter_mut().zip(x0).zip(x1) {
                            *o = Complex::new(s0 * a.re + s1 * b.re, s0 * a.im + s1 * b.im);
                        }
                    } else {
                        for ((o, a), b) in out_row.iter_mut().zip(x0).zip(x1) {
                            *o = v0 * *a + v1 * *b;
                        }
                    }
                }
            }
        }
    }

    /// General inner loop: iterates each row's `row_nnz` prefix (padding
    /// beyond the prefix is never visited), with **single-pass** kernels
    /// for up to four slots — every arity BQCS-aware fusion emits (cost-1
    /// runs, cost-2 gates, cost-2 pairs fused to cost-4). A single pass
    /// writes each output element once instead of zero-fill plus one
    /// read-modify-write sweep per slot, which roughly halves the output
    /// traffic at cost 4. Each arm additionally dispatches per row on the
    /// value pattern: all-real rows (Ry/CX routing layers, Hadamard
    /// products) take a [`rscale`]-style combine with half the multiplies,
    /// and unit single-value rows degrade to a row copy. Rows wider than
    /// four slots (only reachable via heavy unfused products) fall back to
    /// the accumulation sweep.
    fn spmm_rows_general(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        first_row: usize,
        batch: usize,
    ) {
        let row_src = |base: usize, k: usize| -> &[Complex] {
            &input[self.cols[base + k] as usize * batch..][..batch]
        };
        for (i, out_row) in out.chunks_exact_mut(batch).enumerate() {
            let r = first_row + i;
            let base = r * self.max_nzr;
            let v = &self.values[base..];
            match self.row_nnz[r] {
                0 => out_row.fill(Complex::ZERO),
                1 => {
                    let x0 = row_src(base, 0);
                    if v[0] == Complex::ONE {
                        out_row.copy_from_slice(x0);
                    } else if v[0].im == 0.0 {
                        let s = v[0].re;
                        for (o, a) in out_row.iter_mut().zip(x0) {
                            *o = rscale(s, *a);
                        }
                    } else {
                        for (o, a) in out_row.iter_mut().zip(x0) {
                            *o = v[0] * *a;
                        }
                    }
                }
                2 => {
                    let (x0, x1) = (row_src(base, 0), row_src(base, 1));
                    if v[0].im == 0.0 && v[1].im == 0.0 {
                        let (s0, s1) = (v[0].re, v[1].re);
                        for ((o, a), b) in out_row.iter_mut().zip(x0).zip(x1) {
                            *o = Complex::new(s0 * a.re + s1 * b.re, s0 * a.im + s1 * b.im);
                        }
                    } else {
                        for ((o, a), b) in out_row.iter_mut().zip(x0).zip(x1) {
                            *o = v[0] * *a + v[1] * *b;
                        }
                    }
                }
                3 => {
                    let (x0, x1, x2) = (row_src(base, 0), row_src(base, 1), row_src(base, 2));
                    if v[..3].iter().all(|v| v.im == 0.0) {
                        let (s0, s1, s2) = (v[0].re, v[1].re, v[2].re);
                        for (((o, a), b), c) in out_row.iter_mut().zip(x0).zip(x1).zip(x2) {
                            *o = Complex::new(
                                s0 * a.re + s1 * b.re + s2 * c.re,
                                s0 * a.im + s1 * b.im + s2 * c.im,
                            );
                        }
                    } else {
                        for (((o, a), b), c) in out_row.iter_mut().zip(x0).zip(x1).zip(x2) {
                            *o = v[0] * *a + v[1] * *b + v[2] * *c;
                        }
                    }
                }
                4 => {
                    let (x0, x1, x2, x3) = (
                        row_src(base, 0),
                        row_src(base, 1),
                        row_src(base, 2),
                        row_src(base, 3),
                    );
                    if v[..4].iter().all(|v| v.im == 0.0) {
                        let (s0, s1, s2, s3) = (v[0].re, v[1].re, v[2].re, v[3].re);
                        for ((((o, a), b), c), d) in
                            out_row.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3)
                        {
                            *o = Complex::new(
                                s0 * a.re + s1 * b.re + s2 * c.re + s3 * d.re,
                                s0 * a.im + s1 * b.im + s2 * c.im + s3 * d.im,
                            );
                        }
                    } else {
                        for ((((o, a), b), c), d) in
                            out_row.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3)
                        {
                            *o = v[0] * *a + v[1] * *b + v[2] * *c + v[3] * *d;
                        }
                    }
                }
                nnz => {
                    out_row.fill(Complex::ZERO);
                    for k in 0..nnz as usize {
                        let vk = self.values[base + k];
                        let src = row_src(base, k);
                        for (o, x) in out_row.iter_mut().zip(src) {
                            *o += vk * *x;
                        }
                    }
                }
            }
        }
    }

    /// The pre-optimisation spMM inner loop: every `max_nzr` slot visited
    /// with a per-slot `v == 0` branch and index-based accumulation. Kept
    /// as the ablation baseline the benches compare the fast paths against
    /// (`BqSimOptions::generic_spmm` routes the pipeline through it).
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes don't equal `rows × batch`.
    pub fn spmm_generic(&self, input: &[Complex], output: &mut [Complex], batch: usize) {
        assert_eq!(input.len(), self.rows * batch, "input size mismatch");
        assert_eq!(output.len(), self.rows * batch, "output size mismatch");
        for r in 0..self.rows {
            let base = r * self.max_nzr;
            let out_row = &mut output[r * batch..(r + 1) * batch];
            out_row.fill(Complex::ZERO);
            for k in 0..self.max_nzr {
                let v = self.values[base + k];
                if v == Complex::ZERO {
                    continue;
                }
                let src = self.cols[base + k] as usize * batch;
                for b in 0..batch {
                    out_row[b] += v * input[src + b];
                }
            }
        }
    }

    /// Exports to a dense matrix (tests only).
    pub fn to_dense(&self) -> bqsim_qcir::CMatrix {
        let mut m = bqsim_qcir::CMatrix::zeros(self.rows);
        for r in 0..self.rows {
            let base = r * self.max_nzr;
            for k in 0..self.max_nzr {
                let v = self.values[base + k];
                if v != Complex::ZERO {
                    let c = self.cols[base + k] as usize;
                    m.set(r, c, m.get(r, c) + v);
                }
            }
        }
        m
    }
}

impl fmt::Display for EllMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ELL {}x{} maxNZR={}", self.rows, self.rows, self.max_nzr)
    }
}

/// Packs a batch of state vectors into the amplitude-major layout consumed
/// by [`EllMatrix::spmm`].
///
/// # Panics
///
/// Panics if the vectors have differing lengths.
pub fn pack_batch(vectors: &[Vec<Complex>]) -> Vec<Complex> {
    let batch = vectors.len();
    assert!(batch > 0, "empty batch");
    let dim = vectors[0].len();
    assert!(
        vectors.iter().all(|v| v.len() == dim),
        "ragged batch vectors"
    );
    let mut out = vec![Complex::ZERO; dim * batch];
    for (b, v) in vectors.iter().enumerate() {
        for (r, &a) in v.iter().enumerate() {
            out[r * batch + b] = a;
        }
    }
    out
}

/// Unpacks the amplitude-major batch layout back into separate vectors.
pub fn unpack_batch(data: &[Complex], batch: usize) -> Vec<Vec<Complex>> {
    assert!(
        batch > 0 && data.len().is_multiple_of(batch),
        "bad batch layout"
    );
    let dim = data.len() / batch;
    (0..batch)
        .map(|b| (0..dim).map(|r| data[r * batch + b]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_qcir::GateKind;

    fn ell_of_dense(m: &bqsim_qcir::CMatrix) -> EllMatrix {
        let rows = m.dim();
        let nzr = m.max_nzr(1e-12);
        let mut e = EllMatrix::zeros(rows, nzr);
        for r in 0..rows {
            let mut slot = 0;
            for c in 0..rows {
                let v = m.get(r, c);
                if !v.is_zero(1e-12) {
                    e.set_slot(r, slot, c, v);
                    slot += 1;
                }
            }
        }
        e
    }

    #[test]
    fn spmv_matches_dense() {
        let m = GateKind::H.matrix().kron(&GateKind::Cx.matrix());
        let ell = ell_of_dense(&m);
        let x: Vec<Complex> = (0..8)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let want = m.mul_vec(&x);
        let got = ell.spmv(&x);
        assert!(bqsim_num::approx::vectors_eq(&got, &want, 1e-12));
    }

    #[test]
    fn spmm_matches_repeated_spmv() {
        let m = GateKind::Swap.matrix().kron(&GateKind::H.matrix());
        let ell = ell_of_dense(&m);
        let batch = 5;
        let vectors: Vec<Vec<Complex>> = (0..batch)
            .map(|b| {
                (0..8)
                    .map(|i| Complex::new((i + b) as f64, (b as f64) * 0.5))
                    .collect()
            })
            .collect();
        let input = pack_batch(&vectors);
        let mut output = vec![Complex::ZERO; input.len()];
        ell.spmm(&input, &mut output, batch);
        let unpacked = unpack_batch(&output, batch);
        for (b, v) in vectors.iter().enumerate() {
            let want = ell.spmv(v);
            assert!(bqsim_num::approx::vectors_eq(&unpacked[b], &want, 1e-12));
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let vectors = vec![
            vec![Complex::ONE, Complex::I],
            vec![Complex::ZERO, Complex::new(2.0, 3.0)],
        ];
        let packed = pack_batch(&vectors);
        assert_eq!(unpack_batch(&packed, 2), vectors);
    }

    #[test]
    fn mac_per_input_is_rows_times_nzr() {
        let ell = EllMatrix::zeros(16, 3);
        assert_eq!(ell.mac_per_input(), 48);
    }

    #[test]
    fn padding_is_inert() {
        // A permutation row padded up to nzr=2 must behave identically.
        let mut ell = EllMatrix::zeros(2, 2);
        ell.set_slot(0, 0, 1, Complex::ONE);
        ell.set_slot(1, 0, 0, Complex::ONE);
        let y = ell.spmv(&[Complex::new(3.0, 0.0), Complex::new(5.0, 0.0)]);
        assert_eq!(y[0], Complex::new(5.0, 0.0));
        assert_eq!(y[1], Complex::new(3.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "row count must be a power of two")]
    fn non_pow2_rows_panics() {
        let _ = EllMatrix::zeros(6, 1);
    }

    #[test]
    fn raw_parts_roundtrip_preserves_everything() {
        let mut ell = EllMatrix::zeros(4, 2);
        ell.set_slot(0, 0, 1, Complex::ONE);
        ell.set_slot(0, 1, 2, Complex::I);
        ell.set_slot(2, 0, 0, Complex::ONE);
        // A zero overwrite leaves row_nnz at its monotone bound — the
        // case slot-replay cannot reproduce, but raw_parts must.
        ell.set_slot(0, 1, 2, Complex::ZERO);
        let (v, c, n) = ell.raw_parts();
        let back = EllMatrix::from_raw_parts(
            4,
            2,
            v.to_vec(),
            c.to_vec(),
            n.to_vec(),
            ell.pattern_period(),
        )
        .unwrap();
        assert_eq!(back, ell);
        for r in 0..4 {
            assert_eq!(back.row_nnz(r), ell.row_nnz(r));
        }
        assert_eq!(back.pattern_period(), ell.pattern_period());
    }

    #[test]
    fn from_raw_parts_rejects_invalid_structure() {
        let bad_rows =
            EllMatrix::from_raw_parts(3, 1, vec![Complex::ZERO; 3], vec![0; 3], vec![0; 3], None);
        assert!(bad_rows.is_err());
        let bad_col =
            EllMatrix::from_raw_parts(2, 1, vec![Complex::ZERO; 2], vec![7, 0], vec![0; 2], None);
        assert!(bad_col.unwrap_err().contains("column index"));
        let bad_nnz =
            EllMatrix::from_raw_parts(2, 1, vec![Complex::ZERO; 2], vec![0; 2], vec![2, 0], None);
        assert!(bad_nnz.unwrap_err().contains("row_nnz"));
        let bad_pattern = EllMatrix::from_raw_parts(
            2,
            1,
            vec![Complex::ZERO; 2],
            vec![0; 2],
            vec![0; 2],
            Some(4),
        );
        assert!(bad_pattern.unwrap_err().contains("pattern"));
    }

    #[test]
    fn stored_nonzeros_excludes_padding() {
        let mut ell = EllMatrix::zeros(2, 2);
        ell.set_slot(0, 0, 0, Complex::ONE);
        assert_eq!(ell.stored_nonzeros(), 1);
    }

    #[test]
    fn row_nnz_tracks_populated_prefix() {
        let mut ell = EllMatrix::zeros(4, 3);
        assert_eq!(ell.row_nnz(0), 0);
        ell.set_slot(0, 0, 1, Complex::ONE);
        ell.set_slot(0, 1, 2, Complex::I);
        ell.set_slot(2, 0, 0, Complex::ONE);
        assert_eq!(ell.row_nnz(0), 2);
        assert_eq!(ell.row_nnz(1), 0);
        assert_eq!(ell.row_nnz(2), 1);
        // Overwriting with zero keeps the (safe) monotone bound.
        ell.set_slot(0, 1, 2, Complex::ZERO);
        assert_eq!(ell.row_nnz(0), 2);
    }

    fn batched(dim: usize, batch: usize, salt: u64) -> Vec<Complex> {
        (0..dim * batch)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                Complex::new(
                    ((x >> 33) as f64) / (1u64 << 31) as f64 - 1.0,
                    ((x & 0xffff_ffff) as f64) / (1u64 << 31) as f64 - 1.0,
                )
            })
            .collect()
    }

    /// Every specialised shape (1, 2, general) must agree with the
    /// pre-optimisation generic loop to the last ulp on converter-shaped
    /// matrices (non-zeros packed into the leading slots).
    #[test]
    fn fast_paths_match_generic_spmm() {
        for (nzr, fill) in [(1usize, 1usize), (2, 1), (2, 2), (3, 2), (4, 4)] {
            let rows = 16;
            let mut ell = EllMatrix::zeros(rows, nzr);
            for r in 0..rows {
                for s in 0..fill.min(nzr) {
                    // Deterministic, non-trivial values and scattered columns.
                    let c = (r * 7 + s * 3 + 1) % rows;
                    let v = Complex::new(0.25 + r as f64 * 0.125, s as f64 - 0.5);
                    ell.set_slot(r, s, c, v);
                }
            }
            for batch in [1usize, 3, 8] {
                let input = batched(rows, batch, nzr as u64 * 31 + batch as u64);
                let mut fast = vec![Complex::ZERO; rows * batch];
                let mut generic = vec![Complex::ONE; rows * batch];
                ell.spmm(&input, &mut fast, batch);
                ell.spmm_generic(&input, &mut generic, batch);
                assert_eq!(fast, generic, "nzr={nzr} fill={fill} batch={batch}");
            }
        }
    }

    /// `I ⊗ V` block structure must be detected at its true period, and
    /// decoding must reproduce the matrix exactly.
    #[test]
    fn detect_pattern_finds_kron_identity_blocks() {
        // I₂ ⊗ V for a dense 2×2 V: period 2, template rows {0, 1}.
        let (a, b) = (Complex::new(0.5, -0.25), Complex::new(0.0, 1.0));
        let (c, d) = (Complex::new(-1.5, 0.0), Complex::ONE);
        let mut ell = EllMatrix::zeros(4, 2);
        for blk in 0..2 {
            let base = blk * 2;
            ell.set_slot(base, 0, base, a);
            ell.set_slot(base, 1, base + 1, b);
            ell.set_slot(base + 1, 0, base, c);
            ell.set_slot(base + 1, 1, base + 1, d);
        }
        assert_eq!(ell.detect_pattern(), Some(2));
        assert_eq!(ell.pattern_period(), Some(2));
        let decoded = ell.decode_pattern();
        assert_eq!(decoded, ell);
        assert_eq!(decoded.pattern_period(), None);
        for r in 0..4 {
            assert_eq!(decoded.row_nnz(r), ell.row_nnz(r));
            assert_eq!(decoded.row_cols(r), ell.row_cols(r));
        }
        assert_eq!(ell.working_set_bytes(), 2 * 2 * 20);

        // A uniform diagonal repeats with period 1.
        let mut diag = EllMatrix::zeros(8, 1);
        for r in 0..8 {
            diag.set_slot(r, 0, r, Complex::new(0.0, 1.0));
        }
        assert_eq!(diag.detect_pattern(), Some(1));

        // Breaking one block kills the pattern entirely.
        ell.set_slot(3, 1, 3, Complex::new(0.9, 0.1));
        assert_eq!(ell.detect_pattern(), None);
        assert_eq!(ell.working_set_bytes(), 4 * 2 * 20);
    }

    /// Pattern execution must not change spMM results: the planar kernel
    /// with the annotation reads only the template block yet matches the
    /// annotation-free run bit-for-bit.
    #[test]
    fn pattern_execution_matches_unannotated() {
        let mut ell = EllMatrix::zeros(8, 2);
        let (a, b) = (Complex::new(0.6, 0.8), Complex::new(-0.8, 0.6));
        for blk in 0..4 {
            let base = blk * 2;
            ell.set_slot(base, 0, base, a);
            ell.set_slot(base, 1, base + 1, b);
            ell.set_slot(base + 1, 0, base, b);
            ell.set_slot(base + 1, 1, base + 1, a);
        }
        let batch = 5;
        let input = batched(8, batch, 7);
        let pin = crate::AmpPlanes::<f64>::from_aos(&input);
        let mut plain = crate::AmpPlanes::zeroed(8 * batch);
        ell.spmm_planar(&pin, &mut plain, batch);
        assert_eq!(ell.detect_pattern(), Some(2));
        let mut patterned = crate::AmpPlanes::zeroed(8 * batch);
        ell.spmm_planar(&pin, &mut patterned, batch);
        assert_eq!(plain, patterned);
    }

    /// Row-windowed execution composes to the full product: computing the
    /// output in several disjoint windows must equal one full launch.
    #[test]
    fn spmm_rows_windows_compose() {
        let rows = 8;
        let batch = 5;
        let m = GateKind::Swap.matrix().kron(&GateKind::H.matrix());
        let ell = ell_of_dense(&m);
        let input = batched(rows, batch, 99);
        let mut whole = vec![Complex::ZERO; rows * batch];
        ell.spmm(&input, &mut whole, batch);
        let mut windowed = vec![Complex::ZERO; rows * batch];
        for (w, chunk) in windowed.chunks_mut(3 * batch).enumerate() {
            ell.spmm_rows(&input, chunk, w * 3, batch);
        }
        assert_eq!(windowed, whole);
    }
}
