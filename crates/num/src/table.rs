//! Canonical complex-value table.

use crate::{Complex, FxHashMap, DEFAULT_TOLERANCE};
use std::fmt;

/// Index of a canonical complex value inside a [`ComplexTable`].
///
/// Two `CIdx` values compare equal **iff** the complex values they denote are
/// equal within the owning table's tolerance — this is the property decision
/// diagrams rely on to hash nodes by edge weights.
///
/// The two most common weights have fixed, table-independent indices:
/// [`CIdx::ZERO`] and [`CIdx::ONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CIdx(u32);

impl CIdx {
    /// The canonical index of `0 + 0i` in every table.
    pub const ZERO: CIdx = CIdx(0);
    /// The canonical index of `1 + 0i` in every table.
    pub const ONE: CIdx = CIdx(1);

    /// The raw index value (stable for the lifetime of the owning table).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Whether this is the canonical zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == CIdx::ZERO
    }

    /// Whether this is the canonical one.
    #[inline]
    pub fn is_one(self) -> bool {
        self == CIdx::ONE
    }
}

impl fmt::Display for CIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Interning table mapping complex values to canonical indices.
///
/// Values within [`ComplexTable::tolerance`] of an already-stored value are
/// mapped to the existing index, so `CIdx` equality is tolerance-aware value
/// equality. Lookup is O(1): values are bucketed by quantised `(re, im)`
/// coordinates, and a lookup probes the four buckets a point near a bucket
/// boundary could fall into.
///
/// # Examples
///
/// ```
/// use bqsim_num::{Complex, ComplexTable};
///
/// let mut t = ComplexTable::new();
/// let a = t.intern(Complex::new(0.5, 0.0));
/// let b = t.intern(Complex::new(0.5 + 1e-13, -1e-13));
/// assert_eq!(a, b);
/// assert_eq!(t.value(a), Complex::new(0.5, 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct ComplexTable {
    values: Vec<Complex>,
    // Keys are quantised coordinates the table computes itself, so the
    // fast deterministic hasher applies (see `crate::hash`).
    buckets: FxHashMap<(i64, i64), Vec<u32>>,
    tolerance: f64,
    /// Quantisation step; must be > 2·tolerance so a value can only collide
    /// with entries in its own or directly adjacent buckets.
    step: f64,
}

impl ComplexTable {
    /// Creates a table with [`DEFAULT_TOLERANCE`].
    pub fn new() -> Self {
        Self::with_tolerance(DEFAULT_TOLERANCE)
    }

    /// Creates a table with a custom tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not finite and positive.
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "tolerance must be a positive finite number"
        );
        let mut table = ComplexTable {
            values: Vec::with_capacity(64),
            buckets: FxHashMap::with_capacity_and_hasher(64, Default::default()),
            tolerance,
            step: tolerance * 4.0,
        };
        // Reserve the fixed indices. Order matters: ZERO then ONE.
        let zero = table.push(Complex::ZERO);
        let one = table.push(Complex::ONE);
        debug_assert_eq!(zero, CIdx::ZERO);
        debug_assert_eq!(one, CIdx::ONE);
        table
    }

    /// The absolute tolerance under which two values are identified.
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Number of distinct canonical values currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table stores no values. Always `false`: the canonical
    /// zero and one are present from construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the canonical value denoted by `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not belong to this table.
    #[inline]
    pub fn value(&self, idx: CIdx) -> Complex {
        self.values[idx.0 as usize]
    }

    /// Interns `z`, returning the canonical index of a value within
    /// tolerance of it (inserting `z` if no such value exists).
    ///
    /// Non-finite inputs are rejected by debug assertion; in release builds
    /// they intern as distinct values and will poison downstream arithmetic,
    /// exactly as raw `f64` would.
    pub fn intern(&mut self, z: Complex) -> CIdx {
        debug_assert!(z.is_finite(), "interning non-finite complex value {z:?}");
        if let Some(found) = self.find(z) {
            return found;
        }
        self.push(z)
    }

    /// Looks up a value without inserting.
    pub fn find(&self, z: Complex) -> Option<CIdx> {
        // Fast path for the two ubiquitous constants.
        if z.is_zero(self.tolerance) {
            return Some(CIdx::ZERO);
        }
        if z.is_one(self.tolerance) {
            return Some(CIdx::ONE);
        }
        let (bx, by) = self.bucket_of(z);
        // A match within `tolerance` can only live in the home bucket or one
        // of the three neighbours toward the nearest bucket boundary.
        let dx = self.neighbour_offset(z.re, bx);
        let dy = self.neighbour_offset(z.im, by);
        for &cx in &[bx, bx + dx] {
            for &cy in &[by, by + dy] {
                if let Some(ids) = self.buckets.get(&(cx, cy)) {
                    for &id in ids {
                        if self.values[id as usize].approx_eq(z, self.tolerance) {
                            return Some(CIdx(id));
                        }
                    }
                }
            }
        }
        None
    }

    /// Interns the product of two canonical values.
    #[inline]
    pub fn mul(&mut self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() || b.is_zero() {
            return CIdx::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let z = self.value(a) * self.value(b);
        self.intern(z)
    }

    /// Interns the sum of two canonical values.
    #[inline]
    pub fn add(&mut self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let z = self.value(a) + self.value(b);
        self.intern(z)
    }

    /// Interns the quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the canonical zero.
    #[inline]
    pub fn div(&mut self, a: CIdx, b: CIdx) -> CIdx {
        assert!(!b.is_zero(), "division by canonical zero");
        if a.is_zero() || b.is_one() {
            return a;
        }
        let z = self.value(a) / self.value(b);
        self.intern(z)
    }

    /// Interns the negation of `a`.
    #[inline]
    pub fn neg(&mut self, a: CIdx) -> CIdx {
        if a.is_zero() {
            return a;
        }
        let z = -self.value(a);
        self.intern(z)
    }

    /// Interns the conjugate of `a`.
    #[inline]
    pub fn conj(&mut self, a: CIdx) -> CIdx {
        let z = self.value(a).conj();
        self.intern(z)
    }

    fn push(&mut self, z: Complex) -> CIdx {
        let id = u32::try_from(self.values.len()).expect("complex table overflow");
        self.values.push(z);
        self.buckets.entry(self.bucket_of(z)).or_default().push(id);
        CIdx(id)
    }

    #[inline]
    fn bucket_of(&self, z: Complex) -> (i64, i64) {
        (self.quantise(z.re), self.quantise(z.im))
    }

    #[inline]
    fn quantise(&self, x: f64) -> i64 {
        (x / self.step).floor() as i64
    }

    /// Which neighbouring bucket (±1) along one axis could hold a value
    /// within tolerance of `x`, given `x` lives in bucket `b`.
    #[inline]
    fn neighbour_offset(&self, x: f64, b: i64) -> i64 {
        let frac = x / self.step - b as f64;
        if frac * self.step <= self.tolerance {
            -1
        } else {
            1
        }
    }
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_are_fixed() {
        let mut t = ComplexTable::new();
        assert_eq!(t.intern(Complex::ZERO), CIdx::ZERO);
        assert_eq!(t.intern(Complex::ONE), CIdx::ONE);
        assert_eq!(t.value(CIdx::ZERO), Complex::ZERO);
        assert_eq!(t.value(CIdx::ONE), Complex::ONE);
    }

    #[test]
    fn values_within_tolerance_merge() {
        let mut t = ComplexTable::new();
        let a = t.intern(Complex::new(0.25, -0.75));
        let b = t.intern(Complex::new(0.25 + 5e-11, -0.75 - 5e-11));
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn distinct_values_do_not_merge() {
        let mut t = ComplexTable::new();
        let a = t.intern(Complex::new(0.5, 0.0));
        let b = t.intern(Complex::new(0.5 + 1e-6, 0.0));
        assert_ne!(a, b);
    }

    #[test]
    fn merge_across_bucket_boundary() {
        let mut t = ComplexTable::new();
        // Construct two values straddling a quantisation boundary.
        let step = t.tolerance() * 4.0;
        let x = step * 1000.0;
        let a = t.intern(Complex::new(x - 2e-11, 0.0));
        let b = t.intern(Complex::new(x + 2e-11, 0.0));
        assert_eq!(a, b, "values straddling a bucket edge must merge");
    }

    #[test]
    fn arithmetic_respects_canonicalisation() {
        let mut t = ComplexTable::new();
        let h = t.intern(Complex::real(std::f64::consts::FRAC_1_SQRT_2));
        let prod = t.mul(h, h);
        let half = t.intern(Complex::real(0.5));
        assert_eq!(prod, half);
    }

    #[test]
    fn mul_and_add_shortcuts() {
        let mut t = ComplexTable::new();
        let z = t.intern(Complex::new(0.3, 0.4));
        assert_eq!(t.mul(CIdx::ZERO, z), CIdx::ZERO);
        assert_eq!(t.mul(CIdx::ONE, z), z);
        assert_eq!(t.add(CIdx::ZERO, z), z);
        assert_eq!(t.add(z, CIdx::ZERO), z);
        assert_eq!(t.div(z, CIdx::ONE), z);
    }

    #[test]
    fn neg_of_zero_is_zero() {
        let mut t = ComplexTable::new();
        assert_eq!(t.neg(CIdx::ZERO), CIdx::ZERO);
        let m1 = t.neg(CIdx::ONE);
        assert_eq!(t.value(m1), Complex::new(-1.0, 0.0));
        assert_eq!(t.neg(m1), CIdx::ONE);
    }

    #[test]
    #[should_panic(expected = "division by canonical zero")]
    fn div_by_zero_panics() {
        let mut t = ComplexTable::new();
        t.div(CIdx::ONE, CIdx::ZERO);
    }

    #[test]
    fn conj_roundtrip() {
        let mut t = ComplexTable::new();
        let z = t.intern(Complex::new(0.6, 0.8));
        let zc = t.conj(z);
        assert_eq!(t.conj(zc), z);
    }

    #[test]
    fn find_does_not_insert() {
        let t = ComplexTable::new();
        assert!(t.find(Complex::new(0.123, 0.456)).is_none());
        assert_eq!(t.find(Complex::ONE), Some(CIdx::ONE));
    }
}
