//! A minimal double-precision complex number.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + im·i`.
///
/// The type is deliberately small and `Copy`; quantum state vectors are
/// `Vec<Complex>` and gate matrices are dense or sparse collections of it.
///
/// # Examples
///
/// ```
/// use bqsim_num::Complex;
///
/// let i = Complex::I;
/// assert_eq!(i * i, -Complex::ONE);
/// assert_eq!(Complex::new(3.0, 4.0).abs(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a real-valued complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    ///
    /// ```
    /// use bqsim_num::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z - Complex::new(0.0, 2.0)).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{iθ}`, a unit phase. Common shorthand when building gate
    /// matrices such as `P(λ)` and `RZ(θ)`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// The squared magnitude `re² + im²`.
    ///
    /// For a state amplitude this is the measurement probability, so it is
    /// used pervasively in normalisation checks.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `√(re² + im²)`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// The argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The complex conjugate `re - im·i`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// The multiplicative inverse `1/z`.
    ///
    /// Returns a non-finite value when `self` is zero, mirroring `f64`
    /// division semantics; callers that may divide by zero should check
    /// [`Complex::is_zero`] first.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Whether both components are within `tol` of zero.
    #[inline]
    pub fn is_zero(self, tol: f64) -> bool {
        self.re.abs() <= tol && self.im.abs() <= tol
    }

    /// Whether the value is within `tol` of `1 + 0i`.
    #[inline]
    pub fn is_one(self, tol: f64) -> bool {
        (self.re - 1.0).abs() <= tol && self.im.abs() <= tol
    }

    /// Component-wise approximate equality with absolute tolerance `tol`.
    ///
    /// ```
    /// use bqsim_num::Complex;
    /// let a = Complex::new(1.0, 0.0);
    /// let b = Complex::new(1.0 + 1e-12, -1e-12);
    /// assert!(a.approx_eq(b, 1e-10));
    /// ```
    #[inline]
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// Whether both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// The principal square root.
    ///
    /// Used when decomposing gates (e.g. deriving `√X` for supremacy-style
    /// circuits).
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let theta = self.arg();
        Complex::from_polar(r.sqrt(), theta / 2.0)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl From<(f64, f64)> for Complex {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Complex::new(re, im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division by reciprocal
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, Add::add)
    }
}

impl Product for Complex {
    fn product<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ONE, Mul::mul)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im == 0.0 {
            write!(f, "{}", self.re)
        } else if self.im < 0.0 {
            write!(f, "{}{}i", self.re, self.im)
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(2.0, -3.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert!((z * z.recip() - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn division_matches_multiplication_by_inverse() {
        let a = Complex::new(1.5, 2.5);
        let b = Complex::new(-0.25, 4.0);
        let q = a / b;
        assert!((q * b - a).abs() < 1e-12);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::new(-1.0, 1.0);
        let back = Complex::from_polar(z.abs(), z.arg());
        assert!(z.approx_eq(back, 1e-12));
    }

    #[test]
    fn cis_is_unit_phase() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sqrt_squares_back() {
        let z = Complex::new(-3.0, 4.0);
        let s = z.sqrt();
        assert!((s * s - z).abs() < 1e-10);
    }

    #[test]
    fn conjugation_negates_phase() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.conj().arg() + 0.7).abs() < 1e-12);
    }

    #[test]
    fn sum_and_product_fold() {
        let xs = [Complex::ONE, Complex::I, Complex::new(2.0, 0.0)];
        let s: Complex = xs.iter().copied().sum();
        assert_eq!(s, Complex::new(3.0, 1.0));
        let p: Complex = xs.iter().copied().product();
        assert_eq!(p, Complex::new(0.0, 2.0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Complex::real(2.0).to_string(), "2");
        assert_eq!(Complex::new(1.0, 1.0).to_string(), "1+1i");
        assert_eq!(Complex::new(1.0, -1.0).to_string(), "1-1i");
    }

    #[test]
    fn zero_and_one_predicates() {
        assert!(Complex::new(1e-12, -1e-12).is_zero(1e-10));
        assert!(!Complex::new(1e-8, 0.0).is_zero(1e-10));
        assert!(Complex::new(1.0 + 1e-12, 0.0).is_one(1e-10));
    }
}
