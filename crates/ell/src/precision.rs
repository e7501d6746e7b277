//! The amplitude-precision axis and its depth-derived error estimator.
//!
//! The planar spMM sweep is memory-bandwidth bound, so storing amplitude
//! planes in `f32` halves the dominant traffic. Two modes, one per
//! [`Lane`](crate::Lane) type of the planar kernel family:
//!
//! * [`Precision::F64`] — the reference: `f64` planes, bit-identical
//!   across thread counts and bit-identical between the AoS kernels the
//!   simulator runs it on and the planar ones (the campaign-digest anchor).
//! * [`Precision::F32`] — `f32` planes *and* `f32` arithmetic, with
//!   round-off compounding per gate.
//!
//! Gate matrices and integrity checks always stay in `f64`; only
//! amplitude storage and kernel arithmetic narrow.
//! [`precision_tolerance`] estimates the norm drift a clean run may
//! exhibit, derived from circuit depth — the analyzer's tolerance audit
//! compares it against the configured integrity budget.

use core::fmt;

/// Amplitude storage/arithmetic precision of the planar execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double-precision planes and arithmetic (the default and the
    /// bit-identity reference).
    #[default]
    F64,
    /// Single-precision planes and arithmetic.
    F32,
}

impl Precision {
    /// Stable lowercase token, used by the CLI, `BQSIM_PRECISION`, the
    /// journal fingerprint header, and submission specs.
    pub fn token(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// Parses a [`Precision::token`] back; `None` for anything else
    /// (including `auto`, which is a tuner request, not a precision).
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            _ => None,
        }
    }

    /// Bytes one stored amplitude occupies (both component planes):
    /// 16 for `f64` planes, 8 for `f32` planes.
    pub fn storage_bytes(self) -> usize {
        match self {
            Precision::F64 => 16,
            Precision::F32 => 8,
        }
    }

    /// Accuracy rank, higher is more accurate: `F64` > `F32`. Tenant
    /// quota floors compare ranks.
    pub fn rank(self) -> u8 {
        match self {
            Precision::F64 => 1,
            Precision::F32 => 0,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Estimated worst observed L2-norm drift of a clean (fault-free) run of
/// a depth-`depth` circuit at `precision` — the bound the analyzer's
/// tolerance audit holds the integrity budget against, and the default
/// validity gate of the auto-tuner's precision probes.
///
/// The model is RMS round-off accumulation: each of the `depth` gate
/// applications contributes an independent relative rounding of order
/// the storage epsilon, so the drift grows like `ε·√(depth+1)`. The
/// leading constant is calibrated loose (×16) so a clean run never trips
/// its own estimate.
pub fn precision_tolerance(depth: usize, precision: Precision) -> f64 {
    let epsilon = match precision {
        Precision::F64 => f64::EPSILON,
        Precision::F32 => f64::from(f32::EPSILON),
    };
    16.0 * epsilon * ((depth + 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_tokens_roundtrip() {
        for p in [Precision::F64, Precision::F32] {
            assert_eq!(Precision::parse(p.token()), Some(p));
            assert_eq!(format!("{p}"), p.token());
        }
        assert_eq!(Precision::parse("auto"), None);
        // The retired third precision must not parse as anything.
        assert_eq!(Precision::parse("mixed"), None);
        assert_eq!(Precision::default(), Precision::F64);
        assert_eq!(Precision::F64.storage_bytes(), 16);
        assert_eq!(Precision::F32.storage_bytes(), 8);
        assert!(Precision::F64.rank() > Precision::F32.rank());
    }

    #[test]
    fn tolerance_grows_with_depth_and_tightens_with_precision() {
        for p in [Precision::F64, Precision::F32] {
            assert!(precision_tolerance(64, p) > precision_tolerance(4, p));
        }
        assert!(precision_tolerance(10, Precision::F64) < precision_tolerance(10, Precision::F32));
        // The f64 estimate stays within the repo's default integrity
        // budget (1e-9) for any realistic circuit depth.
        assert!(precision_tolerance(10_000, Precision::F64) < 1e-9);
    }
}
