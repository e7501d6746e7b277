//! Gate kinds, their unitary matrices, and structural classification.

use crate::matrix::CMatrix;
use bqsim_num::Complex;
use core::fmt;

/// The kind of a quantum gate, including any rotation angles.
///
/// The set covers everything emitted by the benchmark-circuit
/// [generators](crate::generators) and accepted by the
/// [QASM parser](crate::qasm): the standard Cliffords, parametrised
/// rotations, the controlled/diagonal two-qubit gates the paper's circuits
/// use (`cx`, `cz`, `cp`, `rzz`, `swap`), the Google-supremacy square-root
/// gates, and the three-qubit Toffoli/Fredkin.
///
/// Variants carry their angles; structural data (which qubits) lives on
/// [`Gate`].
#[derive(Debug, Clone, PartialEq)]
pub enum GateKind {
    /// Identity.
    I,
    /// Hadamard.
    H,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = √Z.
    S,
    /// S† (inverse phase).
    Sdg,
    /// T = ⁴√Z.
    T,
    /// T†.
    Tdg,
    /// √X (supremacy gate set).
    Sx,
    /// (√X)†.
    Sxdg,
    /// √Y (supremacy gate set).
    Sy,
    /// (√Y)†.
    Sydg,
    /// √W where W = (X+Y)/√2 (supremacy gate set).
    Sw,
    /// (√W)†.
    Swdg,
    /// Rotation about X by the given angle.
    Rx(f64),
    /// Rotation about Y by the given angle.
    Ry(f64),
    /// Rotation about Z by the given angle (diagonal).
    Rz(f64),
    /// Phase gate `diag(1, e^{iλ})` (diagonal).
    Phase(f64),
    /// General single-qubit gate U(θ, φ, λ).
    U(f64, f64, f64),
    /// Controlled-X. Qubits: `[control, target]`.
    Cx,
    /// Controlled-Z (diagonal). Qubits: `[control, target]`.
    Cz,
    /// Controlled phase `diag(1,1,1,e^{iλ})` (diagonal).
    Cp(f64),
    /// Controlled RZ. Qubits: `[control, target]` (diagonal).
    Crz(f64),
    /// Controlled RY. Qubits: `[control, target]`.
    Cry(f64),
    /// Controlled RX. Qubits: `[control, target]`.
    Crx(f64),
    /// Two-qubit ZZ interaction `exp(-iθ/2 Z⊗Z)` (diagonal).
    Rzz(f64),
    /// Two-qubit XX+YY interaction used by some ansätze.
    Rxx(f64),
    /// SWAP (permutation).
    Swap,
    /// iSWAP (permutation up to phases on the swapped pair).
    Iswap,
    /// Toffoli (CCX). Qubits: `[control, control, target]`.
    Ccx,
    /// Fredkin (CSWAP). Qubits: `[control, a, b]`.
    Cswap,
}

impl GateKind {
    /// The number of qubits the gate acts on.
    pub fn arity(&self) -> usize {
        use GateKind::*;
        match self {
            I | H | X | Y | Z | S | Sdg | T | Tdg | Sx | Sxdg | Sy | Sydg | Sw | Swdg | Rx(_)
            | Ry(_) | Rz(_) | Phase(_) | U(..) => 1,
            Cx | Cz | Cp(_) | Crz(_) | Cry(_) | Crx(_) | Rzz(_) | Rxx(_) | Swap | Iswap => 2,
            Ccx | Cswap => 3,
        }
    }

    /// The lower-case OpenQASM-style mnemonic (without parameters).
    pub fn name(&self) -> &'static str {
        use GateKind::*;
        match self {
            I => "id",
            H => "h",
            X => "x",
            Y => "y",
            Z => "z",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sxdg => "sxdg",
            Sy => "sy",
            Sydg => "sydg",
            Sw => "sw",
            Swdg => "swdg",
            Rx(_) => "rx",
            Ry(_) => "ry",
            Rz(_) => "rz",
            Phase(_) => "p",
            U(..) => "u",
            Cx => "cx",
            Cz => "cz",
            Cp(_) => "cp",
            Crz(_) => "crz",
            Cry(_) => "cry",
            Crx(_) => "crx",
            Rzz(_) => "rzz",
            Rxx(_) => "rxx",
            Swap => "swap",
            Iswap => "iswap",
            Ccx => "ccx",
            Cswap => "cswap",
        }
    }

    /// The rotation / phase parameters carried by the kind, in QASM order.
    pub fn params(&self) -> Vec<f64> {
        use GateKind::*;
        match *self {
            Rx(a) | Ry(a) | Rz(a) | Phase(a) | Cp(a) | Crz(a) | Cry(a) | Crx(a) | Rzz(a)
            | Rxx(a) => vec![a],
            U(t, p, l) => vec![t, p, l],
            _ => Vec::new(),
        }
    }

    /// The dense unitary of the gate as a `2^arity × 2^arity` matrix.
    ///
    /// Row/column index bit 0 is the **last** qubit in the gate's qubit
    /// list; for controlled kinds the control is the more significant bit
    /// (so `Cx` is `diag(I, X)` with index = `control·2 + target`).
    pub fn matrix(&self) -> CMatrix {
        use GateKind::*;
        let z = Complex::ZERO;
        let o = Complex::ONE;
        let i = Complex::I;
        let h = Complex::real(std::f64::consts::FRAC_1_SQRT_2);
        match *self {
            I => CMatrix::identity(2),
            H => CMatrix::from_rows(2, &[h, h, h, -h]),
            X => CMatrix::from_rows(2, &[z, o, o, z]),
            Y => CMatrix::from_rows(2, &[z, -i, i, z]),
            Z => CMatrix::from_rows(2, &[o, z, z, -o]),
            S => CMatrix::from_rows(2, &[o, z, z, i]),
            Sdg => CMatrix::from_rows(2, &[o, z, z, -i]),
            T => CMatrix::from_rows(2, &[o, z, z, Complex::cis(std::f64::consts::FRAC_PI_4)]),
            Tdg => CMatrix::from_rows(2, &[o, z, z, Complex::cis(-std::f64::consts::FRAC_PI_4)]),
            Sx => {
                let p = Complex::new(0.5, 0.5);
                let m = Complex::new(0.5, -0.5);
                CMatrix::from_rows(2, &[p, m, m, p])
            }
            Sxdg => {
                let p = Complex::new(0.5, 0.5);
                let m = Complex::new(0.5, -0.5);
                CMatrix::from_rows(2, &[m, p, p, m])
            }
            Sy => {
                let p = Complex::new(0.5, 0.5);
                CMatrix::from_rows(2, &[p, -p, p, p])
            }
            Sydg => GateKind::Sy.matrix().dagger(),
            Sw => {
                // √W with W = (X + Y)/√2, as used in the Sycamore gate set.
                let d = Complex::new(0.5, 0.5);
                let a = Complex::new(0.5, -0.5) * Complex::cis(-std::f64::consts::FRAC_PI_4);
                let b = Complex::new(0.5, -0.5) * Complex::cis(std::f64::consts::FRAC_PI_4);
                CMatrix::from_rows(2, &[d, a, b, d])
            }
            Swdg => GateKind::Sw.matrix().dagger(),
            Rx(t) => {
                let c = Complex::real((t / 2.0).cos());
                let s = Complex::new(0.0, -(t / 2.0).sin());
                CMatrix::from_rows(2, &[c, s, s, c])
            }
            Ry(t) => {
                let c = Complex::real((t / 2.0).cos());
                let s = Complex::real((t / 2.0).sin());
                CMatrix::from_rows(2, &[c, -s, s, c])
            }
            Rz(t) => CMatrix::from_rows(2, &[Complex::cis(-t / 2.0), z, z, Complex::cis(t / 2.0)]),
            Phase(l) => CMatrix::from_rows(2, &[o, z, z, Complex::cis(l)]),
            U(t, p, l) => {
                let c = (t / 2.0).cos();
                let s = (t / 2.0).sin();
                CMatrix::from_rows(
                    2,
                    &[
                        Complex::real(c),
                        -Complex::cis(l) * s,
                        Complex::cis(p) * s,
                        Complex::cis(p + l) * c,
                    ],
                )
            }
            Cx => controlled(GateKind::X.matrix()),
            Cz => controlled(GateKind::Z.matrix()),
            Cp(l) => controlled(GateKind::Phase(l).matrix()),
            Crz(t) => controlled(GateKind::Rz(t).matrix()),
            Cry(t) => controlled(GateKind::Ry(t).matrix()),
            Crx(t) => controlled(GateKind::Rx(t).matrix()),
            Rzz(t) => {
                let e0 = Complex::cis(-t / 2.0);
                let e1 = Complex::cis(t / 2.0);
                CMatrix::diagonal(&[e0, e1, e1, e0])
            }
            Rxx(t) => {
                let c = Complex::real((t / 2.0).cos());
                let s = Complex::new(0.0, -(t / 2.0).sin());
                CMatrix::from_rows(
                    4,
                    &[
                        c, z, z, s, //
                        z, c, s, z, //
                        z, s, c, z, //
                        s, z, z, c,
                    ],
                )
            }
            Swap => CMatrix::from_rows(
                4,
                &[
                    o, z, z, z, //
                    z, z, o, z, //
                    z, o, z, z, //
                    z, z, z, o,
                ],
            ),
            Iswap => CMatrix::from_rows(
                4,
                &[
                    o, z, z, z, //
                    z, z, i, z, //
                    z, i, z, z, //
                    z, z, z, o,
                ],
            ),
            Ccx => controlled(controlled(GateKind::X.matrix())),
            Cswap => controlled(GateKind::Swap.matrix()),
        }
    }

    /// Whether the gate's unitary is diagonal (BQCS cost 1, fusion step ①).
    ///
    /// This is a *structural* classification used for quick statistics; the
    /// DD package re-derives the property numerically for fused gates.
    pub fn is_diagonal(&self) -> bool {
        use GateKind::*;
        matches!(
            self,
            I | Z | S | Sdg | T | Tdg | Rz(_) | Phase(_) | Cz | Cp(_) | Crz(_) | Rzz(_)
        )
    }

    /// Whether the gate's unitary is a (complex-weighted) permutation
    /// matrix, i.e. has exactly one non-zero per row (BQCS cost 1).
    pub fn is_permutation(&self) -> bool {
        use GateKind::*;
        // Diagonal matrices are permutations of the identity pattern.
        self.is_diagonal() || matches!(self, X | Y | Cx | Swap | Iswap | Ccx | Cswap)
    }

    /// The inverse gate kind, used to build `circuit.inverse()`.
    pub fn inverse(&self) -> GateKind {
        use GateKind::*;
        match *self {
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            Sx => Sxdg,
            Sxdg => Sx,
            Rx(t) => Rx(-t),
            Ry(t) => Ry(-t),
            Rz(t) => Rz(-t),
            Phase(l) => Phase(-l),
            U(t, p, l) => U(-t, -l, -p),
            Cp(l) => Cp(-l),
            Crz(t) => Crz(-t),
            Cry(t) => Cry(-t),
            Crx(t) => Crx(-t),
            Rzz(t) => Rzz(-t),
            Rxx(t) => Rxx(-t),
            Sy => Sydg,
            Sydg => Sy,
            Sw => Swdg,
            Swdg => Sw,
            ref k => k.clone(),
        }
    }
}

/// Builds `diag(I, U)`: the controlled version of `U` with the control as
/// the most significant index bit.
fn controlled(u: CMatrix) -> CMatrix {
    let d = u.dim();
    let mut m = CMatrix::identity(2 * d);
    for r in 0..d {
        for c in 0..d {
            m.set(d + r, d + c, u.get(r, c));
        }
    }
    m
}

/// A gate instance: a [`GateKind`] applied to specific qubits.
///
/// For controlled kinds the control qubits come first, matching the QASM
/// argument order (`cx q[c], q[t];`).
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    kind: GateKind,
    qubits: Vec<usize>,
}

impl Gate {
    /// Creates a gate, validating qubit arity and distinctness.
    ///
    /// # Panics
    ///
    /// Panics if the number of qubits does not match
    /// [`GateKind::arity`] or if a qubit repeats.
    pub fn new(kind: GateKind, qubits: Vec<usize>) -> Self {
        assert_eq!(
            qubits.len(),
            kind.arity(),
            "gate {} expects {} qubit(s), got {:?}",
            kind.name(),
            kind.arity(),
            qubits
        );
        for (i, &q) in qubits.iter().enumerate() {
            assert!(
                !qubits[..i].contains(&q),
                "gate {} applied to duplicate qubit {q}",
                kind.name()
            );
        }
        Gate { kind, qubits }
    }

    /// The gate's kind (including parameters).
    #[inline]
    pub fn kind(&self) -> &GateKind {
        &self.kind
    }

    /// The qubits the gate acts on, controls first.
    #[inline]
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// The dense unitary of this gate over its own qubits.
    pub fn matrix(&self) -> CMatrix {
        self.kind.matrix()
    }

    /// Largest qubit index touched.
    pub fn max_qubit(&self) -> usize {
        *self.qubits.iter().max().expect("gates act on ≥1 qubit")
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.kind.params();
        if params.is_empty() {
            write!(f, "{}", self.kind.name())?;
        } else {
            let ps: Vec<String> = params.iter().map(|p| format!("{p}")).collect();
            write!(f, "{}({})", self.kind.name(), ps.join(","))?;
        }
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, " {};", qs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_num::approx::eq_f64;

    fn assert_unitary(m: &CMatrix) {
        let d = m.dim();
        let mt = m.dagger();
        let prod = mt.mul(m);
        for r in 0..d {
            for c in 0..d {
                let want = if r == c { 1.0 } else { 0.0 };
                let got = prod.get(r, c);
                assert!(
                    eq_f64(got.re, want, 1e-10) && eq_f64(got.im, 0.0, 1e-10),
                    "not unitary at ({r},{c}): {got}"
                );
            }
        }
    }

    #[test]
    fn all_gate_matrices_are_unitary() {
        let kinds = [
            GateKind::I,
            GateKind::H,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::S,
            GateKind::Sdg,
            GateKind::T,
            GateKind::Tdg,
            GateKind::Sx,
            GateKind::Sxdg,
            GateKind::Sy,
            GateKind::Sydg,
            GateKind::Sw,
            GateKind::Swdg,
            GateKind::Rx(0.3),
            GateKind::Ry(1.1),
            GateKind::Rz(-0.7),
            GateKind::Phase(2.2),
            GateKind::U(0.4, 1.3, -0.2),
            GateKind::Cx,
            GateKind::Cz,
            GateKind::Cp(0.9),
            GateKind::Crz(0.5),
            GateKind::Cry(0.5),
            GateKind::Crx(0.5),
            GateKind::Rzz(0.8),
            GateKind::Rxx(0.8),
            GateKind::Swap,
            GateKind::Iswap,
            GateKind::Ccx,
            GateKind::Cswap,
        ];
        for k in kinds {
            let m = k.matrix();
            assert_eq!(m.dim(), 1 << k.arity(), "{}", k.name());
            assert_unitary(&m);
        }
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = GateKind::Sx.matrix();
        let x = GateKind::X.matrix();
        assert!(sx.mul(&sx).approx_eq(&x, 1e-12));
    }

    #[test]
    fn sy_squared_is_y() {
        let sy = GateKind::Sy.matrix();
        let y = GateKind::Y.matrix();
        assert!(sy.mul(&sy).approx_eq(&y, 1e-12));
    }

    #[test]
    fn sw_squared_is_w() {
        let sw = GateKind::Sw.matrix();
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let w = CMatrix::from_rows(
            2,
            &[
                Complex::ZERO,
                Complex::new(h, -h),
                Complex::new(h, h),
                Complex::ZERO,
            ],
        );
        assert!(sw.mul(&sw).approx_eq(&w, 1e-12));
    }

    #[test]
    fn cx_is_diag_i_x() {
        let m = GateKind::Cx.matrix();
        // |10> -> |11>
        assert_eq!(m.get(3, 2), Complex::ONE);
        assert_eq!(m.get(2, 3), Complex::ONE);
        assert_eq!(m.get(0, 0), Complex::ONE);
        assert_eq!(m.get(1, 1), Complex::ONE);
    }

    #[test]
    fn rzz_is_diagonal() {
        let m = GateKind::Rzz(0.37).matrix();
        for r in 0..4 {
            for c in 0..4 {
                if r != c {
                    assert_eq!(m.get(r, c), Complex::ZERO);
                }
            }
        }
        assert!(GateKind::Rzz(0.37).is_diagonal());
    }

    #[test]
    fn inverse_kinds_compose_to_identity() {
        for k in [
            GateKind::S,
            GateKind::T,
            GateKind::Sy,
            GateKind::Sw,
            GateKind::Sx,
            GateKind::Rx(0.4),
            GateKind::Ry(0.4),
            GateKind::Rz(0.4),
            GateKind::Phase(0.4),
            GateKind::Cp(0.4),
            GateKind::Rzz(0.4),
            GateKind::U(0.4, 0.2, 0.1),
        ] {
            let m = k.matrix();
            let mi = k.inverse().matrix();
            let id = CMatrix::identity(m.dim());
            assert!(m.mul(&mi).approx_eq(&id, 1e-12), "{}", k.name());
        }
    }

    #[test]
    fn permutation_classification() {
        assert!(GateKind::X.is_permutation());
        assert!(GateKind::Cx.is_permutation());
        assert!(GateKind::Swap.is_permutation());
        assert!(!GateKind::H.is_permutation());
        assert!(!GateKind::Ry(0.3).is_permutation());
        assert!(GateKind::Rz(0.3).is_permutation()); // diagonal counts
    }

    #[test]
    #[should_panic(expected = "expects 2 qubit(s)")]
    fn arity_mismatch_panics() {
        Gate::new(GateKind::Cx, vec![0]);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn duplicate_qubit_panics() {
        Gate::new(GateKind::Cx, vec![1, 1]);
    }

    #[test]
    fn display_includes_params() {
        let g = Gate::new(GateKind::Ry(0.5), vec![3]);
        assert_eq!(g.to_string(), "ry(0.5) q[3];");
        let g = Gate::new(GateKind::Cx, vec![1, 0]);
        assert_eq!(g.to_string(), "cx q[1],q[0];");
    }
}
