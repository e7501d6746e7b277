//! The circuit container and fluent builder API.

use crate::{Gate, GateKind};
use core::fmt;

/// An ordered list of gates over a fixed number of qubits.
///
/// Gates are stored in application order: `gates()[0]` is applied to the
/// input state first. (Note this is the *reverse* of matrix-product order:
/// the circuit unitary is `M_{L-1} · … · M_1 · M_0`.)
///
/// # Examples
///
/// ```
/// use bqsim_qcir::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// assert_eq!(bell.num_qubits(), 2);
/// assert_eq!(bell.num_gates(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    name: String,
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            name: String::new(),
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates an empty named circuit (names appear in reports and errors).
    pub fn with_name(name: impl Into<String>, num_qubits: usize) -> Self {
        Circuit {
            name: name.into(),
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// The circuit's display name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the display name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gates in application order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Whether the circuit contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a pre-built gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit `>= num_qubits`.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        assert!(
            gate.max_qubit() < self.num_qubits,
            "gate {gate} exceeds circuit width {}",
            self.num_qubits
        );
        self.gates.push(gate);
        self
    }

    /// Appends a gate by kind and qubit list.
    pub fn apply(&mut self, kind: GateKind, qubits: &[usize]) -> &mut Self {
        self.push(Gate::new(kind, qubits.to_vec()))
    }

    // ---- fluent single-qubit helpers -------------------------------------

    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.apply(GateKind::H, &[q])
    }

    /// Appends a Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.apply(GateKind::X, &[q])
    }

    /// Appends a Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.apply(GateKind::Y, &[q])
    }

    /// Appends a Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.apply(GateKind::Z, &[q])
    }

    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.apply(GateKind::S, &[q])
    }

    /// Appends a T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.apply(GateKind::T, &[q])
    }

    /// Appends an RX rotation on `q`.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(GateKind::Rx(theta), &[q])
    }

    /// Appends an RY rotation on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(GateKind::Ry(theta), &[q])
    }

    /// Appends an RZ rotation on `q`.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(GateKind::Rz(theta), &[q])
    }

    /// Appends a phase gate on `q`.
    pub fn p(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.apply(GateKind::Phase(lambda), &[q])
    }

    // ---- fluent multi-qubit helpers --------------------------------------

    /// Appends a CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.apply(GateKind::Cx, &[control, target])
    }

    /// Appends a controlled-Z.
    pub fn cz(&mut self, control: usize, target: usize) -> &mut Self {
        self.apply(GateKind::Cz, &[control, target])
    }

    /// Appends a controlled phase.
    pub fn cp(&mut self, lambda: f64, control: usize, target: usize) -> &mut Self {
        self.apply(GateKind::Cp(lambda), &[control, target])
    }

    /// Appends an RZZ interaction.
    pub fn rzz(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.apply(GateKind::Rzz(theta), &[a, b])
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(GateKind::Swap, &[a, b])
    }

    /// Appends a Toffoli.
    pub fn ccx(&mut self, c0: usize, c1: usize, target: usize) -> &mut Self {
        self.apply(GateKind::Ccx, &[c0, c1, target])
    }

    // ---- whole-circuit operations ----------------------------------------

    /// The inverse circuit (gates reversed, each kind inverted).
    ///
    /// Running `c` then `c.inverse()` returns any input state to itself;
    /// the differential-testing example and several integration tests rely
    /// on this identity.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::with_name(format!("{}_inv", self.name), self.num_qubits);
        for g in self.gates.iter().rev() {
            inv.push(Gate::new(g.kind().inverse(), g.qubits().to_vec()));
        }
        inv
    }

    /// Appends all gates of `other` (which must have the same width).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "circuit width mismatch in extend_from"
        );
        for g in other.gates() {
            self.push(g.clone());
        }
        self
    }

    /// Circuit depth: the length of the longest chain of gates that share
    /// qubits (standard ASAP-layered depth).
    pub fn depth(&self) -> usize {
        let mut qubit_depth = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let level = g
                .qubits()
                .iter()
                .map(|&q| qubit_depth[q])
                .max()
                .unwrap_or(0)
                + 1;
            for &q in g.qubits() {
                qubit_depth[q] = level;
            }
            depth = depth.max(level);
        }
        depth
    }

    /// Iterates over the gates.
    pub fn iter(&self) -> core::slice::Iter<'_, Gate> {
        self.gates.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit {} (n={}, gates={})",
            if self.name.is_empty() {
                "<anon>"
            } else {
                &self.name
            },
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = core::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.5, 2);
        assert_eq!(c.num_gates(), 4);
        assert_eq!(c.depth(), 4);
    }

    #[test]
    fn depth_counts_parallel_gates_once() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.depth(), 1);
        c.cx(0, 1).cx(2, 3);
        assert_eq!(c.depth(), 2);
        c.cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds circuit width")]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    fn inverse_reverses_order() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.num_gates(), 3);
        assert_eq!(inv.gates()[0].kind(), &GateKind::Cx);
        assert_eq!(inv.gates()[1].kind(), &GateKind::Sdg);
        assert_eq!(inv.gates()[2].kind(), &GateKind::H);
    }

    #[test]
    fn extend_from_appends() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend_from(&b);
        assert_eq!(a.num_gates(), 2);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn extend_from_width_mismatch_panics() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.extend_from(&b);
    }

    #[test]
    fn display_contains_gates() {
        let mut c = Circuit::with_name("bell", 2);
        c.h(0).cx(0, 1);
        let s = c.to_string();
        assert!(s.contains("bell"));
        assert!(s.contains("h q[0];"));
        assert!(s.contains("cx q[0],q[1];"));
    }

    #[test]
    fn iteration() {
        let mut c = Circuit::new(1);
        c.h(0).x(0);
        let names: Vec<_> = (&c).into_iter().map(|g| g.kind().name()).collect();
        assert_eq!(names, vec!["h", "x"]);
    }
}
