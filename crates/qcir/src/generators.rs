//! Benchmark-circuit generators.
//!
//! From-scratch replacements for the MQT-Bench circuits the paper evaluates
//! on (§4: QNN, VQE, portfolio optimisation, graph state, TSP, routing) plus
//! the Google-style quantum-supremacy circuit used in Table 1, and a few
//! extra families (GHZ, QFT, random) used by examples and tests.
//!
//! The generators reproduce the *structure* (gate-type mix and counts) of
//! the paper's circuits exactly — e.g. `qnn(17)` has 934 gates, `vqe(12)`
//! has 58, `portfolio_opt(16)` has 424, matching Table 2 — because that
//! structure is what drives fusion and BQCS cost. Rotation angles are
//! deterministic pseudo-random values derived from `seed`.
//!
//! # Examples
//!
//! ```
//! use bqsim_qcir::generators;
//!
//! let c = generators::vqe(12, 7);
//! assert_eq!(c.num_gates(), 58); // matches Table 2 of the paper
//! ```

use crate::{Circuit, GateKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A benchmark circuit family from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Quantum neural network (ZZ feature map + real-amplitudes ansatz).
    Qnn,
    /// Variational quantum eigensolver ansatz (real amplitudes, 2 reps).
    Vqe,
    /// Portfolio optimisation QAOA (3 layers, all-pairs ZZ cost).
    PortfolioOpt,
    /// Graph state preparation (H + ring of CZ).
    GraphState,
    /// Travelling-salesman VQE ansatz (real amplitudes, 5 reps).
    Tsp,
    /// Routing VQE ansatz (real amplitudes, 3 reps).
    Routing,
    /// Google-style quantum-supremacy random circuit (Table 1).
    Supremacy,
    /// GHZ state preparation.
    Ghz,
    /// Quantum Fourier transform.
    Qft,
}

impl Family {
    /// The family's display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Qnn => "QNN",
            Family::Vqe => "VQE",
            Family::PortfolioOpt => "Portfolio opt.",
            Family::GraphState => "Graph state",
            Family::Tsp => "TSP",
            Family::Routing => "Routing",
            Family::Supremacy => "Supremacy",
            Family::Ghz => "GHZ",
            Family::Qft => "QFT",
        }
    }

    /// Every family, in declaration order.
    pub const ALL: [Family; 9] = [
        Family::Qnn,
        Family::Vqe,
        Family::PortfolioOpt,
        Family::GraphState,
        Family::Tsp,
        Family::Routing,
        Family::Supremacy,
        Family::Ghz,
        Family::Qft,
    ];

    /// The family's command-line / submission-file token (`--family`,
    /// `family=`).
    pub fn token(self) -> &'static str {
        match self {
            Family::Qnn => "qnn",
            Family::Vqe => "vqe",
            Family::PortfolioOpt => "portfolio",
            Family::GraphState => "graph",
            Family::Tsp => "tsp",
            Family::Routing => "routing",
            Family::Supremacy => "supremacy",
            Family::Ghz => "ghz",
            Family::Qft => "qft",
        }
    }

    /// The family named by a [`token`](Self::token), if any.
    pub fn from_token(token: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.token() == token)
    }

    /// The narrowest register the family's generator accepts (its own
    /// `assert!`). User-facing callers check this first, via
    /// [`try_build`](Self::try_build), so a too-small `--qubits` is a
    /// usage error and not a panic.
    pub fn min_qubits(self) -> usize {
        match self {
            Family::Qft => 1,
            Family::GraphState => 3,
            _ => 2,
        }
    }

    /// [`build`](Self::build) for widths that come from outside the
    /// program.
    ///
    /// # Errors
    ///
    /// A message naming the family and its minimum when `n` is below
    /// [`min_qubits`](Self::min_qubits).
    pub fn try_build(self, n: usize, seed: u64) -> Result<Circuit, String> {
        if n < self.min_qubits() {
            return Err(format!(
                "family `{}` needs at least {} qubit(s), got {n}",
                self.token(),
                self.min_qubits()
            ));
        }
        Ok(self.build(n, seed))
    }

    /// Builds a circuit of this family over `n` qubits with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is below [`min_qubits`](Self::min_qubits).
    pub fn build(self, n: usize, seed: u64) -> Circuit {
        match self {
            Family::Qnn => qnn(n, seed),
            Family::Vqe => vqe(n, seed),
            Family::PortfolioOpt => portfolio_opt(n, seed),
            Family::GraphState => graph_state(n),
            Family::Tsp => tsp(n, seed),
            Family::Routing => routing(n, seed),
            Family::Supremacy => supremacy(n, 8, seed),
            Family::Ghz => ghz(n),
            Family::Qft => qft(n),
        }
    }
}

fn angle(rng: &mut SmallRng) -> f64 {
    // MQT-Bench-style random parameters in [0, 4π) (e.g. `ry(3.5902*pi)`).
    rng.gen_range(0.0..4.0 * std::f64::consts::PI)
}

/// `RealAmplitudes(reps)` hardware-efficient ansatz with linear
/// entanglement: `reps+1` RY layers interleaved with `reps` CX chains.
///
/// Gate count: `(reps+1)·n + reps·(n-1)`. This single template underlies
/// the paper's VQE (`reps=2`), Routing (`reps=3`), and TSP (`reps=5`)
/// benchmarks — their Table 2 gate counts match these formulas exactly.
pub fn real_amplitudes(n: usize, reps: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "ansatz needs at least 2 qubits");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(format!("real_amplitudes_{n}_{reps}"), n);
    for layer in 0..=reps {
        for q in 0..n {
            c.ry(angle(&mut rng), q);
        }
        if layer < reps {
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
        }
    }
    c
}

/// VQE ansatz: `RealAmplitudes(reps=2)`. Matches Table 2 gate counts
/// (n=12 → 58, n=14 → 68, n=16 → 78).
pub fn vqe(n: usize, seed: u64) -> Circuit {
    let mut c = real_amplitudes(n, 2, seed ^ 0x5651);
    c.set_name(format!("VQE_n{n}"));
    c
}

/// TSP VQE ansatz: `RealAmplitudes(reps=5)`. Matches Table 2 gate counts
/// (n=9 → 94, n=16 → 171).
pub fn tsp(n: usize, seed: u64) -> Circuit {
    let mut c = real_amplitudes(n, 5, seed ^ 0x7359);
    c.set_name(format!("TSP_n{n}"));
    c
}

/// Routing VQE ansatz: `RealAmplitudes(reps=3)`. Matches Table 2 gate
/// counts (n=6 → 39, n=12 → 81).
pub fn routing(n: usize, seed: u64) -> Circuit {
    let mut c = real_amplitudes(n, 3, seed ^ 0x2076);
    c.set_name(format!("Routing_n{n}"));
    c
}

/// QNN: two repetitions of a full-entanglement ZZ feature map followed by a
/// one-rep real-amplitudes ansatz.
///
/// Per feature-map repetition: `H` on all, `P(2xᵢ)` on all, then for every
/// qubit pair a `CX·P·CX` sandwich. Gate count:
/// `2·(2n + 3·C(n,2)) + (2n + (n-1))`, which reproduces Table 2 exactly
/// (n=17 → 934, n=19 → 1158, n=21 → 1406).
pub fn qnn(n: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "QNN needs at least 2 qubits");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9111);
    let mut c = Circuit::with_name(format!("QNN_n{n}"), n);
    // ZZFeatureMap, reps = 2, full entanglement.
    for _rep in 0..2 {
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n {
            c.p(angle(&mut rng), q);
        }
        for i in 0..n {
            for j in i + 1..n {
                c.cx(i, j);
                c.p(angle(&mut rng), j);
                c.cx(i, j);
            }
        }
    }
    // RealAmplitudes, reps = 1.
    for q in 0..n {
        c.ry(angle(&mut rng), q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.ry(angle(&mut rng), q);
    }
    c
}

/// Portfolio-optimisation QAOA: `H` on all qubits, then three layers of an
/// all-pairs `RZZ` cost Hamiltonian plus an `RX` mixer.
///
/// Gate count `n + 3·(C(n,2) + n)` reproduces Table 2 exactly
/// (n=16 → 424, n=17 → 476, n=18 → 531).
pub fn portfolio_opt(n: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "QAOA needs at least 2 qubits");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x90f7);
    let mut c = Circuit::with_name(format!("PortfolioOpt_n{n}"), n);
    for q in 0..n {
        c.h(q);
    }
    for _layer in 0..3 {
        let gamma = angle(&mut rng);
        for i in 0..n {
            for j in i + 1..n {
                // Pair-specific weight models the covariance matrix entries.
                let w: f64 = rng.gen_range(0.1..1.0);
                c.rzz(gamma * w, i, j);
            }
        }
        let beta = angle(&mut rng);
        for q in 0..n {
            c.rx(beta, q);
        }
    }
    c
}

/// Graph-state preparation over a ring graph: `H` on all qubits followed by
/// `CZ` along the cycle. Gate count `2n` matches Table 2 (n=16 → 32, …).
pub fn graph_state(n: usize) -> Circuit {
    assert!(n >= 3, "ring graph state needs at least 3 qubits");
    let mut c = Circuit::with_name(format!("GraphState_n{n}"), n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        c.cz(q, (q + 1) % n);
    }
    c
}

/// Google-style quantum-supremacy random circuit: `depth` rounds, each a
/// random single-qubit gate from {√X, √Y, √W} on every qubit followed by a
/// brick-work pattern of CZ gates; an initial and final Hadamard layer.
pub fn supremacy(n: usize, depth: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "supremacy circuit needs at least 2 qubits");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e5e);
    let mut c = Circuit::with_name(format!("Supremacy_n{n}_d{depth}"), n);
    for q in 0..n {
        c.h(q);
    }
    let mut last: Vec<u8> = vec![3; n]; // "no gate yet" sentinel
    for round in 0..depth {
        #[allow(clippy::needless_range_loop)] // q is a qubit index
        for q in 0..n {
            // Never repeat the same sqrt-gate on a qubit in adjacent
            // rounds, as in the Sycamore experiment.
            let mut pick = rng.gen_range(0..3u8);
            if pick == last[q] {
                pick = (pick + 1) % 3;
            }
            last[q] = pick;
            let kind = match pick {
                0 => GateKind::Sx,
                1 => GateKind::Sy,
                _ => GateKind::Sw,
            };
            c.apply(kind, &[q]);
        }
        // Brick-work CZ pattern alternating offsets.
        let offset = round % 2;
        let mut q = offset;
        while q + 1 < n {
            c.cz(q, q + 1);
            q += 2;
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// GHZ state preparation: `H` then a CX chain.
pub fn ghz(n: usize) -> Circuit {
    assert!(n >= 2, "GHZ needs at least 2 qubits");
    let mut c = Circuit::with_name(format!("GHZ_n{n}"), n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c
}

/// Quantum Fourier transform with final qubit-reversal swaps.
pub fn qft(n: usize) -> Circuit {
    assert!(n >= 1, "QFT needs at least 1 qubit");
    let mut c = Circuit::with_name(format!("QFT_n{n}"), n);
    for i in (0..n).rev() {
        c.h(i);
        for j in (0..i).rev() {
            let k = i - j;
            c.cp(std::f64::consts::PI / (1u64 << k) as f64, j, i);
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    c
}

/// A random circuit mixing Clifford and rotation gates, for fuzz tests.
pub fn random_circuit(n: usize, num_gates: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "random circuit needs at least 2 qubits");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa57);
    let mut c = Circuit::with_name(format!("Random_n{n}_g{num_gates}"), n);
    for _ in 0..num_gates {
        match rng.gen_range(0..10u8) {
            0 => {
                let q = rng.gen_range(0..n);
                c.h(q);
            }
            1 => {
                let q = rng.gen_range(0..n);
                c.x(q);
            }
            2 => {
                let q = rng.gen_range(0..n);
                c.t(q);
            }
            3 => {
                let q = rng.gen_range(0..n);
                c.ry(angle(&mut rng), q);
            }
            4 => {
                let q = rng.gen_range(0..n);
                c.rz(angle(&mut rng), q);
            }
            5 => {
                let q = rng.gen_range(0..n);
                c.rx(angle(&mut rng), q);
            }
            6 | 7 => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.cx(a, b);
            }
            8 => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.rzz(angle(&mut rng), a, b);
            }
            _ => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.cz(a, b);
            }
        }
    }
    c
}

/// One entry of the paper's 16-circuit evaluation suite (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteEntry {
    /// Circuit family.
    pub family: Family,
    /// Qubit count used by the paper.
    pub paper_qubits: usize,
    /// Scaled-down qubit count for this repository's default reports.
    pub scaled_qubits: usize,
}

/// The paper's Table 2 suite with this repo's scaled default sizes.
///
/// The paper runs up to QNN n=21 on a 48 GB A6000; the scaled column keeps
/// every family but shifts the largest sizes down so the full report runs
/// on a small machine. Pass `--paper-sizes` to the report binaries to use
/// the original qubit counts.
pub fn paper_suite() -> Vec<SuiteEntry> {
    use Family::*;
    let e = |family, paper_qubits, scaled_qubits| SuiteEntry {
        family,
        paper_qubits,
        scaled_qubits,
    };
    vec![
        e(Qnn, 17, 12),
        e(Qnn, 19, 13),
        e(Qnn, 21, 14),
        e(Vqe, 12, 12),
        e(Vqe, 14, 13),
        e(Vqe, 16, 14),
        e(PortfolioOpt, 16, 12),
        e(PortfolioOpt, 17, 13),
        e(PortfolioOpt, 18, 14),
        e(GraphState, 16, 14),
        e(GraphState, 18, 15),
        e(GraphState, 20, 16),
        e(Tsp, 9, 9),
        e(Tsp, 16, 13),
        e(Routing, 6, 6),
        e(Routing, 12, 12),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CircuitStats;

    #[test]
    fn table2_gate_counts_match_paper() {
        // (family, n, expected gate count) straight from Table 2.
        let cases: &[(Family, usize, usize)] = &[
            (Family::Qnn, 17, 934),
            (Family::Qnn, 19, 1158),
            (Family::Qnn, 21, 1406),
            (Family::Vqe, 12, 58),
            (Family::Vqe, 14, 68),
            (Family::Vqe, 16, 78),
            (Family::PortfolioOpt, 16, 424),
            (Family::PortfolioOpt, 17, 476),
            (Family::PortfolioOpt, 18, 531),
            (Family::GraphState, 16, 32),
            (Family::GraphState, 18, 36),
            (Family::GraphState, 20, 40),
            (Family::Tsp, 9, 94),
            (Family::Tsp, 16, 171),
            (Family::Routing, 6, 39),
            (Family::Routing, 12, 81),
        ];
        for &(family, n, want) in cases {
            let c = family.build(n, 42);
            assert_eq!(
                c.num_gates(),
                want,
                "{} n={n}: expected {want} gates, got {}",
                family.name(),
                c.num_gates()
            );
            assert_eq!(c.num_qubits(), n);
        }
    }

    #[test]
    fn every_family_builds_at_its_minimum_and_rejects_below() {
        for family in Family::ALL {
            let min = family.min_qubits();
            let c = family.try_build(min, 42).expect("minimum width builds");
            assert_eq!(c.num_qubits(), min);
            let err = family.try_build(min - 1, 42).unwrap_err();
            assert!(err.contains(family.token()) && err.contains("at least"));
            assert_eq!(Family::from_token(family.token()), Some(family));
        }
        assert_eq!(Family::from_token("nope"), None);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = qnn(6, 7);
        let b = qnn(6, 7);
        assert_eq!(a, b);
        let c = qnn(6, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn graph_state_is_h_plus_cz() {
        let c = graph_state(8);
        let s = CircuitStats::of(&c);
        assert_eq!(s.by_name["h"], 8);
        assert_eq!(s.by_name["cz"], 8);
    }

    #[test]
    fn supremacy_mixes_sqrt_gates() {
        let c = supremacy(6, 8, 3);
        let s = CircuitStats::of(&c);
        let sqrt_total = s.by_name.get("sx").unwrap_or(&0)
            + s.by_name.get("sy").unwrap_or(&0)
            + s.by_name.get("sw").unwrap_or(&0);
        assert_eq!(sqrt_total, 6 * 8);
        assert!(s.by_name["cz"] > 0);
    }

    #[test]
    fn qft_on_3_qubits_has_expected_structure() {
        let c = qft(3);
        let s = CircuitStats::of(&c);
        assert_eq!(s.by_name["h"], 3);
        assert_eq!(s.by_name["cp"], 3);
        assert_eq!(s.by_name["swap"], 1);
    }

    #[test]
    fn ghz_matches_dense_expectation() {
        let c = ghz(4);
        let out = crate::dense::simulate(&c);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((out[0].re - h).abs() < 1e-12);
        assert!((out[15].re - h).abs() < 1e-12);
    }

    #[test]
    fn paper_suite_has_16_entries() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 16);
        for e in suite {
            assert!(e.scaled_qubits <= e.paper_qubits);
            // scaled circuits must build
            let c = e.family.build(e.scaled_qubits, 1);
            assert!(c.num_gates() > 0);
        }
    }

    #[test]
    fn random_circuit_respects_gate_budget() {
        let c = random_circuit(5, 100, 9);
        assert_eq!(c.num_gates(), 100);
    }
}
