//! DD algebra: the paper's `DDMultiply`, `DDAdd`, `DDConcatenate` plus
//! scaling and conjugate-transpose, all memoised in compute caches.

use crate::edge::{MEdge, VEdge};
use crate::package::{CacheOp, DdPackage};
use bqsim_num::{CIdx, Complex, FxHashMap};

impl DdPackage {
    /// Scales a matrix edge by a canonical weight.
    #[inline]
    pub fn mat_scale(&mut self, e: MEdge, w: CIdx) -> MEdge {
        if w.is_zero() || e.is_zero() {
            return MEdge::ZERO;
        }
        MEdge {
            node: e.node,
            w: self.ctab.mul(e.w, w),
        }
    }

    /// Scales a vector edge by a canonical weight.
    #[inline]
    pub fn vec_scale(&mut self, e: VEdge, w: CIdx) -> VEdge {
        if w.is_zero() || e.is_zero() {
            return VEdge::ZERO;
        }
        VEdge {
            node: e.node,
            w: self.ctab.mul(e.w, w),
        }
    }

    /// Matrix–matrix product (`DDMultiply` of the paper, used to fuse
    /// gates: `fused = later · earlier`).
    ///
    /// Both operands must span the same number of levels (this package does
    /// not skip levels), except that either may be the zero edge.
    pub fn mat_mul(&mut self, a: MEdge, b: MEdge) -> MEdge {
        if a.is_zero() || b.is_zero() {
            return MEdge::ZERO;
        }
        if a.is_terminal() && b.is_terminal() {
            return MEdge::terminal(self.ctab.mul(a.w, b.w));
        }
        debug_assert!(
            !a.is_terminal() && !b.is_terminal(),
            "mat_mul operands span different level counts"
        );
        debug_assert_eq!(
            self.mat_level(a.node),
            self.mat_level(b.node),
            "mat_mul level mismatch"
        );
        let outer = self.ctab.mul(a.w, b.w);
        let key = (
            CacheOp::MatMul,
            a.node.index() as u32,
            b.node.index() as u32,
        );
        if let Some(&hit) = self.cache_mm.get(&key) {
            self.hits += 1;
            return self.mat_scale(hit, outer);
        }
        self.misses += 1;
        let level = self.mat_level(a.node);
        let ac = self.mat_children(a.node);
        let bc = self.mat_children(b.node);
        let mut children = [MEdge::ZERO; 4];
        for i in 0..2 {
            for j in 0..2 {
                let p0 = self.mat_mul(ac[2 * i], bc[j]);
                let p1 = self.mat_mul(ac[2 * i + 1], bc[2 + j]);
                children[2 * i + j] = self.mat_add(p0, p1);
            }
        }
        let result = self.make_mat_node(level, children);
        self.cache_mm.insert(key, result);
        self.mat_scale(result, outer)
    }

    /// Matrix–vector product: applies a gate DD to a state DD.
    pub fn mat_vec(&mut self, m: MEdge, v: VEdge) -> VEdge {
        if m.is_zero() || v.is_zero() {
            return VEdge::ZERO;
        }
        if m.is_terminal() && v.is_terminal() {
            return VEdge::terminal(self.ctab.mul(m.w, v.w));
        }
        debug_assert!(
            !m.is_terminal() && !v.is_terminal(),
            "mat_vec operands span different level counts"
        );
        debug_assert_eq!(
            self.mat_level(m.node),
            self.vec_level(v.node),
            "mat_vec level mismatch"
        );
        let outer = self.ctab.mul(m.w, v.w);
        let key = (m.node.index() as u32, v.node.index() as u32);
        if let Some(&hit) = self.cache_mv.get(&key) {
            self.hits += 1;
            return self.vec_scale(hit, outer);
        }
        self.misses += 1;
        let level = self.mat_level(m.node);
        let mc = self.mat_children(m.node);
        let vc = self.vec_children(v.node);
        let mut children = [VEdge::ZERO; 2];
        for (i, child) in children.iter_mut().enumerate() {
            let p0 = self.mat_vec(mc[2 * i], vc[0]);
            let p1 = self.mat_vec(mc[2 * i + 1], vc[1]);
            *child = self.vec_add(p0, p1);
        }
        let result = self.make_vec_node(level, children);
        self.cache_mv.insert(key, result);
        self.vec_scale(result, outer)
    }

    /// Matrix addition (`DDAdd` of the paper).
    pub fn mat_add(&mut self, a: MEdge, b: MEdge) -> MEdge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node == b.node {
            let w = self.ctab.add(a.w, b.w);
            if w.is_zero() {
                return MEdge::ZERO;
            }
            return MEdge { node: a.node, w };
        }
        debug_assert!(!a.is_terminal() && !b.is_terminal());
        debug_assert_eq!(self.mat_level(a.node), self.mat_level(b.node));
        // Order operands for cache symmetry (addition commutes).
        let (a, b) = if a.node <= b.node { (a, b) } else { (b, a) };
        let ratio = self.ctab.div(b.w, a.w);
        let key = (a.node.index() as u32, b.node.index() as u32, ratio.raw());
        if let Some(&hit) = self.cache_madd.get(&key) {
            self.hits += 1;
            return self.mat_scale(hit, a.w);
        }
        self.misses += 1;
        let level = self.mat_level(a.node);
        let ac = self.mat_children(a.node);
        let bc = self.mat_children(b.node);
        let mut children = [MEdge::ZERO; 4];
        for (i, child) in children.iter_mut().enumerate() {
            let scaled_b = self.mat_scale(bc[i], ratio);
            *child = self.mat_add(ac[i], scaled_b);
        }
        let result = self.make_mat_node(level, children);
        self.cache_madd.insert(key, result);
        self.mat_scale(result, a.w)
    }

    /// Vector addition (`DDAdd` on vector DDs — the NZRV algorithm's
    /// workhorse, Fig. 3).
    pub fn vec_add(&mut self, a: VEdge, b: VEdge) -> VEdge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node == b.node {
            let w = self.ctab.add(a.w, b.w);
            if w.is_zero() {
                return VEdge::ZERO;
            }
            return VEdge { node: a.node, w };
        }
        debug_assert!(!a.is_terminal() && !b.is_terminal());
        debug_assert_eq!(self.vec_level(a.node), self.vec_level(b.node));
        let (a, b) = if a.node <= b.node { (a, b) } else { (b, a) };
        let ratio = self.ctab.div(b.w, a.w);
        let key = (a.node.index() as u32, b.node.index() as u32, ratio.raw());
        if let Some(&hit) = self.cache_vadd.get(&key) {
            self.hits += 1;
            return self.vec_scale(hit, a.w);
        }
        self.misses += 1;
        let level = self.vec_level(a.node);
        let ac = self.vec_children(a.node);
        let bc = self.vec_children(b.node);
        let mut children = [VEdge::ZERO; 2];
        for (i, child) in children.iter_mut().enumerate() {
            let scaled_b = self.vec_scale(bc[i], ratio);
            *child = self.vec_add(ac[i], scaled_b);
        }
        let result = self.make_vec_node(level, children);
        self.cache_vadd.insert(key, result);
        self.vec_scale(result, a.w)
    }

    /// Concatenates two vector DDs spanning `levels` levels each into one
    /// spanning `levels + 1` (`DDConcatenate` of the paper: `top` becomes
    /// the first half).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the operands span different level counts.
    pub fn vec_concat(&mut self, top: VEdge, bottom: VEdge, levels: usize) -> VEdge {
        debug_assert!(
            top.is_zero()
                || (levels == 0 && top.is_terminal())
                || (!top.is_terminal() && self.vec_level(top.node) as usize + 1 == levels),
            "vec_concat: top operand has wrong span"
        );
        debug_assert!(
            bottom.is_zero()
                || (levels == 0 && bottom.is_terminal())
                || (!bottom.is_terminal() && self.vec_level(bottom.node) as usize + 1 == levels),
            "vec_concat: bottom operand has wrong span"
        );
        self.make_vec_node(levels as u8, [top, bottom])
    }

    /// Inner product `⟨a|b⟩` of two vector DDs spanning the same levels.
    ///
    /// Computed by pairwise recursion with memoisation — O(|a|·|b|) node
    /// pairs worst case, far below the 2^n dense dot product for
    /// structured states. Used for fidelity checks between simulator
    /// outputs without densifying.
    pub fn vec_inner_product(&mut self, a: VEdge, b: VEdge) -> Complex {
        let mut memo: FxHashMap<(u32, u32), Complex> = FxHashMap::default();
        self.inner_rec(a, b, &mut memo)
    }

    fn inner_rec(
        &mut self,
        a: VEdge,
        b: VEdge,
        memo: &mut FxHashMap<(u32, u32), Complex>,
    ) -> Complex {
        if a.is_zero() || b.is_zero() {
            return Complex::ZERO;
        }
        let wa = self.value(a.w).conj();
        let wb = self.value(b.w);
        if a.is_terminal() && b.is_terminal() {
            return wa * wb;
        }
        debug_assert!(!a.is_terminal() && !b.is_terminal());
        debug_assert_eq!(self.vec_level(a.node), self.vec_level(b.node));
        let key = (a.node.index() as u32, b.node.index() as u32);
        let sub = if let Some(&hit) = memo.get(&key) {
            hit
        } else {
            let ac = self.vec_children(a.node);
            let bc = self.vec_children(b.node);
            let s0 = self.inner_rec(ac[0], bc[0], memo);
            let s1 = self.inner_rec(ac[1], bc[1], memo);
            let sum = s0 + s1;
            memo.insert(key, sum);
            sum
        };
        wa * wb * sub
    }

    /// Fidelity `|⟨a|b⟩|²` between two states stored as vector DDs.
    pub fn vec_fidelity(&mut self, a: VEdge, b: VEdge) -> f64 {
        self.vec_inner_product(a, b).norm_sqr()
    }

    /// Squared L2 norm `⟨v|v⟩` of a vector DD (1 for physical states).
    pub fn vec_norm_sqr(&mut self, v: VEdge) -> f64 {
        self.vec_inner_product(v, v).re
    }

    /// Conjugate transpose of a matrix DD (the inverse for unitaries).
    pub fn mat_conj_transpose(&mut self, e: MEdge) -> MEdge {
        if e.is_zero() {
            return MEdge::ZERO;
        }
        let wc = self.ctab.conj(e.w);
        if e.is_terminal() {
            return MEdge::terminal(wc);
        }
        let key = (
            CacheOp::Conjugate,
            e.node.index() as u32,
            e.node.index() as u32,
        );
        if let Some(&hit) = self.cache_mm.get(&key) {
            self.hits += 1;
            return self.mat_scale(hit, wc);
        }
        self.misses += 1;
        let level = self.mat_level(e.node);
        let c = self.mat_children(e.node);
        // Transpose swaps the off-diagonal blocks; conjugation recurses.
        let children = [
            self.mat_conj_transpose(c[0]),
            self.mat_conj_transpose(c[2]),
            self.mat_conj_transpose(c[1]),
            self.mat_conj_transpose(c[3]),
        ];
        let result = self.make_mat_node(level, children);
        self.cache_mm.insert(key, result);
        self.mat_scale(result, wc)
    }

    /// Transpose (without conjugation) of a matrix DD.
    pub fn mat_transpose(&mut self, e: MEdge) -> MEdge {
        if e.is_zero() || e.is_terminal() {
            return e;
        }
        let key = (
            CacheOp::Transpose,
            e.node.index() as u32,
            e.node.index() as u32,
        );
        if let Some(&hit) = self.cache_mm.get(&key) {
            self.hits += 1;
            return self.mat_scale(hit, e.w);
        }
        self.misses += 1;
        let level = self.mat_level(e.node);
        let c = self.mat_children(e.node);
        let children = [
            self.mat_transpose(c[0]),
            self.mat_transpose(c[2]),
            self.mat_transpose(c[1]),
            self.mat_transpose(c[3]),
        ];
        let result = self.make_mat_node(level, children);
        self.cache_mm.insert(key, result);
        self.mat_scale(result, e.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{matrix_from_dense, matrix_to_dense, vector_to_dense};
    use crate::DdPackage;
    use bqsim_num::approx::vectors_eq;
    use bqsim_qcir::{CMatrix, GateKind};

    fn dd_of(dd: &mut DdPackage, m: &CMatrix) -> MEdge {
        matrix_from_dense(dd, m)
    }

    #[test]
    fn mat_mul_matches_dense() {
        let mut dd = DdPackage::new();
        let h = GateKind::H.matrix().kron(&GateKind::T.matrix());
        let cx = GateKind::Cx.matrix();
        let a = dd_of(&mut dd, &h);
        let b = dd_of(&mut dd, &cx);
        let prod = dd.mat_mul(a, b);
        let want = h.mul(&cx);
        let got = matrix_to_dense(&dd, prod, 2);
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn mat_mul_with_identity_is_noop() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::Ry(0.7).matrix());
        let e = dd_of(&mut dd, &m);
        let id = dd.identity(2);
        assert_eq!(dd.mat_mul(e, id), e);
        assert_eq!(dd.mat_mul(id, e), e);
    }

    #[test]
    fn mat_vec_matches_dense() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::H.matrix());
        let e = dd_of(&mut dd, &m);
        let v = dd.vec_basis(2, 3);
        let got = dd.mat_vec(e, v);
        let got_dense = vector_to_dense(&dd, got, 2);
        let want = m.mul_vec(&bqsim_qcir::dense::basis_state(2, 3));
        assert!(vectors_eq(&got_dense, &want, 1e-12));
    }

    #[test]
    fn mat_add_matches_dense() {
        let mut dd = DdPackage::new();
        let x = GateKind::X.matrix().kron(&CMatrix::identity(2));
        let z = GateKind::Z.matrix().kron(&GateKind::H.matrix());
        let ex = dd_of(&mut dd, &x);
        let ez = dd_of(&mut dd, &z);
        let sum = dd.mat_add(ex, ez);
        let got = matrix_to_dense(&dd, sum, 2);
        let mut want = CMatrix::zeros(4);
        for r in 0..4 {
            for c in 0..4 {
                want.set(r, c, x.get(r, c) + z.get(r, c));
            }
        }
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn add_of_opposites_is_zero() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix();
        let e = dd_of(&mut dd, &m);
        let neg = {
            let w = dd.ctab_mut().intern(bqsim_num::Complex::real(-1.0));
            dd.mat_scale(e, w)
        };
        assert_eq!(dd.mat_add(e, neg), MEdge::ZERO);
    }

    #[test]
    fn vec_add_matches_dense() {
        let mut dd = DdPackage::new();
        let a = dd.vec_basis(3, 1);
        let b = dd.vec_basis(3, 6);
        let sum = dd.vec_add(a, b);
        let dense = vector_to_dense(&dd, sum, 3);
        assert!((dense[1].re - 1.0).abs() < 1e-12);
        assert!((dense[6].re - 1.0).abs() < 1e-12);
        assert_eq!(dense.iter().filter(|z| !z.is_zero(1e-12)).count(), 2);
    }

    #[test]
    fn vec_concat_stacks_halves() {
        let mut dd = DdPackage::new();
        let top = dd.vec_basis(1, 0);
        let bottom = dd.vec_basis(1, 1);
        let cat = dd.vec_concat(top, bottom, 1);
        let dense = vector_to_dense(&dd, cat, 2);
        // [1, 0] ++ [0, 1]
        assert!((dense[0].re - 1.0).abs() < 1e-12);
        assert!((dense[3].re - 1.0).abs() < 1e-12);
        assert!(dense[1].is_zero(1e-12) && dense[2].is_zero(1e-12));
    }

    #[test]
    fn conj_transpose_is_inverse_for_unitary() {
        let mut dd = DdPackage::new();
        let m = GateKind::U(0.3, 1.2, -0.4)
            .matrix()
            .kron(&GateKind::Sw.matrix());
        let e = dd_of(&mut dd, &m);
        let edag = dd.mat_conj_transpose(e);
        let prod = dd.mat_mul(e, edag);
        let got = matrix_to_dense(&dd, prod, 2);
        assert!(got.approx_eq(&CMatrix::identity(4), 1e-10));
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let mut dd = DdPackage::new();
        let m = GateKind::Cx.matrix();
        let e = dd_of(&mut dd, &m);
        let t = dd.mat_transpose(e);
        let tt = dd.mat_transpose(t);
        assert_eq!(tt, e);
    }

    #[test]
    fn inner_product_matches_dense() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::Sw.matrix());
        let me = dd_of(&mut dd, &m);
        let a = dd.vec_basis(2, 1);
        let b = dd.mat_vec(me, a);
        let da = vector_to_dense(&dd, a, 2);
        let db = vector_to_dense(&dd, b, 2);
        let want: bqsim_num::Complex = da.iter().zip(&db).map(|(x, y)| x.conj() * *y).sum();
        let got = dd.vec_inner_product(a, b);
        assert!(got.approx_eq(want, 1e-12), "{got} vs {want}");
    }

    #[test]
    fn norm_and_fidelity() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::H.matrix());
        let me = dd_of(&mut dd, &m);
        let zero = dd.vec_basis(2, 0);
        let plus = dd.mat_vec(me, zero);
        // Physical states have unit norm.
        assert!((dd.vec_norm_sqr(plus) - 1.0).abs() < 1e-12);
        // |<0|++>|² = 1/4.
        assert!((dd.vec_fidelity(zero, plus) - 0.25).abs() < 1e-12);
        // Orthogonal basis states.
        let one = dd.vec_basis(2, 3);
        assert_eq!(dd.vec_inner_product(zero, one), bqsim_num::Complex::ZERO);
        // Self-fidelity of a basis state.
        assert!((dd.vec_fidelity(one, one) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_conjugate_symmetry() {
        let mut dd = DdPackage::new();
        let m = GateKind::Sw.matrix().kron(&GateKind::T.matrix());
        let me = dd_of(&mut dd, &m);
        let a = dd.vec_basis(2, 2);
        let b = dd.mat_vec(me, a);
        let ab = dd.vec_inner_product(a, b);
        let ba = dd.vec_inner_product(b, a);
        assert!(ab.approx_eq(ba.conj(), 1e-12));
    }

    #[test]
    fn multiplication_uses_cache() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::H.matrix());
        let a = dd_of(&mut dd, &m);
        let _ = dd.mat_mul(a, a);
        let misses_before = dd.stats().cache_misses;
        let _ = dd.mat_mul(a, a);
        assert_eq!(
            dd.stats().cache_misses,
            misses_before,
            "second identical multiply must be a pure cache hit"
        );
        assert!(dd.stats().cache_hits > 0);
    }
}
