//! DD-to-ELL conversion: CPU path enumeration and the paper's Algorithm 1.

use crate::{EllMatrix, GpuDd, NIL};
use bqsim_num::Complex;
use bqsim_qdd::{convert::for_each_matrix_entry, nzrv, DdPackage, MEdge};

/// Work counters of a full Algorithm-1 conversion, consumed by the GPU
/// cost model (per-row DFS step counts drive the thread-divergence and
/// runtime estimates behind Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConversionWork {
    /// Total DFS loop iterations summed over all rows.
    pub total_steps: u64,
    /// DFS loop iterations of the most expensive row (a GPU block's
    /// critical path).
    pub max_row_steps: u64,
}

/// Converts a matrix DD to ELL on the CPU by enumerating all non-zero
/// entries in one DFS over the diagram (§3.2 "CPU-based conversion").
///
/// The max NZR is computed first with the paper's NZRV algorithm
/// ([`bqsim_qdd::nzrv`]), then entries are scattered into per-row slots in
/// ascending column order.
///
/// # Panics
///
/// Panics if `e` is the zero edge.
pub fn ell_from_dd_cpu(dd: &mut DdPackage, e: MEdge, n: usize) -> EllMatrix {
    assert!(!e.is_zero(), "cannot convert the zero matrix");
    let v = nzrv::nzrv(dd, e, n);
    let max_nzr = nzrv::max_entry(dd, v);
    let rows = 1usize << n;
    let mut ell = EllMatrix::zeros(rows, max_nzr);
    let mut cursor = vec![0usize; rows];
    for_each_matrix_entry(dd, e, n, &mut |row, col, value| {
        ell.set_slot(row, cursor[row], col, value);
        cursor[row] += 1;
    });
    ell
}

/// Result of converting one ELL row with Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowConversion {
    /// Non-zeros written into the row.
    pub nnz: usize,
    /// DFS loop iterations executed (the row's work, for the cost model).
    pub steps: u64,
}

/// Faithful port of the paper's **Algorithm 1**: the per-block GPU kernel
/// that generates one ELL row by iterative DFS over the flattened DD with
/// an explicit edge stack and `left_right` / `up_down` direction arrays.
///
/// `row` plays the role of `blockIdx.x`; `vals`/`cols` receive up to
/// `max_nzr` slots (pre-zeroed by the caller).
///
/// # Panics
///
/// Panics if more than `vals.len()` non-zeros are found in the row (the
/// caller must size slots with the NZRV-derived max NZR).
pub fn convert_row_algorithm1(
    gdd: &GpuDd,
    row: usize,
    vals: &mut [Complex],
    cols: &mut [u32],
) -> RowConversion {
    let n = gdd.num_qubits();
    let edges = gdd.edges();
    let nodes = gdd.nodes();

    // Shared-memory arrays of the kernel (lines 1–5): one slot per level
    // plus one for terminal pushes.
    let mut edge_stack: Vec<u32> = vec![NIL; n + 1];
    let mut left_right: Vec<u8> = vec![0; n + 1];
    // up_down[depth] is the row bit consumed at that stack depth; depth d
    // visits qubit level n-1-d (line 4: up_down[n-1-tid] = bid & (1<<tid)).
    let mut up_down: Vec<u8> = vec![0; n + 1];
    for tid in 0..n {
        up_down[n - 1 - tid] = ((row >> tid) & 1) as u8;
    }

    // Lines 6–8.
    let mut stack_ptr: isize = 0;
    edge_stack[0] = 0; // root edge
    let mut val = Complex::ONE;
    let mut col: usize = 0;
    let mut idx: usize = 0;
    let mut steps: u64 = 0;

    // Lines 9–28.
    while stack_ptr >= 0 {
        steps += 1;
        let sp = stack_ptr as usize;
        let edge_ptr = edge_stack[sp];
        if edge_ptr == NIL {
            // Constant-zero edge (lines 11–12).
            stack_ptr -= 1;
            continue;
        }
        let edge = edges[edge_ptr as usize];
        if edge.node == NIL {
            // Constant-one node reached: emit the entry (lines 14–17).
            assert!(idx < vals.len(), "row {row} overflows max NZR slots");
            cols[idx] = col as u32;
            vals[idx] = val * edge.weight;
            stack_ptr -= 1;
            idx += 1;
            continue;
        }
        let node = nodes[edge.node as usize];
        let lv = node.qubit_lv as usize;
        if left_right[sp] == 2 {
            // Both columns explored: restore and pop (lines 18–21).
            left_right[sp] = 0;
            stack_ptr -= 1;
            val /= edge.weight;
            col -= 1usize << lv;
        } else {
            // Descend into the next unvisited column (lines 22–28).
            let child_idx = 2 * up_down[sp] + left_right[sp];
            left_right[sp] += 1;
            if left_right[sp] == 1 {
                val *= edge.weight;
            }
            col += (left_right[sp] as usize - 1) << lv;
            edge_stack[sp + 1] = node.edges[child_idx as usize];
            stack_ptr += 1;
        }
    }
    RowConversion { nnz: idx, steps }
}

/// Converts a flattened DD to ELL by running Algorithm 1 once per row —
/// the functional semantics of the paper's GPU-based conversion kernel
/// (one block per row).
///
/// Returns the matrix plus the DFS work counters the GPU cost model needs.
pub fn ell_from_gpu_dd(gdd: &GpuDd, max_nzr: usize) -> (EllMatrix, ConversionWork) {
    let rows = 1usize << gdd.num_qubits();
    let mut ell = EllMatrix::zeros(rows, max_nzr);
    let mut work = ConversionWork::default();
    let mut vals = vec![Complex::ZERO; max_nzr];
    let mut cols = vec![0u32; max_nzr];
    for row in 0..rows {
        // No per-row scratch refill: Algorithm 1 writes slots 0..nnz before
        // reporting them, and only those are consumed below.
        let rc = convert_row_algorithm1(gdd, row, &mut vals, &mut cols);
        for k in 0..rc.nnz {
            ell.set_slot(row, k, cols[k] as usize, vals[k]);
        }
        work.total_steps += rc.steps;
        work.max_row_steps = work.max_row_steps.max(rc.steps);
    }
    (ell, work)
}

/// The [`ConversionWork`] of running Algorithm 1 over every row of `gdd`,
/// computed in closed form from the flattened DD instead of by running it.
///
/// A row's DFS visits a node edge three times (descend left, descend
/// right, pop) plus whatever its two column children under the row's bit
/// cost, and a zero or terminal edge once. So the per-row step vector of a
/// node at level `l` is `3 + S(c[2b]) + S(c[2b+1])` on row half `b` — one
/// vector per node, built bottom-up, level by level. `total_steps` is the
/// root vector's sum. `max_row_steps` is its max, which is why whole
/// vectors are kept and not per-node scalars: both column children are
/// indexed by the *same* lower row bits, so the max of their sum is not
/// the sum of their maxes.
///
/// Equal to `ell_from_gpu_dd(gdd, max_nzr).1` on both counters (asserted in
/// debug builds on every conversion and by property tests); that function
/// stays the oracle and the Fig. 5 bench path.
///
/// # Panics
///
/// Panics if `gdd` skips levels (a child of a level-`l` node not at level
/// `l - 1`, or a root below level `n - 1`) — [`GpuDd::from_dd`] never
/// produces such a diagram.
pub fn conversion_work(gdd: &GpuDd) -> ConversionWork {
    let nodes = gdd.nodes();
    let edges = gdd.edges();
    let root = edges[0].node;
    if root == NIL {
        // A 1×1 matrix: the single row emits the terminal in one step.
        return ConversionWork {
            total_steps: 1,
            max_row_steps: 1,
        };
    }
    let n = gdd.num_qubits();
    assert_eq!(
        nodes[root as usize].qubit_lv as usize + 1,
        n,
        "root node must sit at the top level"
    );
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        by_level[node.qubit_lv as usize].push(i);
    }
    // steps[i][r]: DFS iterations row `r` spends below node `i`. Only two
    // adjacent levels are alive at a time.
    let mut steps: Vec<Vec<u64>> = vec![Vec::new(); nodes.len()];
    for level in 0..n {
        let half = 1usize << level;
        for &i in &by_level[level] {
            let mut rows = vec![3u64; 2 * half];
            for (slot, &eptr) in nodes[i].edges.iter().enumerate() {
                let out = &mut rows[(slot / 2) * half..][..half];
                let child = match eptr {
                    NIL => NIL,
                    e => edges[e as usize].node,
                };
                if child == NIL {
                    // Constant-zero edge or terminal: one iteration.
                    out.iter_mut().for_each(|s| *s += 1);
                } else {
                    assert_eq!(
                        nodes[child as usize].qubit_lv as usize + 1,
                        level,
                        "flattened DD skips a level"
                    );
                    for (s, c) in out.iter_mut().zip(&steps[child as usize]) {
                        *s += c;
                    }
                }
            }
            steps[i] = rows;
        }
        if level > 0 {
            for &i in &by_level[level - 1] {
                steps[i] = Vec::new();
            }
        }
    }
    let rows = &steps[root as usize];
    ConversionWork {
        total_steps: rows.iter().sum(),
        max_row_steps: rows.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_qcir::{generators, CMatrix, GateKind};
    use bqsim_qdd::convert::matrix_from_dense;
    use bqsim_qdd::gates;

    fn check_both_conversions(m: &CMatrix, n: usize) {
        let mut dd = DdPackage::new();
        let e = matrix_from_dense(&mut dd, m);
        let cpu = ell_from_dd_cpu(&mut dd, e, n);
        assert!(cpu.to_dense().approx_eq(m, 1e-12), "CPU conversion wrong");

        let gdd = GpuDd::from_dd(&dd, e, n);
        let (gpu, work) = ell_from_gpu_dd(&gdd, cpu.max_nzr());
        assert!(
            gpu.to_dense().approx_eq(m, 1e-12),
            "Algorithm 1 conversion wrong"
        );
        // Identical layout: same columns in the same slots, values equal up
        // to floating-point path-product rounding.
        assert_eq!(gpu.max_nzr(), cpu.max_nzr());
        for r in 0..gpu.num_rows() {
            assert_eq!(gpu.row_cols(r), cpu.row_cols(r), "row {r} column layout");
            for (a, b) in gpu.row_values(r).iter().zip(cpu.row_values(r)) {
                assert!(a.approx_eq(*b, 1e-12), "row {r}: {a} vs {b}");
            }
        }
        assert!(work.total_steps > 0);
        assert!(work.max_row_steps <= work.total_steps);
        assert_eq!(conversion_work(&gdd), work, "closed-form work counters");
    }

    #[test]
    fn conversions_match_on_gate_kroneckers() {
        check_both_conversions(&GateKind::H.matrix().kron(&GateKind::Cx.matrix()), 3);
        check_both_conversions(&GateKind::Cx.matrix().kron(&GateKind::T.matrix()), 3);
        check_both_conversions(&GateKind::Swap.matrix().kron(&GateKind::H.matrix()), 3);
        check_both_conversions(&GateKind::Ccx.matrix(), 3);
        check_both_conversions(
            &GateKind::Ry(0.7)
                .matrix()
                .kron(&GateKind::Rzz(0.3).matrix()),
            3,
        );
    }

    #[test]
    fn conversions_match_on_fused_circuit_products() {
        // Fuse a few gates by DD multiplication, then convert the product.
        for seed in 0..3u64 {
            let c = generators::random_circuit(4, 12, seed);
            let mut dd = DdPackage::new();
            let mut prod = dd.identity(4);
            for g in gates::lower_circuit(&c) {
                let m = gates::gate_dd(&mut dd, 4, &g);
                prod = dd.mat_mul(m, prod);
            }
            let dense = bqsim_qdd::convert::matrix_to_dense(&dd, prod, 4);
            let cpu = ell_from_dd_cpu(&mut dd, prod, 4);
            assert!(cpu.to_dense().approx_eq(&dense, 1e-9));
            let gdd = GpuDd::from_dd(&dd, prod, 4);
            let (gpu, work) = ell_from_gpu_dd(&gdd, cpu.max_nzr());
            assert!(gpu.to_dense().approx_eq(&dense, 1e-9));
            assert_eq!(conversion_work(&gdd), work, "seed {seed}");
        }
    }

    #[test]
    fn figure7_permutation_like_matrix() {
        // The Fig. 7 matrix has maxNZR 2 with padded rows; emulate the
        // shape with a structured example: H ⊗ CX has rows of 2 entries.
        let m = GateKind::H.matrix().kron(&GateKind::Cx.matrix());
        let mut dd = DdPackage::new();
        let e = matrix_from_dense(&mut dd, &m);
        let ell = ell_from_dd_cpu(&mut dd, e, 3);
        assert_eq!(ell.max_nzr(), 2);
        for r in 0..8 {
            // Columns come out ascending, matching Fig. 7's layout.
            let cols = ell.row_cols(r);
            let valid: Vec<u32> = ell
                .row_values(r)
                .iter()
                .zip(cols)
                .filter(|(v, _)| **v != Complex::ZERO)
                .map(|(_, c)| *c)
                .collect();
            let mut sorted = valid.clone();
            sorted.sort_unstable();
            assert_eq!(valid, sorted, "row {r} columns not ascending");
        }
    }

    #[test]
    fn row_steps_scale_with_structure() {
        // A permutation DD (one path per row) needs fewer DFS steps per
        // row than a dense Hadamard stack (two paths per row per level).
        let mut dd = DdPackage::new();
        let perm = matrix_from_dense(&mut dd, &GateKind::Cx.matrix().kron(&CMatrix::identity(2)));
        let dense = matrix_from_dense(
            &mut dd,
            &GateKind::H
                .matrix()
                .kron(&GateKind::H.matrix().kron(&GateKind::H.matrix())),
        );
        let gp = GpuDd::from_dd(&dd, perm, 3);
        let gd = GpuDd::from_dd(&dd, dense, 3);
        let (_, wp) = ell_from_gpu_dd(&gp, 1);
        let (_, wd) = ell_from_gpu_dd(&gd, 8);
        assert!(
            wd.max_row_steps > wp.max_row_steps,
            "dense rows must cost more DFS steps"
        );
    }

    #[test]
    #[should_panic(expected = "overflows max NZR")]
    fn undersized_slots_panic() {
        let mut dd = DdPackage::new();
        let e = matrix_from_dense(&mut dd, &GateKind::H.matrix());
        let gdd = GpuDd::from_dd(&dd, e, 1);
        let mut vals = vec![Complex::ZERO; 1];
        let mut cols = vec![0u32; 1];
        let _ = convert_row_algorithm1(&gdd, 0, &mut vals, &mut cols);
    }
}
