//! GPU-resident DD layout: the paper's Fig. 6 edge array + node array.

use bqsim_num::{Complex, FxHashMap};
use bqsim_qdd::{DdPackage, MEdge, MNodeId};

/// Null pointer sentinel for edge/node arrays (the paper's ∅).
pub const NIL: u32 = u32::MAX;

/// One entry of the edge array: a weight plus the index of the node the
/// edge points to ([`NIL`] when it points at the constant-one terminal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuDdEdge {
    /// Complex edge weight (denormalised from the canonical table so the
    /// array is self-contained, as it would be in device memory).
    pub weight: Complex,
    /// Index into the node array, or [`NIL`] for the terminal.
    pub node: u32,
}

/// One entry of the node array: the qubit level plus four edge pointers in
/// `[r0c0, r0c1, r1c0, r1c1]` order ([`NIL`] marks the constant-zero edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuDdNode {
    /// Qubit level of the node (paper Fig. 6).
    pub qubit_lv: u8,
    /// Indices into the edge array; [`NIL`] is the constant-zero edge.
    pub edges: [u32; 4],
}

/// A matrix DD flattened into the two arrays of the paper's Fig. 6,
/// ready for per-row DFS conversion (Algorithm 1).
///
/// Edge 0 is always the root edge.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDd {
    edges: Vec<GpuDdEdge>,
    nodes: Vec<GpuDdNode>,
    num_qubits: usize,
}

impl GpuDd {
    /// Flattens the matrix DD rooted at `e` (spanning `n` levels).
    ///
    /// Zero child edges become [`NIL`] pointers rather than array entries,
    /// so `edges.len()` equals the DD's non-zero edge count — the quantity
    /// the paper's hybrid threshold τ compares against.
    ///
    /// # Panics
    ///
    /// Panics if `e` is the zero edge (gate matrices are never zero).
    pub fn from_dd(dd: &DdPackage, e: MEdge, n: usize) -> Self {
        assert!(!e.is_zero(), "cannot flatten the zero matrix");
        let mut out = GpuDd {
            edges: Vec::new(),
            nodes: Vec::new(),
            num_qubits: n,
        };
        // DD node -> flat index, plus the DD ids in flat order. Both maps
        // here are keyed by arena / weight indices (fast hasher applies).
        let mut node_index: FxHashMap<MNodeId, u32> = FxHashMap::default();
        let mut order: Vec<MNodeId> = Vec::new();
        let root_node = out.intern_node(dd, e.node, &mut node_index, &mut order);
        out.edges.push(GpuDdEdge {
            weight: dd.value(e.w),
            node: root_node,
        });
        // Now wire children breadth-first so edge pointers are stable.
        out.wire_edges(dd, &node_index, &order);
        out
    }

    /// Allocates node entries (recursively) without edges.
    fn intern_node(
        &mut self,
        dd: &DdPackage,
        id: MNodeId,
        node_index: &mut FxHashMap<MNodeId, u32>,
        order: &mut Vec<MNodeId>,
    ) -> u32 {
        if id.is_terminal() {
            return NIL;
        }
        if let Some(&idx) = node_index.get(&id) {
            return idx;
        }
        let idx = self.nodes.len() as u32;
        node_index.insert(id, idx);
        order.push(id);
        self.nodes.push(GpuDdNode {
            qubit_lv: dd.mat_level(id),
            edges: [NIL; 4],
        });
        for c in dd.mat_children(id) {
            if !c.is_zero() {
                self.intern_node(dd, c.node, node_index, order);
            }
        }
        idx
    }

    /// Creates edge entries for every non-zero child edge and wires the
    /// node entries to them. Shared DD edges (same child edge reached from
    /// different parents) get one edge entry per (parent, slot) reference,
    /// mirroring how Fig. 6 materialises each drawn edge.
    fn wire_edges(
        &mut self,
        dd: &DdPackage,
        node_index: &FxHashMap<MNodeId, u32>,
        order: &[MNodeId],
    ) {
        // Deduplicate identical (weight, node) edges like the figure does
        // (edges (5) and (8) of Fig. 1a are distinct arrows but a flattened
        // array can share one entry safely since entries are immutable).
        let mut edge_dedup: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        // Wire in node-interning order, never in map-iteration order: the
        // artifact store's audit relies on flattening being a pure
        // function of the DD's structure.
        for (flat_id, &dd_id) in order.iter().enumerate() {
            let children = dd.mat_children(dd_id);
            for (slot, c) in children.into_iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                let target = if c.is_terminal() {
                    NIL
                } else {
                    node_index[&c.node]
                };
                let key = (c.w.raw(), target);
                let edge_idx = *edge_dedup.entry(key).or_insert_with(|| {
                    let idx = self.edges.len() as u32;
                    self.edges.push(GpuDdEdge {
                        weight: dd.value(c.w),
                        node: target,
                    });
                    idx
                });
                self.nodes[flat_id].edges[slot] = edge_idx;
            }
        }
    }

    /// Reassembles a flattened DD from raw edge/node arrays — the
    /// deserialization twin of [`GpuDd::edges`] / [`GpuDd::nodes`],
    /// validating that every pointer is either [`NIL`] or in range so a
    /// loaded diagram can never walk out of bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: an empty
    /// edge array (every DD has a root edge), an edge pointing past the
    /// node array, a node slot pointing past the edge array, or a node
    /// level outside the qubit span.
    pub fn from_raw_parts(
        edges: Vec<GpuDdEdge>,
        nodes: Vec<GpuDdNode>,
        num_qubits: usize,
    ) -> Result<Self, String> {
        if edges.is_empty() {
            return Err("edge array is empty (edge 0 must be the root)".to_string());
        }
        for (i, e) in edges.iter().enumerate() {
            if e.node != NIL && e.node as usize >= nodes.len() {
                return Err(format!(
                    "edge {i} points at node {} of {}",
                    e.node,
                    nodes.len()
                ));
            }
        }
        for (i, n) in nodes.iter().enumerate() {
            if n.qubit_lv as usize >= num_qubits.max(1) {
                return Err(format!(
                    "node {i} level {} outside {num_qubits}-qubit span",
                    n.qubit_lv
                ));
            }
            for &eidx in &n.edges {
                if eidx != NIL && eidx as usize >= edges.len() {
                    return Err(format!(
                        "node {i} slot points at edge {eidx} of {}",
                        edges.len()
                    ));
                }
            }
        }
        Ok(GpuDd {
            edges,
            nodes,
            num_qubits,
        })
    }

    /// The edge array (edge 0 is the root).
    #[inline]
    pub fn edges(&self) -> &[GpuDdEdge] {
        &self.edges
    }

    /// The node array.
    #[inline]
    pub fn nodes(&self) -> &[GpuDdNode] {
        &self.nodes
    }

    /// Number of qubit levels the DD spans.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of edge-array entries — the paper's "#edges" that the hybrid
    /// conversion threshold τ is compared against (§3.2).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Device byte footprint (edge array + node array) for the cost model.
    pub fn byte_size(&self) -> u64 {
        // edge: 16-byte complex + 4-byte pointer; node: 1-byte level
        // (padded to 4) + 4 pointers.
        (self.edges.len() * 20 + self.nodes.len() * 20) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_qcir::GateKind;
    use bqsim_qdd::convert::matrix_from_dense;

    #[test]
    fn flatten_identity_structure() {
        let mut dd = DdPackage::new();
        let e = dd.identity(3);
        let g = GpuDd::from_dd(&dd, e, 3);
        assert_eq!(g.nodes().len(), 3);
        // Root edge + per node two distinct child slots, but the identity
        // shares (weight=1, child) pairs, so deduplication collapses them.
        assert!(g.num_edges() >= 3);
        assert_eq!(g.edges()[0].weight, Complex::ONE);
        // Every node's r0c1/r1c0 slots are the zero edge.
        for n in g.nodes() {
            assert_eq!(n.edges[1], NIL);
            assert_eq!(n.edges[2], NIL);
            assert_ne!(n.edges[0], NIL);
            assert_ne!(n.edges[3], NIL);
        }
    }

    #[test]
    fn flatten_preserves_reachability() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::Cx.matrix());
        let e = matrix_from_dense(&mut dd, &m);
        let g = GpuDd::from_dd(&dd, e, 3);
        // Walk the flattened DD and confirm every referenced index is valid.
        for n in g.nodes() {
            for &eidx in &n.edges {
                if eidx != NIL {
                    let edge = g.edges()[eidx as usize];
                    if edge.node != NIL {
                        assert!((edge.node as usize) < g.nodes().len());
                    }
                }
            }
        }
        let root = g.edges()[0];
        assert!((root.node as usize) < g.nodes().len());
        assert_eq!(g.nodes()[root.node as usize].qubit_lv, 2);
    }

    #[test]
    fn from_raw_parts_roundtrips_and_validates() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::Cx.matrix());
        let e = matrix_from_dense(&mut dd, &m);
        let g = GpuDd::from_dd(&dd, e, 3);
        let back =
            GpuDd::from_raw_parts(g.edges().to_vec(), g.nodes().to_vec(), g.num_qubits()).unwrap();
        assert_eq!(back, g);

        assert!(GpuDd::from_raw_parts(vec![], vec![], 2).is_err());
        let dangling = vec![GpuDdEdge {
            weight: Complex::ONE,
            node: 5,
        }];
        assert!(GpuDd::from_raw_parts(dangling, vec![], 2)
            .unwrap_err()
            .contains("node 5"));
        let bad_node = GpuDd::from_raw_parts(
            vec![GpuDdEdge {
                weight: Complex::ONE,
                node: 0,
            }],
            vec![GpuDdNode {
                qubit_lv: 9,
                edges: [NIL; 4],
            }],
            2,
        );
        assert!(bad_node.unwrap_err().contains("level"));
    }

    #[test]
    #[should_panic(expected = "cannot flatten the zero matrix")]
    fn zero_edge_panics() {
        let dd = DdPackage::new();
        let _ = GpuDd::from_dd(&dd, MEdge::ZERO, 2);
    }
}
