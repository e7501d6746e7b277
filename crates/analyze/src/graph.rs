//! Static race/hazard analysis of task graphs.
//!
//! The §3.3.2 double-buffered schedule is only correct if the
//! `HazardTracker` in `bqsim-core` inserted every RAW/WAR/WAW edge. This
//! pass recomputes the happens-before relation from scratch (transitive
//! closure over the dependency edges) and reports any pair of tasks that
//! touch the same buffer — with at least one writer — without an ordering
//! path between them: a data race the tracker missed.
//!
//! Analysis operates on [`GraphFacts`], a plain-data snapshot of a
//! [`TaskGraph`]. Tests build facts by hand to seed defects the real
//! builders cannot produce (their constructors validate too eagerly).

use crate::diag::Diagnostics;
use bqsim_gpu::{TaskGraph, TaskKind};

/// A memory location a task can touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Loc {
    /// Device buffer `D[i]`.
    Device(usize),
    /// Host (pinned) buffer `H[i]`.
    Host(usize),
}

impl core::fmt::Display for Loc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Loc::Device(i) => write!(f, "D[{i}]"),
            Loc::Host(i) => write!(f, "H[{i}]"),
        }
    }
}

/// What kind of work a task performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOp {
    /// Host→device copy.
    H2D,
    /// Device→host copy.
    D2H,
    /// Kernel launch.
    Kernel,
}

/// Plain-data view of one task.
#[derive(Debug, Clone)]
pub struct TaskFacts {
    /// Display label (from the task graph).
    pub label: String,
    /// The kind of work.
    pub op: TaskOp,
    /// Indices of predecessor tasks.
    pub preds: Vec<usize>,
    /// Locations the task reads.
    pub reads: Vec<Loc>,
    /// Locations the task writes.
    pub writes: Vec<Loc>,
}

/// Plain-data view of a whole task graph.
#[derive(Debug, Clone, Default)]
pub struct GraphFacts {
    /// Tasks in insertion order; a task's index is its id.
    pub tasks: Vec<TaskFacts>,
}

impl GraphFacts {
    /// Extracts facts from a live [`TaskGraph`].
    ///
    /// Kernel buffer accesses come from [`bqsim_gpu::Kernel::buffer_reads`]
    /// / [`buffer_writes`](bqsim_gpu::Kernel::buffer_writes); kernels using
    /// the default (empty) implementation are invisible to the race and
    /// lifetime checks.
    pub fn from_task_graph(graph: &TaskGraph) -> Self {
        let tasks = graph
            .task_ids()
            .map(|id| {
                let preds = graph.preds(id).iter().map(|p| p.index()).collect();
                let (op, reads, writes) = match graph.kind(id) {
                    TaskKind::H2D { host, dev, .. } => (
                        TaskOp::H2D,
                        vec![Loc::Host(host.index())],
                        vec![Loc::Device(dev.index())],
                    ),
                    TaskKind::D2H { dev, host, .. } => (
                        TaskOp::D2H,
                        vec![Loc::Device(dev.index())],
                        vec![Loc::Host(host.index())],
                    ),
                    TaskKind::Kernel(k) => (
                        TaskOp::Kernel,
                        k.buffer_reads()
                            .into_iter()
                            .map(|b| Loc::Device(b.index()))
                            .collect(),
                        k.buffer_writes()
                            .into_iter()
                            .map(|b| Loc::Device(b.index()))
                            .collect(),
                    ),
                };
                TaskFacts {
                    label: graph.label(id).to_string(),
                    op,
                    preds,
                    reads,
                    writes,
                }
            })
            .collect();
        GraphFacts { tasks }
    }

    fn name(&self, i: usize) -> String {
        format!("task {i} '{}'", self.tasks[i].label)
    }
}

/// The locations two tasks conflict on: shared by both with at least one
/// writer. Sorted and deduplicated. Used by hazard diagnostics that name
/// the contended buffers.
pub(crate) fn conflict_locs(facts: &GraphFacts, i: usize, j: usize) -> Vec<Loc> {
    let a = &facts.tasks[i];
    let b = &facts.tasks[j];
    let mut locs: Vec<Loc> = Vec::new();
    for &loc in &a.writes {
        if b.writes.contains(&loc) || b.reads.contains(&loc) {
            locs.push(loc);
        }
    }
    for &loc in &a.reads {
        if b.writes.contains(&loc) {
            locs.push(loc);
        }
    }
    locs.sort_unstable();
    locs.dedup();
    locs
}

/// Runs every structural pass over the facts: topological-order
/// validation, cycle detection, data-race detection, and buffer-lifetime
/// checks. Structural errors (cycles, dangling predecessors) short-circuit
/// the deeper passes, which assume an acyclic graph.
pub fn analyze_graph(facts: &GraphFacts) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let structurally_sound = check_structure(facts, &mut diags);
    if structurally_sound {
        check_races(facts, &mut diags);
        check_buffer_lifetime(facts, &mut diags);
    }
    diags
}

/// Validates predecessor ids and insertion order, and detects cycles
/// (reporting a witness cycle). Returns whether the graph is a DAG with
/// in-range predecessors, i.e. whether deeper passes can run.
fn check_structure(facts: &GraphFacts, diags: &mut Diagnostics) -> bool {
    let n = facts.tasks.len();
    let mut sound = true;
    for (i, t) in facts.tasks.iter().enumerate() {
        for &p in &t.preds {
            if p >= n {
                diags.error(
                    "structure",
                    facts.name(i),
                    format!("dangling predecessor id {p} (graph has {n} tasks)"),
                );
                sound = false;
            } else if p >= i {
                // Insertion order is the order the engine executes in, so
                // a forward (or self) edge breaks the documented
                // topological-order contract of `Engine::run`.
                diags.error(
                    "topo-order",
                    facts.name(i),
                    format!(
                        "depends on {} which is inserted later — insertion \
                         order is not a topological order",
                        facts.name(p.min(n - 1))
                    ),
                );
            }
        }
    }
    if !sound {
        return false;
    }
    if let Some(cycle) = find_cycle(facts) {
        let path = cycle
            .iter()
            .map(|&i| facts.name(i))
            .collect::<Vec<_>>()
            .join(" → ");
        diags.error(
            "cycles",
            facts.name(cycle[0]),
            format!("dependency cycle: {path}"),
        );
        return false;
    }
    true
}

/// Finds a dependency cycle if one exists, returned as a closed witness
/// path `[a, …, a]` along predecessor edges.
fn find_cycle(facts: &GraphFacts) -> Option<Vec<usize>> {
    const WHITE: u8 = 0; // unvisited
    const GREY: u8 = 1; // on the current DFS path
    const BLACK: u8 = 2; // fully explored
    let n = facts.tasks.len();
    let mut color = vec![WHITE; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != WHITE {
            continue;
        }
        // Iterative DFS over predecessor edges; (node, next-pred-index).
        let mut stack = vec![(start, 0usize)];
        color[start] = GREY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next >= facts.tasks[node].preds.len() {
                color[node] = BLACK;
                stack.pop();
                continue;
            }
            let p = facts.tasks[node].preds[*next];
            *next += 1;
            match color[p] {
                WHITE => {
                    parent[p] = node;
                    color[p] = GREY;
                    stack.push((p, 0));
                }
                GREY => {
                    // Back edge node→p: walk parents from node up to p.
                    let mut path = vec![p, node];
                    let mut cur = node;
                    while cur != p {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                _ => {}
            }
        }
    }
    None
}

/// Dense reachability bitsets: `reach[i]` has bit `j` set iff task `j`
/// happens-before task `i` (there is a dependency path `j → … → i`).
fn happens_before(facts: &GraphFacts) -> Vec<Vec<u64>> {
    let n = facts.tasks.len();
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n];
    // Process in a topological order (ids may not be one when analysing
    // hand-built facts, so compute it).
    for i in topological_order(facts) {
        let mut row = core::mem::take(&mut reach[i]);
        for &p in &facts.tasks[i].preds {
            row[p / 64] |= 1u64 << (p % 64);
            for (w, &bits) in row.iter_mut().zip(&reach[p]) {
                *w |= bits;
            }
        }
        reach[i] = row;
    }
    reach
}

/// A topological order of the (acyclic, validated) facts graph.
fn topological_order(facts: &GraphFacts) -> Vec<usize> {
    let n = facts.tasks.len();
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in facts.tasks.iter().enumerate() {
        indegree[i] = t.preds.len();
        for &p in &t.preds {
            succs[p].push(i);
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &s in &succs[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "topological_order requires a DAG");
    order
}

#[inline]
fn reaches(reach: &[Vec<u64>], from: usize, to: usize) -> bool {
    reach[to][from / 64] >> (from % 64) & 1 == 1
}

/// Reports every pair of tasks that touch the same location with at least
/// one writer and no happens-before path in either direction.
fn check_races(facts: &GraphFacts, diags: &mut Diagnostics) {
    let reach = happens_before(facts);
    // location → accesses, in task order.
    let mut accesses: std::collections::BTreeMap<Loc, Vec<(usize, bool)>> = Default::default();
    for (i, t) in facts.tasks.iter().enumerate() {
        for &loc in &t.reads {
            accesses.entry(loc).or_default().push((i, false));
        }
        for &loc in &t.writes {
            accesses.entry(loc).or_default().push((i, true));
        }
    }
    for (loc, list) in &accesses {
        for (ai, &(a, a_writes)) in list.iter().enumerate() {
            for &(b, b_writes) in &list[ai + 1..] {
                if a == b || (!a_writes && !b_writes) {
                    continue;
                }
                if !reaches(&reach, a, b) && !reaches(&reach, b, a) {
                    let kind = |w: bool| if w { "writes" } else { "reads" };
                    diags.error(
                        "races",
                        loc.to_string(),
                        format!(
                            "data race: {} {} and {} {} {loc} without an \
                             ordering path between them",
                            facts.name(a),
                            kind(a_writes),
                            facts.name(b),
                            kind(b_writes),
                        ),
                    );
                }
            }
        }
    }
}

/// Buffer-lifetime checks along a topological execution order:
/// device reads before any write, and writes that clobber a kernel result
/// no task ever consumed (an undownloaded result).
fn check_buffer_lifetime(facts: &GraphFacts, diags: &mut Diagnostics) {
    #[derive(Clone, Copy)]
    struct WriteState {
        writer: usize,
        writer_op: TaskOp,
        consumed: bool,
    }
    let mut state: std::collections::HashMap<Loc, WriteState> = Default::default();
    let mut order = topological_order(facts);
    // Stable view: prefer insertion order among independent tasks.
    order.sort_unstable();
    for &i in &order {
        let t = &facts.tasks[i];
        for &loc in &t.reads {
            match state.get_mut(&loc) {
                Some(ws) => ws.consumed = true,
                None => {
                    if matches!(loc, Loc::Device(_)) {
                        diags.warning(
                            "lifetime",
                            facts.name(i),
                            format!("reads {loc} before any task writes it"),
                        );
                    }
                }
            }
        }
        for &loc in &t.writes {
            if let Some(ws) = state.get(&loc) {
                if !ws.consumed && ws.writer_op == TaskOp::Kernel {
                    diags.warning(
                        "lifetime",
                        facts.name(i),
                        format!(
                            "overwrites {loc} while it holds the result of {} \
                             that no task ever read (undownloaded result)",
                            facts.name(ws.writer)
                        ),
                    );
                }
            }
            state.insert(
                loc,
                WriteState {
                    writer: i,
                    writer_op: t.op,
                    consumed: false,
                },
            );
        }
    }
}

/// The §3.3.2 buffer-index formula, implemented independently of
/// `bqsim_core::schedule::buffer_indices` so that each is a cross-check on
/// the other (tests in `tests/` assert they agree). Returns
/// `(input, output)` indices into `D[0..4)` for kernel `kernel` of batch
/// `batch` with `kernels_per_batch` kernels per batch.
pub fn expected_buffer_indices(
    batch: usize,
    kernel: usize,
    kernels_per_batch: usize,
) -> (usize, usize) {
    // Paper §3.3.2: kernel I_k of batch I_B reads
    // D[2(I_B mod 2) + (⌊I_B/2⌋·(L+1) + I_k) mod 2] and writes the other
    // buffer of its pair.
    let pair = 2 * (batch % 2);
    let step = (batch / 2) * (kernels_per_batch + 1) + kernel;
    (pair + step % 2, pair + 1 - step % 2)
}

/// "Fig. 8b conformance": checks that a graph built for `num_batches`
/// batches of `kernels_per_batch` kernels each follows the paper's
/// double-buffer discipline exactly:
///
/// * task layout per batch is `H2D, K_0 … K_{L-1}, D2H` in insertion order;
/// * every device buffer index is in `D[0..4)`;
/// * the H2D targets the batch's expected input buffer, each kernel reads
///   and writes its expected pair buffers, and the D2H drains the expected
///   output buffer;
/// * the chaining edges exist: `K_0` depends on the H2D, `K_k` on
///   `K_{k-1}`, and the D2H on `K_{L-1}`.
///
/// Kernels that do not declare buffer accesses are checked for layout and
/// chaining only.
pub fn check_double_buffer_discipline(
    facts: &GraphFacts,
    num_batches: usize,
    kernels_per_batch: usize,
) -> Diagnostics {
    const PASS: &str = "fig8b";
    let mut diags = Diagnostics::new();
    let l = kernels_per_batch;
    let expected_len = num_batches * (l + 2);
    if facts.tasks.len() != expected_len {
        diags.error(
            PASS,
            "graph",
            format!(
                "expected {num_batches} batches × ({l} kernels + H2D + D2H) \
                 = {expected_len} tasks, found {}",
                facts.tasks.len()
            ),
        );
        return diags;
    }
    for (i, t) in facts.tasks.iter().enumerate() {
        for &loc in t.reads.iter().chain(&t.writes) {
            if let Loc::Device(d) = loc {
                if d >= 4 {
                    diags.error(
                        PASS,
                        facts.name(i),
                        format!("touches {loc}, outside the schedule's D[0..4)"),
                    );
                }
            }
        }
    }
    let expect_op = |diags: &mut Diagnostics, i: usize, want: TaskOp| -> bool {
        let got = facts.tasks[i].op;
        if got != want {
            diags.error(
                PASS,
                facts.name(i),
                format!("expected a {want:?} task here, found {got:?}"),
            );
            return false;
        }
        true
    };
    let expect_edge = |diags: &mut Diagnostics, from: usize, to: usize, why: &str| {
        if !facts.tasks[to].preds.contains(&from) {
            diags.error(
                PASS,
                facts.name(to),
                format!("missing hazard edge from {} ({why})", facts.name(from)),
            );
        }
    };
    for b in 0..num_batches {
        let base = b * (l + 2);
        // H2D into the batch's input buffer.
        if expect_op(&mut diags, base, TaskOp::H2D) {
            let want = Loc::Device(expected_buffer_indices(b, 0, l).0);
            if facts.tasks[base].writes != [want] {
                diags.error(
                    PASS,
                    facts.name(base),
                    format!(
                        "H2D of batch {b} must write {want}, writes {:?}",
                        facts.tasks[base].writes
                    ),
                );
            }
        }
        // The kernel chain.
        for k in 0..l {
            let i = base + 1 + k;
            if !expect_op(&mut diags, i, TaskOp::Kernel) {
                continue;
            }
            let (want_in, want_out) = expected_buffer_indices(b, k, l);
            let t = &facts.tasks[i];
            if !t.reads.is_empty() || !t.writes.is_empty() {
                if t.reads != [Loc::Device(want_in)] {
                    diags.error(
                        PASS,
                        facts.name(i),
                        format!(
                            "kernel {k} of batch {b} must read D[{want_in}], \
                             reads {:?}",
                            t.reads
                        ),
                    );
                }
                if t.writes != [Loc::Device(want_out)] {
                    diags.error(
                        PASS,
                        facts.name(i),
                        format!(
                            "kernel {k} of batch {b} must write D[{want_out}], \
                             writes {:?}",
                            t.writes
                        ),
                    );
                }
            }
            let prev = if k == 0 { base } else { i - 1 };
            expect_edge(&mut diags, prev, i, "RAW on the kernel's input buffer");
        }
        // D2H draining the final output buffer.
        let d2h = base + l + 1;
        if expect_op(&mut diags, d2h, TaskOp::D2H) {
            let want = Loc::Device(expected_buffer_indices(b, l - 1, l).1);
            if facts.tasks[d2h].reads != [want] {
                diags.error(
                    PASS,
                    facts.name(d2h),
                    format!(
                        "D2H of batch {b} must read {want}, reads {:?}",
                        facts.tasks[d2h].reads
                    ),
                );
            }
            expect_edge(&mut diags, d2h - 1, d2h, "RAW on the result buffer");
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(op: TaskOp, preds: &[usize], reads: &[Loc], writes: &[Loc]) -> TaskFacts {
        TaskFacts {
            label: String::new(),
            op,
            preds: preds.to_vec(),
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    /// A hand-built copy of the schedule for `batches` batches of `l`
    /// kernels, with correct hazard edges.
    fn well_formed(batches: usize, l: usize) -> GraphFacts {
        let mut facts = GraphFacts::default();
        let mut last_writer: std::collections::HashMap<Loc, usize> = Default::default();
        let mut readers: std::collections::HashMap<Loc, Vec<usize>> = Default::default();
        let push = |op: TaskOp,
                    reads: Vec<Loc>,
                    writes: Vec<Loc>,
                    facts: &mut GraphFacts,
                    last_writer: &mut std::collections::HashMap<Loc, usize>,
                    readers: &mut std::collections::HashMap<Loc, Vec<usize>>| {
            let mut preds: Vec<usize> = Vec::new();
            for r in &reads {
                preds.extend(last_writer.get(r).copied());
            }
            for w in &writes {
                preds.extend(last_writer.get(w).copied());
                preds.extend(readers.get(w).into_iter().flatten().copied());
            }
            preds.sort_unstable();
            preds.dedup();
            let id = facts.tasks.len();
            facts.tasks.push(task(op, &preds, &reads, &writes));
            for r in reads {
                readers.entry(r).or_default().push(id);
            }
            for w in writes {
                last_writer.insert(w, id);
                readers.insert(w, Vec::new());
            }
        };
        for b in 0..batches {
            let input = Loc::Device(expected_buffer_indices(b, 0, l).0);
            push(
                TaskOp::H2D,
                vec![Loc::Host(b)],
                vec![input],
                &mut facts,
                &mut last_writer,
                &mut readers,
            );
            for k in 0..l {
                let (i, o) = expected_buffer_indices(b, k, l);
                push(
                    TaskOp::Kernel,
                    vec![Loc::Device(i)],
                    vec![Loc::Device(o)],
                    &mut facts,
                    &mut last_writer,
                    &mut readers,
                );
            }
            let out = Loc::Device(expected_buffer_indices(b, l - 1, l).1);
            push(
                TaskOp::D2H,
                vec![out],
                vec![Loc::Host(batches + b)],
                &mut facts,
                &mut last_writer,
                &mut readers,
            );
        }
        facts
    }

    #[test]
    fn well_formed_schedules_are_clean() {
        for (batches, l) in [(1, 1), (2, 3), (6, 2), (7, 5), (8, 4)] {
            let facts = well_formed(batches, l);
            let diags = analyze_graph(&facts);
            assert!(diags.is_clean(), "batches={batches} l={l}:\n{diags}");
            let conf = check_double_buffer_discipline(&facts, batches, l);
            assert!(conf.is_clean(), "batches={batches} l={l}:\n{conf}");
        }
    }

    #[test]
    fn dropped_hazard_edge_is_a_race() {
        // Drop one WAR edge: the H2D of batch 2 re-uses batch 0's pair, so
        // removing its predecessors makes it race with batch 0's kernels.
        let mut facts = well_formed(4, 2);
        let h2d_b2 = 2 * (2 + 2);
        assert_eq!(facts.tasks[h2d_b2].op, TaskOp::H2D);
        facts.tasks[h2d_b2].preds.clear();
        let diags = analyze_graph(&facts);
        assert!(diags.error_count() > 0, "expected a race:\n{diags}");
        assert!(diags.mentions("data race"), "{diags}");
    }

    #[test]
    fn unordered_writer_pair_is_a_race() {
        // Two kernels write D[1] with no path between them.
        let facts = GraphFacts {
            tasks: vec![
                task(TaskOp::Kernel, &[], &[], &[Loc::Device(1)]),
                task(TaskOp::Kernel, &[], &[], &[Loc::Device(1)]),
            ],
        };
        let diags = analyze_graph(&facts);
        assert_eq!(diags.error_count(), 1, "{diags}");
        // Shared reads alone are not a race (the read-before-first-write
        // warning still fires, but no error).
        let facts = GraphFacts {
            tasks: vec![
                task(TaskOp::Kernel, &[], &[Loc::Device(1)], &[]),
                task(TaskOp::Kernel, &[], &[Loc::Device(1)], &[]),
            ],
        };
        assert_eq!(analyze_graph(&facts).error_count(), 0);
    }

    #[test]
    fn transitive_ordering_suppresses_race() {
        // w(D0) → k → w(D0): the two writers are ordered through the middle
        // task, so no race even without a direct edge.
        let facts = GraphFacts {
            tasks: vec![
                task(TaskOp::H2D, &[], &[Loc::Host(0)], &[Loc::Device(0)]),
                task(TaskOp::Kernel, &[0], &[Loc::Device(0)], &[Loc::Device(1)]),
                task(TaskOp::Kernel, &[1], &[Loc::Device(1)], &[Loc::Device(0)]),
            ],
        };
        assert!(analyze_graph(&facts).is_clean());
    }

    #[test]
    fn cycle_reported_with_witness() {
        let mut facts = well_formed(1, 2);
        // Make task 1 depend on task 2 as well (2 already depends on 1).
        facts.tasks[1].preds.push(2);
        let diags = analyze_graph(&facts);
        assert!(diags.mentions("topological"), "{diags}");
        assert!(diags.mentions("cycle"), "{diags}");
    }

    #[test]
    fn dangling_predecessor_reported() {
        let facts = GraphFacts {
            tasks: vec![task(TaskOp::Kernel, &[7], &[], &[])],
        };
        let diags = analyze_graph(&facts);
        assert!(diags.mentions("dangling"), "{diags}");
    }

    #[test]
    fn read_before_first_write_warns() {
        let facts = GraphFacts {
            tasks: vec![task(
                TaskOp::Kernel,
                &[],
                &[Loc::Device(2)],
                &[Loc::Device(3)],
            )],
        };
        let diags = analyze_graph(&facts);
        assert_eq!(diags.warning_count(), 1, "{diags}");
        assert!(diags.mentions("before any task writes"), "{diags}");
    }

    #[test]
    fn clobbering_undownloaded_result_warns() {
        // Kernel writes D[1]; nothing reads it; H2D overwrites it.
        let facts = GraphFacts {
            tasks: vec![
                task(TaskOp::H2D, &[], &[Loc::Host(0)], &[Loc::Device(0)]),
                task(TaskOp::Kernel, &[0], &[Loc::Device(0)], &[Loc::Device(1)]),
                task(TaskOp::H2D, &[1], &[Loc::Host(1)], &[Loc::Device(1)]),
            ],
        };
        let diags = analyze_graph(&facts);
        assert!(diags.mentions("undownloaded"), "{diags}");
    }

    #[test]
    fn conformance_catches_wrong_buffer() {
        let mut facts = well_formed(2, 2);
        // Redirect batch 0 kernel 1's write to the wrong pair.
        facts.tasks[2].writes = vec![Loc::Device(3)];
        let diags = check_double_buffer_discipline(&facts, 2, 2);
        assert!(diags.mentions("must write"), "{diags}");
    }

    #[test]
    fn conformance_catches_out_of_range_buffer() {
        let mut facts = well_formed(1, 1);
        facts.tasks[1].reads = vec![Loc::Device(5)];
        let diags = check_double_buffer_discipline(&facts, 1, 1);
        assert!(diags.mentions("outside"), "{diags}");
    }

    #[test]
    fn formula_matches_the_papers_walk() {
        // The Fig. 8b example: L = 2.
        assert_eq!(expected_buffer_indices(0, 0, 2), (0, 1));
        assert_eq!(expected_buffer_indices(0, 1, 2), (1, 0));
        assert_eq!(expected_buffer_indices(1, 0, 2), (2, 3));
        assert_eq!(expected_buffer_indices(2, 0, 2), (1, 0));
    }
}
