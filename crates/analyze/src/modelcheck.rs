//! Bounded schedule-space model checking with dynamic partial-order
//! reduction (DPOR).
//!
//! [`analyze_graph`](crate::analyze_graph) proves the *static* race
//! freedom of a task graph; this module proves the stronger schedule-space
//! claims the paper's §3.3.2 discipline rests on, by *exploring* the
//! graph's interleavings instead of replaying one observed schedule:
//!
//! * **Race freedom** — every pair of tasks with conflicting footprints
//!   (shared buffer, at least one writer) is ordered by a happens-before
//!   path. Violations come with a minimal counterexample trace that
//!   schedules the two tasks back to back.
//! * **Determinism** — every serialization of the graph applies effects
//!   to each buffer in the same relative order, so the output is
//!   bit-identical whichever topological order an executor picks (the
//!   engine's sweep is one; a device overlapping copies and kernels is
//!   any other).
//!
//! The explorer is a Flanagan–Godefroid DPOR with backtrack sets and
//! sleep sets. Commuting transitions (disjoint footprints or read-read
//! sharing) are never re-ordered, so a *correct* double-buffered schedule
//! — where every conflicting pair carries a hazard edge — collapses to
//! **exactly one explored trace** no matter how many tasks it has:
//! exhaustive verification of the example circuits is cheap by
//! construction. Defective graphs blow up combinatorially, which is what
//! the trace budget is for: exploration past
//! [`ModelCheckBudget::max_traces`] stops with a truncation warning
//! (`mc-budget`) instead of hanging the CLI.
//!
//! The only synchronisation a task graph carries is its dependency edges
//! (a task may start only after all its predecessors completed), so
//! static graph reachability *is* the execution happens-before relation,
//! and the footprint-level semantics explored here are exact, not an
//! abstraction.

use crate::diag::Diagnostics;
use crate::graph::{
    check_structure, conflict_locs, happens_before, reaches, topological_order, GraphFacts, Loc,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Exploration limits for [`model_check_graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCheckBudget {
    /// Maximum number of complete traces to explore before truncating.
    /// Each Mazurkiewicz equivalence class costs one trace under DPOR, so
    /// a correct schedule needs exactly one and the default is generous.
    pub max_traces: usize,
}

impl Default for ModelCheckBudget {
    fn default() -> Self {
        ModelCheckBudget { max_traces: 4096 }
    }
}

impl ModelCheckBudget {
    /// A budget of `max_traces` explored traces.
    pub fn with_max_traces(max_traces: usize) -> Self {
        ModelCheckBudget {
            max_traces: max_traces.max(1),
        }
    }
}

/// What [`model_check_graph`] found.
#[derive(Debug, Clone)]
pub struct ModelCheckOutcome {
    /// Complete traces explored (one per discovered equivalence class).
    pub traces_explored: usize,
    /// Whether exploration stopped at the budget with work left — if so,
    /// the verdict covers only the explored prefix of the schedule space.
    pub truncated: bool,
    /// Number of distinct per-buffer effect orders observed across the
    /// explored traces. `1` means every serialization is observationally
    /// identical (the determinism the paper's bit-identity claim needs).
    pub distinct_orders: usize,
    /// Findings: `mc-race` / `mc-determinism` errors, `mc-budget`
    /// truncation warnings, plus any structural errors that preempted
    /// exploration.
    pub diagnostics: Diagnostics,
}

impl ModelCheckOutcome {
    /// Whether the explored space is provably race-free and deterministic
    /// (and was not truncated).
    pub fn verified(&self) -> bool {
        !self.truncated && self.diagnostics.is_clean()
    }
}

/// The observational signature of one trace: for each buffer, the order
/// writers applied their effects, and for each (buffer, reader) pair, the
/// writer whose value the read observed (`None` = the initial value).
///
/// Two traces are observationally equivalent at footprint granularity iff
/// their signatures agree — reads of the same buffer commute with each
/// other, so recording them as an unordered map (rather than interleaved
/// with the writes) makes the signature a *class* invariant: it never
/// distinguishes traces DPOR considers equivalent.
type Signature = (
    BTreeMap<Loc, Vec<usize>>,
    BTreeMap<(Loc, usize), Option<usize>>,
);

fn trace_signature(facts: &GraphFacts, trace: &[usize]) -> Signature {
    let mut writes: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
    let mut observed: BTreeMap<(Loc, usize), Option<usize>> = BTreeMap::new();
    let mut last_writer: HashMap<Loc, usize> = HashMap::new();
    for &t in trace {
        for &loc in &facts.tasks[t].reads {
            observed.insert((loc, t), last_writer.get(&loc).copied());
        }
        for &loc in &facts.tasks[t].writes {
            writes.entry(loc).or_default().push(t);
            last_writer.insert(loc, t);
        }
    }
    (writes, observed)
}

/// Renders a trace as a `→`-joined task list, eliding the middle of long
/// traces so counterexamples stay readable.
fn render_trace(facts: &GraphFacts, trace: &[usize]) -> String {
    const HEAD: usize = 6;
    const TAIL: usize = 4;
    let name = |&i: &usize| facts.name(i);
    if trace.len() <= HEAD + TAIL + 2 {
        trace.iter().map(name).collect::<Vec<_>>().join(" → ")
    } else {
        format!(
            "{} → … ({} tasks elided) … → {}",
            trace[..HEAD]
                .iter()
                .map(name)
                .collect::<Vec<_>>()
                .join(" → "),
            trace.len() - HEAD - TAIL,
            trace[trace.len() - TAIL..]
                .iter()
                .map(name)
                .collect::<Vec<_>>()
                .join(" → "),
        )
    }
}

/// Symmetric dependence bitsets: bit `j` of `dep[i]` is set iff tasks `i`
/// and `j` have conflicting footprints (shared location, ≥ 1 writer) —
/// the pairs whose relative order is observable.
fn dependence(facts: &GraphFacts) -> Vec<Vec<u64>> {
    let n = facts.tasks.len();
    let words = n.div_ceil(64);
    let mut dep = vec![vec![0u64; words]; n];
    let mut readers: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
    let mut writers: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
    for (i, t) in facts.tasks.iter().enumerate() {
        for &loc in &t.reads {
            readers.entry(loc).or_default().push(i);
        }
        for &loc in &t.writes {
            writers.entry(loc).or_default().push(i);
        }
    }
    let mut mark = |a: usize, b: usize| {
        if a != b {
            dep[a][b / 64] |= 1u64 << (b % 64);
            dep[b][a / 64] |= 1u64 << (a % 64);
        }
    };
    for (loc, ws) in &writers {
        for (wi, &a) in ws.iter().enumerate() {
            for &b in &ws[wi + 1..] {
                mark(a, b);
            }
            for &r in readers.get(loc).into_iter().flatten() {
                mark(a, r);
            }
        }
    }
    dep
}

#[inline]
fn dep_bit(dep: &[Vec<u64>], a: usize, b: usize) -> bool {
    dep[a][b / 64] >> (b % 64) & 1 == 1
}

/// One exploration frame: the state reached by executing `trace[..depth]`.
struct Frame {
    /// Transitions enabled here (all predecessors executed).
    enabled: Vec<usize>,
    /// Transitions that must (eventually) be explored from this state.
    backtrack: BTreeSet<usize>,
    /// Transitions whose exploration from here is provably redundant:
    /// inherited sleep entries plus already-explored siblings.
    sleep: BTreeSet<usize>,
}

struct Explorer<'a> {
    facts: &'a GraphFacts,
    reach: Vec<Vec<u64>>,
    dep: Vec<Vec<u64>>,
    succs: Vec<Vec<usize>>,
    budget: ModelCheckBudget,
    traces: usize,
    truncated: bool,
    /// signature → the first trace that produced it.
    signatures: HashMap<Signature, Vec<usize>>,
}

impl Explorer<'_> {
    fn enabled(&self, executed: &[bool], indegree: &[usize]) -> Vec<usize> {
        (0..self.facts.tasks.len())
            .filter(|&i| !executed[i] && indegree[i] == 0)
            .collect()
    }

    fn run(&mut self) {
        let n = self.facts.tasks.len();
        let mut executed = vec![false; n];
        let mut indegree: Vec<usize> = self.facts.tasks.iter().map(|t| t.preds.len()).collect();
        let mut trace: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<Frame> = Vec::with_capacity(n + 1);

        let new_frame = |enabled: Vec<usize>, sleep: BTreeSet<usize>| {
            let backtrack: BTreeSet<usize> = enabled
                .iter()
                .find(|t| !sleep.contains(t))
                .copied()
                .into_iter()
                .collect();
            Frame {
                enabled,
                backtrack,
                sleep,
            }
        };
        stack.push(new_frame(
            self.enabled(&executed, &indegree),
            BTreeSet::new(),
        ));

        // Sleep-blocked detours between leaves are bounded, but cheap
        // insurance beats an analysis hang: cap total scheduling steps.
        let mut steps_left: u64 = (self.budget.max_traces as u64 + 1) * (n as u64 + 1) * 8;

        while let Some(top) = stack.last() {
            if steps_left == 0 {
                self.truncated = true;
                break;
            }
            steps_left -= 1;

            if top.enabled.is_empty() {
                // Leaf: the graph is a validated DAG, so everything ran.
                if self.traces >= self.budget.max_traces {
                    self.truncated = true;
                    break;
                }
                self.traces += 1;
                self.signatures
                    .entry(trace_signature(self.facts, &trace))
                    .or_insert_with(|| trace.clone());
                Self::pop(
                    &mut stack,
                    &mut trace,
                    &mut executed,
                    &mut indegree,
                    &self.succs,
                );
                continue;
            }

            let next = top
                .backtrack
                .iter()
                .find(|t| !top.sleep.contains(t))
                .copied();
            let Some(t) = next else {
                // Everything to explore from here is done or redundant.
                Self::pop(
                    &mut stack,
                    &mut trace,
                    &mut executed,
                    &mut indegree,
                    &self.succs,
                );
                continue;
            };

            // DPOR backtrack rule: find the *latest* executed event that
            // conflicts with `t` without ordering it, and make sure the
            // state before that event eventually tries `t` (or, if `t`
            // was not yet enabled there, every alternative).
            for j in (0..trace.len()).rev() {
                let e = trace[j];
                if dep_bit(&self.dep, e, t) && !reaches(&self.reach, e, t) {
                    if stack[j].enabled.contains(&t) {
                        stack[j].backtrack.insert(t);
                    } else {
                        let alternatives = stack[j].enabled.clone();
                        stack[j].backtrack.extend(alternatives);
                    }
                    break;
                }
            }

            // Execute `t`; the child keeps only sleep entries that commute
            // with it (re-ordering a dependent pair reaches a new class).
            let child_sleep: BTreeSet<usize> = stack
                .last()
                .map(|f| {
                    f.sleep
                        .iter()
                        .filter(|&&u| !dep_bit(&self.dep, u, t))
                        .copied()
                        .collect()
                })
                .unwrap_or_default();
            executed[t] = true;
            for &s in &self.succs[t] {
                indegree[s] -= 1;
            }
            trace.push(t);
            stack.push(new_frame(self.enabled(&executed, &indegree), child_sleep));
        }
    }

    /// Pops the top frame, un-executing the transition that entered it and
    /// marking that transition redundant for the parent's later siblings.
    fn pop(
        stack: &mut Vec<Frame>,
        trace: &mut Vec<usize>,
        executed: &mut [bool],
        indegree: &mut [usize],
        succs: &[Vec<usize>],
    ) {
        stack.pop();
        if stack.is_empty() {
            return;
        }
        let t = trace.pop().expect("frame below root implies a trace entry");
        executed[t] = false;
        for &s in &succs[t] {
            indegree[s] += 1;
        }
        if let Some(parent) = stack.last_mut() {
            parent.sleep.insert(t);
        }
    }
}

/// A minimal schedule that makes tasks `a` and `b` adjacent: every task
/// that must precede either (by graph reachability), in a topological
/// order, followed by `a` then `b`. This is a real prefix of a legal
/// execution, so the counterexample is directly actionable.
fn race_witness(facts: &GraphFacts, reach: &[Vec<u64>], a: usize, b: usize) -> Vec<usize> {
    let mut prefix: Vec<usize> = topological_order(facts)
        .into_iter()
        .filter(|&x| x != a && x != b && (reaches(reach, x, a) || reaches(reach, x, b)))
        .collect();
    prefix.sort_unstable_by_key(|&x| {
        // Re-sort the ancestor subset into a valid topological order of
        // the induced subgraph: position in the full topological order.
        topo_position(facts, x)
    });
    prefix.push(a);
    prefix.push(b);
    prefix
}

/// Position of task `x` in a canonical topological order (memoised per
/// call site via the outer sort; graphs here are small enough that the
/// recomputation cost is irrelevant next to exploration).
fn topo_position(facts: &GraphFacts, x: usize) -> usize {
    // Longest-path depth is a valid topological key and is stable across
    // calls, unlike an arbitrary order's index.
    fn depth(facts: &GraphFacts, x: usize, memo: &mut [Option<usize>]) -> usize {
        if let Some(d) = memo[x] {
            return d;
        }
        let d = facts.tasks[x]
            .preds
            .iter()
            .map(|&p| depth(facts, p, memo) + 1)
            .max()
            .unwrap_or(0);
        memo[x] = Some(d);
        d
    }
    let mut memo = vec![None; facts.tasks.len()];
    depth(facts, x, &mut memo) * facts.tasks.len() + x
}

/// Explores the schedule space of `facts` under `budget` and reports
/// races (`mc-race`), nondeterministic effect orders (`mc-determinism`),
/// and budget truncation (`mc-budget`). Structural errors (cycles,
/// dangling predecessors) preempt exploration, mirroring
/// [`analyze_graph`](crate::analyze_graph).
pub fn model_check_graph(facts: &GraphFacts, budget: ModelCheckBudget) -> ModelCheckOutcome {
    let mut diags = Diagnostics::new();
    if !check_structure(facts, &mut diags) || diags.error_count() > 0 {
        return ModelCheckOutcome {
            traces_explored: 0,
            truncated: false,
            distinct_orders: 0,
            diagnostics: diags,
        };
    }

    let reach = happens_before(facts);
    let dep = dependence(facts);
    let n = facts.tasks.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in facts.tasks.iter().enumerate() {
        for &p in &t.preds {
            succs[p].push(i);
        }
    }

    let mut explorer = Explorer {
        facts,
        reach,
        dep,
        succs,
        budget,
        traces: 0,
        truncated: false,
        signatures: HashMap::new(),
    };
    explorer.run();
    let Explorer {
        reach,
        traces,
        truncated,
        signatures,
        ..
    } = explorer;

    // Races: conflicting pairs with no ordering path. The enumeration is
    // static (reachability is exact here), and each gets a concrete
    // adjacent-schedule counterexample.
    let mut race_pairs: Vec<(usize, usize, Vec<Loc>)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if !reaches(&reach, i, j) && !reaches(&reach, j, i) {
                let locs = conflict_locs(facts, i, j);
                if !locs.is_empty() {
                    race_pairs.push((i, j, locs));
                }
            }
        }
    }
    for (a, b, locs) in &race_pairs {
        let locs_str = locs
            .iter()
            .map(Loc::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let witness = race_witness(facts, &reach, *a, *b);
        diags.error(
            "mc-race",
            locs_str.clone(),
            format!(
                "schedule-space race: {} and {} touch {locs_str} with at \
                 least one writer and can execute in either order; \
                 counterexample trace: {}",
                facts.name(*a),
                facts.name(*b),
                render_trace(facts, &witness),
            ),
        );
    }

    // Determinism: all explored serializations must agree on every
    // buffer's effect order.
    if signatures.len() > 1 {
        let mut sigs: Vec<(&Signature, &Vec<usize>)> = signatures.iter().collect();
        sigs.sort_by_key(|(_, trace)| (*trace).clone());
        let ((wa, oa), ta) = sigs[0];
        let ((wb, ob), tb) = sigs[1];
        // Name a buffer whose observable history differs between the
        // first two classes (one must exist, by signature inequality).
        let divergence = wa
            .iter()
            .find(|(loc, order)| wb.get(loc) != Some(order))
            .map(|(loc, order)| {
                format!(
                    "writes to {loc} apply as [{}] in one serialization \
                     and [{}] in another",
                    order
                        .iter()
                        .map(|&t| facts.name(t))
                        .collect::<Vec<_>>()
                        .join(", "),
                    wb.get(loc)
                        .map(|o| o
                            .iter()
                            .map(|&t| facts.name(t))
                            .collect::<Vec<_>>()
                            .join(", "))
                        .unwrap_or_else(|| "<no writes>".into()),
                )
            })
            .or_else(|| {
                oa.iter()
                    .find(|((loc, r), seen)| ob.get(&(*loc, *r)) != Some(seen))
                    .map(|((loc, r), seen)| {
                        let describe = |s: &Option<usize>| match s {
                            Some(w) => facts.name(*w),
                            None => "the initial value".into(),
                        };
                        format!(
                            "{} can observe either {} or {} in {loc}",
                            facts.name(*r),
                            describe(seen),
                            describe(&ob.get(&(*loc, *r)).copied().flatten()),
                        )
                    })
            })
            .unwrap_or_else(|| "observable effect orders differ".into());
        diags.error(
            "mc-determinism",
            "schedule space",
            format!(
                "{} distinct per-buffer effect orders across {} explored \
                 traces — the schedule is nondeterministic: {divergence}; \
                 serialization A: {}; serialization B: {}",
                signatures.len(),
                traces,
                render_trace(facts, ta),
                render_trace(facts, tb),
            ),
        );
    }

    if truncated {
        diags.warning(
            "mc-budget",
            "schedule space",
            format!(
                "exploration truncated at the budget of {} traces ({} \
                 distinct effect orders seen so far) — the verdict covers \
                 only the explored prefix; re-run with a larger \
                 --dpor-budget for a complete answer",
                budget.max_traces,
                signatures.len(),
            ),
        );
    }

    ModelCheckOutcome {
        traces_explored: traces,
        truncated,
        distinct_orders: signatures.len(),
        diagnostics: diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{TaskFacts, TaskOp};
    use proptest::prelude::*;

    fn task(preds: &[usize], reads: &[Loc], writes: &[Loc]) -> TaskFacts {
        TaskFacts {
            label: String::new(),
            op: TaskOp::Kernel,
            preds: preds.to_vec(),
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    /// Brute force: every linear extension of the facts DAG.
    fn all_traces(facts: &GraphFacts) -> Vec<Vec<usize>> {
        fn go(
            facts: &GraphFacts,
            executed: &mut Vec<bool>,
            indeg: &mut Vec<usize>,
            trace: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            let enabled: Vec<usize> = (0..facts.tasks.len())
                .filter(|&i| !executed[i] && indeg[i] == 0)
                .collect();
            if enabled.is_empty() {
                out.push(trace.clone());
                return;
            }
            for t in enabled {
                executed[t] = true;
                trace.push(t);
                for (s, tf) in facts.tasks.iter().enumerate() {
                    if tf.preds.contains(&t) {
                        indeg[s] -= 1;
                    }
                }
                go(facts, executed, indeg, trace, out);
                for (s, tf) in facts.tasks.iter().enumerate() {
                    if tf.preds.contains(&t) {
                        indeg[s] += 1;
                    }
                }
                trace.pop();
                executed[t] = false;
            }
        }
        let n = facts.tasks.len();
        let mut out = Vec::new();
        go(
            facts,
            &mut vec![false; n],
            &mut facts.tasks.iter().map(|t| t.preds.len()).collect(),
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// Brute-force race verdict: some dependent pair occurs in both
    /// relative orders across the full set of linear extensions.
    fn brute_force_has_race(facts: &GraphFacts, traces: &[Vec<usize>]) -> bool {
        let n = facts.tasks.len();
        let dep = dependence(facts);
        for i in 0..n {
            for j in (i + 1)..n {
                if !dep_bit(&dep, i, j) {
                    continue;
                }
                let order = |trace: &[usize]| {
                    let pi = trace.iter().position(|&x| x == i);
                    let pj = trace.iter().position(|&x| x == j);
                    pi < pj
                };
                let first = order(&traces[0]);
                if traces.iter().any(|t| order(t) != first) {
                    return true;
                }
            }
        }
        false
    }

    /// Tiny deterministic generator (xorshift) for random small DAGs with
    /// random footprints over a handful of buffers.
    fn random_facts(seed: u64, n: usize) -> GraphFacts {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let tasks = (0..n)
            .map(|i| {
                let preds: Vec<usize> = (0..i).filter(|_| next() % 100 < 30).collect();
                let mut reads = Vec::new();
                let mut writes = Vec::new();
                for loc in 0..3usize {
                    match next() % 4 {
                        0 => reads.push(Loc::Device(loc)),
                        1 => writes.push(Loc::Device(loc)),
                        _ => {}
                    }
                }
                task(&preds, &reads, &writes)
            })
            .collect();
        GraphFacts { tasks }
    }

    #[test]
    fn ordered_conflicts_explore_exactly_one_trace() {
        // A ping-pong chain: every conflicting pair carries an edge.
        let facts = GraphFacts {
            tasks: vec![
                task(&[], &[], &[Loc::Device(0)]),
                task(&[0], &[Loc::Device(0)], &[Loc::Device(1)]),
                task(&[1], &[Loc::Device(1)], &[Loc::Device(0)]),
                task(&[2], &[Loc::Device(0)], &[Loc::Device(1)]),
            ],
        };
        let out = model_check_graph(&facts, ModelCheckBudget::default());
        assert!(out.verified(), "{}", out.diagnostics);
        assert_eq!(out.traces_explored, 1);
        assert_eq!(out.distinct_orders, 1);
    }

    #[test]
    fn independent_tasks_do_not_multiply_traces() {
        // 6 tasks with pairwise-disjoint footprints: 720 interleavings,
        // all equivalent — DPOR must explore exactly one.
        let facts = GraphFacts {
            tasks: (0..6).map(|i| task(&[], &[], &[Loc::Device(i)])).collect(),
        };
        let out = model_check_graph(&facts, ModelCheckBudget::default());
        assert!(out.verified(), "{}", out.diagnostics);
        assert_eq!(out.traces_explored, 1);
    }

    #[test]
    fn unordered_writers_race_with_counterexample() {
        let facts = GraphFacts {
            tasks: vec![
                task(&[], &[], &[Loc::Device(1)]),
                task(&[], &[], &[Loc::Device(1)]),
            ],
        };
        let out = model_check_graph(&facts, ModelCheckBudget::default());
        assert!(!out.verified());
        assert!(
            out.diagnostics.mentions("schedule-space race"),
            "{}",
            out.diagnostics
        );
        assert!(
            out.diagnostics.mentions("counterexample trace"),
            "{}",
            out.diagnostics
        );
        assert!(out.diagnostics.mentions("D[1]"), "{}", out.diagnostics);
        // Two writers, two orders: nondeterminism too.
        assert_eq!(out.distinct_orders, 2);
        assert!(
            out.diagnostics.mentions("nondeterministic"),
            "{}",
            out.diagnostics
        );
    }

    #[test]
    fn read_read_sharing_is_not_a_race() {
        let facts = GraphFacts {
            tasks: vec![
                task(&[], &[], &[Loc::Device(0)]),
                task(&[0], &[Loc::Device(0)], &[Loc::Device(1)]),
                task(&[0], &[Loc::Device(0)], &[Loc::Device(2)]),
            ],
        };
        let out = model_check_graph(&facts, ModelCheckBudget::default());
        assert!(out.verified(), "{}", out.diagnostics);
        assert_eq!(out.distinct_orders, 1);
    }

    #[test]
    fn budget_truncation_warns_and_reports_prefix() {
        // 4 unordered writers to one buffer: 24 classes; budget 3.
        let facts = GraphFacts {
            tasks: (0..4).map(|_| task(&[], &[], &[Loc::Device(0)])).collect(),
        };
        let out = model_check_graph(&facts, ModelCheckBudget::with_max_traces(3));
        assert!(out.truncated);
        assert_eq!(out.traces_explored, 3);
        assert!(out.diagnostics.mentions("truncated"), "{}", out.diagnostics);
        assert!(
            out.diagnostics.mentions("--dpor-budget"),
            "{}",
            out.diagnostics
        );
    }

    #[test]
    fn structural_errors_preempt_exploration() {
        let facts = GraphFacts {
            tasks: vec![task(&[7], &[], &[])],
        };
        let out = model_check_graph(&facts, ModelCheckBudget::default());
        assert_eq!(out.traces_explored, 0);
        assert!(out.diagnostics.mentions("dangling"), "{}", out.diagnostics);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// DPOR agrees with brute-force enumeration on random small
        /// graphs: same race verdict, and the explored class count equals
        /// the number of distinct signatures over *all* linear extensions
        /// (i.e. DPOR visits every equivalence class, once each is enough).
        #[test]
        fn dpor_matches_brute_force(seed in 0u64..u64::MAX, n in 1usize..6) {
            let facts = random_facts(seed, n);
            let traces = all_traces(&facts);
            let brute_race = brute_force_has_race(&facts, &traces);
            let brute_orders: std::collections::HashSet<_> = traces
                .iter()
                .map(|t| trace_signature(&facts, t))
                .collect();

            let out = model_check_graph(&facts, ModelCheckBudget::default());
            prop_assert!(!out.truncated, "budget must cover n<=6");
            let dpor_race = out
                .diagnostics
                .iter()
                .any(|d| d.pass == "mc-race");
            prop_assert_eq!(dpor_race, brute_race);
            prop_assert_eq!(out.distinct_orders, brute_orders.len());
            // Determinism verdicts agree by construction of the signature.
            let dpor_nondet = out.diagnostics.iter().any(|d| d.pass == "mc-determinism");
            prop_assert_eq!(dpor_nondet, brute_orders.len() > 1);
        }
    }
}
