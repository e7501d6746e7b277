//! The five workloads. Each is a list of op kinds a single closed-loop
//! client runs round-robin, one op in flight.
//!
//! Sizes were chosen on a 2-core host against the unmodified release
//! build so that each workload is bound by a *different* layer (see
//! `README.md` for the measurements behind every "why").

use bqsim_core::Precision;
use bqsim_serve::{Priority, SubmitSpec};

/// Workload names, in report order.
pub const NAMES: [&str; 5] = [
    "cold_start",
    "warm_start",
    "sweep",
    "small_batches",
    "fleet",
];

/// Where a campaign op's compiled circuit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// A fresh empty artifact directory per op: the op compiles.
    Fresh,
    /// The store pre-populated during set-up: the op loads.
    Warm,
}

/// Which end-to-end timing metric an op kind feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A one-batch twin of a long op: feeds `ttfb_ms` only.
    Ttfb,
    /// A long op: feeds `states_per_s` only.
    Throughput,
    /// A one-batch campaign that is the workload itself: feeds both.
    Both,
}

/// What one op runs.
#[derive(Debug, Clone)]
pub enum Action {
    /// `bqsim run` over one plan.
    Campaign {
        /// The plan: circuit family, width, batches, batch size, seed.
        spec: SubmitSpec,
        /// `--journal-state full` (else `checksum`).
        full_state: bool,
        /// Fresh or pre-populated artifact store.
        store: Store,
    },
    /// One `bqsim serve` session over these submissions.
    Fleet {
        /// The session's submissions, in admission order.
        specs: Vec<SubmitSpec>,
    },
}

/// One op kind of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// Row label, e.g. `qft-14` or `qft-14/first`.
    pub label: String,
    /// What the op runs.
    pub action: Action,
    /// Which timing metric it feeds.
    pub role: Role,
}

impl Op {
    /// The plans this op settles (one for a campaign, one per submission
    /// for a fleet session).
    pub fn specs(&self) -> &[SubmitSpec] {
        match &self.action {
            Action::Campaign { spec, .. } => std::slice::from_ref(spec),
            Action::Fleet { specs } => specs,
        }
    }

    /// State vectors the op settles.
    pub fn states(&self) -> usize {
        self.specs().iter().map(|s| s.batches * s.batch_size).sum()
    }

    /// Whether the op feeds `ttfb_ms`.
    pub fn feeds_ttfb(&self) -> bool {
        self.role != Role::Throughput
    }

    /// Whether the op feeds `states_per_s` (and is the op the layer
    /// trace replays).
    pub fn feeds_throughput(&self) -> bool {
        self.role != Role::Ttfb
    }
}

/// One workload: a name, the reason it exists, and its op kinds.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on which layer it is bound by.
    pub why: &'static str,
    /// Op kinds, run round-robin.
    pub ops: Vec<Op>,
}

/// The circuits of `cold_start` and `warm_start`.
const START_CIRCUITS: [(&str, usize); 5] = [
    ("portfolio", 12),
    ("qnn", 12),
    ("qft", 14),
    ("supremacy", 12),
    ("graph", 14),
];

/// The long campaigns of `sweep`: (family, qubits, batches).
const SWEEP_CAMPAIGNS: [(&str, usize, usize); 2] = [("supremacy", 12, 48), ("qft", 14, 16)];

/// The submissions of one `fleet` session, in admission order.
const FLEET_CIRCUITS: [(&str, usize); 12] = [
    ("qft", 12),
    ("ghz", 10),
    ("graph", 12),
    ("vqe", 12),
    ("supremacy", 12),
    ("qft", 13),
    ("graph", 11),
    ("vqe", 10),
    ("tsp", 9),
    ("routing", 6),
    ("qnn", 10),
    ("qft", 12),
];

const FLEET_PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

const WHY: [&str; 5] = [
    "compile-bound: fusion and DD-to-ELL conversion are over 60% of a one-batch cold campaign",
    "load-bound: same circuits on a warm store, so process start, artifact load and first sweep remain",
    "kernel-bound: long campaigns on large planes, spMM is most of run time and compile is zero",
    "per-batch-bound: 64-row planes, so task graph, pool, checksum and journal dominate the kernels",
    "service path: admission, fair-share picks, two device workers, per-submission journals",
];

fn spec(family: &str, qubits: usize, batches: usize, batch_size: usize, seed: u64) -> SubmitSpec {
    SubmitSpec {
        tenant: "bench".to_string(),
        id: format!("{family}-{qubits}"),
        family: family.to_string(),
        qubits,
        batches,
        batch_size,
        seed,
        fault_seed: None,
        priority: Priority::Normal,
        precision: Precision::F64,
        deadline_ms: None,
    }
}

fn campaign(spec: SubmitSpec, full_state: bool, store: Store, role: Role) -> Op {
    let first = if role == Role::Ttfb { "/first" } else { "" };
    Op {
        label: format!("{}{first}", spec.id),
        action: Action::Campaign {
            spec,
            full_state,
            store,
        },
        role,
    }
}

/// A long warm campaign followed by its one-batch twin.
fn long_and_first(long: SubmitSpec, full_state: bool) -> [Op; 2] {
    let first = SubmitSpec {
        batches: 1,
        ..long.clone()
    };
    [
        campaign(long, full_state, Store::Warm, Role::Throughput),
        campaign(first, full_state, Store::Warm, Role::Ttfb),
    ]
}

fn fleet_specs(batches: usize, seed: u64) -> Vec<SubmitSpec> {
    FLEET_CIRCUITS
        .iter()
        .enumerate()
        .map(|(i, &(family, qubits))| SubmitSpec {
            tenant: format!("t{}", i % 4),
            id: format!("j{i}"),
            priority: FLEET_PRIORITIES[i % 3],
            ..spec(family, qubits, batches, 32, seed)
        })
        .collect()
}

/// Builds the named workload for `seed`; `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let index = NAMES.iter().position(|n| *n == name)?;
    let starts = |store| {
        START_CIRCUITS
            .iter()
            .map(|&(f, n)| campaign(spec(f, n, 1, 32, seed), true, store, Role::Both))
            .collect()
    };
    let ops: Vec<Op> = match name {
        "cold_start" => starts(Store::Fresh),
        "warm_start" => starts(Store::Warm),
        "sweep" => SWEEP_CAMPAIGNS
            .iter()
            .flat_map(|&(f, n, batches)| long_and_first(spec(f, n, batches, 32, seed), false))
            .collect(),
        "small_batches" => long_and_first(spec("routing", 6, 4000, 64, seed), true).into(),
        "fleet" => [(12, Role::Throughput), (1, Role::Ttfb)]
            .into_iter()
            .map(|(batches, role)| Op {
                label: if role == Role::Ttfb {
                    "session/first"
                } else {
                    "session"
                }
                .to_string(),
                action: Action::Fleet {
                    specs: fleet_specs(batches, seed),
                },
                role,
            })
            .collect(),
        _ => unreachable!("NAMES lists every workload"),
    };
    Some(Workload {
        name: NAMES[index],
        why: WHY[index],
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_feeds_both_timing_metrics_and_validates() {
        for name in NAMES {
            let w = workload(name, 7).unwrap();
            assert!(w.ops.iter().any(Op::feeds_ttfb), "{name} has no ttfb op");
            assert!(
                w.ops.iter().any(Op::feeds_throughput),
                "{name} has no throughput op"
            );
            for op in &w.ops {
                for s in op.specs() {
                    s.validate().unwrap();
                    assert_eq!(s.seed, 7);
                    if op.role != Role::Throughput {
                        assert_eq!(s.batches, 1, "{name}/{} is not one batch", op.label);
                    }
                }
            }
        }
        assert!(workload("nope", 7).is_none());
    }

    #[test]
    fn fleet_repeats_one_circuit_across_tenants() {
        let w = workload("fleet", 1).unwrap();
        let specs = w.ops[0].specs();
        assert_eq!(specs.len(), 12);
        assert_eq!((specs[0].family.as_str(), specs[0].qubits), ("qft", 12));
        assert_eq!((specs[11].family.as_str(), specs[11].qubits), ("qft", 12));
        assert_ne!(specs[0].tenant, specs[11].tenant);
        assert_eq!(w.ops[0].states(), 12 * 12 * 32);
    }
}
