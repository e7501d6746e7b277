//! Fault taxonomy and deterministic, seeded fault plans.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One kind of injected fault, with its deterministic trigger site.
///
/// Task sites count *first-attempt* task executions on a device in issue
/// order (retries of a task do not advance the count); allocation sites
/// count calls into the device allocator (`alloc` and `reserve_bytes`
/// both advance it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient kernel fault (the launch reports an error at
    /// completion): detected, output discarded, task eligible for retry.
    KernelFault {
        /// Index of the targeted task execution on the device.
        task: usize,
    },
    /// ECC-style corruption of a copy payload: detected at the end of the
    /// transfer, destination discarded, task eligible for retry.
    CopyCorruption {
        /// Index of the targeted task execution on the device.
        task: usize,
    },
    /// The task hangs: it takes `stall_ns` longer than modeled. If the
    /// recovery policy's watchdog deadline fires first the task is killed
    /// and retried; otherwise it completes late (a straggler).
    Hang {
        /// Index of the targeted task execution on the device.
        task: usize,
        /// Extra virtual nanoseconds the task stalls for.
        stall_ns: u64,
    },
    /// Out-of-memory at the `alloc`-th device allocation, regardless of
    /// free capacity — models fragmentation and external memory pressure.
    Oom {
        /// Index of the targeted allocation on the device.
        alloc: usize,
    },
    /// Whole-device loss: from the `at_task`-th task execution onward the
    /// device answers nothing.
    DeviceLoss {
        /// Index of the task execution at which the device disappears.
        at_task: usize,
    },
}

impl FaultKind {
    /// The task-execution index this fault targets, for task-site faults.
    pub fn task_index(&self) -> Option<usize> {
        match *self {
            FaultKind::KernelFault { task }
            | FaultKind::CopyCorruption { task }
            | FaultKind::Hang { task, .. } => Some(task),
            FaultKind::Oom { .. } | FaultKind::DeviceLoss { .. } => None,
        }
    }

    /// Whether the fault is transient: absorbed by retrying the one task
    /// it hits (kernel fault, copy corruption, hang).
    pub fn is_transient(&self) -> bool {
        self.task_index().is_some()
    }

    /// Short taxonomy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::KernelFault { .. } => "kernel-fault",
            FaultKind::CopyCorruption { .. } => "copy-corruption",
            FaultKind::Hang { .. } => "hang",
            FaultKind::Oom { .. } => "oom",
            FaultKind::DeviceLoss { .. } => "device-loss",
        }
    }
}

/// How many faults of each kind [`FaultPlan::seeded`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultBudget {
    /// Transient kernel faults.
    pub kernel_faults: usize,
    /// ECC-style copy corruptions.
    pub copy_corruptions: usize,
    /// Hangs (stragglers or watchdog kills, depending on the policy).
    pub hangs: usize,
    /// Injected allocation failures.
    pub ooms: usize,
    /// Device losses (at most one is generated).
    pub device_losses: usize,
}

impl FaultBudget {
    /// A transient-only budget (kernel faults, copy corruptions, hangs).
    pub fn transient(kernel_faults: usize, copy_corruptions: usize, hangs: usize) -> Self {
        FaultBudget {
            kernel_faults,
            copy_corruptions,
            hangs,
            ..FaultBudget::default()
        }
    }

    /// Total number of faults in the budget.
    pub fn total(&self) -> usize {
        self.kernel_faults + self.copy_corruptions + self.hangs + self.ooms + self.device_losses
    }
}

/// A deterministic list of faults to inject into a run on its one device.
///
/// Plans are plain data: the same plan against the same compiled pipeline
/// injects the same faults at the same virtual times, every time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultKind>,
}

/// A hang injected by [`FaultPlan::seeded`] stalls by one of these two
/// amounts: the short one completes late under the default watchdog (a
/// straggler), the long one trips it (kill + retry).
pub(crate) const SEEDED_SHORT_STALL_NS: u64 = 1_000_000;
pub(crate) const SEEDED_LONG_STALL_NS: u64 = 60_000_000;

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one fault.
    pub fn push(&mut self, kind: FaultKind) -> &mut Self {
        self.faults.push(kind);
        self
    }

    /// All faults, in injection-priority order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether every fault in the plan is transient (absorbed by retries).
    pub fn is_transient(&self) -> bool {
        self.faults.iter().all(FaultKind::is_transient)
    }

    /// The task index at which the device is lost, if the plan loses it.
    pub fn device_loss_at(&self) -> Option<usize> {
        self.faults.iter().find_map(|s| match *s {
            FaultKind::DeviceLoss { at_task } => Some(at_task),
            _ => None,
        })
    }

    /// Allocation indices that must fail with OOM.
    pub fn oom_allocs(&self) -> Vec<usize> {
        self.faults
            .iter()
            .filter_map(|s| match *s {
                FaultKind::Oom { alloc } => Some(alloc),
                _ => None,
            })
            .collect()
    }

    /// Generates a deterministic plan from a seed.
    ///
    /// Task-site faults target *distinct* task indices in `0..tasks` (so a
    /// policy with `max_retries >= 1` absorbs every transient fault),
    /// allocation faults target indices in `0..allocs`, and at most one
    /// device loss is generated. Budgets that exceed the available
    /// distinct sites are clamped.
    pub fn seeded(seed: u64, tasks: usize, allocs: usize, budget: &FaultBudget) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x000F_A017_5EED);
        let mut plan = FaultPlan::new();
        let wanted = budget.kernel_faults + budget.copy_corruptions + budget.hangs;
        let mut targets: Vec<usize> = Vec::with_capacity(wanted.min(tasks));
        while targets.len() < wanted.min(tasks) {
            let t = rng.gen_range(0..tasks.max(1));
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        let mut targets = targets.into_iter();
        for _ in 0..budget.kernel_faults {
            if let Some(task) = targets.next() {
                plan.push(FaultKind::KernelFault { task });
            }
        }
        for _ in 0..budget.copy_corruptions {
            if let Some(task) = targets.next() {
                plan.push(FaultKind::CopyCorruption { task });
            }
        }
        for _ in 0..budget.hangs {
            if let Some(task) = targets.next() {
                let stall_ns = if rng.gen_range(0u8..2) == 0 {
                    SEEDED_SHORT_STALL_NS
                } else {
                    SEEDED_LONG_STALL_NS
                };
                plan.push(FaultKind::Hang { task, stall_ns });
            }
        }
        for _ in 0..budget.ooms {
            if allocs > 0 {
                let alloc = rng.gen_range(0..allocs);
                plan.push(FaultKind::Oom { alloc });
            }
        }
        if budget.device_losses > 0 {
            let at_task = rng.gen_range(0..tasks.max(1));
            plan.push(FaultKind::DeviceLoss { at_task });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_distinct_per_seed() {
        let budget = FaultBudget::transient(2, 2, 1);
        let a = FaultPlan::seeded(7, 40, 6, &budget);
        let b = FaultPlan::seeded(7, 40, 6, &budget);
        let c = FaultPlan::seeded(8, 40, 6, &budget);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5);
        assert!(a.is_transient());
    }

    #[test]
    fn seeded_plans_do_not_move() {
        let transient = FaultPlan::seeded(7, 40, 5, &FaultBudget::transient(2, 1, 2));
        assert_eq!(
            transient.faults(),
            vec![
                FaultKind::KernelFault { task: 30 },
                FaultKind::KernelFault { task: 14 },
                FaultKind::CopyCorruption { task: 13 },
                FaultKind::Hang {
                    task: 23,
                    stall_ns: SEEDED_SHORT_STALL_NS
                },
                FaultKind::Hang {
                    task: 12,
                    stall_ns: SEEDED_SHORT_STALL_NS
                },
            ]
        );
        let budget = FaultBudget {
            ooms: 1,
            device_losses: 1,
            ..FaultBudget::transient(1, 1, 1)
        };
        assert_eq!(
            FaultPlan::seeded(12, 28, 5, &budget).faults(),
            vec![
                FaultKind::KernelFault { task: 6 },
                FaultKind::CopyCorruption { task: 26 },
                FaultKind::Hang {
                    task: 25,
                    stall_ns: SEEDED_SHORT_STALL_NS
                },
                FaultKind::Oom { alloc: 0 },
                FaultKind::DeviceLoss { at_task: 15 },
            ]
        );
    }

    #[test]
    fn seeded_transient_targets_are_distinct_tasks() {
        for seed in 0..32 {
            let plan = FaultPlan::seeded(seed, 20, 4, &FaultBudget::transient(3, 3, 2));
            let mut tasks: Vec<usize> = plan
                .faults()
                .iter()
                .filter_map(FaultKind::task_index)
                .collect();
            let before = tasks.len();
            tasks.sort_unstable();
            tasks.dedup();
            assert_eq!(tasks.len(), before, "seed {seed}: duplicate task targets");
            assert!(tasks.iter().all(|&t| t < 20));
        }
    }

    #[test]
    fn seeded_device_loss_is_generated_at_most_once() {
        let budget = FaultBudget {
            device_losses: 3,
            ..FaultBudget::default()
        };
        let plan = FaultPlan::seeded(3, 10, 4, &budget);
        assert_eq!(plan.len(), 1);
        assert!(plan.device_loss_at().is_some_and(|t| t < 10));
        assert!(!plan.is_transient());
    }

    #[test]
    fn site_accessors_read_their_kind() {
        let mut plan = FaultPlan::new();
        plan.push(FaultKind::Oom { alloc: 2 })
            .push(FaultKind::KernelFault { task: 1 })
            .push(FaultKind::Oom { alloc: 5 });
        assert_eq!(plan.oom_allocs(), vec![2, 5]);
        assert_eq!(plan.device_loss_at(), None);
        plan.push(FaultKind::DeviceLoss { at_task: 3 });
        assert_eq!(plan.device_loss_at(), Some(3));
    }

    #[test]
    fn budget_clamps_to_available_sites() {
        let plan = FaultPlan::seeded(1, 3, 2, &FaultBudget::transient(5, 5, 5));
        // Only 3 distinct task sites exist.
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn kind_names_cover_taxonomy() {
        assert_eq!(FaultKind::KernelFault { task: 0 }.name(), "kernel-fault");
        assert_eq!(
            FaultKind::CopyCorruption { task: 0 }.name(),
            "copy-corruption"
        );
        assert_eq!(
            FaultKind::Hang {
                task: 0,
                stall_ns: 1
            }
            .name(),
            "hang"
        );
        assert_eq!(FaultKind::Oom { alloc: 0 }.name(), "oom");
        assert_eq!(FaultKind::DeviceLoss { at_task: 0 }.name(), "device-loss");
        assert!(!FaultKind::Oom { alloc: 0 }.is_transient());
    }
}
