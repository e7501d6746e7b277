//! The runtime view of a fault plan.

use crate::plan::{FaultKind, FaultPlan};

/// Pure lookup of which faults strike which task executions.
///
/// Built once per run from a [`FaultPlan`]; the engine queries it by
/// first-attempt task-execution index, which makes exactly-once injection
/// structural (the engine visits each index exactly once). Allocation
/// (OOM) faults are *not* served by the injector — they are armed on the
/// device allocator directly, where the allocation sequence lives.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    /// `(task_index, kind)` for transient task-site faults, plan order.
    task_faults: Vec<(usize, FaultKind)>,
    device_loss_at: Option<usize>,
}

impl FaultInjector {
    /// An injector that never fires (fault-free execution).
    pub fn none() -> Self {
        FaultInjector::default()
    }

    /// The task-site faults and device loss of `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            task_faults: plan
                .faults()
                .iter()
                .filter_map(|&kind| Some((kind.task_index()?, kind)))
                .collect(),
            device_loss_at: plan.device_loss_at(),
        }
    }

    /// Whether this injector can fire at all (task faults or device loss;
    /// OOM traps live on the allocator and are not visible here).
    pub fn has_faults(&self) -> bool {
        !self.task_faults.is_empty() || self.device_loss_at.is_some()
    }

    /// Faults striking the `index`-th task execution, in plan order. Each
    /// returned fault consumes one attempt: a task hit by two faults
    /// fails its first two attempts and succeeds on the third.
    pub fn faults_for_task(&self, index: usize) -> Vec<FaultKind> {
        self.task_faults
            .iter()
            .filter(|(task, _)| *task == index)
            .map(|(_, kind)| *kind)
            .collect()
    }

    /// Task-execution index at which the device is lost, if any.
    pub fn device_loss_at(&self) -> Option<usize> {
        self.device_loss_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    #[test]
    fn injector_preserves_plan_order() {
        let mut plan = FaultPlan::new();
        plan.push(FaultKind::KernelFault { task: 2 })
            .push(FaultKind::CopyCorruption { task: 4 })
            .push(FaultKind::CopyCorruption { task: 2 })
            .push(FaultKind::Oom { alloc: 1 })
            .push(FaultKind::DeviceLoss { at_task: 5 });

        let inj = FaultInjector::new(&plan);
        assert!(inj.has_faults());
        assert_eq!(
            inj.faults_for_task(2),
            vec![
                FaultKind::KernelFault { task: 2 },
                FaultKind::CopyCorruption { task: 2 }
            ]
        );
        assert_eq!(inj.faults_for_task(4).len(), 1);
        assert!(inj.faults_for_task(3).is_empty());
        assert_eq!(inj.device_loss_at(), Some(5));
    }

    #[test]
    fn none_never_fires() {
        let inj = FaultInjector::none();
        assert!(!inj.has_faults());
        assert!(inj.faults_for_task(0).is_empty());
        assert_eq!(inj.device_loss_at(), None);
    }
}
