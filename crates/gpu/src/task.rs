//! Kernels, copy tasks, and the task graph.

use crate::memory::{BufferId, DeviceMemory, HostBufId};
use core::fmt;
use std::sync::Arc;

/// Cost profile of one kernel launch, consumed by the engine's analytic
/// timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Arithmetic work (real FLOPs; one complex MAC ≈ 8).
    pub flops: u64,
    /// Bytes read from device memory.
    pub bytes_read: u64,
    /// Bytes written to device memory.
    pub bytes_written: u64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Multiplier ≥ 1 on compute time modelling warp divergence and
    /// irregular access (1 = perfectly regular, as ELL spMM; DD-walking
    /// kernels report larger values derived from their DFS step counts).
    pub divergence: f64,
}

impl KernelProfile {
    /// A profile with no work (useful as a builder seed in tests).
    pub fn empty() -> Self {
        KernelProfile {
            flops: 0,
            bytes_read: 0,
            bytes_written: 0,
            blocks: 1,
            threads_per_block: 1,
            divergence: 1.0,
        }
    }
}

/// A device kernel: an analytic cost profile plus functional semantics.
///
/// Implementations live next to their data structures (ELL spMM in
/// `bqsim-core`, batched dense apply in `bqsim-baselines`, …); the engine
/// only needs this interface, mirroring how a CUDA runtime treats kernels
/// as opaque launchables.
pub trait Kernel: Send + Sync {
    /// Kernel name for timelines and error messages.
    fn name(&self) -> &str;

    /// The cost profile of one launch.
    fn profile(&self) -> KernelProfile;

    /// Functional execution against device memory. Only called in
    /// [`ExecMode::Functional`](crate::ExecMode::Functional); timing-only
    /// runs skip it.
    ///
    /// Takes the arena by shared reference: buffers are acquired through
    /// [`DeviceMemory::buffer`] / [`DeviceMemory::buffer_mut`] guards, so a
    /// kernel can hold its input and output at once. The engine calls
    /// kernels one at a time, in the order of its scheduling sweep; host
    /// parallelism lives above the engine (the executor's state lanes each
    /// sweep their own graph) or inside a kernel.
    fn execute(&self, mem: &DeviceMemory);

    /// Device buffers [`Kernel::execute`] reads. The default (empty)
    /// implementation declares nothing, which makes the kernel invisible
    /// to static race analysis — override it for any kernel that touches
    /// shared state buffers.
    fn buffer_reads(&self) -> Vec<BufferId> {
        Vec::new()
    }

    /// Device buffers [`Kernel::execute`] writes. See
    /// [`Kernel::buffer_reads`].
    fn buffer_writes(&self) -> Vec<BufferId> {
        Vec::new()
    }
}

/// Identifier of a task inside a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// The task's insertion index in its graph.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The kind of work a task performs.
pub enum TaskKind {
    /// Host→device copy of `bytes` bytes.
    H2D {
        /// Source host buffer.
        host: HostBufId,
        /// Destination device buffer.
        dev: BufferId,
        /// Payload size in bytes (drives the timing model).
        bytes: u64,
    },
    /// Device→host copy of `bytes` bytes.
    D2H {
        /// Source device buffer.
        dev: BufferId,
        /// Destination host buffer.
        host: HostBufId,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A kernel launch.
    Kernel(Arc<dyn Kernel>),
}

impl fmt::Debug for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::H2D { bytes, .. } => write!(f, "H2D({bytes}B)"),
            TaskKind::D2H { bytes, .. } => write!(f, "D2H({bytes}B)"),
            TaskKind::Kernel(k) => write!(f, "Kernel({})", k.name()),
        }
    }
}

pub(crate) struct Task {
    pub kind: TaskKind,
    pub label: String,
    pub preds: Vec<TaskId>,
}

/// A dependency graph of kernels and copies — the paper's §3.3 structure,
/// analogous to a captured CUDA Graph.
///
/// Tasks are added with explicit predecessor lists; the engine schedules
/// them onto the device's compute and copy engines respecting both
/// dependencies and per-engine serialisation.
#[derive(Default)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a host→device copy.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor id is out of range.
    pub fn add_h2d(
        &mut self,
        label: impl Into<String>,
        host: HostBufId,
        dev: BufferId,
        bytes: u64,
        preds: &[TaskId],
    ) -> TaskId {
        self.push(TaskKind::H2D { host, dev, bytes }, label.into(), preds)
    }

    /// Adds a device→host copy.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor id is out of range.
    pub fn add_d2h(
        &mut self,
        label: impl Into<String>,
        dev: BufferId,
        host: HostBufId,
        bytes: u64,
        preds: &[TaskId],
    ) -> TaskId {
        self.push(TaskKind::D2H { dev, host, bytes }, label.into(), preds)
    }

    /// Adds a kernel launch.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor id is out of range.
    pub fn add_kernel(
        &mut self,
        label: impl Into<String>,
        kernel: Arc<dyn Kernel>,
        preds: &[TaskId],
    ) -> TaskId {
        self.push(TaskKind::Kernel(kernel), label.into(), preds)
    }

    fn push(&mut self, kind: TaskKind, label: String, preds: &[TaskId]) -> TaskId {
        for p in preds {
            assert!(p.0 < self.tasks.len(), "predecessor {p:?} not yet added");
        }
        self.tasks.push(Task {
            kind,
            label,
            preds: preds.to_vec(),
        });
        TaskId(self.tasks.len() - 1)
    }

    /// The label of a task.
    pub fn label(&self, id: TaskId) -> &str {
        &self.tasks[id.0].label
    }

    /// The predecessors of a task.
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        &self.tasks[id.0].preds
    }

    /// The kind of work a task performs (introspection for analyzers).
    pub fn kind(&self, id: TaskId) -> &TaskKind {
        &self.tasks[id.0].kind
    }

    /// Iterates over all task ids in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }
}

impl fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TaskGraph ({} tasks)", self.tasks.len())?;
        for (i, t) in self.tasks.iter().enumerate() {
            writeln!(f, "  [{i}] {:?} '{}' preds={:?}", t.kind, t.label, t.preds)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NopKernel;
    impl Kernel for NopKernel {
        fn name(&self) -> &str {
            "nop"
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile::empty()
        }
        fn execute(&self, _mem: &DeviceMemory) {}
    }

    #[test]
    fn build_graph_with_dependencies() {
        let mut g = TaskGraph::new();
        let mut host = crate::HostMemory::new();
        let h = host.alloc_zeroed(8);
        let spec = crate::DeviceSpec::tiny_test_gpu();
        let mut mem = crate::DeviceMemory::new(&spec);
        let d = mem.alloc(8).unwrap();

        let a = g.add_h2d("up", h, d, 128, &[]);
        let b = g.add_kernel("k", Arc::new(NopKernel), &[a]);
        let c = g.add_d2h("down", d, h, 128, &[b]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.preds(c), &[b]);
        assert_eq!(g.label(a), "up");
        let dbg = format!("{g:?}");
        assert!(dbg.contains("Kernel(nop)"));
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        let mut host = crate::HostMemory::new();
        let h = host.alloc_zeroed(1);
        let spec = crate::DeviceSpec::tiny_test_gpu();
        let mut mem = crate::DeviceMemory::new(&spec);
        let d = mem.alloc(1).unwrap();
        g.add_h2d("bad", h, d, 16, &[TaskId(5)]);
    }
}
