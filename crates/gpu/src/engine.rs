//! Event-driven scheduler: maps a task graph onto the device's compute and
//! DMA engines and produces a timeline.

use crate::device::DeviceSpec;
use crate::memory::{DeviceMemory, HostMemory};
use crate::task::{Task, TaskGraph, TaskId, TaskKind};
use bqsim_faults::{CancelToken, FaultEvent, FaultInjector, FaultKind, RecoveryPolicy, Resolution};
use bqsim_num::Complex;

/// How the task graph is launched on the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMode {
    /// Each task is issued individually on one in-order stream: full
    /// per-kernel launch overhead, **no** copy/compute overlap. This is the
    /// execution model BQSim's task graph replaces (ablation of Fig. 13).
    Stream,
    /// CUDA-Graph-style execution: one launch overhead for the whole graph,
    /// small per-task overhead, and copies overlap kernels on independent
    /// DMA engines (§3.3).
    Graph,
}

/// Whether kernels actually compute on buffer data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Only simulate time; kernel bodies and copies are skipped. Used for
    /// large-circuit experiments where amplitudes are not inspected.
    TimingOnly,
    /// Move data and run kernel bodies so host output buffers hold real
    /// amplitudes (used by all validation tests).
    Functional,
}

/// The execution engines of the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Kernel execution.
    Compute,
    /// Host→device DMA engine.
    CopyH2D,
    /// Device→host DMA engine.
    CopyD2H,
}

impl Resource {
    fn index(self) -> usize {
        match self {
            Resource::Compute => 0,
            Resource::CopyH2D => 1,
            Resource::CopyD2H => 2,
        }
    }
}

/// How one scheduled attempt of a task ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The attempt ran to completion (possibly late, for a straggler).
    Completed,
    /// The attempt failed with an injected kernel fault or copy
    /// corruption; its output was discarded.
    Faulted,
    /// The watchdog killed the attempt past its deadline.
    TimedOut,
    /// The task never ran: its device was lost, a predecessor failed
    /// permanently, or its own retries were exhausted earlier.
    Abandoned,
}

/// One scheduled task occurrence.
///
/// Under fault injection a task can appear several times — one record per
/// attempt — so Gantt output and utilization stay truthful about recovery
/// work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRecord {
    /// The task.
    pub task: TaskId,
    /// Task label (copied from the graph).
    pub label: String,
    /// Engine the task ran on.
    pub resource: Resource,
    /// Start time, ns of virtual device time.
    pub start_ns: u64,
    /// End time, ns.
    pub end_ns: u64,
    /// Attempt number (0 = first try; retries count up).
    pub attempt: u32,
    /// How this attempt ended.
    pub outcome: TaskOutcome,
}

/// The schedule produced by [`Engine::run`].
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    records: Vec<TaskRecord>,
    total_ns: u64,
    busy_ns: [u64; 3],
    kernel_flops: u64,
    kernel_bytes: u64,
}

impl Timeline {
    /// Wall time of the whole schedule in virtual nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Wall time in virtual milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Busy nanoseconds of one engine.
    pub fn busy_ns(&self, r: Resource) -> u64 {
        self.busy_ns[r.index()]
    }

    /// Busy fraction of one engine over the schedule length.
    pub fn utilization(&self, r: Resource) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.busy_ns(r) as f64 / self.total_ns as f64
        }
    }

    /// All task records in schedule order.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Total arithmetic work (FLOPs) executed by all kernels — drives the
    /// dynamic-power model (more redundant work → more power, Fig. 11).
    pub fn kernel_flops(&self) -> u64 {
        self.kernel_flops
    }

    /// Total device-memory traffic (bytes) of all kernels.
    pub fn kernel_bytes(&self) -> u64 {
        self.kernel_bytes
    }

    /// Nanoseconds during which a copy engine and the compute engine were
    /// simultaneously busy — a direct measure of the overlap the task graph
    /// buys (§3.3).
    pub fn overlap_ns(&self) -> u64 {
        // Sweep compute intervals against copy intervals.
        let computes: Vec<(u64, u64)> = self
            .records
            .iter()
            .filter(|r| r.resource == Resource::Compute)
            .map(|r| (r.start_ns, r.end_ns))
            .collect();
        let copies: Vec<(u64, u64)> = self
            .records
            .iter()
            .filter(|r| r.resource != Resource::Compute)
            .map(|r| (r.start_ns, r.end_ns))
            .collect();
        let mut overlap = 0u64;
        for &(cs, ce) in &computes {
            for &(ps, pe) in &copies {
                let s = cs.max(ps);
                let e = ce.min(pe);
                if e > s {
                    overlap += e - s;
                }
            }
        }
        overlap
    }

    /// Renders the schedule as an ASCII Gantt chart with one lane per
    /// engine, `width` characters across the whole run.
    ///
    /// ```text
    /// compute |   ██████░░████████
    /// h2d     |███      ███
    /// d2h     |        ███      ███
    /// ```
    ///
    /// Intended for debugging and documentation; alternating shades mark
    /// adjacent tasks on the same engine.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let total = self.total_ns.max(1);
        let mut lanes = [vec![' '; width], vec![' '; width], vec![' '; width]];
        for (i, r) in self.records.iter().enumerate() {
            if r.outcome == TaskOutcome::Abandoned {
                continue;
            }
            let lane = &mut lanes[r.resource.index()];
            let a = (r.start_ns as u128 * width as u128 / total as u128) as usize;
            let b = ((r.end_ns as u128 * width as u128).div_ceil(total as u128) as usize)
                .clamp(a + 1, width);
            // Failed attempts are marked distinctly so recovery work is
            // visible in the chart.
            let ch = match r.outcome {
                TaskOutcome::Completed => {
                    if i % 2 == 0 {
                        '█'
                    } else {
                        '░'
                    }
                }
                _ => 'x',
            };
            for cell in lane[a..b].iter_mut() {
                *cell = ch;
            }
        }
        let mut out = String::new();
        for (label, lane) in ["compute", "h2d    ", "d2h    "].iter().zip(&lanes) {
            out.push_str(label);
            out.push_str(" |");
            out.extend(lane.iter());
            out.push('\n');
        }
        out
    }
}

/// The simulated device's execution engine.
///
/// Copy/compute overlap is a property of the virtual-time schedule the
/// sweep computes; on the host, functional effects are applied inline in
/// sweep order. Host parallelism, where it pays, lives above the engine:
/// the executor's state lanes each sweep their own graph.
#[derive(Debug, Clone)]
pub struct Engine {
    spec: DeviceSpec,
}

impl Engine {
    /// Creates an engine for a device.
    pub fn new(spec: DeviceSpec) -> Self {
        Engine { spec }
    }

    /// The device spec this engine models.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Duration of one task in nanoseconds under `mode`.
    pub fn task_duration_ns(&self, graph: &TaskGraph, id: TaskId, mode: LaunchMode) -> u64 {
        let spec = &self.spec;
        match &graph.tasks[id.0].kind {
            TaskKind::H2D { bytes, .. } => {
                spec.copy_setup_ns + (*bytes as f64 / spec.pcie_bytes_per_ns(true)).ceil() as u64
            }
            TaskKind::D2H { bytes, .. } => {
                spec.copy_setup_ns + (*bytes as f64 / spec.pcie_bytes_per_ns(false)).ceil() as u64
            }
            TaskKind::Kernel(k) => {
                let p = k.profile();
                let overhead = match mode {
                    LaunchMode::Stream => spec.kernel_launch_overhead_ns,
                    LaunchMode::Graph => spec.graph_task_overhead_ns,
                };
                let total_lanes = (spec.num_sms * spec.lanes_per_sm) as f64;
                let launched = (p.blocks as f64 * p.threads_per_block as f64).max(1.0);
                let occupancy = (launched / total_lanes).min(1.0).max(1.0 / total_lanes);
                let compute_ns =
                    p.flops as f64 / (spec.flops_per_ns() * occupancy) * p.divergence.max(1.0);
                let mem_ns = (p.bytes_read + p.bytes_written) as f64 / spec.mem_bytes_per_ns();
                overhead + compute_ns.max(mem_ns).ceil() as u64
            }
        }
    }

    /// Schedules (and in [`ExecMode::Functional`] executes) the task graph.
    ///
    /// Tasks must be added in a topological order (enforced by
    /// [`TaskGraph`]'s constructors). In [`LaunchMode::Graph`] each task
    /// runs on its engine, serialised per engine, starting when its
    /// predecessors finish; in [`LaunchMode::Stream`] every task runs
    /// back-to-back on a single logical queue.
    pub fn run(
        &self,
        graph: &TaskGraph,
        mem: &mut DeviceMemory,
        host: &mut HostMemory,
        mode: LaunchMode,
        exec: ExecMode,
    ) -> Timeline {
        self.run_faulted(
            graph,
            mem,
            host,
            mode,
            exec,
            &FaultInjector::none(),
            &RecoveryPolicy::no_recovery(),
        )
        .timeline
    }

    /// [`Engine::run`] with fault injection and recovery.
    ///
    /// The schedule is identical to the fault-free one except where the
    /// injector fires: a faulted attempt occupies its engine for the time
    /// it ran (full duration for kernel faults and copy corruption, the
    /// watchdog deadline for a killed hang), the retry waits out the
    /// policy's backoff in virtual time, and every attempt lands in the
    /// timeline as its own [`TaskRecord`]. In
    /// [`ExecMode::Functional`] a failed attempt poisons its destination
    /// buffers with NaN before the retry overwrites them, so recovered
    /// outputs being bit-identical is a real property, not an accident of
    /// skipping the fault.
    ///
    /// Tasks whose retries are exhausted fail permanently; their
    /// dependents (and every task from a device-loss point onward) are
    /// recorded as [`TaskOutcome::Abandoned`] with zero duration. With
    /// [`FaultInjector::none`] this is exactly [`Engine::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_faulted(
        &self,
        graph: &TaskGraph,
        mem: &mut DeviceMemory,
        host: &mut HostMemory,
        mode: LaunchMode,
        exec: ExecMode,
        injector: &FaultInjector,
        policy: &RecoveryPolicy,
    ) -> FaultedRun {
        self.run_faulted_cancellable(
            graph,
            mem,
            host,
            mode,
            exec,
            injector,
            policy,
            &CancelToken::new(),
        )
    }

    /// [`Engine::run_faulted`] with a cooperative [`CancelToken`] polled at
    /// every task boundary of the scheduling sweep.
    ///
    /// When the token fires, the sweep stops scheduling: the current task
    /// and everything after it are recorded as
    /// [`TaskOutcome::Abandoned`], [`FaultedRun::cancelled_at`] names the
    /// first unscheduled task, and — in functional mode — **no** effects
    /// are applied for the cancelled region, so host memory never holds a
    /// half-written batch. Callers are expected to discard the partial
    /// outputs of a cancelled run (the campaign runner re-runs those
    /// batches on resume). With a never-firing token this is exactly
    /// [`Engine::run_faulted`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_faulted_cancellable(
        &self,
        graph: &TaskGraph,
        mem: &mut DeviceMemory,
        host: &mut HostMemory,
        mode: LaunchMode,
        exec: ExecMode,
        injector: &FaultInjector,
        policy: &RecoveryPolicy,
        cancel: &CancelToken,
    ) -> FaultedRun {
        let n = graph.tasks.len();
        let start0 = match mode {
            LaunchMode::Graph => self.spec.graph_launch_overhead_ns,
            LaunchMode::Stream => 0,
        };
        let mut engine_free = [start0; 3];
        let mut stream_free = start0;
        let mut finish = vec![0u64; n];
        let mut dead = vec![false; n];
        let mut timeline = Timeline::default();
        let mut run = FaultedRun::default();
        let device = bqsim_faults::DEVICE;
        let mut lost_ns: Option<u64> = None;

        for (i, task) in graph.tasks.iter().enumerate() {
            let id = TaskId(i);
            // Cooperative cancellation, checked once per task boundary:
            // everything from the first task that observes a fired token is
            // abandoned, never executed, and the caller is told where the
            // sweep stopped.
            if run.cancelled_at.is_none() && cancel.is_cancelled() {
                run.cancelled_at = Some(id);
            }
            let resource = match &task.kind {
                TaskKind::H2D { .. } => Resource::CopyH2D,
                TaskKind::D2H { .. } => Resource::CopyD2H,
                TaskKind::Kernel(_) => Resource::Compute,
            };
            let ready = task
                .preds
                .iter()
                .map(|p| finish[p.0])
                .max()
                .unwrap_or(start0);

            if lost_ns.is_none() && injector.device_loss_at() == Some(i) {
                let at_ns = ready.max(match mode {
                    LaunchMode::Graph => engine_free[resource.index()],
                    LaunchMode::Stream => stream_free,
                });
                lost_ns = Some(at_ns);
                run.device_lost_at = Some((id, at_ns));
                run.events.push(FaultEvent {
                    device,
                    kind: FaultKind::DeviceLoss { at_task: i },
                    label: task.label.clone(),
                    attempt: 0,
                    at_ns,
                    resolution: Resolution::DeviceLost,
                });
            }

            if run.cancelled_at.is_some()
                || lost_ns.is_some()
                || task.preds.iter().any(|p| dead[p.0])
            {
                dead[i] = true;
                let at = ready.max(lost_ns.unwrap_or(0));
                finish[i] = at;
                run.abandoned.push(id);
                timeline.total_ns = timeline.total_ns.max(at);
                timeline.records.push(TaskRecord {
                    task: id,
                    label: task.label.clone(),
                    resource,
                    start_ns: at,
                    end_ns: at,
                    attempt: 0,
                    outcome: TaskOutcome::Abandoned,
                });
                continue;
            }

            let faults = injector.faults_for_task(i);
            let base_dur = self.task_duration_ns(graph, id, mode);
            let mut free = match mode {
                LaunchMode::Graph => engine_free[resource.index()],
                LaunchMode::Stream => stream_free,
            };
            let mut attempt: u32 = 0;
            let resource_end;

            loop {
                let start = ready.max(free);
                // Each pending fault consumes one attempt, in plan order.
                let fault = faults.get(attempt as usize).copied();

                // A hang that fits under the watchdog slack is not a
                // failure — it completes late as a straggler.
                let straggler_stall = match fault {
                    Some(FaultKind::Hang { stall_ns, .. }) => match policy.watchdog_ns {
                        Some(slack) if stall_ns > slack => None,
                        _ => Some(stall_ns),
                    },
                    _ => None,
                };

                if fault.is_none() || straggler_stall.is_some() {
                    let dur = base_dur + straggler_stall.unwrap_or(0);
                    let end = start + dur;
                    finish[i] = end;
                    resource_end = end;
                    timeline.busy_ns[resource.index()] += dur;
                    if let TaskKind::Kernel(k) = &task.kind {
                        let p = k.profile();
                        timeline.kernel_flops += p.flops;
                        timeline.kernel_bytes += p.bytes_read + p.bytes_written;
                    }
                    timeline.total_ns = timeline.total_ns.max(end);
                    timeline.records.push(TaskRecord {
                        task: id,
                        label: task.label.clone(),
                        resource,
                        start_ns: start,
                        end_ns: end,
                        attempt,
                        outcome: TaskOutcome::Completed,
                    });
                    if let (Some(kind), Some(_)) = (fault, straggler_stall) {
                        run.events.push(FaultEvent {
                            device,
                            kind,
                            label: task.label.clone(),
                            attempt,
                            at_ns: end,
                            resolution: Resolution::Straggler,
                        });
                    }
                    if exec == ExecMode::Functional {
                        execute_task(task, mem, host);
                    }
                    break;
                }

                // This attempt fails. Kernel faults and copy corruption are
                // detected at completion (full duration burned); a hang past
                // the deadline is killed by the watchdog.
                let kind = fault.unwrap_or(FaultKind::KernelFault { task: i });
                let (dur, outcome) = match kind {
                    FaultKind::Hang { .. } => (
                        base_dur + policy.watchdog_ns.unwrap_or(0),
                        TaskOutcome::TimedOut,
                    ),
                    _ => (base_dur, TaskOutcome::Faulted),
                };
                let end = start + dur;
                timeline.busy_ns[resource.index()] += dur;
                if let TaskKind::Kernel(k) = &task.kind {
                    let p = k.profile();
                    timeline.kernel_flops += p.flops;
                    timeline.kernel_bytes += p.bytes_read + p.bytes_written;
                }
                timeline.total_ns = timeline.total_ns.max(end);
                timeline.records.push(TaskRecord {
                    task: id,
                    label: task.label.clone(),
                    resource,
                    start_ns: start,
                    end_ns: end,
                    attempt,
                    outcome,
                });
                if exec == ExecMode::Functional {
                    poison_destination(task, mem, host);
                }

                if attempt >= policy.max_retries {
                    run.events.push(FaultEvent {
                        device,
                        kind,
                        label: task.label.clone(),
                        attempt,
                        at_ns: end,
                        resolution: Resolution::Exhausted,
                    });
                    dead[i] = true;
                    run.exhausted.push(id);
                    finish[i] = end;
                    resource_end = end;
                    break;
                }

                run.events.push(FaultEvent {
                    device,
                    kind,
                    label: task.label.clone(),
                    attempt,
                    at_ns: end,
                    resolution: match outcome {
                        TaskOutcome::TimedOut => Resolution::TimedOut,
                        _ => Resolution::Retried,
                    },
                });
                let backoff = policy.backoff_ns(attempt + 1);
                run.retries += 1;
                run.backoff_ns += backoff;
                free = end + backoff;
                attempt += 1;
            }

            match mode {
                LaunchMode::Graph => engine_free[resource.index()] = resource_end,
                LaunchMode::Stream => stream_free = resource_end,
            }
        }
        run.timeline = timeline;
        run
    }
}

/// Functional execution of one task against device/host memory, through
/// the arenas' per-buffer guards.
fn execute_task(task: &Task, mem: &DeviceMemory, host: &HostMemory) {
    match &task.kind {
        TaskKind::H2D { host: h, dev, .. } => {
            // Layout-matched pairs (the simulator stages hosts in the
            // device layout) move whole planes; mismatched pairs convert on
            // the fly. Pure component moves either way, so the staged
            // bytes are identical regardless of layout.
            let src = host.buffer(*h);
            let mut dst = mem.buffer_mut(*dev);
            dst.store_mut().copy_store_from(src.store());
        }
        TaskKind::D2H { dev, host: h, .. } => {
            let src = mem.buffer(*dev);
            let mut dst = host.buffer_mut(*h);
            dst.store_mut().copy_store_from(src.store());
        }
        TaskKind::Kernel(k) => k.execute(mem),
    }
}

/// Models the observable damage of a failed attempt: the destination
/// buffers are filled with NaN, so a recovered run is only bit-identical
/// to the fault-free one if the retry genuinely overwrites everything the
/// fault touched.
fn poison_destination(task: &Task, mem: &DeviceMemory, host: &HostMemory) {
    let nan = Complex::new(f64::NAN, f64::NAN);
    match &task.kind {
        TaskKind::H2D { dev, .. } => mem.buffer_mut(*dev).store_mut().fill(nan),
        TaskKind::D2H { host: h, .. } => host.buffer_mut(*h).store_mut().fill(nan),
        TaskKind::Kernel(k) => {
            for b in k.buffer_writes() {
                mem.buffer_mut(b).store_mut().fill(nan);
            }
        }
    }
}

/// Result of [`Engine::run_faulted`]: the timeline plus the
/// fault ledger the caller folds into a `RunHealth` report.
#[derive(Debug, Clone, Default)]
pub struct FaultedRun {
    /// The schedule, including one record per retry attempt.
    pub timeline: Timeline,
    /// One event per injected fault that surfaced.
    pub events: Vec<FaultEvent>,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Virtual nanoseconds spent waiting out retry backoff.
    pub backoff_ns: u64,
    /// Tasks whose retries were exhausted (failed permanently).
    pub exhausted: Vec<TaskId>,
    /// Tasks that never ran (dead predecessors or lost device).
    pub abandoned: Vec<TaskId>,
    /// Where and when the device was lost, if it was.
    pub device_lost_at: Option<(TaskId, u64)>,
    /// First task never executed because a [`CancelToken`] fired, if the
    /// run was cancelled. `Some` means the outputs are partial: everything
    /// from this task onward was abandoned and no functional effect of the
    /// cancelled region reached memory. Callers must discard the outputs
    /// (the campaign runner re-runs the affected batches on resume).
    pub cancelled_at: Option<TaskId>,
}

impl FaultedRun {
    /// Whether every task completed (no exhausted retries, no
    /// abandonment, no device loss).
    pub fn fully_recovered(&self) -> bool {
        self.exhausted.is_empty() && self.abandoned.is_empty() && self.device_lost_at.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Kernel, KernelProfile};
    use bqsim_num::Complex;
    use std::sync::Arc;

    struct FlopKernel {
        flops: u64,
    }
    impl Kernel for FlopKernel {
        fn name(&self) -> &str {
            "flops"
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile {
                flops: self.flops,
                bytes_read: 0,
                bytes_written: 0,
                blocks: 1_000_000,
                threads_per_block: 128,
                divergence: 1.0,
            }
        }
        fn execute(&self, _mem: &DeviceMemory) {}
    }

    struct ScaleKernel {
        buf: crate::BufferId,
        factor: f64,
    }
    impl Kernel for ScaleKernel {
        fn name(&self) -> &str {
            "scale"
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile::empty()
        }
        fn execute(&self, mem: &DeviceMemory) {
            for z in mem.buffer_mut(self.buf).iter_mut() {
                *z = z.scale(self.factor);
            }
        }
    }

    fn setup() -> (Engine, DeviceMemory, HostMemory) {
        let spec = DeviceSpec::tiny_test_gpu();
        let mem = DeviceMemory::new(&spec);
        (Engine::new(spec), mem, HostMemory::new())
    }

    #[test]
    fn graph_mode_overlaps_independent_copy_and_kernel() {
        let (engine, mut mem, mut host) = setup();
        let h1 = host.alloc_zeroed(1 << 16);
        let h2 = host.alloc_zeroed(1 << 16);
        let d1 = mem.alloc(1 << 16).unwrap();
        let d2 = mem.alloc(1 << 16).unwrap();

        let mut g = TaskGraph::new();
        let up1 = g.add_h2d("up1", h1, d1, (1 << 16) * 16, &[]);
        let _k = g.add_kernel("work", Arc::new(FlopKernel { flops: 5_000_000 }), &[up1]);
        // Independent upload for the *next* batch can overlap the kernel.
        let _up2 = g.add_h2d("up2", h2, d2, (1 << 16) * 16, &[]);

        let tg = engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        let ts = engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Stream,
            ExecMode::TimingOnly,
        );
        assert!(
            tg.total_ns() < ts.total_ns(),
            "graph {} !< stream {}",
            tg.total_ns(),
            ts.total_ns()
        );
        assert!(tg.overlap_ns() > 0, "expected copy/compute overlap");
        assert_eq!(ts.overlap_ns(), 0, "stream mode must not overlap");
    }

    #[test]
    fn dependencies_are_respected() {
        let (engine, mut mem, mut host) = setup();
        let h = host.alloc_zeroed(16);
        let d = mem.alloc(16).unwrap();
        let mut g = TaskGraph::new();
        let a = g.add_h2d("up", h, d, 256, &[]);
        let b = g.add_kernel("k", Arc::new(FlopKernel { flops: 1000 }), &[a]);
        let c = g.add_d2h("down", d, h, 256, &[b]);
        let t = engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        let rec = t.records();
        assert!(rec[0].end_ns <= rec[1].start_ns);
        assert!(rec[1].end_ns <= rec[2].start_ns);
        assert_eq!(rec[2].task, c);
    }

    #[test]
    fn same_engine_serialises() {
        let (engine, mut mem, mut host) = setup();
        let h = host.alloc_zeroed(1 << 12);
        let d1 = mem.alloc(1 << 12).unwrap();
        let d2 = mem.alloc(1 << 12).unwrap();
        let mut g = TaskGraph::new();
        let bytes = (1u64 << 12) * 16;
        g.add_h2d("a", h, d1, bytes, &[]);
        g.add_h2d("b", h, d2, bytes, &[]);
        let t = engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        let rec = t.records();
        assert!(
            rec[0].end_ns <= rec[1].start_ns,
            "independent H2D copies still share one DMA engine"
        );
    }

    #[test]
    fn functional_mode_moves_data_and_computes() {
        let (engine, mut mem, mut host) = setup();
        let h_in = host.alloc_from(vec![Complex::new(2.0, 1.0); 8]);
        let h_out = host.alloc_zeroed(8);
        let d = mem.alloc(8).unwrap();
        let mut g = TaskGraph::new();
        let up = g.add_h2d("up", h_in, d, 128, &[]);
        let k = g.add_kernel(
            "scale",
            Arc::new(ScaleKernel {
                buf: d,
                factor: 3.0,
            }),
            &[up],
        );
        g.add_d2h("down", d, h_out, 128, &[k]);
        engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::Functional,
        );
        assert_eq!(host.buffer(h_out)[0], Complex::new(6.0, 3.0));
        assert_eq!(host.buffer(h_out)[7], Complex::new(6.0, 3.0));
    }

    #[test]
    fn timing_only_leaves_buffers_untouched() {
        let (engine, mut mem, mut host) = setup();
        let h_in = host.alloc_from(vec![Complex::ONE; 4]);
        let d = mem.alloc(4).unwrap();
        let mut g = TaskGraph::new();
        g.add_h2d("up", h_in, d, 64, &[]);
        engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        assert_eq!(mem.buffer(d)[0], Complex::ZERO);
    }

    #[test]
    fn stream_overhead_exceeds_graph_overhead_for_many_kernels() {
        let (engine, mut mem, mut host) = setup();
        let mut g = TaskGraph::new();
        let mut prev: Vec<crate::TaskId> = vec![];
        for i in 0..100 {
            let t = g.add_kernel(format!("k{i}"), Arc::new(FlopKernel { flops: 10 }), &prev);
            prev = vec![t];
        }
        let tg = engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        let ts = engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Stream,
            ExecMode::TimingOnly,
        );
        // 100 kernels × (1000 − 100) ns overhead difference minus the one-time
        // graph launch cost.
        assert!(ts.total_ns() > tg.total_ns() + 80_000);
    }

    #[test]
    fn divergence_slows_kernels() {
        let spec = DeviceSpec::tiny_test_gpu();
        let engine = Engine::new(spec);
        struct Div(f64);
        impl Kernel for Div {
            fn name(&self) -> &str {
                "div"
            }
            fn profile(&self) -> KernelProfile {
                KernelProfile {
                    flops: 1_000_000,
                    bytes_read: 0,
                    bytes_written: 0,
                    blocks: 1_000_000,
                    threads_per_block: 32,
                    divergence: self.0,
                }
            }
            fn execute(&self, _mem: &DeviceMemory) {}
        }
        let mut g1 = TaskGraph::new();
        g1.add_kernel("a", Arc::new(Div(1.0)), &[]);
        let mut g4 = TaskGraph::new();
        g4.add_kernel("b", Arc::new(Div(4.0)), &[]);
        let mut mem = DeviceMemory::new(engine.spec());
        let mut host = HostMemory::new();
        let t1 = engine.run(
            &g1,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        let t4 = engine.run(
            &g4,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        assert!(t4.total_ns() > t1.total_ns() * 2);
    }

    #[test]
    fn gantt_shows_all_lanes() {
        let (engine, mut mem, mut host) = setup();
        let h = host.alloc_zeroed(1 << 12);
        let d = mem.alloc(1 << 12).unwrap();
        let mut g = TaskGraph::new();
        let bytes = (1u64 << 12) * 16;
        let up = g.add_h2d("up", h, d, bytes, &[]);
        let k = g.add_kernel("k", Arc::new(FlopKernel { flops: 100_000 }), &[up]);
        g.add_d2h("down", d, h, bytes, &[k]);
        let t = engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        let gantt = t.render_gantt(40);
        assert_eq!(gantt.lines().count(), 3);
        assert!(gantt.contains("compute |"));
        assert!(gantt.contains('█'));
        // Every line has the same width.
        let widths: Vec<usize> = gantt.lines().map(|l| l.chars().count()).collect();
        assert!(widths.iter().all(|w| *w == widths[0]));
    }

    fn faulted_pipeline(
        injector: &FaultInjector,
        policy: &RecoveryPolicy,
    ) -> (FaultedRun, Vec<Complex>) {
        let (engine, mut mem, mut host) = setup();
        let h_in = host.alloc_from(vec![Complex::new(2.0, 1.0); 8]);
        let h_out = host.alloc_zeroed(8);
        let d_in = mem.alloc(8).unwrap();
        let d_out = mem.alloc(8).unwrap();
        let mut g = TaskGraph::new();
        let up = g.add_h2d("up", h_in, d_in, 128, &[]);
        // Like the real ELL spMM kernel: reads one buffer, fully
        // overwrites a distinct output buffer (which makes a retry after
        // output poisoning recover the exact result).
        struct TrackedScale(crate::BufferId, crate::BufferId);
        impl Kernel for TrackedScale {
            fn name(&self) -> &str {
                "scale"
            }
            fn profile(&self) -> KernelProfile {
                KernelProfile {
                    flops: 1000,
                    ..KernelProfile::empty()
                }
            }
            fn execute(&self, mem: &DeviceMemory) {
                let (src, mut dst) = mem.buffer_pair_mut(self.0, self.1);
                for (s, d) in src.iter().zip(dst.iter_mut()) {
                    *d = s.scale(3.0);
                }
            }
            fn buffer_reads(&self) -> Vec<crate::BufferId> {
                vec![self.0]
            }
            fn buffer_writes(&self) -> Vec<crate::BufferId> {
                vec![self.1]
            }
        }
        let k = g.add_kernel("scale", Arc::new(TrackedScale(d_in, d_out)), &[up]);
        g.add_d2h("down", d_out, h_out, 128, &[k]);
        let run = engine.run_faulted(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::Functional,
            injector,
            policy,
        );
        let out = host.buffer(h_out).to_vec();
        (run, out)
    }

    #[test]
    fn retried_kernel_fault_restores_bit_identical_output() {
        let baseline = faulted_pipeline(&FaultInjector::none(), &RecoveryPolicy::no_recovery()).1;

        let mut plan = bqsim_faults::FaultPlan::new();
        plan.push(FaultKind::KernelFault { task: 1 })
            .push(FaultKind::CopyCorruption { task: 0 });
        let injector = FaultInjector::new(&plan);
        let (run, out) = faulted_pipeline(&injector, &RecoveryPolicy::default());

        assert!(run.fully_recovered());
        assert_eq!(out, baseline, "retried output must be bit-identical");
        assert_eq!(run.events.len(), 2, "one event per injected fault");
        assert_eq!(run.retries, 2);
        assert!(run.backoff_ns > 0);
        assert!(run
            .events
            .iter()
            .all(|e| e.resolution == Resolution::Retried));
        // The kernel appears twice: the faulted attempt, then the retry.
        let attempts: Vec<_> = run
            .timeline
            .records()
            .iter()
            .filter(|r| r.label == "scale")
            .collect();
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].outcome, TaskOutcome::Faulted);
        assert_eq!(attempts[1].outcome, TaskOutcome::Completed);
        assert_eq!(attempts[1].attempt, 1);
        assert!(
            attempts[1].start_ns >= attempts[0].end_ns + 5_000,
            "backoff"
        );
    }

    #[test]
    fn hang_under_watchdog_slack_is_a_straggler() {
        let mut plan = bqsim_faults::FaultPlan::new();
        plan.push(FaultKind::Hang {
            task: 1,
            stall_ns: 1_000,
        });
        let injector = FaultInjector::new(&plan);
        let (run, out) = faulted_pipeline(&injector, &RecoveryPolicy::default());
        assert!(run.fully_recovered());
        assert_eq!(run.retries, 0);
        assert_eq!(run.events.len(), 1);
        assert_eq!(run.events[0].resolution, Resolution::Straggler);
        assert_eq!(out[0], Complex::new(6.0, 3.0));
    }

    #[test]
    fn hang_past_watchdog_is_killed_and_retried() {
        let mut plan = bqsim_faults::FaultPlan::new();
        plan.push(FaultKind::Hang {
            task: 1,
            stall_ns: 50_000_000,
        });
        let injector = FaultInjector::new(&plan);
        let policy = RecoveryPolicy::default();
        let (run, out) = faulted_pipeline(&injector, &policy);
        assert!(run.fully_recovered());
        assert_eq!(run.retries, 1);
        assert_eq!(run.events[0].resolution, Resolution::TimedOut);
        assert_eq!(out[0], Complex::new(6.0, 3.0));
        let killed = &run.timeline.records()[1];
        assert_eq!(killed.outcome, TaskOutcome::TimedOut);
        // Killed at modeled duration + watchdog slack, not after the
        // full 50 ms stall.
        let slack = policy.watchdog_ns.unwrap();
        assert_eq!(killed.end_ns - killed.start_ns - slack, {
            let fault_free =
                faulted_pipeline(&FaultInjector::none(), &RecoveryPolicy::no_recovery()).0;
            let r = &fault_free.timeline.records()[1];
            r.end_ns - r.start_ns
        });
    }

    #[test]
    fn exhausted_retries_abandon_dependents() {
        let mut plan = bqsim_faults::FaultPlan::new();
        for _ in 0..3 {
            plan.push(FaultKind::KernelFault { task: 1 });
        }
        let injector = FaultInjector::new(&plan);
        let policy = RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::default()
        };
        let (run, out) = faulted_pipeline(&injector, &policy);
        assert!(!run.fully_recovered());
        assert_eq!(run.exhausted, vec![TaskId(1)]);
        assert_eq!(run.abandoned, vec![TaskId(2)]);
        assert_eq!(run.events.last().unwrap().resolution, Resolution::Exhausted);
        // The d2h never ran; its destination still holds the zeros it was
        // allocated with (the poisoned device buffer stayed on device).
        assert_eq!(out[0], Complex::ZERO);
        let last = run.timeline.records().last().unwrap();
        assert_eq!(last.outcome, TaskOutcome::Abandoned);
        assert_eq!(last.start_ns, last.end_ns);
    }

    #[test]
    fn device_loss_abandons_everything_from_the_loss_point() {
        let mut plan = bqsim_faults::FaultPlan::new();
        plan.push(FaultKind::DeviceLoss { at_task: 1 });
        let injector = FaultInjector::new(&plan);
        let (run, _) = faulted_pipeline(&injector, &RecoveryPolicy::default());
        assert!(!run.fully_recovered());
        assert_eq!(run.abandoned, vec![TaskId(1), TaskId(2)]);
        let (task, at_ns) = run.device_lost_at.unwrap();
        assert_eq!(task, TaskId(1));
        assert!(at_ns > 0);
        assert_eq!(run.events.len(), 1);
        assert_eq!(run.events[0].resolution, Resolution::DeviceLost);
        // The upload before the loss point completed normally.
        assert_eq!(run.timeline.records()[0].outcome, TaskOutcome::Completed);
    }

    #[test]
    fn cancellation_mid_sweep_applies_no_effect_of_the_cancelled_region() {
        // The first kernel fires the token while it runs; the sweep must
        // observe it at the next task boundary and never run the second.
        struct AddOneThenCancel(crate::BufferId, CancelToken);
        impl Kernel for AddOneThenCancel {
            fn name(&self) -> &str {
                "add1"
            }
            fn profile(&self) -> KernelProfile {
                KernelProfile::empty()
            }
            fn execute(&self, mem: &DeviceMemory) {
                for z in mem.buffer_mut(self.0).iter_mut() {
                    *z += Complex::ONE;
                }
                self.1.cancel();
            }
        }
        let (engine, mut mem, mut host) = setup();
        let d = mem.alloc(2).unwrap();
        let cancel = CancelToken::new();
        let mut g = TaskGraph::new();
        let a = g.add_kernel("a", Arc::new(AddOneThenCancel(d, cancel.clone())), &[]);
        g.add_kernel("b", Arc::new(AddOneThenCancel(d, cancel.clone())), &[a]);
        let run = engine.run_faulted_cancellable(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::Functional,
            &FaultInjector::none(),
            &RecoveryPolicy::default(),
            &cancel,
        );
        assert_eq!(run.cancelled_at, Some(TaskId(1)));
        assert_eq!(run.abandoned, vec![TaskId(1)]);
        assert_eq!(mem.buffer(d)[0], Complex::ONE, "only task 0 ran");
    }

    #[test]
    fn run_is_run_faulted_with_no_faults() {
        let (engine, mut mem, mut host) = setup();
        let h = host.alloc_zeroed(1 << 12);
        let d = mem.alloc(1 << 12).unwrap();
        let mut g = TaskGraph::new();
        let bytes = (1u64 << 12) * 16;
        let up = g.add_h2d("up", h, d, bytes, &[]);
        let k = g.add_kernel("k", Arc::new(FlopKernel { flops: 100_000 }), &[up]);
        g.add_d2h("down", d, h, bytes, &[k]);
        let plain = engine.run(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
        );
        let faulted = engine.run_faulted(
            &g,
            &mut mem,
            &mut host,
            LaunchMode::Graph,
            ExecMode::TimingOnly,
            &FaultInjector::none(),
            &RecoveryPolicy::default(),
        );
        assert!(faulted.fully_recovered());
        assert_eq!(faulted.timeline.records(), plain.records());
        assert_eq!(faulted.timeline.total_ns(), plain.total_ns());
    }

    #[test]
    fn gantt_marks_failed_attempts() {
        let mut plan = bqsim_faults::FaultPlan::new();
        plan.push(FaultKind::KernelFault { task: 1 });
        let injector = FaultInjector::new(&plan);
        let (run, _) = faulted_pipeline(&injector, &RecoveryPolicy::default());
        let gantt = run.timeline.render_gantt(60);
        assert!(
            gantt.contains('x'),
            "failed attempt must be visible:\n{gantt}"
        );
    }
}
