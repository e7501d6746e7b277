//! Discrete-event GPU execution-model simulator.
//!
//! The BQSim paper runs on an RTX A6000 with CUDA Graph; this environment
//! has no GPU, so the workspace substitutes a **from-scratch execution-model
//! simulator** (DESIGN.md §2). It is deliberately CUDA-shaped:
//!
//! * [`DeviceSpec`] / [`CpuSpec`] — hardware descriptors (SMs, clocks,
//!   memory and PCIe bandwidths, launch overheads, power envelope).
//! * [`DeviceMemory`] / [`HostMemory`] — buffer arenas; kernels functionally
//!   execute against device buffers so simulated runs produce *real
//!   amplitudes*, bit-comparable across simulators.
//! * [`Kernel`] — a trait pairing a cost profile (flops, bytes, blocks,
//!   divergence) with a functional `execute`; concrete kernels (ELL spMM,
//!   batched dense apply, Algorithm-1 conversion) live in the crates that
//!   own their data structures.
//! * [`TaskGraph`] — kernels + H2D/D2H copies + dependencies, the paper's
//!   §3.3 structure.
//! * [`Engine`] — event-driven scheduler with one compute engine and two
//!   DMA engines. [`LaunchMode::Graph`] models CUDA-Graph execution
//!   (low per-task overhead, copy/compute overlap); [`LaunchMode::Stream`]
//!   models naïve sequential launches (full overhead, no overlap) — the
//!   ablation baseline of Fig. 13.
//! * [`power`] — utilization-driven power/energy accounting (Fig. 11).
//!
//! Simulated time is in **nanoseconds of virtual device time**; it is not
//! wall-clock. The benches report it alongside real wall-clock for the
//! CPU-side algorithms.
//!
//! # Example
//!
//! ```
//! use bqsim_gpu::*;
//!
//! let spec = DeviceSpec::rtx_a6000();
//! let mut mem = DeviceMemory::new(&spec);
//! let mut host = HostMemory::new();
//! let h_in = host.alloc_zeroed(1024);
//! let d = mem.alloc(1024).unwrap();
//!
//! let mut g = TaskGraph::new();
//! let t = g.add_h2d("upload", h_in, d, 1024 * 16, &[]);
//! let _ = g.add_d2h("download", d, h_in, 1024 * 16, &[t]);
//!
//! let engine = Engine::new(spec);
//! let timeline = engine.run(&g, &mut mem, &mut host, LaunchMode::Graph, ExecMode::Functional);
//! assert!(timeline.total_ns() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod engine;
mod memory;
mod task;

pub mod power;

pub use device::{CpuSpec, DeviceSpec};
pub use engine::{
    Engine, ExecMode, FaultedRun, LaunchMode, Resource, TaskOutcome, TaskRecord, Timeline,
};
pub use memory::{
    AllocDeviceError, AmpStore, BufferId, BufferPool, BufferRef, BufferRefMut, DeviceMemory,
    HostBufId, HostMemory, PoolEvent, PoolEventKind, PoolStats,
};
pub use task::{Kernel, KernelProfile, TaskGraph, TaskId, TaskKind};
