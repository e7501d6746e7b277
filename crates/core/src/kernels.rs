//! Concrete device kernels of the BQSim pipeline.
//!
//! Each kernel implements [`bqsim_gpu::Kernel`]: an analytic cost profile
//! for the timing model plus functional semantics against device buffers.

use bqsim_ell::convert::{convert_row_algorithm1, ConversionWork};
use bqsim_ell::{AmpPlanes, EllMatrix, GpuDd, Lane, Precision};
use bqsim_gpu::{AmpStore, BufferId, DeviceMemory, Kernel, KernelProfile};
use bqsim_num::Complex;
use std::sync::Arc;

/// Real FLOPs charged per complex multiply-accumulate (4 mul + 4 add).
pub const FLOPS_PER_CMAC: u64 = 8;

/// The BQCS kernel (§3.3.1): ELL-based spMM applying one fused gate to a
/// batch of state vectors.
///
/// One block per row; threads stride the batch. NZR uniformity (Table 1)
/// makes the profile divergence-free — the core reason BQSim converts DDs
/// to ELL at all.
#[derive(Debug)]
pub struct EllSpmmKernel {
    gate: Arc<EllMatrix>,
    input: BufferId,
    output: BufferId,
    batch: usize,
    lanes: usize,
    generic: bool,
    precision: Precision,
    use_pattern: bool,
}

/// Minimum output elements (`rows × batch`) each row-partition lane must
/// receive before a launch is split across workers — below this the
/// spawn/join cost of the nested scope outweighs the inner-loop work.
const MIN_ELEMS_PER_LANE: usize = 4096;

impl EllSpmmKernel {
    /// Creates the kernel for one gate application (single-lane, fast-path
    /// inner loops — the default everywhere).
    pub fn new(gate: Arc<EllMatrix>, input: BufferId, output: BufferId, batch: usize) -> Self {
        EllSpmmKernel::with_mode(gate, input, output, batch, 1, false)
    }

    /// [`EllSpmmKernel::new`] with up to `lanes` host workers
    /// row-partitioning the launch (mirroring the GPU's block-per-row
    /// decomposition). The split only engages when each lane would get at
    /// least [`MIN_ELEMS_PER_LANE`] output elements, so small launches stay
    /// serial.
    pub fn with_lanes(
        gate: Arc<EllMatrix>,
        input: BufferId,
        output: BufferId,
        batch: usize,
        lanes: usize,
    ) -> Self {
        EllSpmmKernel::with_mode(gate, input, output, batch, lanes, false)
    }

    /// [`EllSpmmKernel::with_tuning`] at the `f64` reference precision
    /// with pattern compression on: `generic = true` routes execution
    /// through the pre-optimisation [`EllMatrix::spmm_generic`] loop (the
    /// serial ablation baseline benches compare against); it also
    /// disables lane splitting so the baseline is exactly the historical
    /// code path.
    pub fn with_mode(
        gate: Arc<EllMatrix>,
        input: BufferId,
        output: BufferId,
        batch: usize,
        lanes: usize,
        generic: bool,
    ) -> Self {
        EllSpmmKernel::with_tuning(
            gate,
            input,
            output,
            batch,
            lanes,
            generic,
            Precision::F64,
            true,
        )
    }

    /// Full constructor: additionally names the amplitude precision the
    /// cost profile charges plane traffic at (execution follows the
    /// buffers' own width — the simulator's `effective_precision`
    /// allocates them to match) and whether the planar arms exploit the
    /// pattern-compression annotation.
    #[allow(clippy::too_many_arguments)]
    pub fn with_tuning(
        gate: Arc<EllMatrix>,
        input: BufferId,
        output: BufferId,
        batch: usize,
        lanes: usize,
        generic: bool,
        precision: Precision,
        use_pattern: bool,
    ) -> Self {
        EllSpmmKernel {
            gate,
            input,
            output,
            batch,
            lanes: lanes.max(1),
            generic,
            precision,
            use_pattern,
        }
    }

    /// #MAC of one launch: `rows × maxNZR × batch`.
    pub fn macs(&self) -> u64 {
        self.gate.mac_per_input() * self.batch as u64
    }

    /// Lanes this launch will actually split into after the work-size
    /// gate: bounded by the configured lanes, the row count, and
    /// [`MIN_ELEMS_PER_LANE`].
    pub fn effective_lanes(&self) -> usize {
        if self.lanes <= 1 || self.generic {
            return 1;
        }
        let total = self.gate.num_rows() * self.batch;
        self.lanes
            .min(self.gate.num_rows())
            .min((total / MIN_ELEMS_PER_LANE).max(1))
    }

    /// Output rows per lane of a row-partitioned launch.
    fn rows_per_lane(&self) -> usize {
        self.gate.num_rows().div_ceil(self.effective_lanes())
    }

    /// One planar launch at either lane type, row-partitioned across
    /// [`effective_lanes`](Self::effective_lanes) scoped workers: each
    /// lane owns the same disjoint row window of both output planes and
    /// only reads the (shared) input, so the split is race-free by
    /// construction.
    fn sweep_planar<T: Lane>(&self, input: &AmpPlanes<T>, output: &mut AmpPlanes<T>) {
        let (ire, iim) = input.planes();
        let (ore, oim) = output.planes_mut();
        let run = |cre: &mut [T], cim: &mut [T], first_row: usize| {
            self.gate
                .spmm_rows_planar(ire, iim, cre, cim, first_row, self.batch, self.use_pattern)
        };
        if self.effective_lanes() == 1 {
            return run(ore, oim, 0);
        }
        let chunk_rows = self.rows_per_lane();
        std::thread::scope(|scope| {
            for (lane, (cre, cim)) in ore
                .chunks_mut(chunk_rows * self.batch)
                .zip(oim.chunks_mut(chunk_rows * self.batch))
                .enumerate()
            {
                let run = &run;
                scope.spawn(move || run(cre, cim, lane * chunk_rows));
            }
        });
    }

    /// The AoS counterpart of [`sweep_planar`](Self::sweep_planar).
    fn sweep_aos(&self, input: &[Complex], output: &mut [Complex]) {
        if self.effective_lanes() == 1 {
            return self.gate.spmm(input, output, self.batch);
        }
        let chunk_rows = self.rows_per_lane();
        std::thread::scope(|scope| {
            for (lane, chunk) in output.chunks_mut(chunk_rows * self.batch).enumerate() {
                scope.spawn(move || {
                    self.gate
                        .spmm_rows(input, chunk, lane * chunk_rows, self.batch)
                });
            }
        });
    }
}

impl Kernel for EllSpmmKernel {
    fn name(&self) -> &str {
        "ell_spmm"
    }

    fn profile(&self) -> KernelProfile {
        let rows = self.gate.num_rows() as u64;
        let macs = self.macs();
        // Amplitude traffic scales with the storage width: the narrow
        // precisions halve both the streamed input reads and the output
        // writes — the whole point of the adaptive-precision sweep on a
        // bandwidth-bound kernel. Gate tables stay f64 in every mode.
        let amp_width = self.precision.storage_bytes() as u64;
        KernelProfile {
            flops: macs * FLOPS_PER_CMAC,
            // Gate tables are read once (L2-resident across the batch);
            // each MAC pulls one input amplitude, each output is written
            // once. Model input reads at half rate for cache reuse across
            // rows sharing columns.
            bytes_read: self.gate.byte_size() + macs * amp_width / 2,
            bytes_written: rows * self.batch as u64 * amp_width,
            blocks: rows,
            threads_per_block: self.batch.min(256) as u32,
            divergence: 1.0,
        }
    }

    fn execute(&self, mem: &DeviceMemory) {
        let (input, mut output) = mem.buffer_pair_mut(self.input, self.output);
        if self.generic {
            // The generic ablation is the historical AoS loop;
            // `BqSimOptions::effective_layout` forces AoS buffers whenever
            // it is selected, so the AoS view below cannot panic.
            self.gate.spmm_generic(&input, &mut output, self.batch);
            return;
        }
        // Dispatch on the buffers' store variant: the simulator allocates
        // all four state buffers in one layout and width, so input and
        // output always agree.
        match (input.store(), output.store_mut()) {
            (AmpStore::Planar(i), AmpStore::Planar(o)) => self.sweep_planar(i, o),
            (AmpStore::PlanarF32(i), AmpStore::PlanarF32(o)) => self.sweep_planar(i, o),
            (AmpStore::Aos(i), AmpStore::Aos(o)) => self.sweep_aos(i, o),
            _ => panic!("kernel input and output buffers disagree in layout or width"),
        }
    }

    fn buffer_reads(&self) -> Vec<BufferId> {
        vec![self.input]
    }

    fn buffer_writes(&self) -> Vec<BufferId> {
        vec![self.output]
    }
}

/// The DD-to-ELL conversion kernel (Algorithm 1): one block per ELL row,
/// each running an iterative DFS over the flattened DD on its thread 0.
///
/// The DFS is inherently serial within a block and its memory accesses
/// chase pointers, so the profile's divergence grows with the DD's edge
/// count — this is what makes CPU conversion win for complex DDs (Fig. 5)
/// and motivates the hybrid τ threshold.
///
/// Functionally the conversion result is produced host-side by
/// [`bqsim_ell::convert::ell_from_gpu_dd`] at compile time, so `execute`
/// is a no-op: on real hardware this kernel would materialise the ELL
/// arrays in device memory.
#[derive(Debug)]
pub struct DdToEllKernel {
    rows: u64,
    work: ConversionWork,
    dd_edges: usize,
    ell_bytes: u64,
    dd_bytes: u64,
}

impl DdToEllKernel {
    /// Builds the kernel description from the conversion's measured work.
    pub fn new(gdd: &GpuDd, work: ConversionWork, ell: &EllMatrix) -> Self {
        DdToEllKernel {
            rows: ell.num_rows() as u64,
            work,
            dd_edges: gdd.num_edges(),
            ell_bytes: ell.byte_size(),
            dd_bytes: gdd.byte_size(),
        }
    }
}

/// Work units charged per DFS step of Algorithm 1 (stack bookkeeping,
/// weight multiply/divide, pointer chase).
const FLOPS_PER_DFS_STEP: u64 = 40;

/// Divergence scale: each additional DD edge adds pointer-chasing latency
/// that the lock-step warps cannot hide. Calibrated so the GPU/CPU
/// crossover of Fig. 5b lands near the paper's τ ≈ 2000 edges.
const EDGES_PER_DIVERGENCE_UNIT: f64 = 22.0;

impl Kernel for DdToEllKernel {
    fn name(&self) -> &str {
        "dd_to_ell"
    }

    fn profile(&self) -> KernelProfile {
        KernelProfile {
            flops: self.work.total_steps * FLOPS_PER_DFS_STEP,
            bytes_read: self.work.total_steps * 24 + self.dd_bytes,
            bytes_written: self.ell_bytes,
            blocks: self.rows,
            // Algorithm 1's DFS runs on thread 0 of each block.
            threads_per_block: 1,
            divergence: 1.0 + self.dd_edges as f64 / EDGES_PER_DIVERGENCE_UNIT,
        }
    }

    fn execute(&self, _mem: &DeviceMemory) {
        // Conversion output is produced host-side at compile time; see the
        // type-level docs.
    }
}

/// Ablation kernel "BQSim without DD-to-ELL conversion" (§4.9): BQCS
/// executed directly on the GPU-resident DD — every output amplitude
/// re-walks the DD by DFS instead of streaming an ELL row.
#[derive(Debug)]
pub struct DdSpmvKernel {
    gdd: Arc<GpuDd>,
    max_nzr: usize,
    work: ConversionWork,
    input: BufferId,
    output: BufferId,
    batch: usize,
}

impl DdSpmvKernel {
    /// Creates the kernel for one gate application straight from the DD.
    pub fn new(
        gdd: Arc<GpuDd>,
        max_nzr: usize,
        work: ConversionWork,
        input: BufferId,
        output: BufferId,
        batch: usize,
    ) -> Self {
        DdSpmvKernel {
            gdd,
            max_nzr,
            work,
            input,
            output,
            batch,
        }
    }
}

impl Kernel for DdSpmvKernel {
    fn name(&self) -> &str {
        "dd_spmv"
    }

    fn profile(&self) -> KernelProfile {
        let rows = 1u64 << self.gdd.num_qubits();
        let macs = rows * self.max_nzr as u64 * self.batch as u64;
        KernelProfile {
            // DFS bookkeeping per row plus the MACs themselves.
            flops: self.work.total_steps * FLOPS_PER_DFS_STEP + macs * FLOPS_PER_CMAC,
            bytes_read: self.work.total_steps * 24 + macs * 16,
            bytes_written: rows * self.batch as u64 * 16,
            blocks: rows,
            threads_per_block: 1,
            divergence: 2.0 + self.gdd.num_edges() as f64 / EDGES_PER_DIVERGENCE_UNIT,
        }
    }

    fn execute(&self, mem: &DeviceMemory) {
        let rows = 1usize << self.gdd.num_qubits();
        let mut vals = vec![Complex::ZERO; self.max_nzr];
        let mut cols = vec![0u32; self.max_nzr];
        let (input, mut output) = mem.buffer_pair_mut(self.input, self.output);
        for r in 0..rows {
            // Scratch is reused across rows without refilling: Algorithm 1
            // writes slots 0..nnz before reporting them, and the loop below
            // reads only that prefix.
            let rc = convert_row_algorithm1(&self.gdd, r, &mut vals, &mut cols);
            let out_row = &mut output[r * self.batch..(r + 1) * self.batch];
            out_row.fill(Complex::ZERO);
            for k in 0..rc.nnz {
                let v = vals[k];
                let src = cols[k] as usize * self.batch;
                for b in 0..self.batch {
                    out_row[b] += v * input[src + b];
                }
            }
        }
    }

    fn buffer_reads(&self) -> Vec<BufferId> {
        vec![self.input]
    }

    fn buffer_writes(&self) -> Vec<BufferId> {
        vec![self.output]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_ell::convert::{ell_from_dd_cpu, ell_from_gpu_dd};
    use bqsim_gpu::DeviceSpec;
    use bqsim_qcir::GateKind;
    use bqsim_qdd::convert::matrix_from_dense;
    use bqsim_qdd::DdPackage;

    fn test_gate() -> (EllMatrix, GpuDd) {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::Cx.matrix());
        let e = matrix_from_dense(&mut dd, &m);
        let ell = ell_from_dd_cpu(&mut dd, e, 3);
        let gdd = GpuDd::from_dd(&dd, e, 3);
        (ell, gdd)
    }

    #[test]
    fn ell_spmm_kernel_executes_correctly() {
        let (ell, _) = test_gate();
        let ell = Arc::new(ell);
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        let batch = 2;
        let din = mem.alloc(8 * batch).unwrap();
        let dout = mem.alloc(8 * batch).unwrap();
        // batch element 0 = |0⟩, element 1 = |1⟩
        mem.buffer_mut(din)[0] = Complex::ONE; // amp 0, batch 0
        mem.buffer_mut(din)[batch + 1] = Complex::ONE; // amp 1, batch 1
        let k = EllSpmmKernel::new(Arc::clone(&ell), din, dout, batch);
        k.execute(&mem);
        let out = mem.buffer(dout);
        // column extraction for batch 0
        let col0: Vec<Complex> = (0..8).map(|r| out[r * batch]).collect();
        let want0 = ell.spmv(&bqsim_qcir::dense::basis_state(3, 0));
        assert!(bqsim_num::approx::vectors_eq(&col0, &want0, 1e-12));
        let col1: Vec<Complex> = (0..8).map(|r| out[r * batch + 1]).collect();
        let want1 = ell.spmv(&bqsim_qcir::dense::basis_state(3, 1));
        assert!(bqsim_num::approx::vectors_eq(&col1, &want1, 1e-12));
        assert_eq!(k.macs(), 8 * 2 * 2);
    }

    #[test]
    fn dd_spmv_kernel_matches_ell_kernel() {
        let (ell, gdd) = test_gate();
        let (_, work) = ell_from_gpu_dd(&gdd, ell.max_nzr());
        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        let batch = 3;
        let din = mem.alloc(8 * batch).unwrap();
        let d1 = mem.alloc(8 * batch).unwrap();
        let d2 = mem.alloc(8 * batch).unwrap();
        for b in 0..batch {
            mem.buffer_mut(din)[(b % 8) * batch + b] = Complex::new(1.0, 0.5);
        }
        let ka = EllSpmmKernel::new(Arc::new(ell.clone()), din, d1, batch);
        ka.execute(&mem);
        let kb = DdSpmvKernel::new(Arc::new(gdd), ell.max_nzr(), work, din, d2, batch);
        kb.execute(&mem);
        assert!(bqsim_num::approx::vectors_eq(
            &mem.buffer(d1),
            &mem.buffer(d2),
            1e-12
        ));
    }

    #[test]
    fn profiles_reflect_structure() {
        let (ell, gdd) = test_gate();
        let (_, work) = ell_from_gpu_dd(&gdd, ell.max_nzr());
        let conv = DdToEllKernel::new(&gdd, work, &ell);
        let p = conv.profile();
        assert_eq!(p.blocks, 8);
        assert_eq!(p.threads_per_block, 1);
        assert!(p.divergence > 1.0);

        let spec = DeviceSpec::tiny_test_gpu();
        let mut mem = DeviceMemory::new(&spec);
        let din = mem.alloc(8).unwrap();
        let dout = mem.alloc(8).unwrap();
        let spmm = EllSpmmKernel::new(Arc::new(ell), din, dout, 1);
        let p = spmm.profile();
        assert_eq!(p.divergence, 1.0);
        assert_eq!(p.flops, 8 * 2 * FLOPS_PER_CMAC);
    }
}
