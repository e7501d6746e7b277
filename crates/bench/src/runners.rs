//! Shared simulator runners for the reports.

use crate::ReportParams;
use bqsim_baselines::aer::{AerOptions, QiskitAerLike};
use bqsim_baselines::cuq::{CuQuantumLike, GateSource};
use bqsim_baselines::flatdd::FlatDdLike;
use bqsim_baselines::BaselineError;
use bqsim_core::{BqSimOptions, BqSimulator, BqsimError};
use bqsim_gpu::{CpuSpec, DeviceSpec};
use bqsim_qcir::generators::SuiteEntry;
use bqsim_qcir::Circuit;
use std::error::Error;

/// Builds the circuit of a suite entry under the report parameters.
pub fn build_circuit(entry: &SuiteEntry, params: &ReportParams) -> Circuit {
    entry.family.build(params.qubits_for(entry), params.seed)
}

/// Compiles BQSim with default options.
///
/// # Errors
///
/// As [`BqSimulator::compile`].
pub fn compile_bqsim(circuit: &Circuit) -> Result<BqSimulator, BqsimError> {
    BqSimulator::compile(circuit, BqSimOptions::default())
}

/// Compiles the cuQuantum-like baseline from `source` gates, timing-only,
/// on the paper's RTX A6000 + i7-11700 host.
///
/// # Errors
///
/// As [`CuQuantumLike::compile`]: a dense gate that exceeds device memory.
pub fn compile_cuquantum(
    circuit: &Circuit,
    source: GateSource,
) -> Result<CuQuantumLike, BaselineError> {
    CuQuantumLike::compile(
        circuit,
        source,
        DeviceSpec::rtx_a6000(),
        CpuSpec::i7_11700(),
        false,
    )
}

/// The four simulators of Tables 2 and 3, compiled for one circuit.
pub struct Simulators {
    /// BQSim with default options.
    pub bqsim: BqSimulator,
    /// cuQuantum-like on unfused gates.
    pub cuquantum: CuQuantumLike,
    /// Qiskit-Aer-like with its default fusion.
    pub aer: QiskitAerLike,
    /// FlatDD-like on 16 CPU threads.
    pub flatdd: FlatDdLike,
}

impl Simulators {
    /// Compiles all four simulators for `circuit`.
    ///
    /// # Errors
    ///
    /// The first compile error of BQSim or cuQuantum.
    pub fn compile(circuit: &Circuit) -> Result<Self, Box<dyn Error>> {
        Ok(Simulators {
            bqsim: compile_bqsim(circuit)?,
            cuquantum: compile_cuquantum(circuit, GateSource::Unfused)?,
            aer: QiskitAerLike::compile(
                circuit,
                DeviceSpec::rtx_a6000(),
                CpuSpec::i7_11700(),
                AerOptions::default(),
            ),
            flatdd: FlatDdLike::compile(circuit, CpuSpec::i7_11700(), 16),
        })
    }
}

/// All four simulators' end-to-end virtual times for one circuit.
#[derive(Debug, Clone, Copy)]
pub struct SimulatorTimes {
    /// BQSim total pipeline time (fusion + conversion + simulation).
    pub bqsim_ns: u64,
    /// cuQuantum-like (unfused, batched) time.
    pub cuquantum_ns: u64,
    /// Qiskit-Aer-like (fused, per-input ×8 processes) time.
    pub aer_ns: u64,
    /// FlatDD-like (CPU) time.
    pub flatdd_ns: u64,
}

/// Runs the Table 2 comparison for one circuit.
///
/// # Errors
///
/// A compile error, or BQSim's run error (e.g. a batch beyond device
/// memory).
pub fn table2_times(
    circuit: &Circuit,
    params: &ReportParams,
) -> Result<SimulatorTimes, Box<dyn Error>> {
    let sims = Simulators::compile(circuit)?;
    let (batches, batch_size) = (params.batches, params.batch_size);
    Ok(SimulatorTimes {
        bqsim_ns: sims
            .bqsim
            .run_synthetic(batches, batch_size)?
            .breakdown
            .total_ns(),
        cuquantum_ns: sims.cuquantum.run_synthetic(batches, batch_size).total_ns,
        aer_ns: sims.aer.run_synthetic(params.total_inputs()).total_ns,
        flatdd_ns: sims.flatdd.run_synthetic(params.total_inputs()).total_ns,
    })
}

/// All four simulators' #MAC per input for one circuit (Table 3).
#[derive(Debug, Clone, Copy)]
pub struct MacCounts {
    /// BQSim after BQCS-aware fusion.
    pub bqsim: u64,
    /// cuQuantum, unfused dense.
    pub cuquantum: u64,
    /// Aer after array-based fusion.
    pub aer: u64,
    /// FlatDD after greedy DD fusion.
    pub flatdd: u64,
}

/// Computes Table 3's per-input #MAC for one circuit.
///
/// # Errors
///
/// As [`Simulators::compile`].
pub fn table3_macs(circuit: &Circuit) -> Result<MacCounts, Box<dyn Error>> {
    let sims = Simulators::compile(circuit)?;
    Ok(MacCounts {
        bqsim: sims.bqsim.mac_per_input(),
        cuquantum: sims.cuquantum.mac_per_input(),
        aer: sims.aer.mac_per_input(),
        flatdd: sims.flatdd.mac_per_input(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_qcir::generators;

    #[test]
    fn table2_times_order_correctly_on_a_small_circuit() {
        let params = ReportParams {
            batches: 4,
            batch_size: 16,
            ..ReportParams::default()
        };
        let circuit = generators::routing(6, 1);
        let t = table2_times(&circuit, &params).unwrap();
        assert!(t.bqsim_ns < t.cuquantum_ns);
        assert!(t.bqsim_ns < t.aer_ns);
        assert!(t.bqsim_ns < t.flatdd_ns);
    }

    #[test]
    fn table3_macs_match_paper_for_routing6() {
        let circuit = generators::routing(6, 1);
        let m = table3_macs(&circuit).unwrap();
        // Paper Table 3, Routing n=6: cuQuantum 9 984, BQSim 3 072.
        assert_eq!(m.cuquantum, 9984);
        assert!(m.bqsim <= m.flatdd);
    }
}
