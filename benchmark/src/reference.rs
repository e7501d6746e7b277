//! Set-up: correctness before numbers.
//!
//! For every distinct circuit of a workload the harness builds the plan
//! in-process exactly as the CLI does (circuit from `family`/`qubits`/
//! `seed`, batch `b` from `random_input_batch(n, B, seed ^ b)`), checks
//! BQSim's amplitudes against the independent dense oracle, and records
//! the per-batch checksums whose digest every CLI op must reproduce.
//! Compiling through the shared store pre-populates it for the warm
//! workloads as a side effect.

use crate::workloads::Workload;
use bqsim_campaign::campaign_digest;
use bqsim_campaign::checksum::state_checksum;
use bqsim_core::{random_input_batch, ArtifactStore, BqSimOptions, BqSimulator, RunBreakdown};
use bqsim_qcir::{dense, Circuit};
use bqsim_serve::SubmitSpec;
use std::collections::BTreeMap;
use std::path::Path;

/// States of batch 0 compared against the dense oracle.
const ORACLE_STATES: usize = 4;

/// Largest amplitude error the oracle comparison tolerates.
const ORACLE_TOLERANCE: f64 = 1e-9;

/// Amplitudes per reference `run_batches` call: bounds the harness's own
/// memory on the 4000-batch plan without changing any result.
const CHUNK_AMPS: usize = 1 << 22;

/// Everything set-up learned about one circuit at one batch shape.
#[derive(Debug)]
pub struct Reference {
    /// The circuit, built once.
    pub circuit: Circuit,
    /// The compiled simulator the checksums came from.
    pub sim: BqSimulator,
    /// Output checksum of every batch up to the longest plan that uses
    /// this circuit; a shorter plan's digest folds a prefix.
    pub checksums: Vec<Option<u64>>,
    /// Largest amplitude error against the dense oracle.
    pub oracle_error: f64,
}

/// A circuit at a batch shape: plans that differ only in batch count
/// share inputs batch for batch, so they share one reference.
type Key = (String, usize, usize, u64);

fn key(spec: &SubmitSpec) -> Key {
    (spec.family.clone(), spec.qubits, spec.batch_size, spec.seed)
}

/// References of one workload.
#[derive(Debug, Default)]
pub struct References {
    by_key: BTreeMap<Key, Reference>,
}

impl References {
    /// Builds the reference of every distinct circuit in `workload`,
    /// compiling through (and so populating) the store at `store_dir`.
    ///
    /// # Errors
    ///
    /// A message naming the plan when compilation, simulation, or the
    /// oracle comparison fails.
    pub fn build(
        workload: &Workload,
        store_dir: &Path,
        opts: &BqSimOptions,
    ) -> Result<Self, String> {
        let mut longest: BTreeMap<Key, SubmitSpec> = BTreeMap::new();
        for spec in workload.ops.iter().flat_map(|op| op.specs()) {
            let slot = longest.entry(key(spec)).or_insert_with(|| spec.clone());
            if spec.batches > slot.batches {
                *slot = spec.clone();
            }
        }
        let store = ArtifactStore::open(store_dir).map_err(|e| format!("artifact store: {e}"))?;
        let mut by_key = BTreeMap::new();
        for (k, spec) in longest {
            let reference = build_one(&spec, &store, opts)
                .map_err(|e| format!("reference {}: {e}", spec.id))?;
            by_key.insert(k, reference);
        }
        Ok(References { by_key })
    }

    /// The reference behind `spec`.
    ///
    /// # Panics
    ///
    /// Panics for a spec outside the workload the references were built
    /// from — a harness bug.
    pub fn get(&self, spec: &SubmitSpec) -> &Reference {
        self.by_key
            .get(&key(spec))
            .unwrap_or_else(|| panic!("no reference for {}", spec.id))
    }

    /// The campaign digest `spec`'s op must print.
    pub fn digest(&self, spec: &SubmitSpec) -> u64 {
        campaign_digest(&self.get(spec).checksums[..spec.batches])
    }

    /// Largest oracle error over the workload's circuits.
    pub fn oracle_error(&self) -> f64 {
        self.by_key
            .values()
            .map(|r| r.oracle_error)
            .fold(0.0, f64::max)
    }

    /// The paper's clock for `spec`: modelled fusion and conversion time
    /// of its compile plus the virtual device time of its full schedule.
    ///
    /// # Errors
    ///
    /// Propagates the timing-only run's failure.
    pub fn virtual_breakdown(&self, spec: &SubmitSpec) -> Result<RunBreakdown, String> {
        self.get(spec)
            .sim
            .run_synthetic(spec.batches, spec.batch_size)
            .map(|run| run.breakdown)
            .map_err(|e| format!("virtual clock of {}: {e}", spec.id))
    }
}

fn build_one(
    spec: &SubmitSpec,
    store: &ArtifactStore,
    opts: &BqSimOptions,
) -> Result<Reference, String> {
    let circuit = spec.build_circuit().map_err(|e| e.to_string())?;
    let n = spec.qubits;
    let (sim, _) =
        BqSimulator::compile_or_load(&circuit, opts.clone(), store).map_err(|e| e.to_string())?;

    let per_chunk = (CHUNK_AMPS / (spec.batch_size << n)).max(1);
    let mut checksums = Vec::with_capacity(spec.batches);
    let mut oracle_error = 0.0f64;
    for first in (0..spec.batches).step_by(per_chunk) {
        let inputs: Vec<_> = (first..spec.batches.min(first + per_chunk))
            .map(|b| random_input_batch(n, spec.batch_size, spec.seed ^ b as u64))
            .collect();
        let run = sim.run_batches(&inputs).map_err(|e| e.to_string())?;
        if first == 0 {
            oracle_error = oracle_distance(&circuit, &inputs[0], &run.outputs[0]);
            if oracle_error > ORACLE_TOLERANCE {
                return Err(format!(
                    "amplitudes differ from the dense oracle by {oracle_error:e} \
                     (tolerance {ORACLE_TOLERANCE:e})"
                ));
            }
        }
        checksums.extend(run.outputs.iter().map(|out| Some(state_checksum(out))));
    }
    Ok(Reference {
        circuit,
        sim,
        checksums,
        oracle_error,
    })
}

/// Largest amplitude difference between BQSim's outputs and the dense
/// simulation of the same inputs, over the first states of a batch.
fn oracle_distance(
    circuit: &Circuit,
    inputs: &[Vec<bqsim_num::Complex>],
    outputs: &[Vec<bqsim_num::Complex>],
) -> f64 {
    let mut worst = 0.0f64;
    for (input, output) in inputs.iter().zip(outputs).take(ORACLE_STATES) {
        let mut expect = input.clone();
        dense::apply_circuit(&mut expect, circuit);
        for (a, b) in expect.iter().zip(output) {
            worst = worst.max((a.re - b.re).abs()).max((a.im - b.im).abs());
        }
    }
    worst
}
