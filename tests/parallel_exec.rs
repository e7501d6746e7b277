//! Host-parallelism properties: state lanes — a batch's states split into
//! contiguous shares, each swept on its own thread, the only host
//! parallelism of functional execution — must be **bit-identical** to one
//! lane, outputs, fault accounting and virtual timeline alike, for clean
//! and fault-recovered runs at shapes where the states really split. The
//! row-partitioned `EllSpmmKernel` lanes (a direct kernel call, not used
//! by the executor) must agree with one lane too. Also covers the
//! compile-level ELL conversion cache: a layered circuit converts each
//! distinct fused gate exactly once.

use bqsim_core::kernels::EllSpmmKernel;
use bqsim_core::{
    host_parallelism, random_input_batch, BqSimOptions, BqSimulator, BqsimError, EllCache,
    HybridConverter, RunRequest, MIN_MACS_PER_LANE,
};
use bqsim_faults::{CancelToken, FaultBudget, RecoveryPolicy};
use bqsim_gpu::{DeviceMemory, DeviceSpec, Kernel};
use bqsim_num::Complex;
use bqsim_qcir::{generators, Circuit};
use proptest::prelude::*;
use std::sync::Arc;

/// State vectors per batch in the lane property: with ≥ 128 rows this
/// gives every launch at least two lanes' worth of work.
const LANE_BATCH: usize = 64;

fn lane_opts(threads: usize) -> BqSimOptions {
    BqSimOptions {
        threads,
        ..BqSimOptions::default()
    }
}

/// Lanes a launch of `sim`'s first gate over `batch` states would split
/// into when `lanes` are offered.
fn effective_lanes(sim: &BqSimulator, batch: usize, lanes: usize) -> usize {
    let mut mem = DeviceMemory::new(&DeviceSpec::rtx_a6000());
    let src = mem.alloc(1).expect("one-amplitude buffer");
    let dst = mem.alloc(1).expect("one-amplitude buffer");
    let gate = Arc::clone(&sim.gates()[0].ell);
    EllSpmmKernel::with_lanes(gate, src, dst, batch, lanes).effective_lanes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random circuits at 128–256 rows × 64 states, threads {1, 2, 7}
    /// give the same `f64` bits (`==`, no tolerance) on a clean run, and
    /// the first gate's direct kernel call would split its rows. The
    /// simulator caps lanes at the host's core count, so on a one-core
    /// host the runs compare equal trivially;
    /// `row_partitioned_spmm_matches_single_lane` below pins the
    /// oversubscribed kernel directly.
    #[test]
    fn parallel_execution_is_bit_identical_to_serial(
        circuit_seed in 0u64..500,
        n in 7usize..9,
        gates in 5usize..16,
        num_batches in 1usize..3,
    ) {
        let circuit = generators::random_circuit(n, gates, circuit_seed);
        let batches = lane_batches(n, num_batches, circuit_seed);
        let serial_sim = BqSimulator::compile(&circuit, lane_opts(1)).unwrap();
        for lanes in [2usize, 7] {
            prop_assert!(
                effective_lanes(&serial_sim, LANE_BATCH, lanes) > 1,
                "n={} batch={} must split across {} lanes", n, LANE_BATCH, lanes
            );
        }
        let serial = serial_sim.run_batches(&batches).unwrap();
        for threads in [2usize, 7] {
            let sim = BqSimulator::compile(&circuit, lane_opts(threads)).unwrap();
            let clean = sim.run_batches(&batches).unwrap();
            prop_assert_eq!(
                &clean.outputs, &serial.outputs,
                "{} threads diverged from one lane", threads
            );
        }
    }

    /// Under a seeded transient fault plan, whose poisoned-then-retried
    /// tasks exercise the engine's inline recovery path, threads {1, 2, 7}
    /// land bit-identically on the clean one-lane outputs with the same
    /// fault count, at shapes where launches split.
    #[test]
    fn parallel_fault_recovery_is_bit_identical_to_serial(
        circuit_seed in 0u64..500,
        fault_seed in 0u64..200,
        n in 7usize..9,
        num_batches in 1usize..3,
    ) {
        let circuit = generators::random_circuit(n, 12, circuit_seed);
        let batches = lane_batches(n, num_batches, circuit_seed);
        let serial_sim = BqSimulator::compile(&circuit, lane_opts(1)).unwrap();
        prop_assert!(effective_lanes(&serial_sim, LANE_BATCH, 2) > 1);
        let plan =
            serial_sim.seeded_fault_plan(fault_seed, batches.len(), &FaultBudget::transient(2, 1, 1));
        let policy = RecoveryPolicy::default();
        let serial = serial_sim.run_batches(&batches).unwrap();
        let serial_rec = serial_sim.execute(&RunRequest::batches(&batches).with_faults(&plan, &policy)).unwrap();
        prop_assert_eq!(&serial_rec.outputs, &serial.outputs);
        for threads in [2usize, 7] {
            let sim = BqSimulator::compile(&circuit, lane_opts(threads)).unwrap();
            let rec = sim.execute(&RunRequest::batches(&batches).with_faults(&plan, &policy)).unwrap();
            prop_assert_eq!(
                &rec.outputs, &serial.outputs,
                "{} threads diverged from one lane under fault recovery", threads
            );
            prop_assert_eq!(rec.health.fault_count(), serial_rec.health.fault_count());
        }
    }
}

/// Shapes above the state-lane floor whose states split unevenly across
/// two lanes (and, at 65 states, up to four): graph-13 × 3 (638,976 MACs
/// a batch), qft-10 × 33 (675,840) and qft-10 × 65 (1,331,200).
fn state_lane_shapes() -> [(Circuit, usize); 3] {
    [
        (generators::graph_state(13), 3),
        (generators::qft(10), 33),
        (generators::qft(10), 65),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Threads {2, 7} split each batch's states into lanes and must land on
    /// threads 1's outputs (`==`), `RunHealth` (`==`) and virtual
    /// timeline length, on a clean run and under seeded transient, OOM and
    /// device-loss plans — the OOM ladder's rebuilt launch and the
    /// dense fallback after a lost device included.
    #[test]
    fn state_lanes_are_bit_identical_to_one_lane(
        input_seed in 0u64..1000,
        fault_seed in 0u64..200,
    ) {
        let policy = RecoveryPolicy::default();
        let budgets = [
            FaultBudget::transient(2, 1, 1),
            FaultBudget { ooms: 1, ..FaultBudget::default() },
            FaultBudget { device_losses: 1, ..FaultBudget::transient(1, 1, 0) },
        ];
        for (circuit, batch_size) in state_lane_shapes() {
            let n = circuit.num_qubits();
            let batches = vec![random_input_batch(n, batch_size, input_seed)];
            let serial = BqSimulator::compile(&circuit, lane_opts(1)).unwrap();
            prop_assert!(
                serial.mac_per_input() * batch_size as u64 >= 2 * MIN_MACS_PER_LANE,
                "{} x {} must be above the floor", circuit.name(), batch_size
            );
            let plans: Vec<_> = budgets
                .iter()
                .map(|b| serial.seeded_fault_plan(fault_seed, 1, b))
                .collect();
            let run = |sim: &BqSimulator, plan: Option<usize>| {
                let req = RunRequest::batches(&batches);
                match plan {
                    Some(i) => sim.execute(&req.with_faults(&plans[i], &policy)),
                    None => sim.execute(&req),
                }
                .unwrap()
            };
            let cases = [None, Some(0), Some(1), Some(2)];
            let want: Vec<_> = cases.iter().map(|&p| run(&serial, p)).collect();
            for threads in [2usize, 7] {
                let sim = BqSimulator::compile(&circuit, lane_opts(threads)).unwrap();
                let shares = sim.state_shares(batch_size);
                prop_assert_eq!(shares.len() > 1, host_parallelism() > 1);
                for (&plan, want) in cases.iter().zip(&want) {
                    let got = run(&sim, plan);
                    let at = format!("{n} qubits x {batch_size}, {threads} threads, plan {plan:?}");
                    prop_assert!(got.outputs == want.outputs, "{}: outputs differ", at);
                    prop_assert_eq!(&got.health, &want.health, "{}: health differs", at);
                    prop_assert_eq!(
                        got.timeline.total_ns(),
                        want.timeline.total_ns(),
                        "{}: timeline differs", at
                    );
                }
            }
        }
    }
}

/// A fired token cancels a run whose states split across lanes: every
/// share stops at its first task boundary and the run is `Cancelled`,
/// never a partial output.
#[test]
fn cancelled_state_lanes_return_cancelled() {
    let [_, (circuit, batch_size), _] = state_lane_shapes();
    let sim = BqSimulator::compile(&circuit, lane_opts(2)).unwrap();
    let batches = vec![random_input_batch(circuit.num_qubits(), batch_size, 5)];
    let cancel = CancelToken::new();
    cancel.cancel();
    let req = RunRequest {
        cancel: Some(&cancel),
        ..RunRequest::batches(&batches)
    };
    assert!(matches!(sim.execute(&req), Err(BqsimError::Cancelled)));
}

fn lane_batches(n: usize, num_batches: usize, seed: u64) -> Vec<Vec<Vec<Complex>>> {
    (0..num_batches)
        .map(|b| random_input_batch(n, LANE_BATCH, seed ^ b as u64))
        .collect()
}

/// Compile cache: a layered circuit (same gates repeated per layer,
/// fusion disabled so repetition survives) converts each **distinct**
/// canonical DD edge exactly once; every repeat is a cache hit.
#[test]
fn layered_circuit_converts_each_distinct_gate_once() {
    let layers = 5;
    let mut circuit = Circuit::new(5);
    for _ in 0..layers {
        for q in 0..5 {
            circuit.h(q);
        }
        for q in 0..4 {
            circuit.cx(q, q + 1);
        }
    }
    let opts = BqSimOptions {
        skip_fusion: true,
        ..BqSimOptions::default()
    };
    let sim = BqSimulator::compile(&circuit, opts).unwrap();
    let stats = sim.conversion_cache_stats();
    let total = (5 + 4) * layers as u64;
    let distinct = 5 + 4; // one H per qubit + one CX per pair
    assert_eq!(
        stats.misses, distinct,
        "each distinct gate converts exactly once"
    );
    assert_eq!(
        stats.hits,
        total - distinct,
        "every repeat must hit the cache"
    );
    assert_eq!(stats.evictions, 0, "well under the default capacity bound");
    assert_eq!(sim.gates().len() as u64, total);
}

/// The cache is purely a compile-time artifact: cached and uncached
/// compilations simulate to identical amplitudes.
#[test]
fn cached_compilation_is_functionally_inert() {
    let circuit = generators::qft(5);
    let mut dd = bqsim_qdd::DdPackage::new();
    let lowered = bqsim_qdd::gates::lower_circuit(&circuit);
    let fused = bqsim_core::bqcs_aware_fusion(&mut dd, 5, &lowered);
    let converter = HybridConverter::default();
    let mut cache = EllCache::new();
    for g in &fused {
        let cached = converter.convert_cached(&mut cache, &mut dd, g, 5);
        let twice = converter.convert_cached(&mut cache, &mut dd, g, 5);
        assert_eq!(cached.ell, twice.ell);
        assert_eq!(cached.conversion_ns, twice.conversion_ns);
    }
    assert_eq!(cache.misses(), fused.len() as u64);
    assert!(cache.unique_conversion_ns() > 0);
}

/// Forced row-partitioned spMM: an `EllSpmmKernel` with several lanes
/// produces exactly the bytes of the single-lane launch, and the generic
/// ablation loop agrees too.
#[test]
fn row_partitioned_spmm_matches_single_lane() {
    let n = 7usize;
    let batch = 64usize; // 128 rows × 64 = 8192 elems → 2+ lanes admitted
    let circuit = generators::qft(n);
    let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
    let gate = Arc::clone(&sim.gates()[0].ell);
    let elems = (1usize << n) * batch;
    let input: Vec<Complex> = bqsim_ell::pack_batch(&random_input_batch(n, batch, 9));

    let run = |kernel: &dyn Kernel, mem: &DeviceMemory| {
        kernel.execute(mem);
    };
    let mut outs: Vec<Vec<Complex>> = Vec::new();
    for lanes in [1usize, 2, 4, 7] {
        let mut mem = DeviceMemory::new(&DeviceSpec::rtx_a6000());
        let src = mem.alloc(elems).unwrap();
        let dst = mem.alloc(elems).unwrap();
        mem.buffer_mut(src).copy_from_slice(&input);
        let k = EllSpmmKernel::with_lanes(Arc::clone(&gate), src, dst, batch, lanes);
        run(&k, &mem);
        outs.push(mem.buffer(dst).to_vec());
    }
    for (i, o) in outs.iter().enumerate().skip(1) {
        assert_eq!(o, &outs[0], "lane config {i} diverged from single lane");
    }

    // Generic ablation loop: same bytes as the fast paths here too.
    let mut mem = DeviceMemory::new(&DeviceSpec::rtx_a6000());
    let src = mem.alloc(elems).unwrap();
    let dst = mem.alloc(elems).unwrap();
    mem.buffer_mut(src).copy_from_slice(&input);
    let k = EllSpmmKernel::with_mode(Arc::clone(&gate), src, dst, batch, 1, true);
    run(&k, &mem);
    assert_eq!(&*mem.buffer(dst), outs[0].as_slice());
}

/// `BQSIM_THREADS` seeds the default; an explicit `threads` value wins.
#[test]
fn default_threads_is_at_least_one() {
    assert!(bqsim_core::default_threads() >= 1);
    let opts = BqSimOptions::default();
    assert!(opts.threads >= 1);
    assert!(!opts.generic_spmm);
}
