//! Multi-GPU batch partitioning — the scaling extension sketched in the
//! paper's §4.2: "the batch of state vectors can be partitioned across
//! multiple GPUs … the circuit is optimized once into a reusable simulation
//! task graph that can run different batches on multiple GPUs".
//!
//! The circuit is compiled once, against the first device; every device
//! is a sibling simulator sharing those fused ELL gates (behind `Arc`s)
//! with its own [`DeviceSpec`] and buffer pool. The conversion method
//! depends on τ, not on the device, so sharing changes no gate; the
//! per-device breakdowns carry the first device's modelled conversion
//! time. A request is validated once, then batch `b` is dealt (borrowed)
//! to device `b % k`; devices run independently, so the makespan is the
//! slowest device's schedule.

use crate::simulator::{BqSimOptions, BqSimulator, RunRequest, RunResult};
use crate::BqsimError;
use bqsim_faults::{RecoveryPolicy, RunHealth};
use bqsim_gpu::DeviceSpec;
use bqsim_num::Complex;
use bqsim_qcir::Circuit;

/// A batch simulation spread over several (simulated) GPUs.
#[derive(Debug)]
pub struct MultiGpuRunner {
    sims: Vec<BqSimulator>,
}

/// The result of a multi-GPU run.
#[derive(Debug)]
pub struct MultiGpuRun {
    /// Output states per batch, in original batch order (empty in
    /// timing-only mode), moved out of the per-device results.
    pub outputs: Vec<Vec<Vec<Complex>>>,
    /// One result per device, in device order; a device dealt no batch has
    /// an empty timeline, and a device that ran a requeue wave has it
    /// appended to its timeline.
    pub per_device: Vec<RunResult>,
    /// The makespan: the slowest device's virtual time, requeue waves
    /// included.
    pub makespan_ns: u64,
    /// Merged health account across all devices and waves.
    pub health: RunHealth,
}

impl MultiGpuRunner {
    /// Compiles the circuit once and makes one sibling simulator per
    /// device (sharing the same options except the device spec).
    ///
    /// # Errors
    ///
    /// Returns [`BqsimError::NoDevices`] when `devices` is empty, and
    /// propagates compile errors.
    pub fn compile(
        circuit: &Circuit,
        base: &BqSimOptions,
        devices: Vec<DeviceSpec>,
    ) -> Result<Self, BqsimError> {
        let on = |device| BqSimOptions {
            device,
            ..base.clone()
        };
        let first = devices.first().ok_or(BqsimError::NoDevices)?;
        let sim = BqSimulator::compile(circuit, on(first.clone()))?;
        let sims = devices.into_iter().map(|d| sim.sibling(on(d))).collect();
        Ok(MultiGpuRunner { sims })
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.sims.len()
    }

    /// Runs one request across the devices.
    ///
    /// The request's shape is checked once, up front, so errors name the
    /// *global* batch index. Wave one deals batch `b` to device `b % k` and
    /// runs each device with the request's retry/degradation policy but
    /// **without** the host fallback: batches a device cannot finish (lost
    /// device, exhausted retries) are collected instead. Wave two requeues
    /// those batches round-robin over the surviving devices, fault-free,
    /// and appends the extra work to each survivor's timeline so the
    /// makespan stays truthful.
    ///
    /// # Errors
    ///
    /// The shape errors of [`BqSimulator::execute`];
    /// [`BqsimError::Cancelled`] when the token fires (devices that already
    /// finished their share are discarded with the rest — campaigns journal
    /// per *batch*, so nothing is lost); [`BqsimError::AllDevicesLost`]
    /// when batches need requeueing but no device survived; otherwise
    /// unrecoverable-OOM errors.
    pub fn execute(&self, req: &RunRequest) -> Result<MultiGpuRun, BqsimError> {
        let k = self.sims.len();
        req.source.validate(self.sims[0].num_qubits())?;
        let num_batches = req.source.counts().0;
        let policy = req
            .faults
            .map_or_else(RecoveryPolicy::no_recovery, |(_, p)| RecoveryPolicy {
                host_fallback: false,
                ..*p
            });
        let mut outputs = vec![Vec::new(); num_batches];
        // Runs the batches at `dealt` on device `d`, moving their outputs
        // into place.
        let mut run_share = |d: usize, dealt: &[usize], faults| {
            let sim = &self.sims[d];
            let mut run = if dealt.is_empty() {
                sim.idle_result()
            } else {
                let source = req.source.select(dealt);
                let cancel = req.cancel;
                sim.execute_on(
                    d,
                    &RunRequest {
                        source,
                        cancel,
                        faults,
                    },
                )?
            };
            for (out, &b) in run.outputs.drain(..).zip(dealt) {
                outputs[b] = out;
            }
            Ok::<_, BqsimError>(run)
        };

        let mut per_device = Vec::with_capacity(k);
        let mut health = RunHealth::new();
        let mut requeue = Vec::new();
        let mut survivors = Vec::new();
        for d in 0..k {
            let dealt: Vec<usize> = (d..num_batches).step_by(k).collect();
            let mut run = run_share(d, &dealt, req.faults.map(|(plan, _)| (plan, &policy)))?;
            requeue.extend(
                run.health
                    .failed_batches
                    .drain(..)
                    .map(|local| dealt[local]),
            );
            if !run.health.lost_devices.contains(&d) {
                survivors.push(d);
            }
            health.merge(run.health.clone());
            per_device.push(run);
        }
        if !requeue.is_empty() {
            if survivors.is_empty() {
                return Err(BqsimError::AllDevicesLost);
            }
            requeue.sort_unstable();
            for (i, &s) in survivors.iter().enumerate() {
                let dealt: Vec<usize> = requeue
                    .iter()
                    .copied()
                    .skip(i)
                    .step_by(survivors.len())
                    .collect();
                let run = run_share(s, &dealt, None)?;
                per_device[s].timeline.extend_after(&run.timeline);
                per_device[s].breakdown.simulation_ns += run.breakdown.simulation_ns;
                health.merge(run.health);
            }
            health.requeued_batches = requeue;
        }

        if outputs.iter().all(Vec::is_empty) {
            outputs.clear(); // timing-only
        }
        let makespan_ns = per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .max()
            .unwrap_or(0);
        Ok(MultiGpuRun {
            outputs,
            per_device,
            makespan_ns,
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_input_batch;
    use bqsim_num::approx::vectors_eq;
    use bqsim_qcir::{dense, generators};

    fn sim_run(circuit: &Circuit, batches: &[Vec<Vec<Complex>>]) -> Vec<Vec<Vec<Complex>>> {
        let sim = BqSimulator::compile(circuit, BqSimOptions::default()).unwrap();
        sim.run_batches(batches).unwrap().outputs
    }

    #[test]
    fn two_gpus_nearly_halve_the_makespan() {
        let circuit = generators::vqe(8, 3);
        let one = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let two = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000(), DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let t1 = one
            .execute(&RunRequest::synthetic(40, 64))
            .unwrap()
            .makespan_ns;
        let t2 = two
            .execute(&RunRequest::synthetic(40, 64))
            .unwrap()
            .makespan_ns;
        let ratio = t1 as f64 / t2 as f64;
        assert!(
            (1.6..=2.1).contains(&ratio),
            "2-GPU speed-up out of range: {ratio}"
        );
    }

    #[test]
    fn outputs_match_single_device_and_oracle() {
        let circuit = generators::qnn(4, 3);
        let runner = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000(), DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let batches: Vec<_> = (0..5).map(|b| random_input_batch(4, 3, b)).collect();
        let run = runner.execute(&RunRequest::batches(&batches)).unwrap();
        assert_eq!(run.outputs, sim_run(&circuit, &batches));
        for (batch_in, batch_out) in batches.iter().zip(&run.outputs) {
            for (input, got) in batch_in.iter().zip(batch_out) {
                let mut want = input.clone();
                dense::apply_circuit(&mut want, &circuit);
                assert!(vectors_eq(got, &want, 1e-9));
            }
        }
    }

    #[test]
    fn device_loss_requeues_batches_to_the_survivor() {
        use bqsim_faults::{FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::qnn(4, 3);
        let runner = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000(), DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let batches: Vec<_> = (0..6).map(|b| random_input_batch(4, 3, b)).collect();
        let clean = runner.execute(&RunRequest::batches(&batches)).unwrap();

        let mut plan = FaultPlan::new();
        plan.push(1, FaultKind::DeviceLoss { at_task: 0 });
        let rec = runner
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()))
            .unwrap();
        assert_eq!(rec.health.lost_devices, vec![1]);
        assert_eq!(
            rec.health.requeued_batches,
            vec![1, 3, 5],
            "device 1's batches move to the survivor:\n{}",
            rec.health
        );
        assert_eq!(rec.health.count_of("device-loss"), 1);
        assert_eq!(
            rec.outputs, clean.outputs,
            "requeued outputs must be bit-identical to the fault-free run"
        );
        assert!(
            rec.makespan_ns > clean.makespan_ns,
            "the survivor pays for the requeued wave"
        );
    }

    #[test]
    fn losing_every_device_is_an_error() {
        use bqsim_faults::{FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::ghz(3);
        let runner = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let batches: Vec<_> = (0..2).map(|b| random_input_batch(3, 2, b)).collect();
        let mut plan = FaultPlan::new();
        plan.push(0, FaultKind::DeviceLoss { at_task: 0 });
        match runner
            .execute(&RunRequest::batches(&batches).with_faults(&plan, &RecoveryPolicy::default()))
        {
            Err(BqsimError::AllDevicesLost) => {}
            other => panic!("expected AllDevicesLost, got {other:?}"),
        }
    }

    #[test]
    fn compiling_for_no_devices_is_an_error() {
        let circuit = generators::ghz(3);
        match MultiGpuRunner::compile(&circuit, &BqSimOptions::default(), vec![]) {
            Err(BqsimError::NoDevices) => {}
            other => panic!("expected NoDevices, got {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_devices_bound_makespan_by_slowest() {
        let circuit = generators::routing(6, 1);
        let fast = DeviceSpec::rtx_a6000();
        let slow = DeviceSpec::tiny_test_gpu();
        let runner =
            MultiGpuRunner::compile(&circuit, &BqSimOptions::default(), vec![fast, slow]).unwrap();
        let run = runner.execute(&RunRequest::synthetic(10, 16)).unwrap();
        let per: Vec<u64> = run
            .per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .collect();
        assert_eq!(run.makespan_ns, *per.iter().max().unwrap());
        assert!(per[1] > per[0], "tiny GPU must be the straggler");

        // `per_device[d]` is device `d`, even for a device dealt no batch.
        let batches = vec![random_input_batch(6, 4, 0)];
        for req in [RunRequest::synthetic(1, 16), RunRequest::batches(&batches)] {
            let run = runner.execute(&req).unwrap();
            assert_eq!(run.per_device.len(), runner.num_devices());
            assert_eq!(run.per_device[1].timeline.total_ns(), 0);
            assert_eq!(run.makespan_ns, run.per_device[0].timeline.total_ns());
        }
    }
}
