//! Multi-GPU batch partitioning — the scaling extension sketched in the
//! paper's §4.2: "the batch of state vectors can be partitioned across
//! multiple GPUs … the circuit is optimized once into a reusable simulation
//! task graph that can run different batches on multiple GPUs".
//!
//! The compiled pipeline (fused ELL gates) is shared; batches are dealt
//! round-robin to per-device engines that run independently, so the
//! makespan is the slowest device's schedule.

use crate::simulator::{BqSimOptions, BqSimulator, RunResult};
use crate::BqsimError;
use bqsim_faults::{CancelToken, FaultPlan, RecoveryPolicy, RunHealth};
use bqsim_gpu::{DeviceSpec, Timeline};
use bqsim_num::Complex;
use bqsim_qcir::Circuit;

/// A batch simulation spread over several (simulated) GPUs.
#[derive(Debug)]
pub struct MultiGpuRunner {
    sims: Vec<BqSimulator>,
}

/// The result of a fault-injected multi-GPU run.
#[derive(Debug)]
pub struct MultiGpuRecoveredRun {
    /// Output states per batch, **in original batch order** (unlike
    /// [`MultiGpuRun`], requeueing breaks the `b % k` dealing so the
    /// runner reassembles outputs itself). Empty in timing-only mode.
    pub outputs: Vec<Vec<Vec<Complex>>>,
    /// Per-device run results; a device that ran a requeue wave has it
    /// appended to its timeline.
    pub per_device: Vec<RunResult>,
    /// The makespan: the slowest device's virtual time, requeue waves
    /// included.
    pub makespan_ns: u64,
    /// Merged health account across all devices and waves.
    pub health: RunHealth,
}

/// The result of a multi-GPU run.
#[derive(Debug)]
pub struct MultiGpuRun {
    /// Per-device run results, in device order. Outputs of batch `b` live
    /// in device `b % num_devices`'s result, at index `b / num_devices`.
    pub per_device: Vec<RunResult>,
    /// The makespan: the slowest device's virtual time.
    pub makespan_ns: u64,
}

impl MultiGpuRunner {
    /// Compiles the circuit once per device (sharing the same options
    /// except the device spec).
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
        if devices.is_empty() {
            return Err(BqsimError::NoDevices);
        }
        let sims = devices
            .into_iter()
            .map(|device| {
                let opts = BqSimOptions {
                    device,
                    ..base.clone()
                };
                BqSimulator::compile(circuit, opts)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiGpuRunner { sims })
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.sims.len()
    }

    /// Runs explicit batches, dealing batch `b` to device `b % k`.
    ///
    /// # Errors
    ///
    /// Propagates device OOM / input-shape errors.
    pub fn run_batches(&self, batches: &[Vec<Vec<Complex>>]) -> Result<MultiGpuRun, BqsimError> {
        self.run_batches_cancellable(batches, &CancelToken::new())
    }

    /// [`run_batches`](Self::run_batches) under a cooperative
    /// [`CancelToken`]: polled before each device's run and at every task
    /// boundary within it.
    ///
    /// # Errors
    ///
    /// Additionally returns [`BqsimError::Cancelled`] when the token
    /// fires; devices that already completed their share are discarded
    /// with the rest (campaign-level durability journals per *batch*, not
    /// per device, so nothing is lost by the discard).
    pub fn run_batches_cancellable(
        &self,
        batches: &[Vec<Vec<Complex>>],
        cancel: &CancelToken,
    ) -> Result<MultiGpuRun, BqsimError> {
        let k = self.sims.len();
        let mut per_device_batches: Vec<Vec<Vec<Vec<Complex>>>> = vec![Vec::new(); k];
        for (b, batch) in batches.iter().enumerate() {
            per_device_batches[b % k].push(batch.clone());
        }
        let mut per_device = Vec::with_capacity(k);
        for (sim, dev_batches) in self.sims.iter().zip(&per_device_batches) {
            if cancel.is_cancelled() {
                return Err(BqsimError::Cancelled);
            }
            if dev_batches.is_empty() {
                per_device.push(RunResult {
                    outputs: Vec::new(),
                    timeline: Timeline::default(),
                    breakdown: sim.compile_breakdown(),
                    power: bqsim_gpu::power::PowerReport {
                        cpu_w: 0.0,
                        gpu_w: 0.0,
                        duration_ns: 0,
                    },
                });
                continue;
            }
            per_device.push(sim.run_batches_cancellable(dev_batches, cancel)?);
        }
        let makespan_ns = per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .max()
            .unwrap_or(0);
        Ok(MultiGpuRun {
            per_device,
            makespan_ns,
        })
    }

    /// Runs batches under an injected [`FaultPlan`] with per-device
    /// recovery, requeueing the batches of failed devices onto survivors.
    ///
    /// Wave one deals batch `b` to device `b % k` and runs each device
    /// with `policy`'s retry/degradation but **without** the host
    /// fallback: batches a device cannot finish (lost device, exhausted
    /// retries) are collected instead. Wave two requeues those batches
    /// round-robin over the surviving devices, fault-free, and appends the
    /// extra work to each survivor's timeline so the makespan stays
    /// truthful.
    ///
    /// # Errors
    ///
    /// Returns [`BqsimError::AllDevicesLost`] when batches need requeueing
    /// but no device survived; otherwise propagates input-shape and
    /// unrecoverable-OOM errors.
    pub fn run_batches_recovering(
        &self,
        batches: &[Vec<Vec<Complex>>],
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Result<MultiGpuRecoveredRun, BqsimError> {
        let k = self.sims.len();
        let wave_policy = RecoveryPolicy {
            host_fallback: false,
            ..*policy
        };
        let mut per_device_batches: Vec<Vec<Vec<Vec<Complex>>>> = vec![Vec::new(); k];
        let mut per_device_orig: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (b, batch) in batches.iter().enumerate() {
            per_device_batches[b % k].push(batch.clone());
            per_device_orig[b % k].push(b);
        }

        let mut health = RunHealth::new();
        let mut per_device = Vec::with_capacity(k);
        let mut outputs: Vec<Vec<Vec<Complex>>> = vec![Vec::new(); batches.len()];
        let mut requeue: Vec<usize> = Vec::new();
        let mut lost = vec![false; k];

        for d in 0..k {
            if per_device_batches[d].is_empty() {
                per_device.push(RunResult {
                    outputs: Vec::new(),
                    timeline: Timeline::default(),
                    breakdown: self.sims[d].compile_breakdown(),
                    power: bqsim_gpu::power::PowerReport {
                        cpu_w: 0.0,
                        gpu_w: 0.0,
                        duration_ns: 0,
                    },
                });
                continue;
            }
            let rec = self.sims[d].run_batches_recovering_on(
                d,
                &per_device_batches[d],
                plan,
                &wave_policy,
            )?;
            lost[d] = rec.health.lost_devices.contains(&d);
            for (local, &orig) in per_device_orig[d].iter().enumerate() {
                if !rec.health.failed_batches.contains(&local) && !rec.run.outputs.is_empty() {
                    outputs[orig] = rec.run.outputs[local].clone();
                }
            }
            requeue.extend(
                rec.health
                    .failed_batches
                    .iter()
                    .map(|&local| per_device_orig[d][local]),
            );
            let mut h = rec.health;
            h.failed_batches.clear(); // requeued below, not failed
            health.merge(h);
            per_device.push(rec.run);
        }

        if !requeue.is_empty() {
            let survivors: Vec<usize> = (0..k).filter(|&d| !lost[d]).collect();
            if survivors.is_empty() {
                return Err(BqsimError::AllDevicesLost);
            }
            requeue.sort_unstable();
            let mut wave2: Vec<Vec<usize>> = vec![Vec::new(); survivors.len()];
            for (i, &orig) in requeue.iter().enumerate() {
                wave2[i % survivors.len()].push(orig);
            }
            for (s, origs) in survivors.iter().zip(&wave2) {
                if origs.is_empty() {
                    continue;
                }
                let wave_batches: Vec<_> = origs.iter().map(|&b| batches[b].clone()).collect();
                let run2 = self.sims[*s].run_batches(&wave_batches)?;
                for (local, &orig) in origs.iter().enumerate() {
                    if !run2.outputs.is_empty() {
                        outputs[orig] = run2.outputs[local].clone();
                    }
                }
                per_device[*s].timeline.extend_after(&run2.timeline);
                per_device[*s].breakdown.simulation_ns += run2.breakdown.simulation_ns;
            }
            health.requeued_batches = requeue;
        }

        let makespan_ns = per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .max()
            .unwrap_or(0);
        Ok(MultiGpuRecoveredRun {
            outputs,
            per_device,
            makespan_ns,
            health,
        })
    }

    /// Reassembles outputs into the original batch order.
    pub fn gather_outputs(&self, run: &MultiGpuRun, num_batches: usize) -> Vec<Vec<Vec<Complex>>> {
        let k = self.sims.len();
        (0..num_batches)
            .map(|b| run.per_device[b % k].outputs[b / k].clone())
            .collect()
    }

    /// Timing-only run of `num_batches × batch_size` synthetic inputs.
    ///
    /// # Errors
    ///
    /// Propagates device OOM errors.
    pub fn run_synthetic(
        &self,
        num_batches: usize,
        batch_size: usize,
    ) -> Result<MultiGpuRun, BqsimError> {
        let k = self.sims.len();
        let mut per_device = Vec::with_capacity(k);
        for (d, sim) in self.sims.iter().enumerate() {
            let share = num_batches / k + usize::from(d < num_batches % k);
            if share == 0 {
                continue;
            }
            per_device.push(sim.run_synthetic(share, batch_size)?);
        }
        let makespan_ns = per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .max()
            .unwrap_or(0);
        Ok(MultiGpuRun {
            per_device,
            makespan_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_input_batch;
    use bqsim_num::approx::vectors_eq;
    use bqsim_qcir::{dense, generators};

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
        let t1 = one.run_synthetic(40, 64).unwrap().makespan_ns;
        let t2 = two.run_synthetic(40, 64).unwrap().makespan_ns;
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
        let run = runner.run_batches(&batches).unwrap();
        let outputs = runner.gather_outputs(&run, batches.len());
        for (batch_in, batch_out) in batches.iter().zip(&outputs) {
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
        let clean = runner.run_batches(&batches).unwrap();
        let clean_outputs = runner.gather_outputs(&clean, batches.len());

        let mut plan = FaultPlan::new();
        plan.push(1, FaultKind::DeviceLoss { at_task: 0 });
        let rec = runner
            .run_batches_recovering(&batches, &plan, &RecoveryPolicy::default())
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
            rec.outputs, clean_outputs,
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
        match runner.run_batches_recovering(&batches, &plan, &RecoveryPolicy::default()) {
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
        let run = runner.run_synthetic(10, 16).unwrap();
        let per: Vec<u64> = run
            .per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .collect();
        assert_eq!(run.makespan_ns, *per.iter().max().unwrap());
        assert!(per[1] > per[0], "tiny GPU must be the straggler");
    }
}
