//! The traced run: replays a workload's ops in the harness process by
//! calling each layer's public functions, outside-in, with a span and
//! counters around every call.
//!
//! Per op, the outermost span is `run_campaign` (or `run_service`) with
//! the op's own options — the in-process twin of the CLI op. Its parts
//! are then called directly on the same inputs and linked to it as
//! children: compile (lower → fusion → DD-to-ELL → publish) or artifact
//! load, one `execute_campaign_batch` per batch with its checksum and
//! integrity check, and under each batch the staging transposes and the
//! `EllSpmmKernel` launches on a device buffer pair.
//!
//! Every layer is measured on every workload's circuits. A layer the
//! workload's ops never reach (fusion on a warm store, the tuner, the
//! service) is recorded under op [`OFF_PATH`], so it has a number but
//! stays out of the op's attribution.

use crate::reference::References;
use crate::trace::{SpanId, Tracer, OFF_PATH};
use crate::workloads::{Action, Store, Workload};
use bqsim_campaign::checksum::{encode_state, state_checksum};
use bqsim_campaign::{
    campaign_digest, check_batch, execute_campaign_batch, plan_fingerprint, run_campaign,
    state_path, CampaignOptions, IntegrityBudget, JournalWriter, Record, StateMode,
};
use bqsim_core::convert::HybridConverter;
use bqsim_core::fusion::{bqcs_aware_fusion, total_mac_per_input};
use bqsim_core::kernels::EllSpmmKernel;
use bqsim_core::{
    artifact_key, tune_or_stored, ArtifactStore, BqSimOptions, BqSimulator, ConversionMethod,
    ConvertedGate, EllCache, Layout, Precision, TuningSource,
};
use bqsim_faults::CancelToken;
use bqsim_gpu::{DeviceMemory, HostMemory, Kernel};
use bqsim_num::Complex;
use bqsim_qcir::Circuit;
use bqsim_qdd::gates::lower_circuit;
use bqsim_qdd::DdPackage;
use bqsim_serve::{run_service, trace_path, ServiceConfig, SubmissionOutcome, SubmitSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per circuit in the threads = 1 against default-threads
/// comparison.
const THREAD_PROBE_BATCHES: usize = 8;

/// Batches per submission when a workload without a service session has
/// the service measured on its own circuits.
const SERVICE_PROBE_BATCHES: usize = 12;

/// State shared by one traced round.
pub struct Replay<'a> {
    /// Span and counter sink.
    pub tracer: Tracer,
    /// Compile/execution options, as the CLI defaults them.
    pub opts: BqSimOptions,
    /// References (and their compiled simulators) from set-up.
    pub refs: &'a References,
    /// The store set-up populated; warm ops load from it.
    pub warm_store: &'a Path,
    /// Directory for the replay's own journals, state dirs, and stores.
    pub scratch: &'a Path,
    /// Replayed digests checked against their reference.
    pub attempted: u64,
    /// Replayed digests that missed their reference.
    pub failed: u64,
    next_op: u32,
}

type Batches = Vec<Vec<Vec<Complex>>>;

impl<'a> Replay<'a> {
    /// A replay context with an empty trace.
    pub fn new(
        opts: BqSimOptions,
        refs: &'a References,
        warm_store: &'a Path,
        scratch: &'a Path,
    ) -> Self {
        Replay {
            tracer: Tracer::new(),
            opts,
            refs,
            warm_store,
            scratch,
            attempted: 0,
            failed: 0,
            next_op: OFF_PATH + 1,
        }
    }

    /// Replays every throughput op of `workload`, then measures the
    /// layers its ops bypass.
    ///
    /// # Errors
    ///
    /// A message naming the layer call that failed.
    pub fn workload(&mut self, workload: &Workload) -> Result<(), String> {
        // Distinct circuits, each with whether its ops compiled it.
        let mut circuits: Vec<(SubmitSpec, bool)> = Vec::new();
        let mut has_fleet = false;
        for op in workload.ops.iter().filter(|op| op.feeds_throughput()) {
            let op_id = self.next_op;
            self.next_op += 1;
            match &op.action {
                Action::Campaign {
                    spec,
                    full_state,
                    store,
                } => {
                    let root = self.tracer.open("op", None, op_id);
                    self.campaign(Some(root), op_id, spec, *full_state, *store, true)?;
                }
                Action::Fleet { specs } => {
                    has_fleet = true;
                    self.service(op_id, specs, true)?;
                }
            }
            let compiles = matches!(
                op.action,
                Action::Campaign {
                    store: Store::Fresh,
                    ..
                }
            );
            for spec in op.specs() {
                let same = |(c, _): &(SubmitSpec, bool)| {
                    (&c.family, c.qubits) == (&spec.family, spec.qubits)
                };
                if !circuits.iter().any(same) {
                    circuits.push((spec.clone(), compiles));
                }
            }
        }
        for (spec, compiled) in &circuits {
            self.bypassed_layers(spec, *compiled)?;
        }
        if !has_fleet {
            let specs: Vec<SubmitSpec> = circuits
                .iter()
                .enumerate()
                .map(|(i, (spec, _))| SubmitSpec {
                    tenant: format!("t{i}"),
                    batches: spec.batches.min(SERVICE_PROBE_BATCHES),
                    ..spec.clone()
                })
                .collect();
            self.service(OFF_PATH, &specs, false)?;
        }
        Ok(())
    }

    /// The replay's own store: what the compile layers publish into and
    /// the tuner republishes in, kept apart from the ops' warm store.
    fn scratch_store_dir(&self) -> PathBuf {
        self.scratch.join("replay.store")
    }

    fn scratch_store(&self) -> Result<ArtifactStore, String> {
        ArtifactStore::open(self.scratch_store_dir()).map_err(|e| e.to_string())
    }

    fn judge(&mut self, what: &str, got: u64, spec: &SubmitSpec) {
        self.attempted += 1;
        let want = self.refs.digest(spec);
        if got != want {
            self.failed += 1;
            eprintln!(
                "benchmark: {what} {} digest {got:016x}, reference {want:016x}",
                spec.id
            );
        }
    }

    /// One campaign, outside-in. With `parent` a fresh `op` root, the
    /// spans are on the op's path. `layered = false` records only a
    /// `serve.twin` span around `run_campaign` (the service's serial
    /// twin on a workload that has no service op). Returns the
    /// `run_campaign` wall in ms.
    fn campaign(
        &mut self,
        parent: Option<SpanId>,
        op: u32,
        spec: &SubmitSpec,
        full_state: bool,
        store: Store,
        layered: bool,
    ) -> Result<f64, String> {
        let [build_name, inputs_name, run_name] = if layered {
            ["qcir.build", "inputs.gen", "campaign.run"]
        } else {
            ["serve.twin.build", "serve.twin.inputs", "serve.twin"]
        };
        let (circuit, _) = self
            .tracer
            .time(build_name, parent, op, || spec.build_circuit());
        let circuit = circuit.map_err(|e| e.to_string())?;
        let (batches, _) = self
            .tracer
            .time(inputs_name, parent, op, || spec.build_inputs());
        if layered {
            self.tracer.add("qcir.gates", circuit.num_gates() as f64);
        }

        let journal = self.scratch.join("replay.journal");
        let fresh = self.scratch.join("replay.fresh");
        let copts = CampaignOptions {
            journal_path: Some(journal.clone()),
            persist_state: full_state,
            artifact_dir: Some(match store {
                Store::Fresh => fresh.clone(),
                Store::Warm => self.warm_store.to_path_buf(),
            }),
            ..CampaignOptions::default()
        };
        let opts = self.opts.clone();
        let (result, run) = self.tracer.time(run_name, parent, op, || {
            run_campaign(&circuit, opts, &batches, &copts)
        });
        if let Some(root) = parent {
            self.tracer.close(root);
        }
        let result = result.map_err(|e| format!("run_campaign {}: {e}", spec.id))?;
        self.judge("run_campaign", campaign_digest(&result.checksums), spec);
        if layered {
            let on_disk = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
            let bytes = on_disk(&journal) + on_disk(&state_path(&journal));
            self.tracer.add("campaign.journal_bytes", bytes as f64);
            if let Some(stats) = result.store_stats.filter(|_| op != OFF_PATH) {
                self.tracer.add("artifact.hits", stats.hits as f64);
                self.tracer
                    .add("artifact.lookups", (stats.hits + stats.misses) as f64);
            }
        }
        drop(result);
        remove_journal(&journal);
        let _ = std::fs::remove_dir_all(&fresh);
        if layered {
            let sim = self.compile_or_load(Some(run), op, spec, &circuit, store)?;
            self.batches(run, op, spec, &sim, &batches, full_state, &copts)?;
        }
        Ok(self.tracer.span_ms(run))
    }

    /// The compile side of a campaign: the four compile layers for a
    /// fresh store, an artifact load for a warm one.
    fn compile_or_load(
        &mut self,
        parent: Option<SpanId>,
        op: u32,
        spec: &SubmitSpec,
        circuit: &Circuit,
        store: Store,
    ) -> Result<BqSimulator, String> {
        match store {
            Store::Fresh => {
                self.compile_layers(parent, op, spec, circuit)?;
                // What a cold op does not do, measured for its circuit
                // all the same: load what it just published.
                self.load(None, OFF_PATH, circuit, &self.scratch_store_dir())
            }
            Store::Warm => self.load(parent, op, circuit, self.warm_store),
        }
    }

    fn load(
        &mut self,
        parent: Option<SpanId>,
        op: u32,
        circuit: &Circuit,
        dir: &Path,
    ) -> Result<BqSimulator, String> {
        let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
        let opts = self.opts.clone();
        let (loaded, _) = self.tracer.time("artifact.load", parent, op, || {
            BqSimulator::compile_or_load(circuit, opts, &store)
        });
        let (sim, source) = loaded.map_err(|e| e.to_string())?;
        if !source.is_warm() {
            return Err(format!("{}: expected a warm artifact load", dir.display()));
        }
        Ok(sim)
    }

    /// Lower → fusion → DD-to-ELL → publish, each by its public
    /// function, with the counters of each layer.
    fn compile_layers(
        &mut self,
        parent: Option<SpanId>,
        op: u32,
        spec: &SubmitSpec,
        circuit: &Circuit,
    ) -> Result<(), String> {
        let key = artifact_key(circuit, &self.opts);
        let store = self.scratch_store()?;
        let t = &mut self.tracer;
        let n = circuit.num_qubits();
        let (lowered, _) = t.time("qdd.lower", parent, op, || lower_circuit(circuit));
        t.add("qdd.lowered_gates", lowered.len() as f64);

        let mut dd = DdPackage::new();
        let (fused, _) = t.time("fusion", parent, op, || {
            bqcs_aware_fusion(&mut dd, n, &lowered)
        });
        let stats = dd.stats();
        t.add(
            "fusion.dd_nodes",
            (stats.matrix_nodes + stats.vector_nodes) as f64,
        );
        t.add("fusion.cache_misses", stats.cache_misses as f64);
        t.add(
            "fusion.cache_lookups",
            (stats.cache_hits + stats.cache_misses) as f64,
        );
        t.add("fusion.fused_gates", fused.len() as f64);
        t.add(
            "fusion.mac_per_input",
            total_mac_per_input(&fused, n) as f64,
        );
        for g in &fused {
            t.max("fusion.max_nzr", g.cost as f64);
        }

        let converter = HybridConverter::new(
            self.opts.tau,
            self.opts.device.clone(),
            self.opts.cpu.clone(),
        );
        let mut cache = EllCache::new();
        let (gates, _) = t.time("convert", parent, op, || {
            fused
                .iter()
                .map(|g| converter.convert_cached(&mut cache, &mut dd, g, n))
                .collect::<Vec<ConvertedGate>>()
        });
        let cache = cache.stats();
        t.add("convert.distinct_gates", cache.misses as f64);
        t.add("convert.cache_hits", cache.hits as f64);
        t.add("convert.cache_lookups", (cache.hits + cache.misses) as f64);
        for g in &gates {
            t.add("convert.ell_bytes", g.ell.byte_size() as f64);
            t.add("convert.stored_nonzeros", g.ell.stored_nonzeros() as f64);
            t.add("convert.slots", (g.ell.num_rows() * g.ell.max_nzr()) as f64);
            let path = match g.method {
                ConversionMethod::Gpu => "convert.gpu_path_gates",
                ConversionMethod::Cpu => "convert.cpu_path_gates",
            };
            t.add(path, 1.0);
        }

        // Publishing needs a whole simulator; set-up's is the same
        // compile, so its artifact has the bytes this one would.
        let artifact = self.refs.get(spec).sim.to_artifact(key);
        let (published, _) = t.time("artifact.publish", parent, op, || store.publish(&artifact));
        let path = published.map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        t.add("artifact.bytes", bytes as f64);
        Ok(())
    }

    /// The execution side of a campaign: every batch through
    /// `execute_campaign_batch` with its checksum, integrity check and
    /// journal commit, then every batch through the staging and kernel
    /// calls directly.
    #[allow(clippy::too_many_arguments)]
    fn batches(
        &mut self,
        run: SpanId,
        op: u32,
        spec: &SubmitSpec,
        sim: &BqSimulator,
        batches: &Batches,
        full_state: bool,
        copts: &CampaignOptions,
    ) -> Result<(), String> {
        let t = &mut self.tracer;
        let cancel = CancelToken::new();
        let budget = IntegrityBudget::default();
        // Checksum-only journals commit inline on the campaign's critical
        // path; full-state ones hand off to a persister thread that
        // overlaps later batches, so their I/O is measured off-path.
        let (journal_parent, journal_op) = if full_state {
            (None, OFF_PATH)
        } else {
            (Some(run), op)
        };
        let mode = if full_state {
            StateMode::Full
        } else {
            StateMode::ChecksumOnly
        };
        let journal = self.scratch.join("replay.layer.journal");
        let fingerprint = plan_fingerprint(&self.refs.get(spec).circuit, &self.opts, batches, None);
        let (writer, _) = t.time("campaign.journal", journal_parent, journal_op, || {
            JournalWriter::create(&journal, &fingerprint, mode)
        });
        let mut committer = GroupCommit {
            writer: writer.map_err(|e| e.to_string())?,
            pending: Vec::new(),
            state_dirty: false,
            flush_due: None,
            interval: copts.commit_interval,
        };

        let mut exec_spans = Vec::with_capacity(batches.len());
        let mut checksums = Vec::with_capacity(batches.len());
        for (b, batch) in batches.iter().enumerate() {
            let name = if b == 0 {
                "exec.first_batch"
            } else {
                "exec.batch"
            };
            let (executed, span) = t.time(name, Some(run), op, || {
                execute_campaign_batch(sim, batch, b, copts, &cancel)
            });
            let out = executed.map_err(|e| e.to_string())?.outputs;
            exec_spans.push(span);
            let (checksum, _) = t.time("campaign.checksum", Some(run), op, || state_checksum(&out));
            t.time("campaign.integrity", Some(run), op, || {
                check_batch(batch, &out, &budget)
            });
            checksums.push(Some(checksum));
            let (committed, _) = t.time("campaign.journal", journal_parent, journal_op, || {
                committer.commit(b, checksum, full_state.then_some(&out))
            });
            committed.map_err(|e| e.to_string())?;
        }
        let (flushed, _) = t.time("campaign.journal", journal_parent, journal_op, || {
            committer.flush()
        });
        flushed.map_err(|e| e.to_string())?;
        drop(committer);
        remove_journal(&journal);
        t.add("exec.batches", batches.len() as f64);
        let pool = sim.pool_stats();
        t.add("exec.pool_hits", pool.hits as f64);
        t.add("exec.pool_lookups", (pool.hits + pool.misses) as f64);
        self.judge("execute_campaign_batch", campaign_digest(&checksums), spec);

        self.kernels(op, spec, sim, batches, &exec_spans, checksums[0])
    }

    /// Staging transposes and kernel launches called directly: the same
    /// `EllSpmmKernel`s (lanes included) over a device buffer pair, each
    /// batch's spans linked under that batch's `exec` span.
    fn kernels(
        &mut self,
        op: u32,
        spec: &SubmitSpec,
        sim: &BqSimulator,
        batches: &Batches,
        exec_spans: &[SpanId],
        first_checksum: Option<u64>,
    ) -> Result<(), String> {
        let t = &mut self.tracer;
        let batch_size = spec.batch_size;
        let elems = batch_size << spec.qubits;
        let mut mem = DeviceMemory::new(&self.opts.device);
        let mut alloc = || {
            mem.alloc_amp(elems, Layout::Planar, 16)
                .map_err(|e| e.to_string())
        };
        let pair = [alloc()?, alloc()?];
        let lanes = self
            .opts
            .threads
            .min(std::thread::available_parallelism().map_or(1, |p| p.get()));
        let launches: Vec<EllSpmmKernel> = sim
            .gates()
            .iter()
            .enumerate()
            .map(|(k, g)| {
                EllSpmmKernel::with_tuning(
                    Arc::clone(&g.ell),
                    pair[k % 2],
                    pair[(k + 1) % 2],
                    batch_size,
                    lanes,
                    false,
                    Precision::F64,
                    true,
                )
            })
            .collect();
        let result = pair[launches.len() % 2];
        let macs: u64 = launches.iter().map(EllSpmmKernel::macs).sum();
        // Computed, not measured: each launch reads one input plane pair
        // and its ELL table and writes one output plane pair.
        let bytes: u64 = sim
            .gates()
            .iter()
            .map(|g| 2 * 16 * elems as u64 + g.ell.byte_size())
            .sum();

        for (b, (batch, &parent)) in batches.iter().zip(exec_spans).enumerate() {
            let mut host = HostMemory::new();
            let (staged, _) = t.time("ell.pack", Some(parent), op, || {
                host.alloc_staged_amp(batch, Layout::Planar, 16)
            });
            mem.buffer_mut(pair[0])
                .store_mut()
                .copy_store_from(host.buffer(staged).store());
            t.time("ell.spmm", Some(parent), op, || {
                for launch in &launches {
                    launch.execute(&mem);
                }
            });
            let (out, _) = t.time("ell.unpack", Some(parent), op, || {
                mem.buffer(result).store().unpack_states(batch_size)
            });
            if b == 0 && Some(state_checksum(&out)) != first_checksum {
                return Err(format!(
                    "{}: direct kernel calls disagree with the run",
                    spec.id
                ));
            }
        }
        t.add("ell.macs", (macs * batches.len() as u64) as f64);
        t.add("ell.bytes_moved", (bytes * batches.len() as u64) as f64);
        Ok(())
    }

    /// The layers `spec`'s ops bypass, measured on its circuit anyway:
    /// the compile layers when every op was warm, the tuner cold and
    /// stored, and the threads = 1 baseline of the same batches.
    fn bypassed_layers(&mut self, spec: &SubmitSpec, compiled: bool) -> Result<(), String> {
        let circuit = self.refs.get(spec).circuit.clone();
        let key = artifact_key(&circuit, &self.opts);
        if !compiled {
            self.compile_layers(None, OFF_PATH, spec, &circuit)?;
        }
        let store = self.scratch_store()?;
        let load = |opts: &BqSimOptions| {
            BqSimulator::compile_or_load(&circuit, opts.clone(), &store).map_err(|e| e.to_string())
        };

        let inputs: Batches = (0..spec.batches.min(THREAD_PROBE_BATCHES))
            .map(|b| {
                bqsim_core::random_input_batch(spec.qubits, spec.batch_size, spec.seed ^ b as u64)
            })
            .collect();
        for (name, threads) in [("exec.t1", 1), ("exec.tn", self.opts.threads)] {
            let (sim, _) = load(&BqSimOptions {
                threads,
                ..self.opts.clone()
            })?;
            // Warm the pool first so both sides time steady state.
            sim.run_batches(&inputs[..1]).map_err(|e| e.to_string())?;
            let (ran, _) = self.tracer.time(name, None, OFF_PATH, || {
                inputs
                    .iter()
                    .try_for_each(|batch| sim.run_batches(std::slice::from_ref(batch)).map(drop))
            });
            ran.map_err(|e| e.to_string())?;
        }

        // The tuner last: its republished record must not reach the
        // untuned loads above.
        let budget = Some(IntegrityBudget::default().max_norm_drift);
        let (mut cold, _) = load(&self.opts)?;
        let (tuned, _) = self.tracer.time("tune.probe", None, OFF_PATH, || {
            tune_or_stored(&mut cold, Precision::F32, budget, Some((&store, key)))
        });
        let tuned = tuned.map_err(|e| e.to_string())?;
        self.tracer.add("tune.probes", tuned.probes as f64);
        let (mut warm, _) = load(&self.opts)?;
        let (stored, _) = self.tracer.time("tune.stored", None, OFF_PATH, || {
            tune_or_stored(&mut warm, Precision::F32, budget, None)
        });
        let stored = stored.map_err(|e| e.to_string())?;
        if stored.source != TuningSource::Stored || stored.probes != 0 {
            return Err(format!(
                "{}: a tuned artifact probed again on load",
                spec.id
            ));
        }
        Ok(())
    }

    /// One `run_service` session over `specs` plus each submission's
    /// serial twin. On the `fleet` workload (`on_path`) the session is
    /// the op and the twins are full layered replays; elsewhere both are
    /// what-if measurements on the workload's own circuits.
    fn service(&mut self, op: u32, specs: &[SubmitSpec], on_path: bool) -> Result<(), String> {
        let state_dir: PathBuf = self.scratch.join("replay.state");
        let _ = std::fs::remove_dir_all(&state_dir);
        let mut cfg = ServiceConfig::new(&state_dir);
        cfg.artifact_dir = Some(self.warm_store.to_path_buf());
        let root = on_path.then(|| self.tracer.open("op", None, op));
        let (report, session) = self
            .tracer
            .time("serve.session", root, op, || run_service(&cfg, specs));
        if let Some(root) = root {
            self.tracer.close(root);
        }
        let report = report.map_err(|e| format!("run_service: {e}"))?;
        for (sub, spec) in report.submissions.iter().zip(specs) {
            match &sub.outcome {
                SubmissionOutcome::Completed { digest, .. } => {
                    self.judge("run_service", *digest, spec)
                }
                _ => {
                    return Err(format!(
                        "run_service: {}/{} did not complete",
                        sub.tenant, sub.id
                    ))
                }
            }
        }
        let schedule =
            std::fs::read_to_string(trace_path(&state_dir)).map_err(|e| e.to_string())?;
        let t = &mut self.tracer;
        t.add("serve.sched_events", schedule.lines().count() as f64);
        let requeues = schedule
            .lines()
            .filter(|l| l.starts_with("requeue "))
            .count();
        t.add("serve.requeues", requeues as f64);
        t.add("serve.warm_compiles", report.warm_compiles as f64);
        t.add("serve.cold_compiles", report.cold_compiles as f64);
        if on_path {
            if let Some(stats) = report.store_stats {
                t.add("artifact.hits", stats.hits as f64);
                t.add("artifact.lookups", (stats.hits + stats.misses) as f64);
            }
        }
        let _ = std::fs::remove_dir_all(&state_dir);

        let mut serial_ms = 0.0;
        for spec in specs {
            serial_ms += self.campaign(None, OFF_PATH, spec, true, Store::Warm, on_path)?;
        }
        let session_ms = self.tracer.span_ms(session);
        self.tracer.add("serve.serial_ms", serial_ms);
        self.tracer
            .add("serve.device_ms", cfg.devices as f64 * session_ms);
        Ok(())
    }
}

fn remove_journal(journal: &Path) {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(state_path(journal));
}

/// The campaign runner's group commit, rebuilt from `JournalWriter`'s
/// public calls: a batch's sidecar slot is staged on arrival, records
/// are held back, and one fsync pair makes the group durable when the
/// commit interval has passed.
struct GroupCommit {
    writer: JournalWriter,
    pending: Vec<Record>,
    state_dirty: bool,
    flush_due: Option<Instant>,
    interval: Duration,
}

impl GroupCommit {
    fn commit(
        &mut self,
        index: usize,
        checksum: u64,
        state: Option<&Vec<Vec<Complex>>>,
    ) -> Result<(), bqsim_campaign::JournalError> {
        if let Some(state) = state {
            self.writer.write_slot(index, &encode_state(state))?;
            self.state_dirty = true;
        }
        self.pending.push(Record::Batch { index, checksum });
        let now = Instant::now();
        if now >= *self.flush_due.get_or_insert(now + self.interval) {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), bqsim_campaign::JournalError> {
        if self.state_dirty {
            self.writer.sync_state()?;
            self.state_dirty = false;
        }
        for rec in self.pending.drain(..) {
            self.writer.append_unsynced(&rec)?;
        }
        self.flush_due = None;
        self.writer.sync_journal()
    }
}
