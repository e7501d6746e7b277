//! Compile-or-load: the disk-backed extension of the compile pipeline.
//!
//! [`BqSimulator::compile`] runs fusion and conversion from scratch every
//! process. This module keys the compile-relevant inputs into a 64-bit
//! content address ([`artifact_key`]), persists the compiled result as a
//! circuit executable in an [`ArtifactStore`], and reassembles a
//! [`BqSimulator`] straight from the stored bytes on later runs
//! ([`BqSimulator::compile_or_load`]) — extending the in-memory `EllCache`
//! discipline to disk and across processes. DESIGN.md §16 documents the
//! format and protocols; `bqsim analyze --artifact DIR` drives
//! [`audit_store`] over a store to prove what is on disk still matches
//! what this build would compile.

use crate::convert::{ConversionMethod, ConvertedGate, EllCacheStats};
use crate::error::BqsimError;
use crate::simulator::{BqSimOptions, BqSimulator};
use bqsim_artifact::{
    fnv1a, ArtifactStore, CircuitArtifact, Flight, GateRecord, LoadOutcome, FLIGHT_TIMEOUT,
};
use bqsim_ell::convert::ConversionWork;
use bqsim_qcir::{qasm, Circuit};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The key schema version baked into [`artifact_key`]. Deliberately
/// pinned *separately* from `ARTIFACT_VERSION`: the format grew a
/// tuning section in version 2, but tuning is execution metadata — the
/// compiled content is unchanged — so bumping the key with the format
/// would have forked every existing artifact for no reason. Bump this
/// only when the *compile inputs* that feed the key change meaning.
const KEY_SCHEMA_VERSION: u32 = 1;

/// The content address of a compilation: an FNV-1a 64 hash over the
/// key schema version, the canonical circuit representation, and
/// every compile-relevant option.
///
/// Included: τ, device and CPU specs (they parameterise the modelled
/// conversion times stored in the artifact), and the forced-conversion /
/// skip-fusion / skip-ELL / generic-spMM ablation flags. Excluded —
/// deliberately — are `threads`, `launch_mode`, `exec_mode`, `layout`,
/// `precision`, and `use_pattern`: they change how a compiled circuit
/// is *executed*, never what the compile produces, so runs that differ
/// only in those share one artifact (the bit-identity guarantee across
/// threads and layouts is what makes this sound, and the proptest suite
/// holds it; layout and precision ride as a tuning record inside the
/// artifact rather than forking its key — this is what lets
/// [`BqSimulator::apply_tuning`] guarantee the key never moves).
pub fn artifact_key(circuit: &Circuit, opts: &BqSimOptions) -> u64 {
    // The layout token is pinned, not tunable. Schema 1 originally
    // rendered `effective_layout()` here, which forked the artifact
    // whenever the auto-tuner moved the layout axis; since the compiled
    // content is layout-independent, the token now renders only the
    // *ablation-determined* layout — the sole compile-relevant component
    // of the old value — keeping every previously published key for
    // default (planar) and ablation compiles stable without a schema
    // bump, while runs that differ only in the requested layout now
    // alias to one artifact.
    let pinned_layout = if opts.skip_ell || opts.generic_spmm {
        bqsim_ell::Layout::Aos
    } else {
        bqsim_ell::Layout::Planar
    };
    let repr = format!(
        "bqaf v{KEY_SCHEMA_VERSION} circuit={circuit:?} tau={} device={:?} cpu={:?} \
         force={:?} skip_fusion={} skip_ell={} generic_spmm={} layout={:?}",
        opts.tau,
        opts.device,
        opts.cpu,
        opts.force_conversion,
        opts.skip_fusion,
        opts.skip_ell,
        opts.generic_spmm,
        pinned_layout,
    );
    fnv1a(repr.as_bytes())
}

/// Where [`BqSimulator::compile_or_load`]'s gates came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileSource {
    /// No valid artifact existed; the circuit was compiled from scratch.
    Cold {
        /// Whether the fresh compile was published back to the store
        /// (`false` only if the publish I/O failed — the simulator itself
        /// is unaffected).
        published: bool,
    },
    /// Loaded from a valid artifact; fusion and conversion never ran.
    Warm,
    /// An artifact existed but failed validation; it was discarded, the
    /// circuit recompiled, and the store republished. The warning names
    /// the failed check — callers should surface it, but the run proceeds
    /// with a correct (freshly compiled) simulator either way.
    RecompiledCorrupt {
        /// The first failed validation check.
        warning: String,
    },
}

impl CompileSource {
    /// True when the compile pipeline was skipped entirely.
    pub fn is_warm(&self) -> bool {
        matches!(self, CompileSource::Warm)
    }
}

fn method_tag(m: ConversionMethod) -> u8 {
    match m {
        ConversionMethod::Cpu => 0,
        ConversionMethod::Gpu => 1,
    }
}

fn method_from_tag(tag: u8) -> Result<ConversionMethod, String> {
    match tag {
        0 => Ok(ConversionMethod::Cpu),
        1 => Ok(ConversionMethod::Gpu),
        other => Err(format!("unknown conversion method tag {other}")),
    }
}

impl BqSimulator {
    /// Compiles `circuit`, preferring a valid artifact in `store` over
    /// re-running fusion and conversion. On a miss this compiles cold and
    /// publishes the result (single-flight: concurrent processes elect one
    /// compiling leader per key; the rest load the leader's publication).
    /// A corrupt artifact degrades to recompile-and-republish with a
    /// warning in the returned [`CompileSource`] — never an error.
    ///
    /// # Errors
    ///
    /// Exactly [`BqSimulator::compile`]'s errors: every store failure mode
    /// (missing, corrupt, unwritable) falls back to the cold path.
    pub fn compile_or_load(
        circuit: &Circuit,
        opts: BqSimOptions,
        store: &ArtifactStore,
    ) -> Result<(Self, CompileSource), BqsimError> {
        let key = artifact_key(circuit, &opts);
        let load_started = Instant::now();
        match store.load(key) {
            LoadOutcome::Hit(a) => {
                match Self::from_artifact(&a, circuit, opts.clone(), &load_started) {
                    Ok(sim) => return Ok((sim, CompileSource::Warm)),
                    Err(warning) => {
                        // Bytes that decode but do not describe this
                        // compile are corruption the format-level checks
                        // cannot see; same recovery: drop, recompile,
                        // republish.
                        let _ = std::fs::remove_file(store.path_for(key));
                        return Self::recompile_and_publish(circuit, opts, store, key, warning);
                    }
                }
            }
            LoadOutcome::Corrupt(warning) => {
                return Self::recompile_and_publish(circuit, opts, store, key, warning);
            }
            LoadOutcome::Miss => {}
        }
        match store.begin_flight(key, FLIGHT_TIMEOUT) {
            Flight::Follower => {
                // A concurrent leader published while we waited.
                let load_started = Instant::now();
                if let LoadOutcome::Hit(a) = store.load(key) {
                    if let Ok(sim) = Self::from_artifact(&a, circuit, opts.clone(), &load_started) {
                        return Ok((sim, CompileSource::Warm));
                    }
                }
                // The leader's artifact vanished or failed validation
                // before we could read it — compile ourselves.
                let mut sim = Self::compile(circuit, opts)?;
                let published = sim.publish_to(store, key);
                Ok((sim, CompileSource::Cold { published }))
            }
            Flight::Leader(guard) => {
                // No double-check load here: we held the miss a moment
                // ago, and losing the tiny race costs one duplicate
                // compile of identical bytes (publication is atomic).
                let mut sim = Self::compile(circuit, opts)?;
                let published = sim.publish_to(store, key);
                drop(guard);
                Ok((sim, CompileSource::Cold { published }))
            }
        }
    }

    fn recompile_and_publish(
        circuit: &Circuit,
        opts: BqSimOptions,
        store: &ArtifactStore,
        key: u64,
        warning: String,
    ) -> Result<(Self, CompileSource), BqsimError> {
        let mut sim = Self::compile(circuit, opts)?;
        sim.publish_to(store, key);
        Ok((sim, CompileSource::RecompiledCorrupt { warning }))
    }

    /// Publishes this simulator's artifact under `key`, recording the
    /// wall time it took. Returns whether the publication succeeded (a
    /// failed publish leaves the simulator itself unaffected).
    fn publish_to(&mut self, store: &ArtifactStore, key: u64) -> bool {
        let started = Instant::now();
        let published = store.publish(&self.to_artifact(key)).is_ok();
        self.set_publish_wall_ns(started.elapsed().as_nanos() as u64);
        published
    }

    /// Serializes this compiled simulator as a circuit executable keyed
    /// by `key` (callers compute it with [`artifact_key`] over the same
    /// circuit and options this simulator was compiled from).
    pub fn to_artifact(&self, key: u64) -> CircuitArtifact {
        let opts = self.opts();
        let breakdown = self.compile_breakdown();
        let cache = self.conversion_cache_stats();
        CircuitArtifact {
            key,
            num_qubits: self.num_qubits(),
            fusion_ns: breakdown.fusion_ns,
            conversion_ns: breakdown.conversion_ns,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            tau: opts.tau,
            skip_fusion: opts.skip_fusion,
            skip_ell: opts.skip_ell,
            generic_spmm: opts.generic_spmm,
            force_conversion: opts.force_conversion.map(method_tag),
            qasm: qasm::write(self.circuit()),
            gates: self
                .gates()
                .iter()
                .map(|g| GateRecord {
                    ell: (*g.ell).clone(),
                    gpu_dd: (*g.gpu_dd).clone(),
                    cost: g.cost,
                    method: method_tag(g.method),
                    conversion_ns: g.conversion_ns,
                    dd_edges: g.dd_edges,
                    work_total_steps: g.work.total_steps,
                    work_max_row_steps: g.work.max_row_steps,
                })
                .collect(),
            tuning: self.stored_tuning(),
        }
    }

    /// Reassembles a simulator from a decoded artifact, cross-checking it
    /// against the circuit and options the caller is actually asking for.
    /// Any disagreement is corruption the caller recompiles past.
    fn from_artifact(
        a: &CircuitArtifact,
        circuit: &Circuit,
        opts: BqSimOptions,
        load_started: &Instant,
    ) -> Result<Self, String> {
        let n = circuit.num_qubits();
        if a.num_qubits != n {
            return Err(format!(
                "artifact is for {} qubits, circuit has {n}",
                a.num_qubits
            ));
        }
        let stored_force = a.force_conversion.map(method_from_tag).transpose()?;
        if a.tau != opts.tau
            || a.skip_fusion != opts.skip_fusion
            || a.skip_ell != opts.skip_ell
            || a.generic_spmm != opts.generic_spmm
            || stored_force != opts.force_conversion
        {
            return Err("artifact was compiled with different options".to_string());
        }
        let dim = 1usize << n;
        let gates = a
            .gates
            .iter()
            .map(|g| -> Result<ConvertedGate, String> {
                if g.ell.num_rows() != dim {
                    return Err(format!(
                        "gate matrix spans {} rows, circuit width needs {dim}",
                        g.ell.num_rows()
                    ));
                }
                Ok(ConvertedGate {
                    ell: Arc::new(g.ell.clone()),
                    gpu_dd: Arc::new(g.gpu_dd.clone()),
                    cost: g.cost,
                    method: method_from_tag(g.method)?,
                    conversion_ns: g.conversion_ns,
                    dd_edges: g.dd_edges,
                    work: ConversionWork {
                        total_steps: g.work_total_steps,
                        max_row_steps: g.work_max_row_steps,
                    },
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut sim = Self::from_parts(
            n,
            gates,
            circuit.clone(),
            opts,
            a.fusion_ns,
            load_started.elapsed().as_nanos() as u64,
            a.conversion_ns,
            EllCacheStats {
                hits: a.cache_hits,
                misses: a.cache_misses,
                evictions: a.cache_evictions,
            },
        );
        sim.set_stored_tuning(a.tuning);
        Ok(sim)
    }
}

/// One audited artifact of a store.
#[derive(Debug, Clone)]
pub struct AuditEntry {
    /// The content key (from the file name, confirmed against the header).
    pub key: u64,
    /// Artifact size on disk.
    pub bytes: u64,
    /// What the audit concluded.
    pub verdict: AuditVerdict,
}

/// The per-artifact audit conclusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditVerdict {
    /// Decoded, recompiled, and matched bit-for-bit.
    Ok {
        /// Fused-gate count of the executable.
        gates: usize,
        /// Circuit width.
        num_qubits: usize,
    },
    /// The bytes failed format validation (CRC, version, structure).
    Corrupt(String),
    /// The bytes decoded, but recompiling the embedded QASM with the
    /// embedded options produced a different executable — the artifact
    /// no longer matches what this build compiles.
    Mismatch(String),
}

/// A full store audit: every artifact's verdict.
#[derive(Debug, Clone, Default)]
pub struct StoreAudit {
    /// Per-artifact results, ordered by key.
    pub entries: Vec<AuditEntry>,
}

impl StoreAudit {
    /// Number of artifacts that decoded and matched a fresh compile.
    pub fn ok(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.verdict, AuditVerdict::Ok { .. }))
            .count()
    }

    /// Number of artifacts that failed format validation.
    pub fn corrupt(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.verdict, AuditVerdict::Corrupt(_)))
            .count()
    }

    /// Number of artifacts that decoded but diverged from a fresh compile.
    pub fn mismatch(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.verdict, AuditVerdict::Mismatch(_)))
            .count()
    }

    /// True when every artifact passed.
    pub fn is_clean(&self) -> bool {
        self.ok() == self.entries.len()
    }
}

/// Audits every artifact in the store at `dir`: decode (CRC, version,
/// structure), then recompile the embedded QASM with the embedded compile
/// options and require the result to match **bit for bit** — ELL values,
/// columns, row occupancy, pattern annotation, flattened DDs, costs, and
/// conversion methods. Modelled timings are *not* compared (they
/// parameterise on device/CPU specs the artifact does not embed; the
/// content key pins those at load time instead).
///
/// The recompile uses one thread and default specs — sound because the
/// compiled executable is independent of thread count, and the compared
/// fields are independent of the device model.
///
/// # Errors
///
/// `NotFound` when `dir` is not an existing directory (an audit never
/// creates the store it inspects), else only the directory scan itself
/// can fail; per-artifact problems land in the verdicts.
pub fn audit_store(dir: &Path) -> std::io::Result<StoreAudit> {
    if !dir.is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no artifact store directory at this path",
        ));
    }
    let store = ArtifactStore::open(dir)?;
    let mut audit = StoreAudit::default();
    for entry in store.entries()? {
        let verdict = audit_one(&entry.path, entry.key);
        audit.entries.push(AuditEntry {
            key: entry.key,
            bytes: entry.bytes,
            verdict,
        });
    }
    Ok(audit)
}

fn audit_one(path: &Path, key: u64) -> AuditVerdict {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return AuditVerdict::Corrupt(format!("unreadable: {e}")),
    };
    let a = match bqsim_artifact::decode_artifact(&bytes, Some(key)) {
        Ok(a) => a,
        Err(e) => return AuditVerdict::Corrupt(e.to_string()),
    };
    let circuit = match qasm::parse(&a.qasm) {
        Ok(c) => c,
        Err(e) => return AuditVerdict::Mismatch(format!("embedded QASM does not parse: {e}")),
    };
    let force = match a.force_conversion.map(method_from_tag).transpose() {
        Ok(f) => f,
        Err(e) => return AuditVerdict::Mismatch(e),
    };
    let opts = BqSimOptions {
        tau: a.tau,
        force_conversion: force,
        skip_fusion: a.skip_fusion,
        skip_ell: a.skip_ell,
        generic_spmm: a.generic_spmm,
        threads: 1,
        ..BqSimOptions::default()
    };
    let fresh = match BqSimulator::compile(&circuit, opts) {
        Ok(s) => s,
        Err(e) => return AuditVerdict::Mismatch(format!("embedded QASM does not compile: {e}")),
    };
    if let Err(why) = compare_compiles(&a, &fresh) {
        return AuditVerdict::Mismatch(why);
    }
    AuditVerdict::Ok {
        gates: a.gates.len(),
        num_qubits: a.num_qubits,
    }
}

/// The round-trip heart of the audit: stored executable vs. fresh compile.
/// The tuning record is deliberately not compared — it is empirical
/// execution metadata (a fresh compile has none), not compiled content.
fn compare_compiles(a: &CircuitArtifact, fresh: &BqSimulator) -> Result<(), String> {
    if a.num_qubits != fresh.num_qubits() {
        return Err(format!(
            "width: stored {} vs recompiled {}",
            a.num_qubits,
            fresh.num_qubits()
        ));
    }
    let fresh_gates = fresh.gates();
    if a.gates.len() != fresh_gates.len() {
        return Err(format!(
            "gate count: stored {} vs recompiled {}",
            a.gates.len(),
            fresh_gates.len()
        ));
    }
    for (i, (s, f)) in a.gates.iter().zip(fresh_gates).enumerate() {
        let (sv, sc, sn) = s.ell.raw_parts();
        let (fv, fc, fn_) = f.ell.raw_parts();
        if s.ell.num_rows() != f.ell.num_rows()
            || s.ell.max_nzr() != f.ell.max_nzr()
            || sv.iter().map(complex_bits).ne(fv.iter().map(complex_bits))
            || sc != fc
            || sn != fn_
        {
            return Err(format!(
                "gate {i}: ELL tensor diverges from a fresh compile"
            ));
        }
        if s.ell.pattern_period() != f.ell.pattern_period() {
            return Err(format!(
                "gate {i}: pattern annotation {:?} vs recompiled {:?}",
                s.ell.pattern_period(),
                f.ell.pattern_period()
            ));
        }
        if s.gpu_dd != *f.gpu_dd {
            return Err(format!("gate {i}: flattened DD diverges"));
        }
        if s.cost != f.cost || method_from_tag(s.method)? != f.method || s.dd_edges != f.dd_edges {
            return Err(format!("gate {i}: conversion provenance diverges"));
        }
        if s.work_total_steps != f.work.total_steps || s.work_max_row_steps != f.work.max_row_steps
        {
            return Err(format!("gate {i}: conversion work counters diverge"));
        }
    }
    Ok(())
}

/// Bit-pattern view of a complex amplitude: the audit's equality is exact,
/// including `-0.0` vs `0.0`.
fn complex_bits(z: &bqsim_num::Complex) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::random_input_batch;
    use bqsim_qcir::generators;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bqsim-core-artifact-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn warm_load_is_bit_identical_to_cold_compile() {
        let dir = tmp_dir("warm");
        let store = ArtifactStore::open(&dir).unwrap();
        let circuit = generators::qft(5);
        let opts = BqSimOptions {
            threads: 1,
            ..BqSimOptions::default()
        };
        let batches = vec![random_input_batch(5, 4, 7)];

        let (cold, src) = BqSimulator::compile_or_load(&circuit, opts.clone(), &store).unwrap();
        assert_eq!(src, CompileSource::Cold { published: true });
        let (warm, src) = BqSimulator::compile_or_load(&circuit, opts.clone(), &store).unwrap();
        assert!(src.is_warm());

        // The warm simulator carries the stored compile over verbatim...
        assert_eq!(warm.compile_breakdown(), cold.compile_breakdown());
        assert_eq!(warm.conversion_cache_stats(), cold.conversion_cache_stats());
        assert_eq!(warm.gates().len(), cold.gates().len());
        // ...and executes bit-identically.
        let a = cold.run_batches(&batches).unwrap();
        let b = warm.run_batches(&batches).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.timeline.total_ns(), b.timeline.total_ns());

        // Distinct compile-relevant options address distinct artifacts;
        // execution-only options share one.
        let k = artifact_key(&circuit, &opts);
        assert_ne!(
            k,
            artifact_key(
                &circuit,
                &BqSimOptions {
                    tau: 7,
                    ..opts.clone()
                }
            )
        );
        assert_eq!(
            k,
            artifact_key(
                &circuit,
                &BqSimOptions {
                    threads: 8,
                    ..opts.clone()
                }
            )
        );
        assert_eq!(
            k,
            artifact_key(
                &circuit,
                &BqSimOptions {
                    layout: bqsim_ell::Layout::Aos,
                    ..opts.clone()
                }
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn applying_a_tuning_record_never_moves_the_artifact_key() {
        // The `--precision auto` campaign path applies the tuner's
        // record to its options and re-derives the key for the store;
        // every tunable axis (precision, layout, threads, pattern) must
        // therefore be execution-only in the key's eyes, or tuning
        // would fork the artifact and strand the stored record.
        let circuit = generators::ghz(3);
        let mut sim = BqSimulator::compile(
            &circuit,
            BqSimOptions {
                threads: 1,
                ..BqSimOptions::default()
            },
        )
        .unwrap();
        let before = artifact_key(&circuit, sim.opts());
        sim.apply_tuning(&bqsim_artifact::TuningRecord {
            precision: bqsim_ell::Precision::F32,
            layout: bqsim_ell::Layout::Aos,
            threads: 4,
            use_pattern: false,
            probe_ns: 1,
        });
        assert_eq!(artifact_key(&circuit, sim.opts()), before);
    }

    #[test]
    fn corrupt_artifact_recompiles_republishes_and_matches() {
        let dir = tmp_dir("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        let circuit = generators::routing(4, 2);
        let opts = BqSimOptions {
            threads: 1,
            ..BqSimOptions::default()
        };
        let (cold, _) = BqSimulator::compile_or_load(&circuit, opts.clone(), &store).unwrap();
        let want = cold
            .run_batches(&[random_input_batch(4, 3, 1)])
            .unwrap()
            .outputs;

        let key = artifact_key(&circuit, &opts);
        let path = store.path_for(key);
        // Seeded corruption sweep: flip one byte at several offsets spread
        // over the file (header, early payload, bulk arrays).
        let clean = std::fs::read(&path).unwrap();
        for frac in [0usize, 1, 3, 7, 9] {
            let at = clean.len() * frac / 10;
            let mut bytes = clean.clone();
            bytes[at.min(clean.len() - 1)] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();

            let (sim, src) = BqSimulator::compile_or_load(&circuit, opts.clone(), &store).unwrap();
            assert!(
                matches!(src, CompileSource::RecompiledCorrupt { .. }),
                "offset {at}: {src:?}"
            );
            let got = sim
                .run_batches(&[random_input_batch(4, 3, 1)])
                .unwrap()
                .outputs;
            assert_eq!(got, want, "offset {at}: corruption must not change results");
            // The recompile republished a valid artifact.
            assert!(matches!(store.load(key), LoadOutcome::Hit(_)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_passes_published_stores_and_flags_tampering() {
        let dir = tmp_dir("audit");
        let store = ArtifactStore::open(&dir).unwrap();
        let opts = BqSimOptions {
            threads: 1,
            ..BqSimOptions::default()
        };
        for circuit in [generators::qft(4), generators::vqe(4, 2)] {
            BqSimulator::compile_or_load(&circuit, opts.clone(), &store).unwrap();
        }
        let audit = audit_store(&dir).unwrap();
        assert_eq!(audit.entries.len(), 2);
        assert!(audit.is_clean(), "{audit:?}");

        // Truncate one artifact: the audit reports it corrupt without
        // touching the other verdicts.
        let victim = &audit.entries[0];
        let path = store.path_for(victim.key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let audit = audit_store(&dir).unwrap();
        assert_eq!((audit.ok(), audit.corrupt(), audit.mismatch()), (1, 1, 0));
        assert!(!audit.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skip_ell_ablation_round_trips_through_the_store() {
        // The DD-walk ablation keeps its flattened DDs on device; the
        // artifact must carry them faithfully too.
        let dir = tmp_dir("skipell");
        let store = ArtifactStore::open(&dir).unwrap();
        let circuit = generators::ghz(4);
        let opts = BqSimOptions {
            skip_ell: true,
            threads: 1,
            ..BqSimOptions::default()
        };
        let batches = vec![random_input_batch(4, 2, 3)];
        let (cold, _) = BqSimulator::compile_or_load(&circuit, opts.clone(), &store).unwrap();
        let (warm, src) = BqSimulator::compile_or_load(&circuit, opts, &store).unwrap();
        assert!(src.is_warm());
        assert_eq!(
            cold.run_batches(&batches).unwrap().outputs,
            warm.run_batches(&batches).unwrap().outputs
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
