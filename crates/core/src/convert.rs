//! Hybrid DD-to-ELL conversion (paper §3.2).
//!
//! GPU-based conversion (Algorithm 1) wins for structurally simple DDs;
//! CPU path enumeration wins once the DD has many edges (more branches →
//! more thread divergence, Fig. 5). The hybrid converter picks per gate:
//! CPU when the DD has more than τ edges, GPU otherwise (§3.2, τ = 2000 in
//! the paper's evaluation).

use crate::fusion::FusedGate;
use crate::kernels::DdToEllKernel;
use bqsim_ell::convert::{conversion_work, ell_from_dd_cpu};
use bqsim_ell::{EllMatrix, GpuDd};
use bqsim_gpu::{
    CpuSpec, DeviceMemory, DeviceSpec, Engine, ExecMode, HostMemory, LaunchMode, TaskGraph,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Which conversion path produced an ELL gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConversionMethod {
    /// CPU path enumeration.
    Cpu,
    /// Algorithm-1 GPU kernel.
    Gpu,
}

/// A fused gate after conversion: the ELL matrix plus provenance and the
/// modelled conversion time.
#[derive(Debug, Clone)]
pub struct ConvertedGate {
    /// The gate in ELL format (input to the BQCS kernel).
    pub ell: Arc<EllMatrix>,
    /// The flattened DD (kept for the no-ELL ablation kernel).
    pub gpu_dd: Arc<GpuDd>,
    /// BQCS cost (max NZR).
    pub cost: usize,
    /// Which path converted it.
    pub method: ConversionMethod,
    /// Modelled conversion time in virtual nanoseconds.
    pub conversion_ns: u64,
    /// DD edge count (the τ discriminator).
    pub dd_edges: usize,
    /// Algorithm-1 DFS work counters.
    pub work: bqsim_ell::convert::ConversionWork,
}

impl ConvertedGate {
    /// Device-resident bytes this gate's table occupies during simulation:
    /// the ELL tensor, or the flattened DD in the no-ELL ablation. The
    /// OOM-degradation ladder compares these across compilations.
    pub fn device_bytes(&self, skip_ell: bool) -> u64 {
        if skip_ell {
            self.gpu_dd.byte_size()
        } else {
            self.ell.byte_size()
        }
    }
}

/// Compile-level conversion cache keyed by the gate's canonical QMDD edge.
///
/// The DD package hash-conses nodes and normalises edge weights, so two
/// fused gates with the same matrix share the same `MEdge` within one
/// package — layered circuits (QAOA, QFT, ansatz repetitions) produce the
/// same fused gate over and over, and each distinct gate only needs one
/// DD-to-ELL conversion per compile. The key includes the qubit count and
/// the (possibly forced) conversion method, and a cache must never outlive
/// its `DdPackage` (node ids are arena indices).
///
/// The cache is **capacity-bounded**: each entry pins its ELL tensor and
/// flattened DD, so an unbounded cache would hold every distinct gate of an
/// arbitrarily long circuit live at once. Past `capacity` distinct entries
/// it evicts the least-recently-used one (an `O(len)` scan — an eviction is
/// preceded by a full DD-to-ELL conversion, which dwarfs it).
#[derive(Debug)]
pub struct EllCache {
    map: HashMap<(bqsim_qdd::MEdge, usize, Option<ConversionMethod>), CacheEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    unique_conversion_ns: u64,
}

#[derive(Debug)]
struct CacheEntry {
    gate: ConvertedGate,
    last_used: u64,
}

/// One coherent snapshot of an [`EllCache`]'s counters.
///
/// The three counts are captured together (one struct copy, taken while
/// the cache is borrowed) rather than read field-by-field, so a status
/// reporter polling a simulator from another thread can never see a
/// hit/miss/eviction combination that no instant of the compile ever had.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EllCacheStats {
    /// Lookups that returned an already-converted gate.
    pub hits: u64,
    /// Lookups that had to convert (== number of distinct gates seen).
    pub misses: u64,
    /// Entries displaced by the LRU capacity bound.
    pub evictions: u64,
}

/// Default [`EllCache`] capacity: far above the distinct-gate count of
/// every bundled circuit family, small enough to bound residency on
/// adversarial workloads.
pub const DEFAULT_ELL_CACHE_CAPACITY: usize = 1024;

impl Default for EllCache {
    fn default() -> Self {
        EllCache::with_capacity(DEFAULT_ELL_CACHE_CAPACITY)
    }
}

impl EllCache {
    /// An empty cache for one compile (one `DdPackage`) with the default
    /// capacity.
    pub fn new() -> Self {
        EllCache::default()
    }

    /// An empty cache bounded to at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that cannot hold the entry it
    /// just converted would thrash every lookup).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "EllCache capacity must be at least 1");
        EllCache {
            map: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            unique_conversion_ns: 0,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that returned an already-converted gate.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to convert (== number of distinct gates seen).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced by the LRU capacity bound. A displaced gate that
    /// recurs converts again (and counts a fresh miss).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// All three counters as one coherent [`EllCacheStats`] snapshot.
    pub fn stats(&self) -> EllCacheStats {
        EllCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Total modelled conversion time of the distinct conversions only —
    /// what the pipeline actually spends with the cache in front.
    pub fn unique_conversion_ns(&self) -> u64 {
        self.unique_conversion_ns
    }

    /// Looks up `key`, refreshing its LRU stamp on a hit.
    fn lookup(
        &mut self,
        key: &(bqsim_qdd::MEdge, usize, Option<ConversionMethod>),
    ) -> Option<ConvertedGate> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        entry.last_used = tick;
        self.hits += 1;
        Some(entry.gate.clone())
    }

    /// Records a fresh conversion, evicting the least-recently-used entry
    /// if the cache is full.
    fn store(
        &mut self,
        key: (bqsim_qdd::MEdge, usize, Option<ConversionMethod>),
        conv: &ConvertedGate,
    ) {
        self.misses += 1;
        self.unique_conversion_ns += conv.conversion_ns;
        if self.map.len() >= self.capacity {
            if let Some(&oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        self.map.insert(
            key,
            CacheEntry {
                gate: conv.clone(),
                last_used: self.tick,
            },
        );
    }
}

/// Per-entry cost of CPU path enumeration in nanoseconds (recursion,
/// hash-consed weight multiplication, scattered stores).
const CPU_NS_PER_ENTRY: f64 = 150.0;
/// Fixed per-gate CPU conversion overhead (allocation, NZRV pass), ns.
const CPU_BASE_NS: f64 = 5_000.0;

/// The hybrid DD-to-ELL converter.
///
/// # Examples
///
/// ```
/// use bqsim_core::{fusion, HybridConverter};
/// use bqsim_qdd::{gates, DdPackage};
/// use bqsim_qcir::generators;
///
/// let c = generators::vqe(5, 1);
/// let mut dd = DdPackage::new();
/// let fused = fusion::bqcs_aware_fusion(&mut dd, 5, &gates::lower_circuit(&c));
/// let converter = HybridConverter::default();
/// let gates = converter.convert_all(&mut dd, &fused, 5);
/// assert_eq!(gates.len(), fused.len());
/// ```
#[derive(Debug, Clone)]
pub struct HybridConverter {
    /// DD-edge threshold: more than τ edges → CPU conversion.
    pub tau: usize,
    device: DeviceSpec,
    cpu: CpuSpec,
}

impl HybridConverter {
    /// Creates a converter with the paper's default τ = 2000 and the
    /// default device/CPU specs.
    pub fn new(tau: usize, device: DeviceSpec, cpu: CpuSpec) -> Self {
        HybridConverter { tau, device, cpu }
    }

    /// Converts one fused gate, picking the method by τ.
    pub fn convert(
        &self,
        dd: &mut bqsim_qdd::DdPackage,
        gate: &FusedGate,
        n: usize,
    ) -> ConvertedGate {
        let gdd = GpuDd::from_dd(dd, gate.edge, n);
        let method = if gdd.num_edges() > self.tau {
            ConversionMethod::Cpu
        } else {
            ConversionMethod::Gpu
        };
        self.convert_flat(dd, gate, n, method, gdd)
    }

    /// Converts with a forced method (used by the Fig. 5 / Fig. 9
    /// experiments that compare GPU-only, CPU-only, and hybrid).
    pub fn convert_with(
        &self,
        dd: &mut bqsim_qdd::DdPackage,
        gate: &FusedGate,
        n: usize,
        method: ConversionMethod,
    ) -> ConvertedGate {
        let gdd = GpuDd::from_dd(dd, gate.edge, n);
        self.convert_flat(dd, gate, n, method, gdd)
    }

    /// The conversion proper, over the gate's already-flattened DD.
    fn convert_flat(
        &self,
        dd: &mut bqsim_qdd::DdPackage,
        gate: &FusedGate,
        n: usize,
        method: ConversionMethod,
        gdd: GpuDd,
    ) -> ConvertedGate {
        let gdd = Arc::new(gdd);
        // Functional result always comes from the reference CPU path (both
        // paths are proven equivalent in bqsim-ell's tests); only the
        // *timing* differs by method.
        let mut ell = ell_from_dd_cpu(dd, gate.edge, n);
        // Gates on the low qubits convert to block-periodic ELL rows
        // (I ⊗ V structure); annotating the period here lets the planar
        // kernels execute one decoded template block per run instead of
        // streaming the full expanded tensor.
        ell.detect_pattern();
        let ell = Arc::new(ell);
        // The cost model only needs Algorithm 1's step counters, which
        // have a closed form over the flattened DD; debug builds still run
        // the per-row emulation and cross-check every real conversion.
        let work = conversion_work(&gdd);
        debug_assert_eq!(
            work,
            bqsim_ell::convert::ell_from_gpu_dd(&gdd, ell.max_nzr()).1,
            "closed-form conversion work disagrees with Algorithm 1 (n={n})"
        );
        #[cfg(debug_assertions)]
        verify_conversion(dd, gate.edge, n, &ell);
        let conversion_ns = match method {
            ConversionMethod::Cpu => self.cpu_conversion_ns(&ell),
            ConversionMethod::Gpu => self.gpu_conversion_ns(&gdd, work, &ell),
        };
        ConvertedGate {
            cost: ell.max_nzr(),
            dd_edges: gdd.num_edges(),
            gpu_dd: gdd,
            ell,
            method,
            conversion_ns,
            work,
        }
    }

    /// Converts a whole fused-gate sequence.
    pub fn convert_all(
        &self,
        dd: &mut bqsim_qdd::DdPackage,
        gates: &[FusedGate],
        n: usize,
    ) -> Vec<ConvertedGate> {
        gates.iter().map(|g| self.convert(dd, g, n)).collect()
    }

    /// Like [`HybridConverter::convert`], but consults `cache` first: a gate
    /// whose canonical edge was already converted (with τ-driven method
    /// selection) is returned as a clone of the cached result — the ELL
    /// tensor and flattened DD are `Arc`-shared, so hits cost one hash
    /// lookup and two refcount bumps.
    pub fn convert_cached(
        &self,
        cache: &mut EllCache,
        dd: &mut bqsim_qdd::DdPackage,
        gate: &FusedGate,
        n: usize,
    ) -> ConvertedGate {
        let key = (gate.edge, n, None);
        if let Some(hit) = cache.lookup(&key) {
            return hit;
        }
        let conv = self.convert(dd, gate, n);
        cache.store(key, &conv);
        conv
    }

    /// Cached variant of [`HybridConverter::convert_with`]. Forced-method
    /// entries are keyed separately from τ-selected ones so the Fig. 5 /
    /// Fig. 9 method-comparison experiments never alias.
    pub fn convert_with_cached(
        &self,
        cache: &mut EllCache,
        dd: &mut bqsim_qdd::DdPackage,
        gate: &FusedGate,
        n: usize,
        method: ConversionMethod,
    ) -> ConvertedGate {
        let key = (gate.edge, n, Some(method));
        if let Some(hit) = cache.lookup(&key) {
            return hit;
        }
        let conv = self.convert_with(dd, gate, n, method);
        cache.store(key, &conv);
        conv
    }

    /// Modelled CPU conversion time: proportional to the non-zero entry
    /// count (one DFS visit each), scaled by single-thread CPU throughput.
    fn cpu_conversion_ns(&self, ell: &EllMatrix) -> u64 {
        let entries = ell.stored_nonzeros() as f64 + ell.num_rows() as f64 * 0.1;
        let clock_scale = 2.5 / self.cpu.clock_ghz; // calibrated at 2.5 GHz
        (CPU_BASE_NS + entries * CPU_NS_PER_ENTRY * clock_scale) as u64
    }

    /// Modelled GPU conversion time: run the Algorithm-1 kernel through the
    /// engine's timing model.
    fn gpu_conversion_ns(
        &self,
        gdd: &GpuDd,
        work: bqsim_ell::convert::ConversionWork,
        ell: &EllMatrix,
    ) -> u64 {
        let engine = Engine::new(self.device.clone());
        let mut graph = TaskGraph::new();
        graph.add_kernel(
            "dd_to_ell",
            Arc::new(DdToEllKernel::new(gdd, work, ell)),
            &[],
        );
        let mut mem = DeviceMemory::new(&self.device);
        let mut host = HostMemory::new();
        engine
            .run(
                &graph,
                &mut mem,
                &mut host,
                LaunchMode::Stream,
                ExecMode::TimingOnly,
            )
            .total_ns()
    }
}

/// Debug-build cross-check of one gate conversion: the DD must satisfy
/// every QMDD well-formedness invariant, the produced ELL must satisfy the
/// layout the GPU kernels assume, and (for small gates, where the `O(4^n)`
/// dense enumeration is affordable) the DD-native NZRV must agree with the
/// dense row counts.
#[cfg(debug_assertions)]
fn verify_conversion(
    dd: &mut bqsim_qdd::DdPackage,
    edge: bqsim_qdd::MEdge,
    n: usize,
    ell: &EllMatrix,
) {
    use bqsim_analyze as analyze;
    let mut diags = analyze::analyze_dd(&analyze::matrix_dd_facts(dd, edge, n));
    diags.merge(analyze::analyze_ell(&analyze::ell_facts(ell)));
    diags.merge(analyze::check_pattern_roundtrip(ell));
    if n <= crate::analysis::NZRV_DENSE_CHECK_MAX_QUBITS {
        diags.merge(analyze::check_nzrv_consistency(dd, edge, n));
    }
    debug_assert!(
        diags.error_count() == 0,
        "DD-to-ELL conversion produced an ill-formed artifact (n={n}):\n{diags}"
    );
}

impl Default for HybridConverter {
    fn default() -> Self {
        HybridConverter::new(2000, DeviceSpec::rtx_a6000(), CpuSpec::i7_11700())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{bqcs_aware_fusion, classify_gates};
    use bqsim_qcir::{generators, Circuit};
    use bqsim_qdd::gates::lower_circuit;
    use bqsim_qdd::DdPackage;

    #[test]
    fn small_dds_go_to_gpu_large_to_cpu() {
        let converter = HybridConverter::new(20, DeviceSpec::rtx_a6000(), CpuSpec::i7_11700());
        // A single CX gate: tiny DD → GPU.
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        let mut dd = DdPackage::new();
        let gates = classify_gates(&mut dd, 6, &lower_circuit(&c));
        let conv = converter.convert(&mut dd, &gates[0], 6);
        assert_eq!(conv.method, ConversionMethod::Gpu);

        // The full supremacy circuit multiplied into one dense product is
        // a complex DD; under the tiny τ=20 it must route to the CPU.
        let sup = generators::supremacy(6, 8, 3);
        let mut dd = DdPackage::new();
        let mut product = dd.identity(6);
        for g in lower_circuit(&sup) {
            let e = bqsim_qdd::gates::gate_dd(&mut dd, 6, &g);
            product = dd.mat_mul(e, product);
        }
        let heavy = crate::fusion::FusedGate::classify(&mut dd, product, 6, 1);
        let conv = converter.convert(&mut dd, &heavy, 6);
        assert!(conv.dd_edges > 20, "edges = {}", conv.dd_edges);
        assert_eq!(conv.method, ConversionMethod::Cpu);
    }

    #[test]
    fn forced_methods_share_functional_result() {
        let c = generators::vqe(5, 2);
        let mut dd = DdPackage::new();
        let fused = bqcs_aware_fusion(&mut dd, 5, &lower_circuit(&c));
        let converter = HybridConverter::default();
        for g in &fused {
            let a = converter.convert_with(&mut dd, g, 5, ConversionMethod::Cpu);
            let b = converter.convert_with(&mut dd, g, 5, ConversionMethod::Gpu);
            assert_eq!(a.ell, b.ell, "functional ELL must not depend on method");
            assert!(a.conversion_ns > 0 && b.conversion_ns > 0);
        }
    }

    #[test]
    fn gpu_faster_for_simple_dd_cpu_faster_for_complex_dd() {
        let converter = HybridConverter::default();
        // Simple structure, many rows: GPU parallelism wins.
        let c = generators::vqe(10, 1);
        let mut dd = DdPackage::new();
        let fused = bqcs_aware_fusion(&mut dd, 10, &lower_circuit(&c));
        let g = fused.iter().find(|g| g.cost >= 2).expect("rotation gate");
        let cpu = converter.convert_with(&mut dd, g, 10, ConversionMethod::Cpu);
        let gpu = converter.convert_with(&mut dd, g, 10, ConversionMethod::Gpu);
        assert!(
            gpu.conversion_ns < cpu.conversion_ns,
            "simple DD: GPU {} !< CPU {}",
            gpu.conversion_ns,
            cpu.conversion_ns
        );

        // Complex diagonal (supremacy fused chunk) with many edges: CPU
        // conversion must become competitive or better (Fig. 5b).
        let sup = generators::supremacy(10, 10, 7);
        let mut dd = DdPackage::new();
        let fused = bqcs_aware_fusion(&mut dd, 10, &lower_circuit(&sup));
        let heavy = fused.iter().max_by_key(|g| {
            let gdd = GpuDd::from_dd(&dd, g.edge, 10);
            gdd.num_edges()
        });
        if let Some(h) = heavy {
            let cpu = converter.convert_with(&mut dd, h, 10, ConversionMethod::Cpu);
            let gpu = converter.convert_with(&mut dd, h, 10, ConversionMethod::Gpu);
            if cpu.dd_edges > 4000 {
                assert!(
                    cpu.conversion_ns < gpu.conversion_ns,
                    "complex DD ({} edges): CPU {} !< GPU {}",
                    cpu.dd_edges,
                    cpu.conversion_ns,
                    gpu.conversion_ns
                );
            }
        }
    }

    #[test]
    fn default_tau_matches_paper() {
        assert_eq!(HybridConverter::default().tau, 2000);
    }

    #[test]
    fn cache_converts_each_distinct_gate_once() {
        // A layered circuit repeats the same gates; hash-consing gives the
        // repetitions the same canonical edge, so the cache must convert
        // each distinct edge exactly once.
        let mut c = Circuit::new(6);
        for _ in 0..4 {
            for q in 0..6 {
                c.h(q);
            }
            for q in 0..5 {
                c.cx(q, q + 1);
            }
        }
        let mut dd = DdPackage::new();
        let fused = classify_gates(&mut dd, 6, &lower_circuit(&c));
        let converter = HybridConverter::default();
        let mut cache = EllCache::new();
        let mut uncached_ns = 0u64;
        for g in &fused {
            let cached = converter.convert_cached(&mut cache, &mut dd, g, 6);
            let fresh = converter.convert(&mut dd, g, 6);
            assert_eq!(cached.ell, fresh.ell, "cache must be functionally inert");
            assert_eq!(cached.method, fresh.method);
            uncached_ns += fresh.conversion_ns;
        }
        let distinct: std::collections::HashSet<_> = fused.iter().map(|g| g.edge).collect();
        assert_eq!(cache.misses(), distinct.len() as u64);
        assert_eq!(cache.hits(), fused.len() as u64 - distinct.len() as u64);
        assert!(
            distinct.len() < fused.len(),
            "workload must actually repeat gates for this test to bite"
        );
        assert!(cache.unique_conversion_ns() <= uncached_ns);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.h(1);
        c.h(2);
        let mut dd = DdPackage::new();
        let gates = classify_gates(&mut dd, 3, &lower_circuit(&c));
        assert_eq!(gates.len(), 3, "three distinct single-qubit placements");
        let converter = HybridConverter::default();
        let mut cache = EllCache::with_capacity(2);
        converter.convert_cached(&mut cache, &mut dd, &gates[0], 3); // miss
        converter.convert_cached(&mut cache, &mut dd, &gates[1], 3); // miss
        converter.convert_cached(&mut cache, &mut dd, &gates[0], 3); // hit
        converter.convert_cached(&mut cache, &mut dd, &gates[2], 3); // miss, evicts gates[1]
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        converter.convert_cached(&mut cache, &mut dd, &gates[0], 3); // survived the eviction
        assert_eq!(cache.hits(), 2);
        converter.convert_cached(&mut cache, &mut dd, &gates[1], 3); // re-converted
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.capacity(), 2);
    }

    #[test]
    fn conversion_annotates_periodic_rows() {
        // A gate on the low qubit of a wide register converts to I ⊗ V:
        // rows repeat with the gate's own period, and conversion must
        // record it so the planar kernels can execute the template block.
        let mut c = Circuit::new(6);
        c.h(0);
        let mut dd = DdPackage::new();
        let gates = classify_gates(&mut dd, 6, &lower_circuit(&c));
        let conv = HybridConverter::default().convert(&mut dd, &gates[0], 6);
        assert_eq!(conv.ell.pattern_period(), Some(2));
        assert!(conv.ell.working_set_bytes() < conv.ell.byte_size());
    }

    #[test]
    fn cache_keys_forced_methods_separately() {
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let mut dd = DdPackage::new();
        let gates = classify_gates(&mut dd, 4, &lower_circuit(&c));
        let converter = HybridConverter::default();
        let mut cache = EllCache::new();
        let a =
            converter.convert_with_cached(&mut cache, &mut dd, &gates[0], 4, ConversionMethod::Cpu);
        let b =
            converter.convert_with_cached(&mut cache, &mut dd, &gates[0], 4, ConversionMethod::Gpu);
        assert_eq!(cache.misses(), 2, "forced methods must not alias");
        assert_eq!(a.ell, b.ell);
        let again =
            converter.convert_with_cached(&mut cache, &mut dd, &gates[0], 4, ConversionMethod::Cpu);
        assert_eq!(cache.hits(), 1);
        assert_eq!(again.method, ConversionMethod::Cpu);
    }
}
