//! The on-disk circuit-executable format: a versioned, CRC'd,
//! little-endian flat layout.
//!
//! # Layout
//!
//! ```text
//! header (32 bytes):
//!   magic        4  b"BQAF"
//!   version      u32
//!   key          u64   content-address (canonical circuit+options hash)
//!   payload_len  u64
//!   payload_crc  u64   FNV-1a 64 over the payload bytes
//! payload:
//!   num_qubits, fusion_ns, conversion_ns          3 x u64
//!   cache_hits, cache_misses, cache_evictions     3 x u64
//!   tau u64, option flags u64 (bit 0 skip_fusion, bit 1 skip_ell,
//!     bit 2 generic_spmm, bits 3-4 force_conversion: 0 none /
//!     1 cpu / 2 gpu)
//!   qasm_len u64, qasm bytes (UTF-8)
//!   num_gates u64, then per gate:
//!     cost, method, conversion_ns, dd_edges,
//!     work_total_steps, work_max_row_steps        6 x u64
//!     ELL:   rows, max_nzr, pattern+1 (0 = none)  3 x u64
//!            values   rows x max_nzr x 16 bytes (re, im f64 pairs)
//!            cols     rows x max_nzr x u32
//!            row_nnz  rows x u32
//!     GpuDd: num_edges, num_nodes, num_qubits     3 x u64
//!            edge weights  num_edges x 16 bytes
//!            edge targets  num_edges x u32
//!            node levels   num_nodes x u8
//!            node edges    num_nodes x 4 x u32
//!   tuning:
//!     present u64 (0 = none, 1 = present), then when present:
//!     precision u64 (0 f64 / 1 f32), use_pattern u64 (0/1),
//!     probe_ns u64; any other tag is corruption (a store entry from a
//!     build with more axes is a miss that recompiles, never a guess)
//! ```
//!
//! Every multi-byte field is little-endian. Loading is
//! validate-header-then-bulk-read: after the CRC check, each array lands
//! in one `chunks_exact` sweep over a contiguous byte range — no
//! per-element framing, no length prefixes inside arrays — so a warm
//! load is dominated by the file read, not decoding.

use bqsim_ell::{EllMatrix, GpuDd, GpuDdEdge, GpuDdNode, Precision};
use bqsim_num::Complex;
use std::fmt;

/// File magic: "BQsim Artifact Format".
pub const MAGIC: [u8; 4] = *b"BQAF";

/// The one format version [`decode_artifact`] reads. Version 3 dropped
/// the tuning record's layout and thread fields. A store owes no
/// backward compatibility: a file of any other version is corrupt, and
/// the loader recompiles and republishes over it.
pub const ARTIFACT_VERSION: u32 = 3;

/// FNV-1a 64 offset basis (same constants as the campaign journal's
/// checksum discipline; duplicated here because this crate sits below
/// `bqsim-campaign` in the dependency order).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes` — the format's CRC and the store's key hash
/// primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Why an artifact's bytes could not be trusted.
///
/// Every variant is recoverable by design: the store treats any decode
/// failure as "not cached" and recompiles, so corruption can cost a
/// cold compile but never a failed run.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes failed validation (bad magic, wrong version, CRC
    /// mismatch, truncation, or a structural invariant violation). The
    /// string names the first failed check.
    Corrupt(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io: {e}"),
            ArtifactError::Corrupt(why) => write!(f, "artifact corrupt: {why}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> ArtifactError {
    ArtifactError::Corrupt(why.into())
}

/// One compiled gate of a circuit executable: the converted ELL matrix,
/// the flattened GPU DD (kept for the `skip_ell` ablation and the
/// degradation ladder), and the conversion provenance the cost model
/// and reports consume.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRecord {
    /// The converted ELL matrix, pattern annotation included.
    pub ell: EllMatrix,
    /// The flattened GPU-resident DD.
    pub gpu_dd: GpuDd,
    /// BQCS cost (max NZR) of the gate.
    pub cost: usize,
    /// Conversion method tag: 0 = CPU path enumeration, 1 = GPU
    /// Algorithm 1 (kept as a raw tag so this crate stays below
    /// `bqsim-core`, which owns the `ConversionMethod` enum).
    pub method: u8,
    /// Modelled conversion time of this gate in virtual nanoseconds.
    pub conversion_ns: u64,
    /// DD edge count the hybrid τ threshold compared against.
    pub dd_edges: usize,
    /// Total Algorithm-1 DFS steps across all rows.
    pub work_total_steps: u64,
    /// DFS steps of the most expensive row.
    pub work_max_row_steps: u64,
}

/// The empirically tuned execution configuration for one compiled
/// circuit, persisted alongside it so a warm load skips the probe runs
/// as well as the compile.
///
/// The record is keyed by the same content address as the artifact —
/// execution tuning never forks the artifact key, it rides inside the
/// existing file. A record only names axes that cannot change the f64
/// result (precision aside, which the integrity budget polices at run
/// time), so applying a stale record is a performance question, never a
/// correctness one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningRecord {
    /// Numeric precision the probes selected.
    pub precision: Precision,
    /// Whether the pattern-compressed spMM arm won its probe (read only
    /// by the `f32` planar kernels).
    pub use_pattern: bool,
    /// Wall-clock nanoseconds of the winning probe (provenance for
    /// reports; not consulted when applying the record).
    pub probe_ns: u64,
}

impl fmt::Display for TuningRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "precision={} pattern={}",
            self.precision.token(),
            if self.use_pattern { "on" } else { "off" }
        )
    }
}

/// A complete circuit executable: everything `BqSimulator` needs to go
/// straight to batch execution without re-running fusion or conversion,
/// plus the compile-time stats reports expect and the circuit's QASM
/// text so an auditor can recompile from the artifact alone.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitArtifact {
    /// Content-address: the canonical circuit + compile-options hash.
    pub key: u64,
    /// Circuit width.
    pub num_qubits: usize,
    /// Modelled fusion-stage time (virtual ns).
    pub fusion_ns: u64,
    /// Modelled conversion-stage time (virtual ns).
    pub conversion_ns: u64,
    /// Compile-time conversion-cache hits.
    pub cache_hits: u64,
    /// Compile-time conversion-cache misses (distinct conversions).
    pub cache_misses: u64,
    /// Compile-time conversion-cache evictions.
    pub cache_evictions: u64,
    /// Hybrid conversion crossover τ (DD edge count) the compile used.
    pub tau: usize,
    /// Whether gate fusion was skipped (ablation compile).
    pub skip_fusion: bool,
    /// Whether ELL conversion was skipped (DD-walk execution compile).
    pub skip_ell: bool,
    /// Whether pattern-specialised spMM kernels were disabled.
    pub generic_spmm: bool,
    /// Forced conversion method, if any (0 = CPU, 1 = GPU; raw tag for
    /// the same layering reason as [`GateRecord::method`]).
    pub force_conversion: Option<u8>,
    /// The source circuit in OpenQASM text, embedded so
    /// `analyze --artifact` can round-trip the store self-contained.
    pub qasm: String,
    /// The compiled gates, in execution order.
    pub gates: Vec<GateRecord>,
    /// Empirically tuned execution configuration, if a probe pass ran.
    /// `None` on artifacts published before tuning — the loader falls
    /// back to probe-on-load.
    pub tuning: Option<TuningRecord>,
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32s(&mut self, vs: impl Iterator<Item = u32>) {
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn complexes(&mut self, vs: impl Iterator<Item = Complex>) {
        for z in vs {
            self.buf.extend_from_slice(&z.re.to_le_bytes());
            self.buf.extend_from_slice(&z.im.to_le_bytes());
        }
    }
}

/// Serializes an artifact to its on-disk bytes (header + payload).
pub fn encode_artifact(a: &CircuitArtifact) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.u64(a.num_qubits as u64);
    w.u64(a.fusion_ns);
    w.u64(a.conversion_ns);
    w.u64(a.cache_hits);
    w.u64(a.cache_misses);
    w.u64(a.cache_evictions);
    w.u64(a.tau as u64);
    let flags = (a.skip_fusion as u64)
        | (a.skip_ell as u64) << 1
        | (a.generic_spmm as u64) << 2
        | match a.force_conversion {
            None => 0,
            Some(m) => (m as u64 + 1) << 3,
        };
    w.u64(flags);
    w.u64(a.qasm.len() as u64);
    w.buf.extend_from_slice(a.qasm.as_bytes());
    w.u64(a.gates.len() as u64);
    for g in &a.gates {
        w.u64(g.cost as u64);
        w.u64(g.method as u64);
        w.u64(g.conversion_ns);
        w.u64(g.dd_edges as u64);
        w.u64(g.work_total_steps);
        w.u64(g.work_max_row_steps);
        let (values, cols, row_nnz) = g.ell.raw_parts();
        w.u64(g.ell.num_rows() as u64);
        w.u64(g.ell.max_nzr() as u64);
        w.u64(g.ell.pattern_period().map_or(0, |d| d as u64 + 1));
        w.complexes(values.iter().copied());
        w.u32s(cols.iter().copied());
        w.u32s(row_nnz.iter().copied());
        let (edges, nodes) = (g.gpu_dd.edges(), g.gpu_dd.nodes());
        w.u64(edges.len() as u64);
        w.u64(nodes.len() as u64);
        w.u64(g.gpu_dd.num_qubits() as u64);
        w.complexes(edges.iter().map(|e| e.weight));
        w.u32s(edges.iter().map(|e| e.node));
        w.buf.extend(nodes.iter().map(|n| n.qubit_lv));
        w.u32s(nodes.iter().flat_map(|n| n.edges.into_iter()));
    }
    match &a.tuning {
        None => w.u64(0),
        Some(t) => {
            w.u64(1);
            w.u64(match t.precision {
                Precision::F64 => 0,
                Precision::F32 => 1,
            });
            w.u64(t.use_pattern as u64);
            w.u64(t.probe_ns);
        }
    }
    let payload = w.buf;

    let mut out = Vec::with_capacity(32 + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    out.extend_from_slice(&a.key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "truncated: need {n} bytes at offset {}, have {}",
                    self.at,
                    self.buf.len().saturating_sub(self.at)
                ))
            })?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// A length field that must also be a sane in-memory count.
    fn len(&mut self, what: &str) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        // Any honest length fits in the remaining payload (elements are
        // at least one byte), so this also rejects corrupted lengths
        // before they reach an allocator.
        if v > (self.buf.len() - self.at) as u64 {
            return Err(corrupt(format!("{what} length {v} exceeds payload")));
        }
        Ok(v as usize)
    }

    fn complexes(&mut self, n: usize) -> Result<Vec<Complex>, ArtifactError> {
        let bytes = self.take(n.checked_mul(16).ok_or_else(|| corrupt("size overflow"))?)?;
        Ok(bytes
            .chunks_exact(16)
            .map(|c| {
                Complex::new(
                    f64::from_le_bytes(c[..8].try_into().expect("8-byte slice")),
                    f64::from_le_bytes(c[8..].try_into().expect("8-byte slice")),
                )
            })
            .collect())
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, ArtifactError> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| corrupt("size overflow"))?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte slice")))
            .collect())
    }
}

/// Deserializes and fully validates artifact bytes.
///
/// `expect_key`, when given, must match the header's key — this is what
/// makes the store content-addressed rather than merely name-addressed
/// (a renamed or cross-copied file is rejected as corrupt).
///
/// # Errors
///
/// [`ArtifactError::Corrupt`] on any validation failure: magic, version,
/// key, CRC, truncation, trailing bytes, or a structural invariant of
/// the embedded matrices.
pub fn decode_artifact(
    bytes: &[u8],
    expect_key: Option<u64>,
) -> Result<CircuitArtifact, ArtifactError> {
    if bytes.len() < 32 {
        return Err(corrupt(format!(
            "{} bytes is shorter than the header",
            bytes.len()
        )));
    }
    if bytes[..4] != MAGIC {
        return Err(corrupt("bad magic (not a BQAF file)"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version != ARTIFACT_VERSION {
        return Err(corrupt(format!(
            "version {version} (this build reads {ARTIFACT_VERSION})"
        )));
    }
    let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    if let Some(want) = expect_key {
        if key != want {
            return Err(corrupt(format!("key {key:016x} != expected {want:016x}")));
        }
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let crc = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
    let payload = &bytes[32..];
    if payload.len() as u64 != payload_len {
        return Err(corrupt(format!(
            "payload is {} bytes, header says {payload_len}",
            payload.len()
        )));
    }
    let got_crc = fnv1a(payload);
    if got_crc != crc {
        return Err(corrupt(format!(
            "payload CRC {got_crc:016x} != header {crc:016x}"
        )));
    }

    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let num_qubits = r.u64()? as usize;
    let fusion_ns = r.u64()?;
    let conversion_ns = r.u64()?;
    let cache_hits = r.u64()?;
    let cache_misses = r.u64()?;
    let cache_evictions = r.u64()?;
    let tau = r.u64()? as usize;
    let flags = r.u64()?;
    if flags >> 5 != 0 {
        return Err(corrupt(format!("unknown option flags {flags:#x}")));
    }
    let force_conversion = match (flags >> 3) & 0b11 {
        0 => None,
        1 => Some(0u8),
        2 => Some(1u8),
        _ => return Err(corrupt("force_conversion tag 3 is unassigned".to_string())),
    };
    let qasm_len = r.len("qasm")?;
    let qasm = std::str::from_utf8(r.take(qasm_len)?)
        .map_err(|e| corrupt(format!("qasm is not UTF-8: {e}")))?
        .to_string();
    let num_gates = r.len("gate table")?;
    let mut gates = Vec::with_capacity(num_gates);
    for i in 0..num_gates {
        let gate = |why: String| corrupt(format!("gate {i}: {why}"));
        let cost = r.u64()? as usize;
        let method = r.u64()?;
        if method > 1 {
            return Err(gate(format!("unknown conversion method tag {method}")));
        }
        let g_conversion_ns = r.u64()?;
        let dd_edges = r.u64()? as usize;
        let work_total_steps = r.u64()?;
        let work_max_row_steps = r.u64()?;

        let rows = r.len("ell rows")?;
        let max_nzr = r.len("ell max_nzr")?;
        let pattern = match r.u64()? {
            0 => None,
            d => Some((d - 1) as usize),
        };
        let values = r.complexes(
            rows.checked_mul(max_nzr)
                .ok_or_else(|| corrupt("shape overflow"))?,
        )?;
        let cols = r.u32s(rows * max_nzr)?;
        let row_nnz = r.u32s(rows)?;
        let ell = EllMatrix::from_raw_parts(rows, max_nzr, values, cols, row_nnz, pattern)
            .map_err(&gate)?;

        let num_edges = r.len("dd edges")?;
        let num_nodes = r.len("dd nodes")?;
        let dd_qubits = r.u64()? as usize;
        let weights = r.complexes(num_edges)?;
        let targets = r.u32s(num_edges)?;
        let edges: Vec<GpuDdEdge> = weights
            .into_iter()
            .zip(targets)
            .map(|(weight, node)| GpuDdEdge { weight, node })
            .collect();
        let levels = r.take(num_nodes)?.to_vec();
        let node_edges = r.u32s(
            num_nodes
                .checked_mul(4)
                .ok_or_else(|| corrupt("shape overflow"))?,
        )?;
        let nodes: Vec<GpuDdNode> = levels
            .into_iter()
            .zip(node_edges.chunks_exact(4))
            .map(|(qubit_lv, e)| GpuDdNode {
                qubit_lv,
                edges: [e[0], e[1], e[2], e[3]],
            })
            .collect();
        let gpu_dd = GpuDd::from_raw_parts(edges, nodes, dd_qubits).map_err(&gate)?;

        gates.push(GateRecord {
            ell,
            gpu_dd,
            cost,
            method: method as u8,
            conversion_ns: g_conversion_ns,
            dd_edges,
            work_total_steps,
            work_max_row_steps,
        });
    }
    // Struct fields evaluate in the order written: the on-disk order.
    let tuning = match r.u64()? {
        0 => None,
        1 => Some(TuningRecord {
            precision: match r.u64()? {
                0 => Precision::F64,
                1 => Precision::F32,
                t => return Err(corrupt(format!("unknown tuning precision tag {t}"))),
            },
            use_pattern: match r.u64()? {
                0 => false,
                1 => true,
                v => return Err(corrupt(format!("tuning use_pattern tag {v}"))),
            },
            probe_ns: r.u64()?,
        }),
        v => return Err(corrupt(format!("tuning presence flag {v}"))),
    };
    if r.at != payload.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            payload.len() - r.at
        )));
    }
    Ok(CircuitArtifact {
        key,
        num_qubits,
        fusion_ns,
        conversion_ns,
        cache_hits,
        cache_misses,
        cache_evictions,
        tau,
        skip_fusion: flags & 1 != 0,
        skip_ell: flags & 2 != 0,
        generic_spmm: flags & 4 != 0,
        force_conversion,
        qasm,
        gates,
        tuning,
    })
}
