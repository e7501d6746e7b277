//! Submission specs: what a tenant asks the service to run.
//!
//! A [`SubmitSpec`] names a circuit family and campaign shape rather than
//! carrying a compiled circuit, so it round-trips through one
//! line-oriented `key=value` rendering used by the `bqsim submit` command
//! file *and* the service manifest — the same parsed line that admitted a
//! submission is replayed verbatim to re-admit it after a crash.
//!
//! Everything the computation depends on is in the spec (family, qubits,
//! circuit/input seed, fault seed, batch shape), so a spec plus the
//! journal fingerprint fully determines the campaign — the service's
//! digests are bit-identical to a serial `bqsim run` of the same spec.

use crate::error::ServeError;
use bqsim_campaign::{CampaignOptions, GeneratedInputs, Generator};
use bqsim_core::{BqSimOptions, Precision};
use bqsim_faults::FaultBudget;
use bqsim_num::Complex;
use bqsim_qcir::{generators::Family, Circuit};
use std::collections::HashMap;
use std::fmt;

/// Submission priority, mapped to a weighted-fair-queueing weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Weight 1: background work.
    Low,
    /// Weight 2: the default.
    #[default]
    Normal,
    /// Weight 4: latency-sensitive work.
    High,
}

impl Priority {
    /// The fair-share weight (virtual time advances by `VT_SCALE/weight`
    /// per shard, so high-priority tenants are served proportionally more
    /// often — never exclusively).
    pub fn weight(self) -> u32 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }

    fn token(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    fn parse(s: &str) -> Option<Priority> {
        match s {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Per-tenant resource limits, enforced at admission against the
/// tenant's live (admitted, unreleased) submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Total amplitude-buffer bytes the tenant's live submissions may
    /// hold (one storage element per amplitude across every batch of
    /// every live campaign, at the submission's precision width).
    pub max_amp_bytes: u64,
    /// Maximum concurrently live campaigns.
    pub max_inflight: u32,
    /// Precision floor: submissions requesting a precision *less
    /// accurate* than this (by [`Precision::rank`]) are rejected with a
    /// quota error. The default, [`Precision::F32`], is fully
    /// permissive; a tenant whose results feed accuracy-sensitive
    /// consumers can be pinned to `f64`.
    pub min_precision: Precision,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_amp_bytes: 256 << 20,
            max_inflight: 8,
            min_precision: Precision::F32,
        }
    }
}

/// One campaign submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Tenant name (`[A-Za-z0-9_-]+`).
    pub tenant: String,
    /// Submission id, unique per tenant (`[A-Za-z0-9_-]+`).
    pub id: String,
    /// Circuit family (`ghz`, `qft`, `vqe`, `qnn`, `portfolio`, `graph`,
    /// `tsp`, `routing`, `supremacy`).
    pub family: String,
    /// Circuit width.
    pub qubits: usize,
    /// Campaign batches (= schedulable shards).
    pub batches: usize,
    /// State vectors per batch.
    pub batch_size: usize,
    /// Circuit-parameter and input seed; batch `b`'s inputs are drawn
    /// from `seed ^ b`, exactly like `bqsim run --seed`.
    pub seed: u64,
    /// Fault-injection seed (`bqsim run --fault-plan seed=…` semantics,
    /// with the CLI's default transient budget); `None` runs fault-free.
    pub fault_seed: Option<u64>,
    /// Fair-share priority.
    pub priority: Priority,
    /// Amplitude precision the campaign executes at (`f64` or `f32`;
    /// default `f64`). `auto` is a client-side resolution — the service
    /// admits only concrete precisions, so the journal fingerprint is
    /// fixed at admission.
    pub precision: Precision,
    /// Wall-clock deadline for the whole submission, propagated through
    /// the campaign's `CancelToken`.
    pub deadline_ms: Option<u64>,
}

/// Widest circuit a campaign may run: `2^16` amplitudes per state keeps
/// every batch far inside host memory whatever the batch size's order of
/// magnitude, so nothing downstream allocates from an unchecked width.
const MAX_QUBITS: usize = 16;

/// The campaign-shape bounds, checked before a circuit is built or an
/// input generated. One check for every way a campaign is described: a
/// service submission ([`SubmitSpec::validate`]) and `bqsim run`.
///
/// # Errors
///
/// A one-line message naming the violated bound.
pub fn check_campaign_shape(
    qubits: usize,
    batches: usize,
    batch_size: usize,
) -> Result<(), String> {
    if qubits == 0 || qubits > MAX_QUBITS {
        return Err(format!("qubits {qubits} (want 1..={MAX_QUBITS})"));
    }
    if batches == 0 || batch_size == 0 {
        return Err(format!(
            "batches {batches} x batch-size {batch_size} (both must be at least 1)"
        ));
    }
    Ok(())
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl SubmitSpec {
    /// Validates names and shape.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if !name_ok(&self.tenant) {
            return Err(ServeError::InvalidSpec(format!(
                "tenant `{}` (want [A-Za-z0-9_-]+, at most 64 chars)",
                self.tenant
            )));
        }
        if !name_ok(&self.id) {
            return Err(ServeError::InvalidSpec(format!(
                "id `{}` (want [A-Za-z0-9_-]+, at most 64 chars)",
                self.id
            )));
        }
        check_campaign_shape(self.qubits, self.batches, self.batch_size)
            .map_err(ServeError::InvalidSpec)?;
        self.build_circuit().map(|_| ())
    }

    /// Amplitude-buffer bytes this submission charges against its
    /// tenant's quota: every batch's inputs stay resident for the
    /// submission's lifetime, at the precision's storage width per
    /// complex amplitude (16 bytes at `f64`, 8 at `f32` — a narrow
    /// campaign really does hold half the device bytes).
    pub fn charged_bytes(&self) -> u64 {
        (self.batches as u64)
            * (self.batch_size as u64)
            * (1u64 << self.qubits)
            * self.precision.storage_bytes() as u64
    }

    /// Builds the spec's circuit.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] for an unknown family, or a width
    /// below the family's minimum.
    pub fn build_circuit(&self) -> Result<Circuit, ServeError> {
        let family = Family::from_token(&self.family).ok_or_else(|| {
            ServeError::InvalidSpec(format!("unknown circuit family `{}`", self.family))
        })?;
        family
            .try_build(self.qubits, self.seed)
            .map_err(ServeError::InvalidSpec)
    }

    /// The generated source the spec's campaign pulls its batches from —
    /// identical to `bqsim run --seed` (batch `b` from `seed ^ b`), which
    /// is what makes service digests comparable to serial ones.
    pub fn input_source(&self) -> GeneratedInputs {
        GeneratedInputs {
            generator: Generator::Random { seed: self.seed },
            qubits: self.qubits,
            batch_size: self.batch_size,
            num_batches: self.batches,
        }
    }

    /// Every batch of [`input_source`](Self::input_source), materialised.
    pub fn build_inputs(&self) -> Vec<Vec<Vec<Complex>>> {
        let source = self.input_source();
        (0..self.batches).map(|b| source.batch(b)).collect()
    }

    /// The fault budget a seeded spec injects per batch: the CLI's
    /// default transient mix (`--fault-plan seed=…` with no overrides),
    /// so `bqsim run --fault-plan seed=S` is the serial twin of a
    /// service submission with `fault-seed=S`.
    pub fn fault_budget() -> FaultBudget {
        FaultBudget::transient(2, 1, 1)
    }

    /// The simulator and campaign options the spec's campaign runs under:
    /// its precision, and its fault seed with [`fault_budget`](Self::fault_budget).
    /// Journaling, recovery and the integrity budget stay at their
    /// defaults for the caller to set — the service's admission and a
    /// serial `run_campaign` twin start from this same pair.
    pub fn run_options(&self) -> (BqSimOptions, CampaignOptions) {
        let opts = BqSimOptions {
            precision: self.precision,
            ..BqSimOptions::default()
        };
        let copts = CampaignOptions {
            fault_seed: self.fault_seed,
            fault_budget: Self::fault_budget(),
            ..CampaignOptions::default()
        };
        (opts, copts)
    }

    /// Renders the spec as one `key=value` line (the inverse of
    /// [`parse_line`](Self::parse_line)).
    pub fn render_line(&self) -> String {
        let mut s = format!(
            "tenant={} id={} family={} qubits={} batches={} batch-size={} seed={} priority={}",
            self.tenant,
            self.id,
            self.family,
            self.qubits,
            self.batches,
            self.batch_size,
            self.seed,
            self.priority,
        );
        if self.precision != Precision::F64 {
            s.push_str(&format!(" precision={}", self.precision.token()));
        }
        if let Some(fs) = self.fault_seed {
            s.push_str(&format!(" fault-seed={fs}"));
        }
        if let Some(ms) = self.deadline_ms {
            s.push_str(&format!(" deadline-ms={ms}"));
        }
        s
    }

    /// Parses a `key=value` submission line. Unknown keys are rejected;
    /// `family`, `priority`, `seed`, `fault-seed`, and `deadline-ms` are
    /// optional (defaults: `ghz`, `normal`, `0`, none, none).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] describing the malformed field.
    pub fn parse_line(line: &str) -> Result<SubmitSpec, ServeError> {
        let mut kv: HashMap<&str, &str> = HashMap::new();
        for part in line.split_whitespace() {
            let (k, v) = part.split_once('=').ok_or_else(|| {
                ServeError::InvalidSpec(format!("bad field `{part}` (want key=value)"))
            })?;
            if kv.insert(k, v).is_some() {
                return Err(ServeError::InvalidSpec(format!("duplicate key `{k}`")));
            }
        }
        let get = |k: &str| -> Result<&str, ServeError> {
            kv.get(k)
                .copied()
                .ok_or_else(|| ServeError::InvalidSpec(format!("missing `{k}=`")))
        };
        let num = |k: &str| -> Result<u64, ServeError> {
            get(k)?
                .parse::<u64>()
                .map_err(|e| ServeError::InvalidSpec(format!("{k}: {e}")))
        };
        let opt_num = |k: &str| -> Result<Option<u64>, ServeError> {
            match kv.get(k) {
                Some(v) => v
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|e| ServeError::InvalidSpec(format!("{k}: {e}"))),
                None => Ok(None),
            }
        };
        for k in kv.keys() {
            if !matches!(
                *k,
                "tenant"
                    | "id"
                    | "family"
                    | "qubits"
                    | "batches"
                    | "batch-size"
                    | "seed"
                    | "fault-seed"
                    | "priority"
                    | "precision"
                    | "deadline-ms"
            ) {
                return Err(ServeError::InvalidSpec(format!("unknown key `{k}`")));
            }
        }
        let priority = match kv.get("priority") {
            Some(p) => Priority::parse(p)
                .ok_or_else(|| ServeError::InvalidSpec(format!("bad priority `{p}`")))?,
            None => Priority::Normal,
        };
        let precision = match kv.get("precision") {
            Some(p) => Precision::parse(p).ok_or_else(|| {
                ServeError::InvalidSpec(format!(
                    "bad precision `{p}` (want f64 or f32; resolve `auto` client-side)"
                ))
            })?,
            None => Precision::F64,
        };
        let spec = SubmitSpec {
            tenant: get("tenant")?.to_string(),
            id: get("id")?.to_string(),
            family: kv.get("family").copied().unwrap_or("ghz").to_string(),
            qubits: num("qubits")? as usize,
            batches: num("batches")? as usize,
            batch_size: opt_num("batch-size")?.unwrap_or(1) as usize,
            seed: opt_num("seed")?.unwrap_or(0),
            fault_seed: opt_num("fault-seed")?,
            priority,
            precision,
            deadline_ms: opt_num("deadline-ms")?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SubmitSpec {
        SubmitSpec {
            tenant: "alice".into(),
            id: "job-1".into(),
            family: "ghz".into(),
            qubits: 3,
            batches: 4,
            batch_size: 2,
            seed: 7,
            fault_seed: Some(11),
            priority: Priority::High,
            precision: Precision::F64,
            deadline_ms: None,
        }
    }

    #[test]
    fn spec_round_trips_through_its_line() {
        let s = spec();
        let line = s.render_line();
        let back = SubmitSpec::parse_line(&line).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn defaults_apply() {
        let s = SubmitSpec::parse_line("tenant=a id=j qubits=2 batches=1 batch-size=1").unwrap();
        assert_eq!(s.family, "ghz");
        assert_eq!(s.priority, Priority::Normal);
        assert_eq!(s.seed, 0);
        assert!(s.fault_seed.is_none() && s.deadline_ms.is_none());
    }

    #[test]
    fn bad_specs_are_rejected() {
        for line in [
            "tenant=a/b id=j qubits=2 batches=1 batch-size=1", // bad tenant chars
            "tenant=a id=j qubits=0 batches=1 batch-size=1",   // zero qubits
            "tenant=a id=j qubits=2 batches=0 batch-size=1",   // zero batches
            "tenant=a id=j qubits=2 batches=1 batch-size=1 family=nope", // family
            "tenant=a id=j qubits=1 batches=1 batch-size=1",   // ghz needs 2 qubits
            "tenant=a id=j qubits=2 batches=1 batch-size=1 family=graph", // ring needs 3
            "tenant=a id=j qubits=2 batches=1 batch-size=1 bogus=1", // unknown key
            "tenant=a id=j qubits=2 batches=1 batch-size=1 priority=urgent", // priority
            "tenant=a qubits=2 batches=1 batch-size=1",        // missing id
        ] {
            assert!(
                matches!(
                    SubmitSpec::parse_line(line),
                    Err(ServeError::InvalidSpec(_))
                ),
                "line should be rejected: {line}"
            );
        }
    }

    #[test]
    fn charged_bytes_counts_every_amplitude() {
        // 4 batches × 2 vectors × 2^3 amps × 16 bytes
        assert_eq!(spec().charged_bytes(), 4 * 2 * 8 * 16);
        // Narrow storage really is half the charge.
        let narrow = SubmitSpec {
            precision: Precision::F32,
            ..spec()
        };
        assert_eq!(narrow.charged_bytes(), 4 * 2 * 8 * 8);
    }

    #[test]
    fn precision_key_round_trips_and_defaults_to_f64() {
        for (precision, rendered) in [(Precision::F64, false), (Precision::F32, true)] {
            let s = SubmitSpec {
                precision,
                ..spec()
            };
            let line = s.render_line();
            assert_eq!(
                line.contains("precision="),
                rendered,
                "f64 is the implicit default; narrow precisions are explicit: {line}"
            );
            assert_eq!(SubmitSpec::parse_line(&line).unwrap(), s);
        }
        // `auto` is a client-side resolution, never an admitted spec; the
        // retired `mixed` is rejected, not read as f64.
        for token in ["auto", "mixed"] {
            let line = format!("tenant=a id=j qubits=2 batches=1 batch-size=1 precision={token}");
            assert!(matches!(
                SubmitSpec::parse_line(&line),
                Err(ServeError::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn inputs_match_the_cli_seeding_rule() {
        let s = spec();
        let inputs = s.build_inputs();
        assert_eq!(inputs.len(), 4);
        let direct = bqsim_core::random_input_batch(3, 2, 7 ^ 2u64);
        for (a, b) in inputs[2].iter().flatten().zip(direct.iter().flatten()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn priority_weights_are_the_documented_ladder() {
        assert_eq!(Priority::Low.weight(), 1);
        assert_eq!(Priority::Normal.weight(), 2);
        assert_eq!(Priority::High.weight(), 4);
    }
}
