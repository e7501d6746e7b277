//! Where a campaign's input batches come from.
//!
//! A campaign either runs over explicit batches the caller holds, or
//! pulls each batch from a generator when it runs it. A generated batch
//! is a pure function of the generator, the shape and the batch index, so
//! a journal names the source by those values (see
//! [`Fingerprint`](crate::Fingerprint)) instead of hashing every
//! amplitude, and a campaign holds one batch at a time.

use bqsim_core::random_input_batch;
use bqsim_num::Complex;
use bqsim_qcir::dense;
use std::borrow::Cow;
use std::fmt;

/// How generated batches are made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    /// Batch `b` is `random_input_batch(qubits, batch_size, seed ^ b)` —
    /// `bqsim run --seed` and every service submission.
    Random {
        /// The campaign's input seed.
        seed: u64,
    },
    /// Every state is `|0…0⟩` (`bqsim run --zero-input`).
    Zero,
}

impl fmt::Display for Generator {
    /// The journal-header token: `random:<seed>` or `zero`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Generator::Random { seed } => write!(f, "random:{seed}"),
            Generator::Zero => write!(f, "zero"),
        }
    }
}

impl Generator {
    /// Parses a [`Display`](fmt::Display) token.
    pub fn parse(token: &str) -> Option<Generator> {
        match token {
            "zero" => Some(Generator::Zero),
            _ => token
                .strip_prefix("random:")?
                .parse()
                .ok()
                .map(|seed| Generator::Random { seed }),
        }
    }
}

/// A generated input source: `num_batches` batches of `batch_size`
/// states over `qubits` qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedInputs {
    /// How each batch is made.
    pub generator: Generator,
    /// Circuit width the states are made for.
    pub qubits: usize,
    /// States per batch.
    pub batch_size: usize,
    /// Batches in the campaign.
    pub num_batches: usize,
}

impl GeneratedInputs {
    /// Batch `b`.
    pub fn batch(&self, b: usize) -> Vec<Vec<Complex>> {
        match self.generator {
            Generator::Random { seed } => {
                random_input_batch(self.qubits, self.batch_size, seed ^ b as u64)
            }
            Generator::Zero => vec![dense::zero_state(self.qubits); self.batch_size],
        }
    }
}

/// A campaign's input batches.
#[derive(Debug, Clone)]
pub enum CampaignInputs<'a> {
    /// Explicit batches, borrowed or owned; the fingerprint hashes every
    /// amplitude.
    Batches(Cow<'a, [Vec<Vec<Complex>>]>),
    /// Batches pulled from a generator as they run.
    Generated(GeneratedInputs),
}

impl CampaignInputs<'_> {
    /// Batches in the campaign.
    pub fn len(&self) -> usize {
        match self {
            CampaignInputs::Batches(b) => b.len(),
            CampaignInputs::Generated(g) => g.num_batches,
        }
    }

    /// Whether the campaign has no batch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(states per batch, amplitudes per state)`; batch 0's for explicit
    /// batches, `(0, 0)` when there is none.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            CampaignInputs::Batches(b) => {
                let batch_size = b.first().map_or(0, Vec::len);
                let amps = b.first().and_then(|b| b.first()).map_or(0, Vec::len);
                (batch_size, amps)
            }
            CampaignInputs::Generated(g) => (g.batch_size, 1 << g.qubits),
        }
    }

    /// Batch `b`: borrowed when explicit, made now when generated.
    ///
    /// # Panics
    ///
    /// Panics when an explicit source has no batch `b`.
    pub fn batch(&self, b: usize) -> Cow<'_, [Vec<Complex>]> {
        match self {
            CampaignInputs::Batches(batches) => Cow::Borrowed(&batches[b]),
            CampaignInputs::Generated(g) => Cow::Owned(g.batch(b)),
        }
    }
}

impl<'a> From<&'a [Vec<Vec<Complex>>]> for CampaignInputs<'a> {
    fn from(batches: &'a [Vec<Vec<Complex>>]) -> Self {
        CampaignInputs::Batches(Cow::Borrowed(batches))
    }
}

impl<'a> From<&'a Vec<Vec<Vec<Complex>>>> for CampaignInputs<'a> {
    fn from(batches: &'a Vec<Vec<Vec<Complex>>>) -> Self {
        CampaignInputs::Batches(Cow::Borrowed(batches))
    }
}

impl From<Vec<Vec<Vec<Complex>>>> for CampaignInputs<'_> {
    fn from(batches: Vec<Vec<Vec<Complex>>>) -> Self {
        CampaignInputs::Batches(Cow::Owned(batches))
    }
}

impl From<GeneratedInputs> for CampaignInputs<'_> {
    fn from(inputs: GeneratedInputs) -> Self {
        CampaignInputs::Generated(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_tokens_roundtrip() {
        for g in [Generator::Zero, Generator::Random { seed: 42 }] {
            assert_eq!(Generator::parse(&g.to_string()), Some(g));
        }
        assert_eq!(Generator::parse("random:x"), None);
        assert_eq!(Generator::parse("explicit"), None);
    }

    #[test]
    fn generated_batches_match_the_cli_recipe() {
        let g = GeneratedInputs {
            generator: Generator::Random { seed: 7 },
            qubits: 3,
            batch_size: 2,
            num_batches: 4,
        };
        assert_eq!(g.batch(2), random_input_batch(3, 2, 7 ^ 2));
        let zero = GeneratedInputs {
            generator: Generator::Zero,
            ..g
        };
        assert_eq!(zero.batch(1), vec![dense::zero_state(3); 2]);
        assert_eq!(CampaignInputs::from(g).dims(), (2, 8));
    }
}
