//! Report parameters, overridable from the command line.

use std::str::FromStr;

/// Shared knobs of every report.
///
/// Defaults are the scaled sizes of DESIGN.md §6 (N=20 batches × B=64 on
/// scaled qubit counts); `--paper-sizes` switches the circuit widths to
/// the paper's originals and `--batches`/`--batch-size` restore the
/// paper's N=200 × B=256 when the machine allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportParams {
    /// Number of input batches (paper: 200).
    pub batches: usize,
    /// Inputs per batch (paper: 256).
    pub batch_size: usize,
    /// Use the paper's original qubit counts instead of scaled ones.
    pub paper_sizes: bool,
    /// Seed for circuit parameters and inputs.
    pub seed: u64,
}

impl Default for ReportParams {
    fn default() -> Self {
        ReportParams {
            batches: 20,
            batch_size: 64,
            paper_sizes: false,
            seed: 42,
        }
    }
}

impl ReportParams {
    /// Parses the flags that follow the report name.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag, missing or unparseable
    /// value, or zero count; also when `--batches × --batch-size`
    /// overflows.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut p = ReportParams::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            match flag {
                "--paper-sizes" => p.paper_sizes = true,
                "--batches" => p.batches = count(flag, args.next())?,
                "--batch-size" => p.batch_size = count(flag, args.next())?,
                "--seed" => p.seed = value(flag, args.next())?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        p.batches
            .checked_mul(p.batch_size)
            .ok_or("--batches × --batch-size overflows")?;
        Ok(p)
    }

    /// Total inputs across all batches.
    pub fn total_inputs(&self) -> usize {
        self.batches * self.batch_size
    }

    /// The qubit count to use for a suite entry under these parameters.
    pub fn qubits_for(&self, entry: &bqsim_qcir::generators::SuiteEntry) -> usize {
        if self.paper_sizes {
            entry.paper_qubits
        } else {
            entry.scaled_qubits
        }
    }
}

fn value<T: FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

fn count(flag: &str, v: Option<&String>) -> Result<usize, String> {
    match value(flag, v)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ReportParams, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        ReportParams::from_args(&args)
    }

    #[test]
    fn defaults_are_scaled() {
        let p = ReportParams::default();
        assert_eq!(p.total_inputs(), 20 * 64);
        assert!(!p.paper_sizes);
        assert_eq!(parse(&[]), Ok(p));
        let p = parse(&[
            "--batches",
            "4",
            "--paper-sizes",
            "--batch-size",
            "16",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!((p.batches, p.batch_size, p.seed), (4, 16, 7));
        assert!(p.paper_sizes);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let huge = usize::MAX.to_string();
        for (args, why) in [
            (&["--paper-size"][..], "unknown argument `--paper-size`"),
            (&["--paper-sizes", "--batches", "abc"], "cannot parse `abc`"),
            (&["--batches"], "--batches needs a value"),
            (&["--batches", "0"], "--batches must be at least 1"),
            (&["--batch-size", "0"], "--batch-size must be at least 1"),
            (&["--batch-size", "-3"], "cannot parse `-3`"),
            (&["--seed", "1.5"], "cannot parse `1.5`"),
            (&["--seed"], "--seed needs a value"),
            (&["table2"], "unknown argument `table2`"),
            (&["--batches", "2", "--batch-size", &huge], "overflows"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(why), "{args:?}: {err}");
        }
    }
}
