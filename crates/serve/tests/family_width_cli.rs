//! A `--qubits` below a circuit family's minimum width is a usage error
//! (exit 2, one `error:` line), never the generator's `assert!` backtrace;
//! the minimum itself runs.

use bqsim_qcir::generators::Family;
use std::process::{Command, Output};

fn run_family(family: Family, qubits: usize) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bqsim"))
        .args(["run", "--family", family.token()])
        .args(["--qubits", &qubits.to_string()])
        .args(["--batches", "1", "--batch-size", "2"])
        .output()
        .expect("spawn bqsim")
}

#[test]
fn each_family_rejects_widths_below_its_minimum_and_runs_at_it() {
    for family in Family::ALL {
        let min = family.min_qubits();

        let out = run_family(family, min - 1);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{} --qubits {}: want usage exit 2, got {:?}\n{stderr}",
            family.token(),
            min - 1,
            out.status
        );
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("at least")
                && stderr.lines().count() == 1,
            "{}: want one structured error line, got: {stderr}",
            family.token()
        );

        let out = run_family(family, min);
        assert!(
            out.status.success()
                && String::from_utf8_lossy(&out.stdout).contains("campaign digest: "),
            "{} --qubits {min} must run: {}",
            family.token(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
