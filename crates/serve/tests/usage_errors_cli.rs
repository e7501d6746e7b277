//! Out-of-range shapes and unrecognised tokens — on flags, in `BQSIM_*`
//! variables, in submissions and quotas — are usage errors (exit 2, one
//! `error:` line naming the offender), never a panic, an allocation
//! abort, or a silent fall back to the `f64` defaults. That includes the
//! retired `mixed` precision, the retired `--layout`, `--model-check` and
//! `--dpor-budget` flags, `BQSIM_LAYOUT` set to anything, and the retired
//! `renorm`, `lock-order`, `wake` and `pool` defects; a journal recorded
//! at `precision=mixed` or with a `layout=` token is refused as a plan
//! mismatch (exit 4). The surviving defects, `race` and `journal`, are
//! findings (exit 1) of plain `bqsim analyze`.

use bqsim_campaign::checksum::fnv1a;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `bqsim` with the whitespace-separated arguments of `line`.
fn bqsim(line: &str, env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bqsim"))
        .args(line.split_whitespace())
        .envs(env.iter().copied())
        .output()
        .expect("spawn bqsim")
}

/// Asserts exit `code` and a single `error:` line containing `needle`.
fn assert_refused(out: &Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.lines().count() == 1 && stderr.contains(needle),
        "want one error line naming `{needle}`, got: {stderr}"
    );
}

fn assert_ran(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bqsim-usage-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const GHZ3: &str = "run --family ghz --qubits 3";

#[test]
fn run_checks_the_campaign_shape_before_generating_inputs() {
    // Every subcommand that builds a circuit: `run`, `analyze`, `faults`
    // and the bare simulate command.
    for cmd in ["run", "analyze", "faults", ""] {
        let ghz3 = format!("{cmd} --family ghz --qubits 3");
        let out = bqsim(&format!("{ghz3} --batch-size 0"), &[]);
        assert_refused(&out, 2, "batch-size 0");
        let out = bqsim(&format!("{ghz3} --batches 0"), &[]);
        assert_refused(&out, 2, "batches 0");
        let out = bqsim(&format!("{cmd} --family ghz --qubits 40"), &[]);
        assert_refused(&out, 2, "1..=16");
    }
}

#[test]
fn unrecognised_environment_values_name_their_variable() {
    for (var, value) in [
        ("BQSIM_PRECISION", "bogus"),
        ("BQSIM_PRECISION", "mixed"),
        ("BQSIM_THREADS", "0"),
        ("BQSIM_THREADS", "many"),
    ] {
        assert_refused(&bqsim(GHZ3, &[(var, value)]), 2, var);
    }
    // Recognised values (and `auto`, which the CLI resolves) still run.
    let env = [("BQSIM_PRECISION", "auto"), ("BQSIM_THREADS", "2")];
    assert_ran(&bqsim(&format!("{GHZ3} --batches 1 --batch-size 2"), &env));
}

#[test]
fn retired_tokens_are_rejected_everywhere_they_were_accepted() {
    let dir = scratch("retired");
    let (cmds, state) = (dir.join("jobs.cmd"), dir.join("svc"));
    let (cmds_arg, state_arg) = (cmds.display(), state.display());

    let out = bqsim(&format!("{GHZ3} --precision mixed"), &[]);
    assert_refused(&out, 2, "--precision");

    let analyze = "analyze --family ghz --qubits 4";
    for defect in ["renorm", "lock-order", "wake", "pool"] {
        let out = bqsim(&format!("{analyze} --inject-defect {defect}"), &[]);
        assert_refused(&out, 2, "--inject-defect");
    }
    for flag in ["--model-check", "--dpor-budget 8"] {
        let out = bqsim(&format!("{analyze} {flag}"), &[]);
        assert_refused(&out, 2, flag.split(' ').next().unwrap());
    }

    // The layout follows the precision: the flag and the variable are
    // refused whatever they say, on every subcommand.
    for cmd in [GHZ3, analyze, "status"] {
        for layout in ["aos", "planar"] {
            let out = bqsim(&format!("{cmd} --layout {layout}"), &[]);
            assert_refused(&out, 2, "--layout");
            let out = bqsim(cmd, &[("BQSIM_LAYOUT", layout)]);
            assert_refused(&out, 2, "BQSIM_LAYOUT");
        }
    }

    let spec = "tenant=a id=j qubits=2 batches=1";
    let submit = format!("submit --submissions {cmds_arg} {spec}");
    let out = bqsim(&format!("{submit} precision=mixed"), &[]);
    assert_refused(&out, 2, "precision");
    assert!(!cmds.exists(), "a rejected spec is not appended");

    std::fs::write(&cmds, format!("{spec}\n")).unwrap();
    let serve = format!("serve --state-dir {state_arg} --submissions {cmds_arg}");
    let out = bqsim(&format!("{serve} --quota tenant=a,precision=mixed"), &[]);
    assert_refused(&out, 2, "quota precision");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plain_analyze_reports_a_seeded_defect() {
    let analyze = "analyze --family ghz --qubits 4 --batches 4";
    assert_ran(&bqsim(analyze, &[]));
    for (defect, pass) in [("race", "races"), ("journal", "journal-exactly-once")] {
        let out = bqsim(&format!("{analyze} --inject-defect {defect}"), &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{stdout}");
        assert!(stdout.contains(&format!("error[{pass}]")), "{stdout}");
    }
}

/// Interrupts a journaled campaign, re-stamps its header as an older
/// build wrote it — `from` replaced by `to`, CRC and all, so only the
/// token itself can be what is refused — and resumes it: the resume must
/// exit 4 naming `field`, and leave the journal as it was.
fn assert_restamped_header_is_a_plan_mismatch(name: &str, from: &str, to: &str, field: &str) {
    let dir = scratch(name);
    let journal = dir.join("c.journal");
    let campaign = format!(
        "{GHZ3} --batches 2 --batch-size 2 --journal {}",
        journal.display()
    );
    assert_ran(&bqsim(&format!("{campaign} --stop-after 1"), &[]));

    let text = std::fs::read_to_string(&journal).expect("read journal");
    let (header, rest) = text.split_once('\n').expect("a header line");
    let payload = header.split_once(':').expect("a CRC prefix").1;
    assert!(payload.contains(from), "{payload}");
    let payload = payload.replace(from, to);
    let restamped = format!("{:016x}:{payload}\n{rest}", fnv1a(payload.as_bytes()));
    std::fs::write(&journal, &restamped).expect("write journal");

    let out = bqsim(&format!("{campaign} --resume"), &[]);
    assert_refused(&out, 4, &format!("'{field}'"));
    let after = std::fs::read_to_string(&journal).expect("read journal");
    assert_eq!(
        after, restamped,
        "a refused resume leaves the journal as it was"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_recorded_at_the_retired_precision_is_a_plan_mismatch() {
    let (f64, mixed) = (" precision=f64 ", " precision=mixed ");
    assert_restamped_header_is_a_plan_mismatch("journal", f64, mixed, "precision");
}

#[test]
fn a_journal_recorded_with_a_layout_is_a_plan_mismatch() {
    // A build with `--layout` wrote `layout=` between `threads=` and
    // `precision=`.
    let (from, to) = (" precision=f64 ", " layout=aos precision=f64 ");
    assert_restamped_header_is_a_plan_mismatch("journal-layout", from, to, "layout");
}
