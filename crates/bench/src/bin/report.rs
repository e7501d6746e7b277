//! Regenerates the paper's tables and figures on the virtual clock.
//!
//! `report <NAME> [FLAGS]` runs one report; `report all` runs the ten in
//! paper order, which is what EXPERIMENTS.md records.

use bqsim_bench::{find, ReportParams, REPORTS};
use std::io::{self, Write};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = REPORTS.iter().map(|&(n, _)| n).collect();
    format!(
        "usage: report <all|{}> [--batches N] [--batch-size B] [--seed S] [--paper-sizes]",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.split_first() {
        None => Err("missing report name".to_string()),
        Some((name, flags)) => find(name)
            .ok_or_else(|| format!("unknown report `{name}`"))
            .and_then(|report| Ok((report, ReportParams::from_args(flags)?))),
    };
    let (report, params) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("report: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout().lock();
    match report(&params, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report: {e}");
            // A failed write is a generic failure; anything else a report
            // returns is a simulator error.
            ExitCode::from(if e.is::<io::Error>() { 1 } else { 5 })
        }
    }
}
