//! The paper's evaluation on the virtual clock: one function per table or
//! figure of the BQSim paper (see DESIGN.md §5 for the index).
//!
//! Each report writes a markdown table, with the paper's reference values
//! alongside, to a caller-supplied [`Write`]. The `report` binary runs
//! one of them by name, or all of them with [`all`]; EXPERIMENTS.md is
//! produced by capturing `report all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod params;
pub mod runners;
pub mod table;
pub mod tables;

pub use params::ReportParams;

use std::error::Error;
use std::io::Write;

/// What a report returns: a simulator error or a failed write.
pub type ReportResult = Result<(), Box<dyn Error>>;

/// A report: regenerates one table or figure into `out`.
pub type Report = fn(&ReportParams, &mut dyn Write) -> ReportResult;

/// Every report under its subcommand name, in the order [`all`] runs them.
pub const REPORTS: [(&str, Report); 10] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("fig5", figures::fig5),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
];

/// Runs every report in [`REPORTS`] order, each after a separator line.
///
/// # Errors
///
/// The first error any report returns; later reports do not run.
pub fn all(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    for (_, report) in REPORTS {
        writeln!(out, "\n{}\n", "=".repeat(78))?;
        report(params, out)?;
    }
    Ok(())
}

/// The report a subcommand names: `all` or a name in [`REPORTS`].
pub fn find(name: &str) -> Option<Report> {
    if name == "all" {
        return Some(all);
    }
    REPORTS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

/// Geometric mean of a series (the paper's averaging rule for data with
/// exponential spread, §4).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-300).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn all_runs_the_ten_reports_in_paper_order() {
        let names: Vec<&str> = REPORTS.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "table1", "table2", "table3", "table4", "fig5", "fig9", "fig10", "fig11", "fig12",
                "fig13"
            ]
        );
    }

    #[test]
    fn every_name_dispatches() {
        for (name, report) in REPORTS {
            assert!(
                find(name).is_some_and(|r| std::ptr::fn_addr_eq(r, report)),
                "{name}"
            );
        }
        assert!(find("all").is_some_and(|r| std::ptr::fn_addr_eq(r, all as Report)));
        for bad in ["", "table5", "fig6", "report_table1", "ALL"] {
            assert!(find(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn table1_renders_its_four_rows() {
        let mut out = Vec::new();
        tables::table1(&ReportParams::default(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("# Table 1"), "{text}");
        for row in [
            "| Supremacy | 12        | 10      | 0.0328     | 0.0000        |",
            "| VQE       | 16        | 14      | 0.0000     | 0.0000        |",
            "| QNN       | 17        | 12      | 0.0000     | 0.0000        |",
            "| TSP       | 16        | 13      | 0.0000     | 0.0000        |",
        ] {
            assert!(text.contains(row), "missing {row}: {text}");
        }
        assert!(text.contains("(5 columns × 4 rows)"), "{text}");
    }
}
