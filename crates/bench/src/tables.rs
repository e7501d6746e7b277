//! The paper's Tables 1–4.

use crate::runners::{build_circuit, compile_bqsim, compile_cuquantum, table2_times, table3_macs};
use crate::table::{ms, speedup, Table};
use crate::{geomean, ReportParams, ReportResult};
use bqsim_baselines::cuq::GateSource;
use bqsim_core::fusion;
use bqsim_qcir::generators::{self, Family};
use bqsim_qdd::gates::lower_circuit;
use bqsim_qdd::{nzrv, DdPackage};
use std::io::Write;

fn average_cv(family: Family, n: usize, seed: u64) -> f64 {
    let circuit = family.build(n, seed);
    let mut dd = DdPackage::new();
    // "gate matrices used for BQCS-aware gate fusion": the per-gate DDs
    // entering the pipeline plus every fused product it creates.
    let lowered = lower_circuit(&circuit);
    let classified = fusion::classify_gates(&mut dd, n, &lowered);
    let fused = fusion::bqcs_aware_fusion(&mut dd, n, &lowered);
    let cvs: Vec<f64> = classified
        .iter()
        .chain(fused.iter())
        .map(|g| nzrv::nzr_coefficient_of_variation(&mut dd, g.edge, n))
        .collect();
    cvs.iter().sum::<f64>() / cvs.len().max(1) as f64
}

/// **Table 1**: average coefficient of variation (CV) of NZRs in the gate
/// matrices used for BQCS-aware gate fusion.
///
/// # Errors
///
/// A failed write.
pub fn table1(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    writeln!(out, "# Table 1 — CV of NZR across four circuit families\n")?;
    let cases: [(Family, usize, usize, f64); 4] = [
        (Family::Supremacy, 12, 10, 0.0328),
        (Family::Vqe, 16, 14, 0.0),
        (Family::Qnn, 17, 12, 0.0),
        (Family::Tsp, 16, 13, 0.0),
    ];
    let mut t = Table::new(&[
        "circuit",
        "n (paper)",
        "n (run)",
        "CV (paper)",
        "CV (measured)",
    ]);
    let mut measured = Vec::new();
    for (family, paper_n, scaled_n, paper_cv) in cases {
        let n = if params.paper_sizes {
            paper_n
        } else {
            scaled_n
        };
        let cv = average_cv(family, n, params.seed);
        measured.push(cv.max(1e-6));
        t.add(vec![
            family.name().to_string(),
            paper_n.to_string(),
            n.to_string(),
            format!("{paper_cv:.4}"),
            format!("{cv:.4}"),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nAll CVs ≲ 0.05 ⇒ NZR is near-uniform across rows, justifying ELL \
         (geometric mean of measured CVs: {:.4}).",
        geomean(&measured)
    )?;
    Ok(())
}

/// **Table 2**: overall runtime of BQSim vs cuQuantum, Qiskit Aer, and
/// FlatDD on the 16-circuit suite, with per-circuit speed-ups and the
/// geometric-mean summary the paper's abstract quotes
/// (3.25× / 159.06× / 311.42×).
///
/// # Errors
///
/// As [`table2_times`], or a failed write.
pub fn table2(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    writeln!(
        out,
        "# Table 2 — overall runtime (virtual ms), N={} batches × B={} inputs\n",
        params.batches, params.batch_size
    )?;
    let mut t = Table::new(&[
        "circuit",
        "n",
        "gates",
        "cuQuantum",
        "Qiskit Aer",
        "FlatDD",
        "BQSim",
        "vs cuQ",
        "vs Aer",
        "vs FlatDD",
    ]);
    let (mut s_cuq, mut s_aer, mut s_flat) = (Vec::new(), Vec::new(), Vec::new());
    for entry in generators::paper_suite() {
        let circuit = build_circuit(&entry, params);
        let times = table2_times(&circuit, params)?;
        s_cuq.push(times.cuquantum_ns as f64 / times.bqsim_ns as f64);
        s_aer.push(times.aer_ns as f64 / times.bqsim_ns as f64);
        s_flat.push(times.flatdd_ns as f64 / times.bqsim_ns as f64);
        t.add(vec![
            entry.family.name().to_string(),
            circuit.num_qubits().to_string(),
            circuit.num_gates().to_string(),
            ms(times.cuquantum_ns),
            ms(times.aer_ns),
            ms(times.flatdd_ns),
            ms(times.bqsim_ns),
            speedup(times.cuquantum_ns, times.bqsim_ns),
            speedup(times.aer_ns, times.bqsim_ns),
            speedup(times.flatdd_ns, times.bqsim_ns),
        ]);
        eprintln!("done: {} n={}", entry.family.name(), circuit.num_qubits());
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\ngeomean speed-ups: vs cuQuantum {:.2}x (paper 3.25x), vs Qiskit Aer {:.2}x \
         (paper 159.06x), vs FlatDD {:.2}x (paper 311.42x)",
        geomean(&s_cuq),
        geomean(&s_aer),
        geomean(&s_flat)
    )?;
    Ok(())
}

/// **Table 3**: #MAC per simulated input for BQSim and the three
/// baselines, with improvement ratios. These counts come from the real
/// fusion algorithms, so they are exact (machine-independent).
///
/// # Errors
///
/// As [`table3_macs`], or a failed write.
pub fn table3(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    writeln!(out, "# Table 3 — #MAC per input (smaller is better)\n")?;
    let mut t = Table::new(&[
        "circuit",
        "n",
        "gates",
        "cuQuantum",
        "Qiskit Aer",
        "FlatDD",
        "BQSim",
        "vs cuQ",
        "vs Aer",
        "vs FlatDD",
    ]);
    let (mut r_cuq, mut r_aer, mut r_flat) = (Vec::new(), Vec::new(), Vec::new());
    for entry in generators::paper_suite() {
        let circuit = build_circuit(&entry, params);
        let m = table3_macs(&circuit)?;
        r_cuq.push(m.cuquantum as f64 / m.bqsim as f64);
        r_aer.push(m.aer as f64 / m.bqsim as f64);
        r_flat.push(m.flatdd as f64 / m.bqsim as f64);
        t.add(vec![
            entry.family.name().to_string(),
            circuit.num_qubits().to_string(),
            circuit.num_gates().to_string(),
            m.cuquantum.to_string(),
            m.aer.to_string(),
            m.flatdd.to_string(),
            m.bqsim.to_string(),
            speedup(m.cuquantum, m.bqsim),
            speedup(m.aer, m.bqsim),
            speedup(m.flatdd, m.bqsim),
        ]);
        eprintln!("done: {} n={}", entry.family.name(), circuit.num_qubits());
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\ngeomean #MAC improvements: vs cuQuantum {:.2}x (paper 10.76x), vs Qiskit Aer \
         {:.2}x (paper 3.85x), vs FlatDD {:.2}x (paper 1.23x)",
        geomean(&r_cuq),
        geomean(&r_aer),
        geomean(&r_flat)
    )?;
    Ok(())
}

/// **Table 4**: BQCS runtime of BQSim vs cuQuantum driven by BQSim's
/// fusion (`cuQuantum+B`) and by Aer's fusion (`cuQuantum+Q`).
/// `cuQuantum+B` cells print "-" when the dense-format fused gate exceeds
/// device memory, exactly like the paper.
///
/// # Errors
///
/// A BQSim compile or run error (e.g. a batch beyond device memory), a
/// `cuQuantum+Q` compile error, or a failed write.
pub fn table4(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    writeln!(
        out,
        "# Table 4 — BQCS runtime (virtual ms): BQSim vs cuQuantum+Q vs cuQuantum+B\n"
    )?;
    let mut t = Table::new(&[
        "circuit",
        "n",
        "cuQuantum+Q",
        "cuQuantum+B",
        "BQSim",
        "vs +Q",
        "vs +B",
    ]);
    let (batches, batch_size) = (params.batches, params.batch_size);
    let (mut s_q, mut s_b) = (Vec::new(), Vec::new());
    for entry in generators::paper_suite() {
        let circuit = build_circuit(&entry, params);
        // BQCS runtime = simulation stage only (fusion/conversion excluded
        // on all sides, as in §4.5).
        let bqsim_ns = compile_bqsim(&circuit)?
            .run_synthetic(batches, batch_size)?
            .timeline
            .total_ns();

        let plus_q = compile_cuquantum(&circuit, GateSource::AerFusion)?
            .run_synthetic(batches, batch_size)
            .total_ns;
        s_q.push(plus_q as f64 / bqsim_ns as f64);

        let (b_cell, b_speed) = match compile_cuquantum(&circuit, GateSource::BqsimFusion) {
            Ok(sim_b) => {
                let ns = sim_b.run_synthetic(batches, batch_size).total_ns;
                s_b.push(ns as f64 / bqsim_ns as f64);
                (ms(ns), speedup(ns, bqsim_ns))
            }
            Err(_) => ("-".to_string(), "-".to_string()),
        };

        t.add(vec![
            entry.family.name().to_string(),
            circuit.num_qubits().to_string(),
            ms(plus_q),
            b_cell,
            ms(bqsim_ns),
            speedup(plus_q, bqsim_ns),
            b_speed,
        ]);
        eprintln!("done: {} n={}", entry.family.name(), circuit.num_qubits());
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\ngeomean: BQSim vs cuQuantum+Q {:.2}x (paper 3.62x); vs cuQuantum+B {:.2}x over \
         the non-OOM cells (paper 407.42x). '-' = dense fused gate exceeds device memory.",
        geomean(&s_q),
        geomean(&s_b)
    )?;
    Ok(())
}
