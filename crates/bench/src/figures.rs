//! The paper's Figures 5 and 9–13, as tables of their data points.

use crate::runners::{compile_bqsim, compile_cuquantum, Simulators};
use crate::table::Table;
use crate::{ReportParams, ReportResult};
use bqsim_baselines::cuq::GateSource;
use bqsim_core::ablation::{self, Variant};
use bqsim_core::{fusion, BqSimOptions, ConversionMethod, HybridConverter};
use bqsim_qcir::generators::Family;
use bqsim_qdd::gates::lower_circuit;
use bqsim_qdd::DdPackage;
use std::io::Write;

/// **Figure 5**: GPU-based vs CPU-based DD-to-ELL conversion — (a)
/// conversion time vs qubit count, (b) GPU/CPU time ratio vs DD edge
/// count. Data points are the fused gates of several suite circuits, as in
/// the paper.
///
/// # Errors
///
/// A failed write.
pub fn fig5(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    let converter = HybridConverter::default();

    // (a) Total conversion time per circuit vs qubit count.
    writeln!(
        out,
        "# Figure 5a — conversion time (virtual ms) vs #qubits\n"
    )?;
    let mut ta = Table::new(&["circuit", "n", "gates", "GPU ms", "CPU ms"]);
    let sizes: Vec<usize> = if params.paper_sizes {
        vec![10, 12, 14, 16, 18, 20]
    } else {
        vec![8, 10, 12, 14]
    };
    for &n in &sizes {
        for family in [Family::Vqe, Family::Qnn] {
            let circuit = family.build(n, params.seed);
            let mut dd = DdPackage::new();
            let fused = fusion::bqcs_aware_fusion(&mut dd, n, &lower_circuit(&circuit));
            let (mut gpu_ns, mut cpu_ns) = (0u64, 0u64);
            for g in &fused {
                gpu_ns += converter
                    .convert_with(&mut dd, g, n, ConversionMethod::Gpu)
                    .conversion_ns;
                cpu_ns += converter
                    .convert_with(&mut dd, g, n, ConversionMethod::Cpu)
                    .conversion_ns;
            }
            ta.add(vec![
                circuit.name().to_string(),
                n.to_string(),
                fused.len().to_string(),
                format!("{:.3}", gpu_ns as f64 / 1e6),
                format!("{:.3}", cpu_ns as f64 / 1e6),
            ]);
        }
    }
    write!(out, "{}", ta.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 5a): GPU wins by growing margins as n rises.\n"
    )?;

    // (b) Per-gate GPU/CPU ratio vs DD edge count, across structurally
    // diverse gates (simple rotations → fused supremacy diagonals).
    writeln!(
        out,
        "# Figure 5b — GPU/CPU conversion-time ratio vs #edges\n"
    )?;
    let mut points: Vec<(usize, f64)> = Vec::new();
    let n = if params.paper_sizes { 12 } else { 9 };
    for (family, seed) in [
        (Family::Vqe, 1u64),
        (Family::Tsp, 2),
        (Family::PortfolioOpt, 3),
        (Family::Supremacy, 4),
    ] {
        let circuit = family.build(n, seed);
        let mut dd = DdPackage::new();
        let lowered = lower_circuit(&circuit);
        let fused = fusion::bqcs_aware_fusion(&mut dd, n, &lowered);
        // Also include bounded prefix products, which grow the edge count
        // well beyond individual fused gates (unbounded whole-circuit
        // products of random circuits approach dense 4^n/3-node DDs and
        // are deliberately avoided).
        let mut extra = Vec::new();
        for prefix in [4usize, 8, 12] {
            let mut product = dd.identity(n);
            for g in fused.iter().take(prefix) {
                product = dd.mat_mul(g.edge, product);
            }
            extra.push(fusion::FusedGate::classify(&mut dd, product, n, 1));
        }
        for g in fused.iter().chain(extra.iter()) {
            let gpu = converter.convert_with(&mut dd, g, n, ConversionMethod::Gpu);
            let cpu = converter.convert_with(&mut dd, g, n, ConversionMethod::Cpu);
            points.push((
                gpu.dd_edges,
                gpu.conversion_ns as f64 / cpu.conversion_ns.max(1) as f64,
            ));
        }
    }
    points.sort_by_key(|p| p.0);
    points.dedup_by_key(|p| p.0);
    let mut tb = Table::new(&["#edges", "GPU/CPU time ratio"]);
    for (edges, ratio) in &points {
        tb.add(vec![edges.to_string(), format!("{ratio:.3}")]);
    }
    write!(out, "{}", tb.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 5b): the ratio rises with edge count and crosses 1 \
         near τ — motivating hybrid conversion."
    )?;
    Ok(())
}

/// **Figure 9**: GPU-only vs CPU-only vs hybrid DD-to-ELL conversion time
/// over five circuits, normalised by the hybrid time.
///
/// # Errors
///
/// A failed write.
pub fn fig9(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    let converter = HybridConverter::default();
    writeln!(
        out,
        "# Figure 9 — conversion time normalised to hybrid (lower is better)\n"
    )?;
    let cases: Vec<(Family, usize)> = if params.paper_sizes {
        vec![
            (Family::Qnn, 21),
            (Family::Qnn, 19),
            (Family::Qnn, 17),
            (Family::Vqe, 16),
            (Family::Tsp, 16),
        ]
    } else {
        vec![
            (Family::Qnn, 14),
            (Family::Qnn, 13),
            (Family::Qnn, 12),
            (Family::Vqe, 14),
            (Family::Tsp, 13),
        ]
    };
    let mut t = Table::new(&["circuit", "GPU-based", "CPU-based", "Hybrid"]);
    for (family, n) in cases {
        let circuit = family.build(n, params.seed);
        let mut dd = DdPackage::new();
        let fused = fusion::bqcs_aware_fusion(&mut dd, n, &lower_circuit(&circuit));
        let (mut gpu, mut cpu, mut hybrid) = (0u64, 0u64, 0u64);
        for g in &fused {
            gpu += converter
                .convert_with(&mut dd, g, n, ConversionMethod::Gpu)
                .conversion_ns;
            cpu += converter
                .convert_with(&mut dd, g, n, ConversionMethod::Cpu)
                .conversion_ns;
            hybrid += converter.convert(&mut dd, g, n).conversion_ns;
        }
        let h = hybrid.max(1) as f64;
        t.add(vec![
            circuit.name().to_string(),
            format!("{:.2}", gpu as f64 / h),
            format!("{:.2}", cpu as f64 / h),
            "1.00".to_string(),
        ]);
        eprintln!("done: {}", circuit.name());
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 9): hybrid ≤ min(GPU, CPU) per circuit; on QNN the \
         hybrid beats both (mixed DD complexity), on VQE/TSP it matches GPU-based."
    )?;
    Ok(())
}

/// **Figure 10**: BQSim's speed-up over cuQuantum as the batch size grows
/// from 32 to 1024 (QNN and VQE).
///
/// # Errors
///
/// A compile or run error, or a failed write.
pub fn fig10(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    writeln!(
        out,
        "# Figure 10 — speed-up over cuQuantum vs batch size B\n"
    )?;
    let cases: Vec<(Family, usize)> = if params.paper_sizes {
        vec![(Family::Qnn, 17), (Family::Vqe, 16)]
    } else {
        vec![(Family::Qnn, 13), (Family::Vqe, 14)]
    };
    for (family, n) in cases {
        let circuit = family.build(n, params.seed);
        let sim = compile_bqsim(&circuit)?;
        let cuq = compile_cuquantum(&circuit, GateSource::Unfused)?;
        let mut t = Table::new(&["B", "BQSim ms", "cuQuantum ms", "speed-up"]);
        for b in [32usize, 64, 128, 256, 512, 1024] {
            // End-to-end: compile cost included, as in Table 2 — its
            // amortisation over growing batches is what drives the rising
            // speed-up curve.
            let t_b = sim.run_synthetic(params.batches, b)?.breakdown.total_ns();
            let t_c = cuq.run_synthetic(params.batches, b).total_ns;
            t.add(vec![
                b.to_string(),
                format!("{:.3}", t_b as f64 / 1e6),
                format!("{:.3}", t_c as f64 / 1e6),
                format!("{:.2}x", t_c as f64 / t_b as f64),
            ]);
        }
        writeln!(out, "## {} (n={n})\n", family.name())?;
        write!(out, "{}", t.render())?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "Expected shape (paper Fig. 10): speed-up grows with B and saturates near B=1024 \
         as data movement reaches the bandwidth limit."
    )?;
    Ok(())
}

/// **Figure 11**: average CPU and GPU power of the four simulators on
/// three circuits with ten batches.
///
/// # Errors
///
/// A compile or run error, or a failed write.
pub fn fig11(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    let batches = 10usize;
    writeln!(out, "# Figure 11 — average power (W), N=10 batches\n")?;
    let cases: Vec<(Family, usize)> = if params.paper_sizes {
        vec![(Family::Qnn, 17), (Family::Vqe, 16), (Family::Tsp, 16)]
    } else {
        vec![(Family::Qnn, 12), (Family::Vqe, 14), (Family::Tsp, 13)]
    };
    let mut t = Table::new(&[
        "circuit",
        "BQSim CPU",
        "BQSim GPU",
        "cuQuantum CPU",
        "cuQuantum GPU",
        "Aer CPU",
        "Aer GPU",
        "FlatDD CPU",
    ]);
    for (family, n) in cases {
        let circuit = family.build(n, params.seed);
        let sims = Simulators::compile(&circuit)?;
        let bqsim = sims.bqsim.run_synthetic(batches, params.batch_size)?.power;
        let cuq = sims
            .cuquantum
            .run_synthetic(batches, params.batch_size)
            .power;
        let aer = sims.aer.run_synthetic(batches * params.batch_size).power;
        let flatdd = sims.flatdd.run_synthetic(batches * params.batch_size).power;
        let w = |x: f64| format!("{x:.0}");
        t.add(vec![
            circuit.name().to_string(),
            w(bqsim.cpu_w),
            w(bqsim.gpu_w),
            w(cuq.cpu_w),
            w(cuq.gpu_w),
            w(aer.cpu_w),
            w(aer.gpu_w),
            w(flatdd.cpu_w),
        ]);
        eprintln!("done: {}", circuit.name());
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 11): BQSim draws less GPU power than cuQuantum \
         (27–53% lower) and less CPU power than Aer/FlatDD (41–47% lower); FlatDD uses \
         no GPU at all but runs so long its total energy is worst."
    )?;
    Ok(())
}

/// **Figure 12**: runtime breakdown of BQSim (gate fusion / DD-to-ELL
/// conversion / simulation) as the number of batches N grows — the
/// amortisation argument of §4.8.
///
/// # Errors
///
/// A compile or run error, or a failed write.
pub fn fig12(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    writeln!(
        out,
        "# Figure 12 — runtime breakdown (%) vs number of batches N\n"
    )?;
    let cases: Vec<(Family, usize)> = if params.paper_sizes {
        vec![
            (Family::Routing, 6),
            (Family::PortfolioOpt, 18),
            (Family::Qnn, 21),
        ]
    } else {
        vec![
            (Family::Routing, 6),
            (Family::PortfolioOpt, 13),
            (Family::Qnn, 13),
        ]
    };
    let mut t = Table::new(&["circuit", "N", "fusion %", "conversion %", "simulation %"]);
    for (family, n) in cases {
        let circuit = family.build(n, params.seed);
        let sim = compile_bqsim(&circuit)?;
        for batches in [10usize, 20, 50, 100, 200] {
            let run = sim.run_synthetic(batches, params.batch_size)?;
            let (f, c, s) = run.breakdown.fractions();
            t.add(vec![
                circuit.name().to_string(),
                batches.to_string(),
                format!("{:.2}", f * 100.0),
                format!("{:.2}", c * 100.0),
                format!("{:.2}", s * 100.0),
            ]);
        }
        eprintln!("done: {}", circuit.name());
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 12): fusion + conversion are one-time costs whose \
         share shrinks as N grows (QNN n=21 at N=10: 16.2% + 41.3%; at N=200: 1.9% + 5.0%)."
    )?;
    Ok(())
}

/// **Figure 13**: the ablation study — runtime of BQSim with each stage
/// removed, normalised to the full pipeline.
///
/// # Errors
///
/// A compile or run error of any variant, or a failed write.
pub fn fig13(params: &ReportParams, out: &mut dyn Write) -> ReportResult {
    writeln!(
        out,
        "# Figure 13 — ablation: normalised runtime (N=10 batches)\n"
    )?;
    let cases: Vec<(Family, usize)> = if params.paper_sizes {
        vec![
            (Family::Qnn, 17),
            (Family::Vqe, 16),
            (Family::PortfolioOpt, 16),
            (Family::Tsp, 16),
        ]
    } else {
        vec![
            (Family::Qnn, 12),
            (Family::Vqe, 14),
            (Family::PortfolioOpt, 12),
            (Family::Tsp, 13),
        ]
    };
    let mut t = Table::new(&[
        "circuit",
        "Original BQSim",
        "w/o gate fusion",
        "w/o DD-to-ELL",
        "w/o task graph",
    ]);
    for (family, n) in cases {
        let circuit = family.build(n, params.seed);
        let cells =
            ablation::run_ablation(&circuit, &BqSimOptions::default(), 10, params.batch_size)?;
        // `run_ablation` returns one cell per variant.
        let ns = |v: Variant| {
            cells
                .iter()
                .find(|c| c.variant == v)
                .map_or(0, |c| c.run.timeline.total_ns())
        };
        let full = ns(Variant::Full) as f64;
        let norm = |v: Variant| format!("{:.2}", ns(v) as f64 / full);
        t.add(vec![
            circuit.name().to_string(),
            "1.00".to_string(),
            norm(Variant::WithoutFusion),
            norm(Variant::WithoutEll),
            norm(Variant::WithoutTaskGraph),
        ]);
        eprintln!("done: {}", circuit.name());
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nExpected shape (paper §4.9): fusion contributes 1.39–6.73x, DD-to-ELL \
         5.55–35.08x (largest), task graph 1.46–1.73x."
    )?;
    Ok(())
}
