//! Criterion bench of the cold compile path, stage by stage: lower →
//! fusion → DD-to-ELL conversion, on the five circuits of the benchmark's
//! `cold_start` workload (seed 42). Reproduces the stage split behind
//! `fusion.ms` / `convert.ms` without the benchmark harness.

use bqsim_core::convert::EllCache;
use bqsim_core::{fusion, HybridConverter};
use bqsim_qcir::generators::Family;
use bqsim_qdd::gates::lower_circuit;
use bqsim_qdd::DdPackage;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const COLD_START_CIRCUITS: [(Family, usize); 5] = [
    (Family::PortfolioOpt, 12),
    (Family::Qnn, 12),
    (Family::Qft, 14),
    (Family::Supremacy, 12),
    (Family::GraphState, 14),
];

fn bench_compile_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile");
    group.sample_size(5);
    let converter = HybridConverter::default();
    for (family, n) in COLD_START_CIRCUITS {
        let circuit = family.build(n, 42);
        let id = format!("{}-{n}", family.token());

        group.bench_with_input(BenchmarkId::new("lower", &id), &circuit, |b, circuit| {
            b.iter(|| lower_circuit(circuit).len())
        });

        let lowered = lower_circuit(&circuit);
        group.bench_with_input(BenchmarkId::new("fusion", &id), &lowered, |b, lowered| {
            b.iter(|| {
                let mut dd = DdPackage::new();
                fusion::bqcs_aware_fusion(&mut dd, n, lowered).len()
            })
        });

        // Conversion runs in the package fusion left behind, as in
        // `BqSimulator::compile`; a fresh `EllCache` per iteration converts
        // every distinct gate again.
        let mut dd = DdPackage::new();
        let fused = fusion::bqcs_aware_fusion(&mut dd, n, &lowered);
        group.bench_with_input(BenchmarkId::new("conversion", &id), &fused, |b, fused| {
            b.iter(|| {
                let mut cache = EllCache::new();
                fused
                    .iter()
                    .map(|g| converter.convert_cached(&mut cache, &mut dd, g, n).cost)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compile_stages);
criterion_main!(benches);
