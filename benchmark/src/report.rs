//! The one schema: every metric's name, unit, direction and bound, the
//! `BENCHMARK.json` manifest generated from that table, and the text and
//! JSON renderings of a run.

use crate::workloads::{workload, NAMES};
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the schema.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression — and the
    /// agreement two sets of runs of the same code must show.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off from outside the
/// program. Host wall clock unless the unit says otherwise.
pub static END_TO_END: [MetricDef; 7] = [
    e2e("ttfb_ms", "ms", Lower, 0.10),
    e2e("states_per_s", "states/s", Higher, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("artifact_mb", "MiB", Lower, 0.01),
    e2e("virtual_ms", "ms_virtual", Lower, 0.01),
    e2e("success_ratio", "ratio", Higher, 0.001),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, from the traced replay of one round.
pub static PER_LAYER: [MetricDef; 58] = [
    layer("proc.spawn_ms", "ms", Lower),
    layer("qcir.build_ms", "ms", Lower),
    layer("qcir.gates", "count", Lower),
    layer("qdd.lower_ms", "ms", Lower),
    layer("qdd.lowered_gates", "count", Lower),
    layer("fusion.ms", "ms", Lower),
    layer("fusion.dd_nodes", "count", Lower),
    layer("fusion.cache_misses", "count", Lower),
    layer("fusion.cache_hit_ratio", "ratio", Higher),
    layer("fusion.fused_gates", "count", Lower),
    layer("fusion.mac_per_input", "MAC", Lower),
    layer("fusion.max_nzr", "count", Lower),
    layer("convert.ms", "ms", Lower),
    layer("convert.distinct_gates", "count", Lower),
    layer("convert.cache_hit_ratio", "ratio", Higher),
    layer("convert.ell_mb", "MiB", Lower),
    layer("convert.pad_ratio", "ratio", Higher),
    layer("convert.gpu_path_gates", "count", Higher),
    layer("convert.cpu_path_gates", "count", Lower),
    layer("artifact.publish_ms", "ms", Lower),
    layer("artifact.load_ms", "ms", Lower),
    layer("artifact.bytes", "bytes", Lower),
    layer("artifact.hit_ratio", "ratio", Higher),
    layer("tune.probe_ms", "ms", Lower),
    layer("tune.probes", "count", Lower),
    layer("tune.stored_ms", "ms", Lower),
    layer("inputs.gen_ms", "ms", Lower),
    layer("ell.spmm_ms", "ms", Lower),
    layer("ell.macs", "MAC", Lower),
    layer("ell.gmac_per_s", "GMAC/s", Higher),
    layer("ell.bytes_moved_mb", "MiB_computed", Lower),
    layer("ell.macs_per_byte", "MAC/B", Higher),
    layer("ell.pack_ms", "ms", Lower),
    layer("ell.unpack_ms", "ms", Lower),
    layer("exec.first_run_ms", "ms", Lower),
    layer("exec.run_ms", "ms", Lower),
    layer("exec.self_ms", "ms", Lower),
    layer("exec.per_batch_us", "us", Lower),
    layer("exec.pool_hit_ratio", "ratio", Higher),
    layer("exec.run_ms_t1", "ms", Lower),
    layer("exec.thread_speedup", "x", Higher),
    layer("gpu.virtual_fusion_ms", "ms_virtual", Lower),
    layer("gpu.virtual_convert_ms", "ms_virtual", Lower),
    layer("gpu.virtual_sim_ms", "ms_virtual", Lower),
    layer("campaign.run_ms", "ms", Lower),
    layer("campaign.self_ms", "ms", Lower),
    layer("campaign.journal_ms", "ms", Lower),
    layer("campaign.checksum_ms", "ms", Lower),
    layer("campaign.journal_bytes", "bytes", Lower),
    layer("serve.session_ms", "ms", Lower),
    layer("serve.sched_events", "count", Lower),
    layer("serve.warm_compiles", "count", Higher),
    layer("serve.cold_compiles", "count", Lower),
    layer("serve.requeues", "count", Lower),
    layer("serve.parallel_efficiency", "ratio", Higher),
    layer("trace.attributed_share", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.compile_share", "ratio", Lower),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 12;

/// A measured value of one schema metric.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The schema entry.
    pub def: &'static MetricDef,
    /// The measurement.
    pub value: f64,
    /// Samples behind it (ops, spans, or 1 for a derived number).
    pub samples: usize,
}

/// Pairs measured `(name, value, samples)` triples with the schema, in
/// schema order.
///
/// # Panics
///
/// Panics when a schema metric was not measured, a name is not in the
/// schema, or a value is not finite — each a harness bug.
pub fn values(schema: &'static [MetricDef], measured: &[(&str, f64, usize)]) -> Vec<Value> {
    for (name, _, _) in measured {
        assert!(
            schema.iter().any(|d| d.name == *name),
            "{name} is not in the schema"
        );
    }
    schema
        .iter()
        .map(|def| {
            let &(_, value, samples) = measured
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .unwrap_or_else(|| panic!("{} was not measured", def.name));
            assert!(value.is_finite(), "{} is not finite: {value}", def.name);
            Value {
                def,
                // An empty float `sum()` is -0.0; print it as plain zero.
                value: value + 0.0,
                samples,
            }
        })
        .collect()
}

/// The `BENCHMARK.json` this harness implements.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, name) in NAMES.iter().enumerate() {
        let w = workload(name, 0).expect("NAMES lists every workload");
        let comma = if i + 1 < NAMES.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better.token(),
            d.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.token()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// `"name": {"value": v, "unit": "u"}` for every value, comma-separated.
pub fn metrics_json(values: &[Value]) -> String {
    values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.def.name, v.value, v.def.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The driver's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics_json(values)
    )
}

/// One text line per value: name, value, unit, direction, bound (for
/// end-to-end metrics), sample count.
pub fn table(values: &[Value]) -> String {
    let mut s = String::new();
    for v in values {
        let bound = if v.def.bound > 0.0 {
            format!("bound {:>5.1}%", v.def.bound * 100.0)
        } else {
            String::new()
        };
        let _ = writeln!(
            s,
            "  {:<26} {:>16.4} {:<12} {:<6} {bound:<12} n={}",
            v.def.name,
            v.value,
            v.def.unit,
            v.def.better.token(),
            v.samples
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's limits on names and units.
    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn schema_names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name, 64, "_.-"), "bad name {}", d.name);
            assert!(
                name_ok(d.unit, 16, "_/%.-"),
                "bad unit {} of {}",
                d.unit,
                d.name
            );
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for name in NAMES {
            assert!(name_ok(name, 64, "_.-") && seen.insert(name));
            assert!(workload(name, 0).unwrap().why.len() <= 200);
        }
        for d in &END_TO_END {
            assert!(
                d.bound > 0.0 && d.bound <= 0.25,
                "{} bound {}",
                d.name,
                d.bound
            );
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let vals = values(
            &END_TO_END[..2],
            &[("states_per_s", 2048.5, 6), ("ttfb_ms", 1.25, 15)],
        );
        assert_eq!(
            result_line(true, 15, 0, &vals),
            "{\"correct\": true, \"attempted\": 15, \"failed\": 0, \"metrics\": \
             {\"ttfb_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"states_per_s\": {\"value\": 2048.5, \"unit\": \"states/s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_schema_metric_left_unmeasured_is_a_bug() {
        values(&END_TO_END[..2], &[("ttfb_ms", 1.0, 1)]);
    }
}
