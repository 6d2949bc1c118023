//! The metric names, units and directions `BENCHMARK.json` declares,
//! and the result line the driver reads. A test keeps the two in step.

use crate::stats::sanitise;
use gpa_json::Json;
use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound: None }
}

/// The five end-to-end metrics, the same on every workload, each with
/// the bound its own measured spread asks for (README, "Calibration").
/// One bound serves all four workloads, so the least steady one sets it.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded =
        |name, unit, better, bound| MetricDef { bound: Some(bound), ..def(name, unit, better) };
    // The contract's maximum: ten identical runs of a workload spread by
    // 2–7 % while the host is quiet and by 13–26 % during its noisy
    // phases, which no statistic taken inside a run cancels.
    const TIMING: f64 = 0.25;
    vec![
        bounded("op_ms_p50", "ms", "lower", TIMING),
        bounded("ops_per_s", "1/s", "higher", TIMING),
        bounded("cpu_ms_per_op", "ms", "lower", TIMING),
        // Host speed does not move it: spreads of 1–3 % in either phase.
        bounded("peak_rss_mb", "MB", "lower", 0.10),
        bounded("setup_s", "s", "lower", TIMING),
    ]
}

/// Counts that must repeat bit for bit between two runs of one binary,
/// whatever the seed: `selfcheck` compares them against zero difference.
pub const EXACT: [&str; 15] = [
    "sim.cycles",
    "sim.winst",
    "sim.mem_transactions",
    "sim.samples",
    "sampling.pcs",
    "sampling.profile_bytes",
    "core.blame_edges",
    "core.advice_items",
    "core.table3_err_pct",
    "core.table3_top5_hits",
    "serve.store_hits",
    "serve.store_misses",
    "serve.store_evictions",
    "serve.byte_sheds",
    "serve.body_bytes",
];

/// The per-layer metric of one app's sampled launch.
pub fn launch_metric(app: &str) -> String {
    format!("sim.launch_ms.{}", sanitise(app))
}

/// Every per-layer metric a traced run prints, grouped by crate. A
/// layer the workload leaves idle reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("kernels.build_ms", "ms", "lower"),
        def("kernels.mem_init_ms", "ms", "lower"),
        def("structure.build_ms", "ms", "lower"),
        def("sim.compile_ms", "ms", "lower"),
        def("sim.mem_clone_ms", "ms", "lower"),
        def("sim.launch_unsampled_ms", "ms", "lower"),
        def("sim.launch_sampled_ms", "ms", "lower"),
        def("sim.sample_overhead_ms", "ms", "lower"),
        def("sim.cycles", "count", "lower"),
        def("sim.winst", "count", "lower"),
        def("sim.mem_transactions", "count", "lower"),
        def("sim.samples", "count", "higher"),
        def("sim.host_ns_per_cycle", "ns/cycle", "lower"),
        def("sim.winst_per_s", "1/s", "higher"),
    ];
    defs.extend(
        gpa_kernels::all_apps().iter().map(|app| def(&launch_metric(app.name), "ms", "lower")),
    );
    defs.extend([
        def("sampling.aggregate_ms", "ms", "lower"),
        def("sampling.from_json_ms", "ms", "lower"),
        def("sampling.to_json_ms", "ms", "lower"),
        def("sampling.pcs", "count", "lower"),
        def("sampling.profile_bytes", "B", "lower"),
        def("json.parse_ms", "ms", "lower"),
        def("json.compact_ms", "ms", "lower"),
        def("core.blame_ms", "ms", "lower"),
        def("core.advise_ms", "ms", "lower"),
        def("core.match_estimate_ms", "ms", "lower"),
        def("core.render_ms", "ms", "lower"),
        def("core.blame_edges", "count", "lower"),
        def("core.advice_items", "count", "higher"),
        def("core.table3_err_pct", "%", "lower"),
        def("core.table3_top5_hits", "count", "higher"),
        def("pipeline.run_one_ms", "ms", "lower"),
        def("pipeline.artifacts_hit_us", "us", "lower"),
        def("pipeline.unaccounted_ms", "ms", "lower"),
        def("serve.parse_us", "us", "lower"),
        def("serve.cache_key_us", "us", "lower"),
        def("serve.route_us", "us", "lower"),
        def("serve.store_get_hit_us", "us", "lower"),
        def("serve.store_get_miss_us", "us", "lower"),
        def("serve.store_insert_us", "us", "lower"),
        def("serve.frame_us", "us", "lower"),
        def("serve.connect_us", "us", "lower"),
        def("serve.daemon_overhead_ms", "ms", "lower"),
        def("serve.persistent_req_us_p50", "us", "lower"),
        def("serve.op_ms_tail", "ms", "lower"),
        def("serve.op_tail_pct", "%", "higher"),
        def("serve.store_hits", "count", "higher"),
        def("serve.store_misses", "count", "lower"),
        def("serve.store_evictions", "count", "lower"),
        def("serve.accepted", "count", "lower"),
        def("serve.buffer_reuses", "count", "higher"),
        def("serve.byte_sheds", "count", "lower"),
        def("serve.body_bytes", "B", "lower"),
        def("trace.ops", "count", "higher"),
        def("trace.coverage", "ratio", "higher"),
        def("trace.overhead_pct", "%", "lower"),
    ]);
    defs
}

/// What one run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// The result line: every declared metric by name with its unit (an
    /// idle layer's as 0), and nothing undeclared.
    pub fn to_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        if let Some(stray) = self.values.keys().find(|k| defs.iter().all(|d| &d.name != *k)) {
            return Err(format!("metric `{stray}` is measured but not declared"));
        }
        let metrics = defs.iter().fold(Json::object(), |doc, d| {
            let value = self.values.get(&d.name).copied().unwrap_or(0.0);
            doc.with(&d.name, Json::object().with("value", value).with("unit", d.unit))
        });
        Ok(Json::object()
            .with("correct", self.failed == 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    type Declared = (String, String, String, Option<f64>);

    fn declared(doc: &Json, key: &str) -> Vec<Declared> {
        doc.field(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| m.field(k).unwrap().as_str().unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").map(|b| b.as_f64().unwrap()),
                )
            })
            .collect()
    }

    fn as_declared(defs: &[MetricDef]) -> Vec<Declared> {
        defs.iter()
            .map(|d| (d.name.clone(), d.unit.to_string(), d.better.to_string(), d.bound))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), as_declared(&end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), as_declared(&per_layer()));
        let workloads: Vec<_> = doc
            .field("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(
            doc.field("run_seconds").unwrap().as_u64().unwrap() as f64,
            crate::NOMINAL_SECONDS
        );
    }

    #[test]
    fn names_are_unique_short_and_in_the_allowed_alphabet() {
        let defs: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        for (i, d) in defs.iter().enumerate() {
            assert!(d.name.len() <= 64 && sanitise(&d.name) == d.name, "{}", d.name);
            assert!(defs[..i].iter().all(|e| e.name != d.name), "{} twice", d.name);
            assert!(d.unit.len() <= 16);
        }
        assert!(per_layer().iter().any(|d| d.name == "sim.launch_ms.rodinia_b_tree"));
        for name in EXACT {
            assert!(per_layer().iter().any(|d| d.name == name), "{name}");
        }
    }

    #[test]
    fn the_result_line_rejects_undeclared_metrics_and_zero_fills_idle_ones() {
        let mut report = Report { attempted: 3, failed: 0, values: BTreeMap::new() };
        report.values.insert("op_ms_p50".to_string(), 1.25);
        let line = report.to_line(&end_to_end()).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"), "{line}");
        assert!(line.contains("\"op_ms_p50\":{\"value\":1.25,\"unit\":\"ms\"}"), "{line}");
        assert!(line.contains("\"setup_s\":{\"value\":0.0,\"unit\":\"s\"}"), "{line}");
        report.values.insert("nope".to_string(), 1.0);
        assert!(report.to_line(&end_to_end()).is_err());
    }
}
