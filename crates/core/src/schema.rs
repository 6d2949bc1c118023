//! Machine-readable advice schema **v2** — the one writer of an
//! [`AdviceReport`] as a [`gpa_json`] document.
//!
//! The schema is a stable contract for programmatic consumers (the serve
//! protocol, report diffing, batched clients), which read the JSON, not
//! this crate's types: every document carries `schema_version`, optional
//! values are explicit `null`s (fields are never omitted), enums
//! serialize as fixed slugs, and field order is fixed — so the written
//! text re-parses ([`Json::parse`]) and compacts to itself byte for byte.
//! `docs/advice-schema.md` specifies the layout field by field, the
//! versioning policy, and the v1→v2 mapping.

use crate::advisor::{
    AdviceItem, AdviceReport, EstimatorInputs, HotspotReport, LocationReport, RegionReport,
};
use crate::estimators::ParallelParams;
use gpa_json::{Compact, Json, Writer};

/// Renders a report as its schema-v2 JSON document (compact text; a
/// caller that wants the tree takes [`Compact::tree`]).
pub fn report_to_json(report: &AdviceReport) -> Compact {
    let mut w = Writer::default();
    write_report(&mut w, report);
    w.finish()
}

/// Writes a report's schema-v2 document as the writer's next value — the
/// one renderer of the document, whether it stands alone
/// ([`report_to_json`]) or sits inside a response body.
pub fn write_report(w: &mut Writer, report: &AdviceReport) {
    w.object(|w| {
        w.field("schema_version", report.schema_version)
            .field("kernel", &report.kernel)
            .field("total_samples", report.total_samples)
            .field("active_samples", report.active_samples)
            .field("latency_samples", report.latency_samples);
        w.key("stall_histogram").array(&report.stall_histogram, |w, (reason, samples)| {
            w.object(|w| {
                w.field("reason", reason).field("samples", samples);
            });
        });
        w.key("items").array(&report.items, write_item);
    });
}

fn write_item(w: &mut Writer, item: &AdviceItem) {
    w.object(|w| {
        w.field("id", item.id.slug())
            .field("optimizer", item.id.name())
            .field("category", item.category.slug())
            .field("matched_ratio", item.matched_ratio)
            .field("estimated_speedup", item.estimated_speedup);
        w.key("estimator");
        write_estimator(w, &item.estimator);
        w.key("hints").array(&item.hints, |w, hint| {
            w.object(|w| {
                w.field("kind", hint.kind.slug()).field("text", &hint.text);
            });
        });
        w.key("hotspots").array(&item.hotspots, write_hotspot);
    });
}

fn write_estimator(w: &mut Writer, estimator: &EstimatorInputs) {
    w.object(|w| match estimator {
        EstimatorInputs::StallElimination { total, matched } => {
            w.field("kind", "stall-elimination").field("total", total).field("matched", matched);
        }
        EstimatorInputs::LatencyHiding { total, active, matched_latency, scopes } => {
            w.field("kind", "latency-hiding")
                .field("total", total)
                .field("active", active)
                .field("matched_latency", matched_latency)
                .field("scopes", scopes);
        }
        EstimatorInputs::Parallel { issue_ratio, params } => {
            w.field("kind", "parallel").field("issue_ratio", issue_ratio).key("params");
            match params {
                Some(p) => write_params(w, p),
                None => {
                    w.value(Json::Null);
                }
            }
        }
        EstimatorInputs::ResidualElimination { total, matched, residual } => {
            w.field("kind", "residual-elimination")
                .field("total", total)
                .field("matched", matched)
                .field("residual", residual);
        }
    });
}

fn write_params(w: &mut Writer, p: &ParallelParams) {
    w.object(|w| {
        w.field("w_old", p.w_old)
            .field("w_new", p.w_new)
            .field("busy_sms_old", p.busy_sms_old)
            .field("busy_sms_new", p.busy_sms_new)
            .field("lane_eff_old", p.lane_eff_old)
            .field("lane_eff_new", p.lane_eff_new)
            .field("factor", p.factor);
    });
}

fn write_hotspot(w: &mut Writer, h: &HotspotReport) {
    w.object(|w| {
        w.field("ratio", h.ratio).field("speedup", h.speedup).field("distance", h.distance);
        w.key("def");
        match &h.def {
            Some(loc) => write_location(w, loc),
            None => {
                w.value(Json::Null);
            }
        }
        w.key("use");
        write_location(w, &h.use_);
        w.key("region");
        write_region(w, &h.region);
    });
}

fn write_location(w: &mut Writer, loc: &LocationReport) {
    w.object(|w| {
        w.field("pc", loc.pc)
            .field("function", &loc.function)
            .field("file", &loc.file)
            .field("line", loc.line)
            .field("scope", &loc.scope);
    });
}

fn write_region(w: &mut Writer, r: &RegionReport) {
    w.object(|w| {
        w.field("function", &r.function)
            .field("pc_begin", r.pc_begin)
            .field("pc_end", r.pc_end)
            .field("file", &r.file)
            .field("line_begin", r.line_begin)
            .field("line_end", r.line_end)
            .field("scope", &r.scope);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::SCHEMA_VERSION;
    use crate::optimizers::{Hint, OptimizerCategory, OptimizerId};

    fn sample_report() -> AdviceReport {
        AdviceReport {
            schema_version: SCHEMA_VERSION,
            kernel: "k".to_string(),
            total_samples: 1000,
            active_samples: 400,
            latency_samples: 600,
            stall_histogram: vec![("exec_dependency".to_string(), 600)],
            items: vec![
                AdviceItem {
                    id: OptimizerId::StrengthReduction,
                    category: OptimizerCategory::StallElimination,
                    matched_ratio: 0.25,
                    estimated_speedup: 1.5,
                    estimator: EstimatorInputs::StallElimination { total: 1000.0, matched: 250.0 },
                    hints: vec![Hint::guidance("avoid division"), Hint::finding("64 edges")],
                    hotspots: vec![HotspotReport {
                        def: Some(LocationReport {
                            pc: 16,
                            function: "k".to_string(),
                            file: Some("k.cu".to_string()),
                            line: Some(3),
                            scope: "Loop at k.cu:2 in k".to_string(),
                        }),
                        use_: LocationReport {
                            pc: 32,
                            function: "k".to_string(),
                            file: None,
                            line: None,
                            scope: String::new(),
                        },
                        region: RegionReport {
                            function: "k".to_string(),
                            pc_begin: 0,
                            pc_end: 128,
                            file: Some("k.cu".to_string()),
                            line_begin: Some(1),
                            line_end: Some(9),
                            scope: "Loop at k.cu:2 in k".to_string(),
                        },
                        ratio: 0.1,
                        speedup: 1.11,
                        distance: Some(1),
                    }],
                },
                AdviceItem {
                    id: OptimizerId::BlockIncrease,
                    category: OptimizerCategory::Parallel,
                    matched_ratio: 0.0,
                    estimated_speedup: 1.2,
                    estimator: EstimatorInputs::Parallel {
                        issue_ratio: 0.4,
                        params: Some(ParallelParams {
                            w_old: 8.0,
                            w_new: 4.0,
                            busy_sms_old: 16.0,
                            busy_sms_new: 32.0,
                            lane_eff_old: 1.0,
                            lane_eff_new: 0.5,
                            factor: 1.25,
                        }),
                    },
                    hints: vec![Hint::guidance("split blocks")],
                    hotspots: vec![],
                },
                AdviceItem {
                    id: OptimizerId::MemoryCoalescing,
                    category: OptimizerCategory::StallElimination,
                    matched_ratio: 0.3,
                    estimated_speedup: 1.29,
                    estimator: EstimatorInputs::ResidualElimination {
                        total: 1000.0,
                        matched: 300.0,
                        residual: 0.25,
                    },
                    hints: vec![Hint::guidance("coalesce warp accesses")],
                    hotspots: vec![],
                },
            ],
        }
    }

    #[test]
    fn v2_round_trips_byte_identically() {
        let text = report_to_json(&sample_report()).compact();
        assert_eq!(Json::parse(&text).unwrap().compact(), text, "byte identity");
    }
}
