//! The advisor API contract: the Table 2 catalog, per-call requests, and
//! the versioned v2 advice schema.
//!
//! The acceptance bar: default-option v2 reports re-parse from their
//! `gpa-json` text byte-identically and rank exactly like the classic
//! `advise` output for **all 21 registry apps**, every [`AdviceRequest`]
//! knob provably narrows the default report, and a custom catalog row
//! decides its id's item.

use gpa::core::{
    schema, AdviceRequest, Advisor, AnalysisCtx, Estimator, EstimatorInputs, MatchResult,
    Optimizer, OptimizerCategory, OptimizerId, SCHEMA_VERSION, TABLE2,
};
use gpa::json::Json;
use gpa::pipeline::{AnalysisJob, Session};

#[test]
fn default_v2_rankings_match_classic_advise_for_all_apps() {
    let session = Session::test();
    let jobs = session.jobs_for_all_apps();
    assert_eq!(jobs.len(), 21);
    let results = session.run_batch(&jobs);
    let mut nonempty = 0;
    for (job, result) in jobs.iter().zip(&results) {
        let out = result.as_ref().unwrap_or_else(|e| panic!("{job}: {e}"));
        let report = &out.report;
        assert_eq!(report.schema_version, SCHEMA_VERSION, "{job}");
        nonempty += usize::from(!report.items.is_empty());

        // The explicit-request path with default options is the same
        // analysis.
        let again = session.run_one_request(job, &AdviceRequest::default()).unwrap();
        assert_eq!(again.report, *report, "{job}: explicit default request differs");

        // Ranking is deterministic: strictly ordered by (speedup desc,
        // id asc) — the v1 summary order IS the v2 item order.
        for pair in report.items.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.estimated_speedup > b.estimated_speedup
                    || (a.estimated_speedup == b.estimated_speedup && a.id < b.id),
                "{job}: ranking violation between {} and {}",
                a.id,
                b.id
            );
        }
        let v1 = out.to_json();
        let v1_names: Vec<String> = v1
            .field("advice")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|i| i.field("optimizer").unwrap().as_str().unwrap().to_string())
            .collect();
        let v2_names: Vec<String> =
            report.items.iter().map(|i| i.optimizer().to_string()).collect();
        assert_eq!(v1_names, v2_names, "{job}: v1 summary and v2 report disagree on ranking");

        // The v2 text re-parses and compacts to itself.
        let compact = schema::report_to_json(report).compact();
        let reparsed = Json::parse(&compact).unwrap_or_else(|e| panic!("{job}: {e}"));
        assert_eq!(reparsed.compact(), compact, "{job}: byte identity");

        // Every item carries consistent typed identity and estimator
        // inputs matching its category.
        for item in &report.items {
            assert_eq!(item.category, item.id.category(), "{job}");
            match (&item.estimator, item.category) {
                (EstimatorInputs::StallElimination { .. }, OptimizerCategory::StallElimination)
                | (EstimatorInputs::LatencyHiding { .. }, OptimizerCategory::LatencyHiding)
                | (EstimatorInputs::Parallel { .. }, OptimizerCategory::Parallel) => {}
                (est, cat) => panic!("{job}: estimator {est:?} does not match category {cat}"),
            }
            assert!(!item.hints.is_empty(), "{job}: every optimizer ships guidance");
        }
    }
    assert!(nonempty >= 15, "most apps produce advice ({nonempty}/21)");
}

#[test]
fn advice_request_knobs_narrow_the_report() {
    let session = Session::test();
    let job = AnalysisJob::new("rodinia/hotspot", 0);
    let full = session.run_one(&job).unwrap().report;
    assert!(full.items.len() >= 2, "hotspot yields a rich report");

    // top-k truncates after ranking.
    let top1 = session.run_one_request(&job, &AdviceRequest::default().with_top(1)).unwrap().report;
    assert_eq!(top1.items.len(), 1);
    assert_eq!(top1.items[0], full.items[0], "top-1 is the full report's best item");

    // Category filter keeps only that family, ranked as before.
    let stall = AdviceRequest::default().with_category(OptimizerCategory::StallElimination);
    let stall_report = session.run_one_request(&job, &stall).unwrap().report;
    assert!(!stall_report.items.is_empty());
    assert!(stall_report.items.iter().all(|i| i.category == OptimizerCategory::StallElimination));
    let expected: Vec<OptimizerId> = full
        .items
        .iter()
        .filter(|i| i.category == OptimizerCategory::StallElimination)
        .map(|i| i.id)
        .collect();
    assert_eq!(stall_report.items.iter().map(|i| i.id).collect::<Vec<_>>(), expected);

    // Optimizer filter pins a single id.
    let only = AdviceRequest::default().with_optimizers(&[full.items[0].id]);
    let one = session.run_one_request(&job, &only).unwrap().report;
    assert_eq!(one.items.len(), 1);
    assert_eq!(one.items[0].id, full.items[0].id);

    // min-speedup raises the bar.
    let bar = full.items[0].estimated_speedup;
    let strict = session
        .run_one_request(&job, &AdviceRequest::default().with_min_speedup(bar))
        .unwrap()
        .report;
    assert!(strict.items.iter().all(|i| i.estimated_speedup >= bar));
    assert!(strict.items.len() < full.items.len(), "the bar prunes something");

    // Hotspot budget caps evidence size; evidence=false removes it.
    let budget =
        session.run_one_request(&job, &AdviceRequest::default().with_hotspots(1)).unwrap().report;
    assert!(budget.items.iter().all(|i| i.hotspots.len() <= 1));
    let summary = session
        .run_one_request(&job, &AdviceRequest::default().with_evidence(false))
        .unwrap()
        .report;
    assert!(summary.items.iter().all(|i| i.hotspots.is_empty()));
    // ... without disturbing ranking or estimates.
    assert_eq!(
        summary.items.iter().map(|i| (i.id, i.estimated_speedup)).collect::<Vec<_>>(),
        full.items.iter().map(|i| (i.id, i.estimated_speedup)).collect::<Vec<_>>()
    );
}

#[test]
fn custom_registry_composition_flows_through_the_session() {
    let session = Session::test();
    let two = AdviceRequest::default()
        .with_optimizers(&[OptimizerId::ThreadIncrease, OptimizerId::BlockIncrease]);
    let report =
        session.run_one_request(&AnalysisJob::new("rodinia/gaussian", 0), &two).unwrap().report;
    assert!(!report.items.is_empty(), "gaussian's tiny blocks match a parallel optimizer");
    assert!(report.items.iter().all(|i| i.category == OptimizerCategory::Parallel));
    assert!(report.item(OptimizerId::ThreadIncrease).is_some());
}

/// The paper's "users can add custom optimizers": a row put in its id's
/// slot with [`Advisor::with_row`] decides that id's item, both ways.
#[test]
fn a_custom_row_reaches_the_report() {
    fn always(ctx: &AnalysisCtx<'_>) -> MatchResult {
        MatchResult { matched: ctx.total_samples() / 2.0, ..MatchResult::default() }
    }
    fn never(_: &AnalysisCtx<'_>) -> MatchResult {
        MatchResult::default()
    }
    let session = Session::test();
    let job = AnalysisJob::new("rodinia/hotspot", 0);
    let (artifacts, profile, _) = session.profile_one(&job).unwrap();
    let (module, structure) = (&artifacts.spec.module, &artifacts.structure);
    let (latency, arch, request) = (session.latency(), session.arch(), AdviceRequest::default());
    let advise = |advisor: Advisor| {
        advisor.advise_request(module, structure, latency, &profile, arch, &request)
    };
    let builtin = advise(Advisor::new());
    assert_eq!(builtin, session.advise_profile(&job, &profile).unwrap(), "the session's catalog");

    // A slot the built-in row leaves empty on hotspot gains an item.
    let silent = OptimizerId::ALL.into_iter().find(|id| builtin.item(*id).is_none()).unwrap();
    let row = Optimizer {
        rule: always,
        estimator: Estimator::StallElimination,
        ..TABLE2[silent as usize]
    };
    let added = advise(Advisor::new().with_row(row)).item(silent).cloned().expect("custom item");
    assert_eq!(added.estimated_speedup, 2.0, "Eq. 2 on half the samples");

    // A slot the built-in row fills loses its item; the others stay.
    let top = builtin.items[0].id;
    let row = Optimizer { rule: never, ..TABLE2[top as usize] };
    let removed = advise(Advisor::new().with_row(row));
    assert!(removed.item(top).is_none(), "{top} no longer matches");
    assert_eq!(removed.items[..], builtin.items[1..]);
}

#[test]
fn hotspot_evidence_carries_source_regions() {
    let session = Session::test();
    let report = session.run_one(&AnalysisJob::new("rodinia/hotspot", 0)).unwrap().report;
    let with_evidence: Vec<_> = report.items.iter().filter(|i| !i.hotspots.is_empty()).collect();
    assert!(!with_evidence.is_empty());
    for item in with_evidence {
        for h in &item.hotspots {
            let r = &h.region;
            assert!(r.pc_begin < r.pc_end, "{}: region is a nonempty PC range", item.id);
            assert!(
                h.use_.pc >= r.pc_begin && h.use_.pc < r.pc_end,
                "{}: the stalled PC lies inside its region",
                item.id
            );
            assert!(!r.function.is_empty());
            if let (Some(b), Some(e)) = (r.line_begin, r.line_end) {
                assert!(b <= e, "{}: line range ordered", item.id);
            }
        }
    }
}
