//! Integration tests for the parallel analysis pipeline: deterministic
//! batch ordering, artifact-cache reuse, and agreement between the batch
//! and single-run paths.

use gpa::arch::LaunchConfig;
use gpa::kernels::KernelSpec;
use gpa::pipeline::{AnalysisJob, Session};
use std::sync::Arc;

fn jobs3() -> Vec<AnalysisJob> {
    vec![
        AnalysisJob::new("rodinia/hotspot", 0),
        AnalysisJob::new("rodinia/gaussian", 0),
        AnalysisJob::new("rodinia/nw", 0),
    ]
}

#[test]
fn batch_results_follow_job_order() {
    let session = Session::test();
    let jobs = jobs3();
    let outcomes = session.run_batch(&jobs);
    assert_eq!(outcomes.len(), jobs.len());
    for (job, out) in jobs.iter().zip(&outcomes) {
        let out = out.as_ref().expect("app runs");
        assert_eq!(&out.job, job, "result {job} in input position");
        assert!(out.profile.total_samples > 0, "{job} sampled");
        assert!(out.cycles > 0);
    }
}

#[test]
fn batch_is_deterministic_across_runs() {
    let session = Session::test();
    let jobs = jobs3();
    let first = session.run_batch(&jobs);
    let second = session.run_batch(&jobs);
    for (a, b) in first.iter().zip(&second) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.profile, b.profile, "identical profiles run to run");
        assert_eq!(a.report, b.report, "identical advice run to run");
    }
}

#[test]
fn repeated_modules_share_one_cached_artifact() {
    let session = Session::test();
    // The same app/variant three times plus one distinct app.
    let jobs = vec![
        AnalysisJob::new("rodinia/kmeans", 0),
        AnalysisJob::new("rodinia/kmeans", 0),
        AnalysisJob::new("rodinia/sradv1", 0),
        AnalysisJob::new("rodinia/kmeans", 0),
    ];
    let outcomes: Vec<_> = session.run_batch(&jobs).into_iter().map(|r| r.expect("runs")).collect();
    assert!(Arc::ptr_eq(&outcomes[0].artifacts, &outcomes[1].artifacts), "same module built once");
    assert!(Arc::ptr_eq(&outcomes[0].artifacts, &outcomes[3].artifacts));
    assert!(!Arc::ptr_eq(&outcomes[0].artifacts, &outcomes[2].artifacts));
    assert_eq!(session.cached_modules(), 2, "two distinct modules in the cache");
}

#[test]
fn batch_agrees_with_single_run_and_serial_paths() {
    let session = Session::test();
    let jobs = jobs3();
    let batch = session.run_batch(&jobs);
    let serial: Vec<_> = jobs.iter().map(|job| session.run_one(job)).collect();
    for (job, (b, s)) in jobs.iter().zip(batch.iter().zip(&serial)) {
        let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
        let single = session.run_one(job).expect("single path runs");
        assert_eq!(b.cycles, single.cycles, "{job}: batch cycles == single-run cycles");
        assert_eq!(b.profile, single.profile, "{job}: identical profile");
        assert_eq!(b.report, single.report, "{job}: identical advice");
        assert_eq!(s.cycles, single.cycles, "{job}: serial batch agrees too");
    }
}

#[test]
fn faults_are_isolated_to_their_job() {
    let session = Session::test();
    let jobs = vec![
        AnalysisJob::new("rodinia/hotspot", 0),
        AnalysisJob::new("no/such-app", 0),
        AnalysisJob::new("rodinia/nw", 0),
    ];
    let results = session.run_batch(&jobs);
    assert!(results[0].is_ok());
    let err = results[1].as_ref().unwrap_err();
    assert_eq!(err.job, jobs[1]);
    assert!(err.message.contains("unknown app"));
    assert!(results[2].is_ok(), "later jobs unaffected by the fault");
}

#[test]
fn outcome_json_is_machine_readable() {
    let session = Session::test();
    let out = session.run_one(&AnalysisJob::new("rodinia/hotspot", 0)).expect("runs");
    let doc = gpa::json::Json::parse(&out.to_json().pretty()).expect("round-trips");
    assert_eq!(doc.field("app").unwrap().as_str().unwrap(), "rodinia/hotspot");
    assert_eq!(doc.field("cycles").unwrap().as_u64().unwrap(), out.cycles);
    let advice = doc.field("advice").unwrap().as_array().unwrap();
    assert_eq!(advice.len(), out.report.items.len());
    if let Some(first) = advice.first() {
        assert_eq!(first.field("rank").unwrap().as_u64().unwrap(), 1);
    }
}

/// Sampling never changes timing: Table 3's "achieved" column divides a
/// sampled run's cycles by an unsampled one's, so for every registry
/// variant under both memory models the unsampled timer must equal the
/// sampled run's ground truth — and the same holds for a hand-written
/// spec outside the registry.
#[test]
fn unsampled_timing_equals_the_sampled_runs_cycles() {
    for (model, session) in
        [("flat", Session::test()), ("hierarchy", Session::test().with_hierarchy())]
    {
        for job in session.jobs_for_all_variants() {
            let sampled = session.run_one(&job).expect("registry job runs").cycles;
            assert_eq!(session.time_one(&job).unwrap(), sampled, "{job} ({model})");
        }
    }
    let spec = || KernelSpec {
        module: gpa::isa::parse_module(
            r#"
.module handwritten
.kernel k
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  LDG.E.32 R4, [R2:R3] {W:B1, S:1}
  IADD R5, R4, 1 {WT:[B1], S:4}
  STG.E.32 [R2:R3], R5 {R:B2, S:1}
  EXIT {WT:[B2], S:1}
.endfunc
"#,
        )
        .unwrap(),
        entry: "k".into(),
        launch: LaunchConfig::new(4, 64),
        setup: Box::new(|gpu| gpu.global_mut().alloc(4 * 256).to_le_bytes().to_vec()),
        const_bank1: None,
    };
    let session = Session::test();
    let sampled = session.analyze_spec(spec()).unwrap();
    assert!(sampled.profile.total_samples > 0, "the spec was sampled");
    assert_eq!(session.time_spec(&spec()).unwrap(), sampled.cycles);
}
