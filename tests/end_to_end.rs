//! Cross-crate integration tests: profile → blame → advise pipelines with
//! known ground truth.

use gpa::arch::{ArchConfig, LatencyTable, LaunchConfig};
use gpa::core::blamer::single_dependency_coverage;
use gpa::core::{report, Advisor, DetailedReason, ModuleBlame, OptimizerId};
use gpa::kernels::{apps, Params};
use gpa::pipeline::Session;
use gpa::sampling::{Profiler, StallReason};
use gpa::sim::{GpuSim, SimConfig};
use gpa::structure::ProgramStructure;

fn small_profiler(sms: u32) -> Profiler {
    let cfg = SimConfig { sampling_period: 61, ..SimConfig::default() };
    Profiler::new(GpuSim::new(ArchConfig::small(sms), cfg))
}

#[test]
fn memory_dependency_blamed_to_the_load() {
    // A kernel with one global load feeding one consumer: blame must land
    // on the LDG, classified as a global-memory dependency.
    let module = gpa::isa::parse_module(
        r#"
.module t
.kernel k
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  MOV32I R6, 0 {S:1}
loop:
  LDG.E.32 R4, [R2:R3] {W:B1, S:1}
  IADD R5, R5, R4 {WT:[B1], S:4}
  IADD R2:R3, R2:R3, 256 {S:2}
  IADD R6, R6, 1 {S:4}
  ISETP.LT.AND P0, R6, 32 {S:2}
  @P0 BRA loop {S:5}
  STG.E.32 [R2:R3], R5 {R:B2, S:1}
  EXIT {WT:[B2], S:1}
.endfunc
"#,
    )
    .unwrap();
    let mut prof = small_profiler(1);
    let buf = prof.gpu_mut().global_mut().alloc(4 * 64 * 256);
    let params: Vec<u8> = buf.to_le_bytes().to_vec();
    let prog = prof.gpu().compile(&module, "k").unwrap();
    let (profile, _) = prof.profile_compiled(&prog, &LaunchConfig::new(1, 64), &params, 1).unwrap();
    assert!(profile.stall_histogram()[StallReason::MemoryDependency.code() as usize] > 0);

    let arch = ArchConfig::small(1);
    let structure = ProgramStructure::build(&module);
    let blame = ModuleBlame::build(&module, &structure, &profile, &LatencyTable::for_arch(&arch));
    let totals = blame.totals_by_detail();
    let global = totals.get(&DetailedReason::GlobalMem).map_or(0.0, |t| t.0);
    assert!(global > 0.0, "global-memory blame found: {totals:?}");
    // The LDG (index 6) must be the blamed def for the IADD (index 7).
    let edge =
        blame.edges().find(|(_, e)| e.detail == DetailedReason::GlobalMem).expect("a global edge");
    assert_eq!(edge.1.def, 6);
    assert_eq!(edge.1.use_, 7);
    assert_eq!(edge.1.distance, 1, "adjacent def and use");

    // Coverage: every stalled node has a single source here.
    let cov = single_dependency_coverage(&blame);
    assert!(cov.after >= cov.before);
    assert!(cov.after > 0.9, "single-source kernel: {cov:?}");
}

#[test]
fn advisor_ranks_the_right_optimizer_for_hotspot() {
    let session = Session::test();
    let spec = (apps::hotspot::app().build)(0, session.params());
    let run = session.analyze_spec(spec).unwrap();
    let advice = Advisor::new().advise(&run.artifacts.spec.module, &run.profile, session.arch());
    let rank = advice.rank_of(OptimizerId::StrengthReduction);
    assert!(rank.is_some_and(|r| r <= 5), "strength reduction in top 5, got {rank:?}");
    let item = advice.item(OptimizerId::StrengthReduction).unwrap();
    assert!(item.estimated_speedup > 1.0);
    assert!(item.estimated_speedup <= 2.0, "stall elimination bounded here");
    assert!(!item.hotspots.is_empty(), "hotspots reported");
    // The rendered report names the optimizer and the source file.
    let text = report::render(&advice, 5);
    assert!(text.contains("GPUStrengthReductionOptimizer"));
    assert!(text.contains("hotspot.cu"));
}

#[test]
fn thread_increase_suggested_and_real_for_gaussian() {
    let session = Session::test();
    let app = apps::gaussian::app();
    let run = session.analyze_spec((app.build)(0, session.params())).unwrap();
    let advice = Advisor::new().advise(&run.artifacts.spec.module, &run.profile, session.arch());
    let item = advice.item(OptimizerId::ThreadIncrease).expect("matches tiny blocks");
    assert!(item.estimated_speedup > 1.2, "got {}", item.estimated_speedup);
    let opt_cycles = session.time_spec(&(app.build)(1, session.params())).unwrap();
    let achieved = run.cycles as f64 / opt_cycles as f64;
    assert!(achieved > 1.2, "bigger blocks actually help: {achieved:.2}");
}

#[test]
fn warp_balance_matches_sync_stalls() {
    let session = Session::test();
    let run = session.analyze_spec((apps::nw::app().build)(0, session.params())).unwrap();
    let hist = run.profile.stall_histogram();
    assert!(
        hist[StallReason::Synchronization.code() as usize] > 0,
        "the serial wavefront stalls at barriers"
    );
    let advice = Advisor::new().advise(&run.artifacts.spec.module, &run.profile, session.arch());
    let rank = advice.rank_of(OptimizerId::WarpBalance);
    assert!(rank.is_some_and(|r| r <= 3), "warp balance ranks high: {rank:?}");
}

#[test]
fn profiles_round_trip_through_disk() {
    let spec = (apps::kmeans::app().build)(0, &Params::test());
    let run = Session::test().analyze_spec(spec).unwrap();
    let dir = std::env::temp_dir().join("gpa_test_profile.json");
    run.profile.save(&dir).unwrap();
    let loaded = gpa::sampling::KernelProfile::load(&dir).unwrap();
    assert_eq!(loaded, run.profile);
    std::fs::remove_file(&dir).ok();
}

#[test]
fn table3_smoke_subset() {
    // A fast subset of the Table 3 pipeline: baseline slower than (or
    // equal to) optimized, and the expected optimizer matched.
    let session = Session::test();
    let p = session.params();
    for app in [apps::cfd::app(), apps::quicksilver::app()] {
        for (k, stage) in app.stages.iter().enumerate() {
            let run = session.analyze_spec((app.build)(k, p)).unwrap();
            let opt_cycles = session.time_spec(&(app.build)(k + 1, p)).unwrap();
            let achieved = run.cycles as f64 / opt_cycles as f64;
            assert!(achieved > 0.9, "{} stage {k} must not regress badly: {achieved:.2}", app.name);
            let module = &run.artifacts.spec.module;
            let advice = Advisor::new().advise(module, &run.profile, session.arch());
            assert!(
                advice.rank_of_named(stage.optimizer).is_some(),
                "{} stage {k}: {} should match",
                app.name,
                stage.optimizer
            );
        }
    }
}
