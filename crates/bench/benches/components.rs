//! Criterion benches for the tool's own components: simulator throughput,
//! blamer, and end-to-end advise latency. (The paper argues PC sampling's
//! post-mortem analysis is cheap — these benches quantify our analogue.)
//!
//! The `sim/*` group times the scheduler core on a real app and on a
//! long-latency-dominated kernel, plus the compiled program reuse path
//! and the two memory models (`BENCH_3.json` records the dense-vs-event
//! verdict; the dense core is now a test oracle, see
//! `tests/sim_equivalence.rs`). The `sampling/*` group measures the streaming
//! measurement layer: the default at-source aggregating `SampleSink`
//! against the old raw-buffered `Vec<RawSample>` path on a sample-heavy
//! run. Quick mode for CI: set `GPA_BENCH_SAMPLES=3`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpa_arch::{ArchConfig, LatencyTable, LaunchConfig};
use gpa_core::{Advisor, ModuleBlame};
use gpa_isa::parse_module;
use gpa_kernels::apps;
use gpa_kernels::runner::{
    arch_for, launch_spec_with, launch_spec_with_sink, run_spec, sim_config,
};
use gpa_kernels::Params;
use gpa_sampling::KernelProfile;
use gpa_sim::{GpuSim, LaunchResult, RawSample, SampleSet, SimConfig};
use gpa_structure::ProgramStructure;

fn bench_simulator(c: &mut Criterion) {
    let p = Params::test();
    let arch = arch_for(&p);
    let spec = (apps::hotspot::app().build)(0, &p);
    c.bench_function("sim/hotspot_baseline_launch", |b| {
        b.iter(|| run_spec(&spec, &arch).expect("launch"))
    });
}

/// A serial pointer-chase: one warp, 96 dependent global loads. Nearly
/// every cycle is an idle wait on DRAM latency — the event core's best
/// case.
const CHASE: &str = r#"
.module chase
.kernel chase
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  MOV32I R6, 0 {S:1}
  MOV32I R8, 0 {S:1}
loop:
  LDG.E.32 R4, [R2:R3] {W:B1, S:1}
  IADD R6, R6, R4 {WT:[B1], S:4}
  IADD R8, R8, 1 {S:4}
  ISETP.LT.AND P1, R8, 96 {S:2}
  @P1 BRA loop {S:5}
  STG.E.32 [R2:R3], R6 {R:B2, S:1}
  EXIT {WT:[B2], S:1}
.endfunc
"#;

fn bench_long_latency(c: &mut Criterion) {
    let arch = ArchConfig::small(1);
    let module = parse_module(CHASE).expect("chase kernel parses");
    let run = || {
        let mut gpu = GpuSim::new(arch.clone(), sim_config());
        let buf = gpu.global_mut().alloc(4 * 32);
        let params: Vec<u8> = buf.to_le_bytes().to_vec();
        gpu.launch(&module, "chase", &LaunchConfig::new(1, 32), &params).expect("launch")
    };
    c.bench_function("sim/dense_vs_event/long_latency_event", |b| b.iter(run));
}

/// Per-launch lowering vs a compiled program reused across launches —
/// the daemon's repeat-traffic path.
fn bench_compiled_reuse(c: &mut Criterion) {
    let p = Params::test();
    let arch = arch_for(&p);
    let spec = (apps::hotspot::app().build)(0, &p);
    let mut gpu = GpuSim::new(arch.clone(), sim_config());
    if let Some(bank) = &spec.const_bank1 {
        gpu.set_const_bank(1, bank.clone());
    }
    let params = (spec.setup)(&mut gpu);
    let prog = gpu.compile(&spec.module, &spec.entry).expect("compiles");
    c.bench_function("sim/launch_relowered_each_time", |b| {
        b.iter(|| gpu.launch(&spec.module, &spec.entry, &spec.launch, &params).expect("launch"))
    });
    c.bench_function("sim/launch_compiled_reuse", |b| {
        b.iter(|| gpu.launch_compiled(&prog, &spec.launch, &params).expect("launch"))
    });
}

/// Measurement-layer overhead on a sample-heavy run: the default
/// at-source aggregating sink (`SampleSet` built during the launch, no
/// retained raw samples) against the old buffered path (collect every
/// `RawSample` in a `Vec`, aggregate afterwards). Both end in the same
/// `KernelProfile` — asserted up front — so the timing delta is pure
/// measurement-layer cost; the sink must not lose to the buffer.
fn bench_sampling_sink(c: &mut Criterion) {
    let p = Params::test();
    let arch = arch_for(&p);
    let spec = (apps::hotspot::app().build)(0, &p);
    // A tight period makes sampling a dominant cost: every 5th cycle
    // per SM takes a sample.
    let cfg = SimConfig { sampling_period: 5, ..sim_config() };
    let period = cfg.sampling_period;
    let launch = |sink: Option<&mut Vec<RawSample>>| {
        match sink {
            None => launch_spec_with(&spec, &arch, cfg.clone()),
            Some(raw) => launch_spec_with_sink(&spec, &arch, cfg.clone(), raw),
        }
        .expect("launch")
    };
    let profile_of = |set: &SampleSet, result: &LaunchResult| {
        KernelProfile::from_set(
            &spec.entry,
            &spec.module.name,
            &spec.module.arch,
            period,
            set,
            result,
        )
    };
    let streamed = launch(None);
    let mut raw = Vec::new();
    let buffered = launch(Some(&mut raw));
    assert!(streamed.samples.total_samples() > 1_000, "sample-heavy run");
    assert_eq!(
        profile_of(&streamed.samples, &streamed),
        profile_of(&SampleSet::from_raw(&raw), &buffered),
        "both measurement paths yield one profile"
    );
    c.bench_function("sampling/aggregating_sink", |b| {
        b.iter(|| {
            let r = launch(None);
            profile_of(&r.samples, &r)
        })
    });
    c.bench_function("sampling/raw_buffered", |b| {
        b.iter(|| {
            let mut raw: Vec<RawSample> = Vec::new();
            let r = launch(Some(&mut raw));
            profile_of(&SampleSet::from_raw(&raw), &r)
        })
    });
}

/// Flat memory model vs the timed hierarchy (L1/MSHR/L2 servers) on the
/// demo kernel built to saturate those servers, plus a real app where
/// the hierarchy mostly idles — the delta is the cost of carrying the
/// server state through the event core.
fn bench_flat_vs_hierarchy(c: &mut Criterion) {
    let p = Params::test();
    let flat = arch_for(&p);
    let hier = arch_for(&p).with_hierarchy();
    for (label, spec) in [
        ("membound", (apps::membound::app().build)(0, &p)),
        ("hotspot", (apps::hotspot::app().build)(0, &p)),
    ] {
        c.bench_function(&format!("sim/mem_model/{label}_flat"), |b| {
            b.iter(|| launch_spec_with(&spec, &flat, sim_config()).expect("launch"))
        });
        c.bench_function(&format!("sim/mem_model/{label}_hierarchy"), |b| {
            b.iter(|| launch_spec_with(&spec, &hier, sim_config()).expect("launch"))
        });
    }
}

fn bench_blamer(c: &mut Criterion) {
    let p = Params::test();
    let arch = arch_for(&p);
    let app = apps::bfs::app();
    let spec = (app.build)(0, &p);
    let run = run_spec(&spec, &arch).expect("launch");
    let structure = ProgramStructure::build(&spec.module);
    let lat = LatencyTable::for_arch(&arch);
    c.bench_function("blamer/bfs_module_blame", |b| {
        b.iter(|| ModuleBlame::build(&spec.module, &structure, &run.profile, &lat))
    });
}

fn bench_advisor(c: &mut Criterion) {
    let p = Params::test();
    let arch = arch_for(&p);
    let app = apps::exatensor::app();
    let spec = (app.build)(0, &p);
    let run = run_spec(&spec, &arch).expect("launch");
    let advisor = Advisor::new();
    c.bench_function("advisor/exatensor_advise", |b| {
        b.iter(|| advisor.advise(&spec.module, &run.profile, &arch))
    });
}

fn bench_static_analysis(c: &mut Criterion) {
    let p = Params::test();
    let spec = (apps::myocyte::app().build)(0, &p);
    c.bench_function("static/myocyte_program_structure", |b| {
        b.iter(|| ProgramStructure::build(&spec.module))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulator, bench_long_latency, bench_compiled_reuse,
        bench_sampling_sink, bench_flat_vs_hierarchy, bench_blamer, bench_advisor,
        bench_static_analysis
}
criterion_main!(benches);
