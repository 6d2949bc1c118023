//! Differential tests for the simulator's scheduler core: the
//! event-driven cycle-skipping core every `GpuSim::launch*` runs must
//! produce results **byte-identical** to the dense per-cycle reference
//! implementation (`gpa_sim::reference::launch_dense`, a test oracle no
//! configuration reaches) — cycles, the full **raw** sample stream
//! (per-sample cycle, SM, scheduler, PC, stall — collected via the
//! raw-buffering sink, since the default aggregate could mask a sample
//! taken at the wrong cycle by a warp in the same state), per-PC issue
//! counts, memory/L2/i-cache counters, and per-SM stats — across every
//! app in the benchmark registry.

use gpa::arch::ArchConfig;
use gpa::kernels::runner::{arch_for, armed_gpu_with, sim_config};
use gpa::kernels::{all_apps, KernelSpec, Params};
use gpa::sampling::KernelProfile;
use gpa::sim::reference::launch_dense;
use gpa::sim::{LaunchResult, RawSample, SampleSet, SampleSink, SimConfig};

/// Arms a device for `spec` and runs it to completion on the chosen
/// core — the dense oracle or the production event core — streaming
/// every sample into `sink`.
fn launch_on(
    spec: &KernelSpec,
    arch: &ArchConfig,
    cfg: SimConfig,
    dense: bool,
    sink: &mut dyn SampleSink,
) -> LaunchResult {
    let (mut gpu, params) = armed_gpu_with(spec, arch, cfg);
    let prog = gpu.compile(&spec.module, &spec.entry).expect("kernel compiles");
    let result = if dense {
        launch_dense(&mut gpu, &prog, &spec.launch, &params, sink)
    } else {
        gpu.launch_compiled_with_sink(&prog, &spec.launch, &params, sink)
    };
    result.expect("launch succeeds")
}

/// Runs one spec to completion on the chosen core, buffering the raw
/// sample stream.
fn launch_raw(
    spec: &KernelSpec,
    arch: &ArchConfig,
    cfg: SimConfig,
    dense: bool,
) -> (LaunchResult, Vec<RawSample>) {
    let mut raw = Vec::new();
    let result = launch_on(spec, arch, cfg, dense, &mut raw);
    (result, raw)
}

/// Like [`launch_raw`], but aggregating at the source into the result's
/// `SampleSet`, as the default sink does.
fn launch_with(spec: &KernelSpec, arch: &ArchConfig, cfg: SimConfig, dense: bool) -> LaunchResult {
    let mut set = SampleSet::new();
    let mut result = launch_on(spec, arch, cfg, dense, &mut set);
    result.samples = set;
    result
}

#[test]
fn all_apps_dense_vs_event_driven_identical() {
    let p = Params::test();
    let arch = arch_for(&p);
    for app in all_apps() {
        let spec = (app.build)(0, &p);
        let dense = launch_with(&spec, &arch, sim_config(), true);
        let event = launch_with(&spec, &arch, sim_config(), false);
        // Named comparisons first so a mismatch reads well, then the
        // whole result (covers occupancy, launch, and future fields).
        assert_eq!(dense.cycles, event.cycles, "{}: cycles", app.name);
        assert_eq!(dense.issued, event.issued, "{}: issued", app.name);
        assert_eq!(dense.samples, event.samples, "{}: aggregated samples", app.name);
        assert_eq!(dense.issue_counts, event.issue_counts, "{}: issue counts", app.name);
        assert_eq!(dense.mem_transactions, event.mem_transactions, "{}: mem txns", app.name);
        assert_eq!(dense.l2_hits, event.l2_hits, "{}: L2 hits", app.name);
        assert_eq!(dense.l2_misses, event.l2_misses, "{}: L2 misses", app.name);
        assert_eq!(dense.icache_misses, event.icache_misses, "{}: icache misses", app.name);
        assert_eq!(dense.sm_stats, event.sm_stats, "{}: per-SM stats", app.name);
        assert_eq!(dense, event, "{}: full LaunchResult", app.name);
    }
}

/// The raw-stream differential: per-sample cycle/SM/scheduler identity,
/// which the aggregated `SampleSet` comparison above cannot see (two
/// cores sampling the same warp state at *different* cycles would
/// aggregate identically). Also pins the raw stream to the default
/// aggregate, and covers a nonzero sampling phase.
#[test]
fn all_apps_raw_sample_streams_identical() {
    let p = Params::test();
    let arch = arch_for(&p);
    for app in all_apps() {
        let spec = (app.build)(0, &p);
        for phase in [0, 7] {
            let with_phase = || SimConfig { sampling_phase: phase, ..sim_config() };
            let (_, dense_raw) = launch_raw(&spec, &arch, with_phase(), true);
            let (_, event_raw) = launch_raw(&spec, &arch, with_phase(), false);
            assert_eq!(
                dense_raw, event_raw,
                "{} (phase {phase}): raw sample streams differ",
                app.name
            );
            let aggregated = launch_with(&spec, &arch, with_phase(), false);
            assert_eq!(
                SampleSet::from_raw(&event_raw),
                aggregated.samples,
                "{} (phase {phase}): raw stream aggregates to the default set",
                app.name
            );
        }
    }
}

/// Every registry app at scale `p`, plus the demo kernel built to
/// saturate the hierarchy's servers as the 22nd subject when `demo`.
fn subjects(p: &Params, demo: bool) -> Vec<(&'static str, KernelSpec)> {
    let demo = demo.then(|| ("demo/membound", (gpa::kernels::apps::membound::app().build)(0, p)));
    all_apps().iter().map(|app| (app.name, (app.build)(0, p))).chain(demo).collect()
}

/// Full `LaunchResult` and raw-stream identity for every subject.
fn assert_cores_identical(specs: &[(&str, KernelSpec)], arch: &ArchConfig, what: &str) {
    for (name, spec) in specs {
        let (dense, dense_raw) = launch_raw(spec, arch, sim_config(), true);
        let (event, event_raw) = launch_raw(spec, arch, sim_config(), false);
        assert_eq!(dense.cycles, event.cycles, "{name}: cycles {what}");
        assert_eq!(dense_raw, event_raw, "{name}: raw sample streams {what}");
        assert_eq!(dense, event, "{name}: full LaunchResult {what}");
    }
}

/// The same 21-app differential with the timed memory hierarchy
/// enabled: the hierarchy's servers (L1, MSHR file, L2 queue) are part
/// of the frozen machine state, so the event core must still land on
/// byte-identical results — raw sample streams included, since the new
/// stall reasons ride in them. The demo kernel rides along as the 22nd
/// subject because it is the one built to saturate those servers.
#[test]
fn all_apps_dense_vs_event_driven_identical_with_hierarchy() {
    let p = Params::test();
    let arch = arch_for(&p).with_hierarchy();
    assert_cores_identical(&subjects(&p, true), &arch, "under hierarchy");
}

/// The differential at the scale people run: the daemon and the
/// benchmark harness use `Params::full()` (8 SMs, scale 4), every test
/// above `Params::test()` (2 SMs, scale 1). Ignored by default because
/// the dense oracle at this scale is slow in a debug build; CI runs it
/// in release (`cargo test --release --test sim_equivalence --
/// --include-ignored`).
#[test]
#[ignore = "dense oracle at full scale: run in release with --include-ignored"]
fn all_apps_dense_vs_event_driven_identical_at_full_scale() {
    let p = Params::full();
    assert_cores_identical(&subjects(&p, false), &arch_for(&p), "at full scale, flat");
    let hier = arch_for(&p).with_hierarchy();
    assert_cores_identical(&subjects(&p, true), &hier, "at full scale, hierarchy");
}

#[test]
fn aggregated_profiles_are_identical_too() {
    // Sample aggregation is deterministic, so identical raw samples must
    // yield identical profiles — the artifact the advisor actually sees.
    let p = Params::test();
    let arch = arch_for(&p);
    for app in all_apps().into_iter().take(4) {
        let spec = (app.build)(0, &p);
        let period = sim_config().sampling_period;
        let profile = |dense: bool| {
            let r = launch_with(&spec, &arch, sim_config(), dense);
            KernelProfile::from_launch(
                &spec.entry,
                &spec.module.name,
                &spec.module.arch,
                period,
                &r,
            )
        };
        assert_eq!(profile(true), profile(false), "{}: aggregated profile", app.name);
    }
}

/// What a host-speed change to the simulator must not move: the summed
/// exact counts of the 21-app wave (variant 0) at `Params::full()`,
/// period 127, on the production core — `[cycles, issued,
/// mem_transactions, l2_hits, l2_misses, icache_misses, samples]`. The
/// constants were recorded at commit `bb76411`, before the scan columns
/// and the row-wise executor existed; cycles, issued, transactions and
/// samples are the benchmark harness's `sim.cycles` / `sim.winst` /
/// `sim.mem_transactions` / `sim.samples` on `cold_flat` and `cold_hier`.
#[test]
#[ignore = "21 apps twice at full scale: run in release with --include-ignored"]
fn full_scale_wave_counts_are_pinned() {
    let p = Params::full();
    let wave = |arch: &ArchConfig| {
        let mut totals = [0u64; 7];
        for (_, spec) in subjects(&p, false) {
            let r = launch_with(&spec, arch, sim_config(), false);
            let counts = [
                r.cycles,
                r.issued,
                r.mem_transactions,
                r.l2_hits,
                r.l2_misses,
                r.icache_misses,
                r.samples.total_samples(),
            ];
            for (total, n) in totals.iter_mut().zip(counts) {
                *total += n;
            }
        }
        totals
    };
    assert_eq!(
        wave(&arch_for(&p)),
        [326_193, 2_155_754, 697_264, 558_267, 102_133, 2_797, 17_570],
        "flat"
    );
    assert_eq!(
        wave(&arch_for(&p).with_hierarchy()),
        [569_135, 2_155_754, 697_264, 152_302, 102_133, 2_797, 31_164],
        "hierarchy"
    );
}
