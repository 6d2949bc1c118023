//! Sample tables and the one odd module shared by the advisor gates
//! (`advice_pins`, `blame_memo`).
#![allow(dead_code)]

use gpa::arch::{ArchConfig, LaunchConfig};
use gpa::isa::Module;
use gpa::sampling::{KernelProfile, RawSample, SampleSet, StallReason};
use gpa::sim::LaunchResult;
use proptest::{Strategy, TestRng};

/// A profile of `module` built from `(pc, reason, scheduler active,
/// count)` sample runs and a launch shape, the way the profiler would
/// have aggregated it.
pub fn profile_of(
    module: &Module,
    arch: &ArchConfig,
    launch: LaunchConfig,
    runs: &[(u64, StallReason, bool, u32)],
) -> KernelProfile {
    let mut samples = Vec::new();
    for &(pc, stall, scheduler_active, count) in runs {
        let sample = RawSample { sm: 0, scheduler: 0, cycle: 0, pc, stall, scheduler_active };
        samples.extend(std::iter::repeat_n(sample, count as usize));
    }
    let result = LaunchResult {
        cycles: 1000,
        issued: 100,
        samples: SampleSet::from_raw(&samples),
        issue_counts: Default::default(),
        mem_transactions: 0,
        l2_hits: 0,
        l2_misses: 0,
        icache_misses: 0,
        occupancy: arch.occupancy(&launch),
        launch,
        sm_stats: vec![],
        sim_stats: Default::default(),
    };
    KernelProfile::from_launch(&module.functions[0].name, &module.name, "volta", 509, &result)
}

/// A random sample table over the module's own instructions: any PC, any
/// reason, any launch shape. `Selected` samples are always active (a warp
/// that issued made its scheduler active); every other reason is a coin
/// flip between a hidden stall and a latency sample.
pub fn random_profile(module: &Module, arch: &ArchConfig, rng: &mut TestRng) -> KernelProfile {
    let pcs: Vec<u64> =
        module.functions.iter().flat_map(|f| (0..f.instrs.len()).map(|i| f.pc_of(i))).collect();
    let runs: Vec<(u64, StallReason, bool, u32)> = (0..(1..25).sample(rng))
        .map(|_| {
            let pc = pcs[(0..pcs.len()).sample(rng)];
            let reason = StallReason::ALL[(0..StallReason::ALL.len()).sample(rng)];
            let active = reason == StallReason::Selected || (0..2).sample(rng) == 0;
            (pc, reason, active, (1..51u32).sample(rng))
        })
        .collect();
    let launch = LaunchConfig::new((1..65u32).sample(rng), (1..1025u32).sample(rng));
    profile_of(module, arch, launch, &runs)
}

/// A kernel calling a device function that itself calls another: the one
/// shape no registry kernel has (call sites *inside* a device function).
pub const NESTED_CALLS: &str = r#"
.module nested
.kernel k
  CAL f {S:1}
  EXIT {S:1}
.endfunc
.func f
  CAL g {S:1}
  RET {S:1}
.endfunc
.func g
  IADD R0, R0, 1 {S:4}
  RET {S:1}
.endfunc
"#;
