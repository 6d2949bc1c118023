//! The profiling front end: launch + sample + aggregate in one call,
//! plus replay-style repeat profiling (merged multi-launch profiles).

use crate::profile::{KernelProfile, ProfileBuilder};
use gpa_arch::LaunchConfig;
use gpa_isa::Module;
use gpa_sim::{CompiledProgram, GpuSim, LaunchResult, Result};

/// Profiles kernels on a simulated device.
///
/// This is GPA's "profiler" component: it runs the kernel with PC sampling
/// enabled and returns both the aggregated profile (what CUPTI would hand
/// back) and the raw launch result (ground truth the real tool would not
/// have — kept for validation).
#[derive(Debug)]
pub struct Profiler {
    gpu: GpuSim,
}

impl Profiler {
    /// Wraps a device.
    pub fn new(gpu: GpuSim) -> Self {
        Profiler { gpu }
    }

    /// The underlying device (e.g. to initialize global memory).
    pub fn gpu(&self) -> &GpuSim {
        &self.gpu
    }

    /// Mutable access to the underlying device.
    pub fn gpu_mut(&mut self) -> &mut GpuSim {
        &mut self.gpu
    }

    /// Launches `entry` and aggregates its PC samples into a profile.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (unknown kernel, faults, cycle limit).
    pub fn profile(
        &mut self,
        module: &Module,
        entry: &str,
        launch: &LaunchConfig,
        params: &[u8],
    ) -> Result<(KernelProfile, LaunchResult)> {
        let prog = self.gpu.compile(module, entry)?;
        self.profile_compiled(&prog, launch, params)
    }

    /// Launches an already-compiled program (see [`GpuSim::compile`]) and
    /// aggregates its PC samples into a profile — the repeat-launch path:
    /// the module lowering (instruction cloning, reconvergence analysis)
    /// is paid once, not per launch.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (arch mismatch, faults, cycle limit).
    pub fn profile_compiled(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
    ) -> Result<(KernelProfile, LaunchResult)> {
        let result = self.gpu.launch_compiled(prog, launch, params)?;
        let profile = KernelProfile::from_launch(
            prog.entry(),
            prog.module_name(),
            prog.isa_arch(),
            self.gpu.config().sampling_period,
            &result,
        );
        Ok((profile, result))
    }

    /// Profiles `entry` across `repeats` replayed launches and merges the
    /// per-launch profiles (see [`Profiler::profile_repeat_compiled`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from any replay.
    pub fn profile_repeat(
        &mut self,
        module: &Module,
        entry: &str,
        launch: &LaunchConfig,
        params: &[u8],
        repeats: u32,
    ) -> Result<(KernelProfile, LaunchResult)> {
        let prog = self.gpu.compile(module, entry)?;
        self.profile_repeat_compiled(&prog, launch, params, repeats)
    }

    /// CUPTI-replay-style profiling: launches the kernel `repeats` times,
    /// restoring device global memory between replays so every launch
    /// executes identically, while the **sampling phase** shifts per
    /// replay — each run observes different cycles of the same
    /// execution, and the merged profile (counters added via
    /// [`KernelProfile::merge`]) cuts sampling noise the way hardware
    /// replay does. `repeats == 1` is exactly
    /// [`Profiler::profile_compiled`].
    ///
    /// Returns the merged profile and the first (phase-0) launch's
    /// result — the single-launch ground truth.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from any replay.
    pub fn profile_repeat_compiled(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
        repeats: u32,
    ) -> Result<(KernelProfile, LaunchResult)> {
        let repeats = repeats.max(1);
        if repeats == 1 {
            return self.profile_compiled(prog, launch, params);
        }
        let period = self.gpu.config().sampling_period;
        let saved_phase = self.gpu.config().sampling_phase;
        // Kernels mutate global memory; snapshot it so every replay sees
        // the launch-time state, not the previous replay's output.
        let memory = self.gpu.global().clone();
        let mut builder = ProfileBuilder::new();
        let mut first: Option<LaunchResult> = None;
        for k in 0..repeats {
            if k > 0 {
                *self.gpu.global_mut() = memory.clone();
            }
            // Spread the first-tick offsets evenly across one period,
            // on top of any configured base phase — so replay 0 is
            // exactly the single-launch run of this profiler.
            let offset = ((u64::from(k) * u64::from(period)) / u64::from(repeats)) as u32;
            self.gpu.config_mut().sampling_phase = saved_phase.saturating_add(offset);
            let result = self.gpu.launch_compiled(prog, launch, params);
            self.gpu.config_mut().sampling_phase = saved_phase;
            let result = result?;
            builder
                .add_launch(prog.entry(), prog.module_name(), prog.isa_arch(), period, &result)
                .expect("replays of one launch share a configuration, with cycle-bounded counters");
            if first.is_none() {
                first = Some(result);
            }
        }
        Ok((
            builder.build().expect("at least one replay ran"),
            first.expect("at least one replay ran"),
        ))
    }

    /// Times a launch without sampling (for achieved-speedup measurements:
    /// sampling overhead never perturbs our simulator, but the real tool
    /// measures optimized variants without instrumentation).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn time_only(
        &mut self,
        module: &Module,
        entry: &str,
        launch: &LaunchConfig,
        params: &[u8],
    ) -> Result<u64> {
        let prog = self.gpu.compile(module, entry)?;
        self.time_only_compiled(&prog, launch, params)
    }

    /// Times an already-compiled program without sampling.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn time_only_compiled(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
    ) -> Result<u64> {
        let saved = self.gpu.config().sampling_period;
        self.gpu.config_mut().sampling_period = 0;
        let r = self.gpu.launch_compiled(prog, launch, params);
        self.gpu.config_mut().sampling_period = saved;
        Ok(r?.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arch::ArchConfig;
    use gpa_isa::parse_module;
    use gpa_sim::{SimConfig, StallReason};

    const KERNEL: &str = r#"
.module p
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
"#;

    #[test]
    fn profile_collects_memory_dependency_stalls() {
        let m = parse_module(KERNEL).unwrap();
        let cfg = SimConfig { sampling_period: 13, ..SimConfig::default() };
        let mut prof = Profiler::new(GpuSim::new(ArchConfig::small(1), cfg));
        let buf = prof.gpu_mut().global_mut().alloc(4 * 64);
        let params: Vec<u8> = buf.to_le_bytes().to_vec();
        let (profile, result) = prof.profile(&m, "k", &LaunchConfig::new(2, 32), &params).unwrap();
        assert_eq!(profile.cycles, result.cycles);
        assert!(profile.total_samples > 0);
        let hist = profile.stall_histogram();
        assert!(hist[StallReason::MemoryDependency.code() as usize] > 0);
        // The increment landed.
        assert_eq!(prof.gpu().global().read_u32(buf), 1);
    }

    #[test]
    fn time_only_leaves_no_samples_and_restores_period() {
        let m = parse_module(KERNEL).unwrap();
        let mut prof = Profiler::new(GpuSim::new(ArchConfig::small(1), SimConfig::default()));
        let buf = prof.gpu_mut().global_mut().alloc(4 * 64);
        let params: Vec<u8> = buf.to_le_bytes().to_vec();
        let cycles = prof.time_only(&m, "k", &LaunchConfig::new(1, 32), &params).unwrap();
        assert!(cycles > 0);
        assert_eq!(prof.gpu().config().sampling_period, SimConfig::default().sampling_period);
    }

    #[test]
    fn profile_repeat_one_equals_profile() {
        let m = parse_module(KERNEL).unwrap();
        let run = |repeats: Option<u32>| {
            let cfg = SimConfig { sampling_period: 13, ..SimConfig::default() };
            let mut prof = Profiler::new(GpuSim::new(ArchConfig::small(1), cfg));
            let buf = prof.gpu_mut().global_mut().alloc(4 * 64);
            let params: Vec<u8> = buf.to_le_bytes().to_vec();
            let launch = LaunchConfig::new(2, 32);
            match repeats {
                None => prof.profile(&m, "k", &launch, &params).unwrap(),
                Some(n) => prof.profile_repeat(&m, "k", &launch, &params, n).unwrap(),
            }
        };
        let (p, r) = run(None);
        let (p1, r1) = run(Some(1));
        assert_eq!(p, p1, "repeat-1 profile is the single-launch profile");
        assert_eq!(r, r1);
        assert_eq!(p.to_json(), p1.to_json(), "byte-identical JSON too");
    }

    #[test]
    fn profile_repeat_merges_replays_without_perturbing_results() {
        let m = parse_module(KERNEL).unwrap();
        let cfg = SimConfig { sampling_period: 13, ..SimConfig::default() };
        let mut prof = Profiler::new(GpuSim::new(ArchConfig::small(1), cfg));
        let buf = prof.gpu_mut().global_mut().alloc(4 * 64);
        let params: Vec<u8> = buf.to_le_bytes().to_vec();
        let launch = LaunchConfig::new(2, 32);
        let (single, single_result) = prof.profile(&m, "k", &launch, &params).unwrap();
        // Reset the increment the first run applied before replaying.
        prof.gpu_mut().global_mut().write_u32(buf, 0);
        let (merged, first) = prof.profile_repeat(&m, "k", &launch, &params, 3).unwrap();
        assert_eq!(first, single_result, "phase-0 replay is the single launch");
        assert_eq!(merged.cycles, single.cycles, "ground truth untouched by merging");
        assert_eq!(merged.issued, single.issued);
        assert!(
            merged.total_samples > single.total_samples,
            "three phases observe more cycles: {} vs {}",
            merged.total_samples,
            single.total_samples
        );
        // Memory restoration between replays: the buffer saw exactly one
        // increment per replayed launch... which all start from the same
        // snapshot, so the final value is the single-launch value.
        assert_eq!(prof.gpu().global().read_u32(buf), 1, "replays never see stale outputs");
        assert_eq!(
            prof.gpu().config().sampling_phase,
            SimConfig::default().sampling_phase,
            "phase restored after the replay sweep"
        );
    }

    #[test]
    fn profile_repeat_respects_a_configured_base_phase() {
        // A caller-configured sampling_phase is the sweep's base: replay
        // 0 must observe exactly what a plain profile() run would, for
        // any repeat count.
        let m = parse_module(KERNEL).unwrap();
        let run = |repeats: Option<u32>| {
            let cfg = SimConfig { sampling_period: 13, sampling_phase: 7, ..SimConfig::default() };
            let mut prof = Profiler::new(GpuSim::new(ArchConfig::small(1), cfg));
            let buf = prof.gpu_mut().global_mut().alloc(4 * 64);
            let params: Vec<u8> = buf.to_le_bytes().to_vec();
            let launch = LaunchConfig::new(2, 32);
            match repeats {
                None => prof.profile(&m, "k", &launch, &params).unwrap(),
                Some(n) => prof.profile_repeat(&m, "k", &launch, &params, n).unwrap(),
            }
        };
        let (single, single_result) = run(None);
        let (_, first) = run(Some(3));
        assert_eq!(first, single_result, "replay 0 keeps the configured phase");
        let (merged, _) = run(Some(3));
        assert!(merged.total_samples > single.total_samples);
    }

    #[test]
    fn sampling_period_changes_sample_count_not_shape() {
        let m = parse_module(KERNEL).unwrap();
        let run = |period: u32| {
            let cfg = SimConfig { sampling_period: period, ..SimConfig::default() };
            let mut prof = Profiler::new(GpuSim::new(ArchConfig::small(1), cfg));
            let buf = prof.gpu_mut().global_mut().alloc(4 * 128);
            let params: Vec<u8> = buf.to_le_bytes().to_vec();
            prof.profile(&m, "k", &LaunchConfig::new(4, 32), &params).unwrap().0
        };
        let fine = run(7);
        let coarse = run(29);
        assert!(fine.total_samples > coarse.total_samples);
        // Both see the kernel as memory-latency bound.
        for p in [&fine, &coarse] {
            let hist = p.stall_histogram();
            let mem = hist[StallReason::MemoryDependency.code() as usize];
            assert!(mem > 0, "memory stalls visible at any period");
        }
    }
}
