//! The profiling front end: launch + sample + aggregate in one call,
//! with replay-style repeat profiling (merged multi-launch profiles).

use crate::profile::KernelProfile;
use gpa_arch::LaunchConfig;
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

    /// Launches an already-compiled program (see [`GpuSim::compile`])
    /// `repeats` times and aggregates its PC samples into one profile —
    /// CUPTI-replay-style profiling: device global memory is restored
    /// between replays so every launch executes identically, while the
    /// **sampling phase** shifts per replay — each run observes
    /// different cycles of the same execution, and the merged profile
    /// (counters added via [`KernelProfile::merge_in`]) cuts sampling
    /// noise the way hardware replay does. `repeats` below 2 is one
    /// plain launch, aggregated by [`KernelProfile::from_launch`].
    ///
    /// Returns the merged profile and the first (phase-0) launch's
    /// result — the single-launch ground truth.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (arch mismatch, faults, cycle limit)
    /// from any replay.
    pub fn profile_compiled(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
        repeats: u32,
    ) -> Result<(KernelProfile, LaunchResult)> {
        let repeats = repeats.max(1);
        let period = self.gpu.config().sampling_period;
        let saved_phase = self.gpu.config().sampling_phase;
        // Kernels mutate global memory; when a second replay will run,
        // snapshot it so every replay sees the launch-time state, not
        // the previous replay's output.
        let memory = (repeats > 1).then(|| self.gpu.global().clone());
        let mut merged: Option<(KernelProfile, LaunchResult)> = None;
        for k in 0..repeats {
            if let Some(memory) = memory.as_ref().filter(|_| k > 0) {
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
            let profile = KernelProfile::from_launch(
                prog.entry(),
                prog.module_name(),
                prog.isa_arch(),
                period,
                &result,
            );
            match &mut merged {
                None => merged = Some((profile, result)),
                Some((acc, _)) => acc.merge_in(&profile).expect(
                    "replays of one launch share a configuration, with cycle-bounded counters",
                ),
            }
        }
        Ok(merged.expect("at least one replay ran"))
    }

    /// Times an already-compiled program without sampling (for
    /// achieved-speedup measurements:
    /// sampling overhead never perturbs our simulator, but the real tool
    /// measures optimized variants without instrumentation).
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
    use std::sync::Arc;

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

    /// A profiler on a one-SM device with `cfg`, the kernel compiled for
    /// it, and its parameters: one zeroed buffer of `words` words.
    fn armed(cfg: SimConfig, words: u64) -> (Profiler, Arc<CompiledProgram>, Vec<u8>, u64) {
        let mut prof = Profiler::new(GpuSim::new(ArchConfig::small(1), cfg));
        let prog = prof.gpu().compile(&parse_module(KERNEL).unwrap(), "k").unwrap();
        let buf = prof.gpu_mut().global_mut().alloc(4 * words);
        (prof, prog, buf.to_le_bytes().to_vec(), buf)
    }

    fn period(sampling_period: u32) -> SimConfig {
        SimConfig { sampling_period, ..SimConfig::default() }
    }

    #[test]
    fn profile_collects_memory_dependency_stalls() {
        let (mut prof, prog, params, buf) = armed(period(13), 64);
        let (profile, result) =
            prof.profile_compiled(&prog, &LaunchConfig::new(2, 32), &params, 1).unwrap();
        assert_eq!(profile.cycles, result.cycles);
        assert!(profile.total_samples > 0);
        let hist = profile.stall_histogram();
        assert!(hist[StallReason::MemoryDependency.code() as usize] > 0);
        // The increment landed.
        assert_eq!(prof.gpu().global().read_u32(buf), 1);
    }

    #[test]
    fn time_only_leaves_no_samples_and_restores_period() {
        let (mut prof, prog, params, _) = armed(SimConfig::default(), 64);
        let cycles = prof.time_only_compiled(&prog, &LaunchConfig::new(1, 32), &params).unwrap();
        assert!(cycles > 0);
        assert_eq!(prof.gpu().config().sampling_period, SimConfig::default().sampling_period);
    }

    /// One repeat (and zero, clamped to one) is exactly one plain
    /// launch aggregated by `KernelProfile::from_launch`.
    #[test]
    fn one_repeat_is_one_plain_launch() {
        let launch = LaunchConfig::new(2, 32);
        let (mut plain, prog, params, _) = armed(period(13), 64);
        let r = plain.gpu_mut().launch_compiled(&prog, &launch, &params).unwrap();
        let p =
            KernelProfile::from_launch(prog.entry(), prog.module_name(), prog.isa_arch(), 13, &r);
        for repeats in [0, 1] {
            let (mut prof, prog, params, _) = armed(period(13), 64);
            let (p1, r1) = prof.profile_compiled(&prog, &launch, &params, repeats).unwrap();
            assert_eq!(p, p1, "repeat-{repeats} profile is the single-launch profile");
            assert_eq!(r, r1);
            assert_eq!(p.to_json(), p1.to_json(), "byte-identical JSON too");
        }
    }

    #[test]
    fn profile_repeat_merges_replays_without_perturbing_results() {
        let (mut prof, prog, params, buf) = armed(period(13), 64);
        let launch = LaunchConfig::new(2, 32);
        let (single, single_result) = prof.profile_compiled(&prog, &launch, &params, 1).unwrap();
        // Reset the increment the first run applied before replaying.
        prof.gpu_mut().global_mut().write_u32(buf, 0);
        let (merged, first) = prof.profile_compiled(&prog, &launch, &params, 3).unwrap();
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
        // 0 must observe exactly what a single-launch run would, for any
        // repeat count.
        let run = |repeats: u32| {
            let cfg = SimConfig { sampling_phase: 7, ..period(13) };
            let (mut prof, prog, params, _) = armed(cfg, 64);
            prof.profile_compiled(&prog, &LaunchConfig::new(2, 32), &params, repeats).unwrap()
        };
        let (single, single_result) = run(1);
        let (merged, first) = run(3);
        assert_eq!(first, single_result, "replay 0 keeps the configured phase");
        assert!(merged.total_samples > single.total_samples);
    }

    #[test]
    fn sampling_period_changes_sample_count_not_shape() {
        let run = |sampling_period: u32| {
            let (mut prof, prog, params, _) = armed(period(sampling_period), 128);
            prof.profile_compiled(&prog, &LaunchConfig::new(4, 32), &params, 1).unwrap().0
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
