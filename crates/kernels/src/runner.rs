//! Single-shot runner: build device, set up inputs, profile.
//!
//! These are the low-level, one-kernel primitives. Anything running more
//! than one variant — the CLI's `analyze --all`, the Table 3 harness,
//! batch experiments — should go through `gpa-pipeline`'s `Session`,
//! which caches module artifacts and fans out across the worker pool.

use crate::{KernelSpec, Params};
use gpa_arch::ArchConfig;
use gpa_sampling::{KernelProfile, Profiler};
use gpa_sim::{GpuSim, Result, SimConfig};

/// Everything one variant run produces.
pub struct RunOutput {
    /// The PC-sampling profile.
    pub profile: KernelProfile,
    /// Ground-truth kernel cycles.
    pub cycles: u64,
}

/// The simulator configuration the experiment harnesses use.
pub fn sim_config() -> SimConfig {
    SimConfig { sampling_period: 127, ..SimConfig::default() }
}

/// The device configuration for a given parameter scale.
pub fn arch_for(p: &Params) -> ArchConfig {
    ArchConfig::small(p.sms)
}

/// Builds the simulator for a spec (constant bank wired), runs its
/// setup, and returns the armed profiler plus kernel parameters — the
/// glue `run_spec` and `time_spec` share.
pub fn profiler_for(spec: &KernelSpec, arch: &ArchConfig) -> (Profiler, Vec<u8>) {
    let (gpu, params) = armed_gpu_with(spec, arch, sim_config());
    (Profiler::new(gpu), params)
}

/// Arms a device for a spec under an explicit simulator configuration:
/// constant bank wired, setup closure run. Returns the device and the
/// kernel parameters — the one place the arming recipe lives.
pub fn armed_gpu_with(spec: &KernelSpec, arch: &ArchConfig, cfg: SimConfig) -> (GpuSim, Vec<u8>) {
    let mut gpu = GpuSim::new(arch.clone(), cfg);
    if let Some(bank) = &spec.const_bank1 {
        gpu.set_const_bank(1, bank.clone());
    }
    let params = (spec.setup)(&mut gpu);
    (gpu, params)
}

/// Arms a device for a spec under an explicit simulator configuration
/// and launches it — the shared glue for harnesses that need a raw
/// [`gpa_sim::LaunchResult`] (e.g. the dense-vs-event differential
/// tests).
///
/// # Errors
///
/// Propagates simulator errors (faults, cycle limit).
pub fn launch_spec_with(
    spec: &KernelSpec,
    arch: &ArchConfig,
    cfg: SimConfig,
) -> Result<gpa_sim::LaunchResult> {
    let (mut gpu, params) = armed_gpu_with(spec, arch, cfg);
    gpu.launch(&spec.module, &spec.entry, &spec.launch, &params)
}

/// [`launch_spec_with`] with a caller-supplied [`gpa_sim::SampleSink`]
/// (e.g. a `Vec<RawSample>` buffering the raw stream for differential
/// checks); the result's own sample set stays empty.
///
/// # Errors
///
/// Propagates simulator errors (faults, cycle limit).
pub fn launch_spec_with_sink(
    spec: &KernelSpec,
    arch: &ArchConfig,
    cfg: SimConfig,
    sink: &mut dyn gpa_sim::SampleSink,
) -> Result<gpa_sim::LaunchResult> {
    let (mut gpu, params) = armed_gpu_with(spec, arch, cfg);
    let prog = gpu.compile(&spec.module, &spec.entry)?;
    gpu.launch_compiled_with_sink(&prog, &spec.launch, &params, sink)
}

/// Runs one kernel variant with sampling and returns profile + cycles.
///
/// # Errors
///
/// Propagates simulator errors (faults, cycle limit).
pub fn run_spec(spec: &KernelSpec, arch: &ArchConfig) -> Result<RunOutput> {
    let (mut profiler, params) = profiler_for(spec, arch);
    let (profile, result) = profiler.profile(&spec.module, &spec.entry, &spec.launch, &params)?;
    Ok(RunOutput { profile, cycles: result.cycles })
}

/// Times a kernel variant without sampling.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn time_spec(spec: &KernelSpec, arch: &ArchConfig) -> Result<u64> {
    let (mut profiler, params) = profiler_for(spec, arch);
    profiler.time_only(&spec.module, &spec.entry, &spec.launch, &params)
}
