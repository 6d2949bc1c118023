//! Arming a device for a [`KernelSpec`]: the experiment configuration
//! and the one recipe that wires a spec's constant bank 1 and device
//! memory. Launching, sampling and timing an armed device is
//! `gpa-sampling`'s `Profiler`; anything running registry variants — the
//! CLI, the Table 3 harness, the daemon — goes through `gpa-pipeline`'s
//! `Session`, which caches module artifacts and memory snapshots.

use crate::{KernelSpec, Params};
use gpa_arch::ArchConfig;
use gpa_sim::{GlobalMem, GpuSim, SimConfig};

/// The simulator configuration the experiment harnesses use.
pub fn sim_config() -> SimConfig {
    SimConfig { sampling_period: 127, ..SimConfig::default() }
}

/// The device configuration for a given parameter scale.
pub fn arch_for(p: &Params) -> ArchConfig {
    ArchConfig::small(p.sms)
}

/// Arms a device for a spec under an explicit simulator configuration:
/// constant bank wired, setup closure run. Returns the device and the
/// kernel parameters.
pub fn armed_gpu_with(spec: &KernelSpec, arch: &ArchConfig, cfg: SimConfig) -> (GpuSim, Vec<u8>) {
    let mut gpu = rearmed_gpu(spec, arch.clone(), cfg, GlobalMem::new());
    let params = (spec.setup)(&mut gpu);
    (gpu, params)
}

/// Re-arms a device for a spec from a snapshot of the memory its setup
/// closure produced (see [`armed_gpu_with`]): constant bank wired,
/// `global` installed, setup not replayed.
pub fn rearmed_gpu(
    spec: &KernelSpec,
    arch: ArchConfig,
    cfg: SimConfig,
    global: GlobalMem,
) -> GpuSim {
    let mut gpu = GpuSim::new(arch, cfg);
    if let Some(bank) = &spec.const_bank1 {
        gpu.set_const_bank(1, bank.clone());
    }
    *gpu.global_mut() = global;
    gpu
}
