//! The benchmark suite GPA is evaluated on.
//!
//! The paper optimizes 17 Rodinia kernels plus Quicksilver, ExaTENSOR,
//! PeleC and Minimod on a V100 (Table 3). Those CUDA codes cannot run
//! here, so each application is rebuilt as a kernel in the [`gpa_isa`]
//! instruction set that exhibits the *same bottleneck pattern* the paper
//! found (e.g. hotspot's float→double promotion, b+tree's short def–use
//! distance, gaussian's 16-thread blocks, myocyte's i-cache-thrashing
//! megafunction) — together with the *optimized variant* corresponding to
//! the paper's source-level fix.
//!
//! Each [`App`] exposes a sequence of [`Stage`]s (some applications apply
//! two optimizations in a row); variant `k` of the kernel has the first
//! `k` optimizations applied, so the achieved speedup of stage `k` is
//! `cycles(variant k) / cycles(variant k+1)`, measured on the simulator
//! exactly as the paper measures wall time on hardware.

pub mod apps;
pub mod data;
pub mod dsl;
pub mod runner;

pub use apps::all_apps;

use gpa_arch::LaunchConfig;
use gpa_isa::Module;
use gpa_sim::GpuSim;

/// Setup callback: initialize device memory, return the kernel parameters
/// (constant bank 0 bytes).
pub type SetupFn = Box<dyn Fn(&mut GpuSim) -> Vec<u8> + Send + Sync>;

/// One runnable kernel variant.
pub struct KernelSpec {
    /// The linked module.
    pub module: Module,
    /// Kernel entry name.
    pub entry: String,
    /// Launch configuration.
    pub launch: LaunchConfig,
    /// Device-memory initializer, returns params.
    pub setup: SetupFn,
    /// Optional user constant bank 1 (e.g. ExaTENSOR's dims tables).
    pub const_bank1: Option<Vec<u8>>,
}

/// One optimization step of an application (a row of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Human name, e.g. `"Strength Reduction"`.
    pub name: &'static str,
    /// The optimizer expected to suggest it, e.g.
    /// `"GPUStrengthReductionOptimizer"`.
    pub optimizer: &'static str,
}

/// Scaling knobs for the suite (the simulator is slower than a V100, so
/// experiments run on a scaled-down device with proportionate grids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// SMs of the simulated device (keep in sync with the `ArchConfig`).
    pub sms: u32,
    /// Work multiplier: 1 = quick tests, larger = more stable sampling.
    pub scale: u32,
}

impl Params {
    /// The configuration the Table 3 harness uses.
    pub fn full() -> Self {
        Params { sms: 8, scale: 4 }
    }

    /// A tiny configuration for unit tests.
    pub fn test() -> Self {
        Params { sms: 2, scale: 1 }
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::full()
    }
}

/// One benchmark application.
pub struct App {
    /// Application name, e.g. `"rodinia/hotspot"`.
    pub name: &'static str,
    /// Kernel symbol, e.g. `"calculate_temp"`.
    pub kernel: &'static str,
    /// Optimization sequence (Table 3 rows for this app).
    pub stages: Vec<Stage>,
    /// Builds variant `v` (0 = baseline, `stages.len()` = fully
    /// optimized).
    pub build: fn(variant: usize, p: &Params) -> KernelSpec,
}

impl App {
    /// Number of variants (stages + 1).
    pub fn variants(&self) -> usize {
        self.stages.len() + 1
    }
}
