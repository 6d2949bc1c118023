//! A cycle-level SIMT GPU simulator — the hardware substrate of GPA.
//!
//! The GPA paper measures real Volta V100 hardware through CUPTI PC
//! sampling. Without a GPU, this crate supplies the equivalent observable
//! behaviour: it executes kernels written in the [`gpa_isa`] instruction
//! set both *functionally* (per-lane register values, memory, divergence)
//! and *temporally* (warp schedulers, control-code stall counts, scoreboard
//! barriers, LSU back-pressure, instruction cache, pipe throughput), and
//! reports per-cycle warp states using the same stall taxonomy CUPTI
//! exposes ([`StallReason`]).
//!
//! Key timing rules, mirroring Volta's issue model:
//!
//! * a warp may issue its next instruction once the previous instruction's
//!   control-code **stall count** has elapsed,
//! * instructions with a **wait mask** block until the named scoreboard
//!   barriers clear; barriers are set by variable-latency producers
//!   (write barrier = result, read barrier = WAR protection on stores),
//! * a register **scoreboard interlock** guards cross-block fixed-latency
//!   dependencies the assembler could not cover statically,
//! * `BAR.SYNC` parks warps until the whole block arrives
//!   (synchronization stalls), taken branches pay a front-end redirect,
//!   instruction-cache misses pay a fetch penalty, a full LSU queue
//!   back-pressures memory instructions (memory-throttle stalls) and busy
//!   pipes reject issue (pipe-busy stalls).
//!
//! PC sampling (the paper's Figure 1) is integrated in the main loop: every
//! sampling period each SM samples one warp scheduler round-robin, emitting
//! an *active* or *latency* [`RawSample`] carrying the sampled warp's stall
//! reason. Samples **stream** into a [`SampleSink`]; the default sink
//! aggregates at the source into a columnar per-PC [`SampleSet`] (so peak
//! memory never scales with sample count), while a plain
//! `Vec<RawSample>` sink buffers the raw stream for tests and
//! differential checks (see `docs/profiling.md`).
//!
//! The scheduler core is **event-driven**: on cycles where no warp can
//! issue anywhere, the clock jumps straight to the next warp-ready time or
//! sampling tick instead of spinning (see `docs/simulator.md`). It is the
//! only core a launch can run; the dense per-cycle loop is a reference
//! implementation in [`mod@reference`] that the differential tests call to
//! assert byte-identical [`LaunchResult`]s. Lowering a module for
//! simulation is separable and cacheable: [`CompiledProgram`] is built
//! once per (module, entry) and reused across launches via
//! [`GpuSim::launch_compiled`].
//!
//! # Example
//!
//! ```
//! use gpa_arch::{ArchConfig, LaunchConfig};
//! use gpa_isa::parse_module;
//! use gpa_sim::{GpuSim, SimConfig};
//!
//! let m = parse_module(r#"
//! .kernel k
//!   S2R R0, SR_TID.X {W:B0, S:1}
//!   MOV R1, c[0][0] {S:1}
//!   IADD R2, R0, R1 {WT:[B0], S:4}
//!   EXIT
//! .endfunc
//! "#)?;
//! let mut sim = GpuSim::new(ArchConfig::small(1), SimConfig::default());
//! let mut params = Vec::new();
//! params.extend_from_slice(&7u32.to_le_bytes());
//! let result = sim.launch(&m, "k", &LaunchConfig::new(1, 32), &params).unwrap();
//! assert!(result.cycles > 0);
//! # Ok::<(), gpa_isa::IsaError>(())
//! ```

pub mod exec;
mod hier;
pub mod machine;
pub mod mem;
mod memory;
pub mod program;
mod reconv;
pub mod reference;
pub mod sample;
mod sm;
pub mod stall;
pub mod warp;

pub use machine::{GpuSim, LaunchResult, RawSample, SimConfig, SimStats, SmStats};
pub use mem::GlobalMem;
pub use program::CompiledProgram;
pub use sample::{SampleSet, SampleSink, N_REASONS};
pub use stall::StallReason;

use std::fmt;

/// Errors surfaced while simulating a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The named kernel does not exist in the module.
    UnknownKernel(String),
    /// The module was not linked before launching.
    UnlinkedModule,
    /// The launch configuration is invalid for the machine.
    BadLaunch(String),
    /// The kernel exceeded the configured cycle budget (likely a hang).
    CycleLimit(u64),
    /// A functional fault: bad memory access, unmapped PC, bad operand.
    Fault {
        /// Program counter of the faulting instruction.
        pc: u64,
        /// Explanation of the fault.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownKernel(k) => write!(f, "unknown kernel `{k}`"),
            SimError::UnlinkedModule => write!(f, "module must be linked before launch"),
            SimError::BadLaunch(m) => write!(f, "bad launch configuration: {m}"),
            SimError::CycleLimit(c) => write!(f, "cycle limit {c} exceeded (kernel hang?)"),
            SimError::Fault { pc, message } => write!(f, "fault at {pc:#x}: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;
