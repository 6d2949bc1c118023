//! # GPA-rs — a GPU Performance Advisor based on instruction sampling
//!
//! A from-scratch Rust reproduction of *"GPA: A GPU Performance Advisor
//! Based on Instruction Sampling"* (CGO 2021): a performance advisor that
//! attributes PC-sampling stalls to their root-cause instructions and
//! matches them with optimization suggestions — plus every substrate the
//! paper depends on (a Volta-like ISA, a cycle-level SIMT simulator
//! standing in for the V100, a CUPTI-like sampling layer, and the
//! benchmark suite of its evaluation).
//!
//! The crates re-exported here:
//!
//! * [`isa`] — instructions, control codes, 128-bit encoding, assembler.
//! * [`cfg`](mod@cfg) — control-flow graphs, dominators, loop nests, path queries.
//! * [`arch`] — machine description, latency tables, occupancy.
//! * [`sim`] — the SIMT simulator with PC-sampling hooks.
//! * [`sampling`] — profile aggregation (the CUPTI substitute).
//! * [`structure`] — program structure: functions, loops, lines, scopes.
//! * [`core`] — the paper's contribution: blamer, optimizers, estimators,
//!   and the advice report.
//! * [`kernels`] — the 21-application benchmark suite with
//!   baseline/optimized variants.
//! * [`pipeline`] — the reusable analysis flow: cached [`pipeline::Session`]s,
//!   [`pipeline::AnalysisJob`]s, and the parallel `run_batch` the CLI and
//!   harnesses are built on.
//! * [`serve`] — the advisor as a daemon: a concurrent TCP service with
//!   a JSON-lines protocol, bounded worker pool, and a content-addressed
//!   report store over one shared session.
//!
//! # Quickstart
//!
//! ```
//! use gpa::arch::{ArchConfig, LaunchConfig};
//! use gpa::core::Advisor;
//! use gpa::sampling::Profiler;
//! use gpa::sim::{GpuSim, SimConfig};
//!
//! // A kernel whose loads are consumed immediately (reorder candidate).
//! let module = gpa::isa::parse_module(r#"
//! .module demo
//! .kernel axpy
//!   S2R R0, SR_TID.X {W:B0, S:1}
//!   MOV R2, c[0][0] {S:1}
//!   MOV R3, c[0][4] {S:1}
//!   SHL R1, R0, 2 {WT:[B0], S:2}
//!   IADD R2:R3, R2:R3, R1 {S:2}
//!   LDG.E.32 R4, [R2:R3] {W:B1, S:1}
//!   FFMA R5, R4, 2.0, R4 {WT:[B1], S:4}
//!   STG.E.32 [R2:R3], R5 {R:B2, S:1}
//!   EXIT {WT:[B2], S:1}
//! .endfunc
//! "#)?;
//!
//! let arch = ArchConfig::small(1);
//! let mut profiler = Profiler::new(GpuSim::new(arch.clone(), SimConfig::default()));
//! let program = profiler.gpu().compile(&module, "axpy").expect("kernel lowers");
//! let buf = profiler.gpu_mut().global_mut().alloc(4 * 64);
//! let params: Vec<u8> = buf.to_le_bytes().to_vec();
//! let (profile, _) = profiler
//!     .profile_compiled(&program, &LaunchConfig::new(2, 32), &params, 1)
//!     .expect("kernel runs");
//!
//! let report = Advisor::new().advise(&module, &profile, &arch);
//! assert!(report.total_samples > 0);
//! # Ok::<(), gpa::isa::IsaError>(())
//! ```

pub use gpa_arch as arch;
pub use gpa_cfg as cfg;
pub use gpa_core as core;
pub use gpa_isa as isa;
pub use gpa_json as json;
pub use gpa_kernels as kernels;
pub use gpa_pipeline as pipeline;
pub use gpa_sampling as sampling;
pub use gpa_serve as serve;
pub use gpa_sim as sim;
pub use gpa_structure as structure;
