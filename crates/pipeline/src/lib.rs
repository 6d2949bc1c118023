//! The reusable analysis pipeline — profile → blame → advise as a
//! service, not as copy-pasted glue.
//!
//! The paper presents GPA as "a command line tool that automates the
//! profiling and analysis stages". Before this crate existed, that
//! automation was re-implemented by every consumer: the CLI, the Table 3
//! harness, the figure binaries and the examples each wired
//! simulator-construction, sampling, blaming and advising by hand. This
//! crate centralizes the flow behind three concepts:
//!
//! * [`Session`] — owns the experiment configuration ([`ArchConfig`],
//!   [`SimConfig`], [`LatencyTable`], suite [`Params`]) and a
//!   per-module artifact cache: the built kernel variant (module +
//!   setup), its CFG-bearing [`ProgramStructure`] and launch metadata
//!   are constructed once and shared via [`Arc`] across every run that
//!   needs them.
//! * [`AnalysisJob`] / [`AnalysisOutcome`] — one app-variant analysis
//!   request and everything it produces: the PC-sampling profile,
//!   ground-truth cycles, the ranked advice report and wall-clock time.
//! * [`Session::run_batch`] — a rayon-powered fan-out over many jobs
//!   (e.g. the 21 benchmark apps × variants) with deterministic,
//!   input-ordered results regardless of worker scheduling.
//!
//! # Example
//!
//! ```
//! use gpa_pipeline::{AnalysisJob, Session};
//!
//! let session = Session::test();
//! let jobs = vec![
//!     AnalysisJob::new("rodinia/hotspot", 0),
//!     AnalysisJob::new("rodinia/gaussian", 0),
//! ];
//! let outcomes = session.run_batch(&jobs);
//! assert_eq!(outcomes.len(), 2);
//! for out in outcomes {
//!     let out = out.expect("simulation succeeds");
//!     assert!(out.profile.total_samples > 0);
//! }
//! ```
//!
//! [`Arc`]: std::sync::Arc
//! [`ArchConfig`]: gpa_arch::ArchConfig
//! [`SimConfig`]: gpa_sim::SimConfig
//! [`LatencyTable`]: gpa_arch::LatencyTable
//! [`Params`]: gpa_kernels::Params
//! [`ProgramStructure`]: gpa_structure::ProgramStructure

pub mod job;
pub mod session;

pub use job::{advice_v1, outcome_envelope, AnalysisError, AnalysisJob, AnalysisOutcome};
pub use session::{ModuleArtifacts, Session};
