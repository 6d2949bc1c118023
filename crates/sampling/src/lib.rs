//! PC-sampling profiles — the measurement layer GPA's dynamic analyzer
//! consumes.
//!
//! On real hardware this is CUPTI: samples stream out of each SM, get
//! merged, and are attributed to PCs. Here, [`Profiler`] launches a kernel
//! on the [`gpa_sim`] device and aggregates the raw samples into a
//! [`KernelProfile`]:
//!
//! * per-PC sample counts split by [`StallReason`], separately for all
//!   samples and for **latency samples** (scheduler issued nothing that
//!   cycle — the `L`/`M_L` quantities of the paper's Eqs. 3–5),
//! * kernel-level totals `T`, `A`, `L` and the issue ratio `R_I` used by
//!   the parallel estimators (Eqs. 8–9),
//! * launch statistics (grid, block, occupancy) for the Block/Thread
//!   Increase optimizers,
//! * ground-truth cycles for validating estimates against achieved
//!   speedups.
//!
//! Profiles serialize to JSON for offline analysis, mirroring how GPA dumps
//! profiles for its post-mortem dynamic analysis.
//!
//! Measurement **streams**: the simulator emits samples into a
//! [`SampleSink`] and aggregates at the source into a [`SampleSet`], so
//! nothing retains O(samples) memory; [`KernelProfile::merge`] folds
//! repeated launches together (associative and commutative, with
//! [`KernelProfile::empty_like`] as identity) and
//! [`Profiler::profile_compiled`]'s repeat count drives
//! CUPTI-replay-style noise reduction on top. See `docs/profiling.md`
//! for the full model.

mod decode;
#[cfg(test)]
mod oracle;
pub mod profile;
pub mod profiler;

pub use gpa_sim::{RawSample, SampleSet, SampleSink, StallReason};
pub use profile::{KernelProfile, MergeError, PcStats};
pub use profiler::Profiler;
