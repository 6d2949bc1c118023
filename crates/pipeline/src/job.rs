//! Analysis jobs, their outcomes, and machine-readable rendering.

use crate::session::ModuleArtifacts;
use gpa_core::AdviceReport;
use gpa_json::{Json, Writer};
use gpa_sampling::KernelProfile;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// One analysis request: an application (by registry name) and a variant
/// index (0 = baseline, `k` = first `k` Table 3 optimizations applied).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnalysisJob {
    /// Registry name, e.g. `"rodinia/hotspot"`.
    pub app: String,
    /// Variant index.
    pub variant: usize,
}

impl AnalysisJob {
    /// A job for `app`'s `variant`.
    pub fn new(app: impl Into<String>, variant: usize) -> Self {
        AnalysisJob { app: app.into(), variant }
    }
}

impl fmt::Display for AnalysisJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} v{}", self.app, self.variant)
    }
}

/// Everything one app-variant analysis produces.
#[derive(Clone)]
pub struct AnalysisOutcome {
    /// The job this outcome answers.
    pub job: AnalysisJob,
    /// Kernel symbol analyzed.
    pub kernel: String,
    /// The PC-sampling profile.
    pub profile: KernelProfile,
    /// Ground-truth kernel cycles.
    pub cycles: u64,
    /// The ranked advice report.
    pub report: AdviceReport,
    /// Wall-clock time of this run (simulate + profile + advise).
    pub wall: Duration,
    /// The cached module artifacts the run used (shared across variants
    /// of repeated jobs — see [`crate::Session`]).
    pub artifacts: Arc<ModuleArtifacts>,
}

impl fmt::Debug for AnalysisOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // KernelSpec's setup closure has no Debug; summarize instead.
        f.debug_struct("AnalysisOutcome")
            .field("job", &self.job)
            .field("kernel", &self.kernel)
            .field("cycles", &self.cycles)
            .field("total_samples", &self.profile.total_samples)
            .field("advice_items", &self.report.items.len())
            .field("wall", &self.wall)
            .finish_non_exhaustive()
    }
}

/// Writes the six identity-and-counter members every rendering of an
/// analysis opens with, in wire order, into the writer's open object:
/// the CLI's `--json` documents and the daemon's result bodies, in both
/// schema versions.
pub fn outcome_envelope(
    w: &mut Writer,
    job: &AnalysisJob,
    kernel: &str,
    cycles: u64,
    profile: &KernelProfile,
) {
    w.field("app", &job.app)
        .field("variant", job.variant)
        .field("kernel", kernel)
        .field("cycles", cycles)
        .field("total_samples", profile.total_samples)
        .field("issue_ratio", profile.issue_ratio());
}

/// Writes the flat **v1** advice summary — rank, optimizer, estimated
/// speedup and matched ratio per item — as the writer's next value. It
/// is kept byte-stable: it is what every request that negotiates no
/// schema gets.
pub fn advice_v1(w: &mut Writer, report: &AdviceReport) {
    w.array(report.items.iter().enumerate(), |w, (rank, item)| {
        w.object(|w| {
            w.field("rank", rank + 1)
                .field("optimizer", item.optimizer())
                .field("estimated_speedup", item.estimated_speedup)
                .field("matched_ratio", item.matched_ratio);
        });
    });
}

impl AnalysisOutcome {
    /// [`outcome_envelope`] plus this run's wall-clock time, then the
    /// advice `advice` writes.
    fn document(&self, advice: impl FnOnce(&mut Writer)) -> Json {
        let mut w = Writer::default();
        w.object(|w| {
            outcome_envelope(w, &self.job, &self.kernel, self.cycles, &self.profile);
            w.field("wall_ms", self.wall.as_secs_f64() * 1e3);
            advice(w);
        });
        w.finish().tree()
    }

    /// A machine-readable summary: identity, counters, and the ranked
    /// advice in the [v1 shape](advice_v1); the full structured report is
    /// [`AnalysisOutcome::to_json_v2`].
    pub fn to_json(&self) -> Json {
        self.document(|w| advice_v1(w.key("advice"), &self.report))
    }

    /// The outcome with its advice as the full machine-readable **v2**
    /// report ([`gpa_core::schema`]): identity and counters as in
    /// [`AnalysisOutcome::to_json`], plus the versioned `report`
    /// document instead of the flat `advice` summary.
    pub fn to_json_v2(&self) -> Json {
        self.document(|w| gpa_core::schema::write_report(w.key("report"), &self.report))
    }
}

/// A failed analysis: which job, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    /// The failing job.
    pub job: AnalysisJob,
    /// Human-readable cause (unknown app, bad variant, simulator fault).
    pub message: String,
}

impl AnalysisError {
    pub(crate) fn new(job: &AnalysisJob, message: impl Into<String>) -> Self {
        AnalysisError { job: job.clone(), message: message.into() }
    }

    /// A machine-readable rendering, shaped like a failed
    /// [`AnalysisOutcome::to_json`].
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("app", self.job.app.clone())
            .with("variant", self.job.variant)
            .with("error", self.message.clone())
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} v{}: {}", self.job.app, self.job.variant, self.message)
    }
}

impl std::error::Error for AnalysisError {}
