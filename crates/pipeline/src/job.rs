//! Analysis jobs, their outcomes, and machine-readable rendering.

use crate::session::ModuleArtifacts;
use gpa_core::AdviceReport;
use gpa_json::Json;
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

/// The six identity-and-counter fields every rendering of an analysis
/// opens with, in wire order: the CLI's `--json` documents and the
/// daemon's result bodies, in both schema versions.
pub fn outcome_envelope(
    job: &AnalysisJob,
    kernel: &str,
    cycles: u64,
    profile: &KernelProfile,
) -> Json {
    Json::object()
        .with("app", job.app.clone())
        .with("variant", job.variant)
        .with("kernel", kernel)
        .with("cycles", cycles)
        .with("total_samples", profile.total_samples)
        .with("issue_ratio", profile.issue_ratio())
}

/// The flat **v1** advice summary — rank, optimizer, estimated speedup
/// and matched ratio per item — kept byte-stable: it is what every
/// request that negotiates no schema gets.
pub fn advice_v1(report: &AdviceReport) -> Json {
    let items = report.items.iter().enumerate().map(|(rank, item)| {
        Json::object()
            .with("rank", rank + 1)
            .with("optimizer", item.optimizer())
            .with("estimated_speedup", item.estimated_speedup)
            .with("matched_ratio", item.matched_ratio)
    });
    Json::Arr(items.collect())
}

impl AnalysisOutcome {
    /// [`outcome_envelope`] plus this run's wall-clock time.
    fn envelope(&self) -> Json {
        outcome_envelope(&self.job, &self.kernel, self.cycles, &self.profile)
            .with("wall_ms", self.wall.as_secs_f64() * 1e3)
    }

    /// A machine-readable summary: identity, counters, and the ranked
    /// advice in the [v1 shape](advice_v1); the full structured report is
    /// [`AnalysisOutcome::to_json_v2`].
    pub fn to_json(&self) -> Json {
        self.envelope().with("advice", advice_v1(&self.report))
    }

    /// The outcome with its advice as the full machine-readable **v2**
    /// report ([`gpa_core::schema`]): identity and counters as in
    /// [`AnalysisOutcome::to_json`], plus the versioned `report`
    /// document instead of the flat `advice` summary.
    pub fn to_json_v2(&self) -> Json {
        self.envelope().with("report", gpa_core::schema::report_to_json(&self.report))
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
