//! Spans recorded by the harness around calls into each crate's public
//! functions, and the order statistics taken from them.
//!
//! The daemon's inside cannot be instrumented from here (nothing outside
//! `benchmark/` changes), so the layers are traced outside-in: the
//! harness replays the stages of the daemon's request path in-process,
//! one span per call, and separately times the same wave through the
//! live daemon. Spans stay in memory and are written out at exit.

use gpa_json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// `job` of a span that belongs to no single job of the wave.
pub const NO_JOB: u32 = u32::MAX;

/// One timed call: its layer-qualified name, the job (index into the
/// wave) it served, the span that caused it, and its interval in
/// nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(epoch: Instant, capacity: usize) -> SpanLog {
        SpanLog { epoch, spans: Vec::with_capacity(capacity) }
    }

    /// The instant span times count from; logs to be absorbed share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &'static str, job: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { name, job, parent, start_ns, end_ns: start_ns });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        job: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, job, parent);
        let result = std::hint::black_box(f());
        self.close(id);
        result
    }

    /// Appends another log's spans (same epoch), keeping their parents.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len() as u32;
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    /// Each span's duration minus the part its child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let covered = span.end_ns - span.start_ns;
                own[parent as usize] = own[parent as usize].saturating_sub(covered);
            }
        }
        own
    }

    /// Durations of the spans called `name`, in milliseconds, by job.
    fn by_job(&self, name: &str) -> BTreeMap<u32, Vec<f64>> {
        let mut jobs: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            jobs.entry(span.job).or_default().push((span.end_ns - span.start_ns) as f64 / 1e6);
        }
        jobs
    }

    /// The per-job median duration of `name`, in milliseconds.
    pub fn job_medians_ms(&self, name: &str) -> BTreeMap<u32, f64> {
        self.by_job(name).into_iter().map(|(job, ms)| (job, crate::stats::median(ms))).collect()
    }

    /// Σ over jobs of the per-job median of `name`: what one wave spends
    /// in that call, in milliseconds. Zero when the span never ran.
    pub fn wave_ms(&self, name: &str) -> f64 {
        self.job_medians_ms(name).values().sum()
    }

    /// Writes the log as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let spans = self.spans.iter().zip(own).map(|(s, own_ns)| {
            let mut doc = Json::object().with("name", s.name);
            if s.job != NO_JOB {
                doc = doc.with("job", s.job);
            }
            if let Some(parent) = s.parent {
                doc = doc.with("parent", parent);
            }
            doc.with("start_ns", s.start_ns).with("end_ns", s.end_ns).with("self_ns", own_ns)
        });
        std::fs::write(path, Json::object().with("spans", Json::Arr(spans.collect())).compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, job: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, job, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::with_capacity(Instant::now(), 4);
        log.spans = vec![
            span("replay", 0, None, 0, 100),
            span("sim.launch", 0, Some(0), 10, 70),
            span("core.advise", 0, Some(0), 70, 90),
            span("core.blame", 0, Some(2), 72, 80),
        ];
        assert_eq!(log.self_ns(), vec![20, 60, 12, 8]);
    }

    #[test]
    fn wave_time_sums_per_job_medians() {
        let mut log = SpanLog::with_capacity(Instant::now(), 6);
        log.spans = vec![
            span("x", 0, None, 0, 1_000_000),
            span("x", 0, None, 0, 9_000_000),
            span("x", 0, None, 0, 2_000_000),
            span("x", 1, None, 0, 4_000_000),
            span("y", 1, None, 0, 50_000_000),
        ];
        assert_eq!(log.wave_ms("x"), 2.0 + 4.0);
        assert_eq!(log.wave_ms("absent"), 0.0);
        let mut other = SpanLog::with_capacity(Instant::now(), 2);
        other.spans = vec![span("p", 0, None, 0, 10), span("c", 0, Some(0), 0, 5)];
        log.absorb(other);
        assert_eq!(log.spans[6].parent, Some(5));
    }
}
