//! Streaming sample collection: the [`SampleSink`] the scheduler emits
//! into, and the columnar [`SampleSet`] the default sink aggregates.
//!
//! The measurement layer used to buffer every [`RawSample`] in a `Vec`
//! and aggregate once at the end — O(samples) memory on long kernels.
//! Samples now stream out of the timing loop through a [`SampleSink`];
//! the default sink is a [`SampleSet`] that aggregates **at the source**
//! into per-PC counters (split by stall reason × active/latency) plus
//! the kernel totals `T`/`A`/`L` of the paper's estimators, so peak
//! memory scales with the number of *distinct sampled PCs* (bounded by
//! program size), not with the sample count. A plain `Vec<RawSample>`
//! still implements [`SampleSink`] for tests, figures, and differential
//! checks against the buffered path.

use crate::machine::RawSample;
use crate::stall::StallReason;

/// Number of stall-reason counters per PC (one per [`StallReason`]).
pub const N_REASONS: usize = StallReason::ALL.len();

/// Where the scheduler's PC samples go.
///
/// Implementations must be order-insensitive in their *final state* only
/// if they aggregate; the simulator emits samples in a deterministic
/// order (cycle-major, SM-major, scheduler-major), so a raw-collecting
/// sink observes a reproducible stream.
pub trait SampleSink {
    /// Accepts one sample.
    fn record(&mut self, sample: RawSample);
}

/// The raw-collecting sink: every sample, in emission order. Memory is
/// O(samples) — use it for tests, per-sample inspection (Figure 1), and
/// the sink-vs-buffered differential checks, not for production paths.
impl SampleSink for Vec<RawSample> {
    fn record(&mut self, sample: RawSample) {
        self.push(sample);
    }
}

/// Columnar per-PC sample statistics, aggregated at the source.
///
/// Three parallel columns keyed by a sorted PC list: all samples by
/// stall reason, latency samples (scheduler issued nothing) by stall
/// reason, plus the kernel totals `T` (total) and `A` (active); `L`
/// is derived (`T − A`). Aggregating two streams of the same launch
/// yields the same set regardless of interleaving — counters are
/// commutative — which is what makes multi-launch merging sound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleSet {
    /// Sampled PCs, sorted ascending (the column key).
    pcs: Vec<u64>,
    /// All samples at `pcs[i]`, indexed by [`StallReason::code`].
    by_reason: Vec<[u64; N_REASONS]>,
    /// Latency samples at `pcs[i]`, indexed by [`StallReason::code`].
    latency_by_reason: Vec<[u64; N_REASONS]>,
    /// Kernel total sample count `T`.
    total_samples: u64,
    /// Kernel active sample count `A`.
    active_samples: u64,
}

impl SampleSet {
    /// An empty set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Aggregates a buffered sample stream (the old measurement path,
    /// kept for differential checks: feeding the raw stream through here
    /// must equal the set the default sink built incrementally).
    pub fn from_raw(samples: &[RawSample]) -> Self {
        let mut set = SampleSet::new();
        for &s in samples {
            set.record(s);
        }
        set
    }

    /// Column index for `pc`, inserting a zeroed row if unseen. The PC
    /// list stays sorted at all times, so lookups are binary searches
    /// and the set is always in canonical (comparable) form.
    fn slot(&mut self, pc: u64) -> usize {
        let i = self.pcs.partition_point(|&p| p < pc);
        if self.pcs.get(i) != Some(&pc) {
            self.pcs.insert(i, pc);
            self.by_reason.insert(i, [0; N_REASONS]);
            self.latency_by_reason.insert(i, [0; N_REASONS]);
        }
        i
    }

    /// Whether the set holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.total_samples == 0
    }

    /// Total samples `T`.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Active samples `A` (the sampled scheduler issued that cycle).
    pub fn active_samples(&self) -> u64 {
        self.active_samples
    }

    /// Latency samples `L = T − A`.
    pub fn latency_samples(&self) -> u64 {
        self.total_samples - self.active_samples
    }

    /// Stall samples (everything but `Selected`).
    pub fn stall_samples(&self) -> u64 {
        self.total_samples - self.reason_total(StallReason::Selected)
    }

    /// Counters for one PC: `(all samples, latency samples)` by reason.
    pub fn pc(&self, pc: u64) -> Option<(&[u64; N_REASONS], &[u64; N_REASONS])> {
        let i = self.pcs.binary_search(&pc).ok()?;
        Some((&self.by_reason[i], &self.latency_by_reason[i]))
    }

    /// Iterates `(pc, all-by-reason, latency-by-reason)` in PC order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64; N_REASONS], &[u64; N_REASONS])> {
        self.pcs
            .iter()
            .zip(self.by_reason.iter().zip(self.latency_by_reason.iter()))
            .map(|(&pc, (by, lat))| (pc, by, lat))
    }

    /// Total samples with the given stall reason, across all PCs.
    pub fn reason_total(&self, r: StallReason) -> u64 {
        let code = r.code() as usize;
        self.by_reason.iter().map(|row| row[code]).sum()
    }
}

/// The default, at-source aggregating sink.
impl SampleSink for SampleSet {
    fn record(&mut self, sample: RawSample) {
        let code = sample.stall.code() as usize;
        let i = self.slot(sample.pc);
        self.by_reason[i][code] += 1;
        if !sample.scheduler_active {
            self.latency_by_reason[i][code] += 1;
        }
        self.total_samples += 1;
        if sample.scheduler_active {
            self.active_samples += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pc: u64, stall: StallReason, active: bool) -> RawSample {
        RawSample { sm: 0, scheduler: 0, cycle: 0, pc, stall, scheduler_active: active }
    }

    #[test]
    fn aggregation_counts_match_the_stream() {
        let stream = vec![
            sample(0x20, StallReason::MemoryDependency, false),
            sample(0x10, StallReason::Selected, true),
            sample(0x20, StallReason::MemoryDependency, true),
            sample(0x30, StallReason::Synchronization, false),
        ];
        let set = SampleSet::from_raw(&stream);
        assert_eq!(set.total_samples(), 4);
        assert_eq!(set.active_samples(), 2);
        assert_eq!(set.latency_samples(), 2);
        assert_eq!(set.stall_samples(), 3);
        assert_eq!(set.reason_total(StallReason::MemoryDependency), 2);
        let (by, lat) = set.pc(0x20).unwrap();
        assert_eq!(by[StallReason::MemoryDependency.code() as usize], 2);
        assert_eq!(lat[StallReason::MemoryDependency.code() as usize], 1);
        assert!(set.pc(0x40).is_none());
    }

    #[test]
    fn pcs_iterate_sorted_regardless_of_arrival_order() {
        let shuffled = vec![
            sample(0x30, StallReason::Selected, true),
            sample(0x10, StallReason::Selected, true),
            sample(0x20, StallReason::Selected, true),
            sample(0x10, StallReason::Selected, true),
        ];
        let set = SampleSet::from_raw(&shuffled);
        let pcs: Vec<u64> = set.iter().map(|(pc, _, _)| pc).collect();
        assert_eq!(pcs, vec![0x10, 0x20, 0x30]);
    }

    #[test]
    fn interleaving_does_not_change_the_set() {
        let a = sample(0x10, StallReason::MemoryDependency, false);
        let b = sample(0x20, StallReason::Selected, true);
        assert_eq!(SampleSet::from_raw(&[a, b, a]), SampleSet::from_raw(&[a, a, b]));
    }

    #[test]
    fn empty_set_is_safe() {
        let set = SampleSet::new();
        assert!(set.is_empty());
        assert_eq!(set.latency_samples(), 0);
        assert_eq!(set.stall_samples(), 0);
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn vec_sink_preserves_the_raw_stream() {
        let mut raw: Vec<RawSample> = Vec::new();
        let s1 = sample(0x10, StallReason::Selected, true);
        let s2 = sample(0x20, StallReason::PipeBusy, false);
        raw.record(s1);
        raw.record(s2);
        assert_eq!(raw, vec![s1, s2]);
    }
}
