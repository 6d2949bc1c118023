//! Aggregated kernel profiles: construction from streamed [`SampleSet`]s,
//! associative/commutative multi-launch merging, and the (strictly
//! validated) JSON schema.

use gpa_arch::{LaunchConfig, OccLimiter, Occupancy};
use gpa_json::Json;
use gpa_sim::{LaunchResult, SampleSet, StallReason};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

pub(crate) const N_REASONS: usize = gpa_sim::N_REASONS;

/// Sample statistics for one program counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcStats {
    /// Total samples observed at this PC.
    pub total: u64,
    /// All samples by stall reason (indexed by [`StallReason::code`]).
    pub by_reason: [u64; N_REASONS],
    /// Latency samples (scheduler issued nothing) by stall reason.
    pub latency_by_reason: [u64; N_REASONS],
}

impl PcStats {
    /// Samples where this PC's warp was issuing (`Selected`).
    pub fn issued_samples(&self) -> u64 {
        self.by_reason[StallReason::Selected.code() as usize]
    }

    /// Samples with the given stall reason.
    pub fn stalls(&self, r: StallReason) -> u64 {
        self.by_reason[r.code() as usize]
    }

    /// Latency samples with the given stall reason.
    pub fn latency_stalls(&self, r: StallReason) -> u64 {
        self.latency_by_reason[r.code() as usize]
    }

    /// Total stall samples (everything but `Selected`).
    pub fn total_stalls(&self) -> u64 {
        self.total - self.issued_samples()
    }
}

/// A full PC-sampling profile of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel (entry function) name.
    pub kernel: String,
    /// Module the kernel came from.
    pub module_name: String,
    /// Architecture tag.
    pub arch: String,
    /// Sampling period in cycles.
    pub period: u32,
    /// Launch configuration.
    pub launch: LaunchConfig,
    /// Achieved occupancy.
    pub occupancy: Occupancy,
    /// Ground-truth kernel cycles (for validating estimates).
    pub cycles: u64,
    /// Ground-truth instructions issued.
    pub issued: u64,
    /// Per-PC statistics.
    pub pcs: BTreeMap<u64, PcStats>,
    /// Total samples (`T` in the paper's estimators).
    pub total_samples: u64,
    /// Active samples (`A`): the scheduler issued in the sampled cycle.
    pub active_samples: u64,
    /// Latency samples (`L = T − A`).
    pub latency_samples: u64,
    /// Global-memory transactions (32-byte sectors).
    pub mem_transactions: u64,
    /// L2 hits/misses.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
}

impl KernelProfile {
    /// Builds a profile from a launch's aggregated [`SampleSet`] (the
    /// default measurement path — the raw samples were never buffered).
    pub fn from_launch(
        kernel: &str,
        module_name: &str,
        arch: &str,
        period: u32,
        result: &LaunchResult,
    ) -> Self {
        Self::from_set(kernel, module_name, arch, period, &result.samples, result)
    }

    /// Builds a profile from an explicit [`SampleSet`] plus a launch's
    /// ground-truth metadata. Use this when the samples streamed into an
    /// external sink (so `result.samples` is empty) or were aggregated
    /// from a buffered raw stream.
    pub fn from_set(
        kernel: &str,
        module_name: &str,
        arch: &str,
        period: u32,
        set: &SampleSet,
        result: &LaunchResult,
    ) -> Self {
        let mut pcs: BTreeMap<u64, PcStats> = BTreeMap::new();
        for (pc, by_reason, latency_by_reason) in set.iter() {
            pcs.insert(
                pc,
                PcStats {
                    total: by_reason.iter().sum(),
                    by_reason: *by_reason,
                    latency_by_reason: *latency_by_reason,
                },
            );
        }
        KernelProfile {
            kernel: kernel.to_string(),
            module_name: module_name.to_string(),
            arch: arch.to_string(),
            period,
            launch: result.launch,
            occupancy: result.occupancy,
            cycles: result.cycles,
            issued: result.issued,
            pcs,
            total_samples: set.total_samples(),
            active_samples: set.active_samples(),
            latency_samples: set.latency_samples(),
            mem_transactions: result.mem_transactions,
            l2_hits: result.l2_hits,
            l2_misses: result.l2_misses,
            icache_misses: result.icache_misses,
        }
    }

    /// A profile with this profile's identity (kernel, module, arch,
    /// period, launch, occupancy) and zero measurements — the identity
    /// element of [`KernelProfile::merge`].
    pub fn empty_like(&self) -> Self {
        KernelProfile {
            kernel: self.kernel.clone(),
            module_name: self.module_name.clone(),
            arch: self.arch.clone(),
            period: self.period,
            launch: self.launch,
            occupancy: self.occupancy,
            cycles: 0,
            issued: 0,
            pcs: BTreeMap::new(),
            total_samples: 0,
            active_samples: 0,
            latency_samples: 0,
            mem_transactions: 0,
            l2_hits: 0,
            l2_misses: 0,
            icache_misses: 0,
        }
    }

    /// Merges another launch's profile of the **same kernel
    /// configuration** into this one (CUPTI-replay style): sample
    /// counters add pointwise (per PC and the kernel totals `T`/`A`/`L`),
    /// while per-launch ground-truth measurements (cycles, issued,
    /// memory/L2/i-cache counters) take the maximum — identical across
    /// deterministic replays, so merging `n` repeats of one launch leaves
    /// them untouched while the sample statistics sharpen.
    ///
    /// The operation is associative and commutative, with
    /// [`KernelProfile::empty_like`] as identity — repeat profiling may
    /// fold launches in any order. Counter
    /// additions are overflow-checked: a merge that would wrap `u64`
    /// fails with [`MergeError::CounterOverflow`] instead of producing
    /// an internally inconsistent profile (so a merged profile of
    /// consistent inputs is always itself consistent).
    ///
    /// # Errors
    ///
    /// When the two profiles disagree on kernel identity, architecture,
    /// sampling period, launch configuration, or occupancy.
    pub fn merge_in(&mut self, other: &KernelProfile) -> Result<(), MergeError> {
        fn check<T: PartialEq + fmt::Debug>(
            field: &'static str,
            a: &T,
            b: &T,
        ) -> Result<(), MergeError> {
            if a == b {
                Ok(())
            } else {
                Err(MergeError::Mismatch { field, left: format!("{a:?}"), right: format!("{b:?}") })
            }
        }
        fn add(field: &'static str, a: u64, b: u64) -> Result<u64, MergeError> {
            a.checked_add(b).ok_or(MergeError::CounterOverflow { field })
        }
        check("kernel", &self.kernel, &other.kernel)?;
        check("module_name", &self.module_name, &other.module_name)?;
        check("arch", &self.arch, &other.arch)?;
        check("period", &self.period, &other.period)?;
        check("launch", &self.launch, &other.launch)?;
        check("occupancy", &self.occupancy, &other.occupancy)?;
        // Validate every addition before mutating anything, so a failed
        // merge leaves `self` untouched.
        for (&pc, st) in &other.pcs {
            if let Some(e) = self.pcs.get(&pc) {
                add("pcs", e.total, st.total)?;
                for (a, b) in e.by_reason.iter().zip(&st.by_reason) {
                    add("pcs", *a, *b)?;
                }
                for (a, b) in e.latency_by_reason.iter().zip(&st.latency_by_reason) {
                    add("pcs", *a, *b)?;
                }
            }
        }
        let total = add("total_samples", self.total_samples, other.total_samples)?;
        let active = add("active_samples", self.active_samples, other.active_samples)?;
        let latency = add("latency_samples", self.latency_samples, other.latency_samples)?;
        for (&pc, st) in &other.pcs {
            let e = self.pcs.entry(pc).or_default();
            e.total += st.total;
            for (a, b) in e.by_reason.iter_mut().zip(&st.by_reason) {
                *a += b;
            }
            for (a, b) in e.latency_by_reason.iter_mut().zip(&st.latency_by_reason) {
                *a += b;
            }
        }
        self.total_samples = total;
        self.active_samples = active;
        self.latency_samples = latency;
        self.cycles = self.cycles.max(other.cycles);
        self.issued = self.issued.max(other.issued);
        self.mem_transactions = self.mem_transactions.max(other.mem_transactions);
        self.l2_hits = self.l2_hits.max(other.l2_hits);
        self.l2_misses = self.l2_misses.max(other.l2_misses);
        self.icache_misses = self.icache_misses.max(other.icache_misses);
        Ok(())
    }

    /// [`KernelProfile::merge_in`] returning the merged profile.
    ///
    /// # Errors
    ///
    /// Same as [`KernelProfile::merge_in`].
    pub fn merge(&self, other: &KernelProfile) -> Result<KernelProfile, MergeError> {
        let mut merged = self.clone();
        merged.merge_in(other)?;
        Ok(merged)
    }

    /// Kernel-level stall histogram over all samples.
    pub fn stall_histogram(&self) -> [u64; N_REASONS] {
        let mut h = [0u64; N_REASONS];
        for st in self.pcs.values() {
            for (i, c) in st.by_reason.iter().enumerate() {
                h[i] += c;
            }
        }
        h
    }

    /// The issue ratio `R_I` — the fraction of samples in which the
    /// sampled scheduler was issuing (Eq. 8's input).
    pub fn issue_ratio(&self) -> f64 {
        if self.total_samples == 0 {
            return 0.0;
        }
        self.active_samples as f64 / self.total_samples as f64
    }

    /// Stats for one PC, if sampled.
    pub fn pc(&self, pc: u64) -> Option<&PcStats> {
        self.pcs.get(&pc)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_doc().pretty()
    }

    /// The profile as a JSON document (the single place the wire/file
    /// layout lives; `compact()` of this is the canonical rendering the
    /// daemon content-addresses).
    pub fn to_doc(&self) -> Json {
        let pcs = Json::Obj(
            self.pcs
                .iter()
                .map(|(pc, st)| {
                    let stats = Json::object()
                        .with("total", st.total)
                        .with("by_reason", st.by_reason.to_vec())
                        .with("latency_by_reason", st.latency_by_reason.to_vec());
                    (pc.to_string(), stats)
                })
                .collect(),
        );
        Json::object()
            .with("kernel", self.kernel.clone())
            .with("module_name", self.module_name.clone())
            .with("arch", self.arch.clone())
            .with("period", self.period)
            .with(
                "launch",
                Json::object()
                    .with("grid_blocks", self.launch.grid_blocks)
                    .with("block_threads", self.launch.block_threads)
                    .with("regs_per_thread", self.launch.regs_per_thread)
                    .with("smem_per_block", self.launch.smem_per_block),
            )
            .with(
                "occupancy",
                Json::object()
                    .with("blocks_per_sm", self.occupancy.blocks_per_sm)
                    .with("warps_per_sm", self.occupancy.warps_per_sm)
                    .with("warps_per_scheduler", self.occupancy.warps_per_scheduler)
                    .with("limiter", limiter_str(self.occupancy.limiter))
                    .with("ratio", self.occupancy.ratio),
            )
            .with("cycles", self.cycles)
            .with("issued", self.issued)
            .with("pcs", pcs)
            .with("total_samples", self.total_samples)
            .with("active_samples", self.active_samples)
            .with("latency_samples", self.latency_samples)
            .with("mem_transactions", self.mem_transactions)
            .with("l2_hits", self.l2_hits)
            .with("l2_misses", self.l2_misses)
            .with("icache_misses", self.icache_misses)
    }

    /// Parses a profile from JSON text, straight into the profile (no
    /// document tree is built).
    ///
    /// Validation is **strict**: unknown and repeated fields (at the top
    /// level, in `launch`, `occupancy` and each per-PC stats object) are
    /// rejected rather than silently dropped, a PC key must be its own
    /// canonical decimal rendering and may not repeat, and the document
    /// must be internally consistent — each PC's `total` must equal the
    /// sum of its stall-reason counters, latency counters can never
    /// exceed their all-sample counterparts, and the kernel totals must
    /// equal the sums over the `pcs` table.
    ///
    /// # Errors
    ///
    /// Returns a [`gpa_json::JsonError`] on malformed JSON, or when
    /// fields are missing, of the wrong type, unknown, repeated, or
    /// inconsistent.
    pub fn from_json(s: &str) -> gpa_json::Result<Self> {
        let mut reader = gpa_json::Reader::new(s);
        let profile = Self::from_reader(&mut reader)?;
        reader.finish()?;
        profile
    }

    /// Writes the profile to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a profile from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed JSON maps to
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Two profiles that cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The profiles describe different kernels, configurations, or
    /// sampling setups.
    Mismatch {
        /// The profile field that disagrees.
        field: &'static str,
        /// The left profile's value (debug-rendered).
        left: String,
        /// The right profile's value (debug-rendered).
        right: String,
    },
    /// Adding the profiles' counters would overflow `u64` — merging
    /// would produce an internally inconsistent profile, so the merge
    /// is refused instead (real sample counts are bounded by kernel
    /// cycles; only crafted inputs get here).
    CounterOverflow {
        /// Which counter family overflowed.
        field: &'static str,
    },
}

impl MergeError {
    /// The profile field the error is about.
    pub fn field(&self) -> &'static str {
        match self {
            MergeError::Mismatch { field, .. } | MergeError::CounterOverflow { field } => field,
        }
    }
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Mismatch { field, left, right } => write!(
                f,
                "profiles disagree on `{field}`: {left} vs {right} \
                 (merge requires identical kernel configurations)"
            ),
            MergeError::CounterOverflow { field } => {
                write!(f, "merging would overflow the `{field}` counters")
            }
        }
    }
}

impl std::error::Error for MergeError {}

fn limiter_str(l: OccLimiter) -> &'static str {
    match l {
        OccLimiter::Warps => "Warps",
        OccLimiter::Registers => "Registers",
        OccLimiter::SharedMem => "SharedMem",
        OccLimiter::Blocks => "Blocks",
        OccLimiter::GridSize => "GridSize",
    }
}

pub(crate) fn limiter_from_str(s: &str) -> gpa_json::Result<OccLimiter> {
    Ok(match s {
        "Warps" => OccLimiter::Warps,
        "Registers" => OccLimiter::Registers,
        "SharedMem" => OccLimiter::SharedMem,
        "Blocks" => OccLimiter::Blocks,
        "GridSize" => OccLimiter::GridSize,
        _ => return Err(gpa_json::JsonError::from_msg(format!("unknown limiter `{s}`"))),
    })
}

impl PcStats {
    /// Total latency samples (scheduler idle) at this PC.
    pub fn latency_total(&self) -> u64 {
        self.latency_by_reason.iter().sum()
    }

    /// Total active samples (scheduler issuing) at this PC.
    pub fn active_total(&self) -> u64 {
        self.total - self.latency_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arch::ArchConfig;
    use gpa_sim::RawSample;

    fn fake_result(samples: Vec<RawSample>) -> LaunchResult {
        let arch = ArchConfig::small(1);
        let launch = LaunchConfig::new(1, 32);
        LaunchResult {
            cycles: 1000,
            issued: 100,
            samples: SampleSet::from_raw(&samples),
            issue_counts: Default::default(),
            mem_transactions: 5,
            l2_hits: 3,
            l2_misses: 2,
            icache_misses: 1,
            occupancy: arch.occupancy(&launch),
            launch,
            sm_stats: vec![],
            sim_stats: Default::default(),
        }
    }

    fn sample(pc: u64, stall: StallReason, active: bool) -> RawSample {
        RawSample { sm: 0, scheduler: 0, cycle: 0, pc, stall, scheduler_active: active }
    }

    #[test]
    fn aggregation_matches_figure1_model() {
        // Figure 1: six samples — three latency (all stalls), two active
        // with stalls (other warp issued), one active issuing.
        let samples = vec![
            sample(0x10, StallReason::MemoryDependency, false),
            sample(0x20, StallReason::Selected, true),
            sample(0x10, StallReason::ExecutionDependency, true),
            sample(0x30, StallReason::MemoryDependency, false),
            sample(0x10, StallReason::NotSelected, true),
            sample(0x30, StallReason::Synchronization, false),
        ];
        let p = KernelProfile::from_launch("k", "m", "volta", 509, &fake_result(samples));
        assert_eq!(p.total_samples, 6);
        assert_eq!(p.active_samples, 3);
        assert_eq!(p.latency_samples, 3);
        assert_eq!(p.issue_ratio(), 0.5);
        let stalls: u64 = StallReason::ALL
            .iter()
            .filter(|r| r.is_stall())
            .map(|r| p.stall_histogram()[r.code() as usize])
            .sum();
        assert_eq!(stalls, 5, "five stall samples");
        let at10 = p.pc(0x10).unwrap();
        assert_eq!(at10.total, 3);
        assert_eq!(at10.stalls(StallReason::MemoryDependency), 1);
        assert_eq!(at10.latency_stalls(StallReason::MemoryDependency), 1);
        assert_eq!(at10.latency_stalls(StallReason::ExecutionDependency), 0);
    }

    #[test]
    fn json_roundtrip() {
        let samples = vec![
            sample(0x10, StallReason::MemoryDependency, false),
            sample(0x20, StallReason::Selected, true),
        ];
        let p = KernelProfile::from_launch("k", "m", "volta", 509, &fake_result(samples));
        let p2 = KernelProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, p2);
    }

    /// A small valid profile's JSON text, as surgery material for the
    /// error-path tests below.
    fn valid_profile_text() -> String {
        let samples = vec![
            sample(0x10, StallReason::MemoryDependency, false),
            sample(0x20, StallReason::Selected, true),
        ];
        KernelProfile::from_launch("k", "m", "volta", 509, &fake_result(samples)).to_json()
    }

    #[test]
    fn missing_fields_are_named_in_the_error() {
        let text = valid_profile_text();
        for field in ["kernel", "arch", "period", "launch", "occupancy", "pcs", "cycles"] {
            let broken = text.replacen(&format!("\"{field}\""), "\"_gone\"", 1);
            let err = KernelProfile::from_json(&broken).unwrap_err();
            assert!(
                err.to_string().contains(&format!("missing field `{field}`")),
                "dropping {field}: {err}"
            );
        }
    }

    #[test]
    fn wrong_types_are_type_errors_not_panics() {
        let text = valid_profile_text();
        for (needle, replacement, expect) in [
            ("\"period\": 509", "\"period\": \"509\"", "expected unsigned integer"),
            ("\"kernel\": \"k\"", "\"kernel\": 7", "expected string"),
            ("\"cycles\": 1000", "\"cycles\": -5", "expected unsigned integer"),
            ("\"period\": 509", "\"period\": 99999999999", "exceeds u32"),
        ] {
            assert!(text.contains(needle), "surgery target {needle:?} present");
            let broken = text.replacen(needle, replacement, 1);
            let err = KernelProfile::from_json(&broken).unwrap_err();
            assert!(err.to_string().contains(expect), "{replacement}: {err}");
        }
    }

    #[test]
    fn bad_pc_keys_and_reason_arrays_are_rejected() {
        let text = valid_profile_text();
        let broken = text.replacen("\"16\"", "\"sixteen\"", 1);
        let err = KernelProfile::from_json(&broken).unwrap_err();
        assert!(err.to_string().contains("bad pc key `sixteen`"), "{err}");

        // One counter short in a by_reason array: mutate the parsed
        // document so the test is independent of pretty-print layout.
        let mut doc = Json::parse(&text).unwrap();
        let Json::Obj(fields) = &mut doc else { panic!("profile is an object") };
        let pcs = fields.iter_mut().find(|(k, _)| k == "pcs").map(|(_, v)| v).unwrap();
        let Json::Obj(pc_entries) = pcs else { panic!("pcs is an object") };
        let Json::Obj(stats) = &mut pc_entries[0].1 else { panic!("stats is an object") };
        let reasons = stats.iter_mut().find(|(k, _)| k == "by_reason").map(|(_, v)| v).unwrap();
        let Json::Arr(counters) = reasons else { panic!("by_reason is an array") };
        counters.pop();
        let err = KernelProfile::from_doc(&doc).unwrap_err();
        assert!(err.to_string().contains("stall-reason counters"), "{err}");
    }

    #[test]
    fn unknown_limiter_is_rejected() {
        let text = valid_profile_text();
        let limiter = format!("\"limiter\": \"{:?}\"", OccLimiter::GridSize);
        assert!(text.contains(&limiter), "surgery target present in {text}");
        let broken = text.replacen(&limiter, "\"limiter\": \"Vibes\"", 1);
        let err = KernelProfile::from_json(&broken).unwrap_err();
        assert!(err.to_string().contains("unknown limiter `Vibes`"), "{err}");
    }

    #[test]
    fn truncated_input_is_a_parse_error_at_every_cut() {
        let text = valid_profile_text();
        // Cut at several byte offsets, including mid-string and
        // mid-number; every prefix must fail cleanly.
        for cut in [1, text.len() / 4, text.len() / 2, text.len() - 2] {
            let truncated = &text[..cut];
            assert!(KernelProfile::from_json(truncated).is_err(), "accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn non_object_documents_are_rejected() {
        for doc in ["[]", "42", "\"profile\"", "null", "true"] {
            assert!(KernelProfile::from_json(doc).is_err(), "accepted {doc}");
        }
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = KernelProfile::from_launch("k", "m", "volta", 509, &fake_result(vec![]));
        assert_eq!(p.total_samples, 0);
        assert_eq!(p.issue_ratio(), 0.0);
        assert!(p.pc(0x10).is_none());
    }

    fn two_pc_profile() -> KernelProfile {
        KernelProfile::from_launch(
            "k",
            "m",
            "volta",
            509,
            &fake_result(vec![
                sample(0x10, StallReason::MemoryDependency, false),
                sample(0x10, StallReason::Selected, true),
                sample(0x20, StallReason::Synchronization, false),
            ]),
        )
    }

    #[test]
    fn merge_adds_samples_and_maxes_ground_truth() {
        let a = two_pc_profile();
        let mut b = two_pc_profile();
        b.cycles = 900; // a slightly faster replay
        let m = a.merge(&b).unwrap();
        assert_eq!(m.total_samples, 6);
        assert_eq!(m.active_samples, 2);
        assert_eq!(m.latency_samples, 4);
        assert_eq!(m.pc(0x10).unwrap().total, 4);
        assert_eq!(m.pc(0x10).unwrap().stalls(StallReason::MemoryDependency), 2);
        assert_eq!(m.cycles, 1000, "ground truth takes the representative (max) launch");
        assert_eq!(m.issued, 100);
    }

    #[test]
    fn merge_is_commutative_and_has_an_identity() {
        let a = two_pc_profile();
        let mut b = two_pc_profile();
        b.pcs.remove(&0x20);
        b.total_samples = 2;
        b.active_samples = 1;
        b.latency_samples = 1;
        assert_eq!(a.merge(&b).unwrap(), b.merge(&a).unwrap());
        let empty = a.empty_like();
        assert_eq!(a.merge(&empty).unwrap(), a);
        assert_eq!(empty.merge(&a).unwrap(), a);
    }

    #[test]
    fn merge_rejects_mismatched_configurations() {
        let a = two_pc_profile();
        let mut other_kernel = two_pc_profile();
        other_kernel.kernel = "different".into();
        let err = a.merge(&other_kernel).unwrap_err();
        assert_eq!(err.field(), "kernel");
        assert!(err.to_string().contains("profiles disagree on `kernel`"), "{err}");
        let mut other_period = two_pc_profile();
        other_period.period = 127;
        assert_eq!(a.merge(&other_period).unwrap_err().field(), "period");
    }

    #[test]
    fn overflowing_counters_are_rejected_not_wrapped() {
        // Two PCs whose totals are individually valid but sum past
        // u64::MAX: the kernel-total check must reject, not wrap.
        let mut huge = two_pc_profile();
        for st in huge.pcs.values_mut() {
            let code = StallReason::Other.code() as usize;
            st.by_reason[code] = u64::MAX - st.total;
            st.total = u64::MAX;
        }
        huge.total_samples = u64::MAX; // declared total is in range
        huge.active_samples = u64::MAX - huge.latency_samples;
        let err = KernelProfile::from_json(&huge.to_json()).unwrap_err();
        assert!(err.to_string().contains("more than u64::MAX"), "{err}");

        // A single PC whose own counters overflow is caught per-PC.
        let mut huge = two_pc_profile();
        let st = huge.pcs.get_mut(&0x10).unwrap();
        st.by_reason[0] = u64::MAX;
        st.by_reason[1] = u64::MAX;
        let err = KernelProfile::from_json(&huge.to_json()).unwrap_err();
        assert!(err.to_string().contains("counters overflow"), "{err}");
    }

    #[test]
    fn merge_refuses_counter_overflow_without_mutating() {
        // Two individually consistent profiles whose per-PC counters
        // would wrap u64 when added: the merge is refused (a wrapped
        // result would be internally inconsistent and panic downstream
        // sums), and the accumulator is left untouched for retries.
        let near_max = || {
            let mut p = two_pc_profile();
            let st = p.pcs.get_mut(&0x10).unwrap();
            let code = StallReason::Other.code() as usize;
            st.by_reason[code] = u64::MAX / 2 + 1;
            st.total += u64::MAX / 2 + 1;
            p.total_samples += u64::MAX / 2 + 1;
            p.active_samples += u64::MAX / 2 + 1;
            p
        };
        let a = near_max();
        let mut acc = a.clone();
        let err = acc.merge_in(&near_max()).unwrap_err();
        assert!(matches!(err, MergeError::CounterOverflow { .. }), "{err:?}");
        assert!(err.to_string().contains("overflow"), "{err}");
        assert_eq!(acc, a, "failed merge leaves the accumulator untouched");
        // Merged consistent profiles stay consistent: the strict parser
        // accepts what merge produces.
        let merged = two_pc_profile().merge(&two_pc_profile()).unwrap();
        assert_eq!(KernelProfile::from_json(&merged.to_json()).unwrap(), merged);
    }

    #[test]
    fn unknown_fields_are_rejected_everywhere() {
        let text = valid_profile_text();
        // Renaming a known field is reported as the field going missing
        // (extraction runs first)...
        for (needle, replacement, expect) in [
            ("\"module_name\"", "\"modulo_name\"", "missing field `module_name`"),
            ("\"by_reason\"", "\"by_raisin\"", "missing field `by_reason`"),
            ("\"smem_per_block\"", "\"smem_per_war\"", "missing field `smem_per_block`"),
        ] {
            let broken = text.replacen(needle, replacement, 1);
            let err = KernelProfile::from_json(&broken).unwrap_err();
            assert!(err.to_string().contains(expect), "{replacement}: {err}");
        }
        // ...while an extra field is rejected as unknown, at every level
        // of the document.
        for (anchor, extra, expect) in [
            ("\"cycles\"", "\"mystery\": 1, ", "unknown field `mystery` in profile"),
            ("\"total\"", "\"vibes\": 1, ", "unknown field `vibes` in pc stats"),
            ("\"ratio\"", "\"raito\": 1, ", "unknown field `raito` in occupancy"),
            (
                "\"smem_per_block\"",
                "\"smem_per_war\": 1, ",
                "unknown field `smem_per_war` in launch",
            ),
        ] {
            assert!(text.contains(anchor), "anchor {anchor} present");
            let broken = text.replacen(anchor, &format!("{extra}{anchor}"), 1);
            let err = KernelProfile::from_json(&broken).unwrap_err();
            assert!(err.to_string().contains(expect), "{extra}: {err}");
        }
    }

    #[test]
    fn inconsistent_totals_are_rejected() {
        let p = two_pc_profile();
        // Kernel total disagrees with the pcs table.
        let mut broken = p.clone();
        broken.total_samples += 1;
        broken.active_samples += 1; // keep A + L = T so the sum check fires
        let err = KernelProfile::from_json(&broken.to_json()).unwrap_err();
        assert!(err.to_string().contains("`total_samples` is 4"), "{err}");
        // Latency total disagrees.
        let mut broken = p.clone();
        broken.latency_samples -= 1;
        broken.active_samples += 1;
        let err = KernelProfile::from_json(&broken.to_json()).unwrap_err();
        assert!(err.to_string().contains("`latency_samples` is 1"), "{err}");
        // A + L != T.
        let mut broken = p.clone();
        broken.active_samples += 1;
        let err = KernelProfile::from_json(&broken.to_json()).unwrap_err();
        assert!(err.to_string().contains("!= `total_samples`"), "{err}");
        // A PC's own counters disagree with its total.
        let mut broken = p.clone();
        broken.pcs.get_mut(&0x10).unwrap().total += 1;
        broken.total_samples += 1;
        broken.active_samples += 1;
        let err = KernelProfile::from_json(&broken.to_json()).unwrap_err();
        assert!(err.to_string().contains("stall-reason counters sum to"), "{err}");
        // Latency exceeding all-samples for one reason (caught while
        // parsing the pcs table, before the kernel totals).
        let mut broken = p;
        broken.pcs.get_mut(&0x10).unwrap().latency_by_reason
            [StallReason::Selected.code() as usize] += 2;
        let err = KernelProfile::from_json(&broken.to_json()).unwrap_err();
        assert!(err.to_string().contains("latency samples exceed"), "{err}");
    }
}
