//! Differential and property tests for the streaming measurement layer.
//!
//! The acceptance bar for the refactor: across **every** app in the
//! registry, the default at-source aggregating sink must reproduce the
//! old buffered `Vec<RawSample>` path byte for byte — same `SampleSet`,
//! same `KernelProfile`, same profile JSON, same advice — and
//! `KernelProfile::merge` must behave as a proper commutative monoid
//! (associative, commutative, identity = the empty profile), which is
//! what makes repeat profiling and chunked uploads order-insensitive.

use gpa::arch::{ArchConfig, LaunchConfig, Occupancy};
use gpa::core::{report, Advisor};
use gpa::kernels::runner::{arch_for, armed_gpu_with, sim_config};
use gpa::kernels::{all_apps, Params};
use gpa::sampling::{KernelProfile, PcStats, Profiler, StallReason};
use gpa::sim::{RawSample, SampleSet};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The tentpole differential check: for all 21 apps, the streaming sink
/// equals the buffered path — in the aggregated set, the profile, the
/// profile JSON bytes, and the advice the profile produces.
#[test]
fn sink_equals_buffered_path_across_all_apps() {
    let p = Params::test();
    let arch = arch_for(&p);
    let advisor = Advisor::new();
    for app in all_apps() {
        let spec = (app.build)(0, &p);

        // Default path: samples aggregate at the source.
        let (mut gpu, params) = armed_gpu_with(&spec, &arch, sim_config());
        let streamed = gpu.launch(&spec.module, &spec.entry, &spec.launch, &params).unwrap();

        // Buffered path: collect the raw stream (the pre-refactor
        // layout), then aggregate after the fact.
        let mut raw: Vec<RawSample> = Vec::new();
        let (mut gpu, params) = armed_gpu_with(&spec, &arch, sim_config());
        let prog = gpu.compile(&spec.module, &spec.entry).unwrap();
        let buffered =
            gpu.launch_compiled_with_sink(&prog, &spec.launch, &params, &mut raw).unwrap();

        assert!(!raw.is_empty(), "{}: kernel produced samples", app.name);
        assert_eq!(
            SampleSet::from_raw(&raw),
            streamed.samples,
            "{}: at-source aggregation equals buffered aggregation",
            app.name
        );

        let period = sim_config().sampling_period;
        let from_stream = KernelProfile::from_launch(
            &spec.entry,
            &spec.module.name,
            &spec.module.arch,
            period,
            &streamed,
        );
        let from_buffer = KernelProfile::from_set(
            &spec.entry,
            &spec.module.name,
            &spec.module.arch,
            period,
            &SampleSet::from_raw(&raw),
            &buffered,
        );
        assert_eq!(from_stream, from_buffer, "{}: profiles identical", app.name);
        assert_eq!(
            from_stream.to_json(),
            from_buffer.to_json(),
            "{}: profile JSON byte-identical",
            app.name
        );

        // And the artifact the user sees: identical advice.
        let a = advisor.advise(&spec.module, &from_stream, &arch);
        let b = advisor.advise(&spec.module, &from_buffer, &arch);
        assert_eq!(a, b, "{}: advice reports identical", app.name);
        assert_eq!(
            report::render(&a, 5),
            report::render(&b, 5),
            "{}: rendered advice byte-identical",
            app.name
        );
    }
}

/// A one-repeat `Profiler::profile_compiled` must be exactly one plain
/// launch aggregated by `KernelProfile::from_launch` — same profile,
/// same JSON — for a sample of real apps (the sampling crate's own unit
/// tests cover zero repeats and the replay sweep).
#[test]
fn profile_repeat_one_equals_profile_on_real_apps() {
    let p = Params::test();
    let arch = arch_for(&p);
    for app in all_apps().into_iter().take(4) {
        let spec = (app.build)(0, &p);
        let (mut gpu, params) = armed_gpu_with(&spec, &arch, sim_config());
        let prog = gpu.compile(&spec.module, &spec.entry).unwrap();
        let plain = gpu.launch_compiled(&prog, &spec.launch, &params).unwrap();
        let single = KernelProfile::from_launch(
            &spec.entry,
            &spec.module.name,
            &spec.module.arch,
            sim_config().sampling_period,
            &plain,
        );
        let (gpu, params) = armed_gpu_with(&spec, &arch, sim_config());
        let repeat1 =
            Profiler::new(gpu).profile_compiled(&prog, &spec.launch, &params, 1).unwrap().0;
        assert_eq!(single, repeat1, "{}: repeat-1 equals single", app.name);
        assert_eq!(single.to_json(), repeat1.to_json(), "{}: JSON bytes equal", app.name);
    }
}

/// A deterministic pseudo-random profile for the merge monoid laws. All
/// generated profiles share one header (merge requires it) and are
/// internally consistent by construction.
fn gen_profile(seed: u64) -> KernelProfile {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let arch = ArchConfig::small(1);
    let launch = LaunchConfig::new(4, 64);
    let occupancy: Occupancy = arch.occupancy(&launch);
    let n_reasons = StallReason::ALL.len();
    let mut pcs: BTreeMap<u64, PcStats> = BTreeMap::new();
    let n_pcs = (next() % 6) as usize;
    for _ in 0..n_pcs {
        let pc = (next() % 24) * 16;
        let mut st = PcStats::default();
        for code in 0..n_reasons {
            let all = next() % 5;
            st.by_reason[code] = all;
            st.latency_by_reason[code] = if all == 0 { 0 } else { next() % (all + 1) };
            st.total += all;
        }
        // Colliding PCs overwrite; totals are recomputed below either way.
        pcs.insert(pc, st);
    }
    let total: u64 = pcs.values().map(|s| s.total).sum();
    let latency: u64 = pcs.values().map(PcStats::latency_total).sum();
    KernelProfile {
        kernel: "k".into(),
        module_name: "m".into(),
        arch: "volta".into(),
        period: 509,
        launch,
        occupancy,
        cycles: next() % 10_000,
        issued: next() % 10_000,
        pcs,
        total_samples: total,
        active_samples: total - latency,
        latency_samples: latency,
        mem_transactions: next() % 1_000,
        l2_hits: next() % 1_000,
        l2_misses: next() % 1_000,
        icache_misses: next() % 100,
    }
}

/// Re-renders `a`'s JSON with the first PC's `by_reason` array passed
/// through `f` — the schema-surgery helper for the rejection tests.
fn with_mutated_columns(
    a: &KernelProfile,
    f: impl Fn(Vec<gpa::json::Json>) -> Vec<gpa::json::Json>,
) -> String {
    use gpa::json::Json;
    let doc = Json::parse(&a.to_json()).unwrap();
    let mut new_pcs = Json::object();
    for (i, (pc, stats)) in doc.field("pcs").unwrap().entries().unwrap().iter().enumerate() {
        let stats = if i == 0 {
            let mut s = Json::object();
            for (k, v) in stats.entries().unwrap() {
                if k == "by_reason" {
                    s = s.with(k, Json::Arr(f(v.as_array().unwrap().to_vec())));
                } else {
                    s = s.with(k, v.clone());
                }
            }
            s
        } else {
            stats.clone()
        };
        new_pcs = new_pcs.with(pc, stats);
    }
    let mut out = Json::object();
    for (k, v) in doc.entries().unwrap() {
        out = out.with(k, if k == "pcs" { new_pcs.clone() } else { v.clone() });
    }
    out.compact()
}

/// The hierarchy stall reasons appended in the taxonomy extension —
/// the columns the rejection/overflow tests below pin.
const HIER_REASONS: [StallReason; 4] = [
    StallReason::BankConflict,
    StallReason::Uncoalesced,
    StallReason::MshrFull,
    StallReason::L2Queue,
];

proptest! {
    /// Strict validation rejects histograms with unknown stall-reason
    /// columns (a longer array than this build's taxonomy) and legacy
    /// pre-hierarchy rows (the 9-column shape) alike — the wire format
    /// is positional, so column count IS the schema version.
    #[test]
    fn unknown_stall_reason_columns_are_rejected(sa in 0u64..1_000_000) {
        // The shim has no prop_assume: walk seeds to a non-empty profile.
        let a = (0..8).map(|i| gen_profile(sa + i)).find(|p| !p.pcs.is_empty()).unwrap();
        let extended = with_mutated_columns(&a, |mut cols| {
            cols.push(gpa::json::Json::from(0u64));
            cols
        });
        let err = KernelProfile::from_json(&extended).unwrap_err().to_string();
        prop_assert!(err.contains("stall-reason counters"), "{}", err);
        let legacy = with_mutated_columns(&a, |cols| cols[..9].to_vec());
        let err = KernelProfile::from_json(&legacy).unwrap_err().to_string();
        prop_assert!(err.contains("stall-reason counters"), "{}", err);
    }

    /// Merging adds the hierarchy columns like any other — per PC and
    /// reason, the merged count is the sum of the inputs'.
    #[test]
    fn merge_adds_the_hierarchy_columns(sa in 0u64..1_000_000, sb in 0u64..1_000_000) {
        let (a, b) = (gen_profile(sa), gen_profile(sb));
        let merged = a.merge(&b).unwrap();
        for r in HIER_REASONS {
            for (&pc, st) in &merged.pcs {
                let want = a.pcs.get(&pc).map_or(0, |s| s.stalls(r))
                    + b.pcs.get(&pc).map_or(0, |s| s.stalls(r));
                prop_assert_eq!(st.stalls(r), want);
            }
        }
    }

    /// A hierarchy column at `u64::MAX` overflows on merge: the merge
    /// is rejected (`CounterOverflow`) and the receiver is untouched —
    /// a poisoned chunk cannot corrupt an open upload.
    #[test]
    fn hierarchy_column_overflow_rejects_the_merge_untouched(sa in 0u64..1_000_000, r in 0usize..4) {
        let mut a = (0..8).map(|i| gen_profile(sa + i)).find(|p| !p.pcs.is_empty()).unwrap();
        let pc = *a.pcs.keys().next().unwrap();
        let code = HIER_REASONS[r].code() as usize;
        a.pcs.get_mut(&pc).unwrap().by_reason[code] = u64::MAX;
        let b = a.clone();
        prop_assert!(a.merge(&b).is_err());
        let mut receiver = a.clone();
        prop_assert!(receiver.merge_in(&b).is_err());
        prop_assert_eq!(receiver, a, "failed merge left the receiver untouched");
    }

    /// Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_is_associative(sa in 0u64..1_000_000, sb in 0u64..1_000_000, sc in 0u64..1_000_000) {
        let (a, b, c) = (gen_profile(sa), gen_profile(sb), gen_profile(sc));
        let left = a.merge(&b).unwrap().merge(&c).unwrap();
        let right = a.merge(&b.merge(&c).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }

    /// Commutativity: a ⊕ b == b ⊕ a.
    #[test]
    fn merge_is_commutative(sa in 0u64..1_000_000, sb in 0u64..1_000_000) {
        let (a, b) = (gen_profile(sa), gen_profile(sb));
        prop_assert_eq!(a.merge(&b).unwrap(), b.merge(&a).unwrap());
    }

    /// Identity: a ⊕ empty == empty ⊕ a == a.
    #[test]
    fn empty_profile_is_the_merge_identity(sa in 0u64..1_000_000) {
        let a = gen_profile(sa);
        let empty = a.empty_like();
        prop_assert_eq!(a.merge(&empty).unwrap(), a.clone());
        prop_assert_eq!(empty.merge(&a).unwrap(), a);
    }

    /// Splitting into chunks and folding them back with `merge_in`, as
    /// the daemon folds an upload, reproduces the original profile.
    #[test]
    fn split_chunks_round_trips(sa in 0u64..1_000_000, n in 1usize..6) {
        let a = gen_profile(sa);
        let mut chunks = a.split_chunks(n).into_iter();
        let mut merged = chunks.next().unwrap();
        for chunk in chunks {
            merged.merge_in(&chunk).unwrap();
        }
        prop_assert_eq!(merged, a);
    }

    /// Generated profiles are themselves valid under the strict JSON
    /// validator (so the generator exercises the real schema).
    #[test]
    fn generated_profiles_round_trip_strict_validation(sa in 0u64..1_000_000) {
        let a = gen_profile(sa);
        prop_assert_eq!(KernelProfile::from_json(&a.to_json()).unwrap(), a);
    }
}
