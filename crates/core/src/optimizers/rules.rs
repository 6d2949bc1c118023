//! The matching rules the rows of [`super::TABLE2`] point at.
//!
//! Every rule is one of three folds — the blamed edges a predicate keeps
//! ([`edges`]), the hideable blamed edges with their Eq. 5 scope
//! ([`hidden`]), the per-PC counters a count keeps ([`pcs`]) — or a
//! proposed launch ([`relaunch`]).
//!
//! Visit order is part of the contract: [`MatchResult::keep_top_hotspots`]
//! is a stable sort, so hotspots of equal weight keep the order their
//! fold discovered them in, and every byte of every report depends on it.

use super::{Hotspot, MatchResult};
use crate::advisor::AnalysisCtx;
use crate::blamer::{BlamedEdge, DetailedReason};
use crate::estimators::ParallelParams;
use gpa_arch::{LaunchConfig, Occupancy};
use gpa_isa::Opcode;
use gpa_sampling::{PcStats, StallReason};
use gpa_structure::{FunctionInfo, Scope};

/// Folds the blamed edges `keep(function, edge)` accepts, in blame order;
/// each is a def→use hotspot weighing its apportioned stalls.
fn edges(ctx: &AnalysisCtx<'_>, keep: impl Fn(usize, &BlamedEdge) -> bool) -> MatchResult {
    let mut m = MatchResult::default();
    for (func, e) in ctx.blamed_edges().filter(|&(func, e)| keep(func, e)) {
        m.matched += e.stalls;
        m.matched_latency += e.latency;
        m.hotspots.push(Hotspot {
            def_pc: Some(ctx.pc_of(func, e.def)),
            use_pc: ctx.pc_of(func, e.use_),
            samples: e.stalls,
            distance: Some(e.distance),
        });
    }
    m
}

/// Matches memory-dependency stalls of local-memory instructions —
/// register spills (the Quicksilver register-reuse case).
pub(super) fn register_reuse(ctx: &AnalysisCtx<'_>) -> MatchResult {
    edges(ctx, |_, e| e.detail == DetailedReason::LocalMem)
}

/// Matches execution-dependency stalls whose source is long-latency
/// arithmetic: FP64, conversions, transcendentals, wide multiplies — the
/// hotspot (type conversion) and ExaTENSOR (integer division) cases.
pub(super) fn strength_reduction(ctx: &AnalysisCtx<'_>) -> MatchResult {
    edges(ctx, |func, e| {
        e.detail == DetailedReason::Arith
            && ctx.latency.is_long_latency_arith(ctx.instr(func, e.def))
    })
}

/// Matches synchronization stalls blamed on `BAR.SYNC` — unbalanced work
/// across the warps of a block (backprop, huffman, nw, sradv1).
pub(super) fn warp_balance(ctx: &AnalysisCtx<'_>) -> MatchResult {
    edges(ctx, |_, e| e.detail == DetailedReason::Sync)
}

/// Folds, in blame order, the blamed edges a latency-hiding optimizer can
/// overlap — global-memory and execution dependencies (the paper's
/// matching rule) — that `scope_of(edge, def_pc, use_pc)` places in a
/// scope: the scope buckets the edge's latency for Eq. 5, and the hotspot
/// weighs whichever of its latency and stalls is larger.
fn hidden(
    ctx: &AnalysisCtx<'_>,
    scope_of: impl Fn(&BlamedEdge, u64, u64) -> Option<Scope>,
) -> MatchResult {
    use DetailedReason::{Arith, GlobalMem, LocalMem, SharedMem, War};
    let mut m = MatchResult::default();
    for (func, e) in ctx.blamed_edges() {
        if !matches!(e.detail, GlobalMem | LocalMem | SharedMem | War | Arith) {
            continue;
        }
        let (def_pc, use_pc) = (ctx.pc_of(func, e.def), ctx.pc_of(func, e.use_));
        let Some(scope) = scope_of(e, def_pc, use_pc) else { continue };
        m.matched += e.stalls;
        m.matched_latency += e.latency;
        m.add_scope(scope, e.latency);
        m.hotspots.push(Hotspot {
            def_pc: Some(def_pc),
            use_pc,
            samples: e.latency.max(e.stalls),
            distance: Some(e.distance),
        });
    }
    m
}

/// Matches hideable latency samples whose def and use sit in the same
/// loop: unrolling interleaves iterations to fill the stall slots (bfs,
/// heartwall, kmeans, lavaMD).
pub(super) fn loop_unrolling(ctx: &AnalysisCtx<'_>) -> MatchResult {
    hidden(ctx, |_, def_pc, use_pc| {
        let scope = ctx.structure.scope_of(use_pc)?;
        (matches!(scope, Scope::Loop(..)) && ctx.structure.scope_contains(scope, def_pc))
            .then_some(scope)
    })
}

/// Below this def→use distance, reordering can plausibly create slack.
const REORDER_WINDOW: u32 = 48;

/// Matches hideable latency samples with a *short* def→use distance:
/// reordering moves the producer earlier (b+tree, lud, pathfinder,
/// Minimod).
pub(super) fn code_reordering(ctx: &AnalysisCtx<'_>) -> MatchResult {
    hidden(ctx, |e, _, use_pc| {
        (e.distance <= REORDER_WINDOW)
            .then(|| ctx.structure.scope_of(use_pc).unwrap_or(Scope::Kernel))
    })
}

/// Folds `(pc, counters)` pairs, handed over in ascending PC order, into
/// `m`: `count` returns the `(stall, latency)` samples it matches at one
/// PC, and every PC with a matching stall is a hotspot of that weight.
fn pcs<'a>(
    m: &mut MatchResult,
    pcs: impl Iterator<Item = (&'a u64, &'a PcStats)>,
    count: impl Fn(&PcStats) -> (f64, f64),
) {
    for (&pc, st) in pcs {
        let (stalls, latency) = count(st);
        if stalls > 0.0 {
            m.matched += stalls;
            m.matched_latency += latency;
            m.hotspots.push(Hotspot { def_pc: None, use_pc: pc, samples: stalls, distance: None });
        }
    }
}

/// Counts the samples carrying one of `reasons`.
fn with(reasons: &[StallReason]) -> impl Fn(&PcStats) -> (f64, f64) + '_ {
    move |st| {
        reasons.iter().fold((0.0, 0.0), |(stalls, latency), &r| {
            (stalls + st.stalls(r) as f64, latency + st.latency_stalls(r) as f64)
        })
    }
}

/// Counts every stall sample, whatever its reason.
fn any_stall(st: &PcStats) -> (f64, f64) {
    (st.total_stalls() as f64, st.latency_total() as f64)
}

/// The dynamic finding the two transaction-count rules share.
fn note_transactions(ctx: &AnalysisCtx<'_>, m: &mut MatchResult) {
    if m.matched > 0.0 {
        m.notes.push(format!(
            "{} global transactions observed ({} L2 hits, {} misses)",
            ctx.profile.mem_transactions, ctx.profile.l2_hits, ctx.profile.l2_misses
        ));
    }
}

/// Matches instruction-fetch stalls in functions too large for the
/// instruction cache (the myocyte function-split case).
pub(super) fn function_split(ctx: &AnalysisCtx<'_>) -> MatchResult {
    let mut m = MatchResult::default();
    let icache = ctx.arch.icache_size as u64;
    for f in ctx.structure.functions().iter().filter(|f| f.end - f.base > icache / 2) {
        let sampled = ctx.profile.pcs.range(f.base..f.end);
        pcs(&mut m, sampled, with(&[StallReason::InstructionFetch]));
    }
    m
}

/// Matches stalls inside CUDA math functions (by symbol or inline stack) —
/// the cfd/myocyte/Minimod `--use_fast_math` cases.
pub(super) fn fast_math(ctx: &AnalysisCtx<'_>) -> MatchResult {
    let mut m = MatchResult::default();
    pcs(&mut m, ctx.profile.pcs.iter().filter(|(&pc, _)| ctx.is_math_pc(pc)), any_stall);
    m
}

/// Matches memory-throttle stalls — too many transactions in flight
/// (the ExaTENSOR constant-memory case).
pub(super) fn memory_transaction_reduction(ctx: &AnalysisCtx<'_>) -> MatchResult {
    let mut m = MatchResult::default();
    pcs(&mut m, ctx.profile.pcs.iter(), with(&[StallReason::MemoryThrottle]));
    note_transactions(ctx, &mut m);
    m
}

/// Matches uncoalesced-access stalls and the structural backpressure
/// they cause (full MSHR file, full L2 queue).
pub(super) fn memory_coalescing(ctx: &AnalysisCtx<'_>) -> MatchResult {
    let mut m = MatchResult::default();
    let reasons = [StallReason::Uncoalesced, StallReason::MshrFull, StallReason::L2Queue];
    pcs(&mut m, ctx.profile.pcs.iter(), with(&reasons));
    note_transactions(ctx, &mut m);
    m
}

/// Matches shared-memory bank-conflict stalls.
pub(super) fn bank_conflict_resolution(ctx: &AnalysisCtx<'_>) -> MatchResult {
    let mut m = MatchResult::default();
    pcs(&mut m, ctx.profile.pcs.iter(), with(&[StallReason::BankConflict]));
    m
}

/// Matches stalls in (non-math) device functions and at their call sites:
/// inlining removes call overhead and lets the scheduler mix caller and
/// callee instructions (the Quicksilver case).
pub(super) fn function_inlining(ctx: &AnalysisCtx<'_>) -> MatchResult {
    let mut m = MatchResult::default();
    let inlinable = |f: &&FunctionInfo| f.is_device() && !f.is_math_function();
    for f in ctx.structure.functions().iter().filter(inlinable) {
        let before = m.matched;
        pcs(&mut m, ctx.profile.pcs.range(f.base..f.end), any_stall);
        if m.matched > before {
            m.notes.push(format!(
                "device function `{}` accounts for {:.1} stall samples",
                f.name,
                m.matched - before
            ));
        }
    }
    // Call sites of device functions, everywhere else: a `CAL` inside an
    // inlinable body was counted with that body, and counting it again
    // would match more latency than the profile holds (Theorem 5.1 needs
    // `M_L ≤ L`).
    let call_sites = ctx.structure.functions().iter().filter(|f| !inlinable(f)).flat_map(|f| {
        let instrs = &ctx.module.functions[f.index].instrs;
        (0..instrs.len())
            .filter(|&i| instrs[i].opcode == Opcode::Cal)
            .filter_map(|i| ctx.profile.pcs.get_key_value(&ctx.pc_of(f.index, i)))
    });
    pcs(&mut m, call_sites, any_stall);
    // Inlining rearranges code across the whole kernel.
    let total_latency = m.matched_latency;
    m.add_scope(Scope::Kernel, total_latency);
    m
}

/// Eq. 10's optimizer-specific factor `f`: when work spreads over more
/// SMs (or lanes fill up), per-SM queueing stalls relax — the paper's
/// optimizers "assume there is no pipeline, memory throttle, and no
/// select stall" after the change.
fn relief_factor(ctx: &AnalysisCtx<'_>) -> f64 {
    let t = ctx.profile.total_samples as f64;
    if t == 0.0 {
        return 1.0;
    }
    let hist = ctx.profile.stall_histogram();
    let relieved = hist[StallReason::MemoryThrottle.code() as usize]
        + hist[StallReason::PipeBusy.code() as usize];
    let share = (relieved as f64 / t).min(0.5);
    1.0 / (1.0 - share)
}

fn lane_efficiency(block_threads: u32, warp_size: u32) -> f64 {
    let warps = block_threads.div_ceil(warp_size).max(1);
    block_threads as f64 / (warps * warp_size) as f64
}

/// The Eqs. 6–10 inputs for relaunching the profiled kernel as `blocks`
/// blocks of `threads` threads, beside the occupancy that launch would
/// reach (its warps per scheduler not yet clamped).
fn relaunch(
    ctx: &AnalysisCtx<'_>,
    blocks: u32,
    threads: u32,
    factor: f64,
) -> (Occupancy, ParallelParams) {
    let (launch, arch) = (&ctx.profile.launch, ctx.arch);
    let occ_new =
        arch.occupancy(&LaunchConfig { grid_blocks: blocks, block_threads: threads, ..*launch });
    let params = ParallelParams {
        w_old: ctx.profile.occupancy.warps_per_scheduler.max(0.25),
        w_new: occ_new.warps_per_scheduler.max(0.25),
        busy_sms_old: launch.grid_blocks.min(arch.num_sms) as f64,
        busy_sms_new: blocks.min(arch.num_sms) as f64,
        lane_eff_old: lane_efficiency(launch.block_threads, arch.warp_size),
        lane_eff_new: lane_efficiency(threads, arch.warp_size),
        factor,
    };
    (occ_new, params)
}

/// Matches kernels whose grid leaves SMs idle (fewer blocks than the
/// device hosts): split blocks to raise the busy-SM count (particlefilter,
/// streamcluster, PeleC).
pub(super) fn block_increase(ctx: &AnalysisCtx<'_>) -> MatchResult {
    let mut m = MatchResult::default();
    let (launch, arch) = (&ctx.profile.launch, ctx.arch);
    if launch.grid_blocks >= arch.num_sms {
        return m; // every SM already has a block
    }
    // Propose halving threads/block (keeping whole warps) until either
    // the grid covers the SMs or blocks reach one warp.
    let mut threads = launch.block_threads;
    let mut blocks = launch.grid_blocks;
    while blocks < arch.num_sms && threads >= 2 * arch.warp_size {
        threads /= 2;
        blocks *= 2;
    }
    if blocks == launch.grid_blocks {
        return m; // cannot split further
    }
    let (_, params) = relaunch(ctx, blocks, threads, relief_factor(ctx));
    m.parallel = Some(params);
    m.notes.push(format!(
        "launch uses {} blocks of {} threads on {} SMs; suggest {} blocks of {} threads",
        launch.grid_blocks, launch.block_threads, arch.num_sms, blocks, threads
    ));
    m
}

/// Matches kernels whose tiny blocks cap occupancy through the block-slot
/// limit (and waste lanes on partial warps): grow the blocks
/// (the gaussian Fan2 case).
pub(super) fn thread_increase(ctx: &AnalysisCtx<'_>) -> MatchResult {
    let mut m = MatchResult::default();
    let (launch, arch) = (&ctx.profile.launch, ctx.arch);
    if launch.block_threads >= 4 * arch.warp_size {
        return m; // blocks already reasonably sized
    }
    // Propose merging blocks up to 256 threads, preserving total
    // threads.
    let target_threads = (4 * arch.warp_size).min(arch.max_threads_per_block);
    let merge = (target_threads / launch.block_threads.max(1)).max(1);
    let new_blocks = (launch.grid_blocks / merge).max(1);
    let new_threads = launch.block_threads * merge;
    if new_blocks == launch.grid_blocks {
        return m;
    }
    let occ_old = ctx.profile.occupancy;
    let (occ_new, params) = relaunch(ctx, new_blocks, new_threads, 1.0);
    if occ_new.warps_per_scheduler <= occ_old.warps_per_scheduler
        && params.lane_eff_new <= params.lane_eff_old
    {
        return m; // no benefit
    }
    m.parallel = Some(params);
    m.notes.push(format!(
        "blocks of {} threads occupy {:.1} warps/scheduler ({}); suggest {} threads per block",
        launch.block_threads, occ_old.warps_per_scheduler, occ_old.limiter, new_threads
    ));
    m
}

#[cfg(test)]
mod tests {
    use crate::blamer::graph::tests::fake_profile;
    use crate::{Advisor, EstimatorInputs, OptimizerId};
    use gpa_arch::ArchConfig;
    use gpa_sampling::StallReason;

    /// A call site inside a device function is part of that function's
    /// body: it used to be matched once with the body and once more as a
    /// call site, so this profile — 4 latency samples in all — reported
    /// ratio 8/14, `M_L` 8, the same hotspot twice and 2.33×, above
    /// Theorem 5.1's `Sh ≤ 2`.
    #[test]
    fn function_inlining_counts_a_nested_call_site_once() {
        let src = r#"
.module nested
.kernel k
  CAL f {S:1}
  EXIT {S:1}
.endfunc
.func f
  CAL g {S:1}
  RET {S:1}
.endfunc
.func g
  IADD R0, R0, 1 {S:4}
  RET {S:1}
.endfunc
"#;
        let m = gpa_isa::parse_module(src).unwrap();
        let (k, f) = (m.function("k").unwrap(), m.function("f").unwrap());
        let profile = fake_profile(&[
            (f.pc_of(0), StallReason::ExecutionDependency, false, 4),
            (k.pc_of(1), StallReason::Selected, true, 10),
        ]);
        let report = Advisor::new().advise(&m, &profile, &ArchConfig::small(1));
        let item = report.item(OptimizerId::FunctionInlining).expect("the device call matches");
        assert_eq!(item.matched_ratio, 4.0 / 14.0);
        assert_eq!(
            item.estimator,
            EstimatorInputs::LatencyHiding {
                total: 14.0,
                active: 10.0,
                matched_latency: 4.0,
                scopes: 1
            }
        );
        assert_eq!(item.hotspots.len(), 1);
        assert_eq!(item.hotspots[0].use_.pc, f.pc_of(0));
        assert_eq!(item.estimated_speedup, 1.4);
    }
}
