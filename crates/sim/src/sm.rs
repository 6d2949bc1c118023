//! Per-SM state and warp readiness.
//!
//! [`Sm::classify`] (the full stall taxonomy, run for sampled warps) and
//! [`Sm::ready_at`] (the integer horizon the event core folds) answer
//! one question two ways and live side by side because their lock-step
//! is the simulator's central invariant: for any frozen machine state,
//! `classify(..) == Ready` exactly when `ready_at(..) <= now`.
//!
//! `ready_at` reads a **cached** value. Most of a warp's horizon — fetch,
//! stall count, waited scoreboard barriers, register and predicate
//! interlocks of its *next* instruction — can only change when that warp
//! itself issues, when a barrier releases it, or when a block starts in
//! its slot. [`Sm::refresh`] folds those terms into the warp's
//! [`Horizon`] at exactly those three moments and lowers the scheduler's
//! next-ready bound in the same call, so a bound and the horizon it was
//! built from cannot drift apart. Only the two shared terms (the pipe's
//! free time and the memory throttle) are read when a scan happens. The
//! dense oracle (`crate::reference`) asserts the lock-step on this cached
//! value for every warp of every cycle, and debug builds of the
//! production scan assert each horizon they read against a recompute.

use crate::hier::TimedServer;
use crate::machine::{SimStats, SmStats};
use crate::mem::DirectCache;
use crate::memory::MemoryModel;
use crate::program::CompiledProgram;
use crate::stall::StallReason;
use crate::warp::WarpState;
use gpa_arch::{ArchConfig, LaunchConfig};
use std::ops::Range;

pub(crate) struct BlockCtx {
    pub(crate) block_id: u32,
    pub(crate) smem: Vec<u8>,
    pub(crate) total_warps: u32,
    pub(crate) done_warps: u32,
    pub(crate) arrived: u32,
}

/// Issue pipes per scheduler; a [`gpa_isa::Pipe`] indexes them by its
/// discriminant.
pub(crate) const N_PIPES: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Ready,
    Stalled(StallReason),
    NotResident,
}

/// Everything a scan reads of one warp: the part of its readiness that
/// only its own issue, a barrier release or a block start can change,
/// and which shared terms its next instruction adds at scan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Horizon {
    /// Earliest cycle the warp's own state allows its next instruction:
    /// the max of its fetch, stall-count, waited-barrier, register and
    /// predicate clear times. `u64::MAX` when only another warp's
    /// progress can unblock it (parked at `BAR`, exited, slot empty).
    pub(crate) own: u64,
    /// Index into [`Sm::pipe_free`] of the next instruction's pipe.
    pub(crate) pipe: u16,
    /// Whether the next instruction waits on memory back-pressure.
    pub(crate) throttled: bool,
}

impl Horizon {
    /// A warp nothing of its own can wake.
    const PARKED: Horizon = Horizon { own: u64::MAX, pipe: 0, throttled: false };
}

/// One streaming multiprocessor, generic over the launch's memory model.
pub(crate) struct Sm<M> {
    pub(crate) id: u32,
    pub(crate) block_slots: Vec<Option<BlockCtx>>,
    pub(crate) warps: Vec<WarpState>,
    /// The scan columns, scheduler after scheduler, each scheduler's
    /// warps in its round-robin order: `col_warp` names the warp of a
    /// column, `horizons` caches what a scan reads of it (written only
    /// by [`Sm::refresh`]), `sched_cols` is a scheduler's column range
    /// and `col_of` maps a warp back to its column.
    pub(crate) col_warp: Vec<usize>,
    pub(crate) horizons: Vec<Horizon>,
    pub(crate) sched_cols: Vec<Range<usize>>,
    col_of: Vec<usize>,
    pub(crate) icache: DirectCache,
    /// In-flight global/local transactions against the LSU limit
    /// (`max_mem_inflight_per_sm`); full means memory-throttle stalls.
    pub(crate) lsu: TimedServer,
    /// The memory model's per-SM state. Its back-pressure obeys the same
    /// bound-validity contract as `lsu` (see [`TimedServer`]).
    pub(crate) mem: M,
    /// Per-scheduler lower bound on the next cycle it could issue: the
    /// event-driven core skips a scheduler's warp scan entirely while its
    /// bound lies in the future, and the main loop jumps the clock to the
    /// minimum bound. A scan writes it — folded over every warp but the
    /// one it issues — and [`Sm::refresh`] lowers it: for the issuer, and
    /// whenever another warp's issue wakes this scheduler's warps
    /// (barrier release, block start).
    pub(crate) sched_next_ready: Vec<u64>,
    pub(crate) ifetch_fill_free: u64,
    pub(crate) pipe_free: Vec<u64>,
    pub(crate) rr_issue: Vec<usize>,
    pub(crate) rr_sample: Vec<usize>,
    pub(crate) stats: SmStats,
    /// This SM's share of the launch's scan counters (the event core's
    /// scan writes them; the loop-level two are derived at the end).
    pub(crate) work: SimStats,
}

impl<M: MemoryModel> Sm<M> {
    /// An idle SM with `slots` block slots of `wpb` warps each, warps
    /// dealt round-robin to the schedulers.
    pub(crate) fn new(
        id: u32,
        slots: usize,
        wpb: u32,
        launch: &LaunchConfig,
        prog: &CompiledProgram,
        arch: &ArchConfig,
        mem: M,
    ) -> Self {
        let nsched = arch.schedulers_per_sm as usize;
        let total_warps = slots * wpb as usize;
        let mut col_warp = Vec::with_capacity(total_warps);
        let mut sched_cols = Vec::with_capacity(nsched);
        for sched in 0..nsched {
            let start = col_warp.len();
            col_warp.extend((sched..total_warps).step_by(nsched));
            sched_cols.push(start..col_warp.len());
        }
        let mut col_of = vec![0; total_warps];
        for (col, &wi) in col_warp.iter().enumerate() {
            col_of[wi] = col;
        }
        Sm {
            id,
            block_slots: (0..slots).map(|_| None).collect(),
            warps: (0..total_warps)
                .map(|wi| {
                    WarpState::new(
                        wi as u32,
                        (wi % nsched) as u32,
                        wi / wpb as usize,
                        (wi % wpb as usize) as u32,
                        launch.block_threads,
                        prog.nregs,
                    )
                })
                .collect(),
            col_warp,
            horizons: vec![Horizon::PARKED; total_warps],
            sched_cols,
            col_of,
            icache: DirectCache::new(arch.icache_size, arch.icache_line),
            lsu: TimedServer::new(arch.max_mem_inflight_per_sm),
            mem,
            sched_next_ready: vec![0; nsched],
            ifetch_fill_free: 0,
            pipe_free: vec![0; nsched * N_PIPES],
            rr_issue: vec![0; nsched],
            rr_sample: vec![0; nsched],
            stats: SmStats::default(),
            work: SimStats::default(),
        }
    }

    /// Earliest cycle memory back-pressure clears, assuming no new
    /// requests (frozen machine). The LSU limit and the model's own
    /// servers gate the same instructions (`throttled_mem`), so their
    /// clear times fold into the one horizon [`Sm::ready_at`] takes.
    pub(crate) fn throttle_clear(&self) -> u64 {
        self.lsu.clear_time().max(self.mem.clear_time())
    }

    pub(crate) fn start_block(
        &mut self,
        slot: usize,
        block_id: u32,
        wpb: u32,
        launch: &LaunchConfig,
        prog: &CompiledProgram,
        start_cycle: u64,
    ) {
        self.block_slots[slot] = Some(BlockCtx {
            block_id,
            smem: vec![0u8; launch.smem_per_block as usize],
            total_warps: wpb,
            done_warps: 0,
            arrived: 0,
        });
        self.stats.blocks += 1;
        for w in 0..wpb as usize {
            let wi = slot * wpb as usize + w;
            let warp = &mut self.warps[wi];
            warp.reset(launch.block_threads);
            warp.pc = prog.entry_pc;
            warp.cur_idx = prog.entry_idx;
            warp.next_issue = start_cycle;
            // Fresh warps invalidate their scheduler's next-ready bound.
            self.refresh(wi, prog);
        }
    }

    /// Picks the warp a scheduler samples this period (round-robin over
    /// resident warps). Returns `None` when the scheduler has no resident warp.
    pub(crate) fn pick_sample_warp(&mut self, sched: usize) -> Option<usize> {
        let list = &self.col_warp[self.sched_cols[sched].clone()];
        if list.is_empty() {
            return None;
        }
        for k in 0..list.len() {
            let pos = (self.rr_sample[sched] + k) % list.len();
            let wi = list[pos];
            let resident =
                !self.warps[wi].done && self.block_slots[self.warps[wi].block_slot].is_some();
            if resident {
                self.rr_sample[sched] = (pos + 1) % list.len();
                return Some(wi);
            }
        }
        None
    }

    /// Full warp-status classification: whether `wi` can issue at `now`, and
    /// if not, the CUPTI-style stall reason a sample would report.
    ///
    /// Must stay in lock-step with [`Sm::ready_at`]: for any frozen machine state,
    /// `classify(..) == Ready` exactly when `ready_at(..) <= now`. The dense
    /// oracle (`crate::reference`) asserts this for every warp it visits.
    pub(crate) fn classify(&self, wi: usize, prog: &CompiledProgram, now: u64) -> Status {
        let w = &self.warps[wi];
        if w.done || self.block_slots[w.block_slot].is_none() {
            return Status::NotResident;
        }
        if w.at_barrier {
            return Status::Stalled(StallReason::Synchronization);
        }
        if w.fetch_ready > now {
            return Status::Stalled(StallReason::InstructionFetch);
        }
        if w.next_issue > now {
            return Status::Stalled(if w.prev_was_ctrl {
                StallReason::InstructionFetch
            } else {
                StallReason::ExecutionDependency
            });
        }
        let meta = &prog.meta[w.cur_idx as usize];
        // Scoreboard barriers named in the wait mask.
        if meta.wait_mask != 0 {
            for b in 0..6 {
                if meta.wait_mask & (1 << b) != 0 && w.bar_clear[b] > now {
                    let r = StallReason::from_code(w.bar_reason[b])
                        .unwrap_or(StallReason::ExecutionDependency);
                    return Status::Stalled(r);
                }
            }
        }
        // Register/predicate interlock.
        for &r in &meta.use_regs {
            if w.reg_ready[r as usize] > now {
                let reason = StallReason::from_code(w.reg_reason[r as usize])
                    .unwrap_or(StallReason::ExecutionDependency);
                return Status::Stalled(reason);
            }
        }
        if meta.use_preds != 0 {
            for p in 0..7 {
                if meta.use_preds & (1 << p) != 0 && w.pred_ready[p] > now {
                    return Status::Stalled(StallReason::ExecutionDependency);
                }
            }
        }
        // Memory back-pressure: the model's own servers first (more
        // specific), then the LSU limit. Both mirror the `throttle_clear`
        // term in [`Sm::ready_at`].
        if meta.throttled_mem {
            if let Some(reason) = self.mem.back_pressure() {
                return Status::Stalled(reason);
            }
            if self.lsu.is_full() {
                return Status::Stalled(StallReason::MemoryThrottle);
            }
        }
        // Pipe throughput.
        let sched = w.scheduler as usize;
        if self.pipe_free[sched * N_PIPES + meta.pipe as usize] > now {
            return Status::Stalled(StallReason::PipeBusy);
        }
        Status::Ready
    }

    /// The warp's [`Horizon`] from scratch: the terms of its readiness
    /// that stay fixed until it issues, is released from a barrier, or
    /// its slot gets a new block.
    ///
    /// Every condition [`Sm::classify`] checks is of the form `time >= T`,
    /// so the earliest ready cycle is just the max of the clear times — an
    /// integer fold, no reason bookkeeping. The pipe and throttle clear
    /// times are shared with other warps and therefore left to
    /// [`Sm::ready_at`]; this records only *which* of them apply.
    pub(crate) fn horizon_of(&self, wi: usize, prog: &CompiledProgram) -> Horizon {
        let w = &self.warps[wi];
        if w.done || self.block_slots[w.block_slot].is_none() || w.at_barrier {
            return Horizon::PARKED;
        }
        let mut t = w.fetch_ready.max(w.next_issue);
        let meta = &prog.meta[w.cur_idx as usize];
        if meta.wait_mask != 0 {
            for b in 0..6 {
                if meta.wait_mask & (1 << b) != 0 {
                    t = t.max(w.bar_clear[b]);
                }
            }
        }
        for &r in &meta.use_regs {
            t = t.max(w.reg_ready[r as usize]);
        }
        if meta.use_preds != 0 {
            for p in 0..7 {
                if meta.use_preds & (1 << p) != 0 {
                    t = t.max(w.pred_ready[p]);
                }
            }
        }
        Horizon {
            own: t,
            pipe: (w.scheduler as usize * N_PIPES + meta.pipe as usize) as u16,
            throttled: meta.throttled_mem,
        }
    }

    /// Re-derives warp `wi`'s cached [`Horizon`] and lowers its
    /// scheduler's next-ready bound to it. Called wherever the inputs of
    /// [`Sm::horizon_of`] change: at the end of the warp's own issue, when
    /// a barrier releases it, and when a block starts in its slot. The
    /// last two wake a warp from outside its scheduler's scan, so the
    /// bound (computed while the warp looked unwakeable) must drop with
    /// the horizon; after the warp's own issue the scan has left a bound
    /// folded over the scheduler's *other* warps, and the `min` adds the
    /// issuer's next instruction to it.
    pub(crate) fn refresh(&mut self, wi: usize, prog: &CompiledProgram) {
        let horizon = self.horizon_of(wi, prog);
        self.horizons[self.col_of[wi]] = horizon;
        let bound = &mut self.sched_next_ready[self.warps[wi].scheduler as usize];
        *bound = (*bound).min(horizon.own);
    }

    /// The cheap readiness horizon: the earliest cycle the warp cached as
    /// `h` could issue, assuming no other warp's issue wakes it first.
    /// `u64::MAX` when only another warp's progress can unblock it.
    /// `throttle_clear` is [`Sm::throttle_clear`], hoisted by the caller
    /// because it is the same for every warp of a scan.
    ///
    /// Events that can lower the cached part from outside (barrier
    /// release, block replacement) go through [`Sm::refresh`]; later memory
    /// traffic can only *raise* the throttle component, which keeps the
    /// scheduler bounds built from this valid lower bounds.
    #[inline]
    pub(crate) fn ready_at(&self, h: Horizon, throttle_clear: u64) -> u64 {
        let shared = if h.throttled { throttle_clear } else { 0 };
        h.own.max(self.pipe_free[h.pipe as usize]).max(shared)
    }

    /// Releases a block barrier once every live warp has arrived.
    pub(crate) fn try_release_barrier(&mut self, slot: usize, now: u64, prog: &CompiledProgram) {
        let Some(block) = self.block_slots[slot].as_mut() else { return };
        let live = block.total_warps - block.done_warps;
        if live == 0 || block.arrived < live {
            return;
        }
        block.arrived = 0;
        let wpb = block.total_warps as usize;
        for wi in slot * wpb..(slot + 1) * wpb {
            let w = &mut self.warps[wi];
            if w.at_barrier && !w.done {
                w.at_barrier = false;
                w.next_issue = w.next_issue.max(now + 1);
                // Unparked warps invalidate their scheduler's next-ready
                // bound (it was computed while they looked unwakeable).
                self.refresh(wi, prog);
            }
        }
    }
}

/// Tests of the horizon cache: each event that must refresh it.
///
/// Mutation note, checked once by hand when the cache was introduced:
/// with any one of the three `refresh` calls removed, all four
/// un-ignored tests of `cargo test --release --test sim_equivalence` fail
/// on the dense oracle's lock-step assert at the first stale warp —
/// without the one in `start_block`, warp 0 at cycle 0 ("classify says
/// Ready, ready_at says 18446744073709551615"); without the one in
/// `try_release_barrier`, the first released warp, the same way; without
/// the one that ends `issue_one`, cycle 8 ("classify says
/// Stalled(InstructionFetch), ready_at says 8"). Debug builds trip the
/// `stale horizon` assert in `EventCore::scan` before that.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::tests::{membound_launch, params_u64, BARRIER, CALL, DIVERGE, MEMBOUND};
    use crate::machine::{EventCore, GpuSim, IssueCore, SimConfig};
    use crate::memory::Flat;
    use gpa_isa::parse_module;
    use std::cell::Cell;

    /// One SM with one two-warp slot of the `barrier` kernel, no block
    /// started yet.
    fn barrier_sm() -> (Sm<Flat>, CompiledProgram, LaunchConfig) {
        let arch = ArchConfig::small(1);
        let launch = LaunchConfig::new(1, 64);
        let prog = CompiledProgram::build(&parse_module(BARRIER).unwrap(), "barrier", &arch)
            .expect("kernel compiles");
        (Sm::new(0, 1, 2, &launch, &prog, &arch, Flat), prog, launch)
    }

    /// `pipe_free` is indexed by `Pipe as usize`: every pipe has a slot
    /// of its own below `N_PIPES`. The match is exhaustive, so a new pipe
    /// has to come through here.
    #[test]
    fn pipe_discriminants_index_the_pipe_table() {
        use gpa_isa::Pipe::{self, *};
        let slot = |p: Pipe| match p {
            Alu => 0,
            Fma => 1,
            Fp64 => 2,
            Sfu => 3,
            Lsu => 4,
            Branch => 5,
            Misc => 6,
        };
        for p in [Alu, Fma, Fp64, Sfu, Lsu, Branch, Misc] {
            assert_eq!(p as usize, slot(p));
            assert!(slot(p) < N_PIPES);
        }
    }

    #[test]
    fn start_block_arms_fresh_warps_at_the_start_cycle() {
        let (mut sm, prog, launch) = barrier_sm();
        assert!(sm.horizons.iter().all(|h| *h == Horizon::PARKED), "empty slots are parked");
        // As scans over the empty slot would have left the bounds.
        sm.sched_next_ready.fill(u64::MAX);
        sm.start_block(0, 0, 2, &launch, &prog, 40);
        let entry = &prog.meta[prog.entry_idx as usize];
        for wi in 0..2 {
            let sched = sm.warps[wi].scheduler as usize;
            let pipe = (sched * N_PIPES + entry.pipe as usize) as u16;
            assert_eq!(
                sm.horizons[sm.col_of[wi]],
                Horizon { own: 40, pipe, throttled: entry.throttled_mem }
            );
            assert_eq!(sm.sched_next_ready[sched], 40, "the bound drops with the horizon");
        }
        assert!(
            sm.sched_next_ready[2..].iter().all(|&b| b == u64::MAX),
            "idle schedulers keep theirs"
        );
    }

    #[test]
    fn barrier_release_wakes_parked_warps_and_lowers_their_bounds() {
        let (mut sm, prog, launch) = barrier_sm();
        sm.start_block(0, 0, 2, &launch, &prog, 0);
        // Both warps arrive, as two `BAR` issues would leave them.
        for wi in 0..2 {
            sm.warps[wi].at_barrier = true;
            sm.refresh(wi, &prog);
            assert_eq!(sm.horizons[sm.col_of[wi]], Horizon::PARKED, "BAR parks the warp");
        }
        sm.block_slots[0].as_mut().unwrap().arrived = 2;
        sm.sched_next_ready.fill(u64::MAX);
        sm.try_release_barrier(0, 100, &prog);
        for wi in 0..2 {
            assert!(!sm.warps[wi].at_barrier);
            assert_eq!(sm.horizons[sm.col_of[wi]].own, 101, "u64::MAX became now + 1");
            assert_eq!(sm.sched_next_ready[sm.warps[wi].scheduler as usize], 101);
        }
        // An exited warp stays parked whatever else changes.
        sm.warps[1].done = true;
        sm.refresh(1, &prog);
        assert_eq!(sm.horizons[sm.col_of[1]], Horizon::PARKED, "EXIT parks the warp");
    }

    thread_local! {
        /// What [`Probe`] saw on this thread: warps parked by `EXIT`, warps
        /// parked by `BAR`, horizons raised to an i-cache fill time,
        /// schedulers skipped by their bound.
        static SEEN: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
    }

    /// The production core, checking before every scan that *every* warp
    /// of the SM — not only the ones the scan will visit — has the
    /// horizon a from-scratch recompute gives, i.e. that every issue so
    /// far refreshed everything it changed; and that a scheduler the scan
    /// is about to skip has no warp `classify` calls ready, i.e. that no
    /// bound a scan or a refresh left is too high.
    struct Probe;

    impl IssueCore for Probe {
        fn scan<M: MemoryModel>(
            sm: &mut Sm<M>,
            sched: usize,
            cycle: u64,
            prog: &CompiledProgram,
        ) -> Option<usize> {
            let mut seen = SEEN.get();
            for (col, &wi) in sm.col_warp.iter().enumerate() {
                let (w, cached) = (&sm.warps[wi], sm.horizons[col]);
                assert_eq!(cached, sm.horizon_of(wi, prog), "warp {wi} at cycle {cycle}");
                if sm.block_slots[w.block_slot].is_none() {
                    continue;
                }
                if w.done || w.at_barrier {
                    assert_eq!(cached, Horizon::PARKED, "warp {wi} at cycle {cycle}");
                    seen[w.at_barrier as usize] += 1;
                } else if w.fetch_ready > w.next_issue {
                    assert_eq!(cached.own, w.fetch_ready, "warp {wi} waits for its i-cache fill");
                    seen[2] += 1;
                }
            }
            if sm.sched_next_ready[sched] > cycle {
                for &wi in &sm.col_warp[sm.sched_cols[sched].clone()] {
                    assert_ne!(
                        sm.classify(wi, prog, cycle),
                        Status::Ready,
                        "SM {} scheduler {sched} is skipped until {} but warp {wi} is ready at \
                         cycle {cycle}",
                        sm.id,
                        sm.sched_next_ready[sched],
                    );
                }
                seen[3] += 1;
            }
            SEEN.set(seen);
            EventCore::scan(sm, sched, cycle, prog)
        }

        fn advance<M>(sms: &[Sm<M>], next: u64, cfg: &SimConfig) -> u64 {
            EventCore::advance(sms, next, cfg)
        }
    }

    /// Mutation note for the skipped-scheduler assert, checked by hand
    /// when the look-ahead bound was introduced. With the second ready
    /// warp ignored (`EventCore::scan` folding on instead of setting
    /// `cycle + 1`) it fires on the first kernel, before any launch can
    /// diverge or hang: "SM 0 scheduler 0 is skipped until 40 but warp 4
    /// is ready at cycle 20". With the lowering removed from
    /// `Sm::refresh` (the horizon stored, the bound left alone), which
    /// since that change also has to pull the bound down to the issuer's
    /// own next instruction: "SM 0 scheduler 1 is skipped until 120 but
    /// warp 61 is ready at cycle 117".
    #[test]
    fn every_issue_leaves_every_cached_horizon_fresh() {
        let run = |arch: &ArchConfig, text: &str, entry: &str, launch: LaunchConfig, bufs: u64| {
            let mut gpu = GpuSim::new(arch.clone(), SimConfig::default());
            let bufs: Vec<u64> = (0..bufs).map(|_| gpu.global_mut().alloc(4 * 1024)).collect();
            let prog = gpu.compile(&parse_module(text).unwrap(), entry).unwrap();
            gpu.launch_on::<Probe>(&prog, &launch, &params_u64(&bufs), &mut Vec::new()).unwrap();
        };
        for arch in [ArchConfig::small(2), ArchConfig::small(2).with_hierarchy()] {
            // More blocks than slots, so blocks also start mid-launch, at
            // a non-zero cycle, in slots whose warps have exited.
            let refilling = LaunchConfig::new(100, 64);
            assert!(
                refilling.grid_blocks > arch.occupancy(&refilling).blocks_per_sm * arch.num_sms
            );
            run(&arch, BARRIER, "barrier", refilling, 0);
            run(&arch, DIVERGE, "diverge", LaunchConfig::new(2, 32), 1);
            run(&arch, CALL, "main", LaunchConfig::new(2, 32), 1);
            run(&arch, MEMBOUND, "membound", membound_launch(8), 2);
        }
        let [exited, at_bar, filling, skipped] = SEEN.get();
        assert!(exited > 0, "never saw a warp parked by EXIT");
        assert!(at_bar > 0, "never saw a warp parked at BAR");
        assert!(filling > 0, "never saw a horizon raised to an i-cache fill time");
        assert!(skipped > 0, "never saw a scheduler skipped by its bound");
    }
}
