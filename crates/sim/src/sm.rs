//! Per-SM state and warp readiness.
//!
//! [`Sm::classify`] (the full stall taxonomy, run for sampled warps) and
//! [`Sm::ready_at`] (the integer horizon the event core folds) answer
//! one question two ways and live side by side because their lock-step
//! is the simulator's central invariant: for any frozen machine state,
//! `classify(..) == Ready` exactly when `ready_at(..) <= now`. The two
//! events that *lower* a horizon from outside — block starts and barrier
//! releases — are here too, next to the bound they must invalidate.

use crate::hier::TimedServer;
use crate::machine::SmStats;
use crate::mem::DirectCache;
use crate::memory::MemoryModel;
use crate::program::CompiledProgram;
use crate::stall::StallReason;
use crate::warp::WarpState;
use gpa_arch::{ArchConfig, LaunchConfig};
use gpa_isa::Pipe;

pub(crate) struct BlockCtx {
    pub(crate) block_id: u32,
    pub(crate) smem: Vec<u8>,
    pub(crate) total_warps: u32,
    pub(crate) done_warps: u32,
    pub(crate) arrived: u32,
}

pub(crate) const N_PIPES: usize = 7;

pub(crate) fn pipe_idx(p: Pipe) -> usize {
    match p {
        Pipe::Alu => 0,
        Pipe::Fma => 1,
        Pipe::Fp64 => 2,
        Pipe::Sfu => 3,
        Pipe::Lsu => 4,
        Pipe::Branch => 5,
        Pipe::Misc => 6,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Ready,
    Stalled(StallReason),
    NotResident,
}

/// One streaming multiprocessor, generic over the launch's memory model.
pub(crate) struct Sm<M> {
    pub(crate) id: u32,
    pub(crate) block_slots: Vec<Option<BlockCtx>>,
    pub(crate) warps: Vec<WarpState>,
    pub(crate) sched_warps: Vec<Vec<usize>>,
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
    /// minimum bound. Invalidated (lowered) whenever another warp's issue
    /// can wake this scheduler's warps: barrier release and block starts.
    pub(crate) sched_next_ready: Vec<u64>,
    pub(crate) ifetch_fill_free: u64,
    pub(crate) pipe_free: Vec<u64>,
    pub(crate) rr_issue: Vec<usize>,
    pub(crate) rr_sample: Vec<usize>,
    pub(crate) stats: SmStats,
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
        let mut sched_warps = vec![Vec::new(); nsched];
        for wi in 0..total_warps {
            sched_warps[wi % nsched].push(wi);
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
            sched_warps,
            icache: DirectCache::new(arch.icache_size, arch.icache_line),
            lsu: TimedServer::new(arch.max_mem_inflight_per_sm),
            mem,
            sched_next_ready: vec![0; nsched],
            ifetch_fill_free: 0,
            pipe_free: vec![0; nsched * N_PIPES],
            rr_issue: vec![0; nsched],
            rr_sample: vec![0; nsched],
            stats: SmStats::default(),
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
            let scheduler = warp.scheduler;
            *warp = WarpState::new(
                wi as u32,
                scheduler,
                slot,
                w as u32,
                launch.block_threads,
                prog.nregs,
            );
            warp.pc = prog.entry_pc;
            warp.cur_idx = prog.entry_idx;
            warp.next_issue = start_cycle;
            // Fresh warps invalidate their scheduler's next-ready bound.
            let bound = &mut self.sched_next_ready[scheduler as usize];
            *bound = (*bound).min(start_cycle);
        }
    }

    /// Picks the warp a scheduler samples this period (round-robin over
    /// resident warps). Returns `None` when the scheduler has no resident warp.
    pub(crate) fn pick_sample_warp(&mut self, sched: usize) -> Option<usize> {
        let list = &self.sched_warps[sched];
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
        if self.pipe_free[sched * N_PIPES + pipe_idx(meta.pipe)] > now {
            return Status::Stalled(StallReason::PipeBusy);
        }
        Status::Ready
    }

    /// The cheap readiness horizon: the earliest cycle `wi` could issue,
    /// assuming no other warp's issue wakes it first. `u64::MAX` when only
    /// another warp's progress can unblock it (barrier parking, exited).
    /// `throttle_clear` is [`Sm::throttle_clear`], hoisted by the caller
    /// because it is the same for every warp of a scan.
    ///
    /// Every condition [`Sm::classify`] checks is of the form `time >= T` with `T`
    /// fixed while the warp's own state is untouched, so the earliest ready
    /// cycle is just the max of the clear times — an integer fold, no reason
    /// bookkeeping. Events that can lower the horizon from outside (barrier
    /// release, block replacement) explicitly invalidate the scheduler bounds
    /// built from it; later memory traffic can only *raise* the throttle
    /// component, which keeps cached bounds valid lower bounds.
    #[inline]
    pub(crate) fn ready_at(&self, wi: usize, prog: &CompiledProgram, throttle_clear: u64) -> u64 {
        let w = &self.warps[wi];
        if w.done || self.block_slots[w.block_slot].is_none() || w.at_barrier {
            return u64::MAX;
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
        if meta.throttled_mem {
            t = t.max(throttle_clear);
        }
        t.max(self.pipe_free[w.scheduler as usize * N_PIPES + pipe_idx(meta.pipe)])
    }

    /// Releases a block barrier once every live warp has arrived.
    pub(crate) fn try_release_barrier(&mut self, slot: usize, now: u64) {
        let Some(block) = self.block_slots[slot].as_ref() else { return };
        let live = block.total_warps - block.done_warps;
        if live == 0 || block.arrived < live {
            return;
        }
        self.block_slots[slot].as_mut().expect("checked above").arrived = 0;
        let Sm { warps, sched_next_ready, .. } = self;
        for w in warps.iter_mut() {
            if w.block_slot == slot && w.at_barrier && !w.done {
                w.at_barrier = false;
                w.next_issue = w.next_issue.max(now + 1);
                // Unparked warps invalidate their scheduler's next-ready
                // bound (it was computed while they looked unwakeable).
                let bound = &mut sched_next_ready[w.scheduler as usize];
                *bound = (*bound).min(now + 1);
            }
        }
    }
}
