//! The device: [`GpuSim`], the launch loop, and the issue path.
//!
//! The timing core is **event-driven**: instead of re-evaluating every
//! warp on every cycle, the scheduler reads, per warp, the earliest
//! cycle it could possibly issue (`Sm::ready_at`, over a horizon cached
//! when the warp last changed) and jumps the clock straight to the next
//! interesting cycle — the minimum over all warps' ready times and the
//! next PC-sampling tick. Nothing can change while no
//! warp issues (all scoreboard/barrier/pipe clear times are frozen), so
//! samples taken at skipped-period boundaries and the final
//! [`LaunchResult`] are byte-identical to a dense per-cycle loop — which
//! survives only as the test oracle in [`crate::reference`].
//!
//! The memory model and the issue core are fixed for a whole launch, so
//! both are types chosen once in `GpuSim::launch_on` and monomorphised
//! through the cycle loop.

use crate::exec::{execute, ExecCtx, MemAccess, Outcome};
use crate::mem::{ConstMem, DirectCache, GlobalMem};
use crate::memory::{Flat, Hierarchy, MemoryModel};
use crate::program::{CompiledProgram, NO_IDX};
use crate::sample::{SampleSet, SampleSink};
use crate::sm::{Sm, Status, N_PIPES};
use crate::stall::StallReason;
use crate::{Result, SimError};
use gpa_arch::{ArchConfig, LaunchConfig, MemModel, Occupancy};
use gpa_isa::{Module, INSTR_BYTES};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cycles to swap a finished block for a queued one.
const BLOCK_LAUNCH_OVERHEAD: u64 = 25;
/// Cycles until a store's read barrier clears (WAR window).
const WAR_READ_CYCLES: u64 = 15;

/// What one run can vary (the machine description is [`ArchConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Abort the launch after this many cycles.
    pub max_cycles: u64,
    /// PC-sampling period in cycles per SM (0 disables sampling).
    pub sampling_period: u32,
    /// Offset of the first sampling tick in cycles. Replay-style repeat
    /// profiling varies the phase per launch so merged profiles observe
    /// different cycles of the same deterministic execution.
    pub sampling_phase: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { max_cycles: 500_000_000, sampling_period: 509, sampling_phase: 0 }
    }
}

/// One PC sample, the raw material of a profile (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSample {
    /// SM that took the sample.
    pub sm: u32,
    /// Warp scheduler sampled (round-robin).
    pub scheduler: u32,
    /// Cycle of the sample.
    pub cycle: u64,
    /// PC of the sampled warp's next instruction.
    pub pc: u64,
    /// The sampled warp's stall reason (`Selected` if it issued).
    pub stall: StallReason,
    /// Whether the scheduler issued *any* instruction this cycle — `true`
    /// makes this an **active sample**, `false` a **latency sample**.
    pub scheduler_active: bool,
}

/// Per-SM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Instructions issued on this SM.
    pub issued: u64,
    /// Blocks the SM executed.
    pub blocks: u32,
}

/// Host-side work of one launch's scheduler: how often the cycle loop
/// came back and what its scans found. **Core-specific** — the event
/// core counts what it skips by; the dense oracle steps every cycle and
/// leaves the three scan counters at zero — and no part of what was
/// simulated, so it never takes part in a result's identity: any two
/// values compare equal, and no JSON body carries one.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Cycles the loop stepped (the rest were jumped over).
    pub cycles_stepped: u64,
    /// Scheduler issue opportunities offered (stepped cycles x SMs x
    /// schedulers).
    pub sched_visits: u64,
    /// Opportunities not skipped by the scheduler's next-ready bound.
    pub scans: u64,
    /// Scans that found no warp to issue.
    pub scan_misses: u64,
    /// Warp horizons folded by all scans.
    pub horizon_visits: u64,
}

impl PartialEq for SimStats {
    fn eq(&self, _: &SimStats) -> bool {
        true
    }
}

/// Everything a launch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Total kernel cycles (launch to last block completion).
    pub cycles: u64,
    /// Total instructions issued.
    pub issued: u64,
    /// Aggregated PC samples (empty when sampling is disabled, or when
    /// the launch streamed its samples into an external [`SampleSink`]).
    pub samples: SampleSet,
    /// Exact per-PC issue counts (ground truth for validation), ordered
    /// by PC so iteration is deterministic.
    pub issue_counts: BTreeMap<u64, u64>,
    /// Global-memory transactions (32-byte sectors).
    pub mem_transactions: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// The occupancy the launch achieved.
    pub occupancy: Occupancy,
    /// The launch configuration used.
    pub launch: LaunchConfig,
    /// Per-SM counters.
    pub sm_stats: Vec<SmStats>,
    /// What the scheduler core did on the host (not compared).
    pub sim_stats: SimStats,
}

/// The simulated device. Owns global memory and constant banks across
/// launches so hosts can initialize inputs, launch, and read back results.
#[derive(Debug)]
pub struct GpuSim {
    arch: ArchConfig,
    cfg: SimConfig,
    global: GlobalMem,
    user_banks: Vec<(u8, Vec<u8>)>,
}

impl GpuSim {
    /// Creates a device.
    pub fn new(arch: ArchConfig, cfg: SimConfig) -> Self {
        GpuSim { arch, cfg, global: GlobalMem::new(), user_banks: Vec::new() }
    }

    /// The simulator knobs.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable simulator knobs (e.g. to change the sampling period).
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// Device global memory (read back results).
    pub fn global(&self) -> &GlobalMem {
        &self.global
    }

    /// Device global memory (host-side initialization).
    pub fn global_mut(&mut self) -> &mut GlobalMem {
        &mut self.global
    }

    /// Sets a user constant bank (bank 0 is reserved for kernel params).
    pub fn set_const_bank(&mut self, bank: u8, data: Vec<u8>) {
        self.user_banks.retain(|(b, _)| *b != bank);
        self.user_banks.push((bank, data));
    }

    /// Lowers `entry` from `module` once for this device's architecture.
    /// The result is shareable ([`Arc`]) and reusable across launches and
    /// across devices configured with the same architecture — callers
    /// that launch the same kernel repeatedly should compile once and use
    /// [`GpuSim::launch_compiled`].
    ///
    /// # Errors
    ///
    /// Fails on unknown kernels or unlinked modules.
    pub fn compile(&self, module: &Module, entry: &str) -> Result<Arc<CompiledProgram>> {
        CompiledProgram::build(module, entry, &self.arch).map(Arc::new)
    }

    /// Launches `entry` from `module` and runs it to completion, with
    /// the default at-source aggregating sample sink: the result carries
    /// a [`SampleSet`], never a raw sample buffer.
    ///
    /// `params` fills constant bank 0 (kernel parameters: buffer addresses
    /// and scalars, little-endian).
    ///
    /// # Errors
    ///
    /// Fails on unknown kernels, unlinked modules, zero-sized launches,
    /// functional faults, or exceeding the cycle budget.
    pub fn launch(
        &mut self,
        module: &Module,
        entry: &str,
        launch: &LaunchConfig,
        params: &[u8],
    ) -> Result<LaunchResult> {
        let prog = CompiledProgram::build(module, entry, &self.arch)?;
        self.launch_compiled(&prog, launch, params)
    }

    /// Launches an already-compiled program (see [`GpuSim::compile`]),
    /// skipping the per-launch lowering work. Samples aggregate into the
    /// result's [`SampleSet`].
    ///
    /// # Errors
    ///
    /// Fails on architecture mismatch, zero-sized launches, functional
    /// faults, or exceeding the cycle budget.
    pub fn launch_compiled(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
    ) -> Result<LaunchResult> {
        let mut set = SampleSet::new();
        let mut result = self.launch_compiled_with_sink(prog, launch, params, &mut set)?;
        result.samples = set;
        Ok(result)
    }

    /// [`GpuSim::launch_compiled`] with a caller-supplied [`SampleSink`]:
    /// every raw sample streams into `sink` and `LaunchResult::samples`
    /// stays empty. Pass a `Vec<RawSample>` to buffer the raw stream
    /// (tests, per-sample inspection, differential checks).
    ///
    /// # Errors
    ///
    /// Same as [`GpuSim::launch_compiled`].
    pub fn launch_compiled_with_sink(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
        sink: &mut dyn SampleSink,
    ) -> Result<LaunchResult> {
        self.launch_on::<EventCore>(prog, launch, params, sink)
    }

    /// Validates the launch, then runs it on issue core `C` and the
    /// memory model `arch.mem` names — the one place either is chosen.
    pub(crate) fn launch_on<C: IssueCore>(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
        sink: &mut dyn SampleSink,
    ) -> Result<LaunchResult> {
        if prog.arch_name != self.arch.name {
            return Err(SimError::BadLaunch(format!(
                "program compiled for arch `{}`, device is `{}`",
                prog.arch_name, self.arch.name
            )));
        }
        if launch.grid_blocks == 0 || launch.block_threads == 0 {
            return Err(SimError::BadLaunch("empty grid or block".into()));
        }
        if launch.block_threads > self.arch.max_threads_per_block {
            return Err(SimError::BadLaunch(format!(
                "{} threads per block exceeds the {} limit",
                launch.block_threads, self.arch.max_threads_per_block
            )));
        }
        // The caches shift by their line size (`DirectCache`).
        let l1_line = match &self.arch.mem {
            MemModel::Hierarchy(h) => h.l1_line,
            MemModel::Flat => 1,
        };
        let lines = [("icache", self.arch.icache_line), ("l2", self.arch.l2_line), ("l1", l1_line)];
        if let Some((cache, line)) = lines.into_iter().find(|(_, line)| !line.is_power_of_two()) {
            return Err(SimError::BadLaunch(format!(
                "`{cache}_line` is {line}, not a non-zero power of two"
            )));
        }
        if self.user_banks.iter().any(|(bank, _)| *bank == 0) {
            return Err(SimError::BadLaunch(
                "constant bank 0 is reserved for kernel parameters".into(),
            ));
        }
        let occupancy = self.arch.occupancy(launch);
        let wpb = launch.warps_per_block(self.arch.warp_size);
        let mut consts = ConstMem::new();
        consts.set_bank(0, params.to_vec());
        for (b, data) in &self.user_banks {
            consts.set_bank(*b, data.clone());
        }

        let st = LaunchState {
            prog,
            arch: &self.arch,
            cfg: &self.cfg,
            launch,
            wpb,
            nsched: self.arch.schedulers_per_sm as usize,
            global: &mut self.global,
            consts,
            l2: DirectCache::new(self.arch.l2_size, self.arch.l2_line),
            icache_slots: {
                let icache = DirectCache::new(self.arch.icache_size, self.arch.icache_line);
                prog.pcs.iter().map(|&pc| icache.slot(pc)).collect()
            },
            next_block: 0,
            blocks_done: 0,
            sink,
            access: MemAccess::new(),
            issue_counts: vec![0; prog.plans.len()],
            issued_total: 0,
            mem_transactions: 0,
            icache_misses: 0,
        };
        match &self.arch.mem {
            MemModel::Flat => st.run::<C, _>(occupancy, || Flat),
            MemModel::Hierarchy(h) => st.run::<C, _>(occupancy, || Hierarchy::new(h)),
        }
    }
}

/// What the event core and the dense oracle (`crate::reference`)
/// disagree on: how a scheduler finds its issue, and how the clock
/// advances. Stateless — the bounds the event core caches live in
/// [`Sm::sched_next_ready`], because block starts and barrier releases
/// must invalidate them whichever core runs.
pub(crate) trait IssueCore {
    /// The warp scheduler `sched` issues at `cycle`, if any, advancing
    /// its round-robin pointer past it.
    fn scan<M: MemoryModel>(
        sm: &mut Sm<M>,
        sched: usize,
        cycle: u64,
        prog: &CompiledProgram,
    ) -> Option<usize>;

    /// The next cycle worth stepping, given that every SM has been
    /// stepped through `next - 1` and blocks remain.
    fn advance<M>(sms: &[Sm<M>], next: u64, cfg: &SimConfig) -> u64;
}

/// The production core.
pub(crate) struct EventCore;

impl IssueCore for EventCore {
    /// A scheduler whose next-ready bound lies in the future is skipped
    /// without touching its warps — it provably cannot issue. Otherwise
    /// fold its columns' readiness horizons in round-robin order (from
    /// the pointer to the end, then from the start to the pointer); the
    /// first warp whose horizon has arrived issues. The fold does not
    /// stop there: it goes on until a second warp is ready — the
    /// scheduler's next-ready bound is then the next cycle — or to the
    /// end, and the bound is the minimum over everyone but the issuer,
    /// whose new horizon [`Sm::refresh`] folds in once it has issued. A
    /// horizon read before the issue stays a lower bound after it (pipe
    /// and throttle clear times only rise), so the cycles up to the
    /// bound cannot issue and are never scanned. Debug builds check
    /// every cached horizon they read against a recompute.
    fn scan<M: MemoryModel>(
        sm: &mut Sm<M>,
        sched: usize,
        cycle: u64,
        prog: &CompiledProgram,
    ) -> Option<usize> {
        if sm.sched_next_ready[sched] > cycle {
            return None;
        }
        let throttle_clear = sm.throttle_clear();
        let cols = sm.sched_cols[sched].clone();
        let rr = cols.start + sm.rr_issue[sched];
        let (mut issuer, mut earliest, mut visits) = (None, u64::MAX, 0);
        'fold: for part in [rr..cols.end, cols.start..rr] {
            for (col, &horizon) in part.clone().zip(&sm.horizons[part]) {
                debug_assert_eq!(
                    horizon,
                    sm.horizon_of(sm.col_warp[col], prog),
                    "stale horizon: SM {} scheduler {sched} warp {} cycle {cycle}",
                    sm.id,
                    sm.col_warp[col],
                );
                visits += 1;
                let t = sm.ready_at(horizon, throttle_clear);
                if t > cycle {
                    earliest = earliest.min(t);
                } else if issuer.is_none() {
                    issuer = Some(col);
                } else {
                    // One issue per scheduler per cycle: this one waits.
                    earliest = cycle + 1;
                    break 'fold;
                }
            }
        }
        sm.sched_next_ready[sched] = earliest;
        sm.work.scans += 1;
        sm.work.scan_misses += issuer.is_none() as u64;
        sm.work.horizon_visits += visits;
        let col = issuer?;
        sm.rr_issue[sched] = if col + 1 == cols.end { 0 } else { col + 1 - cols.start };
        Some(sm.col_warp[col])
    }

    /// Every scheduler carries a lower bound on its next possible issue
    /// cycle, so nothing can change before the earliest bound: jump
    /// there, stopping at sampling ticks so the sample stream stays
    /// identical to the dense loop's.
    fn advance<M>(sms: &[Sm<M>], next: u64, cfg: &SimConfig) -> u64 {
        let mut bound = u64::MAX;
        for sm in sms {
            for &b in &sm.sched_next_ready {
                bound = bound.min(b);
            }
        }
        let period = cfg.sampling_period as u64;
        let phase = cfg.sampling_phase as u64;
        // Smallest sampling tick (phase + m·period) at or after `next`.
        let next_tick = if period == 0 {
            u64::MAX
        } else if next <= phase {
            phase
        } else {
            phase + (next - phase).div_ceil(period).saturating_mul(period)
        };
        // A jump past the budget still errors deterministically: clamp
        // to max_cycles + 1 and let the loop-top check fire exactly as a
        // dense loop would.
        bound.min(next_tick).max(next).min(cfg.max_cycles.saturating_add(1))
    }
}

/// Per-launch mutable state shared by the cycle stepper and issue path
/// (everything except the SMs themselves, which are borrowed per call).
struct LaunchState<'a> {
    prog: &'a CompiledProgram,
    arch: &'a ArchConfig,
    cfg: &'a SimConfig,
    launch: &'a LaunchConfig,
    wpb: u32,
    nsched: usize,
    global: &'a mut GlobalMem,
    consts: ConstMem,
    l2: DirectCache,
    /// Every instruction's slot in an SM's i-cache, by program index:
    /// this launch's geometry (a program's only arch key is a name).
    icache_slots: Vec<(u32, u64)>,
    next_block: u32,
    blocks_done: u32,
    sink: &'a mut dyn SampleSink,
    /// Lent to every `execute`, which reports memory traffic in it.
    access: MemAccess,
    issue_counts: Vec<u64>,
    issued_total: u64,
    mem_transactions: u64,
    icache_misses: u64,
}

impl LaunchState<'_> {
    /// Builds the SMs around per-SM memory-model state from `mem`, deals
    /// the first blocks breadth-first, and steps until the grid drains.
    fn run<C: IssueCore, M: MemoryModel>(
        mut self,
        occupancy: Occupancy,
        mem: impl Fn() -> M,
    ) -> Result<LaunchResult> {
        let (prog, launch) = (self.prog, self.launch);
        let slots = occupancy.blocks_per_sm.max(1) as usize;
        let mut sms: Vec<Sm<M>> = (0..self.arch.num_sms)
            .map(|id| Sm::new(id, slots, self.wpb, launch, prog, self.arch, mem()))
            .collect();
        for slot in 0..slots {
            for sm in &mut sms {
                if self.next_block < launch.grid_blocks {
                    sm.start_block(slot, self.next_block, self.wpb, launch, prog, 0);
                    self.next_block += 1;
                }
            }
        }

        let mut cycle: u64 = 0;
        let mut cycles_stepped = 0;
        while self.blocks_done < launch.grid_blocks {
            if cycle > self.cfg.max_cycles {
                return Err(SimError::CycleLimit(self.cfg.max_cycles));
            }
            cycles_stepped += 1;
            let sample_sched = self.sample_sched(cycle);
            for sm in &mut sms {
                self.step_sm::<C, M>(sm, cycle, sample_sched)?;
            }
            cycle += 1;
            if self.blocks_done < launch.grid_blocks {
                cycle = C::advance(&sms, cycle, self.cfg);
            }
        }

        let (l2_hits, l2_misses) = self.l2.stats();
        let mut sim_stats = SimStats {
            cycles_stepped,
            sched_visits: cycles_stepped * (sms.len() * self.nsched) as u64,
            ..SimStats::default()
        };
        for sm in &sms {
            sim_stats.scans += sm.work.scans;
            sim_stats.scan_misses += sm.work.scan_misses;
            sim_stats.horizon_visits += sm.work.horizon_visits;
        }
        Ok(LaunchResult {
            cycles: cycle,
            issued: self.issued_total,
            samples: SampleSet::new(),
            issue_counts: prog
                .pcs
                .iter()
                .zip(self.issue_counts.iter())
                .filter(|(_, &c)| c > 0)
                .map(|(&pc, &c)| (pc, c))
                .collect(),
            mem_transactions: self.mem_transactions,
            l2_hits,
            l2_misses,
            icache_misses: self.icache_misses,
            occupancy,
            launch: *launch,
            sm_stats: sms.iter().map(|s| s.stats).collect(),
            sim_stats,
        })
    }

    /// The scheduler every SM samples at `cycle`, when it is a sampling
    /// tick: ticks rotate over the schedulers by period index.
    fn sample_sched(&self, cycle: u64) -> Option<usize> {
        let period = self.cfg.sampling_period as u64;
        let since = cycle.checked_sub(self.cfg.sampling_phase as u64)?;
        (period > 0 && since.is_multiple_of(period))
            .then(|| (since / period) as usize % self.nsched)
    }

    /// Runs one cycle on one SM: retire memory requests, then give each
    /// scheduler one issue opportunity (sampling `sample_sched` first,
    /// pre-issue, so samples see the cycle's initial state). Full stall
    /// classification runs only for the sampled warp on sampling ticks;
    /// how a scheduler finds its issue is the core's business.
    fn step_sm<C: IssueCore, M: MemoryModel>(
        &mut self,
        sm: &mut Sm<M>,
        cycle: u64,
        sample_sched: Option<usize>,
    ) -> Result<()> {
        sm.lsu.retire(cycle);
        sm.mem.retire(cycle);
        for sched in 0..self.nsched {
            // Pre-issue snapshot of the warp this scheduler would sample,
            // so samples see the cycle's initial state.
            let sampled =
                if sample_sched == Some(sched) { sm.pick_sample_warp(sched) } else { None };
            let sampled_status = sampled.map(|wi| (wi, sm.classify(wi, self.prog, cycle)));
            let issued_warp = C::scan(sm, sched, cycle, self.prog);
            if let Some(wi) = issued_warp {
                self.issue_one(sm, wi, cycle)?;
            }
            if let Some((wi, status)) = sampled_status {
                let w = &sm.warps[wi];
                let stall = if issued_warp == Some(wi) {
                    StallReason::Selected
                } else {
                    match status {
                        Status::Ready => StallReason::NotSelected,
                        Status::Stalled(r) => r,
                        Status::NotResident => StallReason::Other,
                    }
                };
                self.sink.record(RawSample {
                    sm: sm.id,
                    scheduler: sched as u32,
                    cycle,
                    pc: w.pc,
                    stall,
                    scheduler_active: issued_warp.is_some(),
                });
            }
        }
        Ok(())
    }

    /// Issues warp `wi`'s next instruction: functional execution, result
    /// latency bookkeeping, control flow, and block lifecycle.
    fn issue_one<M: MemoryModel>(&mut self, sm: &mut Sm<M>, wi: usize, now: u64) -> Result<()> {
        let prog = self.prog;
        let idx = sm.warps[wi].cur_idx as usize;
        let plan = &prog.plans[idx];
        let meta = &prog.meta[idx];

        // Functional execution.
        let res = {
            let warps = &mut sm.warps;
            let blocks = &mut sm.block_slots;
            let warp = &mut warps[wi];
            let block = blocks[warp.block_slot].as_mut().expect("resident warp has a block");
            let mut ctx = ExecCtx {
                global: self.global,
                smem: &mut block.smem,
                consts: &self.consts,
                block_id: block.block_id,
                grid_blocks: self.launch.grid_blocks,
                block_threads: self.launch.block_threads,
            };
            execute(warp, plan, meta.reconv, &mut ctx, &mut self.access)?
        };

        self.issue_counts[idx] += 1;
        self.issued_total += 1;
        sm.stats.issued += 1;

        // Result latency and blame classification: the memory model's
        // for an access, else what lowering decided.
        let (lat, reason) = match res.mem {
            Some(mem) => {
                let (lat, txns, reason) =
                    sm.mem.access(&mut self.l2, self.arch, mem, meta.atomic_extra, now);
                sm.lsu.admit(now + lat as u64, txns);
                self.mem_transactions += txns as u64;
                (lat, reason)
            }
            None => (meta.lat, StallReason::ExecutionDependency),
        };

        let w = &mut sm.warps[wi];
        let done_at = now + lat as u64;
        for &r in &meta.def_regs {
            w.reg_ready[r as usize] = done_at;
            w.reg_reason[r as usize] = reason.code();
        }
        if meta.def_preds != 0 {
            for p in 0..7 {
                if meta.def_preds & (1 << p) != 0 {
                    w.pred_ready[p] = done_at;
                }
            }
        }
        if let Some(b) = plan.ctrl.write_barrier {
            w.bar_clear[b.index() as usize] = done_at;
            w.bar_reason[b.index() as usize] = reason.code();
        }
        if let Some(b) = plan.ctrl.read_barrier {
            w.bar_clear[b.index() as usize] = now + WAR_READ_CYCLES;
            w.bar_reason[b.index() as usize] = StallReason::ExecutionDependency.code();
        }
        w.next_issue = now + plan.ctrl.stall.max(1) as u64;
        let sched = w.scheduler as usize;
        sm.pipe_free[sched * N_PIPES + meta.pipe as usize] =
            now + self.arch.pipe_interval(meta.pipe) as u64;

        // Control flow. The next instruction index comes from the
        // precomputed fall-through/target tables; only dynamic edges
        // (returns, reconvergence switches) need a pc lookup.
        let mut redirected = false;
        let mut next_idx = meta.next_idx;
        match res.outcome {
            Outcome::Next => w.pc += INSTR_BYTES,
            Outcome::Jump(t) => {
                w.pc = t;
                next_idx = meta.target_idx;
                redirected = true;
            }
            Outcome::Call(t) => {
                w.call_stack.push(w.pc + INSTR_BYTES);
                w.pc = t;
                next_idx = meta.target_idx;
                redirected = true;
            }
            Outcome::Ret => {
                let ret = w.call_stack.pop().ok_or_else(|| SimError::Fault {
                    pc: w.pc,
                    message: "RET on empty stack".into(),
                })?;
                w.pc = ret;
                next_idx = prog.idx_of_pc(ret).unwrap_or(NO_IDX);
                redirected = true;
            }
            Outcome::Sync => {
                w.pc += INSTR_BYTES;
                w.at_barrier = true;
            }
            Outcome::Exit => {
                w.done = true;
            }
        }
        w.prev_was_ctrl = redirected;
        if redirected {
            w.next_issue = w.next_issue.max(now + self.arch.lat_branch_redirect as u64);
        }
        if !w.done {
            if w.reconverge_if_needed() {
                next_idx = prog.idx_of_pc(w.pc).unwrap_or(NO_IDX);
            }
            let pc = w.pc;
            if next_idx == NO_IDX {
                return Err(SimError::Fault {
                    pc,
                    message: "control flow left the program".into(),
                });
            }
            w.cur_idx = next_idx;
            debug_assert_eq!(prog.pcs[next_idx as usize], pc, "index and pc move together");
            if !sm.icache.access_slot(self.icache_slots[next_idx as usize]) {
                // One fill port per SM: concurrent misses queue behind each
                // other, so i-cache thrash throttles the whole SM.
                let start = sm.ifetch_fill_free.max(now);
                let ready = start + self.arch.lat_ifetch_miss as u64;
                sm.ifetch_fill_free = ready;
                sm.warps[wi].fetch_ready = ready;
                self.icache_misses += 1;
            }
        }
        // Everything the warp's horizon folds is settled; the barrier
        // bookkeeping below may un-park this same warp and refresh again.
        sm.refresh(wi, prog);

        // Block barrier / completion bookkeeping.
        let slot = sm.warps[wi].block_slot;
        match res.outcome {
            Outcome::Sync => {
                let block = sm.block_slots[slot].as_mut().expect("resident block");
                block.arrived += 1;
                sm.try_release_barrier(slot, now, prog);
            }
            Outcome::Exit => {
                let block = sm.block_slots[slot].as_mut().expect("resident block");
                block.done_warps += 1;
                if block.done_warps >= block.total_warps {
                    sm.block_slots[slot] = None;
                    self.blocks_done += 1;
                    if self.next_block < self.launch.grid_blocks {
                        let b = self.next_block;
                        self.next_block += 1;
                        let start = now + BLOCK_LAUNCH_OVERHEAD;
                        sm.start_block(slot, b, self.wpb, self.launch, prog, start);
                    }
                } else {
                    sm.try_release_barrier(slot, now, prog);
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests;
