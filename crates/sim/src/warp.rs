//! Per-warp functional and timing state.

use crate::stall::StallReason;
use gpa_isa::{PredReg, SpecialReg};

/// Number of lanes per warp (fixed at 32, like every NVIDIA part).
pub const WARP_LANES: usize = 32;

/// One divergence-stack entry (immediate-postdominator reconvergence).
#[derive(Debug, Clone)]
pub(crate) struct DivEntry {
    /// PC where both sides reconverge.
    pub reconv: u64,
    /// PC of the not-yet-executed side.
    pub else_pc: u64,
    /// Lanes of the not-yet-executed side.
    pub else_mask: u32,
    /// Union of both sides, restored at reconvergence.
    pub merged: u32,
    /// Whether the else side has already run.
    pub else_done: bool,
}

/// Full state of a resident warp.
#[derive(Debug, Clone, Default)]
pub struct WarpState {
    /// Warp slot id within the SM.
    pub warp_id: u32,
    /// Scheduler (sub-partition) this warp is pinned to.
    pub scheduler: u32,
    /// Index of the owning block in the SM's block table.
    pub block_slot: usize,
    /// Warp index within its block.
    pub warp_in_block: u32,

    // ---- functional state ----
    /// Next instruction address.
    pub pc: u64,
    /// Cached program index of `pc` (maintained by the machine).
    pub cur_idx: u32,
    /// Active-lane mask.
    pub active: u32,
    /// Register file: `regs[r][lane]`, sized to the program's highest
    /// register (the machine passes `CompiledProgram`'s register count, so
    /// allocating and zeroing 256 rows per warp per block start is avoided
    /// for the typical kernel that touches a few dozen).
    pub regs: Vec<[u32; WARP_LANES]>,
    /// Predicate registers as lane masks.
    pub preds: [u32; 7],
    /// Divergence stack.
    pub(crate) div_stack: Vec<DivEntry>,
    /// Call stack of return addresses (uniform control only).
    pub call_stack: Vec<u64>,
    /// Per-lane local memory (register spill space), lazily grown.
    pub local: Vec<Vec<u8>>,

    // ---- timing state ----
    /// Earliest cycle the next instruction may issue (stall counts).
    pub next_issue: u64,
    /// Earliest cycle the next instruction is available (i-cache).
    pub fetch_ready: u64,
    /// Scoreboard: cycle each register's value becomes readable.
    pub reg_ready: Vec<u64>,
    /// Stall-reason code a blocked reader of each register reports.
    pub reg_reason: Vec<u8>,
    /// Scoreboard for predicate registers.
    pub pred_ready: [u64; 7],
    /// Cycle each scoreboard barrier clears.
    pub bar_clear: [u64; 6],
    /// Stall-reason code for waiting on each barrier.
    pub bar_reason: [u8; 6],
    /// Parked at `BAR.SYNC`.
    pub at_barrier: bool,
    /// All lanes exited.
    pub done: bool,
    /// The previous issued instruction redirected the front end.
    pub prev_was_ctrl: bool,
}

impl WarpState {
    /// Creates a warp covering threads `warp_in_block*32 ..` of a block
    /// with `block_threads` threads, with an `nregs`-register file (use
    /// the executing program's register count, or 256 for the full
    /// architectural file).
    pub fn new(
        warp_id: u32,
        scheduler: u32,
        block_slot: usize,
        warp_in_block: u32,
        block_threads: u32,
        nregs: usize,
    ) -> Self {
        let mut w = WarpState {
            warp_id,
            scheduler,
            block_slot,
            warp_in_block,
            regs: vec![[0; WARP_LANES]; nregs],
            local: vec![Vec::new(); WARP_LANES],
            reg_ready: vec![0; nregs],
            reg_reason: vec![0; nregs],
            ..WarpState::default()
        };
        w.reset(block_threads);
        w
    }

    /// Returns the warp to the state a block start finds it in — zeroed
    /// registers and scoreboards, empty stacks and local memory, all of
    /// the block's lanes active — keeping its identity, its register-file
    /// size and every heap buffer it already owns.
    pub fn reset(&mut self, block_threads: u32) {
        // Exhaustive on purpose: a new field must decide what a reset
        // does to it.
        let WarpState {
            warp_id: _,
            scheduler: _,
            block_slot: _,
            warp_in_block,
            pc,
            cur_idx,
            active,
            regs,
            preds,
            div_stack,
            call_stack,
            local,
            next_issue,
            fetch_ready,
            reg_ready,
            reg_reason,
            pred_ready,
            bar_clear,
            bar_reason,
            at_barrier,
            done,
            prev_was_ctrl,
        } = self;
        let first_tid = *warp_in_block * WARP_LANES as u32;
        let lanes = (block_threads.saturating_sub(first_tid)).min(WARP_LANES as u32);
        *active = if lanes >= 32 { u32::MAX } else { (1u32 << lanes) - 1 };
        (*pc, *cur_idx) = (0, 0);
        regs.fill([0; WARP_LANES]);
        *preds = [0; 7];
        div_stack.clear();
        call_stack.clear();
        local.iter_mut().for_each(Vec::clear);
        (*next_issue, *fetch_ready) = (0, 0);
        reg_ready.fill(0);
        reg_reason.fill(StallReason::ExecutionDependency.code());
        *pred_ready = [0; 7];
        *bar_clear = [0; 6];
        *bar_reason = [StallReason::ExecutionDependency.code(); 6];
        (*at_barrier, *done, *prev_was_ctrl) = (false, false, false);
    }

    /// Reads a predicate for one lane (`PT` reads true).
    #[inline]
    pub(crate) fn read_pred(&self, lane: usize, p: PredReg) -> bool {
        p.is_true() || self.preds[p.index() as usize] & (1 << lane) != 0
    }

    /// The lane mask for which a guard predicate holds.
    pub(crate) fn pred_mask(&self, pred: Option<gpa_isa::Predicate>) -> u32 {
        match pred {
            None => u32::MAX,
            Some(p) => {
                let raw =
                    if p.reg.is_true() { u32::MAX } else { self.preds[p.reg.index() as usize] };
                if p.negated {
                    !raw
                } else {
                    raw
                }
            }
        }
    }

    /// Special-register value for one lane.
    pub fn special(
        &self,
        lane: usize,
        s: SpecialReg,
        block_id: u32,
        grid_blocks: u32,
        block_threads: u32,
    ) -> u32 {
        match s {
            SpecialReg::TidX => self.warp_in_block * WARP_LANES as u32 + lane as u32,
            SpecialReg::CtaIdX => block_id,
            SpecialReg::NTidX => block_threads,
            SpecialReg::NCtaIdX => grid_blocks,
            SpecialReg::LaneId => lane as u32,
            SpecialReg::WarpId => self.warp_in_block,
            SpecialReg::TidY
            | SpecialReg::TidZ
            | SpecialReg::CtaIdY
            | SpecialReg::CtaIdZ
            | SpecialReg::NCtaIdY
            | SpecialReg::NCtaIdZ => 0,
            SpecialReg::NTidY | SpecialReg::NTidZ => 1,
            SpecialReg::SmId | SpecialReg::Clock => 0,
        }
    }

    /// Pops reconvergence points reached at the current PC, switching to
    /// pending else-sides first. Returns true if state changed.
    pub(crate) fn reconverge_if_needed(&mut self) -> bool {
        let mut changed = false;
        while let Some(top) = self.div_stack.last_mut() {
            if top.reconv != self.pc {
                break;
            }
            if !top.else_done && top.else_mask != 0 {
                top.else_done = true;
                self.active = top.else_mask;
                self.pc = top.else_pc;
                changed = true;
                // The else side may itself start at another reconvergence
                // point, so keep looping.
                if top.else_pc == top.reconv {
                    // Degenerate: empty else side; merge immediately.
                    let merged = top.merged;
                    self.div_stack.pop();
                    self.active = merged;
                    continue;
                }
                break;
            }
            let merged = top.merged;
            self.div_stack.pop();
            self.active = merged;
            changed = true;
        }
        changed
    }
}

#[cfg(test)]
/// One lane's registers and predicates: the unit tests' view of a warp
/// (the executor reads and writes whole rows).
impl WarpState {
    /// Reads a register for one lane (`RZ` reads zero).
    pub(crate) fn read_reg(&self, lane: usize, r: gpa_isa::Register) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize][lane]
        }
    }

    /// Writes a register for one lane (`RZ` writes are dropped).
    pub(crate) fn write_reg(&mut self, lane: usize, r: gpa_isa::Register, v: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize][lane] = v;
        }
    }

    /// Reads a 64-bit register pair.
    pub(crate) fn read_pair(&self, lane: usize, r: gpa_isa::Register) -> u64 {
        (self.read_reg(lane, r) as u64) | ((self.read_reg(lane, r.pair_hi()) as u64) << 32)
    }

    /// Writes a 64-bit register pair.
    pub(crate) fn write_pair(&mut self, lane: usize, r: gpa_isa::Register, v: u64) {
        self.write_reg(lane, r, v as u32);
        self.write_reg(lane, r.pair_hi(), (v >> 32) as u32);
    }

    /// Writes a predicate for one lane (`PT` writes are dropped).
    pub(crate) fn write_pred(&mut self, lane: usize, p: PredReg, v: bool) {
        if !p.is_true() {
            let bit = 1u32 << lane;
            if v {
                self.preds[p.index() as usize] |= bit;
            } else {
                self.preds[p.index() as usize] &= !bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::{Predicate, Register};

    #[test]
    fn partial_warp_active_mask() {
        let w = WarpState::new(0, 0, 0, 0, 16, 256);
        assert_eq!(w.active, 0xFFFF);
        let w2 = WarpState::new(1, 1, 0, 1, 40, 256);
        assert_eq!(w2.active, 0xFF, "second warp of a 40-thread block has 8 lanes");
        let w3 = WarpState::new(0, 0, 0, 0, 64, 256);
        assert_eq!(w3.active, u32::MAX);
    }

    #[test]
    fn reset_returns_a_used_warp_to_its_fresh_state() {
        let mut w = WarpState::new(3, 1, 2, 1, 40, 16);
        let fresh = format!("{w:?}");
        (w.pc, w.cur_idx, w.active) = (0x140, 20, 1);
        w.regs[5][7] = 9;
        w.preds[2] = 0xff;
        w.div_stack.push(DivEntry {
            reconv: 1,
            else_pc: 2,
            else_mask: 3,
            merged: 4,
            else_done: true,
        });
        w.call_stack.push(0x80);
        w.local[4].resize(64, 0xaa);
        (w.next_issue, w.fetch_ready) = (70, 90);
        w.reg_ready[5] = 100;
        w.reg_reason[5] = StallReason::MemoryDependency.code();
        w.pred_ready[2] = 50;
        w.bar_clear[1] = 60;
        w.bar_reason[1] = StallReason::MemoryDependency.code();
        (w.at_barrier, w.done, w.prev_was_ctrl) = (true, true, true);
        assert_ne!(format!("{w:?}"), fresh);
        w.reset(40);
        assert_eq!(format!("{w:?}"), fresh, "identity kept, everything else as new");
    }

    #[test]
    fn register_and_pair_access() {
        let mut w = WarpState::new(0, 0, 0, 0, 32, 256);
        let r4 = Register::from_u8(4);
        w.write_reg(3, r4, 77);
        assert_eq!(w.read_reg(3, r4), 77);
        assert_eq!(w.read_reg(2, r4), 0);
        w.write_pair(0, r4, 0x1122_3344_5566_7788);
        assert_eq!(w.read_pair(0, r4), 0x1122_3344_5566_7788);
        // RZ is inert.
        w.write_reg(0, Register::ZERO, 5);
        assert_eq!(w.read_reg(0, Register::ZERO), 0);
    }

    #[test]
    fn predicates_and_guard_masks() {
        let mut w = WarpState::new(0, 0, 0, 0, 32, 256);
        let p0 = PredReg::new(0).unwrap();
        w.write_pred(1, p0, true);
        w.write_pred(5, p0, true);
        assert!(w.read_pred(1, p0));
        assert!(!w.read_pred(0, p0));
        assert_eq!(w.pred_mask(Some(Predicate::pos(p0))), 0b100010);
        assert_eq!(w.pred_mask(Some(Predicate::neg(p0))), !0b100010u32);
        assert_eq!(w.pred_mask(None), u32::MAX);
    }

    #[test]
    fn reconvergence_switches_to_else_then_merges() {
        let mut w = WarpState::new(0, 0, 0, 0, 32, 256);
        w.pc = 0x200; // pretend we reached the reconvergence point
        w.active = 0x0000_FFFF;
        w.div_stack.push(DivEntry {
            reconv: 0x200,
            else_pc: 0x100,
            else_mask: 0xFFFF_0000,
            merged: u32::MAX,
            else_done: false,
        });
        assert!(w.reconverge_if_needed());
        assert_eq!(w.pc, 0x100);
        assert_eq!(w.active, 0xFFFF_0000);
        // Else side finishes, reaches the reconvergence point again.
        w.pc = 0x200;
        assert!(w.reconverge_if_needed());
        assert_eq!(w.active, u32::MAX);
        assert!(w.div_stack.is_empty());
    }
}
