//! Control-code stall assignment — the `ptxas` scheduling step.
//!
//! For each **fixed-latency** producer, the assembler must guarantee that a
//! consumer in the same basic block does not issue before the producer's
//! latency has elapsed. Volta encodes this as per-instruction *stall
//! counts*: the scheduler waits `stall` cycles after issuing an instruction
//! before considering the warp's next instruction.
//!
//! [`assign_stall_counts`] performs that pass: it simulates in-order issue
//! through each basic block and inflates stall counts where a register or
//! predicate would be read too early. Dependencies that cross block
//! boundaries are left to the simulator's scoreboard interlock (which
//! reports them as execution-dependency stalls, as real hardware would
//! surface them through CUPTI).

use crate::latency::LatencyTable;
use gpa_isa::{Function, Opcode, Slot};

/// Ensures intra-block fixed-latency dependencies are covered by control-
/// code stall counts, mutating the function in place.
///
/// Variable-latency producers are skipped: their consumers synchronize via
/// scoreboard barriers (wait masks), which kernel builders set explicitly.
///
/// Returns the number of instructions whose stall count was raised.
pub fn assign_stall_counts(f: &mut Function, lat: &LatencyTable) -> usize {
    let n = f.instrs.len();
    // Block leaders: entry, branch targets, post-terminator instructions.
    let mut leader = vec![false; n.max(1)];
    if n > 0 {
        leader[0] = true;
    }
    for (i, instr) in f.instrs.iter().enumerate() {
        match instr.opcode {
            Opcode::Bra | Opcode::Exit | Opcode::Ret => {
                if let Some(t) = instr.branch_target() {
                    if let Some(idx) = f.index_of_pc(t) {
                        leader[idx] = true;
                    }
                }
                if i + 1 < n {
                    leader[i + 1] = true;
                }
            }
            _ => {}
        }
    }
    let mut raised = 0;
    let mut block_start = 0;
    for (i, &lead) in leader.iter().enumerate() {
        if i > block_start && lead {
            raised += schedule_block(f, lat, block_start, i);
            block_start = i;
        }
    }
    raised + schedule_block(f, lat, block_start, n)
}

fn schedule_block(f: &mut Function, lat: &LatencyTable, start: usize, end: usize) -> usize {
    let mut raised = 0;
    // Issue-time simulation: the cycle at which each register (0..256) and
    // predicate (256..) value is ready, 0 until the block writes it.
    let mut ready = [0u64; 256 + 8];
    let cell = |s: Slot| match s {
        Slot::Reg(r) => Some(usize::from(r.index())),
        Slot::Pred(p) => Some(256 + usize::from(p.index())),
        Slot::Bar(_) => None, // barrier waits handled dynamically
    };
    let mut now: u64 = 0;
    for i in start..end {
        let needed = f.instrs[i].uses().filter_map(cell).map(|c| ready[c]).max().unwrap_or(0);
        if needed > now && i > start {
            let deficit = needed - now;
            // Spread the deficit over preceding instructions, each stall
            // field capped at 15.
            let mut remaining = deficit;
            let mut j = i;
            while remaining > 0 && j > start {
                j -= 1;
                let room = 15u64.saturating_sub(f.instrs[j].ctrl.stall as u64);
                let add = room.min(remaining);
                if add > 0 {
                    f.instrs[j].ctrl.stall += add as u8;
                    remaining -= add;
                    raised += 1;
                }
            }
            now = needed - remaining; // remaining > 0 only in pathological blocks
        }
        // Issue at `now`; next instruction earliest at now + stall.
        let stall = f.instrs[i].ctrl.stall.max(1) as u64;
        // Variable latency: consumers must wait on the barrier; mark the
        // defs as ready immediately for this static pass.
        let done = now + lat.fixed_latency(&f.instrs[i]).map_or(1, u64::from);
        for c in f.instrs[i].defs().filter_map(cell) {
            ready[c] = done;
        }
        now += stall;
    }
    raised
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::parse_module;

    #[test]
    fn back_to_back_dependency_gets_stalled() {
        let mut m = parse_module(
            r#"
.kernel k
  IADD R0, R1, R2 {S:1}
  IADD R3, R0, R4 {S:1}
  EXIT
.endfunc
"#,
        )
        .unwrap();
        let lat = LatencyTable::default();
        let f = m.functions.get_mut(0).unwrap();
        let raised = assign_stall_counts(f, &lat);
        assert!(raised >= 1);
        // The first IADD must now cover its 4-cycle latency.
        assert!(f.instrs[0].ctrl.stall >= 4);
    }

    #[test]
    fn independent_instructions_untouched() {
        let mut m = parse_module(
            r#"
.kernel k
  IADD R0, R1, R2 {S:1}
  IADD R3, R4, R5 {S:1}
  IADD R6, R7, R8 {S:1}
  EXIT
.endfunc
"#,
        )
        .unwrap();
        let lat = LatencyTable::default();
        let f = m.functions.get_mut(0).unwrap();
        assert_eq!(assign_stall_counts(f, &lat), 0);
        assert!(f.instrs.iter().all(|i| i.ctrl.stall == 1));
    }

    #[test]
    fn distance_reduces_added_stall() {
        let mut m = parse_module(
            r#"
.kernel k
  IADD R0, R1, R2 {S:1}
  IADD R3, R4, R5 {S:1}
  IADD R6, R7, R8 {S:1}
  IADD R9, R0, R4 {S:1}
  EXIT
.endfunc
"#,
        )
        .unwrap();
        let lat = LatencyTable::default();
        let f = m.functions.get_mut(0).unwrap();
        assign_stall_counts(f, &lat);
        // Two intermediate single-cycle issues already cover 2 of the 4
        // cycles; only 1 extra cycle is needed on the instruction before
        // the consumer (issue times 0,1,2,3 → R0 ready at 4 → deficit 1).
        assert_eq!(f.instrs[2].ctrl.stall, 2);
        assert_eq!(f.instrs[0].ctrl.stall, 1);
    }

    #[test]
    fn variable_latency_left_to_barriers() {
        let mut m = parse_module(
            r#"
.kernel k
  LDG.E.32 R0, [R2:R3] {W:B0, S:1}
  IADD R4, R0, R1 {WT:[B0], S:1}
  EXIT
.endfunc
"#,
        )
        .unwrap();
        let lat = LatencyTable::default();
        let f = m.functions.get_mut(0).unwrap();
        assign_stall_counts(f, &lat);
        assert_eq!(f.instrs[0].ctrl.stall, 1, "LDG consumer is barrier-guarded");
    }
}
