//! Volta-style control codes.
//!
//! Every Volta instruction word carries scheduling information the assembler
//! computed: how many cycles the scheduler must stall before issuing the
//! *next* instruction of the warp, whether the warp should yield, which
//! scoreboard barrier the instruction *writes* (set at issue, cleared when
//! the variable-latency result lands) or *reads* (set at issue, cleared when
//! source operands have been consumed — protects against WAR hazards), and a
//! *wait mask* of barriers that must all be clear before this instruction
//! may issue.

use crate::register::BarrierReg;
use std::fmt;

/// The control-code fields of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ControlCode {
    /// Cycles the warp stalls after issuing this instruction (0–15).
    pub stall: u8,
    /// Hint that the scheduler may deprioritize this warp.
    pub yield_flag: bool,
    /// Barrier set at issue, cleared when the result is written back.
    pub write_barrier: Option<BarrierReg>,
    /// Barrier set at issue, cleared when source operands are read.
    pub read_barrier: Option<BarrierReg>,
    /// Bitmask over `B0..B5`; all named barriers must be clear to issue.
    pub wait_mask: u8,
}

impl ControlCode {
    /// A control code with `stall = 1` and nothing else set — the default
    /// for simple pipelined instructions.
    pub const fn none() -> Self {
        ControlCode {
            stall: 1,
            yield_flag: false,
            write_barrier: None,
            read_barrier: None,
            wait_mask: 0,
        }
    }

    /// Builder-style: sets the write barrier.
    pub fn with_write_barrier(mut self, b: BarrierReg) -> Self {
        self.write_barrier = Some(b);
        self
    }

    /// Builder-style: sets the read barrier.
    pub fn with_read_barrier(mut self, b: BarrierReg) -> Self {
        self.read_barrier = Some(b);
        self
    }

    /// Builder-style: adds one barrier to the wait mask.
    pub fn with_wait(mut self, b: BarrierReg) -> Self {
        self.wait_mask |= 1 << b.index();
        self
    }

    /// Barriers named in the wait mask.
    pub fn waits(&self) -> impl Iterator<Item = BarrierReg> + '_ {
        (0u32..6)
            .filter(move |i| self.wait_mask & (1 << i) != 0)
            .map(|i| BarrierReg::new(i).expect("wait mask spans six barriers"))
    }
}

impl Default for ControlCode {
    fn default() -> Self {
        Self::none()
    }
}

impl fmt::Display for ControlCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.wait_mask != 0 {
            let names: Vec<String> = self.waits().map(|b| b.to_string()).collect();
            parts.push(format!("WT:[{}]", names.join(",")));
        }
        if let Some(b) = self.write_barrier {
            parts.push(format!("W:{b}"));
        }
        if let Some(b) = self.read_barrier {
            parts.push(format!("R:{b}"));
        }
        parts.push(format!("S:{}", self.stall));
        if self.yield_flag {
            parts.push("Y".to_string());
        }
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_display() {
        let mut c = ControlCode::none()
            .with_write_barrier(BarrierReg::new(0).unwrap())
            .with_wait(BarrierReg::new(1).unwrap())
            .with_wait(BarrierReg::new(3).unwrap());
        c.stall = 2;
        c.yield_flag = true;
        assert_eq!(c.to_string(), "{WT:[B1,B3], W:B0, S:2, Y}");
        assert_eq!(c.waits().count(), 2);
    }
}
