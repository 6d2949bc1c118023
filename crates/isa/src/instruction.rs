//! Instructions and their def/use model.

use crate::control::ControlCode;
use crate::opcode::Opcode;
use crate::operand::Operand;
use crate::register::{BarrierReg, PredReg, Predicate, Register};
use crate::vocabulary::vocabulary;
use std::fmt;

vocabulary! {
    /// An opcode modifier (`LDG.E.32`, `ISETP.LT.AND`, `MUFU.RCP`, ...).
    ///
    /// Modifiers are **ordered**: `F2F.F32.F64` (demote a 64-bit float to
    /// 32 bits) differs from `F2F.F64.F32` (promote). Up to four modifiers fit
    /// in the binary encoding, one 5-bit code each (0 = empty slot), and
    /// `gpa_sim`'s lowering keeps an instruction's modifier set as one bit
    /// per discriminant of a `u32`: at most 31 variants, checked below.
    pub enum Modifier, first code 1 {
        Sz32 = "32",
        Sz64 = "64",
        Sz128 = "128",
        E = "E",
        Wide = "WIDE",
        U32 = "U32",
        S32 = "S32",
        F32 = "F32",
        F64 = "F64",
        Lt = "LT",
        Le = "LE",
        Gt = "GT",
        Ge = "GE",
        Eq = "EQ",
        Ne = "NE",
        And = "AND",
        Or = "OR",
        Xor = "XOR",
        Rcp = "RCP",
        Rsq = "RSQ",
        Sqrt = "SQRT",
        Sin = "SIN",
        Cos = "COS",
        Ex2 = "EX2",
        Lg2 = "LG2",
        L = "L",
        R = "R",
        Sync = "SYNC",
        Any = "ANY",
        All = "ALL",
    }
}

const _: () = assert!(Modifier::ALL.len() <= 31);

/// A storage location for def/use analysis: a general-purpose register, a
/// predicate register, or a **virtual barrier register**.
///
/// GPA's instruction blamer treats the six scoreboard barriers as registers
/// so that dependencies carried only by control codes (Figure 3 of the
/// paper: an `LDG` writing `B0` and a `BRA` waiting on `B0`) fall out of the
/// ordinary def–use machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Slot {
    /// A general-purpose register.
    Reg(Register),
    /// A predicate register.
    Pred(PredReg),
    /// A virtual barrier register.
    Bar(BarrierReg),
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Reg(r) => write!(f, "{r}"),
            Slot::Pred(p) => write!(f, "{p}"),
            Slot::Bar(b) => write!(f, "{b}"),
        }
    }
}

/// One machine instruction.
///
/// This is a passive data structure: all fields are public, in the spirit of
/// a decoded instruction record. [`Instruction::defs`] and
/// [`Instruction::uses`] expose the def/use sets (including virtual barrier
/// registers) that the blamer's backward slicing consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Guard predicate (`None` behaves like the cover-all predicate `_`).
    pub pred: Option<Predicate>,
    /// The opcode.
    pub opcode: Opcode,
    /// Ordered modifiers.
    pub mods: Vec<Modifier>,
    /// Destination operands (empty for stores and branches).
    pub dsts: Vec<Operand>,
    /// Source operands.
    pub srcs: Vec<Operand>,
    /// Scheduling control code.
    pub ctrl: ControlCode,
}

impl Instruction {
    /// Creates an unpredicated instruction with a default control code.
    pub fn new(opcode: Opcode, dsts: Vec<Operand>, srcs: Vec<Operand>) -> Self {
        Instruction { pred: None, opcode, mods: Vec::new(), dsts, srcs, ctrl: ControlCode::none() }
    }

    /// Builder-style: adds a modifier.
    pub fn with_mod(mut self, m: Modifier) -> Self {
        self.mods.push(m);
        self
    }

    /// Builder-style: sets the guard predicate.
    pub fn with_pred(mut self, p: Predicate) -> Self {
        self.pred = Some(p);
        self
    }

    /// Builder-style: sets the control code.
    pub fn with_ctrl(mut self, ctrl: ControlCode) -> Self {
        self.ctrl = ctrl;
        self
    }

    /// Storage locations written by this instruction.
    ///
    /// Includes destination registers and predicates (except `RZ`/`PT`) and
    /// the virtual barrier registers named by the write/read barrier fields
    /// — *setting* a barrier is modeled as a def, waiting on it as a use.
    pub fn defs(&self) -> Vec<Slot> {
        let mut out = Vec::new();
        for d in &self.dsts {
            for r in d.dst_regs() {
                if !r.is_zero() {
                    out.push(Slot::Reg(r));
                }
            }
            if let Some(p) = d.pred() {
                if !p.is_true() {
                    out.push(Slot::Pred(p));
                }
            }
        }
        if let Some(b) = self.ctrl.write_barrier {
            out.push(Slot::Bar(b));
        }
        if let Some(b) = self.ctrl.read_barrier {
            out.push(Slot::Bar(b));
        }
        out
    }

    /// Storage locations read by this instruction.
    ///
    /// Includes the guard predicate, source registers/predicates (except
    /// `RZ`/`PT`), address registers of memory operands, and the virtual
    /// barrier registers named by the wait mask.
    pub fn uses(&self) -> Vec<Slot> {
        let mut out = Vec::new();
        if let Some(p) = self.pred {
            if !p.reg.is_true() {
                out.push(Slot::Pred(p.reg));
            }
        }
        for s in &self.srcs {
            for r in s.src_regs() {
                if !r.is_zero() {
                    out.push(Slot::Reg(r));
                }
            }
            if let Some(p) = s.pred() {
                if !p.is_true() {
                    out.push(Slot::Pred(p));
                }
            }
        }
        for b in self.ctrl.waits() {
            out.push(Slot::Bar(b));
        }
        out
    }

    /// Registers read to *produce a stored value* (store data operands),
    /// used for WAR-dependency classification.
    pub fn store_data_regs(&self) -> Vec<Register> {
        if !self.opcode.is_store() {
            return Vec::new();
        }
        self.srcs
            .iter()
            .filter(|s| !matches!(s, Operand::Mem(_)))
            .flat_map(|s| s.src_regs())
            .filter(|r| !r.is_zero())
            .collect()
    }

    /// The branch/call target address, if this is a resolved direct branch.
    pub fn branch_target(&self) -> Option<u64> {
        if !matches!(self.opcode, Opcode::Bra | Opcode::Cal | Opcode::Bssy) {
            return None;
        }
        self.srcs.iter().find_map(|s| match s {
            Operand::Imm(v) => Some(*v as u64),
            _ => None,
        })
    }

    /// Full mnemonic with modifiers, e.g. `LDG.E.32`.
    pub fn mnemonic(&self) -> String {
        let mut s = self.opcode.name().to_string();
        for m in &self.mods {
            s.push('.');
            s.push_str(m.name());
        }
        s
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = self.pred {
            write!(f, "{p} ")?;
        }
        write!(f, "{}", self.mnemonic())?;
        let ops: Vec<String> =
            self.dsts.iter().chain(self.srcs.iter()).map(|o| o.to_string()).collect();
        if !ops.is_empty() {
            write!(f, " {}", ops.join(", "))?;
        }
        write!(f, " {}", self.ctrl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::MemRef;

    fn r(n: u8) -> Register {
        Register::from_u8(n)
    }

    /// The paper's Table 1 instruction: `@P0 LDG.32 R0, [R2]` with wait mask
    /// B0|B1, write barrier B0, read barrier B1.
    fn table1_instruction() -> Instruction {
        Instruction::new(
            Opcode::Ldg,
            vec![Operand::Reg(r(0))],
            vec![Operand::Mem(MemRef { base: r(2), offset: 0, wide: true })],
        )
        .with_mod(Modifier::Sz32)
        .with_pred(Predicate::pos(PredReg::new(0).unwrap()))
        .with_ctrl(
            ControlCode::none()
                .with_write_barrier(BarrierReg::new(0).unwrap())
                .with_read_barrier(BarrierReg::new(1).unwrap())
                .with_wait(BarrierReg::new(0).unwrap())
                .with_wait(BarrierReg::new(1).unwrap()),
        )
    }

    #[test]
    fn table1_defs_and_uses() {
        let i = table1_instruction();
        let defs = i.defs();
        // R0 plus virtual barriers B0 (write) and B1 (read).
        assert!(defs.contains(&Slot::Reg(r(0))));
        assert!(defs.contains(&Slot::Bar(BarrierReg::new(0).unwrap())));
        assert!(defs.contains(&Slot::Bar(BarrierReg::new(1).unwrap())));
        let uses = i.uses();
        // Guard P0, the 64-bit address pair R2:R3, wait-mask barriers.
        assert!(uses.contains(&Slot::Pred(PredReg::new(0).unwrap())));
        assert!(uses.contains(&Slot::Reg(r(2))));
        assert!(uses.contains(&Slot::Reg(r(3))));
        assert!(uses.contains(&Slot::Bar(BarrierReg::new(0).unwrap())));
        assert!(uses.contains(&Slot::Bar(BarrierReg::new(1).unwrap())));
    }

    #[test]
    fn display_format() {
        let i = table1_instruction();
        assert_eq!(i.to_string(), "@P0 LDG.32 R0, [R2:R3] {WT:[B0,B1], W:B0, R:B1, S:1}");
    }

    #[test]
    fn rz_and_pt_excluded() {
        let i = Instruction::new(
            Opcode::Iadd,
            vec![Operand::Reg(Register::ZERO)],
            vec![Operand::Reg(r(1)), Operand::Reg(Register::ZERO)],
        );
        assert!(i.defs().is_empty());
        assert_eq!(i.uses(), vec![Slot::Reg(r(1))]);
    }

    #[test]
    fn store_data_regs_excludes_address() {
        let st = Instruction::new(
            Opcode::Stg,
            vec![],
            vec![Operand::Mem(MemRef { base: r(4), offset: 0, wide: true }), Operand::Reg(r(8))],
        );
        assert_eq!(st.store_data_regs(), vec![r(8)]);
    }

    #[test]
    fn modifier_codes_roundtrip() {
        for m in Modifier::ALL {
            assert_eq!(Modifier::from_code(m.code()), Some(m));
            assert_eq!(Modifier::from_name(m.name()), Some(m));
        }
        assert_eq!(Modifier::from_code(0), None);
    }
}
