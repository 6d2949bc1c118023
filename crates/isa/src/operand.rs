//! Instruction operands.

use crate::register::{PredReg, Register, SpecialReg};
use std::fmt;

/// A memory reference `[Rbase(+hi) + offset]`.
///
/// `wide` references address a 64-bit space: the effective address is the
/// 64-bit value held in the pair `(base, base+1)` plus `offset`. Narrow
/// references (shared/local) use the single 32-bit `base` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address register (low half of the pair when `wide`).
    pub base: Register,
    /// Byte offset added to the base.
    pub offset: i32,
    /// Whether the base is a 64-bit register pair.
    pub wide: bool,
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        if self.wide {
            write!(f, "{}:{}", self.base, self.base.pair_hi())?;
        } else {
            write!(f, "{}", self.base)?;
        }
        if self.offset != 0 {
            if self.offset > 0 {
                write!(f, "+{:#x}", self.offset)?;
            } else {
                write!(f, "-{:#x}", -(self.offset as i64))?;
            }
        }
        write!(f, "]")
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A 32-bit register.
    Reg(Register),
    /// A 64-bit value in the consecutive pair `(r, r+1)`, written `R2:R3`.
    RegPair(Register),
    /// A predicate register (destination of `ISETP`, source of `SEL`, ...).
    Pred(PredReg),
    /// A 32-bit integer immediate.
    Imm(i64),
    /// A floating-point immediate (stored as `f64`, encoded as `f32` bits).
    FImm(f64),
    /// A special register (only as `S2R` source).
    SReg(SpecialReg),
    /// A constant-bank scalar `c[bank][offset]`.
    CMem {
        /// Constant bank index (0–15).
        bank: u8,
        /// Byte offset inside the bank.
        offset: u16,
    },
    /// A memory reference (load source / store destination).
    Mem(MemRef),
}

impl Operand {
    /// General-purpose registers read when this operand appears as a source.
    pub fn src_regs(&self) -> impl Iterator<Item = Register> {
        let (lo, hi) = match *self {
            Operand::Reg(r) => (Some(r), None),
            Operand::RegPair(r) => (Some(r), Some(r.pair_hi())),
            Operand::Mem(m) => (Some(m.base), m.wide.then(|| m.base.pair_hi())),
            _ => (None, None),
        };
        lo.into_iter().chain(hi)
    }

    /// General-purpose registers written when this operand is a destination.
    pub fn dst_regs(&self) -> impl Iterator<Item = Register> {
        let (lo, hi) = match *self {
            Operand::Reg(r) => (Some(r), None),
            Operand::RegPair(r) => (Some(r), Some(r.pair_hi())),
            _ => (None, None),
        };
        lo.into_iter().chain(hi)
    }

    /// The predicate register, if this is a predicate operand.
    pub fn pred(&self) -> Option<PredReg> {
        match *self {
            Operand::Pred(p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::RegPair(r) => write!(f, "{}:{}", r, r.pair_hi()),
            Operand::Pred(p) => write!(f, "{p}"),
            Operand::Imm(v) => {
                if (-4096..=4096).contains(&v) {
                    write!(f, "{v}")
                } else if v >= 0 {
                    write!(f, "{v:#x}")
                } else {
                    write!(f, "-{:#x}", -v)
                }
            }
            Operand::FImm(v) => {
                if v == v.trunc() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Operand::SReg(s) => write!(f, "{s}"),
            Operand::CMem { bank, offset } => write!(f, "c[{bank}][{offset:#x}]"),
            Operand::Mem(m) => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_display_and_regs() {
        let m = MemRef { base: Register::from_u8(2), offset: 16, wide: true };
        assert_eq!(m.to_string(), "[R2:R3+0x10]");

        let n = MemRef { base: Register::from_u8(7), offset: -4, wide: false };
        assert_eq!(n.to_string(), "[R7-0x4]");

        let z = MemRef { base: Register::from_u8(9), offset: 0, wide: false };
        assert_eq!(z.to_string(), "[R9]");
    }

    #[test]
    fn operand_reg_sets() {
        let pair = Operand::RegPair(Register::from_u8(4));
        assert!(pair.dst_regs().eq([Register::from_u8(4), Register::from_u8(5)]));
        let imm = Operand::Imm(42);
        assert_eq!(imm.src_regs().count(), 0);
        assert_eq!(imm.to_string(), "42");
        assert_eq!(Operand::Imm(65536).to_string(), "0x10000");
        assert_eq!(Operand::FImm(2.0).to_string(), "2.0");
    }
}
