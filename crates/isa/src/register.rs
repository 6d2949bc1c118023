//! Register, predicate, barrier and special-register names.

use crate::vocabulary::vocabulary;
use crate::{IsaError, Result};
use std::fmt;

/// A 32-bit general-purpose register `R0`–`R254`, or the zero register `RZ`.
///
/// Each thread can address up to 255 regular registers; `R255` is the
/// hard-wired zero register `RZ` (reads as 0, writes are dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Register(u8);

impl Register {
    /// The zero register `RZ`.
    pub const ZERO: Register = Register(255);

    /// Creates `R{index}`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadRegister`] if `index > 255`.
    pub fn new(index: u32) -> Result<Self> {
        if index > 255 {
            return Err(IsaError::BadRegister(index));
        }
        Ok(Register(index as u8))
    }

    /// Creates `R{index}` without range checking (index is already a `u8`).
    pub const fn from_u8(index: u8) -> Self {
        Register(index)
    }

    /// The register number (255 for `RZ`).
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hard-wired zero register.
    pub const fn is_zero(self) -> bool {
        self.0 == 255
    }

    /// The register holding the upper half of a 64-bit pair based here.
    ///
    /// `RZ.pair_hi()` is `RZ` again (a 64-bit zero).
    pub const fn pair_hi(self) -> Self {
        if self.0 == 255 {
            Register(255)
        } else {
            Register(self.0 + 1)
        }
    }
}

impl fmt::Display for Register {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "RZ")
        } else {
            write!(f, "R{}", self.0)
        }
    }
}

/// A predicate register `P0`–`P6`, or the always-true `PT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredReg(u8);

impl PredReg {
    /// The always-true predicate `PT`.
    pub const TRUE: PredReg = PredReg(7);

    /// Creates `P{index}`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadPredicate`] if `index > 7` (7 is `PT`).
    pub fn new(index: u32) -> Result<Self> {
        if index > 7 {
            return Err(IsaError::BadPredicate(index));
        }
        Ok(PredReg(index as u8))
    }

    /// The predicate number (7 for `PT`).
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Whether this is `PT`.
    pub const fn is_true(self) -> bool {
        self.0 == 7
    }
}

impl fmt::Display for PredReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_true() {
            write!(f, "PT")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

/// A guard predicate: `@P3` (true condition) or `@!P3` (false condition).
///
/// The GPA paper writes these as `Pi` and `!Pi`; an instruction with no
/// guard behaves like the special predicate `_` that covers both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// The predicate register tested.
    pub reg: PredReg,
    /// If true the instruction executes when the register is **false**.
    pub negated: bool,
}

impl Predicate {
    /// A positive guard `@Pn`.
    pub const fn pos(reg: PredReg) -> Self {
        Predicate { reg, negated: false }
    }

    /// A negative guard `@!Pn`.
    pub const fn neg(reg: PredReg) -> Self {
        Predicate { reg, negated: true }
    }

    /// The complementary condition on the same register.
    pub const fn complement(self) -> Self {
        Predicate { reg: self.reg, negated: !self.negated }
    }

    /// Whether this guard always evaluates true (`@PT`).
    pub const fn always(self) -> bool {
        self.reg.is_true() && !self.negated
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "@!{}", self.reg)
        } else {
            write!(f, "@{}", self.reg)
        }
    }
}

/// A virtual scoreboard barrier register `B0`–`B5`.
///
/// Volta instructions synchronize variable-latency results through six
/// scoreboard barriers. GPA treats them as *virtual barrier registers* so
/// that barrier-mediated dependencies appear in ordinary def–use chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierReg(u8);

impl BarrierReg {
    /// Number of scoreboard barriers per warp.
    pub const COUNT: usize = 6;

    /// Creates `B{index}`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadBarrier`] if `index > 5`.
    pub fn new(index: u32) -> Result<Self> {
        if index > 5 {
            return Err(IsaError::BadBarrier(index));
        }
        Ok(BarrierReg(index as u8))
    }

    /// The barrier number.
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for BarrierReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

vocabulary! {
    /// Read-only special registers exposed through `S2R`.
    pub enum SpecialReg, first code 0 {
        TidX = "SR_TID.X",
        TidY = "SR_TID.Y",
        TidZ = "SR_TID.Z",
        CtaIdX = "SR_CTAID.X",
        CtaIdY = "SR_CTAID.Y",
        CtaIdZ = "SR_CTAID.Z",
        NTidX = "SR_NTID.X",
        NTidY = "SR_NTID.Y",
        NTidZ = "SR_NTID.Z",
        NCtaIdX = "SR_NCTAID.X",
        NCtaIdY = "SR_NCTAID.Y",
        NCtaIdZ = "SR_NCTAID.Z",
        LaneId = "SR_LANEID",
        WarpId = "SR_WARPID",
        SmId = "SR_SMID",
        Clock = "SR_CLOCK",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_basics() {
        let r = Register::new(5).unwrap();
        assert_eq!(r.to_string(), "R5");
        assert_eq!(r.pair_hi().to_string(), "R6");
        assert_eq!(Register::ZERO.to_string(), "RZ");
        assert!(Register::ZERO.is_zero());
        assert_eq!(Register::ZERO.pair_hi(), Register::ZERO);
        assert_eq!(Register::new(256), Err(IsaError::BadRegister(256)));
    }

    #[test]
    fn predicate_display_and_complement() {
        let p = Predicate::pos(PredReg::new(0).unwrap());
        assert_eq!(p.to_string(), "@P0");
        assert_eq!(p.complement().to_string(), "@!P0");
        assert!(Predicate::pos(PredReg::TRUE).always());
        assert!(!Predicate::neg(PredReg::TRUE).always());
    }

    #[test]
    fn barrier_range() {
        assert!(BarrierReg::new(5).is_ok());
        assert_eq!(BarrierReg::new(6), Err(IsaError::BadBarrier(6)));
    }

    #[test]
    fn special_reg_codes_roundtrip() {
        for s in SpecialReg::ALL {
            assert_eq!(SpecialReg::from_code(s.code()), Some(s));
            assert_eq!(SpecialReg::from_name(s.name()), Some(s));
        }
    }
}
