//! Opcodes and their static classification.

use std::fmt;

/// GPU memory spaces addressable by load/store opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device (global) memory — 64-bit address space.
    Global,
    /// Per-block shared memory.
    Shared,
    /// Per-thread local memory (register spills live here).
    Local,
    /// Read-only constant banks.
    Constant,
}

/// The functional unit an instruction issues to.
///
/// Pipes bound issue throughput in the simulator; an instruction that cannot
/// issue because its pipe is busy reports a *pipe busy* stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipe {
    /// Integer / logic ALU.
    Alu,
    /// FP32 fused multiply-add pipe.
    Fma,
    /// FP64 pipe (half rate on V100-like parts).
    Fp64,
    /// Special function unit (MUFU transcendentals).
    Sfu,
    /// Load/store unit.
    Lsu,
    /// Branch / control unit.
    Branch,
    /// Uniform datapath (moves, shuffles, special registers).
    Misc,
}

/// Coarse classification used by the optimizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer arithmetic/logic.
    IntAlu,
    /// 32-bit floating point.
    FpAlu,
    /// 64-bit floating point.
    Fp64,
    /// Special-function (transcendental) instruction.
    Mufu,
    /// Width/type conversion.
    Conversion,
    /// Memory access.
    Memory,
    /// Control flow.
    Control,
    /// Block-level synchronization.
    Sync,
    /// Data movement and everything else.
    Other,
}

/// A Volta-like opcode.
///
/// The set covers the instructions the GPA paper's analyses distinguish:
/// global/shared/local/constant loads and stores, fixed-latency integer and
/// FP32 arithmetic, long-latency FP64 and conversion instructions,
/// transcendentals (`MUFU`), predicate-setting compares, control flow and
/// barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Opcode {
    // Memory.
    Ldg,
    Stg,
    Lds,
    Sts,
    Ldl,
    Stl,
    Ldc,
    AtomG,
    AtomS,
    Membar,
    // Integer.
    Mov,
    Mov32i,
    Iadd,
    Iadd3,
    Imad,
    Imul,
    Isetp,
    Lea,
    Lop3,
    Shf,
    Shl,
    Shr,
    Imnmx,
    Iabs,
    Popc,
    Sel,
    // FP32.
    Fadd,
    Fmul,
    Ffma,
    Fsetp,
    Fmnmx,
    Mufu,
    // FP64.
    Dadd,
    Dmul,
    Dfma,
    Dsetp,
    // Conversions.
    F2f,
    F2i,
    I2f,
    I2i,
    // Control.
    Bra,
    Exit,
    Cal,
    Ret,
    Bssy,
    Bsync,
    Bar,
    Nop,
    // Misc.
    S2r,
    Cs2r,
    Shfl,
    Vote,
    Prmt,
}

impl Opcode {
    /// All opcodes, in encoding order.
    pub const ALL: [Opcode; 53] = [
        Opcode::Ldg,
        Opcode::Stg,
        Opcode::Lds,
        Opcode::Sts,
        Opcode::Ldl,
        Opcode::Stl,
        Opcode::Ldc,
        Opcode::AtomG,
        Opcode::AtomS,
        Opcode::Membar,
        Opcode::Mov,
        Opcode::Mov32i,
        Opcode::Iadd,
        Opcode::Iadd3,
        Opcode::Imad,
        Opcode::Imul,
        Opcode::Isetp,
        Opcode::Lea,
        Opcode::Lop3,
        Opcode::Shf,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::Imnmx,
        Opcode::Iabs,
        Opcode::Popc,
        Opcode::Sel,
        Opcode::Fadd,
        Opcode::Fmul,
        Opcode::Ffma,
        Opcode::Fsetp,
        Opcode::Fmnmx,
        Opcode::Mufu,
        Opcode::Dadd,
        Opcode::Dmul,
        Opcode::Dfma,
        Opcode::Dsetp,
        Opcode::F2f,
        Opcode::F2i,
        Opcode::I2f,
        Opcode::I2i,
        Opcode::Bra,
        Opcode::Exit,
        Opcode::Cal,
        Opcode::Ret,
        Opcode::Bssy,
        Opcode::Bsync,
        Opcode::Bar,
        Opcode::Nop,
        Opcode::S2r,
        Opcode::Cs2r,
        Opcode::Shfl,
        Opcode::Vote,
        Opcode::Prmt,
    ];

    /// Stable numeric code used by the binary encoding.
    pub fn code(self) -> u8 {
        Self::ALL.iter().position(|&o| o == self).unwrap() as u8
    }

    /// Inverse of [`Opcode::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// The assembly mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ldg => "LDG",
            Opcode::Stg => "STG",
            Opcode::Lds => "LDS",
            Opcode::Sts => "STS",
            Opcode::Ldl => "LDL",
            Opcode::Stl => "STL",
            Opcode::Ldc => "LDC",
            Opcode::AtomG => "ATOMG",
            Opcode::AtomS => "ATOMS",
            Opcode::Membar => "MEMBAR",
            Opcode::Mov => "MOV",
            Opcode::Mov32i => "MOV32I",
            Opcode::Iadd => "IADD",
            Opcode::Iadd3 => "IADD3",
            Opcode::Imad => "IMAD",
            Opcode::Imul => "IMUL",
            Opcode::Isetp => "ISETP",
            Opcode::Lea => "LEA",
            Opcode::Lop3 => "LOP3",
            Opcode::Shf => "SHF",
            Opcode::Shl => "SHL",
            Opcode::Shr => "SHR",
            Opcode::Imnmx => "IMNMX",
            Opcode::Iabs => "IABS",
            Opcode::Popc => "POPC",
            Opcode::Sel => "SEL",
            Opcode::Fadd => "FADD",
            Opcode::Fmul => "FMUL",
            Opcode::Ffma => "FFMA",
            Opcode::Fsetp => "FSETP",
            Opcode::Fmnmx => "FMNMX",
            Opcode::Mufu => "MUFU",
            Opcode::Dadd => "DADD",
            Opcode::Dmul => "DMUL",
            Opcode::Dfma => "DFMA",
            Opcode::Dsetp => "DSETP",
            Opcode::F2f => "F2F",
            Opcode::F2i => "F2I",
            Opcode::I2f => "I2F",
            Opcode::I2i => "I2I",
            Opcode::Bra => "BRA",
            Opcode::Exit => "EXIT",
            Opcode::Cal => "CAL",
            Opcode::Ret => "RET",
            Opcode::Bssy => "BSSY",
            Opcode::Bsync => "BSYNC",
            Opcode::Bar => "BAR",
            Opcode::Nop => "NOP",
            Opcode::S2r => "S2R",
            Opcode::Cs2r => "CS2R",
            Opcode::Shfl => "SHFL",
            Opcode::Vote => "VOTE",
            Opcode::Prmt => "PRMT",
        }
    }

    /// Parses the assembly mnemonic.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|o| o.name() == name)
    }

    /// The memory space touched, if this is a load/store/atomic.
    pub fn mem_space(self) -> Option<MemSpace> {
        match self {
            Opcode::Ldg | Opcode::Stg | Opcode::AtomG => Some(MemSpace::Global),
            Opcode::Lds | Opcode::Sts | Opcode::AtomS => Some(MemSpace::Shared),
            Opcode::Ldl | Opcode::Stl => Some(MemSpace::Local),
            Opcode::Ldc => Some(MemSpace::Constant),
            _ => None,
        }
    }

    /// Whether this opcode reads memory into a register.
    pub fn is_load(self) -> bool {
        matches!(
            self,
            Opcode::Ldg | Opcode::Lds | Opcode::Ldl | Opcode::Ldc | Opcode::AtomG | Opcode::AtomS
        )
    }

    /// Whether this opcode writes memory.
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Stg | Opcode::Sts | Opcode::Stl | Opcode::AtomG | Opcode::AtomS)
    }

    /// Whether this opcode can change control flow.
    pub fn is_control(self) -> bool {
        matches!(self, Opcode::Bra | Opcode::Exit | Opcode::Cal | Opcode::Ret | Opcode::Bsync)
    }

    /// Whether this is the block-wide execution barrier (`BAR.SYNC`).
    pub fn is_block_sync(self) -> bool {
        self == Opcode::Bar
    }

    /// Whether the result latency is variable (completed through a
    /// scoreboard barrier) rather than a fixed pipeline latency.
    pub fn has_variable_latency(self) -> bool {
        matches!(
            self,
            Opcode::Ldg
                | Opcode::Stg
                | Opcode::Lds
                | Opcode::Sts
                | Opcode::Ldl
                | Opcode::Stl
                | Opcode::Ldc
                | Opcode::AtomG
                | Opcode::AtomS
                | Opcode::Mufu
                | Opcode::S2r
                | Opcode::Shfl
        )
    }

    /// The issue pipe.
    pub fn pipe(self) -> Pipe {
        match self {
            Opcode::Ldg
            | Opcode::Stg
            | Opcode::Lds
            | Opcode::Sts
            | Opcode::Ldl
            | Opcode::Stl
            | Opcode::Ldc
            | Opcode::AtomG
            | Opcode::AtomS
            | Opcode::Membar => Pipe::Lsu,
            Opcode::Fadd | Opcode::Fmul | Opcode::Ffma | Opcode::Fsetp | Opcode::Fmnmx => Pipe::Fma,
            Opcode::Dadd | Opcode::Dmul | Opcode::Dfma | Opcode::Dsetp => Pipe::Fp64,
            Opcode::Mufu => Pipe::Sfu,
            Opcode::Bra
            | Opcode::Exit
            | Opcode::Cal
            | Opcode::Ret
            | Opcode::Bssy
            | Opcode::Bsync
            | Opcode::Bar => Pipe::Branch,
            Opcode::S2r | Opcode::Cs2r | Opcode::Shfl | Opcode::Vote | Opcode::Nop => Pipe::Misc,
            _ => Pipe::Alu,
        }
    }

    /// Coarse class for optimizer matching.
    pub fn class(self) -> OpClass {
        match self {
            _ if self.mem_space().is_some() => OpClass::Memory,
            Opcode::Membar => OpClass::Memory,
            Opcode::Fadd | Opcode::Fmul | Opcode::Ffma | Opcode::Fsetp | Opcode::Fmnmx => {
                OpClass::FpAlu
            }
            Opcode::Dadd | Opcode::Dmul | Opcode::Dfma | Opcode::Dsetp => OpClass::Fp64,
            Opcode::Mufu => OpClass::Mufu,
            Opcode::F2f | Opcode::F2i | Opcode::I2f | Opcode::I2i => OpClass::Conversion,
            Opcode::Bra
            | Opcode::Exit
            | Opcode::Cal
            | Opcode::Ret
            | Opcode::Bssy
            | Opcode::Bsync => OpClass::Control,
            Opcode::Bar => OpClass::Sync,
            Opcode::Mov
            | Opcode::Mov32i
            | Opcode::Sel
            | Opcode::S2r
            | Opcode::Cs2r
            | Opcode::Shfl
            | Opcode::Vote
            | Opcode::Prmt
            | Opcode::Nop => OpClass::Other,
            _ => OpClass::IntAlu,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_code(op.code()), Some(op));
            assert_eq!(Opcode::from_name(op.name()), Some(op));
        }
        assert_eq!(Opcode::from_code(200), None);
        assert_eq!(Opcode::from_name("FROB"), None);
    }

    #[test]
    fn classification() {
        assert_eq!(Opcode::Ldg.mem_space(), Some(MemSpace::Global));
        assert_eq!(Opcode::Ldc.mem_space(), Some(MemSpace::Constant));
        assert!(Opcode::Ldg.is_load());
        assert!(!Opcode::Ldg.is_store());
        assert!(Opcode::Stg.is_store());
        assert!(Opcode::AtomG.is_load() && Opcode::AtomG.is_store());
        assert!(Opcode::Bra.is_control());
        assert!(Opcode::Bar.is_block_sync());
        assert!(Opcode::Mufu.has_variable_latency());
        assert!(!Opcode::Ffma.has_variable_latency());
        assert_eq!(Opcode::Mufu.pipe(), Pipe::Sfu);
        assert_eq!(Opcode::Dfma.class(), OpClass::Fp64);
        assert_eq!(Opcode::F2f.class(), OpClass::Conversion);
    }
}
