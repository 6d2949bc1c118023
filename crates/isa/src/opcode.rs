//! Opcodes and their static classification: one row per opcode.
//!
//! The table below is the only place an opcode is declared. Its row says
//! what the assembler, the blamer, the optimizers and the simulator ask
//! of an opcode *statically*; what an opcode costs is the machine's to
//! say (`gpa_arch::LatencyTable`) and what it does is the executor's
//! (`gpa_sim`), each in one exhaustive `match` (docs/simulator.md,
//! "Adding an opcode").

use crate::vocabulary::vocabulary;

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

/// How a memory opcode touches its space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Reads memory into a register.
    Load,
    /// Writes a register to memory.
    Store,
    /// Read-modify-write: both a load and a store.
    Atomic,
}

/// How an instruction's result becomes available.
enum Completion {
    /// A fixed pipeline latency, covered by the consumer's stall count.
    Fixed,
    /// A variable latency, signalled through a scoreboard barrier.
    Barrier,
}

/// One row of the opcode table, minus the mnemonic.
struct Facts {
    pipe: Pipe,
    class: OpClass,
    completion: Completion,
    dsts: usize,
    mem: Option<(MemSpace, Access)>,
}

/// Emits [`Opcode`] (through [`vocabulary!`]) and `FACTS` from one list of
/// `Variant = "MNEMONIC", pipe, class, completion, dsts[, space access];`.
macro_rules! opcodes {
    (@mem) => { None };
    (@mem $space:ident $access:ident) => { Some((MemSpace::$space, Access::$access)) };
    (
        $(#[$meta:meta])*
        $($op:ident = $name:literal, $pipe:ident, $class:ident, $done:ident, $dsts:literal
            $(, $space:ident $access:ident)?;)*
    ) => {
        vocabulary! {
            $(#[$meta])*
            pub enum Opcode { $($op = $name,)* }
        }

        const FACTS: [Facts; Opcode::ALL.len()] = [$(Facts {
            pipe: Pipe::$pipe,
            class: OpClass::$class,
            completion: Completion::$done,
            dsts: $dsts,
            mem: opcodes!(@mem $($space $access)?),
        },)*];
    };
}

opcodes! {
    /// A Volta-like opcode.
    ///
    /// The set covers the instructions the GPA paper's analyses distinguish:
    /// global/shared/local/constant loads and stores, fixed-latency integer and
    /// FP32 arithmetic, long-latency FP64 and conversion instructions,
    /// transcendentals (`MUFU`), predicate-setting compares, control flow and
    /// barriers.
    // variant, mnemonic, pipe, class, completion, leading destination
    // operands, memory space and access.
    // Memory.
    Ldg    = "LDG",    Lsu,    Memory,     Barrier, 1, Global Load;
    Stg    = "STG",    Lsu,    Memory,     Barrier, 0, Global Store;
    Lds    = "LDS",    Lsu,    Memory,     Barrier, 1, Shared Load;
    Sts    = "STS",    Lsu,    Memory,     Barrier, 0, Shared Store;
    Ldl    = "LDL",    Lsu,    Memory,     Barrier, 1, Local Load;
    Stl    = "STL",    Lsu,    Memory,     Barrier, 0, Local Store;
    Ldc    = "LDC",    Lsu,    Memory,     Barrier, 1, Constant Load;
    AtomG  = "ATOMG",  Lsu,    Memory,     Barrier, 1, Global Atomic;
    AtomS  = "ATOMS",  Lsu,    Memory,     Barrier, 1, Shared Atomic;
    Membar = "MEMBAR", Lsu,    Memory,     Fixed,   0;
    // Integer.
    Mov    = "MOV",    Alu,    Other,      Fixed,   1;
    Mov32i = "MOV32I", Alu,    Other,      Fixed,   1;
    Iadd   = "IADD",   Alu,    IntAlu,     Fixed,   1;
    Iadd3  = "IADD3",  Alu,    IntAlu,     Fixed,   1;
    Imad   = "IMAD",   Alu,    IntAlu,     Fixed,   1;
    Imul   = "IMUL",   Alu,    IntAlu,     Fixed,   1;
    Isetp  = "ISETP",  Alu,    IntAlu,     Fixed,   1;
    Lea    = "LEA",    Alu,    IntAlu,     Fixed,   1;
    Lop3   = "LOP3",   Alu,    IntAlu,     Fixed,   1;
    Shf    = "SHF",    Alu,    IntAlu,     Fixed,   1;
    Shl    = "SHL",    Alu,    IntAlu,     Fixed,   1;
    Shr    = "SHR",    Alu,    IntAlu,     Fixed,   1;
    Imnmx  = "IMNMX",  Alu,    IntAlu,     Fixed,   1;
    Iabs   = "IABS",   Alu,    IntAlu,     Fixed,   1;
    Popc   = "POPC",   Alu,    IntAlu,     Fixed,   1;
    Sel    = "SEL",    Alu,    Other,      Fixed,   1;
    // FP32.
    Fadd   = "FADD",   Fma,    FpAlu,      Fixed,   1;
    Fmul   = "FMUL",   Fma,    FpAlu,      Fixed,   1;
    Ffma   = "FFMA",   Fma,    FpAlu,      Fixed,   1;
    Fsetp  = "FSETP",  Fma,    FpAlu,      Fixed,   1;
    Fmnmx  = "FMNMX",  Fma,    FpAlu,      Fixed,   1;
    Mufu   = "MUFU",   Sfu,    Mufu,       Barrier, 1;
    // FP64.
    Dadd   = "DADD",   Fp64,   Fp64,       Fixed,   1;
    Dmul   = "DMUL",   Fp64,   Fp64,       Fixed,   1;
    Dfma   = "DFMA",   Fp64,   Fp64,       Fixed,   1;
    Dsetp  = "DSETP",  Fp64,   Fp64,       Fixed,   1;
    // Conversions.
    F2f    = "F2F",    Alu,    Conversion, Fixed,   1;
    F2i    = "F2I",    Alu,    Conversion, Fixed,   1;
    I2f    = "I2F",    Alu,    Conversion, Fixed,   1;
    I2i    = "I2I",    Alu,    Conversion, Fixed,   1;
    // Control.
    Bra    = "BRA",    Branch, Control,    Fixed,   0;
    Exit   = "EXIT",   Branch, Control,    Fixed,   0;
    Cal    = "CAL",    Branch, Control,    Fixed,   0;
    Ret    = "RET",    Branch, Control,    Fixed,   0;
    Bssy   = "BSSY",   Branch, Control,    Fixed,   0;
    Bsync  = "BSYNC",  Branch, Control,    Fixed,   0;
    Bar    = "BAR",    Branch, Sync,       Fixed,   0;
    Nop    = "NOP",    Misc,   Other,      Fixed,   0;
    // Misc.
    S2r    = "S2R",    Misc,   Other,      Barrier, 1;
    Cs2r   = "CS2R",   Misc,   Other,      Fixed,   1;
    Shfl   = "SHFL",   Misc,   Other,      Barrier, 1;
    Vote   = "VOTE",   Misc,   Other,      Fixed,   1;
    Prmt   = "PRMT",   Alu,    Other,      Fixed,   1;
}

impl Opcode {
    fn facts(self) -> &'static Facts {
        &FACTS[self as usize]
    }

    /// The memory space touched and how, if this is a load/store/atomic.
    pub fn mem(self) -> Option<(MemSpace, Access)> {
        self.facts().mem
    }

    /// The memory space touched, if this is a load/store/atomic.
    pub fn mem_space(self) -> Option<MemSpace> {
        self.mem().map(|(space, _)| space)
    }

    /// Whether this opcode reads memory into a register.
    pub fn is_load(self) -> bool {
        matches!(self.mem(), Some((_, Access::Load | Access::Atomic)))
    }

    /// Whether this opcode writes memory.
    pub fn is_store(self) -> bool {
        matches!(self.mem(), Some((_, Access::Store | Access::Atomic)))
    }

    /// Whether this opcode can change control flow (`BSSY` only records a
    /// reconvergence point).
    pub fn is_control(self) -> bool {
        self.class() == OpClass::Control && self != Opcode::Bssy
    }

    /// Whether this is the block-wide execution barrier (`BAR.SYNC`).
    pub fn is_block_sync(self) -> bool {
        self == Opcode::Bar
    }

    /// Whether the result latency is variable (completed through a
    /// scoreboard barrier) rather than a fixed pipeline latency.
    pub fn has_variable_latency(self) -> bool {
        matches!(self.facts().completion, Completion::Barrier)
    }

    /// The issue pipe.
    pub fn pipe(self) -> Pipe {
        self.facts().pipe
    }

    /// Coarse class for optimizer matching.
    pub fn class(self) -> OpClass {
        self.facts().class
    }

    /// How many leading assembly operands are destinations: one, or none
    /// for stores, control flow, barriers and `NOP`.
    pub(crate) fn dst_count(self) -> usize {
        self.facts().dsts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_name(op.name()), Some(op));
        }
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
