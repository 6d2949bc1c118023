//! A Volta-like GPU instruction set architecture.
//!
//! This crate is the substrate GPA's static analyzer works on. It models the
//! parts of NVIDIA's Volta SASS that matter for stall attribution:
//!
//! * one table of opcodes — a row per [`Opcode`] holding its mnemonic,
//!   pipe, class, completion, destination count and memory access, from
//!   which every static question about an opcode is answered
//!   ([`opcode`]); [`Modifier`] and [`SpecialReg`] are declared the same
//!   way, one `Variant = "SPELLING"` line each,
//! * fixed-length 128-bit instruction words ([`encode`](mod@encode)),
//! * **control codes** — stall cycles, yield flag, write/read barrier
//!   indices and a wait mask over six scoreboard barriers ([`ControlCode`]),
//! * **predicates** `P0`–`P6` plus the always-true `PT` ([`Predicate`]),
//! * register operands `R0`–`R254` with `RZ` hard-wired to zero, register
//!   pairs for 64-bit values, constant-bank and memory operands
//!   ([`Operand`]),
//! * a textual assembly format with `.kernel`/`.func`/`.line`/`.inline`
//!   directives ([`parse`]) so test kernels can be written by hand, and
//! * [`Module`]/[`Function`] containers with linked absolute PCs.
//!
//! The def/use model ([`Instruction::defs`]/[`Instruction::uses`]) exposes
//! *virtual barrier registers* `B0`–`B5` exactly as the GPA paper's
//! instruction blamer requires: a write/read-barrier association is a def of
//! the barrier register, a wait mask is a use.
//!
//! # Example
//!
//! ```
//! use gpa_isa::{parse_module, Opcode};
//!
//! let src = r#"
//! .module demo
//! .kernel main
//!   MOV32I R1, 0x10 {S:1}
//!   LDG.E.32 R0, [R2] {W:B0, S:1}
//!   IADD R3, R0, R1 {WT:[B0], S:4}
//!   EXIT
//! .endfunc
//! "#;
//! let module = parse_module(src)?;
//! let f = module.function("main").unwrap();
//! assert_eq!(f.instrs[1].opcode, Opcode::Ldg);
//! # Ok::<(), gpa_isa::IsaError>(())
//! ```

pub mod control;
pub mod encode;
pub mod instruction;
pub mod module;
pub mod opcode;
pub mod operand;
pub mod parse;
pub mod register;
mod vocabulary;

pub use control::ControlCode;
pub use encode::{decode, dissect, encode, EncodedInstruction};
pub use instruction::{Instruction, Modifier, Slot};
pub use module::{
    FixupTarget, Function, InlineFrame, InstrRef, Module, SourceLoc, Visibility, INSTR_BYTES,
};
pub use opcode::{Access, MemSpace, OpClass, Opcode, Pipe};
pub use operand::{MemRef, Operand};
pub use parse::parse_module;
pub use register::{BarrierReg, PredReg, Predicate, Register, SpecialReg};

use std::fmt;

/// Errors produced while building, encoding or parsing instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A register index was outside `0..=255`.
    BadRegister(u32),
    /// A predicate index was outside `0..=7`.
    BadPredicate(u32),
    /// A barrier index was outside `0..=5`.
    BadBarrier(u32),
    /// The instruction does not fit in the 128-bit encoding.
    EncodingOverflow(String),
    /// Malformed binary word.
    DecodeError(String),
    /// Assembly text could not be parsed. Carries line number and message.
    ParseError { line: usize, message: String },
    /// A label or function referenced by a branch/call does not exist.
    UnresolvedSymbol(String),
    /// Module-level inconsistency (duplicate function, missing `.endfunc`, ...).
    ModuleError(String),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::BadRegister(n) => write!(f, "register index {n} out of range"),
            IsaError::BadPredicate(n) => write!(f, "predicate index {n} out of range"),
            IsaError::BadBarrier(n) => write!(f, "barrier index {n} out of range"),
            IsaError::EncodingOverflow(s) => write!(f, "instruction too large to encode: {s}"),
            IsaError::DecodeError(s) => write!(f, "malformed instruction word: {s}"),
            IsaError::ParseError { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            IsaError::UnresolvedSymbol(s) => write!(f, "unresolved symbol `{s}`"),
            IsaError::ModuleError(s) => write!(f, "module error: {s}"),
        }
    }
}

impl std::error::Error for IsaError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, IsaError>;
