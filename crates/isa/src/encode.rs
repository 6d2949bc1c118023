//! Fixed-length 128-bit binary encoding.
//!
//! Volta and later NVIDIA architectures use a 128-bit instruction word that
//! packs the opcode, predicate, modifiers, operands and the control-code
//! fields (wait mask, write/read barriers, stall count, yield flag). This
//! module implements an equivalent self-consistent layout:
//!
//! ```text
//! bits   0..8    opcode
//! bits   8..12   guard predicate (bit 3 = negated, bits 0..3 = reg; 7 = unguarded)
//! bits  12..32   modifiers (four 5-bit slots, 0 = empty)
//! bits  32..49   control code (stall:4, yield:1, wbar:3, rbar:3, wait:6)
//! bits  49..51   destination-operand count
//! bits  51..54   source-operand count
//! bits  54..128  operand stream (4-bit tag + payload each)
//! ```
//!
//! Sixteen nibbles hold seventeen guards: an unguarded instruction and
//! `@PT` execute identically, so both take nibble 7 and it decodes as
//! unguarded; `0xF` is `@!PT`, the never-executing guard.
//!
//! # What the word holds
//!
//! The word exists for the paper's Table 1 ([`dissect`]): opcode, guard,
//! modifiers, control code and the operands' registers decode exactly
//! whenever an instruction encodes. Immediates are the limit. A 32-bit or
//! float immediate takes 36 bits of the 74-bit stream with its tag, so two
//! beside two registers (`FFMA R, R, fimm, fimm`, 96 bits) yield
//! [`IsaError::EncodingOverflow`] — 2,583 of the registry's 4,494
//! instructions, 2,520 of them myocyte's — and an [`Operand::FImm`] is an
//! `f64` stored as `f32`, so 142 more decode to a neighbouring value.
//! Nothing downstream reads words (modules are held, linked, printed and
//! simulated as [`Instruction`]s), so neither limit reaches an analysis.
//! `tests/isa_roundtrip.rs` pins both counts and that every other registry
//! instruction decodes to itself.

use crate::control::ControlCode;
use crate::instruction::{Instruction, Modifier};
use crate::opcode::Opcode;
use crate::operand::{MemRef, Operand};
use crate::register::{BarrierReg, PredReg, Predicate, Register, SpecialReg};
use crate::{IsaError, Result};

/// A 128-bit instruction word in little-endian byte order.
pub(crate) type EncodedInstruction = [u8; 16];

const OPERAND_START: usize = 54;

const TAG_REG: u64 = 1;
const TAG_REGPAIR: u64 = 2;
const TAG_PRED: u64 = 3;
const TAG_SREG: u64 = 4;
const TAG_IMM16: u64 = 5;
const TAG_IMM32: u64 = 6;
const TAG_FIMM: u64 = 7;
const TAG_CMEM: u64 = 8;
const TAG_MEM: u64 = 9;

struct BitWriter {
    word: u128,
    pos: usize,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter { word: 0, pos: 0 }
    }

    fn write(&mut self, value: u64, bits: usize) -> Result<()> {
        debug_assert!(bits <= 64);
        if self.pos + bits > 128 {
            return Err(IsaError::EncodingOverflow(format!(
                "operand stream overflows 128-bit word at bit {}",
                self.pos + bits
            )));
        }
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        self.word |= ((value & mask) as u128) << self.pos;
        self.pos += bits;
        Ok(())
    }

    fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }
}

struct BitReader {
    word: u128,
    pos: usize,
}

impl BitReader {
    fn new(word: u128) -> Self {
        BitReader { word, pos: 0 }
    }

    fn read(&mut self, bits: usize) -> u64 {
        debug_assert!(bits <= 64 && self.pos + bits <= 128);
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let v = ((self.word >> self.pos) as u64) & mask;
        self.pos += bits;
        v
    }

    fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }
}

fn encode_operand(w: &mut BitWriter, op: &Operand) -> Result<()> {
    match *op {
        Operand::Reg(r) => {
            w.write(TAG_REG, 4)?;
            w.write(r.index() as u64, 8)
        }
        Operand::RegPair(r) => {
            w.write(TAG_REGPAIR, 4)?;
            w.write(r.index() as u64, 8)
        }
        Operand::Pred(p) => {
            w.write(TAG_PRED, 4)?;
            w.write(p.index() as u64, 4)
        }
        Operand::SReg(s) => {
            w.write(TAG_SREG, 4)?;
            w.write(s.code() as u64, 6)
        }
        Operand::Imm(v) => {
            if (-(1 << 15)..(1 << 15)).contains(&v) {
                w.write(TAG_IMM16, 4)?;
                w.write((v as i16 as u16) as u64, 16)
            } else if (-(1i64 << 31)..(1i64 << 31)).contains(&v) {
                w.write(TAG_IMM32, 4)?;
                w.write((v as i32 as u32) as u64, 32)
            } else {
                Err(IsaError::EncodingOverflow(format!("immediate {v} exceeds 32 bits")))
            }
        }
        Operand::FImm(v) => {
            w.write(TAG_FIMM, 4)?;
            w.write((v as f32).to_bits() as u64, 32)
        }
        Operand::CMem { bank, offset } => {
            if bank > 15 {
                return Err(IsaError::EncodingOverflow(format!("constant bank {bank} > 15")));
            }
            w.write(TAG_CMEM, 4)?;
            w.write(bank as u64, 4)?;
            w.write(offset as u64, 16)
        }
        Operand::Mem(m) => {
            if !(-(1 << 15)..(1 << 15)).contains(&(m.offset as i64)) {
                return Err(IsaError::EncodingOverflow(format!(
                    "memory offset {} exceeds 16 bits",
                    m.offset
                )));
            }
            w.write(TAG_MEM, 4)?;
            w.write(m.base.index() as u64, 8)?;
            w.write(m.wide as u64, 1)?;
            w.write((m.offset as i16 as u16) as u64, 16)
        }
    }
}

fn decode_operand(r: &mut BitReader) -> Result<Operand> {
    let tag = r.read(4);
    match tag {
        TAG_REG => Ok(Operand::Reg(Register::from_u8(r.read(8) as u8))),
        TAG_REGPAIR => Ok(Operand::RegPair(Register::from_u8(r.read(8) as u8))),
        TAG_PRED => PredReg::new(r.read(4) as u32).map(Operand::Pred),
        TAG_SREG => SpecialReg::from_code(r.read(6) as u8)
            .map(Operand::SReg)
            .ok_or_else(|| IsaError::DecodeError("bad special register code".into())),
        TAG_IMM16 => Ok(Operand::Imm(r.read(16) as u16 as i16 as i64)),
        TAG_IMM32 => Ok(Operand::Imm(r.read(32) as u32 as i32 as i64)),
        TAG_FIMM => Ok(Operand::FImm(f32::from_bits(r.read(32) as u32) as f64)),
        TAG_CMEM => {
            let bank = r.read(4) as u8;
            let offset = r.read(16) as u16;
            Ok(Operand::CMem { bank, offset })
        }
        TAG_MEM => {
            let base = Register::from_u8(r.read(8) as u8);
            let wide = r.read(1) != 0;
            let offset = r.read(16) as u16 as i16 as i32;
            Ok(Operand::Mem(MemRef { base, offset, wide }))
        }
        _ => Err(IsaError::DecodeError(format!("unknown operand tag {tag}"))),
    }
}

/// Encodes one instruction into a 128-bit word.
///
/// # Errors
///
/// Returns [`IsaError::EncodingOverflow`] when the instruction has more than
/// two destinations, seven sources, four modifiers, or operands that do not
/// fit the 74-bit operand stream.
pub fn encode(instr: &Instruction) -> Result<EncodedInstruction> {
    instr.ctrl.validate()?;
    if instr.dsts.len() > 2 {
        return Err(IsaError::EncodingOverflow("more than 2 destinations".into()));
    }
    if instr.srcs.len() > 7 {
        return Err(IsaError::EncodingOverflow("more than 7 sources".into()));
    }
    if instr.mods.len() > 4 {
        return Err(IsaError::EncodingOverflow("more than 4 modifiers".into()));
    }
    let mut w = BitWriter::new();
    w.write(instr.opcode.code() as u64, 8)?;
    let guard = instr.pred.map_or(7, |p| p.reg.index() | (p.negated as u8) << 3);
    w.write(guard as u64, 4)?;
    for slot in 0..4 {
        let code = instr.mods.get(slot).map_or(0, |m| m.code());
        w.write(code as u64, 5)?;
    }
    let c = &instr.ctrl;
    w.write(c.stall as u64, 4)?;
    w.write(c.yield_flag as u64, 1)?;
    w.write(c.write_barrier.map_or(7, |b| b.index()) as u64, 3)?;
    w.write(c.read_barrier.map_or(7, |b| b.index()) as u64, 3)?;
    w.write(c.wait_mask as u64, 6)?;
    w.write(instr.dsts.len() as u64, 2)?;
    w.write(instr.srcs.len() as u64, 3)?;
    debug_assert_eq!(w.pos, OPERAND_START);
    for op in instr.dsts.iter().chain(instr.srcs.iter()) {
        encode_operand(&mut w, op)?;
    }
    w.seek(128);
    Ok(w.word.to_le_bytes())
}

/// Decodes a 128-bit word back into an [`Instruction`].
///
/// # Errors
///
/// Returns [`IsaError::DecodeError`] on unknown opcode, modifier, or operand
/// tag bits.
pub fn decode(word: &EncodedInstruction) -> Result<Instruction> {
    let mut r = BitReader::new(u128::from_le_bytes(*word));
    let opcode = Opcode::from_code(r.read(8) as u8)
        .ok_or_else(|| IsaError::DecodeError("unknown opcode".into()))?;
    let guard = r.read(4) as u32;
    let pred = match guard {
        7 => None,
        _ => Some(Predicate { reg: PredReg::new(guard & 7)?, negated: guard & 8 != 0 }),
    };
    let mut mods = Vec::new();
    for _ in 0..4 {
        let code = r.read(5) as u8;
        if code != 0 {
            let m = Modifier::from_code(code)
                .ok_or_else(|| IsaError::DecodeError("unknown modifier code".into()))?;
            mods.push(m);
        }
    }
    let stall = r.read(4) as u8;
    let yield_flag = r.read(1) != 0;
    let wbar = r.read(3) as u8;
    let rbar = r.read(3) as u8;
    let wait_mask = r.read(6) as u8;
    let ctrl = ControlCode {
        stall,
        yield_flag,
        write_barrier: if wbar == 7 { None } else { Some(BarrierReg::new(wbar as u32)?) },
        read_barrier: if rbar == 7 { None } else { Some(BarrierReg::new(rbar as u32)?) },
        wait_mask,
    };
    let ndst = r.read(2) as usize;
    let nsrc = r.read(3) as usize;
    debug_assert_eq!(r.pos, OPERAND_START);
    let mut dsts = Vec::with_capacity(ndst);
    for _ in 0..ndst {
        dsts.push(decode_operand(&mut r)?);
    }
    let mut srcs = Vec::with_capacity(nsrc);
    for _ in 0..nsrc {
        srcs.push(decode_operand(&mut r)?);
    }
    r.seek(128);
    Ok(Instruction { pred, opcode, mods, dsts, srcs, ctrl })
}

/// Dissects an instruction into the field table of the paper's **Table 1**:
/// wait mask, write barrier, read barrier, predicate, opcode, modifiers,
/// destination operands and source operands.
pub fn dissect(instr: &Instruction) -> Vec<(&'static str, String)> {
    let join = |ops: &[Operand]| ops.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(", ");
    // Source operands are shown at the register level (the paper lists the
    // 64-bit address of `[R2]` as the two registers R2, R3).
    let src_regs: Vec<String> = instr
        .srcs
        .iter()
        .flat_map(|s| {
            let regs: Vec<String> = s.src_regs().map(|r| r.to_string()).collect();
            if regs.is_empty() {
                vec![s.to_string()]
            } else {
                regs
            }
        })
        .collect();
    vec![
        ("Wait Mask", instr.ctrl.waits().map(|b| b.to_string()).collect::<Vec<_>>().join(", ")),
        ("Write Barrier", instr.ctrl.write_barrier.map_or(String::new(), |b| b.to_string())),
        ("Read Barrier", instr.ctrl.read_barrier.map_or(String::new(), |b| b.to_string())),
        ("Predicate", instr.pred.map_or(String::new(), |p| p.to_string().replace('@', ""))),
        ("Opcode", instr.opcode.to_string()),
        ("Modifiers", instr.mods.iter().map(|m| m.to_string()).collect::<Vec<_>>().join(", ")),
        ("Destination Operands", join(&instr.dsts)),
        ("Source Operands", src_regs.join(", ")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register::Predicate;

    fn r(n: u8) -> Register {
        Register::from_u8(n)
    }

    fn sample() -> Instruction {
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
    fn roundtrip_table1() {
        let i = sample();
        let word = encode(&i).unwrap();
        assert_eq!(decode(&word).unwrap(), i);
    }

    #[test]
    fn roundtrip_various() {
        let cases = vec![
            Instruction::new(Opcode::Exit, vec![], vec![]),
            Instruction::new(
                Opcode::Iadd3,
                vec![Operand::Reg(r(0))],
                vec![Operand::Reg(r(1)), Operand::Reg(r(2)), Operand::Reg(r(3))],
            ),
            Instruction::new(
                Opcode::Ffma,
                vec![Operand::Reg(r(10))],
                vec![Operand::Reg(r(1)), Operand::Reg(r(2)), Operand::FImm(2.5)],
            ),
            Instruction::new(
                Opcode::Isetp,
                vec![Operand::Pred(PredReg::new(3).unwrap())],
                vec![Operand::Reg(r(1)), Operand::Imm(-70000)],
            )
            .with_mod(Modifier::Lt)
            .with_mod(Modifier::And),
            Instruction::new(
                Opcode::S2r,
                vec![Operand::Reg(r(5))],
                vec![Operand::SReg(SpecialReg::CtaIdX)],
            ),
            Instruction::new(
                Opcode::Mov,
                vec![Operand::Reg(r(7))],
                vec![Operand::CMem { bank: 0, offset: 0x160 }],
            ),
            Instruction::new(Opcode::Bra, vec![], vec![Operand::Imm(0x12340)]),
        ];
        for i in cases {
            let word = encode(&i).unwrap();
            assert_eq!(decode(&word).unwrap(), i, "roundtrip failed for {i}");
        }
    }

    /// Seventeen guards, sixteen nibbles: the two that share one execute
    /// identically, and every nibble decodes to a guard that encodes back
    /// to it.
    #[test]
    fn no_two_guards_that_execute_differently_share_a_nibble() {
        let nibble = |pred: Option<Predicate>| {
            let nop = Instruction { pred, ..Instruction::new(Opcode::Nop, vec![], vec![]) };
            let word = encode(&nop).unwrap();
            (word[1] & 0xF, decode(&word).unwrap().pred)
        };
        // What executes: `None` for always, else (register, sense).
        let executes = |pred: Option<Predicate>| pred.filter(|p| !p.always());
        let regs = (0..8).map(|n| PredReg::new(n).unwrap());
        let guards: Vec<_> = std::iter::once(None)
            .chain(regs.flat_map(|r| [Some(Predicate::pos(r)), Some(Predicate::neg(r))]))
            .collect();
        let mut seen = [false; 16];
        for &g in &guards {
            let (n, back) = nibble(g);
            assert_eq!(executes(back), executes(g), "{g:?} came back as {back:?}");
            assert_eq!(nibble(back).0, n, "nibble {n:#x} does not decode to itself");
            seen[n as usize] = true;
        }
        assert_eq!(seen, [true; 16], "every nibble is some guard's");
    }

    #[test]
    fn overflow_detected() {
        let too_many_srcs = Instruction::new(
            Opcode::Iadd3,
            vec![Operand::Reg(r(0)), Operand::Reg(r(2))],
            vec![Operand::Imm(1 << 20); 3],
        );
        assert!(matches!(encode(&too_many_srcs), Err(IsaError::EncodingOverflow(_))));

        let huge_imm =
            Instruction::new(Opcode::Mov32i, vec![Operand::Reg(r(0))], vec![Operand::Imm(1 << 40)]);
        assert!(matches!(encode(&huge_imm), Err(IsaError::EncodingOverflow(_))));
    }

    #[test]
    fn dissect_matches_paper_table1() {
        let fields = dissect(&sample());
        let get = |k: &str| fields.iter().find(|(n, _)| *n == k).unwrap().1.clone();
        assert_eq!(get("Wait Mask"), "B0, B1");
        assert_eq!(get("Write Barrier"), "B0");
        assert_eq!(get("Read Barrier"), "B1");
        assert_eq!(get("Predicate"), "P0");
        assert_eq!(get("Opcode"), "LDG");
        assert_eq!(get("Modifiers"), "32");
        assert_eq!(get("Destination Operands"), "R0");
        assert_eq!(get("Source Operands"), "R2, R3");
    }
}
