//! Lowering: a [`gpa_isa::Module`] flattened into the arrays the timing
//! loop indexes and the [`Plan`]s the executor runs.
//!
//! Everything here is computed once per (module, entry, arch) and is
//! immutable afterwards, so a [`CompiledProgram`] can be shared across
//! launches and devices of the same architecture.

use crate::reconv::build_reconvergence;
use crate::{Result, SimError};
use gpa_arch::{ArchConfig, LatencyTable};
use gpa_isa::{
    Access, ControlCode, Instruction, MemRef, MemSpace, Modifier, Module, Opcode, Operand, Pipe,
    PredReg, Predicate, Register, Slot, SpecialReg, Visibility, INSTR_BYTES,
};
use std::collections::HashMap;

/// What lowering one operand gives: the decoded value, or the message of
/// the fault the instruction raises if it ever executes.
type Lowered<T> = std::result::Result<T, String>;

/// A source operand lowered once per instruction: immediates are already
/// the bits the lanes read, so the hot per-lane loops only touch the
/// register file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Src {
    /// Lane-invariant 32-bit value.
    Val(u32),
    /// Lane-invariant 64-bit value.
    Val64(u64),
    /// Per-lane register read (zero-extended in 64-bit contexts).
    Reg(Register),
    /// Per-lane register-pair read (low half in 32-bit contexts).
    Pair(Register),
    /// Per-lane special-register read.
    SReg(SpecialReg),
    /// Per-lane predicate read, as 0 or 1 (`SEL`'s selector).
    Pred(PredReg),
    /// Lane-invariant constant-bank read, at the width of whoever reads
    /// it. The banks belong to a launch, not to the program, so the read
    /// itself stays at issue time.
    CMem { bank: u8, offset: u16 },
}

impl Src {
    /// Lowers an operand the instruction reads as 32 bits (`wide` false)
    /// or 64 bits.
    fn lower(op: &Operand, wide: bool) -> Lowered<Src> {
        Ok(match (*op, wide) {
            (Operand::Reg(r), _) => Src::Reg(r),
            (Operand::RegPair(r), _) => Src::Pair(r), // low half when not wide
            (Operand::Imm(v), false) => Src::Val(v as i32 as u32),
            (Operand::Imm(v), true) => Src::Val64(v as u64),
            (Operand::FImm(v), false) => Src::Val((v as f32).to_bits()),
            (Operand::FImm(v), true) => Src::Val64(v.to_bits()),
            (Operand::CMem { bank, offset }, _) => Src::CMem { bank, offset },
            (Operand::SReg(s), false) => Src::SReg(s),
            _ => {
                let bits = if wide { 64 } else { 32 };
                return Err(format!("operand {op:?} is not a {bits}-bit source"));
            }
        })
    }
}

/// A comparison selected once per instruction (the first ordering
/// modifier wins; no modifier means equality, matching `ISETP` defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    fn of(mods: &[Modifier]) -> CmpOp {
        mods.iter()
            .find_map(|m| match m {
                Modifier::Lt => Some(CmpOp::Lt),
                Modifier::Le => Some(CmpOp::Le),
                Modifier::Gt => Some(CmpOp::Gt),
                Modifier::Ge => Some(CmpOp::Ge),
                Modifier::Eq => Some(CmpOp::Eq),
                Modifier::Ne => Some(CmpOp::Ne),
                _ => None,
            })
            .unwrap_or(CmpOp::Eq)
    }
}

/// One instruction as the executor wants it: everything
/// [`crate::exec::execute`] would otherwise re-derive from the
/// [`Instruction`] on every issue — destination, modifier tests, the
/// comparison, each source at the width its opcode reads it, the memory
/// and data operands — decoded once, into one flat value.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) opcode: Opcode,
    pub(crate) pred: Option<Predicate>,
    pub(crate) ctrl: ControlCode,
    /// The modifier set, one bit per [`Modifier`] (see [`Plan::has`]).
    mods: u32,
    pub(crate) first_mod: Option<Modifier>,
    pub(crate) cmp: CmpOp,
    /// The `MUFU` function modifier (meaningless for other opcodes).
    pub(crate) mufu: Modifier,
    /// Register (or pair) destination; `RZ` when the opcode has none.
    pub(crate) d: Register,
    /// Whether the destination is written as a pair.
    pub(crate) pair: bool,
    /// Predicate destination of a `SETP`, predicate source of `VOTE`.
    pub(crate) p: PredReg,
    /// Sources in operand order. A store's or atomic's data operand is
    /// `srcs[0]`, wherever the memory operand stood; `SEL`'s selecting
    /// predicate is `srcs[2]`.
    pub(crate) srcs: [Src; 3],
    /// `LEA`'s immediate shift.
    pub(crate) shift: u32,
    /// Resolved `BRA`/`CAL` target.
    pub(crate) target: Option<u64>,
    /// The memory operand, the `c[bank][offset]` operand (`LDC`), and the
    /// access width in bytes.
    pub(crate) mem: Option<MemRef>,
    pub(crate) cmem: Option<(u8, u16)>,
    pub(crate) width: u64,
    /// A malformed operand found while lowering. Not an error of the
    /// build: it is raised, with this message, if and when the
    /// instruction issues with a lane to execute — exactly when the
    /// executor found it while it still decoded at issue time.
    pub(crate) fault: Option<String>,
}

impl Plan {
    /// Lowers one instruction. Never fails: a malformed operand is stored
    /// in the plan and raised as a fault if the instruction executes.
    pub fn lower(instr: &Instruction) -> Plan {
        let pair = matches!(instr.dsts.first(), Some(Operand::RegPair(_)));
        let mods = instr.mods.iter().fold(0, |set, &m| set | Plan::bit(m));
        let mut plan = Plan {
            opcode: instr.opcode,
            pred: instr.pred,
            ctrl: instr.ctrl,
            mods,
            first_mod: instr.mods.first().copied(),
            cmp: CmpOp::of(&instr.mods),
            mufu: Modifier::Rcp,
            d: Register::ZERO,
            pair,
            p: PredReg::TRUE,
            srcs: [Src::Val(0); 3],
            shift: match instr.srcs.get(2) {
                Some(Operand::Imm(v)) => *v as u32 & 63,
                _ => 0,
            },
            target: instr.branch_target(),
            mem: instr.dsts.iter().chain(&instr.srcs).find_map(|o| match o {
                Operand::Mem(m) => Some(*m),
                _ => None,
            }),
            cmem: instr.srcs.iter().find_map(|o| match o {
                Operand::CMem { bank, offset } => Some((*bank, *offset)),
                _ => None,
            }),
            width: if mods & Plan::bit(Modifier::Sz64) != 0 || pair { 8 } else { 4 },
            fault: None,
        };
        plan.fault = plan.decode(instr).err();
        plan
    }

    fn bit(m: Modifier) -> u32 {
        1 << m as u32
    }

    /// Whether the instruction carries modifier `m`.
    #[inline]
    pub(crate) fn has(&self, m: Modifier) -> bool {
        self.mods & Plan::bit(m) != 0
    }

    /// Fills the per-opcode fields, in the order the executor used to
    /// check them, so the first malformed operand is the one reported.
    fn decode(&mut self, instr: &Instruction) -> Lowered<()> {
        use Opcode::*;
        let op = instr.opcode;
        let (pair, wide_access) = (self.pair, self.width == 8);
        match op {
            Bra | Exit | Cal | Ret | Bar | Nop | Membar | Bssy | Bsync => {}
            Mov | Mov32i | I2i => self.alu(instr, &[pair])?,
            Iadd => self.alu(instr, &[pair, pair])?,
            Imad => self.alu(instr, &[false, false, self.has(Modifier::Wide)])?,
            Lea => self.alu(instr, &[false, pair])?,
            Iadd3 | Prmt | Ffma => self.alu(instr, &[false; 3])?,
            Imul | Lop3 | Shl | Shr | Shf | Imnmx | Fadd | Fmul | Fmnmx => {
                self.alu(instr, &[false; 2])?;
            }
            Iabs | Popc | I2f => self.alu(instr, &[false])?,
            // Modifier order is [dst, src].
            F2f => self.alu(instr, &[self.first_mod != Some(Modifier::F64)])?,
            F2i => self.alu(instr, &[self.has(Modifier::F64)])?,
            Dadd | Dmul => self.alu(instr, &[true; 2])?,
            Dfma => self.alu(instr, &[true; 3])?,
            Mufu => {
                self.alu(instr, &[false])?;
                self.mufu = (instr.mods.iter().copied())
                    .find(|m| {
                        matches!(
                            m,
                            Modifier::Rcp
                                | Modifier::Rsq
                                | Modifier::Sqrt
                                | Modifier::Sin
                                | Modifier::Cos
                                | Modifier::Ex2
                                | Modifier::Lg2
                        )
                    })
                    .ok_or("MUFU needs a function modifier")?;
            }
            Isetp | Fsetp | Dsetp => {
                self.p = (instr.dsts.first().and_then(Operand::pred))
                    .ok_or_else(|| format!("{op} needs a predicate destination"))?;
                self.sources(instr, &[op == Dsetp; 2])?;
            }
            Sel => {
                self.d = Plan::reg_dst(instr)?;
                let p = (instr.srcs.get(2).and_then(Operand::pred))
                    .ok_or("SEL needs a predicate source")?;
                self.sources(instr, &[false; 2])?;
                self.srcs[2] = Src::Pred(p);
            }
            Vote => {
                self.d = Plan::reg_dst(instr)?;
                self.p = (instr.srcs.first().and_then(Operand::pred))
                    .ok_or("VOTE needs a predicate source")?;
            }
            S2r | Cs2r => {
                self.d = Plan::reg_dst(instr)?;
                let Some(Operand::SReg(s)) = instr.srcs.first() else {
                    return Err("S2R needs a special-register source".into());
                };
                self.srcs[0] = Src::SReg(*s);
            }
            Shfl => {
                self.d = Plan::reg_dst(instr)?;
                let Some(Operand::Reg(r)) = instr.srcs.first() else {
                    return Err("SHFL needs a register source".into());
                };
                self.srcs[0] = Src::Reg(*r);
                self.srcs[1] = Plan::source(instr, 1, false)?;
            }
            Ldg | Ldl | Lds => {
                let what = if op == Lds { "LDS" } else { "load" };
                self.mem.ok_or_else(|| format!("{what} needs a memory operand"))?;
                self.d = Plan::reg_dst(instr)?;
            }
            Stg | Stl | Sts => {
                let what = if op == Sts { "STS" } else { "store" };
                self.mem.ok_or_else(|| format!("{what} needs a memory operand"))?;
                self.srcs[0] = Plan::data(instr, what, wide_access)?;
            }
            Ldc => {
                self.d = Plan::reg_dst(instr)?;
                if self.cmem.is_none() && self.mem.is_none() {
                    return Err("LDC needs a constant or memory operand".into());
                }
            }
            AtomG | AtomS => {
                self.mem.ok_or_else(|| format!("{op} needs a memory operand"))?;
                self.d = Plan::reg_dst(instr)?;
                self.srcs[0] = Plan::data(instr, op.name(), false)?;
            }
        }
        // The executor writes these results as pairs whatever the
        // destination was spelled as; the register file and the
        // scoreboard are sized and keyed by the spelling.
        let wide_result = match op {
            Dadd | Dmul | Dfma => true,
            Imad => self.has(Modifier::Wide),
            F2f => self.first_mod == Some(Modifier::F64),
            I2f => self.has(Modifier::F64),
            Ldg | Ldl | Lds | Ldc => wide_access,
            _ => false,
        };
        if wide_result && !pair && !self.d.is_zero() {
            return Err(format!("{op} writes 64 bits and needs a register-pair destination"));
        }
        Ok(())
    }

    /// A register destination, then the sources at `wide`'s widths.
    fn alu(&mut self, instr: &Instruction, wide: &[bool]) -> Lowered<()> {
        self.d = Plan::reg_dst(instr)?;
        self.sources(instr, wide)
    }

    fn sources(&mut self, instr: &Instruction, wide: &[bool]) -> Lowered<()> {
        for (i, &wide) in wide.iter().enumerate() {
            self.srcs[i] = Plan::source(instr, i, wide)?;
        }
        Ok(())
    }

    fn source(instr: &Instruction, i: usize, wide: bool) -> Lowered<Src> {
        let op = (instr.srcs.get(i))
            .ok_or_else(|| format!("{} missing source operand {i}", instr.opcode))?;
        Src::lower(op, wide)
    }

    fn reg_dst(instr: &Instruction) -> Lowered<Register> {
        match instr.dsts.first() {
            Some(Operand::Reg(r)) | Some(Operand::RegPair(r)) => Ok(*r),
            _ => Err(format!("{} missing register destination", instr.opcode)),
        }
    }

    /// A store's or atomic's data operand: the first source that is not
    /// the memory operand.
    fn data(instr: &Instruction, what: &str, wide: bool) -> Lowered<Src> {
        let op = (instr.srcs.iter().find(|o| !matches!(o, Operand::Mem(_))))
            .ok_or_else(|| format!("{what} needs a data operand"))?;
        Src::lower(op, wide)
    }
}

/// Precomputed per-instruction metadata for the hot status checks.
pub(crate) struct InstrMeta {
    pub(crate) use_regs: Vec<u8>,
    pub(crate) use_preds: u8,
    pub(crate) wait_mask: u8,
    pub(crate) def_regs: Vec<u8>,
    pub(crate) def_preds: u8,
    /// Result latency when the instruction makes no memory access: its
    /// fixed latency, else the `MUFU`/`S2R`/`SHFL` constant, else what a
    /// memory instruction costs whose guard is false on every lane.
    pub(crate) lat: u32,
    /// Extra result latency when the access is atomic (0 otherwise).
    pub(crate) atomic_extra: u32,
    pub(crate) pipe: Pipe,
    pub(crate) throttled_mem: bool,
    pub(crate) reconv: Option<u64>,
    /// Program index of the fall-through instruction (`NO_IDX` when the
    /// instruction is the last of its function).
    pub(crate) next_idx: u32,
    /// Program index of the static branch/call target (`NO_IDX` for
    /// non-control instructions or targets outside the program).
    pub(crate) target_idx: u32,
}

/// Extra result latency of an atomic access, in cycles.
const ATOMIC_EXTRA_LATENCY: u32 = 12;

/// Sentinel for "no instruction index" in the control-flow index tables.
pub(crate) const NO_IDX: u32 = u32::MAX;

/// A module lowered to flat arrays for simulation.
///
/// Building one decodes every instruction and runs reconvergence analysis
/// (CFG + postdominators per function) — expensive enough that repeat
/// launches should reuse a compiled program instead of re-lowering:
/// compile once with [`crate::GpuSim::compile`] (or let a pipeline `Session`
/// cache it per module artifact) and launch with
/// [`crate::GpuSim::launch_compiled`].
pub struct CompiledProgram {
    entry: String,
    module_name: String,
    isa_arch: String,
    pub(crate) arch_name: String,
    pub(crate) plans: Vec<Plan>,
    pub(crate) meta: Vec<InstrMeta>,
    pub(crate) pcs: Vec<u64>,
    /// Per-function contiguous PC ranges `(base, end, first_idx)`, sorted
    /// by base — the hot pc→index lookup for dynamic control flow (the
    /// exact pc→index map lives only at build time, for entry lookup and
    /// static target resolution).
    ranges: Vec<(u64, u64, u32)>,
    pub(crate) entry_pc: u64,
    pub(crate) entry_idx: u32,
    /// Registers the program can touch (max operand register + 1), so
    /// warps allocate register files sized to the kernel instead of the
    /// full 256-row architectural file.
    pub(crate) nregs: usize,
}

impl CompiledProgram {
    /// Lowers `entry` of `module` for simulation on `arch`.
    ///
    /// # Errors
    ///
    /// Fails on unlinked modules and unknown kernels.
    pub fn build(module: &Module, entry: &str, arch: &ArchConfig) -> Result<Self> {
        if !module.is_linked() {
            return Err(SimError::UnlinkedModule);
        }
        let entry_fn = module
            .function(entry)
            .filter(|f| f.visibility == Visibility::Global)
            .ok_or_else(|| SimError::UnknownKernel(entry.to_string()))?;
        let entry_pc = entry_fn.base;
        let lat = LatencyTable::for_arch(arch);
        let reconv_map = build_reconvergence(module);
        let mut plans = Vec::new();
        let mut meta: Vec<InstrMeta> = Vec::new();
        let mut pcs = Vec::new();
        let mut ranges = Vec::new();
        let mut pc2idx = HashMap::new();
        let mut nregs: usize = 8;
        for f in &module.functions {
            if !f.is_empty() {
                ranges.push((f.base, f.end(), plans.len() as u32));
            }
            for (i, instr) in f.instrs.iter().enumerate() {
                let pc = f.pc_of(i);
                pc2idx.insert(pc, plans.len() as u32);
                pcs.push(pc);
                let mut use_regs = Vec::new();
                let mut use_preds = 0u8;
                let mut def_regs = Vec::new();
                let mut def_preds = 0u8;
                for s in instr.uses() {
                    match s {
                        Slot::Reg(r) => use_regs.push(r.index()),
                        Slot::Pred(p) => use_preds |= 1 << p.index(),
                        Slot::Bar(_) => {}
                    }
                }
                for s in instr.defs() {
                    match s {
                        Slot::Reg(r) => def_regs.push(r.index()),
                        Slot::Pred(p) => def_preds |= 1 << p.index(),
                        Slot::Bar(_) => {}
                    }
                }
                for op in instr.srcs.iter().chain(instr.dsts.iter()) {
                    for r in op.src_regs().chain(op.dst_regs()) {
                        if !r.is_zero() {
                            nregs = nregs.max(r.index() as usize + 1);
                        }
                    }
                }
                let mem = instr.opcode.mem();
                meta.push(InstrMeta {
                    use_regs,
                    use_preds,
                    wait_mask: instr.ctrl.wait_mask,
                    def_regs,
                    def_preds,
                    lat: lat.result_latency(instr),
                    atomic_extra: match mem {
                        Some((_, Access::Atomic)) => ATOMIC_EXTRA_LATENCY,
                        Some((_, Access::Load | Access::Store)) | None => 0,
                    },
                    pipe: instr.opcode.pipe(),
                    throttled_mem: matches!(mem, Some((MemSpace::Global | MemSpace::Local, _))),
                    reconv: reconv_map.get(&pc).copied(),
                    next_idx: if i + 1 < f.instrs.len() { plans.len() as u32 + 1 } else { NO_IDX },
                    target_idx: NO_IDX,
                });
                plans.push(Plan::lower(instr));
            }
        }
        // Second pass: resolve static branch/call targets now that the
        // whole index space exists (calls may target later functions).
        for (m, plan) in meta.iter_mut().zip(&plans) {
            if matches!(plan.opcode, Opcode::Bra | Opcode::Cal) {
                if let Some(t) = plan.target {
                    m.target_idx = pc2idx.get(&t).copied().unwrap_or(NO_IDX);
                }
            }
        }
        let entry_idx = pc2idx[&entry_pc];
        Ok(CompiledProgram {
            entry: entry.to_string(),
            module_name: module.name.clone(),
            isa_arch: module.arch.clone(),
            arch_name: arch.name.clone(),
            plans,
            meta,
            pcs,
            ranges,
            entry_pc,
            entry_idx,
            nregs,
        })
    }

    /// The entry (kernel) function name.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The source module's name.
    pub fn module_name(&self) -> &str {
        &self.module_name
    }

    /// The source module's ISA architecture tag.
    pub fn isa_arch(&self) -> &str {
        &self.isa_arch
    }

    /// Instruction index for an absolute PC via the per-function range
    /// table (dynamic control flow: returns, reconvergence).
    pub(crate) fn idx_of_pc(&self, pc: u64) -> Option<u32> {
        let i = self.ranges.partition_point(|&(base, _, _)| base <= pc);
        let &(base, end, first_idx) = self.ranges.get(i.checked_sub(1)?)?;
        if pc >= end {
            return None;
        }
        let off = pc - base;
        if !off.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        Some(first_idx + (off / INSTR_BYTES) as u32)
    }
}
