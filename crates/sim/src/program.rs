//! Lowering: a [`gpa_isa::Module`] flattened into the arrays the timing
//! loop indexes.
//!
//! Everything here is computed once per (module, entry, arch) and is
//! immutable afterwards, so a [`CompiledProgram`] can be shared across
//! launches and devices of the same architecture.

use crate::reconv::build_reconvergence;
use crate::{Result, SimError};
use gpa_arch::{ArchConfig, LatencyTable};
use gpa_isa::{Instruction, MemSpace, Module, Opcode, Pipe, Slot, Visibility, INSTR_BYTES};
use std::collections::HashMap;

/// Precomputed per-instruction metadata for the hot status checks.
pub(crate) struct InstrMeta {
    pub(crate) use_regs: Vec<u8>,
    pub(crate) use_preds: u8,
    pub(crate) wait_mask: u8,
    pub(crate) def_regs: Vec<u8>,
    pub(crate) def_preds: u8,
    pub(crate) fixed_lat: Option<u32>,
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

/// Sentinel for "no instruction index" in the control-flow index tables.
pub(crate) const NO_IDX: u32 = u32::MAX;

/// A module lowered to flat arrays for simulation.
///
/// Building one clones every instruction and runs reconvergence analysis
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
    pub(crate) instrs: Vec<Instruction>,
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
        let mut instrs = Vec::new();
        let mut meta: Vec<InstrMeta> = Vec::new();
        let mut pcs = Vec::new();
        let mut ranges = Vec::new();
        let mut pc2idx = HashMap::new();
        let mut nregs: usize = 8;
        for f in &module.functions {
            if !f.is_empty() {
                ranges.push((f.base, f.end(), instrs.len() as u32));
            }
            for (i, instr) in f.instrs.iter().enumerate() {
                let pc = f.pc_of(i);
                pc2idx.insert(pc, instrs.len() as u32);
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
                    for r in op.src_regs().into_iter().chain(op.dst_regs()) {
                        if !r.is_zero() {
                            nregs = nregs.max(r.index() as usize + 1);
                        }
                    }
                }
                let space = instr.opcode.mem_space();
                meta.push(InstrMeta {
                    use_regs,
                    use_preds,
                    wait_mask: instr.ctrl.wait_mask,
                    def_regs,
                    def_preds,
                    fixed_lat: lat.fixed_latency(instr),
                    pipe: instr.opcode.pipe(),
                    throttled_mem: matches!(space, Some(MemSpace::Global) | Some(MemSpace::Local)),
                    reconv: reconv_map.get(&pc).copied(),
                    next_idx: if i + 1 < f.instrs.len() { instrs.len() as u32 + 1 } else { NO_IDX },
                    target_idx: NO_IDX,
                });
                instrs.push(instr.clone());
            }
        }
        // Second pass: resolve static branch/call targets now that the
        // whole index space exists (calls may target later functions).
        for (m, instr) in meta.iter_mut().zip(&instrs) {
            if matches!(instr.opcode, Opcode::Bra | Opcode::Cal) {
                if let Some(t) = instr.branch_target() {
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
            instrs,
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
