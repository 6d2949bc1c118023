//! Instruction latency tables.
//!
//! Fixed-latency instructions complete a known number of cycles after
//! issue; the assembler guards their consumers with control-code stall
//! counts. Variable-latency instructions (memory, MUFU, S2R, SHFL) signal
//! completion through scoreboard barriers; for those the table provides
//! conservative *upper bounds* used by the blamer's latency-based pruning
//! rule — the paper uses the TLB-miss latency as the upper bound for
//! global memory.
//!
//! The numbers follow the Volta microbenchmarking literature (Jia et al.,
//! "Dissecting the NVIDIA Volta GPU architecture via microbenchmarking").

use crate::config::ArchConfig;
use gpa_isa::{Instruction, Modifier, Opcode};

/// Result latency the simulator charges `MUFU`, cycles.
pub const MUFU_LATENCY: u32 = 20;
/// Result latency the simulator charges `S2R`, cycles.
pub const S2R_LATENCY: u32 = 20;
/// Result latency the simulator charges `SHFL`, cycles.
pub const SHFL_LATENCY: u32 = 25;
/// Result latency the simulator charges a memory instruction that
/// accessed nothing (its guard was false on every lane), cycles.
pub const GUARDED_OFF_MEM_LATENCY: u32 = 8;

/// Fixed latencies and variable-latency upper bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyTable {
    /// Upper bound for global/local memory (TLB-miss path), cycles.
    pub global_upper: u32,
    /// Upper bound for shared memory (bank-conflict worst case), cycles.
    pub shared_upper: u32,
    /// Upper bound for constant memory (miss to L2), cycles.
    pub constant_upper: u32,
    /// Upper bound for MUFU results, cycles.
    pub mufu_upper: u32,
    /// Upper bound for S2R/SHFL results, cycles.
    pub misc_upper: u32,
}

impl LatencyTable {
    /// The table for a machine configuration.
    pub fn for_arch(arch: &ArchConfig) -> Self {
        LatencyTable {
            global_upper: arch.lat_global_dram * 2 + 128, // TLB-miss path
            shared_upper: arch.lat_shared * 4,
            constant_upper: arch.lat_constant * 4,
            mufu_upper: 40,
            misc_upper: 32,
        }
    }

    /// Latency of a **fixed-latency** instruction in cycles, or `None` for
    /// variable-latency instructions.
    ///
    /// Modifiers matter: 64-bit conversions (`F2F.F32.F64`) take longer
    /// than 32-bit ones — the hotspot case study hinges on that cost.
    pub fn fixed_latency(&self, instr: &Instruction) -> Option<u32> {
        (!instr.opcode.has_variable_latency()).then(|| self.result_latency(instr))
    }

    /// Cycles from issue to result when the instruction accesses no
    /// memory: its fixed latency, else what the simulator charges a
    /// scoreboard-completed one. Every opcode has an arm — a new one does
    /// not compile until the machine says what it costs.
    pub fn result_latency(&self, instr: &Instruction) -> u32 {
        use Opcode::*;
        let wide = instr.mods.contains(&Modifier::F64)
            || instr.mods.contains(&Modifier::Sz64)
            || instr.mods.contains(&Modifier::Wide);
        match instr.opcode {
            Ldg | Stg | Lds | Sts | Ldl | Stl | Ldc | AtomG | AtomS => GUARDED_OFF_MEM_LATENCY,
            Mufu => MUFU_LATENCY,
            S2r => S2R_LATENCY,
            Shfl => SHFL_LATENCY,
            Iadd | Iadd3 | Lop3 | Shf | Shl | Shr | Imnmx | Iabs | Sel | Mov | Isetp | Prmt => 4,
            Fadd | Fmul | Ffma | Fsetp | Fmnmx | Vote => 4,
            Mov32i | Nop | Cs2r => 1,
            Imad | Imul | Lea if wide => 7,
            Imad | Imul | Lea => 5,
            Popc => 10,
            Dadd | Dmul | Dfma | Dsetp => 8,
            F2f | F2i | I2f | I2i if wide => 13,
            F2f | F2i | I2f | I2i => 10,
            Bra | Exit | Cal | Ret | Bssy | Bsync | Bar | Membar => 1,
        }
    }

    /// Conservative upper-bound latency for any instruction, used by the
    /// latency-based pruning rule.
    pub fn upper_bound(&self, instr: &Instruction) -> u32 {
        use gpa_isa::MemSpace;
        if let Some(lat) = self.fixed_latency(instr) {
            return lat;
        }
        match instr.opcode.mem_space() {
            Some(MemSpace::Global) | Some(MemSpace::Local) => self.global_upper,
            Some(MemSpace::Shared) => self.shared_upper,
            Some(MemSpace::Constant) => self.constant_upper,
            None => {
                if instr.opcode == Opcode::Mufu {
                    self.mufu_upper
                } else {
                    self.misc_upper
                }
            }
        }
    }

    /// Whether this instruction counts as *long-latency arithmetic* for the
    /// Strength Reduction optimizer (FP64, conversions, transcendentals,
    /// wide integer multiplies).
    pub fn is_long_latency_arith(&self, instr: &Instruction) -> bool {
        use gpa_isa::OpClass;
        match instr.opcode.class() {
            OpClass::Fp64 | OpClass::Conversion | OpClass::Mufu => true,
            OpClass::IntAlu => self.fixed_latency(instr).is_some_and(|l| l >= 7),
            _ => false,
        }
    }
}

impl Default for LatencyTable {
    fn default() -> Self {
        Self::for_arch(&ArchConfig::volta_v100())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::{Operand, Register};

    fn instr(op: Opcode) -> Instruction {
        Instruction::new(op, vec![Operand::Reg(Register::from_u8(0))], vec![])
    }

    #[test]
    fn fixed_vs_variable() {
        let t = LatencyTable::default();
        assert_eq!(t.fixed_latency(&instr(Opcode::Iadd)), Some(4));
        assert_eq!(t.fixed_latency(&instr(Opcode::Dfma)), Some(8));
        assert_eq!(t.fixed_latency(&instr(Opcode::Ldg)), None);
        assert!(t.upper_bound(&instr(Opcode::Ldg)) > 500, "TLB-miss upper bound");
        assert!(t.upper_bound(&instr(Opcode::Lds)) < t.upper_bound(&instr(Opcode::Ldg)));
    }

    /// The pruning rule drops a dependency longer than its upper bound:
    /// sound only while no bound undercuts what the simulator charges.
    #[test]
    fn upper_bounds_cover_what_the_simulator_charges() {
        let t = LatencyTable::default();
        assert!(t.upper_bound(&instr(Opcode::Mufu)) >= MUFU_LATENCY);
        assert!(t.upper_bound(&instr(Opcode::S2r)) >= S2R_LATENCY);
        assert!(t.upper_bound(&instr(Opcode::Shfl)) >= SHFL_LATENCY);
    }

    #[test]
    fn wide_conversions_cost_more() {
        let t = LatencyTable::default();
        let narrow = instr(Opcode::F2f).with_mod(Modifier::F32);
        let wide = instr(Opcode::F2f).with_mod(Modifier::F32).with_mod(Modifier::F64);
        assert!(t.fixed_latency(&wide).unwrap() > t.fixed_latency(&narrow).unwrap());
    }

    #[test]
    fn long_latency_arithmetic_classification() {
        let t = LatencyTable::default();
        assert!(t.is_long_latency_arith(&instr(Opcode::Dfma)));
        assert!(t.is_long_latency_arith(&instr(Opcode::F2f)));
        assert!(t.is_long_latency_arith(&instr(Opcode::Mufu)));
        assert!(!t.is_long_latency_arith(&instr(Opcode::Iadd)));
        assert!(!t.is_long_latency_arith(&instr(Opcode::Ldg)));
        let wide_imad = instr(Opcode::Imad).with_mod(Modifier::Wide);
        assert!(t.is_long_latency_arith(&wide_imad));
    }
}
