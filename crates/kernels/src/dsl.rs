//! A small assembly-emission DSL.
//!
//! Kernels are written as assembly text (readable, diffable against their
//! optimized variants); this builder handles the repetitive parts:
//! module/function framing, label generation, the global-thread-id
//! prologue, parameter loads, and the final `ptxas`-style stall-count
//! scheduling pass.

use gpa_arch::{schedule::assign_stall_counts, ArchConfig, LatencyTable};
use gpa_isa::{parse_module, Module};
use std::fmt::Write;

/// Incremental assembly text builder.
#[derive(Debug)]
pub struct Asm {
    text: String,
}

impl Asm {
    /// Starts a module.
    pub fn module(name: &str) -> Self {
        let mut a = Asm { text: String::new() };
        let _ = writeln!(a.text, ".module {name}");
        a
    }

    /// Begins a global kernel.
    pub fn kernel(&mut self, name: &str) -> &mut Self {
        let _ = writeln!(self.text, ".kernel {name}");
        self
    }

    /// Begins a device function.
    pub fn func(&mut self, name: &str) -> &mut Self {
        let _ = writeln!(self.text, ".func {name}");
        self
    }

    /// Ends the current function.
    pub fn endfunc(&mut self) -> &mut Self {
        let _ = writeln!(self.text, ".endfunc");
        self
    }

    /// Emits a `.line` directive.
    pub fn line(&mut self, file: &str, line: u32) -> &mut Self {
        let _ = writeln!(self.text, ".line {file} {line}");
        self
    }

    /// Emits `.inline push`.
    pub fn inline_push(&mut self, callee: &str, file: &str, line: u32) -> &mut Self {
        let _ = writeln!(self.text, ".inline push {callee} {file} {line}");
        self
    }

    /// Emits `.inline pop`.
    pub fn inline_pop(&mut self) -> &mut Self {
        let _ = writeln!(self.text, ".inline pop");
        self
    }

    /// Emits one instruction line.
    pub fn i(&mut self, text: impl AsRef<str>) -> &mut Self {
        let _ = writeln!(self.text, "  {}", text.as_ref());
        self
    }

    /// Emits a label definition.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let _ = writeln!(self.text, "{name}:");
        self
    }

    /// Standard prologue: R0 = global thread id (ctaid*ntid + tid).
    /// Clobbers R2, R3.
    pub fn global_tid(&mut self) -> &mut Self {
        self.i("S2R R0, SR_TID.X {W:B0, S:1}")
            .i("S2R R2, SR_CTAID.X {W:B1, S:1}")
            .i("S2R R3, SR_NTID.X {W:B2, S:1}")
            .i("IMAD R0, R2, R3, R0 {WT:[B0,B1,B2], S:5}")
    }

    /// Loads the 64-bit parameter at byte offset `off` into `Rlo:Rlo+1`.
    pub fn param_u64(&mut self, rlo: u8, off: u32) -> &mut Self {
        self.i(format!("MOV R{rlo}, c[0][{off}] {{S:1}}"));
        self.i(format!("MOV R{}, c[0][{}] {{S:1}}", rlo + 1, off + 4))
    }

    /// Loads the 32-bit parameter at byte offset `off` into `R{r}`.
    pub fn param_u32(&mut self, r: u8, off: u32) -> &mut Self {
        self.i(format!("MOV R{r}, c[0][{off}] {{S:1}}"))
    }

    /// `Rdst:Rdst+1 = Rbase:Rbase+1 + (Ridx << shift)` — array element
    /// address.
    pub fn addr(&mut self, rdst: u8, rbase: u8, ridx: u8, shift: u8) -> &mut Self {
        self.i(format!(
            "LEA R{rdst}:R{}, R{ridx}, R{rbase}:R{}, {shift} {{S:2}}",
            rdst + 1,
            rbase + 1
        ))
    }

    /// The accumulated assembly text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Parses, links, and schedules the module (panics on malformed
    /// kernels — these are compiled-in test programs).
    pub fn build(self) -> Module {
        let mut module = parse_module(&self.text)
            .unwrap_or_else(|e| panic!("kernel assembly error: {e}\n{}", self.text));
        let lat = LatencyTable::for_arch(&ArchConfig::volta_v100());
        for f in &mut module.functions {
            assign_stall_counts(f, &lat);
        }
        module
    }
}

/// Emits the ~8-instruction software integer-division sequence
/// `Rq = Rx / Rd` (the pattern `nvcc` generates, and the ExaTENSOR
/// strength-reduction target). Clobbers `Rt..Rt+3`.
pub fn emit_idiv(a: &mut Asm, rq: u8, rx: u8, rd: u8, rt: u8) {
    a.i(format!("I2F.F32 R{rt}, R{rx} {{S:2}}"));
    a.i(format!("I2F.F32 R{}, R{rd} {{S:2}}", rt + 1));
    a.i(format!("MUFU.RCP R{}, R{} {{W:B5, S:1}}", rt + 2, rt + 1));
    a.i(format!("FMUL R{}, R{rt}, R{} {{WT:[B5], S:2}}", rt + 3, rt + 2));
    a.i(format!("F2I.S32.F32 R{rq}, R{} {{S:2}}", rt + 3));
    // One Newton correction step: q -= (q*d > x).
    a.i(format!("IMAD R{rt}, R{rq}, R{rd}, 0 {{S:2}}"));
    a.i(format!("ISETP.GT.AND P6, R{rt}, R{rx} {{S:2}}"));
    a.i(format!("@P6 IADD R{rq}, R{rq}, -1 {{S:2}}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arch::LaunchConfig;
    use gpa_sim::{GpuSim, SimConfig};

    #[test]
    fn builder_produces_runnable_module() {
        let mut a = Asm::module("t");
        a.kernel("k");
        a.global_tid();
        a.param_u64(4, 0);
        a.addr(6, 4, 0, 2);
        a.i("MOV32I R8, 41 {S:1}");
        a.i("IADD R8, R8, 1 {S:4}");
        a.i("STG.E.32 [R6:R7], R8 {R:B3, S:1}");
        a.i("EXIT {WT:[B3], S:1}");
        a.endfunc();
        let m = a.build();
        let mut gpu = GpuSim::new(gpa_arch::ArchConfig::small(1), SimConfig::default());
        let buf = gpu.global_mut().alloc(4 * 64);
        let params: Vec<u8> = buf.to_le_bytes().to_vec();
        gpu.launch(&m, "k", &LaunchConfig::new(2, 32), &params).unwrap();
        for i in 0..64 {
            assert_eq!(gpu.global().read_u32(buf + 4 * i), 42);
        }
    }

    #[test]
    fn idiv_sequence_divides() {
        let mut a = Asm::module("t");
        a.kernel("k");
        a.global_tid();
        a.param_u64(4, 0);
        a.addr(6, 4, 0, 2);
        // x = tid * 7 + 3; q = x / 7 == tid.
        a.i("IMAD R10, R0, 7, 3 {S:5}");
        a.i("MOV32I R11, 7 {S:1}");
        emit_idiv(&mut a, 12, 10, 11, 16);
        a.i("STG.E.32 [R6:R7], R12 {R:B3, S:1}");
        a.i("EXIT {WT:[B3], S:1}");
        a.endfunc();
        let m = a.build();
        let mut gpu = GpuSim::new(gpa_arch::ArchConfig::small(1), SimConfig::default());
        let buf = gpu.global_mut().alloc(4 * 32);
        let params: Vec<u8> = buf.to_le_bytes().to_vec();
        gpu.launch(&m, "k", &LaunchConfig::new(1, 32), &params).unwrap();
        for i in 0..32 {
            assert_eq!(gpu.global().read_u32(buf + 4 * i), i as u32, "(7i+3)/7 == i");
        }
    }
}
