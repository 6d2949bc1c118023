//! `demo/membound` — `stride_copy`, the memory-hierarchy demo kernel.
//!
//! Not part of the paper's Table 3 registry (and deliberately kept out
//! of [`super::all_apps`] so the 21-app suites are unchanged): this
//! kernel exists to exercise the timed memory hierarchy
//! ([`gpa_arch::MemModel::Hierarchy`]). The baseline walks global
//! memory with a 128-byte stride — every lane of a warp touches its own
//! sector — and stages values through shared memory at the same stride,
//! which maps every lane onto bank 0 (a 32-way conflict). The two
//! optimization stages fix exactly what the memory advisors flag:
//!
//! * variant 1 coalesces the global walk (consecutive lanes, adjacent
//!   words), collapsing the sector storm;
//! * variant 2 additionally switches the shared staging to a unit
//!   stride, spreading lanes over distinct banks.

use crate::data::ParamBlock;
use crate::dsl::Asm;
use crate::{App, KernelSpec, Params, Stage};
use gpa_arch::LaunchConfig;

/// Builds the demo app entry (resolve it directly — it is not
/// registered in [`super::all_apps`]).
pub fn app() -> App {
    App {
        name: "demo/membound",
        kernel: "stride_copy",
        stages: vec![
            Stage { name: "Memory Coalescing", optimizer: "GPUMemoryCoalescingOptimizer" },
            Stage {
                name: "Bank Conflict Resolution",
                optimizer: "GPUBankConflictResolutionOptimizer",
            },
        ],
        build,
    }
}

const THREADS: u32 = 64;
const ROUNDS: u32 = 12;

fn build(variant: usize, p: &Params) -> KernelSpec {
    let coalesced = variant >= 1;
    let padded = variant >= 2;
    let mut a = Asm::module("membound");
    a.kernel("stride_copy");
    a.line("membound.cu", 12);
    a.global_tid();
    a.i("LOP3.AND R1, R0, 63 {S:4}"); // tid within the block
                                      // Global byte offset: stride 128 scatters each lane onto its own
                                      // sector; stride 4 packs a warp into four sectors.
    if coalesced {
        a.i("SHL R2, R0, 2 {S:4}");
    } else {
        a.i("SHL R2, R0, 7 {S:4}");
    }
    // Shared byte offset: stride 128 is 32 words, so every lane lands
    // on bank 0; stride 4 walks the banks one by one.
    if padded {
        a.i("SHL R3, R1, 2 {S:4}");
    } else {
        a.i("SHL R3, R1, 7 {S:4}");
    }
    a.param_u64(4, 0); // in
    a.param_u64(6, 8); // out
    a.addr(12, 4, 2, 0);
    a.addr(14, 6, 2, 0);
    a.i("MOV32I R10, 0 {S:1}"); // accumulator
    a.i("MOV32I R16, 0 {S:1}"); // round counter
    a.line("membound.cu", 20);
    a.label("round_loop");
    a.i("LDG.E.32 R8, [R12:R13] {W:B1, S:1}");
    a.i("STS.32 [R3], R8 {WT:[B1], R:B2, S:1}");
    a.i("LDS.32 R9, [R3] {WT:[B2], W:B3, S:1}");
    a.i("IADD R10, R10, R9 {WT:[B3], S:4}");
    a.i("IADD R16, R16, 1 {S:4}");
    a.i(format!("ISETP.LT.AND P1, R16, {ROUNDS} {{S:2}}"));
    a.i("@P1 BRA round_loop {S:5}");
    a.line("membound.cu", 28);
    a.i("STG.E.32 [R14:R15], R10 {R:B4, S:1}");
    a.i("EXIT {WT:[B4], S:1}");
    a.endfunc();
    let module = a.build();

    let blocks = p.sms * 2 * p.scale;
    let n = blocks * THREADS;
    KernelSpec {
        module,
        entry: "stride_copy".into(),
        // The conflicted variants need 128 bytes of staging per thread;
        // the padded variant keeps the same reservation so occupancy is
        // identical and the speedup isolates the memory behavior.
        launch: LaunchConfig {
            smem_per_block: THREADS * 128,
            ..LaunchConfig::new(blocks, THREADS)
        },
        setup: Box::new(move |gpu| {
            let bytes = 128 * n as u64;
            let input = gpu.global_mut().alloc(bytes);
            let out = gpu.global_mut().alloc(bytes);
            // Seed the strided walk's landing spots; the coalesced walk
            // reads a prefix of the same buffer (zero-filled gaps are
            // fine — the demo measures timing, not a checksum).
            for i in 0..n as u64 {
                gpu.global_mut().write_u32(input + 128 * i, i as u32);
            }
            let mut pb = ParamBlock::new();
            pb.push_u64(input);
            pb.push_u64(out);
            pb.finish()
        }),
        const_bank1: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{arch_for, armed_gpu_with, sim_config};
    use gpa_arch::ArchConfig;

    /// Every variant runs on both memory models, and the timed
    /// hierarchy rewards each fix: coalescing beats the baseline, and
    /// conflict-free staging beats coalescing alone.
    #[test]
    fn hierarchy_rewards_each_memory_fix() {
        let p = Params::test();
        let app = app();
        assert_eq!(app.variants(), 3);
        let cycles = |v: usize, arch: &ArchConfig| {
            let spec = (app.build)(v, &p);
            let (mut gpu, params) = armed_gpu_with(&spec, arch, sim_config());
            gpu.launch(&spec.module, &spec.entry, &spec.launch, &params).unwrap().cycles
        };
        let flat = arch_for(&p);
        let hier = arch_for(&p).with_hierarchy();
        let mut timed = Vec::new();
        for v in 0..app.variants() {
            assert!(cycles(v, &flat) > 0, "variant {v} on the flat model");
            timed.push(cycles(v, &hier));
        }
        assert!(timed[0] > timed[1], "coalescing helps: {timed:?}");
        assert!(timed[1] > timed[2], "bank-conflict fix helps: {timed:?}");
    }
}
