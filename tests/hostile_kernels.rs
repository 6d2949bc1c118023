//! Hostile operands: kernels that parse, look well formed, and sit on the
//! edges where a 32- and a 64-bit path through the executor can disagree
//! — a shift count wider than the value, an address or constant offset
//! that wraps the top of its space, a 64-bit result aimed at a
//! destination spelled as one register, scratch addresses far beyond
//! their limits.
//!
//! None may panic and none may answer differently in a debug and a
//! release build. Every expectation below is a literal, tier-1 runs this
//! file in debug and CI runs it again in release, so a build profile that
//! disagrees fails.

use gpa::arch::{ArchConfig, LaunchConfig};
use gpa::isa::parse_module;
use gpa::sim::{GpuSim, SimConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a hostile kernel did.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// It ran to `EXIT`.
    Ran {
        /// The four words at the output pointer ([`STORE`] puts R5, R6,
        /// R7 and R9 there).
        out: [u32; 4],
        /// The word whose bytes sit at 2^64-3, 2^64-2, 2^64-1 and 0.
        edge: u32,
        cycles: u64,
    },
    /// The launch returned this error.
    Error(String),
    Panicked,
}

/// Stores R5, R6, R7 and R9 at the output pointer.
const STORE: &str = "
  STG.E.32 [R2:R3], R5 {S:1}
  STG.E.32 [R2:R3+4], R6 {S:1}
  STG.E.32 [R2:R3+8], R7 {S:1}
  STG.E.32 [R2:R3+12], R9 {S:1}";

/// The top three bytes of the address space and the five bytes from 0,
/// as the host seeds them: a word read through the wrap sees all of them.
const EDGE_BYTES: [(u64, u8); 8] = [
    (u64::MAX - 2, 0xa1),
    (u64::MAX - 1, 0xb2),
    (u64::MAX, 0xc3),
    (0, 0xd4),
    (1, 0xe5),
    (2, 0xf6),
    (3, 0x07),
    (4, 0x18),
];

/// One full warp of `body` on `ArchConfig::small(1)`, after a prologue
/// that leaves the output pointer in R2:R3, with the edge bytes seeded
/// and sixteen bytes 0x10, 0x11, .. in constant bank 1.
fn run(body: &str) -> Outcome {
    let text = format!(
        ".module hostile\n.kernel k\n  MOV R2, c[0][0] {{S:1}}\n  MOV R3, c[0][4] {{S:4}}\n\
         {body}\n  EXIT\n.endfunc\n"
    );
    let module = parse_module(&text).expect("a hostile kernel still parses");
    let launched = catch_unwind(AssertUnwindSafe(|| {
        let mut gpu = GpuSim::new(ArchConfig::small(1), SimConfig::default());
        let out = gpu.global_mut().alloc(16);
        for (addr, byte) in EDGE_BYTES {
            gpu.global_mut().write_u8(addr, byte);
        }
        gpu.set_const_bank(1, (0x10..0x20).collect());
        let result = gpu.launch(&module, "k", &LaunchConfig::new(1, 32), &out.to_le_bytes());
        result.map(|r| {
            let mem = gpu.global();
            let edge = [u64::MAX - 2, u64::MAX - 1, u64::MAX, 0].map(|a| mem.read_u8(a));
            Outcome::Ran {
                out: [0, 4, 8, 12].map(|o| mem.read_u32(out + o)),
                edge: u32::from_le_bytes(edge),
                cycles: r.cycles,
            }
        })
    }));
    match launched {
        Ok(Ok(ran)) => ran,
        Ok(Err(e)) => Outcome::Error(e.to_string()),
        Err(_) => Outcome::Panicked,
    }
}

fn ran(out: [u32; 4], edge: u32, cycles: u64) -> Outcome {
    Outcome::Ran { out, edge, cycles }
}

fn fault(pc: u64, message: &str) -> Outcome {
    Outcome::Error(format!("fault at {pc:#x}: {message}"))
}

/// Six kernels whose arithmetic overflows: with plain `<<` and `+` a debug
/// build aborts and a release build wraps. Every build gives the wrapped
/// answer: shift counts act modulo the width of the shifted value,
/// addresses and constant offsets wrap.
#[test]
fn overflowing_operands_answer_what_release_always_answered() {
    const UNTOUCHED: u32 = 0xd4c3_b2a1;
    // 3 + (3 << (40 % 32)).
    let lea = run(&format!("  MOV32I R4, 3 {{S:4}}\n  LEA R5, R4, R4, 40 {{S:5}}{STORE}"));
    assert_eq!(lea, ran([0x303, 0, 0, 0], UNTOUCHED, 67));

    // The four bytes at 2^64-3 .. 0, then the four from 1.
    let ldg32 = run(&format!("  LDG.E.32 R5, [RZ-3] {{W:B0, S:1}}\n  NOP {{WT:[B0], S:1}}{STORE}"));
    assert_eq!(ldg32, ran([UNTOUCHED, 0, 0, 0], UNTOUCHED, 509));
    let ldg64 =
        run(&format!("  LDG.E.64 R6:R7, [RZ-3] {{W:B0, S:1}}\n  NOP {{WT:[B0], S:1}}{STORE}"));
    assert_eq!(ldg64, ran([0, UNTOUCHED, 0x1807_f6e5, 0], UNTOUCHED, 509));

    let stg = run(&format!(
        "  MOV32I R5, 0x01020304 {{S:4}}\n  STG.E.32 [RZ-3], R5 {{R:B0, S:1}}\n  \
         NOP {{WT:[B0], S:1}}{STORE}"
    ));
    assert_eq!(stg, ran([0x0102_0304, 0, 0, 0], 0x0102_0304, 78));

    // 32 lanes add 5 each, one after the other; the last lane's old value
    // is the one its `STG` leaves at the output pointer.
    let atomg = run(&format!(
        "  MOV32I R8, 5 {{S:4}}\n  ATOMG R9, [RZ-3], R8 {{W:B0, S:1}}\n  \
         NOP {{WT:[B0], S:1}}{STORE}"
    ));
    assert_eq!(atomg, ran([0, 0, 0, UNTOUCHED + 31 * 5], UNTOUCHED + 32 * 5, 525));

    // Offset 0xfffffffe of a 16-byte bank reads zero; the upper word's
    // offset wraps to 2.
    let ldc = run(&format!(
        "  MOV32I R4, -2 {{S:4}}\n  LDC.64 R6:R7, [R4] {{W:B0, S:1}}\n  NOP {{WT:[B0], S:1}}{STORE}"
    ));
    assert_eq!(ldc, ran([0, 0, 0x1514_1312, 0], UNTOUCHED, 93));
}

/// Five kernels whose 64-bit result would land past the kernel-sized
/// register file: R8 is the highest register any of them spells, and the
/// result also writes R9. Lowering stores a fault, raised when the
/// instruction issues.
#[test]
fn a_wide_result_into_a_single_register_faults() {
    let cases = [
        ("LDG.E.64 R8, [R2:R3]", "LDG"),
        ("F2F.F64.F32 R8, R2", "F2F"),
        ("I2F.F64 R8, R2", "I2F"),
        ("DADD R8, R2, R3", "DADD"),
        ("IMAD.WIDE R8, R2, R3, R2", "IMAD"),
    ];
    for (instr, opcode) in cases {
        let message = format!("{opcode} writes 64 bits and needs a register-pair destination");
        assert_eq!(run(&format!("  {instr} {{S:1}}")), fault(0x1020, &message), "{instr}");
    }
}

/// Scratch addresses far past their limits and a return with nowhere to
/// go are faults too.
#[test]
fn scratch_limits_and_an_empty_call_stack_fault() {
    let lds = run("  MOV32I R4, 0x7fffffff {S:4}\n  LDS R5, [R4] {S:1}");
    assert_eq!(lds, fault(0x1030, "shared-memory access at 0x80000003 exceeds 96 KiB"));
    let atoms = run("  MOV32I R8, 5 {S:4}\n  ATOMS R9, [RZ-1], R8 {S:1}");
    assert_eq!(atoms, fault(0x1030, "shared-memory access at 0xffffffffffffffff exceeds 96 KiB"));
    assert_eq!(run("  RET {S:1}"), fault(0x1020, "RET on empty stack"));
}
