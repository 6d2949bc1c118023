//! Static analysis of a hand-written kernel: parse assembly, print it back
//! and reassemble it, dissect one instruction's fields (the paper's
//! Table 1), recover the CFG and loop nest, and query def→use distances —
//! the raw material of the blamer.
//!
//! ```sh
//! cargo run --example custom_kernel_asm
//! ```

use gpa::cfg::{Cfg, LoopForest};
use gpa::isa::{dissect, parse_module, Slot};
use gpa::structure::ProgramStructure;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = parse_module(
        r#"
.module custom
.kernel saxpy_strided
.line saxpy.cu 3
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  MOV32I R8, 0 {S:1}
.line saxpy.cu 6
top:
  @P0 LDG.E.32 R4, [R2:R3] {W:B1, S:1}
  @!P0 LDC.32 R4, c[0][16] {W:B1, S:1}
  FFMA R5, R4, 2.5, R5 {WT:[B1], S:4}
  IADD R2:R3, R2:R3, 128 {S:2}
  IADD R8, R8, 1 {S:4}
  ISETP.LT.AND P1, R8, 16 {S:2}
  @P1 BRA top {S:5}
  STG.E.32 [R2:R3], R5 {R:B2, S:1}
  EXIT {WT:[B2], S:1}
.endfunc
"#,
    )?;
    let f = module.function("saxpy_strided").unwrap();

    // Listing round-trip and field dissection.
    assert_eq!(parse_module(&module.write_asm())?, module);
    let ldg = &f.instrs[6];
    println!("instruction: {ldg}");
    for (field, value) in dissect(ldg) {
        println!("  {field:<22} {value}");
    }

    // CFG and loop nest (what Dyninst provides in the paper).
    let cfg = Cfg::build(f);
    let loops = LoopForest::build(&cfg);
    println!("\nCFG: {} basic blocks, {} loops", cfg.blocks().len(), loops.loops().len());
    for l in loops.loops() {
        println!("  loop header at instruction {}", cfg.block(l.header).start);
    }

    // def→use paths: the FFMA at 8 consumes R4 from both predicated loads.
    let defs = gpa::core::blamer::slice::immediate_defs(
        f,
        &cfg,
        8,
        Slot::Reg(gpa::isa::Register::from_u8(4)),
    );
    println!("\nimmediate defs of R4 at instruction 8: {defs:?} (both predicated loads)");
    for d in defs {
        let min = cfg.min_instrs_between(d, 8).unwrap();
        let max = cfg.max_instrs_between(d, 8).unwrap();
        println!("  def {d}: between {min} and {max} instructions to the use");
    }

    // Program structure: scopes and source lines.
    let s = ProgramStructure::build(&module);
    let pc = f.pc_of(8);
    let (file, line) = s.source_of(&module, pc).unwrap();
    println!(
        "\ninstruction 8 maps to {file}:{line}, scope: {}",
        s.describe_scope(&module, s.scope_of(pc).unwrap())
    );
    Ok(())
}
