//! Table 1 as a gate: the `table1` bin's whole stdout, the field
//! dissection of the paper's `@P0 LDG.32 R0, [R2]`, pinned as printed.

use std::process::Command;

const TABLE1: &str = "\
Table 1 — dissection of `@P0 LDG.32 R0, [R2:R3] {WT:[B0,B1], W:B0, R:B1, S:1}`

  Wait Mask              B0, B1
  Write Barrier          B0
  Read Barrier           B1
  Predicate              P0
  Opcode                 LDG
  Modifiers              32
  Destination Operands   R0
  Source Operands        R2, R3
";

#[test]
fn table1_prints_the_papers_field_dissection() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1")).output().expect("table1 runs");
    assert!(out.status.success(), "table1 exited with {}", out.status);
    assert_eq!(String::from_utf8(out.stdout).expect("UTF-8 stdout"), TABLE1);
}
