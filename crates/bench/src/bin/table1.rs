//! Reproduces **Table 1**: dissection of the fields of
//! `@P0 LDG.32 R0, [R2]` (wait mask, write/read barrier, predicate,
//! opcode, modifiers, destination and source operands).

use gpa_isa::{
    dissect, BarrierReg, ControlCode, Instruction, MemRef, Modifier, Opcode, Operand, PredReg,
    Predicate, Register,
};

fn main() {
    let instr = Instruction::new(
        Opcode::Ldg,
        vec![Operand::Reg(Register::from_u8(0))],
        vec![Operand::Mem(MemRef { base: Register::from_u8(2), offset: 0, wide: true })],
    )
    .with_mod(Modifier::Sz32)
    .with_pred(Predicate::pos(PredReg::new(0).unwrap()))
    .with_ctrl(
        ControlCode::none()
            .with_write_barrier(BarrierReg::new(0).unwrap())
            .with_read_barrier(BarrierReg::new(1).unwrap())
            .with_wait(BarrierReg::new(0).unwrap())
            .with_wait(BarrierReg::new(1).unwrap()),
    );
    println!("Table 1 — dissection of `{instr}`\n");
    for (field, value) in dissect(&instr) {
        println!("  {field:<22} {value}");
    }
}
