use super::*;
use gpa_isa::{Instruction, MemRef, Operand, PredReg, Predicate, SpecialReg};

/// What a test sees of one executed instruction.
#[derive(Debug)]
struct Executed {
    outcome: Outcome,
    mem: Option<MemAccess>,
}

/// [`super::execute`] on an instruction lowered on the spot, with its
/// traffic copied out of the lent access.
fn execute(
    w: &mut WarpState,
    instr: &Instruction,
    reconv_pc: Option<u64>,
    ctx: &mut ExecCtx,
) -> Result<Executed> {
    let mut access = MemAccess::new();
    let res = super::execute(w, &Plan::lower(instr), reconv_pc, ctx, &mut access)?;
    Ok(Executed { outcome: res.outcome, mem: res.mem.cloned() })
}

fn r(n: u8) -> Register {
    Register::from_u8(n)
}

fn setup() -> (WarpState, GlobalMem, Vec<u8>, ConstMem) {
    (WarpState::new(0, 0, 0, 0, 32, 256), GlobalMem::new(), Vec::new(), ConstMem::new())
}

fn ctx<'a>(g: &'a mut GlobalMem, s: &'a mut Vec<u8>, c: &'a ConstMem) -> ExecCtx<'a> {
    ExecCtx { global: g, smem: s, consts: c, block_id: 3, grid_blocks: 8, block_threads: 64 }
}

#[test]
fn integer_and_float_arithmetic() {
    let (mut w, mut g, mut s, c) = setup();
    let mut cx = ctx(&mut g, &mut s, &c);
    for l in 0..32 {
        w.write_reg(l, r(1), l as u32);
        w.write_reg(l, r(2), 10);
    }
    let iadd = Instruction::new(
        Opcode::Iadd,
        vec![Operand::Reg(r(0))],
        vec![Operand::Reg(r(1)), Operand::Reg(r(2))],
    );
    execute(&mut w, &iadd, None, &mut cx).unwrap();
    assert_eq!(w.read_reg(5, r(0)), 15);

    let ffma = Instruction::new(
        Opcode::Ffma,
        vec![Operand::Reg(r(3))],
        vec![Operand::FImm(2.0), Operand::FImm(3.0), Operand::FImm(1.0)],
    );
    execute(&mut w, &ffma, None, &mut cx).unwrap();
    assert_eq!(f32::from_bits(w.read_reg(0, r(3))), 7.0);
}

/// FP32 semantics, pinned bit for bit against scalar `std` ops: every
/// pair of the special values below meets in some lane of some
/// rotation, for each opcode, with sources from registers, `FImm` and
/// `c[0][..]`, under a full mask, a guard predicate and an `RZ`
/// destination.
#[test]
fn fp32_arithmetic_matches_scalar_std_ops_bit_for_bit() {
    // Quiet NaN with a payload, negative signalling NaN, both zeros,
    // smallest and largest subnormals of either sign, the normal
    // boundary, both infinities, ordinary values, and a triple
    // (1+2^-23, 1+2^-22, -1) whose fused and unfused multiply-add
    // differ in the last bit.
    const SPECIALS: [u32; 16] = [
        0x7fc0_1234,
        0xff80_0001,
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x0080_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7f7f_ffff,
        0x3f80_0000,
        0xbf80_0000,
        0x3f80_0001,
        0x3f80_0002,
        0x4049_0fdb,
        0xc2f6_e979,
    ];
    let (fa, fb) = (f32::from_bits(0x3f80_0001), f32::from_bits(0x3f80_0002));
    assert_eq!(fa.mul_add(fb, -1.0).to_bits(), (fa * fb - 1.0).to_bits() + 1);

    #[derive(Clone, Copy)]
    enum From {
        Row(u8),
        FImm(f64),
        Bank0(u16),
    }
    let n = SPECIALS.len();
    // Through `black_box`, so expectations come from the same machine
    // operations the executor runs, not from compile-time folding.
    let special = |i: usize| std::hint::black_box(SPECIALS[i % n]);
    let mut c = ConstMem::new();
    c.set_bank(0, SPECIALS.iter().flat_map(|b| b.to_le_bytes()).collect());
    let (mut w, mut g, mut s, _) = setup();
    let mut cx = ctx(&mut g, &mut s, &c);
    let p0 = PredReg::new(0).unwrap();
    const GUARD: u32 = 0x0f0f_f00f;
    w.preds[0] = GUARD;
    const SENTINEL: u32 = 0xdead_beef;

    type Scalar = fn(f32, f32, f32) -> f32;
    let ops: [(Opcode, Option<Modifier>, Scalar); 5] = [
        (Opcode::Fadd, None, |a, b, _| a + b),
        (Opcode::Fmul, None, |a, b, _| a * b),
        (Opcode::Ffma, None, |a, b, c| a.mul_add(b, c)),
        (Opcode::Fmnmx, None, |a, b, _| a.min(b)),
        (Opcode::Fmnmx, Some(Modifier::Gt), |a, b, _| a.max(b)),
    ];
    for rot in 0..n {
        for l in 0..WARP_LANES {
            w.write_reg(l, r(1), special(l));
            w.write_reg(l, r(2), special(l + rot));
            w.write_reg(l, r(3), special(3 * l + rot + 1));
        }
        let cword = 4 * rot as u16;
        let shapes: [([From; 3], bool, Register); 5] = [
            ([From::Row(1), From::Row(2), From::Row(3)], false, r(4)),
            ([From::Row(2), From::Bank0(cword), From::FImm(-0.0)], false, r(4)),
            ([From::Bank0(cword), From::Row(1), From::FImm(1e-40)], true, r(4)),
            ([From::FImm(f64::INFINITY), From::Row(3), From::Bank0(cword)], true, r(4)),
            ([From::Row(1), From::Row(2), From::Row(3)], false, Register::ZERO),
        ];
        for (opcode, modifier, scalar) in ops {
            for (from, guarded, dst) in shapes {
                let nsrc = if opcode == Opcode::Ffma { 3 } else { 2 };
                let srcs = from[..nsrc]
                    .iter()
                    .map(|f| match *f {
                        From::Row(n) => Operand::Reg(r(n)),
                        From::FImm(v) => Operand::FImm(v),
                        From::Bank0(offset) => Operand::CMem { bank: 0, offset },
                    })
                    .collect();
                let mut instr = Instruction::new(opcode, vec![Operand::Reg(dst)], srcs);
                if let Some(m) = modifier {
                    instr = instr.with_mod(m);
                }
                if guarded {
                    instr = instr.with_pred(Predicate::pos(p0));
                }
                for l in 0..WARP_LANES {
                    w.write_reg(l, r(4), SENTINEL);
                }
                let before = w.regs.clone();
                let res = execute(&mut w, &instr, None, &mut cx).unwrap();
                assert_eq!(res.outcome, Outcome::Next);
                assert!(res.mem.is_none());
                if dst.is_zero() {
                    assert_eq!(w.regs, before, "{instr}: an RZ destination writes nothing");
                    continue;
                }
                for (l, got) in w.regs[dst.index() as usize].into_iter().enumerate() {
                    if guarded && GUARD & (1 << l) == 0 {
                        assert_eq!(got, SENTINEL, "{instr}: lane {l} is guarded off");
                        continue;
                    }
                    let [a, b, c] = from.map(|f| match f {
                        From::Row(n) => before[n as usize][l],
                        From::FImm(v) => std::hint::black_box(v as f32).to_bits(),
                        From::Bank0(offset) => special(offset as usize / 4),
                    });
                    let want = scalar(f32v(a), f32v(b), f32v(c));
                    // Which of several distinct NaN operands survives
                    // is the one thing an operand order may decide.
                    let mut nans: Vec<u32> =
                        [a, b, c][..nsrc].iter().copied().filter(|v| f32v(*v).is_nan()).collect();
                    nans.dedup();
                    if nans.len() > 1 {
                        assert!(f32v(got).is_nan(), "{instr}: lane {l} of NaNs {nans:x?}");
                    } else {
                        assert_eq!(
                            got,
                            want.to_bits(),
                            "{instr}: lane {l}, operands {a:#x} {b:#x} {c:#x}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn f64_demotion_roundtrip() {
    let (mut w, mut g, mut s, c) = setup();
    let mut cx = ctx(&mut g, &mut s, &c);
    // Write 2.5f32, promote to f64, demote back.
    for l in 0..32 {
        w.write_reg(l, r(1), 2.5f32.to_bits());
    }
    let promote =
        Instruction::new(Opcode::F2f, vec![Operand::RegPair(r(4))], vec![Operand::Reg(r(1))])
            .with_mod(Modifier::F64)
            .with_mod(Modifier::F32);
    execute(&mut w, &promote, None, &mut cx).unwrap();
    assert_eq!(f64::from_bits(w.read_pair(7, r(4))), 2.5);
    let demote =
        Instruction::new(Opcode::F2f, vec![Operand::Reg(r(6))], vec![Operand::RegPair(r(4))])
            .with_mod(Modifier::F32)
            .with_mod(Modifier::F64);
    execute(&mut w, &demote, None, &mut cx).unwrap();
    assert_eq!(f32::from_bits(w.read_reg(7, r(6))), 2.5);
}

#[test]
fn guarded_execution_skips_lanes() {
    let (mut w, mut g, mut s, c) = setup();
    let mut cx = ctx(&mut g, &mut s, &c);
    let p0 = PredReg::new(0).unwrap();
    for l in 0..16 {
        w.write_pred(l, p0, true);
    }
    let mov = Instruction::new(Opcode::Mov32i, vec![Operand::Reg(r(0))], vec![Operand::Imm(9)])
        .with_pred(Predicate::pos(p0));
    execute(&mut w, &mov, None, &mut cx).unwrap();
    assert_eq!(w.read_reg(3, r(0)), 9);
    assert_eq!(w.read_reg(20, r(0)), 0, "lane 20 guarded off");
}

#[test]
fn global_load_store_and_coalescing_addresses() {
    let (mut w, mut g, mut s, c) = setup();
    let base = g.alloc(4096);
    for l in 0..32 {
        w.write_pair(l, r(2), base + l as u64 * 4);
        w.write_reg(l, r(0), 100 + l as u32);
    }
    let mut cx = ctx(&mut g, &mut s, &c);
    let stg = Instruction::new(
        Opcode::Stg,
        vec![],
        vec![Operand::Mem(MemRef { base: r(2), offset: 0, wide: true }), Operand::Reg(r(0))],
    )
    .with_mod(Modifier::E)
    .with_mod(Modifier::Sz32);
    let res = execute(&mut w, &stg, None, &mut cx).unwrap();
    let mem = res.mem.unwrap();
    assert!(mem.store);
    assert_eq!(mem.addrs().len(), 32);
    assert_eq!(g.read_u32(base + 4 * 31), 131);

    let mut cx = ctx(&mut g, &mut s, &c);
    let ldg = Instruction::new(
        Opcode::Ldg,
        vec![Operand::Reg(r(5))],
        vec![Operand::Mem(MemRef { base: r(2), offset: 0, wide: true })],
    );
    execute(&mut w, &ldg, None, &mut cx).unwrap();
    assert_eq!(w.read_reg(31, r(5)), 131);
}

#[test]
fn shared_and_local_memory() {
    let (mut w, mut g, mut s, c) = setup();
    for l in 0..32 {
        w.write_reg(l, r(1), l as u32 * 4);
        w.write_reg(l, r(0), l as u32 + 7);
    }
    let mut cx = ctx(&mut g, &mut s, &c);
    let sts = Instruction::new(
        Opcode::Sts,
        vec![],
        vec![Operand::Mem(MemRef { base: r(1), offset: 0, wide: false }), Operand::Reg(r(0))],
    );
    execute(&mut w, &sts, None, &mut cx).unwrap();
    let mut cx = ctx(&mut g, &mut s, &c);
    let lds = Instruction::new(
        Opcode::Lds,
        vec![Operand::Reg(r(3))],
        vec![Operand::Mem(MemRef { base: r(1), offset: 0, wide: false })],
    );
    execute(&mut w, &lds, None, &mut cx).unwrap();
    assert_eq!(w.read_reg(9, r(3)), 16);

    // Local spill: each lane sees private storage.
    let mut cx = ctx(&mut g, &mut s, &c);
    let stl = Instruction::new(
        Opcode::Stl,
        vec![],
        vec![
            Operand::Mem(MemRef { base: Register::ZERO, offset: 16, wide: false }),
            Operand::Reg(r(0)),
        ],
    );
    execute(&mut w, &stl, None, &mut cx).unwrap();
    let mut cx = ctx(&mut g, &mut s, &c);
    let ldl = Instruction::new(
        Opcode::Ldl,
        vec![Operand::Reg(r(4))],
        vec![Operand::Mem(MemRef { base: Register::ZERO, offset: 16, wide: false })],
    );
    execute(&mut w, &ldl, None, &mut cx).unwrap();
    assert_eq!(w.read_reg(0, r(4)), 7);
    assert_eq!(w.read_reg(10, r(4)), 17, "lane-private local memory");
}

#[test]
fn divergent_branch_pushes_stack() {
    let (mut w, mut g, mut s, c) = setup();
    let mut cx = ctx(&mut g, &mut s, &c);
    let p0 = PredReg::new(0).unwrap();
    for l in 0..8 {
        w.write_pred(l, p0, true);
    }
    w.pc = 0x1000;
    let bra = Instruction::new(Opcode::Bra, vec![], vec![Operand::Imm(0x1100)])
        .with_pred(Predicate::pos(p0));
    let res = execute(&mut w, &bra, Some(0x1200), &mut cx).unwrap();
    assert_eq!(res.outcome, Outcome::Jump(0x1100));
    assert_eq!(w.active, 0xFF);
    assert_eq!(w.div_stack.len(), 1);
    assert_eq!(w.div_stack[0].else_pc, 0x1010);
    assert_eq!(w.div_stack[0].else_mask, !0xFFu32);
}

#[test]
fn uniform_branch_does_not_diverge() {
    let (mut w, mut g, mut s, c) = setup();
    let mut cx = ctx(&mut g, &mut s, &c);
    w.pc = 0x1000;
    let bra = Instruction::new(Opcode::Bra, vec![], vec![Operand::Imm(0x1040)]);
    let res = execute(&mut w, &bra, None, &mut cx).unwrap();
    assert_eq!(res.outcome, Outcome::Jump(0x1040));
    assert!(w.div_stack.is_empty());
}

#[test]
fn special_registers() {
    let (mut w, mut g, mut s, c) = setup();
    let mut cx = ctx(&mut g, &mut s, &c);
    let s2r = Instruction::new(
        Opcode::S2r,
        vec![Operand::Reg(r(0))],
        vec![Operand::SReg(gpa_isa::SpecialReg::TidX)],
    );
    execute(&mut w, &s2r, None, &mut cx).unwrap();
    assert_eq!(w.read_reg(13, r(0)), 13);
    let s2r2 = Instruction::new(
        Opcode::S2r,
        vec![Operand::Reg(r(1))],
        vec![Operand::SReg(gpa_isa::SpecialReg::CtaIdX)],
    );
    execute(&mut w, &s2r2, None, &mut cx).unwrap();
    assert_eq!(w.read_reg(0, r(1)), 3);
}

#[test]
fn atomics_accumulate() {
    let (mut w, mut g, mut s, c) = setup();
    let base = g.alloc(64);
    for l in 0..32 {
        w.write_pair(l, r(2), base); // all lanes hit the same address
        w.write_reg(l, r(0), 1);
    }
    let mut cx = ctx(&mut g, &mut s, &c);
    let atom = Instruction::new(
        Opcode::AtomG,
        vec![Operand::Reg(r(4))],
        vec![Operand::Mem(MemRef { base: r(2), offset: 0, wide: true }), Operand::Reg(r(0))],
    );
    execute(&mut w, &atom, None, &mut cx).unwrap();
    assert_eq!(g.read_u32(base), 32, "32 lanes each added 1");
    assert_eq!(w.read_reg(0, r(4)), 0);
    assert_eq!(w.read_reg(31, r(4)), 31, "serialized lane order");
}

/// `[RZ-4]` wraps to the top of the address space; `addr + width` used
/// to overflow (debug) or pass the limit check wrapped and index out
/// of bounds (release). Every shared and local access must fault.
#[test]
fn negative_offsets_from_rz_fault_instead_of_panicking() {
    let below = Operand::Mem(MemRef { base: Register::ZERO, offset: -4, wide: false });
    let load = |op| Instruction::new(op, vec![Operand::Reg(r(1))], vec![below]);
    let store = |op| Instruction::new(op, vec![], vec![below, Operand::Reg(r(0))]);
    let atoms =
        Instruction::new(Opcode::AtomS, vec![Operand::Reg(r(1))], vec![below, Operand::Reg(r(0))]);
    let cases = [
        (load(Opcode::Lds), "shared-memory access at 0xffffffffffffffff exceeds 96 KiB"),
        (store(Opcode::Sts), "shared-memory access at 0xffffffffffffffff exceeds 96 KiB"),
        (atoms, "shared-memory access at 0xffffffffffffffff exceeds 96 KiB"),
        (load(Opcode::Ldl), "local-memory access at 0xffffffffffffffff exceeds 64 KiB"),
        (store(Opcode::Stl), "local-memory access at 0xffffffffffffffff exceeds 64 KiB"),
    ];
    for (instr, message) in cases {
        let (mut w, mut g, mut s, c) = setup();
        w.pc = 0x40;
        let mut cx = ctx(&mut g, &mut s, &c);
        let err = execute(&mut w, &instr, None, &mut cx).unwrap_err();
        assert_eq!(err, fault(0x40, message), "{instr}");
        assert!(s.is_empty(), "{instr}: shared memory must not grow on the way to the fault");
    }
    // The last in-range word is still fine, and one byte further is the
    // fault it always was.
    let (mut w, mut g, mut s, c) = setup();
    let mut cx = ctx(&mut g, &mut s, &c);
    let at = |offset| {
        let m = Operand::Mem(MemRef { base: Register::ZERO, offset, wide: false });
        Instruction::new(Opcode::Lds, vec![Operand::Reg(r(1))], vec![m])
    };
    execute(&mut w, &at(96 * 1024 - 4), None, &mut cx).unwrap();
    let err = execute(&mut w, &at(96 * 1024 - 3), None, &mut cx).unwrap_err();
    assert_eq!(err, fault(0, "shared-memory access at 0x18001 exceeds 96 KiB"));
}

/// A malformed operand is found when the program is lowered but
/// raised when the instruction issues with a lane to execute — with
/// the message the executor gave when it decoded at issue time. A
/// missing operand is a fault too, not an index panic.
#[test]
fn lowering_faults_are_raised_at_issue() {
    let p0 = PredReg::new(0).unwrap();
    let pred = Operand::Pred(p0);
    let cases = [
        (
            Instruction::new(Opcode::Iadd, vec![pred], vec![Operand::Imm(1), Operand::Imm(2)]),
            "IADD missing register destination".to_string(),
        ),
        (
            Instruction::new(Opcode::Iadd, vec![Operand::Reg(r(0))], vec![Operand::Imm(1), pred]),
            format!("operand {pred:?} is not a 32-bit source"),
        ),
        (
            Instruction::new(
                Opcode::Dadd,
                vec![Operand::RegPair(r(0))],
                vec![Operand::SReg(SpecialReg::TidX), Operand::Imm(2)],
            ),
            format!("operand {:?} is not a 64-bit source", Operand::SReg(SpecialReg::TidX)),
        ),
        (
            Instruction::new(Opcode::Iadd, vec![Operand::Reg(r(0))], vec![Operand::Imm(1)]),
            "IADD missing source operand 1".to_string(),
        ),
        (
            Instruction::new(Opcode::Isetp, vec![], vec![Operand::Imm(1), Operand::Imm(2)]),
            "ISETP needs a predicate destination".to_string(),
        ),
        (
            Instruction::new(Opcode::Mufu, vec![Operand::Reg(r(0))], vec![Operand::Reg(r(1))]),
            "MUFU needs a function modifier".to_string(),
        ),
        (
            Instruction::new(Opcode::Ldg, vec![Operand::Reg(r(0))], vec![]),
            "load needs a memory operand".to_string(),
        ),
        (
            Instruction::new(
                Opcode::Sts,
                vec![],
                vec![Operand::Mem(MemRef { base: r(1), offset: 0, wide: false })],
            ),
            "STS needs a data operand".to_string(),
        ),
        (
            Instruction::new(Opcode::AtomG, vec![Operand::Reg(r(0))], vec![Operand::Reg(r(1))]),
            "ATOMG needs a memory operand".to_string(),
        ),
        // A 64-bit result needs both halves of its destination spelled:
        // the register file and the scoreboard go by the spelling.
        (
            Instruction::new(
                Opcode::Ldg,
                vec![Operand::Reg(r(8))],
                vec![Operand::Mem(MemRef { base: r(2), offset: 0, wide: true })],
            )
            .with_mod(Modifier::E)
            .with_mod(Modifier::Sz64),
            "LDG writes 64 bits and needs a register-pair destination".to_string(),
        ),
        (
            Instruction::new(Opcode::F2f, vec![Operand::Reg(r(8))], vec![Operand::Reg(r(2))])
                .with_mod(Modifier::F64)
                .with_mod(Modifier::F32),
            "F2F writes 64 bits and needs a register-pair destination".to_string(),
        ),
        (
            Instruction::new(Opcode::I2f, vec![Operand::Reg(r(8))], vec![Operand::Reg(r(2))])
                .with_mod(Modifier::F64),
            "I2F writes 64 bits and needs a register-pair destination".to_string(),
        ),
        (
            Instruction::new(
                Opcode::Dadd,
                vec![Operand::Reg(r(8))],
                vec![Operand::Reg(r(2)), Operand::Reg(r(3))],
            ),
            "DADD writes 64 bits and needs a register-pair destination".to_string(),
        ),
        (
            Instruction::new(
                Opcode::Imad,
                vec![Operand::Reg(r(8))],
                vec![Operand::Reg(r(2)), Operand::Reg(r(3)), Operand::Reg(r(2))],
            )
            .with_mod(Modifier::Wide),
            "IMAD writes 64 bits and needs a register-pair destination".to_string(),
        ),
    ];
    for (instr, message) in cases {
        let (mut w, mut g, mut s, c) = setup();
        w.pc = 0x80;
        let mut cx = ctx(&mut g, &mut s, &c);
        let err = execute(&mut w, &instr, None, &mut cx).unwrap_err();
        assert_eq!(err, fault(0x80, message), "{instr}");
        // Guarded off for every lane it issues without effect, as it
        // always did: the fault belongs to a lane that executes.
        let off = instr.clone().with_pred(Predicate::pos(p0));
        let outcome = execute(&mut w, &off, None, &mut cx).unwrap().outcome;
        assert_eq!(outcome, Outcome::Next, "{off}");
    }
}

/// The row `FFMA`/`DFMA` run where the CPU has FMA (`row3_fma`, through
/// `fused`) against the row they run everywhere else and ran before —
/// plain `row3` of the same scalar `mul_add` — on every triple in
/// `triples`, 32 to a row, under a full mask and three partial ones.
/// The two leave the whole register file identical, bit for bit; only
/// where a lane has several distinct NaN operands may the NaN that
/// survives differ (it is the operand order the compiler picked).
fn fused_row_matches_the_plain_row<T: Word + PartialEq + std::fmt::Debug>(
    triples: &[[T; 3]],
    mul_add: impl Fn(T, T, T) -> T + Copy,
    is_nan: impl Fn(T) -> bool,
) {
    const MASKS: [u32; 4] = [u32::MAX, 0x0000_ffff, 0xa5a5_5a5a, 1 << 31];
    let (mut g, mut s, c) = (GlobalMem::new(), Vec::new(), ConstMem::new());
    let cx = ctx(&mut g, &mut s, &c);
    let srcs = [Src::Pair(r(2)), Src::Pair(r(4)), Src::Pair(r(6))];
    for row in triples.chunks(WARP_LANES) {
        let operand = |i: usize| std::array::from_fn(|l| row[l % row.len()][i]);
        let operands: [[T; WARP_LANES]; 3] = [operand(0), operand(1), operand(2)];
        for mask in MASKS {
            let run = |fast: bool| {
                let mut w = WarpState::new(0, 0, 0, 0, 32, 12);
                w.regs.iter_mut().flatten().for_each(|v| *v = 0xdead_beef);
                for (i, operand) in operands.iter().enumerate() {
                    T::store(&mut w, r(2 + 2 * i as u8), u32::MAX, operand);
                }
                match fast {
                    true => fused(&mut w, r(8), mask, srcs, &cx, mul_add),
                    false => row3(&mut w, r(8), mask, srcs, &cx, mul_add),
                }
                w
            };
            let (mut plain, mut fast) = (run(false), run(true));
            let result = |w: &WarpState| T::fill(w, Src::Pair(r(8)), &cx);
            let (plain_row, fast_row) = (result(&plain), result(&fast));
            for l in (0..WARP_LANES).filter(|l| mask & (1 << l) != 0) {
                let [a, b, c] = [operands[0][l], operands[1][l], operands[2][l]];
                assert_eq!(plain_row[l], mul_add(a, b, c), "the plain row is the scalar op");
                let mut nans: Vec<T> = [a, b, c].into_iter().filter(|v| is_nan(*v)).collect();
                nans.dedup();
                if nans.len() > 1 {
                    assert!(is_nan(plain_row[l]) && is_nan(fast_row[l]), "{a:x?} {b:x?} {c:x?}");
                    for w in [&mut plain, &mut fast] {
                        (w.regs[8][l], w.regs[9][l]) = (0, 0);
                    }
                } else {
                    assert_eq!(fast_row[l], plain_row[l], "lane {l}: {a:x?} * {b:x?} + {c:x?}");
                }
            }
            assert_eq!(fast.regs, plain.regs, "nothing else moves, under mask {mask:#x}");
        }
    }
}

/// All triples over `specials`, then `random` triples of seeded random
/// bit patterns (an LCG's high bits).
fn fma_triples<T: Copy>(specials: &[T; 16], mut random: impl FnMut() -> T) -> Vec<[T; 3]> {
    let mut triples = Vec::new();
    for a in specials {
        for b in specials {
            triples.extend(specials.iter().map(|c| [*a, *b, *c]));
        }
    }
    triples.extend((0..100_032).map(|_| [random(), random(), random()]));
    triples
}

#[test]
fn the_fma_row_equals_scalar_mul_add_bit_for_bit() {
    #[cfg(target_arch = "x86_64")]
    if !std::arch::is_x86_feature_detected!("fma") {
        println!("no FMA on this CPU: `fused` runs the plain row, which this compares with itself");
    }
    // The values `fp32_arithmetic_matches_scalar_std_ops_bit_for_bit`
    // explains, and their binary64 counterparts.
    const F32: [u32; 16] = [
        0x7fc0_1234,
        0xff80_0001,
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x0080_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7f7f_ffff,
        0x3f80_0000,
        0xbf80_0000,
        0x3f80_0001,
        0x3f80_0002,
        0x4049_0fdb,
        0xc2f6_e979,
    ];
    const F64: [u64; 16] = [
        0x7ff8_0000_0000_1234,
        0xfff0_0000_0000_0001,
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x0010_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7fef_ffff_ffff_ffff,
        0x3ff0_0000_0000_0000,
        0xbff0_0000_0000_0000,
        0x3ff0_0000_0000_0001,
        0x3ff0_0000_0000_0002,
        0x4009_21fb_5444_2d18,
        0xc05e_dd2f_1a9f_be77,
    ];
    let mut state = 0x6770_612d_666d_6100u64;
    let mut draw = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 32) as u32
    };
    fused_row_matches_the_plain_row(
        &fma_triples(&F32, &mut draw),
        |a: u32, b: u32, c: u32| f32v(a).mul_add(f32v(b), f32v(c)).to_bits(),
        |v| f32v(v).is_nan(),
    );
    fused_row_matches_the_plain_row(
        &fma_triples(&F64, || (draw() as u64) << 32 | draw() as u64),
        |a: u64, b: u64, c: u64| f64v(a).mul_add(f64v(b), f64v(c)).to_bits(),
        |v| f64v(v).is_nan(),
    );
}
