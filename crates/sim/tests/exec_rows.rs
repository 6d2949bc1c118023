//! The executor's generic rows against a scalar per-lane reference.
//!
//! Every arithmetic arm of `execute` runs its closure through `row1`,
//! `row2`, `row3` or `setp`, generic over the width of each source and
//! of the result. This drives each arm — each opcode under the modifiers
//! it tests — through the public executor and checks that a row is
//! lane-local: lanes that execute hold what a scalar reference computes,
//! and nothing else moves.

use gpa_isa::{
    Instruction, MemRef, Modifier, Opcode, Operand, PredReg, Predicate, Register, SpecialReg,
};
use gpa_sim::exec::{execute, ExecCtx, MemAccess, Outcome};
use gpa_sim::mem::{ConstMem, GlobalMem};
use gpa_sim::program::Plan;
use gpa_sim::warp::{WarpState, WARP_LANES};
use gpa_sim::SimError;

fn r(n: u8) -> Register {
    Register::from_u8(n)
}

/// Deterministic operand bits: the high word of a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 32) as u32
    }

    /// A draw, every fourth one replaced by a value where integer or
    /// floating-point arithmetic has an edge (as a word, or as the upper
    /// half of a pair).
    fn operand(&mut self) -> u32 {
        const EDGES: [u32; 16] = [
            0,
            1,
            2,
            31,
            32,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_ffff,
            0x3f80_0000,
            0xc020_0000,
            0x7f80_0000,
            0x7fc0_0001,
            0x3ff0_0000,
            0x7ff0_0000,
            0xfff8_0000,
            0x0000_0400,
        ];
        let v = self.next();
        if v.is_multiple_of(4) {
            EDGES[(v / 4) as usize % EDGES.len()]
        } else {
            self.next()
        }
    }
}

/// How one source of an [`Arm`] is spelled.
#[derive(Clone, Copy)]
enum Want {
    /// Anything a 32-bit source may be.
    N,
    /// Anything a 64-bit source may be.
    W,
    /// A special register (`S2R`).
    Sr,
    /// A predicate (`SEL`'s selector).
    Pr,
    /// An immediate shift count below 32 (`LEA`).
    Sh,
}

/// Where an [`Arm`]'s result goes, and how it compares.
#[derive(Clone, Copy, PartialEq)]
enum Out {
    R32,
    R64,
    /// A register or pair holding a float: when the reference is a NaN,
    /// any NaN will do — which of several NaN operands survives is the
    /// one thing the compiler's operand order may decide.
    F32,
    F64,
    Pred,
}

/// One arithmetic arm of `execute`: an opcode under the modifiers it
/// tests, and what it computes for one lane from its sources, each
/// zero-extended (a predicate result is 0 or 1).
struct Arm {
    opcode: Opcode,
    mods: Vec<Modifier>,
    srcs: Vec<Want>,
    out: Out,
    eval: Box<dyn Fn([u64; 3]) -> u64>,
}

fn arms() -> Vec<Arm> {
    use Modifier as M;
    use Opcode::*;
    use Out::*;
    use Want::*;
    let f = |bits: u64| f32::from_bits(bits as u32);
    let d = f64::from_bits;
    let s = |bits: u64| bits as u32 as i32;
    let mut arms = Vec::new();
    let mut arm = |opcode, mods: &[M], srcs: &[Want], out, eval: Box<dyn Fn([u64; 3]) -> u64>| {
        arms.push(Arm { opcode, mods: mods.to_vec(), srcs: srcs.to_vec(), out, eval });
    };
    for op in [Mov, Mov32i, I2i] {
        arm(op, &[], &[N], R32, Box::new(|[a, ..]| a));
        arm(op, &[], &[W], R64, Box::new(|[a, ..]| a));
    }
    arm(S2r, &[], &[Sr], R32, Box::new(|[a, ..]| a));
    arm(Cs2r, &[], &[Sr], R32, Box::new(|[a, ..]| a));
    arm(Iadd, &[], &[N, N], R32, Box::new(|[a, b, _]| a.wrapping_add(b)));
    arm(Iadd, &[], &[W, W], R64, Box::new(|[a, b, _]| a.wrapping_add(b)));
    arm(Iadd3, &[], &[N, N, N], R32, Box::new(|[a, b, c]| a + b + c));
    arm(Imad, &[], &[N, N, N], R32, Box::new(|[a, b, c]| a * b + c));
    arm(Imad, &[M::Wide], &[N, N, W], R64, Box::new(|[a, b, c]| (a * b).wrapping_add(c)));
    arm(
        Imad,
        &[M::Wide, M::S32],
        &[N, N, W],
        R64,
        Box::new(move |[a, b, c]| ((s(a) as i64).wrapping_mul(s(b) as i64) as u64).wrapping_add(c)),
    );
    arm(Imul, &[], &[N, N], R32, Box::new(|[a, b, _]| a * b));
    arm(Lea, &[], &[N, N, Sh], R32, Box::new(|[a, b, c]| b + (a << c)));
    arm(Lea, &[], &[N, W, Sh], R64, Box::new(|[a, b, c]| b.wrapping_add(a << c)));
    arm(Lop3, &[], &[N, N], R32, Box::new(|[a, b, _]| a & b));
    arm(Lop3, &[M::And], &[N, N], R32, Box::new(|[a, b, _]| a & b));
    arm(Lop3, &[M::Or], &[N, N], R32, Box::new(|[a, b, _]| a | b));
    arm(Lop3, &[M::Xor], &[N, N], R32, Box::new(|[a, b, _]| a ^ b));
    let left = |[a, b, _]: [u64; 3]| a << (b & 31);
    let right = |[a, b, _]: [u64; 3]| a >> (b & 31);
    let arith = move |[a, b, _]: [u64; 3]| (s(a) >> (b & 31)) as u32 as u64;
    arm(Shl, &[], &[N, N], R32, Box::new(left));
    arm(Shr, &[], &[N, N], R32, Box::new(right));
    arm(Shr, &[M::S32], &[N, N], R32, Box::new(arith));
    arm(Shf, &[], &[N, N], R32, Box::new(left));
    arm(Shf, &[M::L], &[N, N], R32, Box::new(left));
    arm(Shf, &[M::R], &[N, N], R32, Box::new(right));
    arm(Shf, &[M::R, M::S32], &[N, N], R32, Box::new(arith));
    arm(Imnmx, &[], &[N, N], R32, Box::new(move |[a, b, _]| s(a).min(s(b)) as u32 as u64));
    arm(Imnmx, &[M::Gt], &[N, N], R32, Box::new(move |[a, b, _]| s(a).max(s(b)) as u32 as u64));
    arm(Imnmx, &[M::U32], &[N, N], R32, Box::new(|[a, b, _]| a.min(b)));
    arm(Imnmx, &[M::U32, M::Gt], &[N, N], R32, Box::new(|[a, b, _]| a.max(b)));
    arm(Iabs, &[], &[N], R32, Box::new(move |[a, ..]| s(a).unsigned_abs() as u64));
    arm(Popc, &[], &[N], R32, Box::new(|[a, ..]| a.count_ones() as u64));
    arm(Sel, &[], &[N, N, Pr], R32, Box::new(|[a, b, p]| if p != 0 { a } else { b }));
    arm(
        Prmt,
        &[],
        &[N, N, N],
        R32,
        Box::new(|[a, b, sel]| {
            let pool = (b << 32 | a).to_le_bytes();
            u32::from_le_bytes([0, 4, 8, 12].map(|i| pool[(sel >> i & 7) as usize])) as u64
        }),
    );
    arm(Fadd, &[], &[N, N], F32, Box::new(move |[a, b, _]| (f(a) + f(b)).to_bits() as u64));
    arm(Fmul, &[], &[N, N], F32, Box::new(move |[a, b, _]| (f(a) * f(b)).to_bits() as u64));
    arm(
        Ffma,
        &[],
        &[N, N, N],
        F32,
        Box::new(move |[a, b, c]| f(a).mul_add(f(b), f(c)).to_bits() as u64),
    );
    arm(Fmnmx, &[], &[N, N], F32, Box::new(move |[a, b, _]| f(a).min(f(b)).to_bits() as u64));
    arm(Fmnmx, &[M::Gt], &[N, N], F32, Box::new(move |[a, b, _]| f(a).max(f(b)).to_bits() as u64));
    type Mufu = fn(f32) -> f32;
    let functions: [(M, Mufu); 7] = [
        (M::Rcp, |a| 1.0 / a),
        (M::Rsq, |a| 1.0 / a.sqrt()),
        (M::Sqrt, f32::sqrt),
        (M::Sin, f32::sin),
        (M::Cos, f32::cos),
        (M::Ex2, f32::exp2),
        (M::Lg2, f32::log2),
    ];
    for (m, func) in functions {
        arm(Mufu, &[m], &[N], F32, Box::new(move |[a, ..]| func(f(a)).to_bits() as u64));
    }
    arm(Dadd, &[], &[W, W], F64, Box::new(move |[a, b, _]| (d(a) + d(b)).to_bits()));
    arm(Dmul, &[], &[W, W], F64, Box::new(move |[a, b, _]| (d(a) * d(b)).to_bits()));
    arm(Dfma, &[], &[W, W, W], F64, Box::new(move |[a, b, c]| d(a).mul_add(d(b), d(c)).to_bits()));
    // Comparisons: an unordered float pair counts as "greater".
    use std::cmp::Ordering::{self, *};
    type Holds = fn(Ordering) -> bool;
    let cmps: [(M, Holds); 6] = [
        (M::Lt, |o| o == Less),
        (M::Le, |o| o != Greater),
        (M::Gt, |o| o == Greater),
        (M::Ge, |o| o != Less),
        (M::Eq, |o| o == Equal),
        (M::Ne, |o| o != Equal),
    ];
    for (m, holds) in cmps {
        arm(
            Isetp,
            &[m, M::And],
            &[N, N],
            Pred,
            Box::new(move |[a, b, _]| holds(s(a).cmp(&s(b))) as u64),
        );
        arm(Isetp, &[m, M::U32], &[N, N], Pred, Box::new(move |[a, b, _]| holds(a.cmp(&b)) as u64));
        arm(
            Fsetp,
            &[m],
            &[N, N],
            Pred,
            Box::new(move |[a, b, _]| holds(f(a).partial_cmp(&f(b)).unwrap_or(Greater)) as u64),
        );
        arm(
            Dsetp,
            &[m],
            &[W, W],
            Pred,
            Box::new(move |[a, b, _]| holds(d(a).partial_cmp(&d(b)).unwrap_or(Greater)) as u64),
        );
    }
    // Conversions; the modifier order is [dst, src].
    arm(F2f, &[M::F64, M::F32], &[N], F64, Box::new(move |[a, ..]| (f(a) as f64).to_bits()));
    arm(F2f, &[M::F32, M::F64], &[W], F32, Box::new(move |[a, ..]| (d(a) as f32).to_bits() as u64));
    arm(F2i, &[M::S32, M::F32], &[N], R32, Box::new(move |[a, ..]| f(a) as i32 as u32 as u64));
    arm(F2i, &[M::S32, M::F64], &[W], R32, Box::new(move |[a, ..]| d(a) as i32 as u32 as u64));
    arm(I2f, &[M::F32, M::S32], &[N], F32, Box::new(move |[a, ..]| (s(a) as f32).to_bits() as u64));
    arm(I2f, &[M::F64, M::S32], &[N], F64, Box::new(move |[a, ..]| (s(a) as f64).to_bits()));
    arms
}

/// Every arithmetic arm of `execute` that goes through the generic rows
/// (`SHFL` and `VOTE` read across lanes and do not), against a scalar
/// per-lane reference: 64 operand rows under four exec masks, sources
/// spelled as registers, pairs, immediates, `c[0][..]` and a special
/// register, destinations that alias sources or are `RZ`/`PT`. Lanes that
/// execute hold the reference value — both halves of a pair — and every
/// other lane, register and predicate is untouched.
#[test]
fn arithmetic_rows_are_lane_local_and_match_a_scalar_reference() {
    const NREGS: usize = 12;
    const MASKS: [u32; 4] = [u32::MAX, 1 << 13, 0xaaaa_aaaa, 0];
    let (p0, p1, p2) =
        (PredReg::new(0).unwrap(), PredReg::new(1).unwrap(), PredReg::new(2).unwrap());
    let arms = arms();
    let mut rng = Lcg(0x6770_612d_7369_6d00);
    let (mut g, mut s) = (GlobalMem::new(), Vec::new());
    for _row in 0..64 {
        // 64 bytes a source may read, and 8 more so that the reference
        // can always fetch a whole pair.
        let bank: Vec<u8> = (0..18).flat_map(|_| rng.operand().to_le_bytes()).collect();
        let mut c = ConstMem::new();
        c.set_bank(0, bank.clone());
        let mut cx = ExecCtx {
            global: &mut g,
            smem: &mut s,
            consts: &c,
            block_id: 3,
            grid_blocks: 8,
            block_threads: 64,
        };
        let mut w = WarpState::new(0, 0, 0, 0, 32, NREGS);
        let mut regs = vec![[0u32; WARP_LANES]; NREGS];
        regs.iter_mut().flatten().for_each(|v| *v = rng.operand());
        for (arm, mask) in arms.iter().flat_map(|arm| MASKS.map(|mask| (arm, mask))) {
            let srcs: Vec<Operand> = (arm.srcs.iter())
                .map(|want| match (want, rng.next() % 6) {
                    (Want::N, 0 | 1) | (Want::W, 2) => Operand::Reg(r(rng.next() as u8 % 10)),
                    (Want::N, 2) | (Want::W, 0 | 1) => Operand::RegPair(r(rng.next() as u8 % 10)),
                    (Want::N, 3) => Operand::Imm(rng.operand() as i32 as i64),
                    (Want::W, 3) => {
                        Operand::Imm(((rng.operand() as i64) << 32) | rng.next() as i64)
                    }
                    (Want::N | Want::W, 4) => {
                        Operand::CMem { bank: 0, offset: 4 * (rng.next() % 15) as u16 }
                    }
                    (Want::N, _) | (Want::Sr, _) => Operand::SReg(SpecialReg::LaneId),
                    (Want::W, _) => Operand::RegPair(Register::ZERO),
                    (Want::Pr, _) => Operand::Pred(p1),
                    (Want::Sh, _) => Operand::Imm((rng.next() % 32) as i64),
                })
                .collect();
            let drop_write = rng.next().is_multiple_of(8);
            let d = if drop_write { Register::ZERO } else { r(rng.next() as u8 % 11) };
            let dst = match arm.out {
                Out::R32 | Out::F32 => Operand::Reg(d),
                Out::R64 | Out::F64 => Operand::RegPair(d),
                Out::Pred => Operand::Pred(if drop_write { PredReg::TRUE } else { p2 }),
            };
            let mut instr = Instruction::new(arm.opcode, vec![dst], srcs.clone());
            for &m in &arm.mods {
                instr = instr.with_mod(m);
            }
            if mask != u32::MAX {
                instr = instr.with_pred(Predicate::pos(p0));
            }
            w.regs.clone_from(&regs);
            w.preds = [mask, rng.next(), rng.next(), 0, 0, 0, 0];
            let mut want_preds = w.preds;
            let mut want = regs.clone();

            let mut access = MemAccess::new();
            let res = execute(&mut w, &Plan::lower(&instr), None, &mut cx, &mut access).unwrap();
            assert_eq!(res.outcome, Outcome::Next, "{instr}");
            assert!(res.mem.is_none(), "{instr}");

            for l in (0..WARP_LANES).filter(|l| mask & (1 << l) != 0) {
                let reg = |r: Register| if r.is_zero() { 0 } else { regs[r.index() as usize][l] };
                let mut vals = [0u64; 3];
                for ((val, op), wide) in vals.iter_mut().zip(&srcs).zip(&arm.srcs) {
                    let v = match *op {
                        Operand::Reg(r) => reg(r) as u64,
                        Operand::RegPair(r) => reg(r) as u64 | (reg(r.pair_hi()) as u64) << 32,
                        Operand::Imm(v) => v as u64,
                        Operand::CMem { offset, .. } => {
                            let at = offset as usize;
                            u64::from_le_bytes(bank[at..at + 8].try_into().unwrap())
                        }
                        Operand::SReg(_) => l as u64,
                        Operand::Pred(p) => (want_preds[p.index() as usize] >> l & 1) as u64,
                        _ => unreachable!(),
                    };
                    *val = if matches!(wide, Want::W) { v } else { v as u32 as u64 };
                }
                let v = (arm.eval)(vals);
                match arm.out {
                    Out::Pred if drop_write => {}
                    Out::Pred => want_preds[2] = want_preds[2] & !(1 << l) | (v as u32) << l,
                    _ if drop_write => {}
                    Out::R32 | Out::F32 => want[d.index() as usize][l] = v as u32,
                    Out::R64 | Out::F64 => {
                        want[d.index() as usize][l] = v as u32;
                        want[d.index() as usize + 1][l] = (v >> 32) as u32;
                    }
                }
                // A NaN reference admits any NaN.
                let got = |i: usize| w.regs[d.index() as usize + i][l];
                if !drop_write && arm.out == Out::F32 && f32::from_bits(v as u32).is_nan() {
                    assert!(f32::from_bits(got(0)).is_nan(), "{instr}: lane {l} of {vals:x?}");
                    want[d.index() as usize][l] = got(0);
                }
                if !drop_write && arm.out == Out::F64 && f64::from_bits(v).is_nan() {
                    let pair = got(0) as u64 | (got(1) as u64) << 32;
                    assert!(f64::from_bits(pair).is_nan(), "{instr}: lane {l} of {vals:x?}");
                    (want[d.index() as usize][l], want[d.index() as usize + 1][l]) =
                        (got(0), got(1));
                }
            }
            for (n, (got, want)) in w.regs.iter().zip(&want).enumerate() {
                assert_eq!(got, want, "{instr}: R{n} under mask {mask:#x}");
            }
            assert_eq!(w.preds, want_preds, "{instr}: predicates under mask {mask:#x}");
        }
    }
}

/// One instruction under guard `P0`, run once per mask in `masks` on a
/// copy of `start`: the register file, the predicates other than the
/// guard, and the three memories it may have written.
type Effects = (Vec<[u32; WARP_LANES]>, [u32; 6], Vec<Vec<u8>>, Vec<u8>, Vec<u8>);

fn effects(instr: &Instruction, masks: &[u32], start: &WarpState, c: &ConstMem) -> Effects {
    let (mut w, mut g, mut smem) = (start.clone(), GlobalMem::new(), vec![0x5a; 256]);
    g.write_bytes(GLOBAL, &[0xa5; 256]);
    let mut cx = ExecCtx {
        global: &mut g,
        smem: &mut smem,
        consts: c,
        block_id: 3,
        grid_blocks: 8,
        block_threads: 64,
    };
    let plan = Plan::lower(&instr.clone().with_pred(Predicate::pos(PredReg::new(0).unwrap())));
    for &mask in masks {
        w.preds[0] = mask;
        let res =
            execute(&mut w, &plan, None, &mut cx, &mut MemAccess::new()).map(|res| res.outcome);
        assert_eq!(res, Ok(Outcome::Next), "{instr}");
    }
    let preds = w.preds[1..].try_into().unwrap();
    (w.regs, preds, w.local, smem, g.read_bytes(GLOBAL, 256))
}

/// Where the global addresses of [`a_full_mask_equals_two_half_masks`] point.
const GLOBAL: u64 = 0x20_0000;

/// A full exec mask takes each row helper's constant-trip-count path and
/// whole-row stores; a partial one walks the set bits. Every arm of
/// `execute` — the arithmetic ones, `SHFL`, `VOTE` and every memory
/// opcode — must leave exactly what it leaves when run as two half
/// masks one after the other: a fast path that reads or writes a lane
/// the slow one does not, or orders two lanes' atomics differently,
/// differs in a register, a predicate or a byte of memory. Destinations
/// alias sources and address registers, or are `RZ`; stores and atomics
/// collide on their addresses.
#[test]
fn a_full_mask_equals_two_half_masks() {
    let mut rng = Lcg(0x6761_7061_2d68_616c);
    let p1 = PredReg::new(1).unwrap();
    let at = |base: u8, offset: i32, wide| Operand::Mem(MemRef { base: r(base), offset, wide });
    let (reg, pair) = (|n| Operand::Reg(r(n)), |n| Operand::RegPair(r(n)));
    let new = Instruction::new;
    use Modifier::{All, Sz64, E};
    use Opcode::*;
    // R12 holds distinct word addresses below 256, R13 colliding ones,
    // R14:R15 colliding global addresses.
    let mut instrs = vec![
        new(Shfl, vec![reg(1)], vec![reg(2), reg(3)]),
        new(Shfl, vec![reg(2)], vec![reg(2), Operand::Imm(7)]),
        new(Vote, vec![reg(1)], vec![Operand::Pred(p1)]).with_mod(All),
        new(Vote, vec![reg(1)], vec![Operand::Pred(p1)]),
        new(Vote, vec![Operand::Reg(Register::ZERO)], vec![Operand::Pred(PredReg::TRUE)]),
        new(Ldc, vec![reg(1)], vec![Operand::CMem { bank: 0, offset: 8 }]),
        new(Ldc, vec![pair(2)], vec![Operand::CMem { bank: 0, offset: 4 }]).with_mod(Sz64),
        new(Ldc, vec![reg(12)], vec![at(12, 4, false)]),
        new(AtomS, vec![reg(13)], vec![at(13, 0, false), reg(2)]),
        new(AtomS, vec![Operand::Reg(Register::ZERO)], vec![at(13, 4, false), reg(13)]),
        new(AtomG, vec![reg(1)], vec![at(14, 0, true), reg(2)]),
        new(AtomG, vec![reg(14)], vec![at(14, 4, true), reg(14)]),
    ];
    for (load, store, base, wide) in
        [(Lds, Sts, 12, false), (Ldl, Stl, 13, false), (Ldg, Stg, 14, true)]
    {
        let global: &[Modifier] = if wide { &[E] } else { &[] };
        let with = |mut instr: Instruction, mods: &[Modifier]| {
            for &m in global.iter().chain(mods) {
                instr = instr.with_mod(m);
            }
            instr
        };
        instrs.extend([
            with(new(load, vec![reg(1)], vec![at(base, 0, wide)]), &[]),
            with(new(load, vec![reg(base)], vec![at(base, 4, wide)]), &[]),
            with(new(load, vec![pair(2)], vec![at(base, 8, wide)]), &[Sz64]),
            with(
                new(load, vec![Operand::RegPair(Register::ZERO)], vec![at(base, 0, wide)]),
                &[Sz64],
            ),
            with(new(store, vec![], vec![at(base, 0, wide), reg(1)]), &[]),
            with(new(store, vec![], vec![at(base, 4, wide), reg(base)]), &[]),
            with(new(store, vec![], vec![at(base, 8, wide), pair(2)]), &[Sz64]),
        ]);
    }
    let arms = arms();
    for _round in 0..24 {
        let mut c = ConstMem::new();
        c.set_bank(0, (0..18).flat_map(|_| rng.operand().to_le_bytes()).collect());
        c.set_bank(1, (0..80).flat_map(|_| rng.operand().to_le_bytes()).collect());
        let mut start = WarpState::new(0, 0, 0, 0, 32, 16);
        start.regs.iter_mut().flatten().for_each(|v| *v = rng.operand());
        for l in 0..WARP_LANES {
            start.regs[12][l] = 8 * l as u32;
            start.regs[13][l] = 8 * (rng.next() % 4);
            (start.regs[14][l], start.regs[15][l]) = (GLOBAL as u32 + 8 * (rng.next() % 4), 0);
            start.local[l] = vec![l as u8; 16];
        }
        start.preds = [0, rng.next(), rng.next(), 0, 0, 0, 0];
        // The arithmetic arms, spelled over registers: the destination is
        // one of R0..R10 or `RZ`, and so may be a source.
        let arithmetic = arms.iter().map(|arm| {
            let srcs = (arm.srcs.iter())
                .map(|want| match want {
                    Want::N if rng.next().is_multiple_of(4) => pair(rng.next() as u8 % 10),
                    Want::N => reg(rng.next() as u8 % 12),
                    Want::W if rng.next().is_multiple_of(4) => reg(rng.next() as u8 % 12),
                    Want::W => pair(rng.next() as u8 % 10),
                    Want::Sr => Operand::SReg(SpecialReg::LaneId),
                    Want::Pr => Operand::Pred(p1),
                    Want::Sh => Operand::Imm((rng.next() % 32) as i64),
                })
                .collect();
            let d = if rng.next().is_multiple_of(8) {
                Register::ZERO
            } else {
                r(rng.next() as u8 % 11)
            };
            let dst = match arm.out {
                Out::R32 | Out::F32 => Operand::Reg(d),
                Out::R64 | Out::F64 => Operand::RegPair(d),
                Out::Pred if d.is_zero() => Operand::Pred(PredReg::TRUE),
                Out::Pred => Operand::Pred(PredReg::new(2).unwrap()),
            };
            (arm.mods.iter()).fold(new(arm.opcode, vec![dst], srcs), |instr, &m| instr.with_mod(m))
        });
        for instr in arithmetic.collect::<Vec<_>>().iter().chain(&instrs) {
            let whole = effects(instr, &[u32::MAX], &start, &c);
            // Lanes that write one address do so in lane order, which
            // only the first split keeps.
            let splits = [[0x0000_ffff, 0xffff_0000], [0xaaaa_aaaa, 0x5555_5555]];
            for halves in &splits[..if instr.opcode.is_store() { 1 } else { 2 }] {
                assert!(whole == effects(instr, halves, &start, &c), "{instr} as {halves:x?}");
            }
        }
    }
}

/// When several lanes of a shared- or local-memory access lie beyond
/// the limit, the fault is the lowest such lane's that executes — the
/// string names *its* end — and nothing was read, written or grown on
/// the way to it.
#[test]
fn the_lowest_executing_lane_beyond_the_limit_names_the_scratch_fault() {
    use Opcode::*;
    let addr = Operand::Mem(MemRef { base: r(1), offset: 0, wide: false });
    let cases = [
        (Instruction::new(Lds, vec![Operand::Reg(r(2))], vec![addr]), "shared", 96u64),
        (Instruction::new(Sts, vec![], vec![addr, Operand::Reg(r(2))]), "shared", 96),
        (
            Instruction::new(AtomS, vec![Operand::Reg(r(2))], vec![addr, Operand::Reg(r(3))]),
            "shared",
            96,
        ),
        (Instruction::new(Ldl, vec![Operand::Reg(r(2))], vec![addr]), "local", 64),
        (Instruction::new(Stl, vec![], vec![addr, Operand::Reg(r(2))]), "local", 64),
    ];
    for (instr, space, kib) in cases {
        let mut start = WarpState::new(0, 0, 0, 0, 32, 8);
        start.pc = 0x1230;
        let (first, second) = (kib as u32 * 1024 + 0x100, kib as u32 * 1024 - 3);
        start.regs[1] = [64; WARP_LANES];
        (start.regs[1][9], start.regs[1][20]) = (first, second);
        let (both, c) = (1 << 9 | 1 << 20, ConstMem::new());
        for (mask, beyond) in [
            (u32::MAX, Some(first)),
            (0x00ff_ff00, Some(first)),
            (!(1 << 9), Some(second)),
            (1 << 20, Some(second)),
            (!both, None),
            (0x0000_00ff, None),
        ] {
            let (mut w, mut g, mut smem) = (start.clone(), GlobalMem::new(), Vec::new());
            w.preds[0] = mask;
            let mut cx = ExecCtx {
                global: &mut g,
                smem: &mut smem,
                consts: &c,
                block_id: 0,
                grid_blocks: 1,
                block_threads: 32,
            };
            let plan =
                Plan::lower(&instr.clone().with_pred(Predicate::pos(PredReg::new(0).unwrap())));
            let res =
                execute(&mut w, &plan, None, &mut cx, &mut MemAccess::new()).map(|res| res.outcome);
            let Some(beyond) = beyond else {
                assert_eq!(res, Ok(Outcome::Next), "{instr} under {mask:#x}");
                continue;
            };
            let message = format!("{space}-memory access at {:#x} exceeds {kib} KiB", beyond + 4);
            assert_eq!(
                res,
                Err(SimError::Fault { pc: 0x1230, message }),
                "{instr} under {mask:#x}"
            );
            assert!(smem.is_empty() && w.local.iter().all(Vec::is_empty), "{instr} grew a memory");
            assert_eq!(w.regs, start.regs, "{instr} wrote a register");
        }
    }
}
