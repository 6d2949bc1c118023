//! Functional (value-level) execution of instructions.
//!
//! Execution happens at issue time: values land in registers immediately
//! while the *timing* layer (scoreboards, barriers) decides when
//! consumers may observe them. This keeps functional correctness
//! independent of the timing model.
//!
//! The executor runs [`Plan`]s — instructions decoded once, when the
//! program was lowered — and works on 32-lane rows: every arithmetic arm
//! materialises its sources (`Word::fill`) and applies one closure
//! across them (`row1`/`row2`/`row3`/`setp`), and the memory ops build
//! their address, data and result rows the same way. Which lanes execute
//! is a mask walked by `for_lanes`, whose full-mask case — nearly every
//! issue — is a `0..32` loop the compiler unrolls and vectorises. Whether
//! a value is 32 or 64 bits wide is a type (`Word`), spelled in each
//! arm's closure signature. Nothing on this path allocates.
//!
//! No operand can panic the executor or make a debug and a release
//! build disagree: malformed operands are faults, shift counts act
//! modulo the width of the shifted value, global addresses and constant
//! offsets wrap, scratch (shared, local) addresses are bounds-checked.

use crate::mem::{ConstMem, GlobalMem};
use crate::program::{CmpOp, Plan, Src};
use crate::warp::{DivEntry, WarpState, WARP_LANES};
use crate::{Result, SimError};
use gpa_isa::{MemSpace, Modifier, Opcode, Register, INSTR_BYTES};

/// Shared-state view handed to the executor for one instruction.
pub struct ExecCtx<'a> {
    /// Device global memory.
    pub global: &'a mut GlobalMem,
    /// The executing block's shared memory.
    pub smem: &'a mut Vec<u8>,
    /// Constant banks.
    pub consts: &'a ConstMem,
    /// Block id of the executing block.
    pub block_id: u32,
    /// Grid size in blocks.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
}

/// Control-flow outcome of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through to the next instruction.
    Next,
    /// Redirect to an absolute PC (taken branch / divergence).
    Jump(u64),
    /// The warp finished.
    Exit,
    /// Park at a block barrier (PC already advanced past it).
    Sync,
    /// Call: push the return address and jump.
    Call(u64),
    /// Return to the call stack's top.
    Ret,
}

/// The memory traffic of one issued instruction, for the timing model.
/// The caller of [`execute`] owns one and lends it to every instruction:
/// the lane addresses live inline, so the memory path allocates nothing
/// and nothing this large is returned by value.
#[derive(Debug, Clone)]
pub struct MemAccess {
    /// Which space was touched.
    pub space: MemSpace,
    /// Whether this was a store.
    pub store: bool,
    lane_addrs: [u64; WARP_LANES],
    lanes: usize,
}

impl MemAccess {
    /// An empty access for [`execute`] to fill.
    pub fn new() -> Self {
        MemAccess { space: MemSpace::Global, store: false, lane_addrs: [0; WARP_LANES], lanes: 0 }
    }

    /// Per-lane byte addresses (only executing lanes).
    pub fn addrs(&self) -> &[u64] {
        &self.lane_addrs[..self.lanes]
    }

    /// Records the addresses of the lanes in `mask`, in lane order.
    fn set(&mut self, mask: u32, addrs: &[u64; WARP_LANES]) {
        self.lanes = 0;
        for_lanes(mask, |l| {
            self.lane_addrs[self.lanes] = addrs[l];
            self.lanes += 1;
        });
    }
}

impl Default for MemAccess {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of functionally executing one instruction.
#[derive(Debug, Clone)]
pub struct ExecResult<'m> {
    /// Where control flow goes.
    pub outcome: Outcome,
    /// Memory traffic, if any (the access lent to [`execute`], filled).
    pub mem: Option<&'m MemAccess>,
}

fn fault(pc: u64, message: impl Into<String>) -> SimError {
    SimError::Fault { pc, message: message.into() }
}

/// Runs `f` for each lane of `mask`, in lane order. A full mask is the
/// common case and gets a loop of constant trip count.
#[inline(always)]
fn for_lanes(mask: u32, mut f: impl FnMut(usize)) {
    if mask == u32::MAX {
        for l in 0..WARP_LANES {
            f(l);
        }
    } else {
        let mut rest = mask;
        while rest != 0 {
            f(rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// The width of a lane value, `u32` or `u64`: what reading a resolved
/// source and writing a destination do differently for a register and a
/// register pair. Everything above this trait is generic over it.
trait Word: Copy + Default {
    /// Materializes a resolved source into per-lane values: one row copy
    /// (or broadcast) per instruction instead of an enum match per lane.
    /// Safe because lane writes are strictly lane-local — no instruction
    /// observes another lane's same-instruction result through the
    /// register file (SHFL snapshots explicitly).
    fn fill(w: &WarpState, s: Src, ctx: &ExecCtx) -> [Self; WARP_LANES];

    /// Writes per-lane results to a destination register — a pair when
    /// `Self` is 64 bits wide — for the lanes in `mask`.
    fn store(w: &mut WarpState, d: Register, mask: u32, vals: &[Self; WARP_LANES]);
}

impl Word for u32 {
    #[inline]
    fn fill(w: &WarpState, s: Src, ctx: &ExecCtx) -> [u32; WARP_LANES] {
        match s {
            Src::Val(v) => [v; WARP_LANES],
            Src::Val64(v) => [v as u32; WARP_LANES],
            Src::Reg(r) | Src::Pair(r) if r.is_zero() => [0; WARP_LANES],
            Src::Reg(r) | Src::Pair(r) => w.regs[r.index() as usize],
            Src::SReg(sr) => std::array::from_fn(|l| {
                w.special(l, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads)
            }),
            Src::Pred(p) => std::array::from_fn(|l| w.read_pred(l, p) as u32),
            Src::CMem { bank, offset } => [ctx.consts.read_u32(bank, offset as u32); WARP_LANES],
        }
    }

    #[inline]
    fn store(w: &mut WarpState, d: Register, mask: u32, vals: &[u32; WARP_LANES]) {
        if d.is_zero() {
            return;
        }
        let row = &mut w.regs[d.index() as usize];
        for_lanes(mask, |l| row[l] = vals[l]);
    }
}

impl Word for u64 {
    #[inline]
    fn fill(w: &WarpState, s: Src, ctx: &ExecCtx) -> [u64; WARP_LANES] {
        match s {
            Src::Val64(v) => [v; WARP_LANES],
            Src::CMem { bank, offset } => [ctx.consts.read_u64(bank, offset as u32); WARP_LANES],
            // A pair is its two rows; `RZ`'s upper half is `RZ`.
            Src::Pair(r) => {
                let lo = u32::fill(w, Src::Reg(r), ctx);
                let hi = u32::fill(w, Src::Reg(r.pair_hi()), ctx);
                std::array::from_fn(|l| lo[l] as u64 | (hi[l] as u64) << 32)
            }
            // Everything else is a 32-bit value, zero-extended.
            Src::Val(_) | Src::Reg(_) | Src::SReg(_) | Src::Pred(_) => {
                u32::fill(w, s, ctx).map(u64::from)
            }
        }
    }

    #[inline]
    fn store(w: &mut WarpState, d: Register, mask: u32, vals: &[u64; WARP_LANES]) {
        u32::store(w, d, mask, &vals.map(|v| v as u32));
        u32::store(w, d.pair_hi(), mask, &vals.map(|v| (v >> 32) as u32));
    }
}

/// Unary lane op: `f` of the first source read as `A`s, written as `O`s.
#[inline]
fn row1<A: Word, O: Word>(
    w: &mut WarpState,
    d: Register,
    mask: u32,
    [sa, ..]: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(A) -> O,
) {
    let a = A::fill(w, sa, ctx);
    let mut o = [O::default(); WARP_LANES];
    for_lanes(mask, |l| o[l] = f(a[l]));
    O::store(w, d, mask, &o);
}

/// Binary lane op over the first two sources, each at its own width.
#[inline]
fn row2<A: Word, B: Word, O: Word>(
    w: &mut WarpState,
    d: Register,
    mask: u32,
    [sa, sb, _]: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(A, B) -> O,
) {
    let (a, b) = (A::fill(w, sa, ctx), B::fill(w, sb, ctx));
    let mut o = [O::default(); WARP_LANES];
    for_lanes(mask, |l| o[l] = f(a[l], b[l]));
    O::store(w, d, mask, &o);
}

/// Ternary lane op over materialized sources, each at its own width.
/// Always inlined, so that `row3_fma` compiles its own copy.
#[inline(always)]
fn row3<A: Word, B: Word, C: Word, O: Word>(
    w: &mut WarpState,
    d: Register,
    mask: u32,
    [sa, sb, sc]: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(A, B, C) -> O,
) {
    let (a, b, c) = (A::fill(w, sa, ctx), B::fill(w, sb, ctx), C::fill(w, sc, ctx));
    let mut o = [O::default(); WARP_LANES];
    for_lanes(mask, |l| o[l] = f(a[l], b[l], c[l]));
    O::store(w, d, mask, &o);
}

/// [`row3`] compiled with the FMA target feature on, under which a
/// `mul_add` in `f` is one instruction per vector of lanes instead of a
/// libm call per lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn row3_fma<T: Word>(
    w: &mut WarpState,
    d: Register,
    mask: u32,
    srcs: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(T, T, T) -> T,
) {
    row3(w, d, mask, srcs, ctx, f);
}

/// `FFMA` / `DFMA`: [`row3`] of a `mul_add`, on the FMA unit where the
/// running CPU has one. This is the one place the executor keeps two
/// paths. Building the whole crate with `-C target-feature=+fma` would
/// die of SIGILL on a CPU without the unit, and a software fused
/// multiply-add would have to reproduce the hardware's choice among NaN
/// operands, which `fp32_arithmetic_matches_scalar_std_ops_bit_for_bit`
/// pins with payload NaNs; so the feature is detected at run time, and
/// the plain row — the code every CPU ran before — stays as the fallback
/// and as the oracle the FMA row is tested against.
#[inline]
fn fused<T: Word>(
    w: &mut WarpState,
    d: Register,
    mask: u32,
    srcs: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(T, T, T) -> T,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: `row3_fma` is safe code that needs nothing but the FMA
        // target feature, which the line above found on this CPU.
        return unsafe { row3_fma(w, d, mask, srcs, ctx, f) };
    }
    row3(w, d, mask, srcs, ctx, f);
}

/// Predicate-setting comparison of the first two sources.
#[inline]
fn setp<A: Word>(
    w: &mut WarpState,
    p: gpa_isa::PredReg,
    mask: u32,
    [sa, sb, _]: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(A, A) -> bool,
) {
    let (a, b) = (A::fill(w, sa, ctx), A::fill(w, sb, ctx));
    let mut holds = 0u32;
    for_lanes(mask, |l| holds |= (f(a[l], b[l]) as u32) << l);
    if !p.is_true() {
        let bits = &mut w.preds[p.index() as usize];
        *bits = *bits & !mask | holds;
    }
}

fn f32v(bits: u32) -> f32 {
    f32::from_bits(bits)
}

fn f64v(bits: u64) -> f64 {
    f64::from_bits(bits)
}

#[inline]
fn cmp_apply(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
    }
}

/// Executes one instruction functionally for all guarded active lanes.
///
/// `plan` is the instruction as [`Plan::lower`] decoded it; `reconv_pc` is
/// the precomputed reconvergence point of its basic block (needed only
/// for divergent predicated branches). A memory instruction reports its
/// traffic in `access`.
///
/// # Errors
///
/// Returns [`SimError::Fault`] on malformed operands, divergent branches
/// without a reconvergence point, partial-warp `EXIT`, shared-memory
/// overflow, or `RET` with an empty call stack.
pub fn execute<'m>(
    w: &mut WarpState,
    plan: &Plan,
    reconv_pc: Option<u64>,
    ctx: &mut ExecCtx,
    access: &'m mut MemAccess,
) -> Result<ExecResult<'m>> {
    let exec_mask = w.active & w.pred_mask(plan.pred);
    let pc = w.pc;

    // Control flow first: BRA handles divergence on its own.
    match plan.opcode {
        Opcode::Bra => {
            let target = plan.target.ok_or_else(|| fault(pc, "BRA without resolved target"))?;
            let taken = exec_mask;
            let outcome = if taken == 0 {
                Outcome::Next
            } else if taken == w.active {
                Outcome::Jump(target)
            } else {
                let reconv = reconv_pc
                    .ok_or_else(|| fault(pc, "divergent branch without reconvergence point"))?;
                w.div_stack.push(DivEntry {
                    reconv,
                    else_pc: pc + INSTR_BYTES,
                    else_mask: w.active & !taken,
                    merged: w.active,
                    else_done: false,
                });
                w.active = taken;
                Outcome::Jump(target)
            };
            return Ok(ExecResult { outcome, mem: None });
        }
        Opcode::Exit => {
            if exec_mask != w.active {
                return Err(fault(pc, "partial-warp EXIT is not supported"));
            }
            return Ok(ExecResult { outcome: Outcome::Exit, mem: None });
        }
        Opcode::Cal => {
            let target = plan.target.ok_or_else(|| fault(pc, "CAL without resolved target"))?;
            return Ok(ExecResult { outcome: Outcome::Call(target), mem: None });
        }
        Opcode::Ret => {
            return Ok(ExecResult { outcome: Outcome::Ret, mem: None });
        }
        Opcode::Bar => {
            return Ok(ExecResult { outcome: Outcome::Sync, mem: None });
        }
        Opcode::Nop | Opcode::Membar | Opcode::Bssy | Opcode::Bsync => {
            return Ok(ExecResult { outcome: Outcome::Next, mem: None });
        }
        _ => {}
    }

    if exec_mask == 0 {
        // Predicated off for every lane: issues, but no effects.
        return Ok(ExecResult { outcome: Outcome::Next, mem: None });
    }
    if let Some(message) = &plan.fault {
        return Err(fault(pc, message.as_str()));
    }

    use Opcode::*;
    let (d, p, lanes) = (plan.d, plan.p, exec_mask);
    let srcs = plan.srcs;
    match plan.opcode {
        Mov | Mov32i | I2i if plan.pair => row1(w, d, lanes, srcs, ctx, |a: u64| a),
        Mov | Mov32i | I2i | S2r | Cs2r => row1(w, d, lanes, srcs, ctx, |a: u32| a),
        Iadd if plan.pair => row2(w, d, lanes, srcs, ctx, |a: u64, b: u64| a.wrapping_add(b)),
        Iadd => row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| a.wrapping_add(b)),
        Iadd3 => {
            row3(w, d, lanes, srcs, ctx, |a: u32, b: u32, c: u32| a.wrapping_add(b).wrapping_add(c))
        }
        Imad if plan.has(Modifier::Wide) => {
            let signed = plan.has(Modifier::S32);
            row3(w, d, lanes, srcs, ctx, |a: u32, b: u32, c: u64| {
                let prod = if signed {
                    (a as i32 as i64).wrapping_mul(b as i32 as i64) as u64
                } else {
                    (a as u64).wrapping_mul(b as u64)
                };
                prod.wrapping_add(c)
            });
        }
        Imad => {
            row3(w, d, lanes, srcs, ctx, |a: u32, b: u32, c: u32| a.wrapping_mul(b).wrapping_add(c))
        }
        Imul => row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| a.wrapping_mul(b)),
        Isetp => {
            let (op, unsigned) = (plan.cmp, plan.has(Modifier::U32));
            setp(w, p, lanes, srcs, ctx, |a: u32, b: u32| {
                let ord = if unsigned { a.cmp(&b) } else { (a as i32).cmp(&(b as i32)) };
                cmp_apply(op, ord)
            });
        }
        // The shift count acts modulo the width of the shifted value, in
        // every build profile (as `SHL`'s does).
        Lea if plan.pair => {
            let shift = plan.shift;
            row2(w, d, lanes, srcs, ctx, |a: u32, b: u64| {
                b.wrapping_add((a as u64).wrapping_shl(shift))
            });
        }
        Lea => {
            let shift = plan.shift;
            row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| b.wrapping_add(a.wrapping_shl(shift)));
        }
        Lop3 => {
            let (or, xor) = (plan.has(Modifier::Or), plan.has(Modifier::Xor));
            row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| {
                if or {
                    a | b
                } else if xor {
                    a ^ b
                } else {
                    a & b
                }
            });
        }
        Shl | Shr | Shf => {
            let right = plan.opcode == Shr || (plan.opcode == Shf && plan.has(Modifier::R));
            let arith = plan.has(Modifier::S32);
            row2(w, d, lanes, srcs, ctx, |a: u32, s: u32| {
                let s = s & 31;
                if !right {
                    a << s
                } else if arith {
                    ((a as i32) >> s) as u32
                } else {
                    a >> s
                }
            });
        }
        Imnmx => {
            let (unsigned, take_max) = (plan.has(Modifier::U32), plan.has(Modifier::Gt));
            row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| match (unsigned, take_max) {
                (true, true) => a.max(b),
                (true, false) => a.min(b),
                (false, true) => (a as i32).max(b as i32) as u32,
                (false, false) => (a as i32).min(b as i32) as u32,
            });
        }
        Iabs => row1(w, d, lanes, srcs, ctx, |a: u32| (a as i32).unsigned_abs()),
        Popc => row1(w, d, lanes, srcs, ctx, |a: u32| a.count_ones()),
        // The third source is the selecting predicate, as 0 or 1.
        Sel => row3(w, d, lanes, srcs, ctx, |a: u32, b: u32, p: u32| if p != 0 { a } else { b }),
        Fadd => row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| (f32v(a) + f32v(b)).to_bits()),
        Fmul => row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| (f32v(a) * f32v(b)).to_bits()),
        Ffma => fused(w, d, lanes, srcs, ctx, |a: u32, b: u32, c: u32| {
            f32v(a).mul_add(f32v(b), f32v(c)).to_bits()
        }),
        Fmnmx if plan.has(Modifier::Gt) => {
            row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| f32v(a).max(f32v(b)).to_bits());
        }
        Fmnmx => row2(w, d, lanes, srcs, ctx, |a: u32, b: u32| f32v(a).min(f32v(b)).to_bits()),
        Fsetp => {
            let op = plan.cmp;
            setp(w, p, lanes, srcs, ctx, |a: u32, b: u32| {
                let ord = f32v(a).partial_cmp(&f32v(b)).unwrap_or(std::cmp::Ordering::Greater);
                cmp_apply(op, ord)
            });
        }
        Mufu => {
            let func = plan.mufu;
            row1(w, d, lanes, srcs, ctx, |a: u32| {
                let a = f32v(a);
                let v = match func {
                    Modifier::Rcp => 1.0 / a,
                    Modifier::Rsq => 1.0 / a.sqrt(),
                    Modifier::Sqrt => a.sqrt(),
                    Modifier::Sin => a.sin(),
                    Modifier::Cos => a.cos(),
                    Modifier::Ex2 => a.exp2(),
                    _ => a.log2(),
                };
                v.to_bits()
            });
        }
        Dadd => row2(w, d, lanes, srcs, ctx, |a: u64, b: u64| (f64v(a) + f64v(b)).to_bits()),
        Dmul => row2(w, d, lanes, srcs, ctx, |a: u64, b: u64| (f64v(a) * f64v(b)).to_bits()),
        Dfma => fused(w, d, lanes, srcs, ctx, |a: u64, b: u64, c: u64| {
            f64v(a).mul_add(f64v(b), f64v(c)).to_bits()
        }),
        Dsetp => {
            let op = plan.cmp;
            setp(w, p, lanes, srcs, ctx, |a: u64, b: u64| {
                let ord = f64v(a).partial_cmp(&f64v(b)).unwrap_or(std::cmp::Ordering::Greater);
                cmp_apply(op, ord)
            });
        }
        // Modifier order is [dst, src].
        F2f if plan.first_mod == Some(Modifier::F64) => {
            row1(w, d, lanes, srcs, ctx, |a: u32| (f32v(a) as f64).to_bits());
        }
        F2f => row1(w, d, lanes, srcs, ctx, |a: u64| (f64v(a) as f32).to_bits()),
        F2i if plan.has(Modifier::F64) => {
            row1(w, d, lanes, srcs, ctx, |a: u64| f64v(a) as i32 as u32)
        }
        F2i => row1(w, d, lanes, srcs, ctx, |a: u32| f32v(a) as i32 as u32),
        I2f if plan.has(Modifier::F64) => {
            row1(w, d, lanes, srcs, ctx, |a: u32| (a as i32 as f64).to_bits());
        }
        I2f => row1(w, d, lanes, srcs, ctx, |a: u32| (a as i32 as f32).to_bits()),
        // Each lane reads the lane its second source names, of the first
        // source as it was before any lane wrote (`d` may alias it).
        Shfl => {
            let snapshot = u32::fill(w, srcs[0], ctx);
            row1(w, d, lanes, [srcs[1]; 3], ctx, |idx: u32| snapshot[idx as usize % WARP_LANES]);
        }
        Vote => {
            let votes = w.pred_mask(Some(gpa_isa::Predicate::pos(p))) & lanes;
            let agg = if plan.has(Modifier::All) { votes == lanes } else { votes != 0 };
            u32::store(w, d, lanes, &[agg as u32; WARP_LANES]);
        }
        Prmt => row3(w, d, lanes, srcs, ctx, |a: u32, b: u32, sel: u32| {
            let pool = ((b as u64) << 32) | a as u64;
            let mut v = 0u32;
            for i in 0..4 {
                let s = ((sel >> (4 * i)) & 0x7) as u64;
                let byte = (pool >> (8 * s)) & 0xFF;
                v |= (byte as u32) << (8 * i);
            }
            v
        }),
        Ldg | Stg | Lds | Sts | Ldl | Stl | Ldc | AtomG | AtomS => {
            match plan.width {
                8 => memory_op::<8>(w, plan, lanes, ctx, access)?,
                _ => memory_op::<4>(w, plan, lanes, ctx, access)?,
            }
            return Ok(ExecResult { outcome: Outcome::Next, mem: Some(access) });
        }
        Bra | Exit | Cal | Ret | Bar | Nop | Membar | Bssy | Bsync => unreachable!(),
    }

    Ok(ExecResult { outcome: Outcome::Next, mem: None })
}

/// A memory instruction whose access is `N` bytes wide (4 or 8; atomics
/// are always 4). Loaded and stored values travel zero-extended. Like
/// the arithmetic arms it works on rows — every lane's address, then the
/// data, then one store of what was loaded — which is exact because a
/// lane reads and writes no registers but its own.
fn memory_op<const N: usize>(
    w: &mut WarpState,
    plan: &Plan,
    mask: u32,
    ctx: &mut ExecCtx,
    access: &mut MemAccess,
) -> Result<()> {
    use Opcode::*;
    let op = plan.opcode;
    access.space = op.mem_space().expect("memory opcode");
    access.store = op.is_store();
    let local = access.space == MemSpace::Local;
    let atomic = matches!(op, AtomG | AtomS);
    // Whether registers hold the value as a pair.
    let wide = N == 8 && !atomic;

    // `c[bank][offset]` is its own address; every other access goes
    // through the memory operand (lowering stored a fault where an
    // opcode that needs one lacks it, and `execute` raised it), whose
    // base is a pair only where addresses have 64 bits.
    let addrs = match plan.cmem {
        Some((_, offset)) if op == Ldc => [offset as u64; WARP_LANES],
        _ => {
            let m = plan.mem.expect("lowering checked the memory operand");
            let pair = m.wide && matches!(access.space, MemSpace::Global | MemSpace::Local);
            let base = if pair { Src::Pair(m.base) } else { Src::Reg(m.base) };
            u64::fill(w, base, ctx).map(|a| a.wrapping_add(m.offset as i64 as u64))
        }
    };
    access.set(mask, &addrs);

    // What a store or an atomic writes, and what a load or an atomic
    // leaves in `d`.
    let data = match (access.store, wide) {
        (true, true) => u64::fill(w, plan.srcs[0], ctx),
        (true, false) => u32::fill(w, plan.srcs[0], ctx).map(u64::from),
        (false, _) => [0; WARP_LANES],
    };
    let mut vals = [0u64; WARP_LANES];
    if matches!(access.space, MemSpace::Shared | MemSpace::Local) {
        check_scratch(access.addrs(), if atomic { 4 } else { N as u64 }, local, w.pc)?;
    }
    match op {
        Ldg => {
            // Page-memoized reads: lanes usually share one or two pages.
            let mut rd = ctx.global.reader();
            for_lanes(mask, |l| vals[l] = from_le(rd.read::<N>(addrs[l])));
        }
        Stg => {
            // Collect the warp's stores and commit them page-run at a
            // time.
            let (mut batch, mut n) = ([(0u64, [0u8; N]); WARP_LANES], 0);
            for_lanes(mask, |l| {
                batch[n] = (addrs[l], to_le(data[l]));
                n += 1;
            });
            ctx.global.write_batch(&batch[..n]);
        }
        AtomG => for_lanes(mask, |l| {
            let old = ctx.global.read_u32(addrs[l]);
            ctx.global.write_u32(addrs[l], old.wrapping_add(data[l] as u32));
            vals[l] = old as u64;
        }),
        Ldc => {
            let read = |bank, addr: u64| match N {
                8 => ctx.consts.read_u64(bank, addr as u32),
                _ => ctx.consts.read_u32(bank, addr as u32) as u64,
            };
            match plan.cmem {
                Some((bank, offset)) => vals.fill(read(bank, offset as u64)),
                // Register-indexed, from bank 1.
                None => for_lanes(mask, |l| vals[l] = read(1, addrs[l])),
            }
        }
        Lds | Ldl => for_lanes(mask, |l| {
            let cell = scratch(w, ctx, local, l, addrs[l], N);
            vals[l] = from_le::<N>((&*cell).try_into().expect("N bytes"));
        }),
        Sts | Stl => for_lanes(mask, |l| {
            scratch(w, ctx, local, l, addrs[l], N).copy_from_slice(&to_le::<N>(data[l]));
        }),
        AtomS => for_lanes(mask, |l| {
            let cell = scratch(w, ctx, local, l, addrs[l], 4);
            let old = u32::from_le_bytes((&*cell).try_into().expect("4 bytes"));
            cell.copy_from_slice(&old.wrapping_add(data[l] as u32).to_le_bytes());
            vals[l] = old as u64;
        }),
        _ => unreachable!("non-memory opcode in memory_op"),
    }
    match (op.is_load(), wide) {
        (true, true) => u64::store(w, plan.d, mask, &vals),
        (true, false) => u32::store(w, plan.d, mask, &vals.map(|v| v as u32)),
        (false, _) => {}
    }
    Ok(())
}

/// Checks one instruction's accesses of a scratch memory — the lanes'
/// local memories when `local`, else the block's shared memory — against
/// its size limit. The fault is the first offending lane's, in lane
/// order, and nothing has been read, written or grown when it is raised.
/// An address comes from a wrapping add of a signed offset, so its end
/// may not fit a `u64`: it saturates, and faults like any other end
/// beyond the limit.
fn check_scratch(addrs: &[u64], n: u64, local: bool, pc: u64) -> Result<()> {
    let (kib, name) = if local { (64, "local-memory") } else { (96, "shared-memory") };
    match addrs.iter().map(|addr| addr.saturating_add(n)).find(|&end| end > kib * 1024) {
        Some(end) => Err(fault(pc, format!("{name} access at {end:#x} exceeds {kib} KiB"))),
        None => Ok(()),
    }
}

/// The `n` bytes at `addr` of lane `l`'s scratch memory (its local
/// memory when `local`, else the block's shared memory), which grows
/// lazily to cover them. [`check_scratch`] has bounded their end.
#[inline]
fn scratch<'a>(
    w: &'a mut WarpState,
    ctx: &'a mut ExecCtx,
    local: bool,
    l: usize,
    addr: u64,
    n: usize,
) -> &'a mut [u8] {
    let buf = if local { &mut w.local[l] } else { &mut *ctx.smem };
    let (at, end) = (addr as usize, addr as usize + n);
    if buf.len() < end {
        buf.resize(end, 0);
    }
    &mut buf[at..end]
}

/// The value of `N <= 8` little-endian bytes, zero-extended.
#[inline]
fn from_le<const N: usize>(bytes: [u8; N]) -> u64 {
    let mut le = [0u8; 8];
    le[..N].copy_from_slice(&bytes);
    u64::from_le_bytes(le)
}

/// The low `N <= 8` bytes of `v`, little-endian.
#[inline]
fn to_le<const N: usize>(v: u64) -> [u8; N] {
    v.to_le_bytes()[..N].try_into().expect("N <= 8")
}

#[cfg(test)]
mod tests;
