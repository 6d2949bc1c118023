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
//! across them (`row1`/`row2`/`row3`/`setp`); only the memory ops and
//! `SHFL` read operands lane by lane. Whether a value is 32 or 64 bits
//! wide is a type (`Word`), spelled in each arm's closure signature.
//! Nothing on this path allocates.
//!
//! No operand can panic the executor or make a debug and a release
//! build disagree: malformed operands are faults, shift counts act
//! modulo the width of the shifted value, global addresses and constant
//! offsets wrap, scratch (shared, local) addresses are bounds-checked.

use crate::mem::{ConstMem, GlobalMem};
use crate::program::{CmpOp, Plan, Src};
use crate::warp::{DivEntry, WarpState, WARP_LANES};
use crate::{Result, SimError};
use gpa_isa::{MemRef, MemSpace, Modifier, Opcode, Register, INSTR_BYTES};

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

    /// Appends the next executing lane's address (at most one per lane).
    fn push(&mut self, addr: u64) {
        self.lane_addrs[self.lanes] = addr;
        self.lanes += 1;
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

/// Lane indices of a fully active warp.
const ALL_LANES: [usize; WARP_LANES] = {
    let mut a = [0usize; WARP_LANES];
    let mut i = 0;
    while i < WARP_LANES {
        a[i] = i;
        i += 1;
    }
    a
};

/// The width of a lane value, `u32` or `u64`: what reading a resolved
/// source and writing a destination do differently for a register and a
/// register pair. Everything above this trait is generic over it.
trait Word: Copy + Default {
    /// Reads a resolved source for one lane.
    fn get(w: &WarpState, lane: usize, s: Src, ctx: &ExecCtx) -> Self;

    /// Materializes a resolved source into per-lane values: one row copy
    /// (or broadcast) per instruction instead of an enum match per lane.
    /// Safe because lane writes are strictly lane-local — no instruction
    /// observes another lane's same-instruction result through the
    /// register file (SHFL snapshots explicitly).
    fn fill(w: &WarpState, s: Src, ctx: &ExecCtx, out: &mut [Self; WARP_LANES]);

    /// Writes per-lane results to a destination register — a pair when
    /// `Self` is 64 bits wide — for the given lanes.
    fn store(w: &mut WarpState, d: Register, lanes: &[usize], vals: &[Self; WARP_LANES]);
}

impl Word for u32 {
    #[inline]
    fn get(w: &WarpState, lane: usize, s: Src, ctx: &ExecCtx) -> u32 {
        match s {
            Src::Val(v) => v,
            Src::Val64(v) => v as u32,
            Src::Reg(r) | Src::Pair(r) => w.read_reg(lane, r),
            Src::SReg(sr) => w.special(lane, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads),
            Src::Pred(p) => w.read_pred(lane, p) as u32,
            Src::CMem { bank, offset } => ctx.consts.read_u32(bank, offset as u32),
        }
    }

    #[inline]
    fn fill(w: &WarpState, s: Src, ctx: &ExecCtx, out: &mut [u32; WARP_LANES]) {
        match s {
            Src::Val(v) => out.fill(v),
            Src::Val64(v) => out.fill(v as u32),
            Src::Reg(r) | Src::Pair(r) => {
                if r.is_zero() {
                    out.fill(0);
                } else {
                    *out = w.regs[r.index() as usize];
                }
            }
            Src::SReg(sr) => {
                for (l, slot) in out.iter_mut().enumerate() {
                    *slot = w.special(l, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads);
                }
            }
            Src::Pred(p) => {
                for (l, slot) in out.iter_mut().enumerate() {
                    *slot = w.read_pred(l, p) as u32;
                }
            }
            Src::CMem { bank, offset } => out.fill(ctx.consts.read_u32(bank, offset as u32)),
        }
    }

    #[inline]
    fn store(w: &mut WarpState, d: Register, lanes: &[usize], vals: &[u32; WARP_LANES]) {
        if d.is_zero() {
            return;
        }
        let row = &mut w.regs[d.index() as usize];
        for &l in lanes {
            row[l] = vals[l];
        }
    }
}

impl Word for u64 {
    #[inline]
    fn get(w: &WarpState, lane: usize, s: Src, ctx: &ExecCtx) -> u64 {
        match s {
            Src::Val64(v) => v,
            Src::Pair(r) => w.read_pair(lane, r),
            Src::CMem { bank, offset } => ctx.consts.read_u64(bank, offset as u32),
            // Everything else is a 32-bit value, zero-extended.
            Src::Val(_) | Src::Reg(_) | Src::SReg(_) | Src::Pred(_) => {
                u32::get(w, lane, s, ctx) as u64
            }
        }
    }

    #[inline]
    fn fill(w: &WarpState, s: Src, ctx: &ExecCtx, out: &mut [u64; WARP_LANES]) {
        match s {
            Src::Val(v) => out.fill(v as u64),
            Src::Val64(v) => out.fill(v),
            Src::Reg(r) => {
                for (l, slot) in out.iter_mut().enumerate() {
                    *slot = w.read_reg(l, r) as u64;
                }
            }
            Src::Pair(r) => {
                for (l, slot) in out.iter_mut().enumerate() {
                    *slot = w.read_pair(l, r);
                }
            }
            Src::SReg(_) | Src::Pred(_) => {
                for (l, slot) in out.iter_mut().enumerate() {
                    *slot = u64::get(w, l, s, ctx);
                }
            }
            Src::CMem { bank, offset } => out.fill(ctx.consts.read_u64(bank, offset as u32)),
        }
    }

    #[inline]
    fn store(w: &mut WarpState, d: Register, lanes: &[usize], vals: &[u64; WARP_LANES]) {
        for &l in lanes {
            w.write_pair(l, d, vals[l]);
        }
    }
}

/// Unary lane op: `f` of the first source read as `A`s, written as `O`s.
#[inline]
fn row1<A: Word, O: Word>(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    [sa, ..]: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(A) -> O,
) {
    let mut a = [A::default(); WARP_LANES];
    A::fill(w, sa, ctx, &mut a);
    let mut o = [O::default(); WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    O::store(w, d, lanes, &o);
}

/// Binary lane op over the first two sources, each at its own width.
#[inline]
fn row2<A: Word, B: Word, O: Word>(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    [sa, sb, _]: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(A, B) -> O,
) {
    let mut a = [A::default(); WARP_LANES];
    let mut b = [B::default(); WARP_LANES];
    A::fill(w, sa, ctx, &mut a);
    B::fill(w, sb, ctx, &mut b);
    let mut o = [O::default(); WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l]);
    }
    O::store(w, d, lanes, &o);
}

/// Ternary lane op over materialized sources, each at its own width.
#[inline]
fn row3<A: Word, B: Word, C: Word, O: Word>(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    [sa, sb, sc]: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(A, B, C) -> O,
) {
    let mut a = [A::default(); WARP_LANES];
    let mut b = [B::default(); WARP_LANES];
    let mut c = [C::default(); WARP_LANES];
    A::fill(w, sa, ctx, &mut a);
    B::fill(w, sb, ctx, &mut b);
    C::fill(w, sc, ctx, &mut c);
    let mut o = [O::default(); WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l], c[l]);
    }
    O::store(w, d, lanes, &o);
}

/// Predicate-setting comparison of the first two sources.
#[inline]
fn setp<A: Word>(
    w: &mut WarpState,
    p: gpa_isa::PredReg,
    lanes: &[usize],
    [sa, sb, _]: [Src; 3],
    ctx: &ExecCtx,
    f: impl Fn(A, A) -> bool,
) {
    let mut a = [A::default(); WARP_LANES];
    let mut b = [A::default(); WARP_LANES];
    A::fill(w, sa, ctx, &mut a);
    A::fill(w, sb, ctx, &mut b);
    for &l in lanes {
        w.write_pred(l, p, f(a[l], b[l]));
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

    // Full warps are the common case: reuse a constant lane list and only
    // build one for partial masks.
    let mut lanes_buf = [0usize; WARP_LANES];
    let lanes: &[usize] = if exec_mask == u32::MAX {
        &ALL_LANES
    } else {
        let mut nlanes = 0;
        let mut mask = exec_mask;
        while mask != 0 {
            lanes_buf[nlanes] = mask.trailing_zeros() as usize;
            nlanes += 1;
            mask &= mask - 1;
        }
        &lanes_buf[..nlanes]
    };

    use Opcode::*;
    let (d, p) = (plan.d, plan.p);
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
        Ffma => row3(w, d, lanes, srcs, ctx, |a: u32, b: u32, c: u32| {
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
        Dfma => row3(w, d, lanes, srcs, ctx, |a: u64, b: u64, c: u64| {
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
        Shfl => {
            let [sa, sb, _] = srcs;
            // Snapshot before writing (source and destination may alias).
            let mut snapshot = [0u32; WARP_LANES];
            u32::fill(w, sa, ctx, &mut snapshot);
            for &l in lanes {
                let idx = (u32::get(w, l, sb, ctx) as usize) % WARP_LANES;
                w.write_reg(l, d, snapshot[idx]);
            }
        }
        Vote => {
            let mut votes = lanes.iter().map(|&l| w.read_pred(l, p));
            let agg = if plan.has(Modifier::All) { votes.all(|v| v) } else { votes.any(|v| v) };
            for &l in lanes {
                w.write_reg(l, d, agg as u32);
            }
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

/// Lane `l`'s address through memory operand `m`, whose base is a
/// register pair when `wide`.
#[inline]
fn lane_addr(w: &WarpState, l: usize, m: MemRef, wide: bool) -> u64 {
    let base = if wide { w.read_pair(l, m.base) } else { w.read_reg(l, m.base) as u64 };
    base.wrapping_add(m.offset as i64 as u64)
}

/// A memory instruction whose access is `N` bytes wide (4 or 8; atomics
/// are always 4). Loaded and stored values travel zero-extended.
fn memory_op<const N: usize>(
    w: &mut WarpState,
    plan: &Plan,
    lanes: &[usize],
    ctx: &mut ExecCtx,
    access: &mut MemAccess,
) -> Result<()> {
    use Opcode::*;
    let pc = w.pc;
    access.space = plan.opcode.mem_space().expect("memory opcode");
    access.store = plan.opcode.is_store();
    access.lanes = 0;
    let (d, sdata) = (plan.d, plan.srcs[0]);
    let local = access.space == MemSpace::Local;
    // Puts a loaded value in lane `l`'s destination (a pair when wide).
    let put = |w: &mut WarpState, l: usize, v: u64| match N {
        8 => w.write_pair(l, d, v),
        _ => w.write_reg(l, d, v as u32),
    };
    // Lane `l`'s store data.
    let data = |w: &WarpState, l: usize, ctx: &ExecCtx| -> [u8; N] {
        to_le(match N {
            8 => u64::get(w, l, sdata, ctx),
            _ => u32::get(w, l, sdata, ctx) as u64,
        })
    };
    // For every opcode that addresses through it, lowering stored a fault
    // if the memory operand was missing, and `execute` raised it.
    let mem_operand = || plan.mem.expect("lowering checked the memory operand");

    match plan.opcode {
        Ldg => {
            let m = mem_operand();
            // Page-memoized reads: lanes usually share one or two pages.
            let mut rd = ctx.global.reader();
            for &l in lanes {
                let addr = lane_addr(w, l, m, m.wide);
                access.push(addr);
                put(w, l, from_le(rd.read::<N>(addr)));
            }
        }
        Ldl | Lds => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, m.wide && local);
                access.push(addr);
                let v = from_le(*scratch::<N>(w, ctx, local, l, addr, pc)?);
                put(w, l, v);
            }
        }
        Stg => {
            let m = mem_operand();
            // Collect the warp's stores and commit them page-run at a
            // time (stores never feed back into this instruction's
            // register reads, so deferring them is exact).
            let mut batch = [(0u64, [0u8; N]); WARP_LANES];
            for (slot, &l) in batch.iter_mut().zip(lanes) {
                let addr = lane_addr(w, l, m, m.wide);
                access.push(addr);
                *slot = (addr, data(w, l, ctx));
            }
            ctx.global.write_batch(&batch[..lanes.len()]);
        }
        Stl | Sts => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, m.wide && local);
                access.push(addr);
                let v = data(w, l, ctx);
                *scratch::<N>(w, ctx, local, l, addr, pc)? = v;
            }
        }
        Ldc => {
            for &l in lanes {
                // `c[bank][offset]`, else register-indexed from bank 1.
                let (bank, addr) = match plan.cmem {
                    Some((bank, offset)) => (bank, offset as u64),
                    None => (1, lane_addr(w, l, mem_operand(), false)),
                };
                access.push(addr);
                let v = match N {
                    8 => ctx.consts.read_u64(bank, addr as u32),
                    _ => ctx.consts.read_u32(bank, addr as u32) as u64,
                };
                put(w, l, v);
            }
        }
        AtomG => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, m.wide);
                access.push(addr);
                let old = ctx.global.read_u32(addr);
                let v = u32::get(w, l, sdata, ctx);
                ctx.global.write_u32(addr, old.wrapping_add(v));
                w.write_reg(l, d, old);
            }
        }
        AtomS => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, false);
                access.push(addr);
                let v = u32::get(w, l, sdata, ctx);
                let word = scratch::<4>(w, ctx, false, l, addr, pc)?;
                let old = u32::from_le_bytes(*word);
                *word = old.wrapping_add(v).to_le_bytes();
                w.write_reg(l, d, old);
            }
        }
        _ => unreachable!("non-memory opcode in memory_op"),
    }

    Ok(())
}

/// The `N` bytes at `addr` of a lazily grown scratch memory — lane `l`'s
/// local memory when `local`, else the block's shared memory — grown to
/// cover them. `addr` comes from a wrapping add of a signed offset, so
/// the end may not fit a `u64`: it saturates, and faults like any other
/// end beyond the limit.
#[inline]
fn scratch<'a, const N: usize>(
    w: &'a mut WarpState,
    ctx: &'a mut ExecCtx,
    local: bool,
    l: usize,
    addr: u64,
    pc: u64,
) -> Result<&'a mut [u8; N]> {
    let (buf, kib, name) = match local {
        true => (&mut w.local[l], 64, "local-memory"),
        false => (&mut *ctx.smem, 96, "shared-memory"),
    };
    let end = addr.saturating_add(N as u64);
    if end > kib * 1024 {
        return Err(fault(pc, format!("{name} access at {end:#x} exceeds {kib} KiB")));
    }
    if buf.len() < end as usize {
        buf.resize(end as usize, 0);
    }
    Ok((&mut buf[addr as usize..end as usize]).try_into().expect("N bytes"))
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
