//! Functional (value-level) execution of instructions.
//!
//! Execution happens at issue time: values land in registers immediately
//! while the *timing* layer (scoreboards, barriers) decides when
//! consumers may observe them. This keeps functional correctness
//! independent of the timing model.
//!
//! The executor runs [`Plan`]s — instructions decoded once, when the
//! program was lowered — and works on 32-lane rows: every arithmetic arm
//! materialises its sources (`fill32`/`fill64`) and applies one closure
//! across them; only the memory ops and `SHFL` read operands lane by
//! lane. Nothing on this path allocates.

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

/// Reads a resolved 32-bit source for one lane.
#[inline]
fn get32(w: &WarpState, lane: usize, s: Src, ctx: &ExecCtx) -> u32 {
    match s {
        Src::Val(v) => v,
        Src::Val64(v) => v as u32,
        Src::Reg(r) | Src::Pair(r) => w.read_reg(lane, r),
        Src::SReg(sr) => w.special(lane, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads),
        Src::CMem { bank, offset } => ctx.consts.read_u32(bank, offset as u32),
    }
}

/// Reads a resolved 64-bit source for one lane.
#[inline]
fn get64(w: &WarpState, lane: usize, s: Src, ctx: &ExecCtx) -> u64 {
    match s {
        Src::Val(v) => v as u64,
        Src::Val64(v) => v,
        Src::Reg(r) => w.read_reg(lane, r) as u64,
        Src::Pair(r) => w.read_pair(lane, r),
        Src::SReg(sr) => {
            w.special(lane, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads) as u64
        }
        Src::CMem { bank, offset } => ctx.consts.read_u64(bank, offset as u32),
    }
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

/// Materializes a resolved 32-bit source into per-lane values: one row
/// copy (or broadcast) per instruction instead of an enum match per lane.
/// Safe because lane writes are strictly lane-local — no instruction
/// observes another lane's same-instruction result through the register
/// file (SHFL snapshots explicitly).
#[inline]
fn fill32(w: &WarpState, s: Src, ctx: &ExecCtx, out: &mut [u32; WARP_LANES]) {
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
        Src::CMem { bank, offset } => out.fill(ctx.consts.read_u32(bank, offset as u32)),
    }
}

/// Materializes a resolved 64-bit source into per-lane values.
#[inline]
fn fill64(w: &WarpState, s: Src, ctx: &ExecCtx, out: &mut [u64; WARP_LANES]) {
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
        Src::SReg(sr) => {
            for (l, slot) in out.iter_mut().enumerate() {
                *slot = w.special(l, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads) as u64;
            }
        }
        Src::CMem { bank, offset } => out.fill(ctx.consts.read_u64(bank, offset as u32)),
    }
}

/// Writes per-lane results to a destination register for the given lanes.
#[inline]
fn store32(w: &mut WarpState, d: Register, lanes: &[usize], vals: &[u32; WARP_LANES]) {
    if d.is_zero() {
        return;
    }
    let row = &mut w.regs[d.index() as usize];
    for &l in lanes {
        row[l] = vals[l];
    }
}

/// Writes per-lane results to a destination register pair.
#[inline]
fn store64(w: &mut WarpState, d: Register, lanes: &[usize], vals: &[u64; WARP_LANES]) {
    for &l in lanes {
        w.write_pair(l, d, vals[l]);
    }
}

/// Unary 32-bit lane op over materialized sources.
#[inline]
fn un32(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32) -> u32,
) {
    let mut a = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    let mut o = [0u32; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    store32(w, d, lanes, &o);
}

/// Binary 32-bit lane op over materialized sources.
#[inline]
fn bin32(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32, u32) -> u32,
) {
    let mut a = [0u32; WARP_LANES];
    let mut b = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    fill32(w, sb, ctx, &mut b);
    let mut o = [0u32; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l]);
    }
    store32(w, d, lanes, &o);
}

/// Ternary 32-bit lane op over materialized sources.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tri32(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    sc: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let mut a = [0u32; WARP_LANES];
    let mut b = [0u32; WARP_LANES];
    let mut c = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    fill32(w, sb, ctx, &mut b);
    fill32(w, sc, ctx, &mut c);
    let mut o = [0u32; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l], c[l]);
    }
    store32(w, d, lanes, &o);
}

/// Unary 64-bit lane op over materialized sources.
#[inline]
fn un64(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64) -> u64,
) {
    let mut a = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    let mut o = [0u64; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    store64(w, d, lanes, &o);
}

/// Binary 64-bit lane op over materialized sources.
#[inline]
fn bin64(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64, u64) -> u64,
) {
    let mut a = [0u64; WARP_LANES];
    let mut b = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    fill64(w, sb, ctx, &mut b);
    let mut o = [0u64; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l]);
    }
    store64(w, d, lanes, &o);
}

/// Ternary 64-bit lane op over materialized sources.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tri64(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    sc: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let mut a = [0u64; WARP_LANES];
    let mut b = [0u64; WARP_LANES];
    let mut c = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    fill64(w, sb, ctx, &mut b);
    fill64(w, sc, ctx, &mut c);
    let mut o = [0u64; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l], c[l]);
    }
    store64(w, d, lanes, &o);
}

/// 32→64-bit conversion lane op.
#[inline]
fn cvt32to64(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32) -> u64,
) {
    let mut a = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    let mut o = [0u64; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    store64(w, d, lanes, &o);
}

/// 64→32-bit conversion lane op.
#[inline]
fn cvt64to32(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64) -> u32,
) {
    let mut a = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    let mut o = [0u32; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    store32(w, d, lanes, &o);
}

/// Predicate-setting comparison over materialized 32-bit sources.
#[inline]
fn setp32(
    w: &mut WarpState,
    p: gpa_isa::PredReg,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32, u32) -> bool,
) {
    let mut a = [0u32; WARP_LANES];
    let mut b = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    fill32(w, sb, ctx, &mut b);
    for &l in lanes {
        w.write_pred(l, p, f(a[l], b[l]));
    }
}

/// Predicate-setting comparison over materialized 64-bit sources.
#[inline]
fn setp64(
    w: &mut WarpState,
    p: gpa_isa::PredReg,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64, u64) -> bool,
) {
    let mut a = [0u64; WARP_LANES];
    let mut b = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    fill64(w, sb, ctx, &mut b);
    for &l in lanes {
        w.write_pred(l, p, f(a[l], b[l]));
    }
}

fn f32v(bits: u32) -> f32 {
    f32::from_bits(bits)
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
    let [sa, sb, sc] = plan.srcs;
    match plan.opcode {
        Mov | Mov32i | I2i if plan.pair => un64(w, d, lanes, sa, ctx, |a| a),
        Mov | Mov32i | I2i | S2r | Cs2r => un32(w, d, lanes, sa, ctx, |a| a),
        Iadd if plan.pair => bin64(w, d, lanes, sa, sb, ctx, |a, b| a.wrapping_add(b)),
        Iadd => bin32(w, d, lanes, sa, sb, ctx, |a, b| a.wrapping_add(b)),
        Iadd3 => tri32(w, d, lanes, sa, sb, sc, ctx, |a, b, c| a.wrapping_add(b).wrapping_add(c)),
        Imad if plan.has(Modifier::Wide) => {
            let signed = plan.has(Modifier::S32);
            let mut a = [0u32; WARP_LANES];
            let mut b = [0u32; WARP_LANES];
            let mut c = [0u64; WARP_LANES];
            fill32(w, sa, ctx, &mut a);
            fill32(w, sb, ctx, &mut b);
            fill64(w, sc, ctx, &mut c);
            let mut o = [0u64; WARP_LANES];
            for &l in lanes {
                let prod = if signed {
                    (a[l] as i32 as i64).wrapping_mul(b[l] as i32 as i64) as u64
                } else {
                    (a[l] as u64).wrapping_mul(b[l] as u64)
                };
                o[l] = prod.wrapping_add(c[l]);
            }
            store64(w, d, lanes, &o);
        }
        Imad => tri32(w, d, lanes, sa, sb, sc, ctx, |a, b, c| a.wrapping_mul(b).wrapping_add(c)),
        Imul => bin32(w, d, lanes, sa, sb, ctx, |a, b| a.wrapping_mul(b)),
        Isetp => {
            let (op, unsigned) = (plan.cmp, plan.has(Modifier::U32));
            setp32(w, p, lanes, sa, sb, ctx, |a, b| {
                let ord = if unsigned { a.cmp(&b) } else { (a as i32).cmp(&(b as i32)) };
                cmp_apply(op, ord)
            });
        }
        Lea if plan.pair => {
            let shift = plan.shift;
            let mut a = [0u32; WARP_LANES];
            let mut b = [0u64; WARP_LANES];
            fill32(w, sa, ctx, &mut a);
            fill64(w, sb, ctx, &mut b);
            let mut o = [0u64; WARP_LANES];
            for &l in lanes {
                o[l] = b[l].wrapping_add((a[l] as u64) << shift);
            }
            store64(w, d, lanes, &o);
        }
        Lea => {
            let shift = plan.shift;
            bin32(w, d, lanes, sa, sb, ctx, |a, b| b.wrapping_add(a << shift));
        }
        Lop3 => {
            let (or, xor) = (plan.has(Modifier::Or), plan.has(Modifier::Xor));
            bin32(w, d, lanes, sa, sb, ctx, |a, b| {
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
            bin32(w, d, lanes, sa, sb, ctx, |a, s| {
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
            bin32(w, d, lanes, sa, sb, ctx, |a, b| match (unsigned, take_max) {
                (true, true) => a.max(b),
                (true, false) => a.min(b),
                (false, true) => (a as i32).max(b as i32) as u32,
                (false, false) => (a as i32).min(b as i32) as u32,
            });
        }
        Iabs => un32(w, d, lanes, sa, ctx, |a| (a as i32).unsigned_abs()),
        Popc => un32(w, d, lanes, sa, ctx, |a| a.count_ones()),
        Sel => {
            let mut a = [0u32; WARP_LANES];
            let mut b = [0u32; WARP_LANES];
            fill32(w, sa, ctx, &mut a);
            fill32(w, sb, ctx, &mut b);
            let mut o = [0u32; WARP_LANES];
            for &l in lanes {
                o[l] = if w.read_pred(l, p) { a[l] } else { b[l] };
            }
            store32(w, d, lanes, &o);
        }
        Fadd => bin32(w, d, lanes, sa, sb, ctx, |a, b| (f32v(a) + f32v(b)).to_bits()),
        Fmul => bin32(w, d, lanes, sa, sb, ctx, |a, b| (f32v(a) * f32v(b)).to_bits()),
        Ffma => tri32(w, d, lanes, sa, sb, sc, ctx, |a, b, c| {
            f32v(a).mul_add(f32v(b), f32v(c)).to_bits()
        }),
        Fmnmx if plan.has(Modifier::Gt) => {
            bin32(w, d, lanes, sa, sb, ctx, |a, b| f32v(a).max(f32v(b)).to_bits());
        }
        Fmnmx => bin32(w, d, lanes, sa, sb, ctx, |a, b| f32v(a).min(f32v(b)).to_bits()),
        Fsetp => {
            let op = plan.cmp;
            setp32(w, p, lanes, sa, sb, ctx, |a, b| {
                let ord = f32v(a).partial_cmp(&f32v(b)).unwrap_or(std::cmp::Ordering::Greater);
                cmp_apply(op, ord)
            });
        }
        Mufu => {
            let func = plan.mufu;
            un32(w, d, lanes, sa, ctx, |a| {
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
        Dadd => bin64(w, d, lanes, sa, sb, ctx, |a, b| {
            (f64::from_bits(a) + f64::from_bits(b)).to_bits()
        }),
        Dmul => bin64(w, d, lanes, sa, sb, ctx, |a, b| {
            (f64::from_bits(a) * f64::from_bits(b)).to_bits()
        }),
        Dfma => tri64(w, d, lanes, sa, sb, sc, ctx, |a, b, c| {
            f64::from_bits(a).mul_add(f64::from_bits(b), f64::from_bits(c)).to_bits()
        }),
        Dsetp => {
            let op = plan.cmp;
            setp64(w, p, lanes, sa, sb, ctx, |a, b| {
                let ord = f64::from_bits(a)
                    .partial_cmp(&f64::from_bits(b))
                    .unwrap_or(std::cmp::Ordering::Greater);
                cmp_apply(op, ord)
            });
        }
        // Modifier order is [dst, src].
        F2f if plan.first_mod == Some(Modifier::F64) => {
            cvt32to64(w, d, lanes, sa, ctx, |a| (f32v(a) as f64).to_bits());
        }
        F2f => cvt64to32(w, d, lanes, sa, ctx, |a| (f64::from_bits(a) as f32).to_bits()),
        F2i if plan.has(Modifier::F64) => {
            cvt64to32(w, d, lanes, sa, ctx, |a| f64::from_bits(a) as i32 as u32);
        }
        F2i => un32(w, d, lanes, sa, ctx, |a| f32v(a) as i32 as u32),
        I2f if plan.has(Modifier::F64) => {
            cvt32to64(w, d, lanes, sa, ctx, |a| (a as i32 as f64).to_bits());
        }
        I2f => un32(w, d, lanes, sa, ctx, |a| (a as i32 as f32).to_bits()),
        Shfl => {
            // Snapshot before writing (source and destination may alias).
            let mut snapshot = [0u32; WARP_LANES];
            fill32(w, sa, ctx, &mut snapshot);
            for &l in lanes {
                let idx = (get32(w, l, sb, ctx) as usize) % WARP_LANES;
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
        Prmt => tri32(w, d, lanes, sa, sb, sc, ctx, |a, b, sel| {
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
            memory_op(w, plan, lanes, ctx, access)?;
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

fn memory_op(
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
    let (d, width, sdata) = (plan.d, plan.width, plan.srcs[0]);
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
                if width == 8 {
                    let v = rd.read_u64(addr);
                    w.write_pair(l, d, v);
                } else {
                    let v = rd.read_u32(addr);
                    w.write_reg(l, d, v);
                }
            }
        }
        Ldl => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, m.wide);
                access.push(addr);
                let v = read_local(w, l, addr, width, pc)?;
                if width == 8 {
                    w.write_pair(l, d, v);
                } else {
                    w.write_reg(l, d, v as u32);
                }
            }
        }
        Stg => {
            let m = mem_operand();
            // Collect the warp's stores and commit them page-run at a
            // time (stores never feed back into this instruction's
            // register reads, so deferring them is exact).
            let mut b32 = [(0u64, 0u32); WARP_LANES];
            let mut b64 = [(0u64, 0u64); WARP_LANES];
            for (n, &l) in lanes.iter().enumerate() {
                let addr = lane_addr(w, l, m, m.wide);
                access.push(addr);
                if width == 8 {
                    b64[n] = (addr, get64(w, l, sdata, ctx));
                } else {
                    b32[n] = (addr, get32(w, l, sdata, ctx));
                }
            }
            if width == 8 {
                ctx.global.write_batch_u64(&b64[..lanes.len()]);
            } else {
                ctx.global.write_batch_u32(&b32[..lanes.len()]);
            }
        }
        Stl | Sts => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, m.wide && plan.opcode == Stl);
                access.push(addr);
                let v: u64 = if width == 8 {
                    get64(w, l, sdata, ctx)
                } else {
                    get32(w, l, sdata, ctx) as u64
                };
                if plan.opcode == Stl {
                    write_local(w, l, addr, v, width, pc)?;
                } else {
                    write_smem(ctx.smem, addr, v, width, pc)?;
                }
            }
        }
        Lds => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, false);
                access.push(addr);
                let v = read_smem(ctx.smem, addr, width, pc)?;
                if width == 8 {
                    w.write_pair(l, d, v);
                } else {
                    w.write_reg(l, d, v as u32);
                }
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
                if width == 8 {
                    w.write_pair(l, d, ctx.consts.read_u64(bank, addr as u32));
                } else {
                    w.write_reg(l, d, ctx.consts.read_u32(bank, addr as u32));
                }
            }
        }
        AtomG => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, m.wide);
                access.push(addr);
                let old = ctx.global.read_u32(addr);
                let v = get32(w, l, sdata, ctx);
                ctx.global.write_u32(addr, old.wrapping_add(v));
                w.write_reg(l, d, old);
            }
        }
        AtomS => {
            let m = mem_operand();
            for &l in lanes {
                let addr = lane_addr(w, l, m, false);
                access.push(addr);
                let old = read_smem(ctx.smem, addr, 4, pc)? as u32;
                let v = get32(w, l, sdata, ctx);
                write_smem(ctx.smem, addr, old.wrapping_add(v) as u64, 4, pc)?;
                w.write_reg(l, d, old);
            }
        }
        _ => unreachable!("non-memory opcode in memory_op"),
    }

    Ok(())
}

const MAX_SMEM: u64 = 96 * 1024;
const MAX_LOCAL: u64 = 64 * 1024;

fn read_smem(smem: &mut Vec<u8>, addr: u64, width: u64, pc: u64) -> Result<u64> {
    ensure_smem(smem, addr, width, pc)?;
    let mut v = 0u64;
    for i in 0..width {
        v |= (smem[(addr + i) as usize] as u64) << (8 * i);
    }
    Ok(v)
}

fn write_smem(smem: &mut Vec<u8>, addr: u64, v: u64, width: u64, pc: u64) -> Result<()> {
    ensure_smem(smem, addr, width, pc)?;
    for i in 0..width {
        smem[(addr + i) as usize] = (v >> (8 * i)) as u8;
    }
    Ok(())
}

/// Grows `smem` to cover `addr .. addr + width`. `addr` comes from a
/// wrapping add of a signed offset, so the end may not fit a `u64`: it
/// saturates, and faults like any other end beyond the limit.
fn ensure_smem(smem: &mut Vec<u8>, addr: u64, width: u64, pc: u64) -> Result<()> {
    let end = addr.saturating_add(width);
    if end > MAX_SMEM {
        return Err(fault(pc, format!("shared-memory access at {end:#x} exceeds 96 KiB")));
    }
    if smem.len() < end as usize {
        smem.resize(end as usize, 0);
    }
    Ok(())
}

fn read_local(w: &mut WarpState, lane: usize, addr: u64, width: u64, pc: u64) -> Result<u64> {
    ensure_local(w, lane, addr, width, pc)?;
    let buf = &w.local[lane];
    let mut v = 0u64;
    for i in 0..width {
        v |= (buf[(addr + i) as usize] as u64) << (8 * i);
    }
    Ok(v)
}

fn write_local(
    w: &mut WarpState,
    lane: usize,
    addr: u64,
    v: u64,
    width: u64,
    pc: u64,
) -> Result<()> {
    ensure_local(w, lane, addr, width, pc)?;
    let buf = &mut w.local[lane];
    for i in 0..width {
        buf[(addr + i) as usize] = (v >> (8 * i)) as u8;
    }
    Ok(())
}

/// [`ensure_smem`] for one lane's local memory.
fn ensure_local(w: &mut WarpState, lane: usize, addr: u64, width: u64, pc: u64) -> Result<()> {
    let end = addr.saturating_add(width);
    if end > MAX_LOCAL {
        return Err(fault(pc, format!("local-memory access at {end:#x} exceeds 64 KiB")));
    }
    if w.local[lane].len() < end as usize {
        w.local[lane].resize(end as usize, 0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::{Instruction, Operand, PredReg, Predicate, SpecialReg};

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
                        let mut nans: Vec<u32> = [a, b, c][..nsrc]
                            .iter()
                            .copied()
                            .filter(|v| f32v(*v).is_nan())
                            .collect();
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
        let atoms = Instruction::new(
            Opcode::AtomS,
            vec![Operand::Reg(r(1))],
            vec![below, Operand::Reg(r(0))],
        );
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
                Instruction::new(
                    Opcode::Iadd,
                    vec![Operand::Reg(r(0))],
                    vec![Operand::Imm(1), pred],
                ),
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
}
