//! Backward slicing with predicate cover and virtual barrier registers.
//!
//! For a stalled *use* instruction, the immediate dependency sources are
//! the first definitions of each used slot on every backward path — but
//! predicated definitions only partially kill earlier ones. The paper's
//! rule: the search continues until the union `P` of definition guards on
//! the path *contains* the use's guard `p′`, where `{Pi} ∪ {!Pi} = {_}`.

use gpa_cfg::{BlockId, Cfg};
use gpa_isa::{Function, Opcode, Predicate, Slot};
use std::collections::HashSet;

/// A compact set of guard literals: bits `2i`/`2i+1` are `Pi`/`!Pi`; the
/// catch-all `_` is represented by covering some pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct Cover(u16);

const FULL_BIT: u16 = 1 << 14;

impl Cover {
    /// The empty cover.
    pub(crate) fn empty() -> Self {
        Cover(0)
    }

    /// Adds a guard literal (`None` is the catch-all `_`).
    pub(crate) fn with_guard(self, guard: Option<Predicate>) -> Self {
        match guard {
            None => Cover(self.0 | FULL_BIT),
            Some(p) if p.reg.is_true() => {
                if p.negated {
                    self // @!PT never executes; contributes nothing
                } else {
                    Cover(self.0 | FULL_BIT)
                }
            }
            Some(p) => {
                let bit = 2 * p.reg.index() as u16 + u16::from(p.negated);
                Cover(self.0 | (1 << bit))
            }
        }
    }

    /// Whether the union covers all executions.
    pub(crate) fn is_full(self) -> bool {
        if self.0 & FULL_BIT != 0 {
            return true;
        }
        (0..7).any(|i| {
            let pos = 1u16 << (2 * i);
            let neg = 1u16 << (2 * i + 1);
            self.0 & pos != 0 && self.0 & neg != 0
        })
    }

    /// Whether the union contains the use guard `p'` (the search-stop
    /// condition).
    pub(crate) fn contains(self, guard: Option<Predicate>) -> bool {
        if self.is_full() {
            return true;
        }
        match guard {
            None => false,
            Some(p) if p.reg.is_true() => false, // `_`/`@PT` needs full
            Some(p) => {
                let bit = 2 * p.reg.index() as u16 + u16::from(p.negated);
                self.0 & (1 << bit) != 0
            }
        }
    }

    /// Whether a definition with guard `g` can still reach a use with
    /// guard `use_guard` given this cover (i.e. it is not already killed
    /// and not disjoint from the use's condition).
    pub(crate) fn def_is_live(self, g: Option<Predicate>, use_guard: Option<Predicate>) -> bool {
        if self.is_full() {
            return false;
        }
        // A definition guarded by the complement of the use guard never
        // feeds it.
        if let (Some(g), Some(u)) = (g, use_guard) {
            if g.reg == u.reg && g.negated != u.negated && !g.reg.is_true() {
                return false;
            }
        }
        match g {
            None => true,
            Some(p) if p.reg.is_true() => !p.negated,
            Some(p) => {
                let bit = 2 * p.reg.index() as u16 + u16::from(p.negated);
                self.0 & (1 << bit) == 0
            }
        }
    }
}

/// Immediate dependency sources of `slot` at `use_idx`: the first
/// definitions on every backward path, continuing past predicated
/// definitions until the cover contains the use's guard.
pub fn immediate_defs(f: &Function, cfg: &Cfg, use_idx: usize, slot: Slot) -> Vec<usize> {
    search(f, cfg, use_idx, |f, idx| f.instrs[idx].defs().any(|s| s == slot))
}

/// Immediate synchronization sources: the nearest `BAR.SYNC` on every
/// backward path (synchronization stalls are attributed to them).
pub(crate) fn nearest_barriers(f: &Function, cfg: &Cfg, use_idx: usize) -> Vec<usize> {
    search(f, cfg, use_idx, |f, idx| f.instrs[idx].opcode == Opcode::Bar)
}

fn search(
    f: &Function,
    cfg: &Cfg,
    use_idx: usize,
    is_def: impl Fn(&Function, usize) -> bool,
) -> Vec<usize> {
    let use_guard = f.instrs[use_idx].pred;
    let mut results: Vec<usize> = Vec::new();
    // A walk `(block, top, cover)` goes up `block` from instruction
    // `top - 1`; what it finds depends only on where it starts and with
    // which cover. Only walks that enter at a block's end can meet again,
    // so only those are recorded (the first one starts above the use).
    let mut entered: HashSet<(BlockId, Cover)> = HashSet::new();
    let mut walks = vec![(cfg.block_of(use_idx), use_idx, Cover::empty())];
    while let Some((b, top, mut cover)) = walks.pop() {
        let block = cfg.block(b);
        if top == block.end && !entered.insert((b, cover)) {
            continue;
        }
        let explained = (block.start..top).rev().any(|idx| {
            if !is_def(f, idx) {
                return false;
            }
            let g = f.instrs[idx].pred;
            if cover.def_is_live(g, use_guard) && !results.contains(&idx) {
                results.push(idx);
            }
            cover = cover.with_guard(g);
            cover.contains(use_guard) // this path is fully explained
        });
        if !explained {
            walks.extend(cfg.preds(b).iter().map(|&p| (p, cfg.block(p).end, cover)));
        }
    }
    results.sort_unstable();
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::{parse_module, BarrierReg, Register};

    fn setup(src: &str) -> (gpa_isa::Module, Cfg) {
        let m = parse_module(src).unwrap();
        let cfg = Cfg::build(m.function("k").unwrap());
        (m, cfg)
    }

    #[test]
    fn straight_line_def() {
        let (m, cfg) = setup(
            ".kernel k\n  MOV32I R0, 1 {S:1}\n  MOV32I R1, 2 {S:1}\n  IADD R2, R0, R1 {S:4}\n  EXIT\n.endfunc\n",
        );
        let f = m.function("k").unwrap();
        let defs = immediate_defs(f, &cfg, 2, Slot::Reg(Register::from_u8(0)));
        assert_eq!(defs, vec![0]);
    }

    /// Paper Figure 3: the LDG writes barrier B0; the BRA waits on B0 but
    /// consumes no register — the dependency flows through the virtual
    /// barrier register.
    #[test]
    fn figure3_barrier_register_dependency() {
        let (m, cfg) = setup(
            ".kernel k\n  LDG.E.32 R0, [R2:R3] {W:B0, S:1}\n  BRA out {WT:[B0], S:5}\nout:\n  EXIT\n.endfunc\n",
        );
        let f = m.function("k").unwrap();
        let defs = immediate_defs(f, &cfg, 1, Slot::Bar(BarrierReg::new(0).unwrap()));
        assert_eq!(defs, vec![0], "BRA's B0 wait traces back to the LDG");
    }

    /// Paper Figure 4a: the search must proceed past the predicated LDG
    /// until the predicates on the path cover the unpredicated use.
    #[test]
    fn figure4_predicate_cover() {
        let (m, cfg) = setup(
            r#"
.kernel k
  ISETP.LT.AND P0, R4, R5 {S:2}
  @!P0 LDC.32 R0, [R4] {W:B0, S:1}
  @P0 LDG.E.32 R0, [R2:R3] {W:B0, S:1}
  IADD R8, R0, R7 {WT:[B0], S:4}
  EXIT
.endfunc
"#,
        );
        let f = m.function("k").unwrap();
        let defs = immediate_defs(f, &cfg, 3, Slot::Reg(Register::from_u8(0)));
        assert_eq!(defs, vec![1, 2], "both predicated definitions are live");
    }

    #[test]
    fn unpredicated_def_stops_search() {
        let (m, cfg) = setup(
            r#"
.kernel k
  MOV32I R0, 7 {S:1}
  IMAD R0, R4, R5, R0 {S:5}
  @P0 LDG.E.32 R0, [R2:R3] {W:B0, S:1}
  IADD R8, R0, R7 {WT:[B0], S:4}
  EXIT
.endfunc
"#,
        );
        let f = m.function("k").unwrap();
        let defs = immediate_defs(f, &cfg, 3, Slot::Reg(Register::from_u8(0)));
        // The predicated LDG is live; the IMAD behind it covers `_` and
        // hides the MOV32I.
        assert_eq!(defs, vec![1, 2]);
    }

    #[test]
    fn complementary_def_is_dead_for_predicated_use() {
        let (m, cfg) = setup(
            r#"
.kernel k
  @!P0 MOV32I R0, 1 {S:1}
  @P0 MOV32I R0, 2 {S:1}
  @P0 IADD R8, R0, R7 {S:4}
  EXIT
.endfunc
"#,
        );
        let f = m.function("k").unwrap();
        let defs = immediate_defs(f, &cfg, 2, Slot::Reg(Register::from_u8(0)));
        assert_eq!(defs, vec![1], "the @!P0 definition cannot feed a @P0 use");
    }

    #[test]
    fn cross_iteration_def_found_through_back_edge() {
        let (m, cfg) = setup(
            r#"
.kernel k
  MOV32I R0, 0 {S:1}
top:
  IADD R1, R0, 1 {S:4}
  IADD R0, R1, 2 {S:4}
  ISETP.LT.AND P0, R0, 100 {S:2}
  @P0 BRA top {S:5}
  EXIT
.endfunc
"#,
        );
        let f = m.function("k").unwrap();
        // Use of R0 at the loop head: defs are the MOV before the loop and
        // the IADD at the bottom (through the back edge).
        let defs = immediate_defs(f, &cfg, 1, Slot::Reg(Register::from_u8(0)));
        assert_eq!(defs, vec![0, 2]);
    }

    #[test]
    fn nearest_barrier_found() {
        let (m, cfg) = setup(
            r#"
.kernel k
  BAR.SYNC {S:2}
  MOV R1, R2 {S:1}
  BAR.SYNC {S:2}
  IADD R3, R1, R1 {S:4}
  EXIT
.endfunc
"#,
        );
        let f = m.function("k").unwrap();
        assert_eq!(nearest_barriers(f, &cfg, 3), vec![2], "only the nearest BAR");
    }

    #[test]
    fn diamond_finds_defs_on_both_arms() {
        let (m, cfg) = setup(
            r#"
.kernel k
  ISETP.LT.AND P0, R4, R5 {S:2}
  @P0 BRA other {S:5}
  MOV32I R0, 1 {S:1}
  BRA join {S:5}
other:
  MOV32I R0, 2 {S:1}
join:
  IADD R8, R0, R7 {S:4}
  EXIT
.endfunc
"#,
        );
        let f = m.function("k").unwrap();
        let defs = immediate_defs(f, &cfg, 5, Slot::Reg(Register::from_u8(0)));
        assert_eq!(defs, vec![2, 4]);
    }
}
