//! Natural-loop detection and nesting.

use crate::block::{BlockId, Cfg};
use crate::dom::Dominators;
use std::collections::BTreeSet;

/// Index of a loop inside a [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub usize);

/// One natural loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// This loop's id.
    pub id: LoopId,
    /// The loop header (dominates all blocks of the loop).
    pub header: BlockId,
    /// All blocks belonging to the loop, including the header.
    pub blocks: BTreeSet<BlockId>,
    /// The immediately enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth (outermost loops have depth 1).
    pub depth: u32,
}

impl Loop {
    /// Whether the loop contains block `b`.
    pub(crate) fn contains_block(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of a function and their nesting relation.
///
/// Loops sharing a header are merged (as Dyninst does). The forest feeds
/// two consumers: the Loop Unrolling optimizer (def and use inside the same
/// loop) and Eq. 5's scope analysis (active samples of a scope and all
/// scopes nested inside it).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop per block.
    innermost: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Detects loops from back edges (`u → h` where `h` dominates `u`).
    pub fn build(cfg: &Cfg) -> Self {
        let dom = Dominators::build(cfg);
        Self::build_with_dominators(cfg, &dom)
    }

    /// Like [`LoopForest::build`], reusing a dominator tree.
    pub fn build_with_dominators(cfg: &Cfg, dom: &Dominators) -> Self {
        let n = cfg.blocks().len();
        // Gather back edges grouped by header.
        let mut headers: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for b in cfg.blocks() {
            for &s in cfg.succs(b.id) {
                if dom.dominates(s, b.id) {
                    match headers.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(b.id),
                        None => headers.push((s, vec![b.id])),
                    }
                }
            }
        }
        // Natural loop of (header, latches): header plus everything that
        // reaches a latch without passing through the header.
        let mut loops: Vec<Loop> = Vec::new();
        for (header, latches) in headers {
            let mut blocks: BTreeSet<BlockId> = BTreeSet::new();
            blocks.insert(header);
            let mut stack: Vec<BlockId> = Vec::new();
            for l in latches {
                if blocks.insert(l) {
                    stack.push(l);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in cfg.preds(b) {
                    if blocks.insert(p) {
                        stack.push(p);
                    }
                }
            }
            loops.push(Loop { id: LoopId(loops.len()), header, blocks, parent: None, depth: 1 });
        }
        // Nesting: loop A is nested in B iff A's blocks ⊂ B's blocks.
        // Sort by size so parents come after children among candidates.
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..loops.len()).collect();
            idx.sort_by_key(|&i| loops[i].blocks.len());
            idx
        };
        for (pos, &i) in order.iter().enumerate() {
            // The smallest strictly-containing loop is the parent.
            let mut best: Option<usize> = None;
            for &j in order.iter().skip(pos + 1) {
                if loops[j].blocks.len() > loops[i].blocks.len()
                    && loops[i].blocks.is_subset(&loops[j].blocks)
                {
                    best = match best {
                        Some(b) if loops[b].blocks.len() <= loops[j].blocks.len() => Some(b),
                        _ => Some(j),
                    };
                }
            }
            if let Some(p) = best {
                loops[i].parent = Some(LoopId(p));
            }
        }
        // Depths.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.0].parent;
            }
            loops[i].depth = d;
        }
        // Innermost loop per block = smallest loop containing it.
        let mut innermost: Vec<Option<LoopId>> = vec![None; n];
        for (bi, slot) in innermost.iter_mut().enumerate() {
            let mut best: Option<usize> = None;
            for (li, l) in loops.iter().enumerate() {
                if l.blocks.contains(&BlockId(bi)) {
                    best = match best {
                        Some(b) if loops[b].blocks.len() <= l.blocks.len() => Some(b),
                        _ => Some(li),
                    };
                }
            }
            *slot = best.map(LoopId);
        }
        LoopForest { loops, innermost }
    }

    /// All loops.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The loop with the given id.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.0]
    }

    /// The innermost loop containing block `b`.
    pub(crate) fn innermost_of_block(&self, b: BlockId) -> Option<LoopId> {
        self.innermost.get(b.0).copied().flatten()
    }

    /// The innermost loop containing instruction `idx`.
    pub fn innermost_of_instr(&self, cfg: &Cfg, idx: usize) -> Option<LoopId> {
        self.innermost_of_block(cfg.block_of(idx))
    }

    /// Whether instruction `idx` belongs to loop `l` (including nested
    /// loops' blocks, which are part of `l` by construction).
    pub fn loop_contains_instr(&self, cfg: &Cfg, l: LoopId, idx: usize) -> bool {
        self.loops[l.0].contains_block(cfg.block_of(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::parse_module;

    #[test]
    fn nested_loops() {
        let m = parse_module(
            r#"
.kernel k
  MOV32I R0, 0 {S:1}
outer:
  MOV32I R1, 0 {S:1}
inner:
  IADD R1, R1, 1 {S:4}
  ISETP.LT.AND P0, R1, 8 {S:2}
  @P0 BRA inner {S:5}
  IADD R0, R0, 1 {S:4}
  ISETP.LT.AND P1, R0, 4 {S:2}
  @P1 BRA outer {S:5}
  EXIT
.endfunc
"#,
        )
        .unwrap();
        let f = m.function("k").unwrap();
        let cfg = Cfg::build(f);
        let forest = LoopForest::build(&cfg);
        assert_eq!(forest.loops().len(), 2);
        let inner = forest.innermost_of_instr(&cfg, 2).expect("inner body in a loop");
        let outer = forest.innermost_of_instr(&cfg, 5).expect("outer body in a loop");
        assert_eq!(forest.get(inner).depth, 2);
        assert_eq!(forest.get(outer).depth, 1);
        assert_eq!(forest.get(inner).parent, Some(outer));
        // The outer loop holds the inner loop's instructions, not the reverse.
        assert!(forest.loop_contains_instr(&cfg, outer, 2));
        assert!(!forest.loop_contains_instr(&cfg, inner, 5));
        // The trailing EXIT is in no loop.
        let exit_idx = f.instrs.len() - 1;
        assert_eq!(forest.innermost_of_instr(&cfg, exit_idx), None);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let m = parse_module(".kernel k\n  MOV R0, R1 {S:1}\n  EXIT\n.endfunc\n").unwrap();
        let cfg = Cfg::build(m.function("k").unwrap());
        assert!(LoopForest::build(&cfg).loops().is_empty());
    }
}
