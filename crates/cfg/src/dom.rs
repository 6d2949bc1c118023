//! Dominator and postdominator trees (Cooper–Harvey–Kennedy).

use crate::block::{BlockId, Cfg};

/// The dominator tree of a [`Cfg`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dominators {
    idom: Vec<Option<BlockId>>,
    rpo_index: Vec<usize>,
}

impl Dominators {
    /// Computes dominators with the iterative algorithm of Cooper, Harvey
    /// and Kennedy ("A Simple, Fast Dominance Algorithm").
    pub fn build(cfg: &Cfg) -> Self {
        let n = cfg.blocks().len();
        let rpo = cfg.reverse_postorder();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.0] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        let entry = cfg.entry();
        idom[entry.0] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.0].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0] != Some(ni) {
                        idom[b.0] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom, rpo_index }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub(crate) fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.0] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.0] > rpo_index[b.0] {
            a = idom[a.0].expect("processed block has idom");
        }
        while rpo_index[b.0] > rpo_index[a.0] {
            b = idom[b.0].expect("processed block has idom");
        }
    }
    a
}

/// The postdominator tree, computed over the reversed CFG with a virtual
/// exit node joining all function exits.
///
/// Postdominators give the simulator its branch-reconvergence points (the
/// immediate postdominator of a divergent branch block).
#[derive(Debug, Clone, PartialEq)]
pub struct PostDominators {
    /// Immediate postdominator per block; `None` means the virtual exit.
    ipdom: Vec<Option<BlockId>>,
}

impl PostDominators {
    /// Computes postdominators of `cfg`.
    pub fn build(cfg: &Cfg) -> Self {
        let n = cfg.blocks().len();
        // Virtual node id = n.
        let virt = n;
        let exits = cfg.exits();
        // Predecessors in the reversed graph: the CFG successors, plus the
        // virtual exit for blocks that end the function.
        let preds = |b: usize| -> Vec<usize> {
            let mut ps: Vec<usize> = cfg.succs(BlockId(b)).iter().map(|s| s.0).collect();
            if exits.iter().any(|e| e.0 == b) {
                ps.push(virt);
            }
            ps
        };
        // Reverse postorder on the reversed graph, starting at the virtual
        // exit.
        let mut visited = vec![false; n + 1];
        let mut order = Vec::new();
        let mut stack = vec![(virt, false)];
        while let Some((b, post)) = stack.pop() {
            if post {
                order.push(b);
                continue;
            }
            if visited[b] {
                continue;
            }
            visited[b] = true;
            stack.push((b, true));
            let ps: Vec<usize> = if b == virt {
                cfg.exits().iter().map(|e| e.0).collect()
            } else {
                cfg.preds(BlockId(b)).iter().map(|p| p.0).collect()
            };
            // In the reversed graph, successors of b are the CFG
            // predecessors of b.
            for s in ps {
                if !visited[s] {
                    stack.push((s, false));
                }
            }
        }
        order.reverse();
        let mut rpo_index = vec![usize::MAX; n + 1];
        for (i, &b) in order.iter().enumerate() {
            rpo_index[b] = i;
        }
        let mut idom: Vec<Option<usize>> = vec![None; n + 1];
        idom[virt] = Some(virt);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for p in preds(b) {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => {
                            let (mut x, mut y) = (p, cur);
                            while x != y {
                                while rpo_index[x] > rpo_index[y] {
                                    x = idom[x].expect("processed");
                                }
                                while rpo_index[y] > rpo_index[x] {
                                    y = idom[y].expect("processed");
                                }
                            }
                            x
                        }
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != Some(ni) {
                        idom[b] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        let ipdom = (0..n)
            .map(|b| match idom[b] {
                Some(d) if d != b && d != virt => Some(BlockId(d)),
                _ => None,
            })
            .collect();
        PostDominators { ipdom }
    }

    /// The immediate postdominator of `b`, or `None` if it is the virtual
    /// exit (i.e. `b` ends the function).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom[b.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::parse_module;

    fn build(src: &str) -> (Cfg, Dominators, PostDominators) {
        let m = parse_module(src).unwrap();
        let cfg = Cfg::build(m.function("k").unwrap());
        let dom = Dominators::build(&cfg);
        let pdom = PostDominators::build(&cfg);
        (cfg, dom, pdom)
    }

    const DIAMOND: &str = r#"
.kernel k
  ISETP.LT.AND P0, R0, R1 {S:2}
  @P0 BRA else_part {S:5}
  MOV R2, R3 {S:1}
  BRA join {S:5}
else_part:
  MOV R2, R4 {S:1}
join:
  IADD R5, R2, 1 {S:4}
  EXIT
.endfunc
"#;

    #[test]
    fn diamond_dominators() {
        let (cfg, dom, pdom) = build(DIAMOND);
        let entry = cfg.entry();
        let then_b = cfg.block_of(2);
        let else_b = cfg.block_of(4);
        let join = cfg.block_of(5);
        assert_eq!(dom.idom[then_b.0], Some(entry));
        assert_eq!(dom.idom[else_b.0], Some(entry));
        assert_eq!(dom.idom[join.0], Some(entry));
        assert!(dom.dominates(entry, join));
        assert!(!dom.dominates(then_b, join));
        assert!(dom.dominates(join, join));
        // Reconvergence point of the divergent entry branch is the join.
        assert_eq!(pdom.ipdom(entry), Some(join));
        assert_eq!(pdom.ipdom(then_b), Some(join));
        assert_eq!(pdom.ipdom(join), None);
    }

    #[test]
    fn loop_dominators() {
        let (cfg, dom, pdom) = build(
            r#"
.kernel k
  MOV32I R0, 0 {S:1}
top:
  IADD R0, R0, 1 {S:4}
  ISETP.LT.AND P0, R0, 10 {S:2}
  @P0 BRA top {S:5}
  EXIT
.endfunc
"#,
        );
        let entry = cfg.entry();
        let body = cfg.block_of(1);
        let exit = cfg.block_of(4);
        assert_eq!(dom.idom[body.0], Some(entry));
        assert_eq!(dom.idom[exit.0], Some(body));
        assert_eq!(pdom.ipdom(body), Some(exit));
    }
}
