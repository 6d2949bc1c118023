//! Basic-block construction.

use gpa_isa::{Function, Opcode};

/// Index of a basic block inside a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock {
    /// This block's id.
    pub id: BlockId,
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block is empty (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The control-flow graph of one function.
///
/// Instruction indices are positions in `Function::instrs`. Terminators are
/// `BRA` (conditional if predicated), `EXIT` and `RET`; `CAL` does not end a
/// block (the CFG is intra-procedural, matching the paper's intra-function
/// backward slicing).
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    block_of: Vec<BlockId>,
    rpo: Vec<BlockId>,
}

impl Cfg {
    /// Builds the CFG of `f` (which must be linked so branch targets are
    /// absolute PCs).
    ///
    /// Targets outside the function (tail calls) are treated as function
    /// exits. Super blocks are split at every branch target, which is the
    /// paper's "split super blocks into basic blocks" step.
    pub fn build(f: &Function) -> Self {
        let n = f.instrs.len();
        let mut leader = vec![false; n.max(1)];
        if n > 0 {
            leader[0] = true;
        }
        for (i, instr) in f.instrs.iter().enumerate() {
            match instr.opcode {
                Opcode::Bra => {
                    if let Some(t) = instr.branch_target() {
                        if let Some(idx) = f.index_of_pc(t) {
                            leader[idx] = true;
                        }
                    }
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                }
                Opcode::Exit | Opcode::Ret if i + 1 < n => {
                    leader[i + 1] = true;
                }
                _ => {}
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![BlockId(0); n];
        let mut start = 0;
        for (i, &lead) in leader.iter().enumerate() {
            if i > start && lead {
                let id = BlockId(blocks.len());
                blocks.push(BasicBlock { id, start, end: i });
                start = i;
            }
        }
        if n > 0 {
            let id = BlockId(blocks.len());
            blocks.push(BasicBlock { id, start, end: n });
        }
        for b in &blocks {
            block_of[b.start..b.end].fill(b.id);
        }
        let mut succs = vec![Vec::new(); blocks.len()];
        let mut preds = vec![Vec::new(); blocks.len()];
        for b in &blocks {
            let last = &f.instrs[b.end - 1];
            let mut targets: Vec<BlockId> = Vec::new();
            match last.opcode {
                Opcode::Bra => {
                    if let Some(t) = last.branch_target() {
                        if let Some(idx) = f.index_of_pc(t) {
                            targets.push(block_of[idx]);
                        }
                    }
                    // A predicated branch may fall through.
                    let conditional = last.pred.is_some_and(|p| !p.always());
                    if conditional && b.end < n {
                        targets.push(block_of[b.end]);
                    }
                }
                Opcode::Exit | Opcode::Ret => {}
                _ => {
                    if b.end < n {
                        targets.push(block_of[b.end]);
                    }
                }
            }
            targets.dedup();
            for t in targets {
                succs[b.id.0].push(t);
                preds[t.0].push(b.id);
            }
        }
        let rpo = reverse_postorder(&succs);
        Cfg { blocks, succs, preds, block_of, rpo }
    }

    /// All basic blocks in layout order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The entry block.
    pub(crate) fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Successor blocks.
    pub(crate) fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.0]
    }

    /// Predecessor blocks.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.0]
    }

    /// The block containing instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn block_of(&self, idx: usize) -> BlockId {
        self.block_of[idx]
    }

    /// The block struct containing instruction `idx`.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0]
    }

    /// Blocks with no successors (function exits).
    pub(crate) fn exits(&self) -> Vec<BlockId> {
        self.blocks.iter().filter(|b| self.succs[b.id.0].is_empty()).map(|b| b.id).collect()
    }

    /// Reverse postorder over blocks reachable from the entry.
    pub(crate) fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }
}

/// Reverse postorder from the entry block over the successor lists.
fn reverse_postorder(succs: &[Vec<BlockId>]) -> Vec<BlockId> {
    let mut visited = vec![false; succs.len()];
    let mut order = Vec::with_capacity(succs.len());
    if succs.is_empty() {
        return order; // an empty function has no entry block
    }
    // Iterative DFS with an explicit "post" marker.
    let mut stack = vec![(BlockId(0), false)];
    while let Some((b, post)) = stack.pop() {
        if post {
            order.push(b);
            continue;
        }
        if visited[b.0] {
            continue;
        }
        visited[b.0] = true;
        stack.push((b, true));
        for &s in &succs[b.0] {
            if !visited[s.0] {
                stack.push((s, false));
            }
        }
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::parse_module;

    pub(crate) fn diamond() -> gpa_isa::Module {
        parse_module(
            r#"
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
"#,
        )
        .unwrap()
    }

    #[test]
    fn diamond_blocks_and_edges() {
        let m = diamond();
        let cfg = Cfg::build(m.function("k").unwrap());
        assert_eq!(cfg.blocks().len(), 4);
        let b0 = BlockId(0);
        assert_eq!(cfg.succs(b0).len(), 2);
        let join = cfg.block_of(5);
        assert_eq!(cfg.preds(join).len(), 2);
        assert_eq!(cfg.exits(), vec![join]);
        // Entry first in reverse postorder; join last.
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.first(), Some(&b0));
        assert_eq!(rpo.last(), Some(&join));
    }

    #[test]
    fn loop_back_edge_forms_cycle() {
        let m = parse_module(
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
        )
        .unwrap();
        let cfg = Cfg::build(m.function("k").unwrap());
        assert_eq!(cfg.blocks().len(), 3);
        let body = cfg.block_of(1);
        assert!(cfg.succs(body).contains(&body), "self loop via back edge");
        assert_eq!(cfg.block(body).len(), 3);
    }

    #[test]
    fn unconditional_branch_has_single_successor() {
        let m = diamond();
        let cfg = Cfg::build(m.function("k").unwrap());
        // Block with `BRA join` unpredicated.
        let b = cfg.block_of(2);
        assert_eq!(cfg.succs(b).len(), 1);
    }
}
