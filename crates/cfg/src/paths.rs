//! Path-length queries over the CFG.
//!
//! Three queries back GPA's blamer:
//!
//! * [`Cfg::min_instrs_between`] — the *latency-based pruning rule* removes
//!   a dependency edge when the number of instructions on **every** path
//!   from def to use exceeds the def's latency, i.e. when the minimum path
//!   length is already larger than the latency.
//! * [`Cfg::max_instrs_between`] — Eq. 1's path-ratio heuristic uses the
//!   **longest** path between def and use ("if an instruction has multiple
//!   paths, we use the longest one").
//! * [`Cfg::on_every_path`] — the *dominator-based pruning rule* asks
//!   whether a re-defining instruction `k` sits on every path from `i` to
//!   `j`.
//!
//! Lengths count the instructions strictly between the two endpoints.
//! Longest paths are computed on the acyclic graph obtained by ignoring
//! back edges, optionally extended by a single back-edge traversal for
//! dependencies that cross loop iterations (simple paths only, matching
//! the paper's intent without solving the NP-hard general problem).

use crate::block::{BlockId, Cfg};
use crate::dom::Dominators;

impl Cfg {
    /// Minimum number of instructions strictly between instruction `i` and
    /// instruction `j` over all CFG paths; `None` when `j` is unreachable
    /// from `i`.
    ///
    /// Adjacent instructions yield `Some(0)`.
    pub fn min_instrs_between(&self, i: usize, j: usize) -> Option<u32> {
        let bi = self.block_of(i);
        let bj = self.block_of(j);
        if bi == bj && i < j {
            return Some((j - i - 1) as u32);
        }
        // Cost from the end of i's block to the start of j's block, via
        // BFS/Dijkstra over blocks (weights = block sizes, all small).
        let tail = (self.block(bi).end - i - 1) as u32; // instrs after i in its block
        let head = (j - self.block(bj).start) as u32; // instrs before j in its block
        let between = self.shortest_block_path(bi, bj)?;
        Some(tail + between + head)
    }

    /// Length (in instructions) of the shortest block path from the end of
    /// `from` to the start of `to`, counting only intermediate blocks.
    /// Returns `None` if `to` is unreachable from `from`.
    fn shortest_block_path(&self, from: BlockId, to: BlockId) -> Option<u32> {
        // Dijkstra; block count is small, a simple O(V^2) scan suffices.
        let n = self.blocks().len();
        let mut dist: Vec<Option<u32>> = vec![None; n];
        for &s in self.succs(from) {
            let w = if s == to { 0 } else { self.block(s).len() as u32 };
            dist[s.0] = Some(match dist[s.0] {
                Some(d) => d.min(w),
                None => w,
            });
        }
        let mut done = vec![false; n];
        loop {
            let mut best: Option<(usize, u32)> = None;
            for (b, d) in dist.iter().enumerate() {
                if let (false, Some(d)) = (done[b], d) {
                    if best.is_none_or(|(_, bd)| *d < bd) {
                        best = Some((b, *d));
                    }
                }
            }
            let (b, d) = best?;
            if b == to.0 {
                return Some(d);
            }
            done[b] = true;
            for &s in self.succs(BlockId(b)) {
                let w = if s == to { d } else { d + self.block(s).len() as u32 };
                if dist[s.0].is_none_or(|old| w < old) {
                    dist[s.0] = Some(w);
                }
            }
        }
    }

    /// Maximum number of instructions strictly between `i` and `j` over
    /// simple paths (ignoring repeated back-edge traversals); `None` when
    /// unreachable.
    pub fn max_instrs_between(&self, i: usize, j: usize) -> Option<u32> {
        let dom = Dominators::build(self);
        self.max_instrs_between_with(&dom, i, j)
    }

    /// Like [`Cfg::max_instrs_between`] but reusing a dominator tree
    /// (callers issuing many queries should prefer this).
    pub fn max_instrs_between_with(&self, dom: &Dominators, i: usize, j: usize) -> Option<u32> {
        let bi = self.block_of(i);
        let bj = self.block_of(j);
        let tail = (self.block(bi).end - i - 1) as u32;
        let head = (j - self.block(bj).start) as u32;

        // A valid def→use path must not re-execute the def: once the path
        // passes instruction i again, the dependency restarts there. Hence
        // a same-block forward pair only has the straight-line path, and
        // cross-block segments must avoid i's block where it would be
        // re-entered.
        if bi == bj && i < j {
            return Some((j - i - 1) as u32);
        }
        // Longest forward (back-edge-free) path.
        let fwd = self.longest_dag_path(dom, bi, bj, None);
        let mut best: Option<u32> = fwd.map(|between| tail + between + head);
        // One back-edge extension: i ~~> latch, back edge latch→header,
        // header ~~> j, all segments forward.
        let avoid_i = if bi == bj { None } else { Some(bi) };
        for latch in self.blocks() {
            for &h in self.succs(latch.id) {
                if !dom.dominates(h, latch.id) {
                    continue; // not a back edge
                }
                let to_latch = if latch.id == bi {
                    Some(0)
                } else {
                    self.longest_dag_path(dom, bi, latch.id, None)
                        .map(|d| d + latch.id.len_of(self))
                };
                let Some(to_latch) = to_latch else { continue };
                let from_header = if h == bj {
                    Some(0)
                } else {
                    self.longest_dag_path(dom, h, bj, avoid_i).map(|d| d + h.len_of(self))
                };
                let Some(from_header) = from_header else { continue };
                let total = tail + to_latch + from_header + head;
                best = Some(best.map_or(total, |b| b.max(total)));
            }
        }
        best
    }

    /// Longest path (sum of intermediate block sizes) from `from` to `to`
    /// ignoring back edges and never entering `avoid`. `None` if
    /// unreachable; `Some(0)` for a direct edge.
    fn longest_dag_path(
        &self,
        dom: &Dominators,
        from: BlockId,
        to: BlockId,
        avoid: Option<BlockId>,
    ) -> Option<u32> {
        if from == to || avoid == Some(to) {
            return None;
        }
        let mut dist: Vec<Option<u32>> = vec![None; self.blocks().len()];
        dist[from.0] = Some(0);
        for &b in self.reverse_postorder() {
            let Some(d) = dist[b.0] else { continue };
            for &s in self.succs(b) {
                if dom.dominates(s, b) {
                    continue; // skip back edges
                }
                if s == from || Some(s) == avoid {
                    continue;
                }
                let w = if s == to { d } else { d + self.block(s).len() as u32 };
                if dist[s.0].is_none_or(|old| w > old) {
                    dist[s.0] = Some(w);
                }
            }
        }
        dist[to.0]
    }

    /// Whether instruction `k` lies on **every** CFG path from instruction
    /// `i` to instruction `j` (endpoints excluded).
    ///
    /// Returns `false` when `j` is unreachable from `i`.
    pub fn on_every_path(&self, i: usize, k: usize, j: usize) -> bool {
        if k == i || k == j {
            return false;
        }
        let bi = self.block_of(i);
        let bk = self.block_of(k);
        let bj = self.block_of(j);
        // Straight-line cases inside shared blocks.
        if bk == bi && k > i {
            // Every path leaving i first executes the rest of i's block,
            // which includes k — unless j sits between i and k in the same
            // block, in which case the straight-line path stops before k.
            if bi == bj && i < j {
                return k < j;
            }
            return self.reachable_between(bi, bj, None);
        }
        if bk == bj && k < j {
            // Every path entering j's block from outside executes the
            // block's prefix, which includes k. The in-block straight-line
            // path from i covers k only when i precedes it.
            if bi == bj && i < j {
                return i < k;
            }
            return self.reachable_between(bi, bj, None);
        }
        if bk == bi || bk == bj {
            // k before i, or after j, in a shared block: the straight-line
            // exit/entry misses it. (Conservatively `false`; a looping path
            // might still always pass k, but not pruning is safe.)
            return false;
        }
        // k in its own block: k is on every path iff no path avoids bk.
        self.reachable_between(bi, bj, None) && !self.reachable_between(bi, bj, Some(bk))
    }

    /// Whether some instruction of `ks` (ascending, duplicates allowed)
    /// lies on every CFG path from `i` to `j`: `ks.iter().any(|&k|
    /// self.on_every_path(i, k, j))`, deciding each block that holds
    /// readers once instead of each reader.
    pub fn any_on_every_path(&self, i: usize, ks: &[usize], j: usize) -> bool {
        debug_assert!(ks.is_sorted(), "readers must be ascending");
        let (bi, bj) = (self.block_of(i), self.block_of(j));
        let mut reach = None;
        let mut reach = || *reach.get_or_insert_with(|| self.reachable_between(bi, bj, None));
        let mut rest = ks;
        while let Some(&k) = rest.first() {
            let b = self.block(self.block_of(k));
            let (in_b, tail) = rest.split_at(rest.partition_point(|&k| k < b.end));
            rest = tail;
            // The cases of `on_every_path`, in its order, for the readers
            // of block `b` at once.
            let hit = if bi == bj && i < j && b.id == bi {
                // The straight-line path covers exactly the readers
                // strictly between i and j.
                in_b.get(in_b.partition_point(|&k| k <= i)).is_some_and(|&k| k < j)
            } else if b.id == bi || b.id == bj {
                // In i's block the readers after i count, in j's block
                // those before j; the rest of the two blocks never does.
                let after_i = b.id == bi && in_b[in_b.len() - 1] > i;
                let before_j = b.id == bj && in_b[0] < j;
                (after_i || before_j) && reach()
            } else {
                reach() && !self.reachable_between(bi, bj, Some(b.id))
            };
            if hit {
                return true;
            }
        }
        false
    }

    /// Is the start of `to` reachable from the end of `from`, optionally
    /// avoiding `avoid`?
    fn reachable_between(&self, from: BlockId, to: BlockId, avoid: Option<BlockId>) -> bool {
        let mut visited = vec![false; self.blocks().len()];
        let mut stack = vec![from];
        // Note: we start from `from`'s successors, so a self-loop is a valid
        // path from a block to itself.
        while let Some(b) = stack.pop() {
            for &s in self.succs(b) {
                if Some(s) == avoid {
                    continue;
                }
                if s == to {
                    return true;
                }
                if !visited[s.0] {
                    visited[s.0] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

impl BlockId {
    fn len_of(self, cfg: &Cfg) -> u32 {
        cfg.block(self).len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::parse_module;

    fn cfg(src: &str) -> Cfg {
        let m = parse_module(src).unwrap();
        Cfg::build(m.function("k").unwrap())
    }

    const DIAMOND: &str = r#"
.kernel k
  ISETP.LT.AND P0, R0, R1 {S:2}   # 0
  @P0 BRA else_part {S:5}         # 1
  MOV R2, R3 {S:1}                # 2
  MOV R6, R7 {S:1}                # 3
  BRA join {S:5}                  # 4
else_part:
  MOV R2, R4 {S:1}                # 5
join:
  IADD R5, R2, 1 {S:4}            # 6
  EXIT                            # 7
.endfunc
"#;

    #[test]
    fn min_and_max_through_diamond() {
        let c = cfg(DIAMOND);
        // From ISETP (0) to IADD (6): short arm has BRA(1), MOV(5) between
        // (2 instrs); long arm has BRA(1), MOV(2), MOV(3), BRA(4) (4).
        assert_eq!(c.min_instrs_between(0, 6), Some(2));
        assert_eq!(c.max_instrs_between(0, 6), Some(4));
        // Same block, adjacent.
        assert_eq!(c.min_instrs_between(6, 7), Some(0));
        assert_eq!(c.max_instrs_between(6, 7), Some(0));
        // Unreachable: join never flows back to the then-arm.
        assert_eq!(c.min_instrs_between(6, 2), None);
    }

    #[test]
    fn on_every_path_diamond() {
        let c = cfg(DIAMOND);
        // MOV at 2 is only on the fall-through arm.
        assert!(!c.on_every_path(0, 2, 6));
        // The branch at 1 is in i's own block after i: on every path.
        assert!(c.on_every_path(0, 1, 6));
        // IADD at 6 is between nothing (it's the endpoint j).
        assert!(!c.on_every_path(0, 6, 6));
    }

    const LOOP: &str = r#"
.kernel k
  MOV32I R0, 0 {S:1}              # 0
top:
  LDG.E.32 R4, [R2:R3] {W:B0,S:1} # 1
  IADD R5, R4, 1 {WT:[B0],S:4}    # 2
  IADD R0, R0, 1 {S:4}            # 3
  ISETP.LT.AND P0, R0, 10 {S:2}   # 4
  @P0 BRA top {S:5}               # 5
  EXIT                            # 6
.endfunc
"#;

    #[test]
    fn cross_iteration_longest_path() {
        let c = cfg(LOOP);
        // Forward, same block: LDG(1) -> IADD(2): nothing between.
        assert_eq!(c.min_instrs_between(1, 2), Some(0));
        assert_eq!(c.max_instrs_between(1, 2), Some(0));
        // Cross-iteration: IADD(3) defines R0 used by LDG? No — use the
        // ISETP(4) -> IADD(3) direction: def after use in program order,
        // reachable only around the back edge: 5 (BRA) + 1,2 of next
        // iteration = 3 instructions between.
        assert_eq!(c.min_instrs_between(4, 3), Some(3));
        let max = c.max_instrs_between(4, 3).unwrap();
        assert_eq!(max, 3, "single back-edge traversal");
    }

    #[test]
    fn loop_body_on_every_path() {
        let c = cfg(LOOP);
        // From MOV(0) to EXIT(6), the whole loop body lies on every path.
        assert!(c.on_every_path(0, 1, 6));
        assert!(c.on_every_path(0, 4, 6));
    }

    /// A two-block loop body with a skippable arm, and dead code after the
    /// exit (so some `j` is reachable from no `i`).
    const ARM_LOOP: &str = r#"
.kernel k
  MOV32I R0, 0 {S:1}              # 0
top:
  IADD R0, R0, 1 {S:4}            # 1
  @P1 BRA skip {S:5}              # 2
  MOV R2, R0 {S:1}                # 3
skip:
  ISETP.LT.AND P0, R0, 10 {S:2}   # 4
  @P0 BRA top {S:5}               # 5
  EXIT                            # 6
  MOV R3, R4 {S:1}                # 7
  EXIT                            # 8
.endfunc
"#;

    /// `any_on_every_path` against the per-reader loop for every `(i, j)`
    /// — forward, loop-carried `i > j` in one block, `i == j`, unreachable
    /// `j` — and every reader set, also with each reader listed twice.
    #[test]
    fn any_on_every_path_equals_the_per_reader_oracle() {
        for src in [DIAMOND, LOOP, ARM_LOOP] {
            let c = cfg(src);
            let n = c.blocks().last().expect("a block").end;
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                for mask in 0u32..1 << n {
                    let ks: Vec<usize> = (0..n).filter(|k| mask >> k & 1 == 1).collect();
                    let oracle = ks.iter().any(|&k| c.on_every_path(i, k, j));
                    assert_eq!(c.any_on_every_path(i, &ks, j), oracle, "{i} {ks:?} {j}");
                    let twice: Vec<usize> = ks.iter().flat_map(|&k| [k, k]).collect();
                    assert_eq!(c.any_on_every_path(i, &twice, j), oracle, "{i} {twice:?} {j}");
                }
            }
        }
        // The cases the sweep must have met.
        let c = cfg(ARM_LOOP);
        assert!(c.any_on_every_path(5, &[1], 4), "loop-carried, through the header");
        assert!(!c.any_on_every_path(5, &[3], 4), "the arm is skippable");
        assert!(c.any_on_every_path(4, &[5], 4), "i == j: once around the loop");
        assert!(!c.any_on_every_path(0, &[1, 3, 4], 7), "dead code is unreachable");
        assert!(c.any_on_every_path(0, &[3, 3, 5], 6));
    }
}
