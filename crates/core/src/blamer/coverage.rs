//! Single-dependency coverage — the metric of the paper's Figure 7.
//!
//! A node of the dependency graph is a *single dependency node* when it
//! has no incoming edges, or when each attributable stall reason observed
//! at it has at most one incoming edge — so its stalls can be attributed
//! without apportioning. Pruning cold edges raises this coverage; the
//! paper reports most Rodinia benchmarks above 0.8 after pruning, with
//! `bfs` (64-bit address pairs) and `nw` (intricate control flow) lower.

use super::graph::REASONS;
use super::{DetailedReason, ModuleBlame};

/// Coverage before and after pruning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageReport {
    /// Fraction of single-dependency nodes with all edges considered.
    pub before: f64,
    /// Fraction after the three pruning rules.
    pub after: f64,
    /// Number of graph nodes (stalled instructions).
    pub nodes: usize,
}

/// Computes single-dependency coverage over a module's blame graphs.
pub fn single_dependency_coverage(blame: &ModuleBlame) -> CoverageReport {
    let mut nodes = 0usize;
    let mut single_before = 0usize;
    let mut single_after = 0usize;
    for fb in &blame.functions {
        for &node in &fb.graph.nodes {
            nodes += 1;
            if is_single(fb, node, true) {
                single_before += 1;
            }
            if is_single(fb, node, false) {
                single_after += 1;
            }
        }
    }
    let ratio = |n: usize| if nodes == 0 { 1.0 } else { n as f64 / nodes as f64 };
    CoverageReport { before: ratio(single_before), after: ratio(single_after), nodes }
}

fn is_single(fb: &super::FunctionBlame, node: usize, include_pruned: bool) -> bool {
    for base in REASONS {
        let count = fb
            .graph
            .incoming(node, include_pruned)
            .iter()
            .filter(|e| e.detail.base() == base)
            .count();
        if count > 1 {
            return false;
        }
    }
    true
}

/// Per-detail share of blamed stalls, handy for reports.
pub fn detail_shares(blame: &ModuleBlame) -> Vec<(DetailedReason, f64)> {
    let totals = blame.totals_by_detail();
    let sum: f64 = totals.values().map(|(s, _)| s).sum();
    let mut out: Vec<(DetailedReason, f64)> = DetailedReason::ALL
        .iter()
        .filter_map(|d| totals.get(d).map(|(s, _)| (*d, if sum > 0.0 { s / sum } else { 0.0 })))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::super::graph::tests::fake_profile;
    use super::super::ModuleBlame;
    use super::*;
    use gpa_arch::LatencyTable;
    use gpa_structure::ProgramStructure;

    #[test]
    fn pruning_raises_coverage() {
        // The Figure 4 kernel: before pruning the IADD node has three
        // incoming edges (two memory, one arithmetic — multi-dependency
        // for memory); after opcode pruning the arithmetic edge is gone
        // but two memory edges remain, so the node stays multi-dependency
        // while simpler nodes become single.
        let src = r#"
.kernel k
  LDG.E.32 R1, [R2:R3] {W:B0, S:1}
  IMAD R4, R5, R6, R4 {S:5}
  IADD R7, R1, R4 {WT:[B0], S:4}
  EXIT
.endfunc
"#;
        let m = gpa_isa::parse_module(src).unwrap();
        let f = m.function("k").unwrap();
        let profile =
            fake_profile(&[(f.pc_of(2), gpa_sampling::StallReason::MemoryDependency, false, 4)]);
        let structure = ProgramStructure::build(&m);
        let blame = ModuleBlame::build(&m, &structure, &profile, &LatencyTable::default());
        let cov = single_dependency_coverage(&blame);
        assert_eq!(cov.nodes, 1);
        // Before pruning: LDG (mem) and IMAD (arith) both feed the node —
        // one edge per reason class, so it is already single for each
        // class... the IMAD edge is an *execution* class edge, the LDG a
        // *memory* one: single before and after.
        assert_eq!(cov.before, 1.0);
        assert_eq!(cov.after, 1.0);
    }

    #[test]
    fn multi_memory_sources_lower_coverage_until_pruned() {
        // Two global loads feed the use; one sits beyond a re-reader so
        // the dominator rule prunes it, flipping the node to single.
        let src = r#"
.kernel k
  LDG.E.32 R1, [R2:R3] {W:B0, S:1}
  IADD R8, R1, 1 {WT:[B0], S:4}
  LDG.E.32 R1, [R4:R5] {W:B0, S:1}
  IADD R9, R1, 2 {WT:[B0], S:4}
  EXIT
.endfunc
"#;
        let m = gpa_isa::parse_module(src).unwrap();
        let f = m.function("k").unwrap();
        let profile = fake_profile(&[
            (f.pc_of(1), gpa_sampling::StallReason::MemoryDependency, false, 1),
            (f.pc_of(3), gpa_sampling::StallReason::MemoryDependency, false, 3),
        ]);
        let structure = ProgramStructure::build(&m);
        let blame = ModuleBlame::build(&m, &structure, &profile, &LatencyTable::default());
        let cov = single_dependency_coverage(&blame);
        assert_eq!(cov.nodes, 2);
        assert!(cov.after >= cov.before);
        assert_eq!(cov.after, 1.0, "each use has exactly one live source");
    }
}
