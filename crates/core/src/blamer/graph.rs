//! Dependency graph construction, cold-edge pruning, and Eq. 1
//! apportioning (paper Figures 4b–4d).
//!
//! The candidate edges, rule 2's verdict and the path lengths are
//! functions of the module alone and come memoised from the function's
//! [`FunctionInfo`] ([`StaticEdge`]); what is left per profile is node
//! selection, rule 1, rule 3's latency bound (a per-session table) and
//! Eq. 1's issue weights.

use super::{DetailedReason, FunctionBlame};
use gpa_arch::LatencyTable;
use gpa_isa::{Function, Module, Slot};
use gpa_sampling::{KernelProfile, PcStats, StallReason};
use gpa_structure::{FunctionInfo, StaticEdge};
use std::sync::Arc;

/// Which rule removed a cold edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneRule {
    /// Stall reason and source opcode are incompatible (rule 1).
    Opcode,
    /// An unpredicated re-reader sits on every def→use path (rule 2).
    Dominator,
    /// Every path is longer than the source's latency (rule 3).
    Latency,
}

/// One def→use edge of the dependency graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DepEdge {
    /// Definition instruction index.
    pub def: usize,
    /// Stalled use instruction index.
    pub use_: usize,
    /// Slots carrying the dependency (empty for synchronization edges).
    pub slots: Arc<[Slot]>,
    /// Figure 5 classification by the source opcode.
    pub detail: DetailedReason,
    /// Why the edge was pruned, if it was.
    pub pruned: Option<PruneRule>,
}

/// The instruction dependency graph of one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepGraph {
    /// Instructions with attributable stalls (graph nodes), ascending.
    pub nodes: Vec<usize>,
    /// All discovered edges, pruned ones flagged, grouped by use in node
    /// order.
    pub edges: Vec<DepEdge>,
}

impl DepGraph {
    /// Incoming edges of `node`, optionally skipping pruned ones.
    pub fn incoming(&self, node: usize, include_pruned: bool) -> Vec<&DepEdge> {
        let first = self.edges.partition_point(|e| e.use_ < node);
        self.edges[first..]
            .iter()
            .take_while(|e| e.use_ == node)
            .filter(|e| include_pruned || e.pruned.is_none())
            .collect()
    }
}

/// Blame apportioned to one surviving edge (Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct BlamedEdge {
    /// Definition (blamed) instruction index.
    pub def: usize,
    /// Stalled use instruction index.
    pub use_: usize,
    /// Figure 5 classification.
    pub detail: DetailedReason,
    /// Apportioned stall samples.
    pub stalls: f64,
    /// Apportioned latency samples (scheduler-idle stalls).
    pub latency: f64,
    /// Shortest def→use distance in instructions (1 = adjacent).
    pub distance: u32,
}

/// The attributable stall reasons.
pub(super) const REASONS: [StallReason; 3] =
    [StallReason::MemoryDependency, StallReason::ExecutionDependency, StallReason::Synchronization];

/// Runs the blame pipeline for one function.
pub fn blame_function(
    module: &Module,
    finfo: &FunctionInfo,
    profile: &KernelProfile,
    latency: &LatencyTable,
) -> FunctionBlame {
    let f = &module.functions[finfo.index];
    let empty = PcStats::default();
    let stats_of = |idx: usize| -> &PcStats { profile.pc(f.pc_of(idx)).unwrap_or(&empty) };

    // Nodes: instructions with attributable stalls.
    let nodes: Vec<usize> = (0..f.instrs.len())
        .filter(|&i| REASONS.iter().any(|&r| stats_of(i).stalls(r) > 0))
        .collect();

    let mut edges: Vec<DepEdge> = Vec::new();
    let mut blamed: Vec<BlamedEdge> = Vec::new();
    let mut unattributed: Vec<(usize, StallReason, f64, f64)> = Vec::new();
    for &j in &nodes {
        let st = stats_of(j);
        // This node's edges: backward slices, then the nearest barriers
        // when it waited on one, each with its pruning verdict.
        let defs = finfo.def_edges(f, j);
        let barriers = match st.stalls(StallReason::Synchronization) {
            0 => &[],
            _ => finfo.barrier_edges(f, j),
        };
        let first = edges.len();
        edges.extend(defs.iter().map(|s| {
            let detail = DetailedReason::of_def(f.instrs[s.def].opcode);
            dep_edge(s, detail, prune(f, finfo, latency, s, detail, st))
        }));
        edges.extend(barriers.iter().map(|s| dep_edge(s, DetailedReason::Sync, None)));

        // Apportioning, over this node's range of the edge list.
        for &r in &REASONS {
            let stalls = st.stalls(r) as f64;
            let lat_stalls = st.latency_stalls(r) as f64;
            if stalls == 0.0 && lat_stalls == 0.0 {
                continue;
            }
            // Eq. 1 weights: R_issue × R_path, with R_path = 1 / longest
            // path ("the longer the path, the less stalls are blamed").
            let live: Vec<(&DepEdge, &StaticEdge, f64)> = edges[first..]
                .iter()
                .zip(defs.iter().chain(barriers))
                .filter(|(e, _)| e.pruned.is_none() && e.detail.base() == r)
                .map(|(e, s)| {
                    let issued = stats_of(e.def).issued_samples().max(1) as f64;
                    (e, s, issued / finfo.max_path(s).map_or(1.0, |p| (p + 1) as f64))
                })
                .collect();
            if live.is_empty() {
                unattributed.push((j, r, stalls, lat_stalls));
                continue;
            }
            let total: f64 = live.iter().map(|(_, _, w)| w).sum();
            for &(e, s, w) in &live {
                let share = w / total;
                blamed.push(BlamedEdge {
                    def: e.def,
                    use_: e.use_,
                    detail: e.detail,
                    stalls: stalls * share,
                    latency: lat_stalls * share,
                    distance: finfo.min_path(s).map_or(1, |d| d + 1),
                });
            }
        }
    }

    FunctionBlame {
        func: finfo.index,
        graph: DepGraph { nodes, edges },
        edges: blamed,
        unattributed,
    }
}

fn dep_edge(s: &StaticEdge, detail: DetailedReason, pruned: Option<PruneRule>) -> DepEdge {
    DepEdge { def: s.def, use_: s.use_, slots: Arc::clone(&s.slots), detail, pruned }
}

/// The three cold-edge rules, in order, for one def edge into a node with
/// stats `st`.
fn prune(
    f: &Function,
    finfo: &FunctionInfo,
    latency: &LatencyTable,
    s: &StaticEdge,
    detail: DetailedReason,
    st: &PcStats,
) -> Option<PruneRule> {
    if detail == DetailedReason::Sync {
        return None; // synchronization edges carry no slots
    }
    // Rule 1: opcode-based. The edge's reason class must actually be
    // observed at the stalled node.
    if st.stalls(detail.base()) == 0 && st.latency_stalls(detail.base()) == 0 {
        return Some(PruneRule::Opcode);
    }
    // Rule 2: dominator-based. A non-predicated re-reader of the same
    // slot on every def→use path would have absorbed the stall.
    if finfo.dominated(f, s) {
        return Some(PruneRule::Dominator);
    }
    // Rule 3: latency-based. If even the shortest path outlives the
    // source's (upper-bound) latency, the stall cannot come from it.
    let bound = latency.upper_bound(&f.instrs[s.def]);
    finfo.min_path(s).is_some_and(|p| p > bound).then_some(PruneRule::Latency)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpa_arch::{ArchConfig, LaunchConfig};
    use gpa_sampling::RawSample;
    use gpa_sim::{LaunchResult, SampleSet};
    use gpa_structure::ProgramStructure;

    /// Builds a fake profile from `(pc, reason, active, count)` tuples.
    pub(crate) fn fake_profile(entries: &[(u64, StallReason, bool, u32)]) -> KernelProfile {
        let mut samples = Vec::new();
        for &(pc, stall, active, count) in entries {
            for _ in 0..count {
                samples.push(RawSample {
                    sm: 0,
                    scheduler: 0,
                    cycle: 0,
                    pc,
                    stall,
                    scheduler_active: active,
                });
            }
        }
        let arch = ArchConfig::small(1);
        let launch = LaunchConfig::new(1, 32);
        let result = LaunchResult {
            cycles: 1000,
            issued: 100,
            samples: SampleSet::from_raw(&samples),
            issue_counts: Default::default(),
            mem_transactions: 0,
            l2_hits: 0,
            l2_misses: 0,
            icache_misses: 0,
            occupancy: arch.occupancy(&launch),
            launch,
            sm_stats: vec![],
            sim_stats: Default::default(),
        };
        KernelProfile::from_launch("k", "m", "volta", 509, &result)
    }

    /// The paper's Figure 4 scenario, laid out so that the LDC→IADD
    /// longest path is twice the LDG→IADD one:
    ///
    /// ```text
    /// ISETP
    /// @!P0 LDC  R0      (idx 1)   issued 2
    /// 4 fillers
    /// @P0  LDG  R0      (idx 6)   issued 1
    /// 4 fillers
    /// IMAD R6 (uses R0? no — defines R6)        — extra def below
    /// IADD R8, R0, R7   (idx 12)  4 memory-dependency stalls
    /// ```
    fn figure4_module() -> (gpa_isa::Module, KernelProfile) {
        let src = r#"
.module fig4
.kernel k
  ISETP.LT.AND P0, R4, R5 {S:2}
  @!P0 LDC.32 R0, [R4] {W:B0, S:1}
  IADD R20, R20, 1 {S:4}
  IADD R21, R21, 1 {S:4}
  IADD R22, R22, 1 {S:4}
  IADD R23, R23, 1 {S:4}
  @P0 LDG.E.32 R0, [R2:R3] {W:B0, S:1}
  IADD R24, R24, 1 {S:4}
  IADD R25, R25, 1 {S:4}
  IADD R26, R26, 1 {S:4}
  IADD R27, R27, 1 {S:4}
  IMAD R7, R4, R5, R7 {S:5}
  IADD R8, R0, R7 {WT:[B0], S:4}
  EXIT
.endfunc
"#;
        let m = gpa_isa::parse_module(src).unwrap();
        let f = m.function("k").unwrap();
        let profile = fake_profile(&[
            (f.pc_of(12), StallReason::MemoryDependency, false, 4),
            (f.pc_of(1), StallReason::Selected, true, 2), // LDC issued twice
            (f.pc_of(6), StallReason::Selected, true, 1), // LDG issued once
            (f.pc_of(11), StallReason::Selected, true, 1),
        ]);
        (m, profile)
    }

    #[test]
    fn figure4_prune_and_apportion() {
        let (m, profile) = figure4_module();
        let structure = ProgramStructure::build(&m);
        let lat = LatencyTable::default();
        let fb = blame_function(&m, &structure.functions()[0], &profile, &lat);

        // The graph has edges from LDC (1), LDG (6), and IMAD (11) to the
        // stalled IADD (12) — plus the ISETP predicate edge for the loads.
        let incoming = fb.graph.incoming(12, true);
        let defs: Vec<usize> = incoming.iter().map(|e| e.def).collect();
        assert!(defs.contains(&1) && defs.contains(&6) && defs.contains(&11), "{defs:?}");

        // Opcode pruning removes the IMAD edge (it would cause an
        // execution dependency, but only memory-dependency stalls were
        // observed).
        let imad = incoming.iter().find(|e| e.def == 11).unwrap();
        assert_eq!(imad.pruned, Some(PruneRule::Opcode));

        // Eq. 1: LDC has 2× the issued samples but 2× the path length —
        // the four stalls split evenly, two each.
        let ldc = fb.edges.iter().find(|e| e.def == 1).expect("LDC blamed");
        let ldg = fb.edges.iter().find(|e| e.def == 6).expect("LDG blamed");
        assert_eq!(ldc.detail, DetailedReason::ConstMem);
        assert_eq!(ldg.detail, DetailedReason::GlobalMem);
        let total = ldc.stalls + ldg.stalls;
        assert!((total - 4.0).abs() < 1e-9, "blame conserves stalls");
        assert!(
            (ldc.stalls - ldg.stalls).abs() < 0.35,
            "issue ratio 2:1 cancels path ratio 10:5: {} vs {}",
            ldc.stalls,
            ldg.stalls
        );
    }

    #[test]
    fn latency_rule_prunes_distant_arith_def() {
        // An IADD def 20+ instructions before its use cannot cause a
        // 4-cycle-latency stall.
        let mut src = String::from(".kernel k\n  IADD R1, R2, R3 {S:4}\n");
        for i in 0..20 {
            src.push_str(&format!("  IADD R{}, R{}, 1 {{S:4}}\n", 10 + i % 5, 10 + i % 5));
        }
        src.push_str("  IADD R0, R1, R1 {S:4}\n  EXIT\n.endfunc\n");
        let m = gpa_isa::parse_module(&src).unwrap();
        let f = m.function("k").unwrap();
        let use_idx = 21;
        let profile =
            fake_profile(&[(f.pc_of(use_idx), StallReason::ExecutionDependency, false, 3)]);
        let structure = ProgramStructure::build(&m);
        let fb = blame_function(&m, &structure.functions()[0], &profile, &LatencyTable::default());
        let edge = fb
            .graph
            .edges
            .iter()
            .find(|e| e.def == 0 && e.use_ == use_idx)
            .expect("slicing finds the def");
        assert_eq!(edge.pruned, Some(PruneRule::Latency));
        // With the only candidate pruned, the stalls are unattributed.
        assert!(fb.unattributed.iter().any(|&(j, r, s, _)| j == use_idx
            && r == StallReason::ExecutionDependency
            && s == 3.0));
    }

    #[test]
    fn dominator_rule_prunes_absorbed_edge() {
        // k (idx 2) re-reads R1 unpredicated between def (0) and use (3):
        // stalls would have shown at k, so the 0→3 edge is cold.
        let src = r#"
.kernel k
  LDG.E.32 R1, [R2:R3] {W:B0, S:1}
  IADD R9, R9, 1 {S:4}
  IADD R5, R1, 1 {WT:[B0], S:4}
  IADD R6, R1, 2 {S:4}
  EXIT
.endfunc
"#;
        let m = gpa_isa::parse_module(src).unwrap();
        let f = m.function("k").unwrap();
        let profile = fake_profile(&[(f.pc_of(3), StallReason::MemoryDependency, false, 2)]);
        let structure = ProgramStructure::build(&m);
        let fb = blame_function(&m, &structure.functions()[0], &profile, &LatencyTable::default());
        let edge = fb.graph.edges.iter().find(|e| e.def == 0 && e.use_ == 3).unwrap();
        assert_eq!(edge.pruned, Some(PruneRule::Dominator));
    }

    #[test]
    fn sync_stalls_attributed_to_barrier() {
        let src = r#"
.kernel k
  MOV R1, R2 {S:1}
  BAR.SYNC {S:2}
  IADD R3, R1, R1 {S:4}
  EXIT
.endfunc
"#;
        let m = gpa_isa::parse_module(src).unwrap();
        let f = m.function("k").unwrap();
        let profile = fake_profile(&[(f.pc_of(2), StallReason::Synchronization, false, 5)]);
        let structure = ProgramStructure::build(&m);
        let fb = blame_function(&m, &structure.functions()[0], &profile, &LatencyTable::default());
        let sync_edge = fb.edges.iter().find(|e| e.detail == DetailedReason::Sync).unwrap();
        assert_eq!(sync_edge.def, 1, "blamed on the BAR.SYNC");
        assert_eq!(sync_edge.stalls, 5.0);
    }

    #[test]
    fn blame_conserves_totals() {
        let (m, profile) = figure4_module();
        let structure = ProgramStructure::build(&m);
        let fb = blame_function(&m, &structure.functions()[0], &profile, &LatencyTable::default());
        let blamed: f64 = fb.edges.iter().map(|e| e.stalls).sum();
        let unattributed: f64 = fb.unattributed.iter().map(|&(_, _, s, _)| s).sum();
        assert!((blamed + unattributed - 4.0).abs() < 1e-9);
    }
}
