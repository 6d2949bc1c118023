//! The instruction blamer.
//!
//! CUPTI attributes stall reasons to the *stalled* instruction; memory
//! dependency, execution dependency, and synchronization stalls, however,
//! are caused by *source* instructions. The blamer finds those sources:
//!
//! 1. [`slice`](mod@slice) — backward slicing over def–use chains, with virtual
//!    barrier registers (Figure 3) and predicate-cover search (Figure 4a);
//!    it needs the module alone, so it lives in `gpa_structure` and its
//!    results are memoised there,
//! 2. [`graph`] — dependency-graph construction, the three cold-edge
//!    pruning rules, and Eq. 1 apportioning (Figures 4b–4d),
//! 3. [`coverage`] — the single-dependency coverage metric of Figure 7.

pub mod coverage;
pub mod graph;
pub use gpa_structure::slice;

pub use coverage::{single_dependency_coverage, CoverageReport};
pub use graph::{BlamedEdge, DepEdge, DepGraph, PruneRule};

use gpa_arch::LatencyTable;
use gpa_isa::{Access, MemSpace, Module, Opcode};
use gpa_sampling::{KernelProfile, StallReason};
use gpa_structure::ProgramStructure;
use std::collections::HashMap;
use std::fmt;

/// Figure 5's detailed stall classification, keyed by the *source*
/// instruction's opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetailedReason {
    /// Memory dependency on a global load (`LDG`, global atomics).
    GlobalMem,
    /// Memory dependency on a local load (`LDL`) — register pressure.
    LocalMem,
    /// Memory dependency on a constant load (`LDC`).
    ConstMem,
    /// Execution dependency on a shared-memory load (`LDS`).
    SharedMem,
    /// Write-after-read dependency on a store's read barrier.
    War,
    /// Execution dependency on arithmetic (fixed-latency or MUFU).
    Arith,
    /// Synchronization dependency on a `BAR.SYNC`.
    Sync,
}

impl DetailedReason {
    /// The CUPTI-level reason this detail refines.
    pub fn base(self) -> StallReason {
        match self {
            DetailedReason::GlobalMem | DetailedReason::LocalMem | DetailedReason::ConstMem => {
                StallReason::MemoryDependency
            }
            DetailedReason::SharedMem | DetailedReason::War | DetailedReason::Arith => {
                StallReason::ExecutionDependency
            }
            DetailedReason::Sync => StallReason::Synchronization,
        }
    }

    /// Classifies a dependency by its source instruction, per Figure 5.
    pub fn of_def(op: Opcode) -> DetailedReason {
        match op.mem() {
            Some((_, Access::Store)) => DetailedReason::War,
            Some((MemSpace::Global, _)) => DetailedReason::GlobalMem,
            Some((MemSpace::Local, _)) => DetailedReason::LocalMem,
            Some((MemSpace::Constant, _)) => DetailedReason::ConstMem,
            Some((MemSpace::Shared, _)) => DetailedReason::SharedMem,
            None if op.is_block_sync() => DetailedReason::Sync,
            None => DetailedReason::Arith,
        }
    }

    /// All detailed reasons.
    pub const ALL: [DetailedReason; 7] = [
        DetailedReason::GlobalMem,
        DetailedReason::LocalMem,
        DetailedReason::ConstMem,
        DetailedReason::SharedMem,
        DetailedReason::War,
        DetailedReason::Arith,
        DetailedReason::Sync,
    ];
}

impl fmt::Display for DetailedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetailedReason::GlobalMem => "global memory dependency",
            DetailedReason::LocalMem => "local memory dependency",
            DetailedReason::ConstMem => "constant memory dependency",
            DetailedReason::SharedMem => "shared memory dependency",
            DetailedReason::War => "write-after-read dependency",
            DetailedReason::Arith => "arithmetic dependency",
            DetailedReason::Sync => "synchronization dependency",
        };
        f.write_str(s)
    }
}

/// Blame analysis of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionBlame {
    /// Function index in the module.
    pub func: usize,
    /// The dependency graph (with pruning flags, for Figure 7).
    pub graph: DepGraph,
    /// Apportioned blame per surviving edge.
    pub edges: Vec<BlamedEdge>,
    /// Attributable stalls with no surviving source, by instruction:
    /// `(instr, reason, stalls, latency_stalls)`.
    pub unattributed: Vec<(usize, StallReason, f64, f64)>,
}

/// Blame analysis of a whole module against one profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleBlame {
    /// Per-function results, aligned with `Module::functions`.
    pub functions: Vec<FunctionBlame>,
}

impl ModuleBlame {
    /// Runs the full blame pipeline: slicing, graph construction, pruning,
    /// and apportioning, for every function with attributable stalls.
    pub fn build(
        module: &Module,
        structure: &ProgramStructure,
        profile: &KernelProfile,
        latency: &LatencyTable,
    ) -> Self {
        let functions = structure
            .functions()
            .iter()
            .map(|fi| graph::blame_function(module, fi, profile, latency))
            .collect();
        ModuleBlame { functions }
    }

    /// All blamed edges with their function index.
    pub fn edges(&self) -> impl Iterator<Item = (usize, &BlamedEdge)> {
        self.functions.iter().flat_map(|f| f.edges.iter().map(move |e| (f.func, e)))
    }

    /// Total blamed (stalls, latency stalls) per detailed reason.
    pub fn totals_by_detail(&self) -> HashMap<DetailedReason, (f64, f64)> {
        let mut out: HashMap<DetailedReason, (f64, f64)> = HashMap::new();
        for (_, e) in self.edges() {
            let entry = out.entry(e.detail).or_insert((0.0, 0.0));
            entry.0 += e.stalls;
            entry.1 += e.latency;
        }
        out
    }
}
