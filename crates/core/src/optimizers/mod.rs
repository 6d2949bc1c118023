//! Performance optimizers — the paper's Table 2 catalog.
//!
//! Each optimizer encodes rules to compute *matching stalls* from the
//! blamed dependency edges and the program structure, lifting the job of
//! associating stalls with optimizations from the user to the advisor.
//!
//! [`TABLE2`] is the source — an optimizer *is* its row: names, family,
//! estimator, hints, rule. The table below is a reading aid kept beside
//! it; `cargo run -p gpa-bench --bin table2` prints the rows themselves.
//!
//! | Category | Optimizer | Matches | Estimator |
//! |---|---|---|---|
//! | Stall elimination | Register Reuse | local-memory dependency stalls | Eq. 2 |
//! | | Strength Reduction | execution-dependency stalls of long-latency arithmetic | Eq. 2 |
//! | | Function Split | instruction-fetch stalls in large functions | Eq. 2 |
//! | | Fast Math | stalls inside CUDA math functions | Eq. 2 |
//! | | Warp Balance | synchronization stalls | Eq. 2 |
//! | | Memory Transaction Reduction | memory-throttle stalls | Eq. 2 |
//! | Latency hiding | Loop Unrolling | global-memory/execution stalls with def and use in one loop | Eqs. 4–5 |
//! | | Code Reordering | short-distance global-memory/execution stalls | Eqs. 4–5 |
//! | | Function Inlining | stalls in device functions and call sites | Eqs. 4–5 |
//! | Parallel | Block Increase | fewer blocks than the device can host | Eqs. 6–10 |
//! | | Thread Increase | occupancy limited by threads per block | Eqs. 6–10 |
//! | Stall elimination | Memory Coalescing | uncoalesced/MSHR/L2-queue stalls (hierarchy model) | Eq. 2, residual 1/4 |
//! | | Bank Conflict Resolution | shared-memory bank-conflict stalls (hierarchy model) | Eq. 2, residual 1/32 |

mod rules;

use crate::advisor::AnalysisCtx;
use crate::estimators::ParallelParams;
use gpa_structure::Scope;
use std::fmt;

/// The three optimizer families of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptimizerCategory {
    /// Remove the stalls themselves (Eq. 2).
    StallElimination,
    /// Overlap the stalls with other work (Eqs. 4–5).
    LatencyHiding,
    /// Change the parallelism level (Eqs. 6–10).
    Parallel,
}

impl OptimizerCategory {
    /// Every category, in Table 2 order.
    pub const ALL: [OptimizerCategory; 3] = [
        OptimizerCategory::StallElimination,
        OptimizerCategory::LatencyHiding,
        OptimizerCategory::Parallel,
    ];

    /// Stable machine-readable name (advice schema v2, CLI `--category`).
    pub fn slug(self) -> &'static str {
        match self {
            OptimizerCategory::StallElimination => "stall-elimination",
            OptimizerCategory::LatencyHiding => "latency-hiding",
            OptimizerCategory::Parallel => "parallel",
        }
    }

    /// Parses a [`OptimizerCategory::slug`] back to the category.
    pub fn from_slug(s: &str) -> Option<OptimizerCategory> {
        Self::ALL.into_iter().find(|c| c.slug() == s)
    }
}

impl fmt::Display for OptimizerCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptimizerCategory::StallElimination => "stall elimination",
            OptimizerCategory::LatencyHiding => "latency hiding",
            OptimizerCategory::Parallel => "parallel",
        };
        f.write_str(s)
    }
}

/// Typed identity of a Table 2 optimizer.
///
/// The `Ord` derived from declaration order is the catalog order, which
/// the advisor uses as its iteration order and as the deterministic
/// tie-break for equal estimated speedups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptimizerId {
    /// Local-memory dependency stalls (register spills).
    RegisterReuse,
    /// Execution-dependency stalls of long-latency arithmetic.
    StrengthReduction,
    /// Instruction-fetch stalls in functions larger than the i-cache.
    FunctionSplit,
    /// Stalls inside CUDA math-library functions.
    FastMath,
    /// Synchronization stalls at barriers.
    WarpBalance,
    /// Memory-throttle stalls (too many transactions in flight).
    MemoryTransactionReduction,
    /// Hideable latency with def and use in one loop.
    LoopUnrolling,
    /// Hideable latency at short def→use distance.
    CodeReordering,
    /// Stalls in out-of-line device functions and call sites.
    FunctionInlining,
    /// Grids leaving SMs idle.
    BlockIncrease,
    /// Blocks too small for full occupancy.
    ThreadIncrease,
    /// Uncoalesced-access and memory-backpressure stalls (hierarchy
    /// model).
    MemoryCoalescing,
    /// Shared-memory bank-conflict stalls (hierarchy model).
    BankConflictResolution,
}

impl OptimizerId {
    /// Every built-in optimizer, in Table 2 (catalog) order, followed by
    /// the memory-hierarchy additions (appended so the catalog order of
    /// the original eleven — and every report ranking tie-break — is
    /// unchanged).
    pub const ALL: [OptimizerId; 13] = [
        OptimizerId::RegisterReuse,
        OptimizerId::StrengthReduction,
        OptimizerId::FunctionSplit,
        OptimizerId::FastMath,
        OptimizerId::WarpBalance,
        OptimizerId::MemoryTransactionReduction,
        OptimizerId::LoopUnrolling,
        OptimizerId::CodeReordering,
        OptimizerId::FunctionInlining,
        OptimizerId::BlockIncrease,
        OptimizerId::ThreadIncrease,
        OptimizerId::MemoryCoalescing,
        OptimizerId::BankConflictResolution,
    ];

    /// The built-in row of Table 2 for this id.
    pub(crate) fn row(self) -> &'static Optimizer {
        &TABLE2[self as usize]
    }

    /// The paper-style display name (e.g. `GPURegisterReuseOptimizer`).
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Stable machine-readable name (advice schema v2, CLI filters).
    pub fn slug(self) -> &'static str {
        self.row().slug
    }

    /// The Table 2 family the optimizer belongs to.
    pub fn category(self) -> OptimizerCategory {
        self.row().category
    }

    /// Parses either form of the name: the paper-style display name
    /// (`GPULoopUnrollOptimizer`) or the schema slug (`loop-unrolling`).
    pub fn from_name(s: &str) -> Option<OptimizerId> {
        Self::ALL.into_iter().find(|id| id.name() == s || id.slug() == s)
    }
}

impl fmt::Display for OptimizerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of statement a [`Hint`] makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintKind {
    /// Static guidance: how to apply the optimization (Figure 8's
    /// numbered suggestions).
    Guidance,
    /// A dynamic finding from this profile (e.g. the proposed launch
    /// configuration).
    Finding,
}

impl HintKind {
    /// Whether this is static guidance (vs a dynamic finding).
    pub(crate) fn is_guidance(self) -> bool {
        self == HintKind::Guidance
    }

    /// Stable machine-readable name (advice schema v2).
    pub fn slug(self) -> &'static str {
        match self {
            HintKind::Guidance => "guidance",
            HintKind::Finding => "finding",
        }
    }
}

/// One structured suggestion in an advice item: static guidance on how
/// to apply the optimizer, or a dynamic finding from the profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Hint {
    /// Guidance or finding.
    pub kind: HintKind,
    /// The suggestion text.
    pub text: String,
}

impl Hint {
    /// A static guidance hint.
    pub fn guidance(text: impl Into<String>) -> Hint {
        Hint { kind: HintKind::Guidance, text: text.into() }
    }

    /// A dynamic finding.
    pub fn finding(text: impl Into<String>) -> Hint {
        Hint { kind: HintKind::Finding, text: text.into() }
    }
}

/// A def→use pair worth the user's attention, with its sample weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// Source (blamed) instruction PC, when the pattern has one.
    pub def_pc: Option<u64>,
    /// Stalled instruction PC.
    pub use_pc: u64,
    /// Matched samples on this pair.
    pub samples: f64,
    /// def→use distance in instructions (1 = adjacent).
    pub distance: Option<u32>,
}

/// What an optimizer matched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchResult {
    /// Matched stall samples (`M` of Eq. 2).
    pub matched: f64,
    /// Matched latency samples (`M_L` of Eqs. 3–5).
    pub matched_latency: f64,
    /// Matched latency samples grouped by innermost scope (for Eq. 5).
    pub scopes: Vec<(Scope, f64)>,
    /// Ranked def/use hotspots.
    pub hotspots: Vec<Hotspot>,
    /// Optimizer-specific findings (e.g. the proposed launch config).
    pub notes: Vec<String>,
    /// Parallel-model inputs, for parallel optimizers only.
    pub parallel: Option<ParallelParams>,
}

impl MatchResult {
    /// Whether anything matched.
    pub fn is_empty(&self) -> bool {
        self.matched == 0.0 && self.matched_latency == 0.0 && self.parallel.is_none()
    }

    /// Sorts hotspots by sample weight and keeps the top `n`. The sort
    /// is a total order (`f64::total_cmp`, stable), so a NaN weight can
    /// never panic and equal weights keep their discovery order.
    pub(crate) fn keep_top_hotspots(&mut self, n: usize) {
        self.hotspots.sort_by(|a, b| b.samples.total_cmp(&a.samples));
        self.hotspots.truncate(n);
    }

    /// Adds matched latency to a scope bucket.
    pub(crate) fn add_scope(&mut self, scope: Scope, latency: f64) {
        if latency <= 0.0 {
            return;
        }
        match self.scopes.iter_mut().find(|(s, _)| *s == scope) {
            Some((_, v)) => *v += latency,
            None => self.scopes.push((scope, latency)),
        }
    }
}

/// Which Section 5.2 estimator turns an optimizer's match into a
/// speedup. The row names it, so the advisor never dispatches on an id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// Eq. 2 on the matched stalls.
    StallElimination,
    /// Eq. 2 with this fraction of every matched stall surviving the fix
    /// (`estimators::residual_elimination_speedup`): rewriting
    /// an access pattern shrinks its serialization but cannot remove the
    /// access, so the estimate is bounded above by plain Eq. 2 on the
    /// same match — the Theorem-5.1 shape for memory rewrites.
    Residual(f64),
    /// Eqs. 4–5 on the matched latency, scope by scope.
    LatencyHiding,
    /// Eqs. 6–10 on the launch configuration the rule proposes.
    Parallel,
}

/// A performance optimizer: one row of Table 2. It matches an
/// inefficiency pattern (`rule`), says how the match becomes a speedup
/// (`estimator`) and describes the fix (`hints`). Plain `Copy` data — the
/// paper's "users can add custom optimizers" is a struct literal with the
/// caller's own `fn`, put in its id's slot by
/// [`Advisor::with_row`](crate::Advisor::with_row).
#[derive(Debug, Clone, Copy)]
pub struct Optimizer {
    /// Which catalog slot this row fills.
    pub id: OptimizerId,
    /// The paper-style display name (e.g. `GPURegisterReuseOptimizer`).
    pub name: &'static str,
    /// Stable machine-readable name (advice schema v2, CLI filters).
    pub slug: &'static str,
    /// The Table 2 family. Reports and filters key the family on `id`, so
    /// a row taking over a built-in slot keeps it.
    pub category: OptimizerCategory,
    /// The estimator applied to what `rule` matched.
    pub estimator: Estimator,
    /// Static optimization hints shown in the report (the numbered
    /// suggestions of Figure 8).
    pub hints: &'static [&'static str],
    /// Computes matching stalls against an analysis context.
    pub rule: fn(&AnalysisCtx<'_>) -> MatchResult,
}

/// Table 2: one row per [`OptimizerId`], in [`OptimizerId::ALL`] order
/// (row `i` is the variant with discriminant `i`).
pub static TABLE2: [Optimizer; 13] = [
    Optimizer {
        id: OptimizerId::RegisterReuse,
        name: "GPURegisterReuseOptimizer",
        slug: "register-reuse",
        category: OptimizerCategory::StallElimination,
        estimator: Estimator::StallElimination,
        hints: &[
            "Local memory loads indicate register spills. Reduce live values per thread.",
            "Split hot loops or functions so fewer values are live across them.",
            "Lower the launch bound or recompute cheap values instead of keeping them live.",
        ],
        rule: rules::register_reuse,
    },
    Optimizer {
        id: OptimizerId::StrengthReduction,
        name: "GPUStrengthReductionOptimizer",
        slug: "strength-reduction",
        category: OptimizerCategory::StallElimination,
        estimator: Estimator::StallElimination,
        hints: &[
            "Avoid integer division. It expands to a special-function sequence; multiply by a reciprocal instead.",
            "Avoid conversion. A double constant multiplied with a 32-bit float promotes the whole expression to 64 bits; write the constant as `2.0f`.",
            "Replace repeated expensive operations with mathematically equivalent cheaper forms.",
        ],
        rule: rules::strength_reduction,
    },
    Optimizer {
        id: OptimizerId::FunctionSplit,
        name: "GPUFunctionSplitOptimizer",
        slug: "function-split",
        category: OptimizerCategory::StallElimination,
        estimator: Estimator::StallElimination,
        hints: &[
            "The function body exceeds the instruction cache; sequential fetches keep missing.",
            "Split the function (or a huge loop body) into parts so each hot region fits the i-cache.",
        ],
        rule: rules::function_split,
    },
    Optimizer {
        id: OptimizerId::FastMath,
        name: "GPUFastMathOptimizer",
        slug: "fast-math",
        category: OptimizerCategory::StallElimination,
        estimator: Estimator::StallElimination,
        hints: &[
            "Stalls concentrate in precise CUDA math functions.",
            "Compile with --use_fast_math, or call the __func intrinsics directly, if the accuracy loss is acceptable.",
        ],
        rule: rules::fast_math,
    },
    Optimizer {
        id: OptimizerId::WarpBalance,
        name: "GPUWarpBalanceOptimizer",
        slug: "warp-balance",
        category: OptimizerCategory::StallElimination,
        estimator: Estimator::StallElimination,
        hints: &[
            "Warps wait long at __syncthreads(): work is unbalanced across the block's warps.",
            "Distribute iterations evenly over warps (e.g. tree-shaped reductions instead of a single working warp).",
            "Remove barriers that protect nothing, or narrow their scope.",
        ],
        rule: rules::warp_balance,
    },
    Optimizer {
        id: OptimizerId::MemoryTransactionReduction,
        name: "GPUMemoryTransactionReductionOptimizer",
        slug: "memory-transaction-reduction",
        category: OptimizerCategory::StallElimination,
        estimator: Estimator::StallElimination,
        hints: &[
            "The LSU queue is saturated: reduce the number of memory transactions.",
            "Coalesce warp accesses into contiguous 32-byte sectors.",
            "Move values shared by all threads and constant during execution into constant memory.",
            "Vectorize loads (e.g. 64/128-bit) where alignment allows.",
        ],
        rule: rules::memory_transaction_reduction,
    },
    Optimizer {
        id: OptimizerId::LoopUnrolling,
        name: "GPULoopUnrollOptimizer",
        slug: "loop-unrolling",
        category: OptimizerCategory::LatencyHiding,
        estimator: Estimator::LatencyHiding,
        hints: &[
            "Dependent instructions inside the loop leave issue slots empty.",
            "Add `#pragma unroll` (or unroll by hand) so independent iterations overlap the latency.",
            "If the compiler refuses (unknown trip count), hoist the bound into a constant.",
        ],
        rule: rules::loop_unrolling,
    },
    Optimizer {
        id: OptimizerId::CodeReordering,
        name: "GPUCodeReorderOptimizer",
        slug: "code-reordering",
        category: OptimizerCategory::LatencyHiding,
        estimator: Estimator::LatencyHiding,
        hints: &[
            "The distance between the producing load/operation and its use is short.",
            "Hoist subscripted loads well before their use (e.g. read the next iteration's address before the synchronization).",
            "Separate address computation from dereference so the compiler can schedule them apart.",
        ],
        rule: rules::code_reordering,
    },
    Optimizer {
        id: OptimizerId::FunctionInlining,
        name: "GPUFunctionInliningOptimizer",
        slug: "function-inlining",
        category: OptimizerCategory::LatencyHiding,
        estimator: Estimator::LatencyHiding,
        hints: &[
            "Hot device functions are called out of line: calls serialize the pipeline and hide nothing.",
            "Mark small hot callees __forceinline__, or inline their bodies by hand when the compiler refuses for size reasons.",
        ],
        rule: rules::function_inlining,
    },
    Optimizer {
        id: OptimizerId::BlockIncrease,
        name: "GPUBlockIncreaseOptimizer",
        slug: "block-increase",
        category: OptimizerCategory::Parallel,
        estimator: Estimator::Parallel,
        hints: &[
            "The grid has fewer blocks than the device has SMs: most SMs idle.",
            "Halve the threads per block and double the block count (total threads unchanged) until every SM hosts work.",
        ],
        rule: rules::block_increase,
    },
    Optimizer {
        id: OptimizerId::ThreadIncrease,
        name: "GPUThreadIncreaseOptimizer",
        slug: "thread-increase",
        category: OptimizerCategory::Parallel,
        estimator: Estimator::Parallel,
        hints: &[
            "Blocks are too small: the per-SM block-slot limit caps resident warps, and sub-warp blocks waste lanes.",
            "Increase threads per block (merging blocks) so each SM hosts more full warps.",
        ],
        rule: rules::thread_increase,
    },
    // The two memory-hierarchy rows only ever match under the timed memory
    // model ([`gpa_arch::MemModel::Hierarchy`]): the flat model never
    // emits their stall reasons, so they are silent (and omitted from
    // reports) under the default configuration.
    Optimizer {
        id: OptimizerId::MemoryCoalescing,
        name: "GPUMemoryCoalescingOptimizer",
        slug: "memory-coalescing",
        category: OptimizerCategory::StallElimination,
        // A perfectly coalesced warp access still performs one
        // transaction, so roughly a sector's worth of latency remains.
        estimator: Estimator::Residual(0.25),
        hints: &[
            "Warp accesses split into many memory sectors: make consecutive lanes touch consecutive addresses.",
            "Restructure array-of-structs into struct-of-arrays so a warp's loads share cache lines.",
            "Stage strided data through shared memory with a coalesced global access pattern.",
            "A full MSHR file or L2 queue means the sector storm is saturating the memory pipeline; coalescing shrinks it at the source.",
        ],
        rule: rules::memory_coalescing,
    },
    Optimizer {
        id: OptimizerId::BankConflictResolution,
        name: "GPUBankConflictResolutionOptimizer",
        slug: "bank-conflict-resolution",
        category: OptimizerCategory::StallElimination,
        // A conflict-free access still pays one bank's service time (1 of
        // up to 32 serialized accesses).
        estimator: Estimator::Residual(1.0 / 32.0),
        hints: &[
            "Lanes of a warp hit the same shared-memory bank; accesses serialize up to 32-way.",
            "Pad shared arrays (e.g. [32][33] instead of [32][32]) so column walks touch distinct banks.",
            "Swizzle indices (xor the row into the column) to spread accesses over banks.",
        ],
        rule: rules::bank_conflict_resolution,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_names_and_slugs() {
        for id in OptimizerId::ALL {
            assert_eq!(OptimizerId::from_name(id.name()), Some(id));
            assert_eq!(OptimizerId::from_name(id.slug()), Some(id));
            assert_eq!(id.row().id, id);
        }
        assert_eq!(OptimizerId::from_name("GPUWarpDriveOptimizer"), None);
        for cat in OptimizerCategory::ALL {
            assert_eq!(OptimizerCategory::from_slug(cat.slug()), Some(cat));
        }
    }

    /// `OptimizerId::{name, slug, category}` index the table by
    /// discriminant: row `i` must be the variant with discriminant `i`,
    /// and `ALL` the same list.
    #[test]
    fn table2_rows_are_the_ids_in_catalog_order() {
        assert_eq!(TABLE2.len(), OptimizerId::ALL.len());
        for (i, (row, id)) in TABLE2.iter().zip(OptimizerId::ALL).enumerate() {
            assert_eq!(row.id, id, "row {i}");
            assert_eq!(id as usize, i, "{id}");
        }
    }

    /// Every row names an estimator of its own family (a residual is a
    /// stall elimination). `tests/advice_api.rs` checks this per emitted
    /// item, but under the flat model, where no residual item exists.
    #[test]
    fn every_row_names_an_estimator_of_its_family() {
        for row in &TABLE2 {
            let family = match row.estimator {
                Estimator::StallElimination => OptimizerCategory::StallElimination,
                Estimator::Residual(r) => {
                    assert!((0.0..1.0).contains(&r), "{}: residual {r}", row.name);
                    OptimizerCategory::StallElimination
                }
                Estimator::LatencyHiding => OptimizerCategory::LatencyHiding,
                Estimator::Parallel => OptimizerCategory::Parallel,
            };
            assert_eq!(row.category, family, "{}", row.name);
            assert!(!row.hints.is_empty(), "{}: every optimizer ships guidance", row.name);
        }
    }

    #[test]
    fn keep_top_hotspots_uses_a_total_order() {
        let mut m = MatchResult {
            hotspots: vec![
                Hotspot { def_pc: None, use_pc: 0, samples: 1.0, distance: None },
                Hotspot { def_pc: None, use_pc: 16, samples: f64::NAN, distance: None },
                Hotspot { def_pc: None, use_pc: 32, samples: 5.0, distance: None },
            ],
            ..MatchResult::default()
        };
        // Must not panic on the NaN weight; NaN sorts above all finite
        // values under total_cmp's descending order.
        m.keep_top_hotspots(2);
        assert_eq!(m.hotspots.len(), 2);
        assert_eq!(m.hotspots[1].use_pc, 32, "largest finite weight survives");
    }
}
