//! GPA's dynamic analyzer — the paper's primary contribution.
//!
//! Given a PC-sampling profile ([`gpa_sampling::KernelProfile`]) and the
//! static analysis of the kernel's module ([`gpa_structure`], [`gpa_cfg`],
//! [`gpa_arch`]), this crate produces the performance advice report:
//!
//! 1. **Instruction blamer** ([`blamer`]): backward slicing over def–use
//!    chains extended with *virtual barrier registers* and
//!    *predicate-cover* search; dependency-graph construction; three
//!    cold-edge pruning rules (opcode, dominator, latency based); stall
//!    apportioning by Eq. 1; and Figure 5's detailed stall
//!    sub-classification.
//! 2. **Performance optimizers** ([`optimizers`]): the Table 2 catalog —
//!    six stall-elimination, three latency-hiding, and two parallel
//!    optimizers (plus two for the timed memory hierarchy), one row of
//!    [`TABLE2`] each: names, family, estimator, hints, and the rule that
//!    matches its inefficiency pattern against the blamed stalls and
//!    program structure.
//! 3. **Performance estimators** ([`estimators`]): `Se = T/(T−M)`
//!    (Eq. 2), scope-aware latency hiding `Sh = T/(T−min(ΣA, M_L))`
//!    (Eqs. 4–5, with Theorem 5.1's 2× bound), and the parallel model of
//!    Eqs. 6–10.
//! 4. **Advisor and report** ([`advisor`], [`report`]): ranks optimizers
//!    by estimated speedup and renders the Figure 8 style advice text.

pub mod advisor;
pub mod blamer;
pub mod estimators;
pub mod optimizers;
pub mod report;
pub mod schema;

pub use advisor::{
    AdviceItem, AdviceReport, AdviceRequest, Advisor, AdvisorBuilder, AnalysisCtx, EstimatorInputs,
    HotspotReport, LocationReport, RegionReport, SCHEMA_VERSION,
};
pub use blamer::{
    BlamedEdge, DepEdge, DepGraph, DetailedReason, FunctionBlame, ModuleBlame, PruneRule,
};
pub use optimizers::{
    Estimator, Hint, HintKind, Hotspot, MatchResult, Optimizer, OptimizerCategory, OptimizerId,
    OptimizerRegistry, TABLE2,
};
