//! The advisor: orchestrates blame → match → estimate → rank.
//!
//! The public surface is typed end to end (advice schema v2):
//!
//! * [`Advisor`] holds the Table 2 catalog, one [`Optimizer`] row per
//!   [`OptimizerId`] ([`Advisor::with_row`] lets a custom row take over
//!   its id's slot);
//! * every `advise*` call is scoped by a per-call [`AdviceRequest`]
//!   (top-k, category/optimizer filters, minimum speedup, hotspot
//!   budget, evidence on/off), so one shared advisor serves
//!   heterogeneous callers;
//! * the produced [`AdviceReport`] carries [`SCHEMA_VERSION`], and each
//!   [`AdviceItem`] carries its [`OptimizerId`], the estimator inputs
//!   that produced its speedup, structured [`Hint`]s, and source-region
//!   attribution for its hotspots.

use crate::blamer::{BlamedEdge, ModuleBlame};
use crate::estimators::{
    parallel_speedup, residual_elimination_speedup, scoped_latency_hiding_speedup,
    stall_elimination_speedup, ParallelParams,
};
use crate::optimizers::{
    Estimator, Hint, Hotspot, Optimizer, OptimizerCategory, OptimizerId, TABLE2,
};
use gpa_arch::{ArchConfig, LatencyTable};
use gpa_isa::Module;
use gpa_sampling::{KernelProfile, StallReason};
use gpa_structure::{ProgramStructure, Scope};

/// The advice schema version this crate produces (see
/// `docs/advice-schema.md` for the versioning policy).
pub const SCHEMA_VERSION: u32 = 2;

/// Everything an optimizer may inspect.
pub struct AnalysisCtx<'a> {
    /// The kernel's module (virtual CUBIN).
    pub module: &'a Module,
    /// Static program structure.
    pub structure: &'a ProgramStructure,
    /// The PC-sampling profile.
    pub profile: &'a KernelProfile,
    /// Machine description.
    pub arch: &'a ArchConfig,
    /// Latency tables.
    pub latency: &'a LatencyTable,
    /// Blame analysis.
    pub blame: &'a ModuleBlame,
}

impl<'a> AnalysisCtx<'a> {
    /// Absolute PC of an instruction.
    pub fn pc_of(&self, func: usize, idx: usize) -> u64 {
        self.module.functions[func].pc_of(idx)
    }

    /// The instruction at `(func, idx)`.
    pub fn instr(&self, func: usize, idx: usize) -> &gpa_isa::Instruction {
        &self.module.functions[func].instrs[idx]
    }

    /// All blamed edges as `(function, edge)`.
    pub(crate) fn blamed_edges(&self) -> impl Iterator<Item = (usize, &BlamedEdge)> {
        self.blame.edges()
    }

    /// Total samples `T`.
    pub fn total_samples(&self) -> f64 {
        self.profile.total_samples as f64
    }

    /// Active samples within a scope (Eq. 5's `Σ A`, since a scope's
    /// blocks include all scopes nested inside it).
    pub(crate) fn active_in_scope(&self, scope: Scope) -> f64 {
        self.profile
            .pcs
            .iter()
            .filter(|(pc, _)| self.structure.scope_contains(scope, **pc))
            .map(|(_, st)| st.active_total() as f64)
            .sum()
    }

    /// Whether a PC lies in CUDA-math-library code (by containing function
    /// or inline stack).
    pub(crate) fn is_math_pc(&self, pc: u64) -> bool {
        if let Some((f, _)) = self.structure.locate(pc) {
            if f.is_math_function() {
                return true;
            }
        }
        self.structure
            .inline_stack_of(self.module, pc)
            .iter()
            .any(|fr| fr.callee.starts_with("__nv_") || fr.callee.starts_with("__internal_"))
    }
}

/// A source-annotated def/use location in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationReport {
    /// Absolute PC.
    pub pc: u64,
    /// Containing function.
    pub function: String,
    /// Source file, when line info exists.
    pub file: Option<String>,
    /// Source line.
    pub line: Option<u32>,
    /// Enclosing scope description (e.g. `Loop at x.cu:30 in k`).
    pub scope: String,
}

/// Source-region attribution for a hotspot: the program region (innermost
/// scope) its stalled instruction belongs to, as a function, a PC range,
/// and (when line info exists) a source-line range.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Containing function symbol.
    pub function: String,
    /// First PC of the region.
    pub pc_begin: u64,
    /// One past the last PC of the region.
    pub pc_end: u64,
    /// Source file, when line info exists.
    pub file: Option<String>,
    /// First source line of the region.
    pub line_begin: Option<u32>,
    /// Last source line of the region.
    pub line_end: Option<u32>,
    /// Human-readable scope description (e.g. `Loop at x.cu:30 in k`).
    pub scope: String,
}

/// One ranked hotspot in an advice item.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotReport {
    /// Blamed (source) location.
    pub def: Option<LocationReport>,
    /// Stalled location.
    pub use_: LocationReport,
    /// The program region the stalled instruction belongs to.
    pub region: RegionReport,
    /// Matched samples / total samples.
    pub ratio: f64,
    /// Speedup from fixing this hotspot alone.
    pub speedup: f64,
    /// def→use distance in instructions.
    pub distance: Option<u32>,
}

/// The estimator a speedup came from, with the inputs that produced it —
/// so downstream consumers (report diffing, learned predictors, agents)
/// can re-derive or re-weight the estimate without re-running the
/// analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorInputs {
    /// Eq. 2: `Se = T / (T − M)`.
    StallElimination {
        /// Total samples `T`.
        total: f64,
        /// Matched stall samples `M`.
        matched: f64,
    },
    /// Eqs. 4–5: scope-limited latency hiding.
    LatencyHiding {
        /// Total samples `T`.
        total: f64,
        /// Kernel-wide active samples `A`.
        active: f64,
        /// Matched latency samples `M_L` (summed over scopes).
        matched_latency: f64,
        /// Number of disjoint innermost scopes the match grouped into.
        scopes: u32,
    },
    /// Eqs. 6–10: the parallel-adjustment model.
    Parallel {
        /// Measured scheduler issue probability `I`.
        issue_ratio: f64,
        /// The model inputs, when the optimizer proposed a new
        /// configuration.
        params: Option<ParallelParams>,
    },
    /// Eq. 2 with a residual floor: `S = T / (T − (1 − r)·M)` — the
    /// memory-hierarchy advisors, whose rewrites shrink an access's
    /// serialization but cannot remove the access.
    ResidualElimination {
        /// Total samples `T`.
        total: f64,
        /// Matched stall samples `M`.
        matched: f64,
        /// Fraction `r` of each matched stall that survives the fix.
        residual: f64,
    },
}

/// One optimizer's advice.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceItem {
    /// Which optimizer this advice comes from.
    pub id: OptimizerId,
    /// Optimizer family (always `id.category()`; carried for schema
    /// consumers).
    pub category: OptimizerCategory,
    /// Matched samples / total samples.
    pub matched_ratio: f64,
    /// Estimated speedup if the advice is applied.
    pub estimated_speedup: f64,
    /// The estimator and the inputs that produced `estimated_speedup`.
    pub estimator: EstimatorInputs,
    /// Structured hints: static guidance followed by dynamic findings.
    pub hints: Vec<Hint>,
    /// Top hotspots (empty when the request disabled evidence).
    pub hotspots: Vec<HotspotReport>,
}

impl AdviceItem {
    /// The paper-style optimizer name.
    pub fn optimizer(&self) -> &'static str {
        self.id.name()
    }

    /// The static guidance hints, in order.
    pub fn guidance(&self) -> impl Iterator<Item = &str> {
        self.hints.iter().filter(|h| h.kind.is_guidance()).map(|h| h.text.as_str())
    }

    /// The dynamic findings, in order.
    pub fn findings(&self) -> impl Iterator<Item = &str> {
        self.hints.iter().filter(|h| !h.kind.is_guidance()).map(|h| h.text.as_str())
    }
}

/// The full advice report for one kernel (advice schema v2).
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceReport {
    /// Version of the advice schema (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Kernel name.
    pub kernel: String,
    /// Total samples.
    pub total_samples: u64,
    /// Active samples.
    pub active_samples: u64,
    /// Latency samples.
    pub latency_samples: u64,
    /// Kernel stall histogram `(reason name, samples)`.
    pub stall_histogram: Vec<(String, u64)>,
    /// Advice items sorted by estimated speedup (best first), ties broken
    /// by [`OptimizerId`] catalog order.
    pub items: Vec<AdviceItem>,
}

impl AdviceReport {
    /// The best advice item, if any matched.
    pub fn top(&self) -> Option<&AdviceItem> {
        self.items.first()
    }

    /// The item for a given optimizer.
    pub fn item(&self, id: OptimizerId) -> Option<&AdviceItem> {
        self.items.iter().find(|i| i.id == id)
    }

    /// The item for an optimizer named by its paper-style name or slug.
    pub fn item_named(&self, name: &str) -> Option<&AdviceItem> {
        self.item(OptimizerId::from_name(name)?)
    }

    /// Rank (1-based) of an optimizer in the report.
    pub fn rank_of(&self, id: OptimizerId) -> Option<usize> {
        self.items.iter().position(|i| i.id == id).map(|p| p + 1)
    }

    /// [`AdviceReport::rank_of`] by paper-style name or slug.
    pub fn rank_of_named(&self, name: &str) -> Option<usize> {
        self.rank_of(OptimizerId::from_name(name)?)
    }
}

/// Per-call options for one `advise*` request: how much of the report to
/// produce and which optimizers to consult. The default request
/// reproduces the classic full report.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceRequest {
    /// Keep only the best `n` items (`None` = all).
    pub top: Option<usize>,
    /// Restrict to these optimizer families (empty = all).
    pub categories: Vec<OptimizerCategory>,
    /// Restrict to these optimizers (empty = all).
    pub optimizers: Vec<OptimizerId>,
    /// Drop items whose estimated speedup is below this bound.
    pub min_speedup: f64,
    /// Hotspot budget per item.
    pub hotspots: usize,
    /// Whether items carry per-PC evidence (hotspots with source
    /// regions); `false` produces a cheap summary-only report.
    pub evidence: bool,
}

/// The default request: every optimizer, every item above a 1.001×
/// estimated speedup, five hotspots each, with evidence.
static DEFAULT_REQUEST: AdviceRequest = AdviceRequest {
    top: None,
    categories: Vec::new(),
    optimizers: Vec::new(),
    min_speedup: 1.001,
    hotspots: 5,
    evidence: true,
};

impl Default for AdviceRequest {
    fn default() -> Self {
        DEFAULT_REQUEST.clone()
    }
}

impl AdviceRequest {
    /// Keep only the best `n` items.
    #[must_use]
    pub fn with_top(mut self, n: usize) -> Self {
        self.top = Some(n);
        self
    }

    /// Restrict to one optimizer family.
    #[must_use]
    pub fn with_category(mut self, category: OptimizerCategory) -> Self {
        self.categories.push(category);
        self
    }

    /// Restrict to specific optimizers.
    #[must_use]
    pub fn with_optimizers(mut self, ids: &[OptimizerId]) -> Self {
        self.optimizers.extend_from_slice(ids);
        self
    }

    /// Override the minimum estimated speedup.
    #[must_use]
    pub fn with_min_speedup(mut self, bound: f64) -> Self {
        self.min_speedup = bound;
        self
    }

    /// Override the hotspot budget per item.
    #[must_use]
    pub fn with_hotspots(mut self, n: usize) -> Self {
        self.hotspots = n;
        self
    }

    /// Enable or disable per-PC evidence.
    #[must_use]
    pub fn with_evidence(mut self, on: bool) -> Self {
        self.evidence = on;
        self
    }

    /// Whether this request consults `id` at all.
    pub fn wants(&self, id: OptimizerId) -> bool {
        (self.optimizers.is_empty() || self.optimizers.contains(&id))
            && (self.categories.is_empty() || self.categories.contains(&id.category()))
    }
}

/// The GPA advisor: the Table 2 catalog, one row per [`OptimizerId`].
/// One advisor is shared across threads ([`Optimizer`] rows are plain
/// data and their rules stateless functions); per-call variation goes
/// through [`AdviceRequest`].
pub struct Advisor {
    /// Row `i` fills the slot of the id with discriminant `i`.
    rows: [Optimizer; OptimizerId::ALL.len()],
}

impl Default for Advisor {
    fn default() -> Self {
        Self::new()
    }
}

/// Ranks advice items in place: estimated speedup descending, ties
/// broken by [`OptimizerId`] catalog order. Total (`f64::total_cmp`) and
/// fully deterministic — equal-speedup items never depend on insertion
/// order.
pub(crate) fn rank_items(items: &mut [AdviceItem]) {
    items.sort_by(|a, b| {
        b.estimated_speedup.total_cmp(&a.estimated_speedup).then_with(|| a.id.cmp(&b.id))
    });
}

impl Advisor {
    /// An advisor with the full Table 2 catalog.
    pub fn new() -> Self {
        Advisor { rows: TABLE2 }
    }

    /// Puts a row (custom or built-in) in its id's catalog slot, replacing
    /// the row there: the paper's "users can add custom optimizers".
    #[must_use]
    pub fn with_row(mut self, row: Optimizer) -> Self {
        self.rows[row.id as usize] = row;
        self
    }

    /// The request [`Advisor::advise`] applies: [`AdviceRequest::default`].
    pub fn defaults(&self) -> &AdviceRequest {
        &DEFAULT_REQUEST
    }

    /// Runs the full dynamic analysis and produces the advice report
    /// with the default request.
    ///
    /// Builds the static analyses from scratch; callers that analyze
    /// many profiles of the same module (the pipeline's [`Session`]
    /// cache) should pre-build them once and use
    /// [`Advisor::advise_request`].
    ///
    /// [`Session`]: https://docs.rs/gpa-pipeline
    pub fn advise(
        &self,
        module: &Module,
        profile: &KernelProfile,
        arch: &ArchConfig,
    ) -> AdviceReport {
        let structure = ProgramStructure::build(module);
        let latency = LatencyTable::for_arch(arch);
        self.advise_request(module, &structure, &latency, profile, arch, self.defaults())
    }

    /// [`Advisor::advise`] with caller-provided static analyses — a
    /// cached `ProgramStructure`/`LatencyTable` is reused across repeated
    /// runs instead of being rebuilt per profile — scoped by a per-call
    /// [`AdviceRequest`].
    pub fn advise_request(
        &self,
        module: &Module,
        structure: &ProgramStructure,
        latency: &LatencyTable,
        profile: &KernelProfile,
        arch: &ArchConfig,
        request: &AdviceRequest,
    ) -> AdviceReport {
        let blame = ModuleBlame::build(module, structure, profile, latency);
        let ctx = AnalysisCtx { module, structure, profile, arch, latency, blame: &blame };
        let total = ctx.total_samples();
        let active = profile.active_samples as f64;
        let mut items = Vec::new();
        for opt in &self.rows {
            if !request.wants(opt.id) {
                continue;
            }
            let mut m = (opt.rule)(&ctx);
            if m.is_empty() || total == 0.0 {
                continue;
            }
            m.keep_top_hotspots(request.hotspots);
            let (estimated_speedup, estimator) = match opt.estimator {
                Estimator::StallElimination => (
                    stall_elimination_speedup(total, m.matched),
                    EstimatorInputs::StallElimination { total, matched: m.matched },
                ),
                Estimator::Residual(residual) => (
                    residual_elimination_speedup(total, m.matched, residual),
                    EstimatorInputs::ResidualElimination { total, matched: m.matched, residual },
                ),
                Estimator::LatencyHiding => {
                    let pairs: Vec<(f64, f64)> =
                        m.scopes.iter().map(|(s, ml)| (ctx.active_in_scope(*s), *ml)).collect();
                    (
                        scoped_latency_hiding_speedup(total, active, &pairs),
                        EstimatorInputs::LatencyHiding {
                            total,
                            active,
                            matched_latency: m.matched_latency,
                            scopes: m.scopes.len() as u32,
                        },
                    )
                }
                Estimator::Parallel => {
                    let issue_ratio = profile.issue_ratio();
                    let speedup = m.parallel.map_or(1.0, |p| parallel_speedup(issue_ratio, &p));
                    (speedup, EstimatorInputs::Parallel { issue_ratio, params: m.parallel })
                }
            };
            if estimated_speedup < request.min_speedup {
                continue;
            }
            let hotspots = if request.evidence {
                m.hotspots.iter().map(|h| hotspot_report(&ctx, h, total)).collect()
            } else {
                Vec::new()
            };
            let mut hints: Vec<Hint> = opt.hints.iter().copied().map(Hint::guidance).collect();
            hints.extend(m.notes.iter().cloned().map(Hint::finding));
            items.push(AdviceItem {
                id: opt.id,
                category: opt.id.category(),
                matched_ratio: if m.matched > 0.0 {
                    m.matched / total
                } else {
                    m.matched_latency / total
                },
                estimated_speedup,
                estimator,
                hints,
                hotspots,
            });
        }
        rank_items(&mut items);
        if let Some(top) = request.top {
            items.truncate(top);
        }
        let hist = profile.stall_histogram();
        AdviceReport {
            schema_version: SCHEMA_VERSION,
            kernel: profile.kernel.clone(),
            total_samples: profile.total_samples,
            active_samples: profile.active_samples,
            latency_samples: profile.latency_samples,
            stall_histogram: StallReason::ALL
                .iter()
                .map(|r| (r.name().to_string(), hist[r.code() as usize]))
                .filter(|(_, c)| *c > 0)
                .collect(),
            items,
        }
    }
}

fn hotspot_report(ctx: &AnalysisCtx<'_>, h: &Hotspot, total: f64) -> HotspotReport {
    HotspotReport {
        def: h.def_pc.map(|pc| location(ctx, pc)),
        use_: location(ctx, h.use_pc),
        region: region_of(ctx, h.use_pc),
        ratio: h.samples / total,
        speedup: stall_elimination_speedup(total, h.samples),
        distance: h.distance,
    }
}

fn location(ctx: &AnalysisCtx<'_>, pc: u64) -> LocationReport {
    let function =
        ctx.structure.locate(pc).map_or_else(|| "<unknown>".to_string(), |(f, _)| f.name.clone());
    let (file, line) = match ctx.structure.source_of(ctx.module, pc) {
        Some((f, l)) => (Some(f.to_string()), Some(l)),
        None => (None, None),
    };
    let scope = ctx
        .structure
        .scope_of(pc)
        .map_or_else(String::new, |s| ctx.structure.describe_scope(ctx.module, s));
    LocationReport { pc, function, file, line, scope }
}

/// The innermost region (loop or function) containing `pc`, as function
/// + PC range + line range.
fn region_of(ctx: &AnalysisCtx<'_>, pc: u64) -> RegionReport {
    let Some((f, _)) = ctx.structure.locate(pc) else {
        return RegionReport {
            function: "<unknown>".to_string(),
            pc_begin: pc,
            pc_end: pc + gpa_isa::INSTR_BYTES,
            file: None,
            line_begin: None,
            line_end: None,
            scope: String::new(),
        };
    };
    let scope = ctx.structure.scope_of(pc).unwrap_or(Scope::Function(f.index));
    // Instruction-index range of the region within its function.
    let (begin_idx, end_idx) = match scope {
        Scope::Loop(_, l) => {
            let lp = f.loops.get(l);
            let mut begin = usize::MAX;
            let mut end = 0usize;
            for &b in &lp.blocks {
                let block = f.cfg.block(b);
                begin = begin.min(block.start);
                end = end.max(block.start + block.len());
            }
            (begin, end)
        }
        _ => (0, ((f.end - f.base) / gpa_isa::INSTR_BYTES) as usize),
    };
    let lines = &ctx.module.functions[f.index].lines;
    let mut file = None;
    let mut line_begin = None;
    let mut line_end = None;
    for loc in lines[begin_idx.min(lines.len())..end_idx.min(lines.len())].iter().flatten() {
        file.get_or_insert_with(|| ctx.module.file(loc.file).to_string());
        line_begin = Some(line_begin.map_or(loc.line, |b: u32| b.min(loc.line)));
        line_end = Some(line_end.map_or(loc.line, |e: u32| e.max(loc.line)));
    }
    RegionReport {
        function: f.name.clone(),
        pc_begin: f.base + begin_idx as u64 * gpa_isa::INSTR_BYTES,
        pc_end: f.base + end_idx as u64 * gpa_isa::INSTR_BYTES,
        file,
        line_begin,
        line_end,
        scope: ctx.structure.describe_scope(ctx.module, scope),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: OptimizerId, speedup: f64) -> AdviceItem {
        AdviceItem {
            id,
            category: id.category(),
            matched_ratio: 0.1,
            estimated_speedup: speedup,
            estimator: EstimatorInputs::StallElimination { total: 100.0, matched: 10.0 },
            hints: vec![],
            hotspots: vec![],
        }
    }

    /// Regression test for the ranking tie-break: equal-speedup items
    /// must come out in catalog order, whatever order they went in.
    #[test]
    fn equal_speedups_tie_break_on_optimizer_id() {
        let mut items = vec![
            item(OptimizerId::ThreadIncrease, 1.25),
            item(OptimizerId::FastMath, 1.25),
            item(OptimizerId::LoopUnrolling, 1.5),
            item(OptimizerId::RegisterReuse, 1.25),
        ];
        rank_items(&mut items);
        let ids: Vec<OptimizerId> = items.iter().map(|i| i.id).collect();
        assert_eq!(
            ids,
            vec![
                OptimizerId::LoopUnrolling,
                OptimizerId::RegisterReuse,
                OptimizerId::FastMath,
                OptimizerId::ThreadIncrease,
            ],
            "speedup first, then catalog order"
        );
        // A permutation of the same items ranks identically.
        let mut permuted = vec![
            item(OptimizerId::RegisterReuse, 1.25),
            item(OptimizerId::LoopUnrolling, 1.5),
            item(OptimizerId::FastMath, 1.25),
            item(OptimizerId::ThreadIncrease, 1.25),
        ];
        rank_items(&mut permuted);
        assert_eq!(permuted, items);
    }

    #[test]
    fn request_filters_compose() {
        let r = AdviceRequest::default();
        assert!(r.wants(OptimizerId::FastMath));
        let r = AdviceRequest::default().with_category(OptimizerCategory::Parallel);
        assert!(r.wants(OptimizerId::BlockIncrease));
        assert!(!r.wants(OptimizerId::FastMath));
        let r = AdviceRequest::default()
            .with_category(OptimizerCategory::Parallel)
            .with_optimizers(&[OptimizerId::BlockIncrease, OptimizerId::FastMath]);
        assert!(r.wants(OptimizerId::BlockIncrease));
        assert!(!r.wants(OptimizerId::FastMath), "category filter still applies");
        assert!(!r.wants(OptimizerId::ThreadIncrease), "optimizer filter still applies");
    }
}
