//! The blamer's static half: per stalled instruction, the def→use edges
//! the module alone decides, memoised inside the function's
//! [`FunctionInfo`].
//!
//! The paper's static analyzer runs once per binary and its dynamic
//! analyzer once per profile. Everything here is a function of the module:
//! the backward slices (defs by slot, nearest barriers), pruning rule 2's
//! re-reader test, and the shortest / longest def→use paths. The memo is
//! filled **lazily, each field on the condition the blamer reads it
//! under** (barriers only for nodes with synchronization stalls, the
//! dominated flag only after rule 1 passes, the shortest path only after
//! rule 2, the longest only for live edges), so unsampled code costs
//! nothing, the first profile costs what an unmemoised blame cost, and the
//! memory is bounded by program size and dropped with the artifact.

use crate::slice::{immediate_defs, nearest_barriers};
use crate::FunctionInfo;
use gpa_isa::{Function, Slot};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One candidate def→use edge of the dependency graph.
#[derive(Debug, Clone, Default)]
pub struct StaticEdge {
    /// Definition instruction index.
    pub def: usize,
    /// Stalled use instruction index.
    pub use_: usize,
    /// Slots carrying the dependency (empty for synchronization edges),
    /// shared with every graph built from this skeleton.
    pub slots: Arc<[Slot]>,
    dominated: OnceLock<bool>,
    min_path: OnceLock<Option<u32>>,
    max_path: OnceLock<Option<u32>>,
}

/// The edges into one instruction.
#[derive(Debug, Clone)]
struct UseSkeleton {
    defs: Box<[StaticEdge]>,
    barriers: OnceLock<Box<[StaticEdge]>>,
}

/// The per-function memo: one lazily filled cell per instruction, plus
/// rule 2's map of unpredicated readers per slot.
#[derive(Debug, Clone)]
pub(crate) struct BlameSkeleton {
    uses: Box<[OnceLock<Box<UseSkeleton>>]>,
    users: OnceLock<BTreeMap<Slot, Vec<usize>>>,
}

impl BlameSkeleton {
    pub(crate) fn new(instrs: usize) -> Self {
        BlameSkeleton {
            uses: (0..instrs).map(|_| OnceLock::new()).collect(),
            users: OnceLock::new(),
        }
    }
}

/// The blamer's static queries. `f` is always the function this info was
/// built from (`module.functions[self.index]`).
impl FunctionInfo {
    fn use_skeleton(&self, f: &Function, j: usize) -> &UseSkeleton {
        debug_assert!(f.base == self.base && f.instrs.len() == self.skeleton.uses.len());
        self.skeleton.uses[j].get_or_init(|| {
            let mut by_def: BTreeMap<usize, Vec<Slot>> = BTreeMap::new();
            let mut slots: Vec<Slot> = f.instrs[j].uses().collect();
            slots.sort_unstable();
            slots.dedup();
            for slot in slots {
                for d in immediate_defs(f, &self.cfg, j, slot) {
                    by_def.entry(d).or_default().push(slot);
                }
            }
            let defs = by_def
                .into_iter()
                .map(|(def, slots)| StaticEdge {
                    def,
                    use_: j,
                    slots: slots.into(),
                    ..Default::default()
                })
                .collect();
            Box::new(UseSkeleton { defs, barriers: OnceLock::new() })
        })
    }

    /// Immediate definitions feeding instruction `j`, one edge per
    /// defining instruction (ascending), each with the slots it carries.
    pub fn def_edges(&self, f: &Function, j: usize) -> &[StaticEdge] {
        &self.use_skeleton(f, j).defs
    }

    /// Nearest `BAR.SYNC` on every backward path from `j` (ascending).
    pub fn barrier_edges(&self, f: &Function, j: usize) -> &[StaticEdge] {
        self.use_skeleton(f, j).barriers.get_or_init(|| {
            let barriers = nearest_barriers(f, &self.cfg, j);
            barriers
                .into_iter()
                .map(|def| StaticEdge { def, use_: j, ..Default::default() })
                .collect()
        })
    }

    /// Pruning rule 2: an unpredicated re-reader of one of the edge's
    /// slots sits on every def→use path (asked once per block holding
    /// readers, see [`gpa_cfg::Cfg::any_on_every_path`]).
    pub fn dominated(&self, f: &Function, e: &StaticEdge) -> bool {
        *e.dominated.get_or_init(|| {
            let users = self.skeleton.users.get_or_init(|| {
                let mut users: BTreeMap<Slot, Vec<usize>> = BTreeMap::new();
                for (i, instr) in f.instrs.iter().enumerate() {
                    if instr.pred.is_some_and(|p| !p.always()) {
                        continue;
                    }
                    for s in instr.uses() {
                        users.entry(s).or_default().push(i);
                    }
                }
                users
            });
            // Each list is filled in instruction order, so it is ascending.
            e.slots.iter().any(|s| {
                let ks = users.get(s).map_or(&[][..], Vec::as_slice);
                self.cfg.any_on_every_path(e.def, ks, e.use_)
            })
        })
    }

    /// Fewest instructions strictly between def and use (`None` when
    /// unreachable).
    pub fn min_path(&self, e: &StaticEdge) -> Option<u32> {
        *e.min_path.get_or_init(|| self.cfg.min_instrs_between(e.def, e.use_))
    }

    /// Most instructions strictly between def and use over simple paths.
    pub fn max_path(&self, e: &StaticEdge) -> Option<u32> {
        *e.max_path.get_or_init(|| self.cfg.max_instrs_between_with(&self.dom, e.def, e.use_))
    }
}
