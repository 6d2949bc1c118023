//! Cached ≡ computed for the blamer, and blame conservation.
//!
//! `ModuleBlame::build` reads the static half of its work (backward
//! slices, rule 2's verdicts, path lengths) from a memo inside the
//! module's `ProgramStructure`, filled lazily by whichever profile gets
//! there first. Whatever filled it, and however many threads did so at
//! once, the blame of a profile must equal the blame on a structure
//! nobody has touched — the whole graph, pruning flags and edge order
//! included.

mod common;

use common::{random_profile, NESTED_CALLS};
use gpa::arch::{ArchConfig, LatencyTable};
use gpa::core::ModuleBlame;
use gpa::isa::{Module, Slot, INSTR_BYTES};
use gpa::kernels::apps::membound;
use gpa::pipeline::Session;
use gpa::sampling::{KernelProfile, PcStats, StallReason};
use gpa::structure::ProgramStructure;
use proptest::{Strategy, TestRng};
use std::collections::BTreeMap;

const TABLES_PER_MODULE: usize = 20;

/// The 47 registry variants, the three `demo/membound` specs and the
/// nested-call module.
fn modules(session: &Session) -> Vec<(String, Module)> {
    let mut modules: Vec<(String, Module)> = session
        .jobs_for_all_variants()
        .iter()
        .map(|job| {
            (job.to_string(), session.artifacts(job).expect("registry job").spec.module.clone())
        })
        .collect();
    let app = membound::app();
    modules.extend(
        (0..app.variants())
            .map(|v| (format!("membound#{v}"), (app.build)(v, session.params()).module)),
    );
    modules.push(("nested calls".into(), gpa::isa::parse_module(NESTED_CALLS).expect("assembles")));
    assert_eq!(modules.len(), 47 + 3 + 1);
    modules
}

/// [`modules`], each with its seeded random sample tables.
fn corpus() -> Vec<(String, Module, Vec<KernelProfile>)> {
    let session = Session::test();
    modules(&session)
        .into_iter()
        .map(|(name, module)| {
            let mut rng = TestRng::new(&name);
            let tables = (0..TABLES_PER_MODULE)
                .map(|_| random_profile(&module, session.arch(), &mut rng))
                .collect();
            (name, module, tables)
        })
        .collect()
}

#[test]
fn blame_on_a_reused_structure_equals_blame_on_a_fresh_one() {
    let latency = LatencyTable::for_arch(&ArchConfig::volta_v100());
    let mut edges = 0;
    for (name, module, tables) in corpus() {
        let fresh: Vec<ModuleBlame> = tables
            .iter()
            .map(|t| ModuleBlame::build(&module, &ProgramStructure::build(&module), t, &latency))
            .collect();
        edges += fresh.iter().map(|b| b.edges().count()).sum::<usize>();

        // One structure for every table, visited in shuffled order.
        let reused = ProgramStructure::build(&module);
        let mut order: Vec<usize> = (0..tables.len()).collect();
        let mut rng = TestRng::new(&format!("{name} order"));
        for i in (1..order.len()).rev() {
            order.swap(i, (0..i + 1).sample(&mut rng));
        }
        for _pass in 0..2 {
            for &t in &order {
                let blame = ModuleBlame::build(&module, &reused, &tables[t], &latency);
                assert_eq!(blame, fresh[t], "{name}: table {t} on the reused structure");
            }
        }

        // Two threads filling one cold memo at once, on different tables.
        let shared = ProgramStructure::build(&module);
        std::thread::scope(|scope| {
            for half in 0..2 {
                let (module, shared, tables, fresh, latency, name) =
                    (&module, &shared, &tables, &fresh, &latency, &name);
                scope.spawn(move || {
                    for t in (half..tables.len()).step_by(2) {
                        let blame = ModuleBlame::build(module, shared, &tables[t], latency);
                        assert_eq!(blame, fresh[t], "{name}: table {t}, thread {half}");
                    }
                });
            }
        });
    }
    assert!(edges > 500, "the corpus exercises the blamer ({edges} blamed edges)");
}

/// Rule 2 asked once per block equals rule 2 asked once per reader: for
/// every def→use edge of every function, against the unpredicated
/// readers of every slot the function reads; and each edge's memoised
/// verdict equals the per-reader loop over the edge's own slots.
#[test]
fn rule_2_once_per_block_equals_once_per_reader() {
    let (mut edges, mut dominated) = (0, 0);
    for (name, module) in modules(&Session::test()) {
        let structure = ProgramStructure::build(&module);
        for info in structure.functions() {
            let f = &module.functions[info.index];
            let mut readers: BTreeMap<Slot, Vec<usize>> = BTreeMap::new();
            for (k, instr) in f.instrs.iter().enumerate() {
                if instr.pred.is_none_or(|p| p.always()) {
                    for s in instr.uses() {
                        readers.entry(s).or_default().push(k);
                    }
                }
            }
            let per_reader = |i: usize, ks: &[usize], j: usize| {
                ks.iter().any(|&k| k != i && k != j && info.cfg.on_every_path(i, k, j))
            };
            for j in 0..f.instrs.len() {
                for e in info.def_edges(f, j) {
                    for (slot, ks) in &readers {
                        assert_eq!(
                            info.cfg.any_on_every_path(e.def, ks, j),
                            per_reader(e.def, ks, j),
                            "{name}: {} {} -> {j}, readers of {slot}",
                            f.name,
                            e.def
                        );
                    }
                    let verdict = e
                        .slots
                        .iter()
                        .any(|s| readers.get(s).is_some_and(|ks| per_reader(e.def, ks, j)));
                    assert_eq!(
                        info.dominated(f, e),
                        verdict,
                        "{name}: {} {} -> {j}",
                        f.name,
                        e.def
                    );
                    edges += 1;
                    dominated += usize::from(verdict);
                }
            }
        }
    }
    assert!(edges > 4_000 && dominated > 400, "{edges} edges, {dominated} dominated");
}

/// Per stalled PC and attributable reason, what is blamed on sources plus
/// what is left unattributed is exactly what the profile observed — for
/// all samples and for latency samples alike.
#[test]
fn blame_conserves_every_nodes_stalls() {
    const REASONS: [StallReason; 3] = [
        StallReason::MemoryDependency,
        StallReason::ExecutionDependency,
        StallReason::Synchronization,
    ];
    let latency = LatencyTable::for_arch(&ArchConfig::volta_v100());
    let mut checked = 0;
    for (name, module, tables) in corpus() {
        let structure = ProgramStructure::build(&module);
        for (t, table) in tables.iter().enumerate() {
            let blame = ModuleBlame::build(&module, &structure, table, &latency);
            for fb in &blame.functions {
                let f = &module.functions[fb.func];
                for j in 0..f.instrs.len() {
                    let stats = table.pc(f.pc_of(j)).cloned().unwrap_or_default();
                    for r in REASONS {
                        let (mut stalls, mut lat) = (0.0, 0.0);
                        for e in fb.edges.iter().filter(|e| e.use_ == j && e.detail.base() == r) {
                            stalls += e.stalls;
                            lat += e.latency;
                        }
                        for u in fb.unattributed.iter().filter(|u| u.0 == j && u.1 == r) {
                            stalls += u.2;
                            lat += u.3;
                        }
                        let what = format!("{name} table {t}: instr {j} of {}, {r}", f.name);
                        assert!((stalls - stats.stalls(r) as f64).abs() < 1e-9, "{what}: {stalls}");
                        assert!(
                            (lat - stats.latency_stalls(r) as f64).abs() < 1e-9,
                            "{what}: {lat}"
                        );
                        checked += usize::from(stats.stalls(r) > 0);
                    }
                }
            }
        }
    }
    assert!(checked > 2_000, "the corpus has stalled nodes ({checked})");
}

/// A row at a PC that names no instruction — inside one (`base + 8`), in
/// the alignment gap after a function, past the last instruction, below
/// the first — is no function's: with such rows, stalled and issuing
/// under every reason, added to every table of the corpus, blame has the
/// same nodes, edges and unattributed stalls as without them.
#[test]
fn rows_at_pcs_that_name_no_instruction_are_no_functions() {
    let latency = LatencyTable::for_arch(&ArchConfig::volta_v100());
    let mut stray = PcStats::default();
    stray.by_reason.fill(5);
    stray.latency_by_reason.fill(2);
    stray.total = stray.by_reason.iter().sum();
    let (mut strays_seen, mut gaps) = (0, 0);
    for (name, module, tables) in corpus() {
        let functions = &module.functions;
        let names_an_instr = |pc: u64| functions.iter().any(|f| f.index_of_pc(pc).is_some());
        let first = functions.iter().map(|f| f.base).min().expect("a function");
        let last = functions.iter().map(|f| f.end()).max().expect("a function");
        let mut strays = vec![first - INSTR_BYTES, first - 8, last, last + 8, last + 4096];
        for f in functions {
            let in_gap = !names_an_instr(f.end());
            gaps += usize::from(in_gap);
            strays.extend([f.base + 8, f.end() - 8]);
            strays.extend(in_gap.then_some(f.end()));
        }
        assert!(strays.iter().all(|&pc| !names_an_instr(pc)), "{name}: {strays:x?}");
        strays_seen += strays.len();
        let structure = ProgramStructure::build(&module);
        for (t, table) in tables.iter().enumerate() {
            let mut noisy = table.clone();
            noisy.pcs.extend(strays.iter().map(|&pc| (pc, stray.clone())));
            assert_eq!(
                ModuleBlame::build(&module, &structure, &noisy, &latency),
                ModuleBlame::build(&module, &structure, table, &latency),
                "{name}: table {t} with rows at {strays:x?}"
            );
        }
    }
    assert!(strays_seen > 300 && gaps > 20, "{strays_seen} stray rows, {gaps} gaps");
}
