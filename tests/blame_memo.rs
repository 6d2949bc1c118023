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
use gpa::isa::Module;
use gpa::kernels::apps::membound;
use gpa::pipeline::Session;
use gpa::sampling::{KernelProfile, StallReason};
use gpa::structure::ProgramStructure;
use proptest::{Strategy, TestRng};

const TABLES_PER_MODULE: usize = 20;

/// The 47 registry variants, the three `demo/membound` specs and the
/// nested-call module, each with its seeded random sample tables.
fn corpus() -> Vec<(String, Module, Vec<KernelProfile>)> {
    let session = Session::test();
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
