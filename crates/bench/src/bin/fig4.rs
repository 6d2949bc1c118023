//! Reproduces **Figures 3 and 4**: the blame walkthrough — backward
//! slicing with predicates and virtual barrier registers, dependency-
//! graph construction, cold-edge pruning, and Eq. 1 apportioning
//! (LDC with 2x the issued samples but 2x the path length splits the
//! four stalls evenly with LDG).

use gpa_arch::{ArchConfig, LatencyTable, LaunchConfig};
use gpa_core::blamer::graph::blame_function;
use gpa_sampling::{KernelProfile, StallReason};
use gpa_sim::{LaunchResult, RawSample, SampleSet};
use gpa_structure::ProgramStructure;

fn main() {
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
    let m = gpa_isa::parse_module(src).expect("parses");
    let f = m.function("k").unwrap();
    // Synthetic profile: 4 memory-dependency stalls at the IADD; LDC
    // issued twice, LDG once (the Figure 4d numbers).
    let mk = |pc, stall, active, count| {
        std::iter::repeat_n(
            RawSample { sm: 0, scheduler: 0, cycle: 0, pc, stall, scheduler_active: active },
            count,
        )
    };
    let samples: Vec<RawSample> = mk(f.pc_of(12), StallReason::MemoryDependency, false, 4)
        .chain(mk(f.pc_of(1), StallReason::Selected, true, 2))
        .chain(mk(f.pc_of(6), StallReason::Selected, true, 1))
        .chain(mk(f.pc_of(11), StallReason::Selected, true, 1))
        .collect();
    let arch = ArchConfig::small(1);
    let launch = LaunchConfig::new(1, 32);
    let result = LaunchResult {
        cycles: 100,
        issued: 8,
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
    let profile = KernelProfile::from_launch("k", "fig4", "volta", 64, &result);
    let structure = ProgramStructure::build(&m);
    let fb = blame_function(&m, &structure.functions()[0], &profile, &LatencyTable::default());

    println!("Figure 4 — attributing the IADD's 4 memory-dependency stalls\n");
    println!("(b) dependency graph edges into the IADD (instr 12):");
    for e in fb.graph.incoming(12, true) {
        let mark = match e.pruned {
            Some(rule) => format!("PRUNED ({rule:?})"),
            None => "kept".into(),
        };
        println!(
            "    {:<28} -> IADD   [{}]  {}",
            m.functions[0].instrs[e.def].mnemonic(),
            e.detail,
            mark
        );
    }
    println!("\n(d) apportioned blame (Eq. 1):");
    for e in &fb.edges {
        println!(
            "    {:<28} gets {:>4.1} stalls (distance {})",
            m.functions[0].instrs[e.def].mnemonic(),
            e.stalls,
            e.distance
        );
    }
}
