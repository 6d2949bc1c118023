//! The ISA's fact sheet, pinned across commits.
//!
//! Every per-opcode question the static analyzer, the blamer, the
//! assembler and the simulator ask — position, mnemonic, pipe, class, memory
//! space, load / store / control / sync / variable-latency flags, fixed
//! latency (narrow and under each widening modifier), latency upper
//! bound, long-latency-arithmetic flag, destination count, Figure 5
//! blame class — plus the position and spelling of every modifier and
//! special register, rendered as one text and fingerprinted (FNV-1a,
//! [`gpa::serve::store::fingerprint`]).
//!
//! The literal is **recorded at the parent commit** of a change that
//! wants to prove it moved no fact (as `tests/advice_pins.rs` is): zero
//! it, run the test at the parent, copy the value the failure prints. A
//! change that adds an opcode or moves a fact on purpose re-records and
//! names the rows.

use gpa::arch::LatencyTable;
use gpa::core::blamer::DetailedReason;
use gpa::isa::{parse_module, Instruction, Modifier, Opcode, SpecialReg};
use gpa::serve::store::fingerprint;
use std::fmt::Write;

/// Recorded at 4e3b2fc (PR 21), before `crates/isa` was touched.
const FACT_SHEET: u64 = 0xb41d_5c70_c40c_6526;

fn fact_sheet() -> String {
    let lat = LatencyTable::default();
    let mut sheet = String::new();
    for (n, op) in Opcode::ALL.into_iter().enumerate() {
        let bare = Instruction::new(op, vec![], vec![]);
        let fixed = |m: Option<Modifier>| {
            let instr = m.map_or(bare.clone(), |m| bare.clone().with_mod(m));
            lat.fixed_latency(&instr).map_or("-".to_string(), |l| l.to_string())
        };
        // The assembler's destination count, observed through the parser.
        let text = format!(".kernel k\n  {} R0, R1\n.endfunc\n", op.name());
        let dsts = parse_module(&text).expect("two registers parse after any opcode").functions[0]
            .instrs[0]
            .dsts
            .len();
        writeln!(
            sheet,
            "{:2} {:7} {:?}/{:?} space={:?} load={} store={} control={} sync={} variable={} \
             lat={}/{}/{}/{} upper={} long={} dsts={} blame={:?}",
            n,
            op.name(),
            op.pipe(),
            op.class(),
            op.mem_space(),
            op.is_load(),
            op.is_store(),
            op.is_control(),
            op.is_block_sync(),
            op.has_variable_latency(),
            fixed(None),
            fixed(Some(Modifier::F64)),
            fixed(Some(Modifier::Sz64)),
            fixed(Some(Modifier::Wide)),
            lat.upper_bound(&bare),
            lat.is_long_latency_arith(&bare),
            dsts,
            DetailedReason::of_def(op),
        )
        .unwrap();
    }
    // Modifiers count from 1, as they did when the fingerprint was recorded.
    for (n, m) in (1..).zip(Modifier::ALL) {
        writeln!(sheet, "mod {n:2} .{}", m.name()).unwrap();
    }
    for (n, s) in SpecialReg::ALL.into_iter().enumerate() {
        writeln!(sheet, "sreg {n:2} {}", s.name()).unwrap();
    }
    sheet
}

#[test]
fn the_fact_sheet_matches_the_fingerprint_recorded_at_the_parent_commit() {
    let sheet = fact_sheet();
    let got = fingerprint(&sheet);
    assert_eq!(
        got, FACT_SHEET,
        "the ISA fact sheet moved: fingerprint {got:#018x}, pinned {FACT_SHEET:#018x}\n{sheet}"
    );
}
