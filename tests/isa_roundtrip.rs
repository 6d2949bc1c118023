//! Registry-wide round trips through the ISA's one serialisation, the
//! assembly listing, and the assembler against hostile text.
//!
//! `crates/isa`'s own tests round-trip one hand-written module; the
//! kernels people actually run are the registry's 47 variants. Here
//! every one of them goes listing → assembler → module. The last test
//! mutates registry listing lines under a fixed seed: whatever the text,
//! [`parse_module`] returns — it never panics.

use gpa::isa::{parse_module, Module};
use gpa::kernels::{all_apps, Params};
use rand::{Rng, SeedableRng, StdRng};
use std::panic::catch_unwind;

/// Every `(app, variant, module)` of the registry.
fn registry() -> Vec<(&'static str, usize, Module)> {
    let params = Params::test();
    let mut out = Vec::new();
    for app in all_apps() {
        for v in 0..app.variants() {
            out.push((app.name, v, (app.build)(v, &params).module));
        }
    }
    assert_eq!(out.len(), 47, "registry variants");
    out
}

/// `write_asm` re-inserts labels by whole-line string replacement and
/// re-derives `.line` / `.inline` directives from per-instruction
/// tables; the assembler must read back exactly the module that printed
/// the text — instructions, labels, line tables, inline stacks, files.
#[test]
fn every_registry_listing_reassembles_to_the_module_that_printed_it() {
    for (app, v, m) in registry() {
        let text = m.write_asm();
        let back = parse_module(&text).unwrap_or_else(|e| panic!("{app} {v}: {e}"));
        if back != m {
            let differs = m.functions.iter().zip(&back.functions).find(|(f, g)| f != g);
            let first = differs.map(|(f, _)| &f.name);
            panic!("{app} {v}: the listing reassembles to a different module (first in {first:?})");
        }
    }
}

/// One-line mutations of the 21 baseline listings, each assembled on its
/// own inside a kernel: delete, duplicate, swap or overwrite characters,
/// drawing replacements from the grammar's own punctuation.
#[test]
fn no_mutated_listing_line_panics_the_assembler() {
    const PUNCTUATION: &[u8] = b"{}[]@!:,.+-#/ \tRPBS019x";
    let mut rng = StdRng::seed_from_u64(22);
    let mut panicked = Vec::new();
    for app in all_apps() {
        let listing = (app.build)(0, &Params::test()).module.write_asm();
        let lines: Vec<&str> = listing.lines().filter(|l| !l.trim().is_empty()).collect();
        for _ in 0..200 {
            let mut line = lines[rng.gen_range(0..lines.len())].as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=3) {
                let at = rng.gen_range(0..line.len());
                let other = rng.gen_range(0..line.len());
                match rng.gen_range(0..4) {
                    0 => drop(line.remove(at)),
                    1 => line.insert(at, line[other]),
                    2 => line.swap(at, other),
                    _ => line[at] = PUNCTUATION[rng.gen_range(0..PUNCTUATION.len())],
                }
                if line.is_empty() {
                    break;
                }
            }
            let line = String::from_utf8(line).expect("listings and mutations are ASCII");
            let text = format!(".kernel k\n{line}\n  EXIT\n.endfunc\n");
            if catch_unwind(|| parse_module(&text).is_ok()).is_err() {
                panicked.push(line);
            }
        }
    }
    assert!(panicked.is_empty(), "{} mutated lines panicked: {panicked:#?}", panicked.len());
}
