//! Every `pub` item has a caller: each name that a library crate's
//! `crates/<c>/src` declares `pub` (a fn, struct, enum, trait, type, const
//! or static) or re-exports with `pub use` is a word of some `.rs` file
//! outside that crate's library sources: another crate, the crate's own
//! `tests/`, `examples/` or `src/bin/`, or the workspace's `tests/`,
//! `examples/`, `src/` and `benchmark/src/`. Only the lines above a file's
//! first `#[cfg(test)]` declare (the rule of `scripts/non-test-lines.sh`),
//! so a name that only the crate's unit tests use is still listed.
//!
//! A listed item is deleted, demoted to `pub(crate)`, or given a row in
//! `ALLOWED` with the reason it stays `pub`. A row whose name has a caller
//! or is no longer declared fails too, so the list only shrinks.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// `(crate directory, name, why it stays pub with no caller)`: each is
/// named nowhere outside its crate but reached from outside through a
/// public signature or field, so demoting it trips `private_interfaces`.
const ALLOWED: &[(&str, &str, &str)] = &[
    ("bench", "AppRun", "returned by the public `run_app` / `run_apps_parallel` the bins call"),
    ("bench", "Table3Row", "field of `AppRun`; taken by the public `print_table3_row`"),
    ("bench", "Table3Summary", "returned by the public `summarize_table3`"),
    ("cfg", "BasicBlock", "returned by the public `Cfg::blocks` / `Cfg::block`"),
    ("core", "AdviceItem", "public field `AdviceReport::items`"),
    ("core", "BlamedEdge", "public field `FunctionBlame::edges`; yielded by `ModuleBlame::edges`"),
    ("core", "CoverageReport", "returned by the public `single_dependency_coverage`"),
    ("core", "DepEdge", "public field `DepGraph::edges`"),
    ("core", "DepGraph", "public field `FunctionBlame::graph`"),
    ("core", "FunctionBlame", "public field `ModuleBlame::functions`"),
    ("core", "HintKind", "public field `Hint::kind`"),
    ("core", "HotspotReport", "public field `AdviceItem::hotspots`"),
    ("core", "LocationReport", "public fields `HotspotReport::def` / `use_`"),
    ("core", "ParallelParams", "public fields of `MatchResult` and `EstimatorInputs::Parallel`"),
    ("core", "PruneRule", "public field `DepEdge::pruned`"),
    ("core", "RegionReport", "public field `HotspotReport::region`"),
    ("isa", "SourceLoc", "public fields `Function::lines` / `InlineFrame::call_loc`"),
    ("json", "WriteJson", "bound of the public `Writer::value` / `Writer::field`"),
    ("pipeline", "ModuleArtifacts", "returned by the public `Session::artifacts`"),
    ("sampling", "MergeError", "error of the public `KernelProfile::merge_in`"),
    ("sim", "ExecResult", "returned by the public `exec::execute`"),
    ("sim", "SmStats", "public field `LaunchResult::sm_stats`"),
];

/// One scanned file. `lib` names the crate whose library sources hold it:
/// its non-test lines declare, and its words call nothing of that crate.
/// Every other file (`lib: None`) only calls, and calls every crate.
struct Source {
    lib: Option<String>,
    path: String,
    text: String,
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_ident(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') && name.chars().all(is_word)
}

/// The leading identifier of a token (`foo<T>(x:` → `foo`).
fn ident(token: &str) -> &str {
    &token[..token.find(|c| !is_word(c)).unwrap_or(token.len())]
}

/// The name a line declares `pub`, if any: `pub [const] [unsafe] [async]
/// [extern "abi"] fn|struct|enum|trait|type|const|static [mut] NAME`.
fn declared(line: &str) -> Option<&str> {
    let mut tokens = line.trim_start().strip_prefix("pub ")?.split_whitespace().peekable();
    while let Some(token) = tokens.next() {
        match token {
            "unsafe" | "async" | "extern" => {}
            _ if token.starts_with('"') => {}
            "const" if matches!(tokens.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))) => {}
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" => {
                let name = tokens.find(|t| *t != "mut").map(ident)?;
                return is_ident(name).then_some(name);
            }
            _ => return None,
        }
    }
    None
}

/// The names a `pub use` statement (from `pub use` up to its `;`)
/// re-exports: each leaf's alias, else its last path segment.
fn reexported(statement: &str) -> Vec<&str> {
    statement
        .split([',', '{', '}', ';'])
        .filter_map(|leaf| {
            let leaf = leaf.trim();
            let name = match leaf.split_once(" as ") {
                Some((_, alias)) => alias.trim(),
                None => leaf.rsplit("::").next().unwrap_or(leaf),
            };
            (is_ident(name) && name != "self" && name != "_").then_some(name)
        })
        .collect()
}

/// A library file's declaring part: its lines above the first
/// `#[cfg(test)]`; nothing of a whole-file test module (`tests.rs`).
fn non_test_lines(source: &Source) -> impl Iterator<Item = &str> {
    let test_module = source.path.ends_with("/tests.rs");
    source.text.lines().take_while(move |l| !test_module && !l.contains("#[cfg(test)]"))
}

/// Every `(crate, name, line)` the library sources declare `pub`.
fn declarations(sources: &[Source]) -> Vec<(&str, String, String)> {
    let mut out = Vec::new();
    for source in sources {
        let Some(krate) = source.lib.as_deref() else { continue };
        let mut statement: Option<(usize, String)> = None;
        for (n, line) in non_test_lines(source).enumerate() {
            let at = || format!("{}:{}", source.path, n + 1);
            if let Some(name) = declared(line) {
                out.push((krate, name.to_string(), at()));
            }
            if line.trim_start().starts_with("pub use ") {
                statement = Some((n, String::new()));
            }
            if let Some((first, text)) = &mut statement {
                text.push_str(line.trim_start().trim_start_matches("pub use "));
                text.push(' ');
                if line.contains(';') {
                    let at = format!("{}:{}", source.path, *first + 1);
                    for name in reexported(text) {
                        out.push((krate, name.to_string(), at.clone()));
                    }
                    statement = None;
                }
            }
        }
    }
    out
}

/// The report lines: each uncalled `pub` item without an `ALLOWED` row as
/// `crate: name (file:line)`, then each stale row; plus how many distinct
/// `(crate, name)` pairs were declared.
fn report(sources: &[Source], allowed: &[(&str, &str, &str)]) -> (usize, Vec<String>) {
    // For every word: the crates whose own library sources hold it, or
    // `None` once any other file holds it (a caller for every crate).
    let mut holders: HashMap<&str, Option<HashSet<&str>>> = HashMap::new();
    for source in sources {
        for word in source.text.split(|c| !is_word(c)).filter(|w| !w.is_empty()) {
            let entry = holders.entry(word).or_insert_with(|| Some(HashSet::new()));
            match (entry, source.lib.as_deref()) {
                (Some(crates), Some(krate)) => {
                    crates.insert(krate);
                }
                (entry, _) => *entry = None,
            }
        }
    }
    let called = |krate: &str, name: &str| match holders.get(name) {
        Some(Some(crates)) => crates.iter().any(|c| *c != krate),
        Some(None) => true,
        None => false,
    };

    let decls = declarations(sources);
    let declared: HashSet<(&str, &str)> = decls.iter().map(|(k, n, _)| (*k, n.as_str())).collect();
    let is_allowed =
        |krate: &str, name: &str| allowed.iter().any(|(k, n, _)| (*k, *n) == (krate, name));
    let mut lines: Vec<String> = decls
        .iter()
        .filter(|(krate, name, _)| !called(krate, name) && !is_allowed(krate, name))
        .map(|(krate, name, at)| format!("{krate}: {name} ({at})"))
        .collect();
    for (krate, name, _) in allowed {
        if !declared.contains(&(*krate, *name)) {
            lines.push(format!("stale ALLOWED row: {krate}: {name} is no longer declared pub"));
        } else if called(krate, name) {
            lines.push(format!("stale ALLOWED row: {krate}: {name} now has a caller"));
        }
    }
    (declared.len(), lines)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace's sources. A crate's `src/bin/` and `src/main.rs` are
/// binaries: they call its library like any other file.
fn workspace() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "benchmark/src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    paths
        .iter()
        .map(|p| p.strip_prefix(root).unwrap())
        // This file's names are the allow-list, not callers.
        .filter(|p| *p != Path::new("tests/pub_callers.rs"))
        .map(|p| {
            let parts: Vec<&str> = p.iter().map(|s| s.to_str().unwrap()).collect();
            let lib = match parts.as_slice() {
                ["crates", _, "src", "bin", ..] | ["crates", _, "src", "main.rs"] => None,
                ["crates", krate, "src", ..] => Some(krate.to_string()),
                _ => None,
            };
            let text = std::fs::read_to_string(root.join(p)).unwrap();
            Source { lib, path: p.display().to_string(), text }
        })
        .collect()
}

#[test]
fn every_pub_item_has_a_caller() {
    let sources = workspace();
    let libs: HashSet<&str> = sources.iter().filter_map(|s| s.lib.as_deref()).collect();
    assert!(sources.len() > 100, "the source walk found the tree ({} files)", sources.len());
    assert!(libs.len() >= 12, "the source walk found the library crates ({libs:?})");
    for (krate, name, reason) in ALLOWED {
        assert!(!reason.trim().is_empty(), "ALLOWED row {krate}: {name} gives no reason");
    }
    let (declared, lines) = report(&sources, ALLOWED);
    assert!(declared > 400, "the scan found the pub items ({declared})");
    assert!(
        lines.is_empty(),
        "pub items with no caller outside their crate (delete, demote to pub(crate), or allow-list):\n{}",
        lines.join("\n")
    );
}

mod checker {
    use super::*;

    fn lib(krate: &str, path: &str, text: &str) -> Source {
        Source { lib: Some(krate.into()), path: path.into(), text: text.into() }
    }

    fn caller(path: &str, text: &str) -> Source {
        Source { lib: None, path: path.into(), text: text.into() }
    }

    #[test]
    fn declarations_are_read_from_every_pub_form() {
        for (line, name) in [
            ("pub fn run(x: u32) {", Some("run")),
            ("    pub const fn bits<T>() -> u8 {", Some("bits")),
            ("pub unsafe fn raw()", Some("raw")),
            ("pub const LIMIT: usize = 4;", Some("LIMIT")),
            ("pub static mut COUNT: u64 = 0;", Some("COUNT")),
            ("pub struct Warp;", Some("Warp")),
            ("pub enum Op {", Some("Op")),
            ("pub trait Sink {", Some("Sink")),
            ("pub type Pc = u64;", Some("Pc")),
            ("pub extern \"C\" fn hook()", Some("hook")),
            ("pub(crate) fn hidden()", None),
            ("pub mod exec;", None),
            ("pub name: String,", None),
            ("pub fn $name(&self) {", None),
            ("fn private()", None),
        ] {
            assert_eq!(declared(line), name, "{line}");
        }
        assert_eq!(reexported("a::{b::{C, D as E}, self, f};"), ["C", "E", "f"]);
        assert_eq!(reexported("exec::ExecResult;"), ["ExecResult"]);
        assert_eq!(reexported("prelude::*;"), Vec::<&str>::new());
    }

    #[test]
    fn an_uncalled_pub_fn_is_reported() {
        let sources = [
            lib(
                "sim",
                "crates/sim/src/lib.rs",
                "pub fn used() {}\npub fn unused() {}\npub use exec::{Row, Hidden};\n",
            ),
            caller("tests/t.rs", "gpa_sim::used(); let r: Row;"),
        ];
        let (declared, lines) = report(&sources, &[]);
        assert_eq!(declared, 4);
        assert_eq!(
            lines,
            ["sim: unused (crates/sim/src/lib.rs:2)", "sim: Hidden (crates/sim/src/lib.rs:3)"]
        );
    }

    #[test]
    fn a_name_used_only_by_the_crates_own_unit_tests_is_reported() {
        let sources = [
            lib(
                "sim",
                "crates/sim/src/warp.rs",
                "pub fn read_reg() {}\n#[cfg(test)]\nmod t { fn x() { read_reg() } }\n",
            ),
            lib("sim", "crates/sim/src/exec/tests.rs", "pub fn helper() { read_reg() }\n"),
            lib("core", "crates/core/src/lib.rs", "pub fn other() {}\n"),
            caller("tests/t.rs", "other();"),
        ];
        let (_, lines) = report(&sources, &[]);
        assert_eq!(lines, ["sim: read_reg (crates/sim/src/warp.rs:1)"]);
    }

    #[test]
    fn another_crates_word_is_a_caller() {
        let sources = [
            lib("isa", "crates/isa/src/lib.rs", "pub fn decode() {}\n"),
            lib("sim", "crates/sim/src/lib.rs", "fn f() { gpa_isa::decode() }\n"),
        ];
        assert_eq!(report(&sources, &[]).1, Vec::<String>::new());
    }

    #[test]
    fn an_allowed_row_hides_its_item_and_a_stale_row_is_reported() {
        let sources = [
            lib("core", "crates/core/src/lib.rs", "pub struct Report;\npub fn called() {}\n"),
            caller("src/lib.rs", "called"),
        ];
        let allowed = [
            ("core", "Report", "reached through a public field"),
            ("core", "called", "has a caller now"),
            ("core", "Gone", "was deleted"),
        ];
        let (_, lines) = report(&sources, &allowed);
        assert_eq!(
            lines,
            [
                "stale ALLOWED row: core: called now has a caller",
                "stale ALLOWED row: core: Gone is no longer declared pub",
            ]
        );
    }
}
