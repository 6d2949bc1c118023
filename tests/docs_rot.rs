//! Docs that cannot rot: every backticked `*.rs` path or basename in
//! `README.md` and `docs/*.md` names a file that exists under `crates/`,
//! `tests/`, `examples/`, `benchmark/src/` or `src/`, and every segment
//! of a backticked Rust path (`a::b`, `a::b::c`) is a word of those
//! files' sources.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

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

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[test]
fn backticked_rust_paths_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmark/src", "src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    assert!(paths.len() > 100, "the source walk found the tree ({} files)", paths.len());
    let files: Vec<String> = paths.iter().map(|p| format!("/{}", p.display())).collect();
    let sources: Vec<String> = paths.iter().map(|p| std::fs::read_to_string(p).unwrap()).collect();
    let words: HashSet<&str> = sources.iter().flat_map(|s| s.split(|c| !is_word(c))).collect();

    let mut docs: Vec<PathBuf> = vec![root.join("README.md")];
    docs.extend(std::fs::read_dir(root.join("docs")).unwrap().flatten().map(|e| e.path()));
    let mut rotten = Vec::new();
    let (mut checked_files, mut checked_paths) = (0, 0);
    for doc in docs.iter().filter(|d| d.extension().is_some_and(|e| e == "md")) {
        let text = std::fs::read_to_string(doc).unwrap();
        let doc = doc.strip_prefix(root).unwrap().display();
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            }
            if fenced {
                continue;
            }
            // Odd segments of a line split at backticks are its code spans.
            for span in line.split('`').skip(1).step_by(2) {
                let is_path = |c: char| c.is_ascii_alphanumeric() || "_./+-".contains(c);
                for token in span.split(|c| !is_path(c)).filter(|t| t.ends_with(".rs")) {
                    checked_files += 1;
                    let suffix = format!("/{}", token.trim_start_matches("./"));
                    if !files.iter().any(|f| f.ends_with(&suffix)) {
                        rotten.push(format!("{doc}:{}: `{token}`", n + 1));
                    }
                }
                let is_rust_path = |c: char| is_word(c) || ":./".contains(c);
                for token in span.split(|c| !is_rust_path(c)).filter(|t| t.contains("::")) {
                    // `file.rs::item` names an item of a file checked above.
                    let item = token.rsplit(".rs::").next().unwrap();
                    let segments: Vec<&str> = item.split("::").collect();
                    // A bare prefix (`memory_op::`) names no item.
                    if segments.iter().any(|s| s.is_empty() || !s.chars().all(is_word)) {
                        continue;
                    }
                    checked_paths += 1;
                    if let Some(missing) = segments.iter().find(|s| !words.contains(*s)) {
                        rotten.push(format!("{doc}:{}: `{token}` (no `{missing}`)", n + 1));
                    }
                }
            }
        }
    }
    assert!(checked_files > 50, "the doc walk found the file references ({checked_files})");
    assert!(checked_paths > 50, "the doc walk found the Rust paths ({checked_paths})");
    assert!(rotten.is_empty(), "docs name Rust items that do not exist:\n{}", rotten.join("\n"));
}
