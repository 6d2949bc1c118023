//! Docs that cannot rot: every backticked `*.rs` path or basename in
//! `README.md` and `docs/*.md` names a file that exists under `crates/`,
//! `tests/`, `examples/` or `benchmark/src/`.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(format!("/{}", path.display()));
        }
    }
}

#[test]
fn backticked_rust_paths_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 100, "the source walk found the tree ({} files)", files.len());

    let mut docs: Vec<PathBuf> = vec![root.join("README.md")];
    docs.extend(std::fs::read_dir(root.join("docs")).unwrap().flatten().map(|e| e.path()));
    let mut rotten = Vec::new();
    let mut checked = 0;
    for doc in docs.iter().filter(|d| d.extension().is_some_and(|e| e == "md")) {
        let text = std::fs::read_to_string(doc).unwrap();
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
                    checked += 1;
                    let suffix = format!("/{}", token.trim_start_matches("./"));
                    if !files.iter().any(|f| f.ends_with(&suffix)) {
                        let doc = doc.strip_prefix(root).unwrap().display();
                        rotten.push(format!("{doc}:{}: `{token}`", n + 1));
                    }
                }
            }
        }
    }
    assert!(checked > 50, "the doc walk found the references ({checked})");
    assert!(rotten.is_empty(), "docs name Rust files that do not exist:\n{}", rotten.join("\n"));
}
