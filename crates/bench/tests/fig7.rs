//! Figure 7 as a gate: single-dependency coverage before and after
//! pruning, and the node count, of every Rodinia app's baseline on
//! `Session::full()`. The figure reads exactly blame's node set and its
//! three pruning rules, so any change to either moves a literal here.
//! The literals are recorded at the commit before a blamer change and
//! never regenerated in the same change: the failure prints the table as
//! this build computes it, ready to paste. Ignored by default (the
//! full-scale device is slow without optimization); CI runs it in release
//! with `--include-ignored`.

use gpa_core::blamer::single_dependency_coverage;
use gpa_kernels::apps;
use gpa_pipeline::{AnalysisJob, Session};

/// `(app, coverage before pruning, after pruning, nodes)`.
type Row = (String, f64, f64, usize);

const FIGURE7: [(&str, f64, f64, usize); 17] = [
    ("rodinia/backprop", 0.3333333333333333, 0.3333333333333333, 3),
    ("rodinia/bfs", 0.5833333333333334, 1.0, 12),
    ("rodinia/b+tree", 0.42857142857142855, 0.8571428571428571, 7),
    ("rodinia/cfd", 0.8181818181818182, 1.0, 11),
    ("rodinia/gaussian", 0.5882352941176471, 0.7058823529411765, 17),
    ("rodinia/heartwall", 0.6363636363636364, 0.9090909090909091, 11),
    ("rodinia/hotspot", 0.5294117647058824, 0.8823529411764706, 17),
    ("rodinia/huffman", 0.6, 0.7, 10),
    ("rodinia/kmeans", 0.5, 0.875, 8),
    ("rodinia/lavaMD", 0.6153846153846154, 0.9230769230769231, 13),
    ("rodinia/lud", 0.6363636363636364, 0.9090909090909091, 11),
    ("rodinia/myocyte", 0.9801980198019802, 1.0, 303),
    ("rodinia/nw", 0.7, 0.8, 10),
    ("rodinia/particlefilter", 0.6666666666666666, 0.8888888888888888, 9),
    ("rodinia/streamcluster", 0.8181818181818182, 0.9090909090909091, 11),
    ("rodinia/sradv1", 0.8, 0.8, 10),
    ("rodinia/pathfinder", 0.5555555555555556, 0.7777777777777778, 9),
];

#[test]
#[ignore = "full-scale device: run in release with --include-ignored"]
fn single_dependency_coverage_is_pinned() {
    let session = Session::full();
    let got: Vec<Row> = apps::rodinia_apps()
        .iter()
        .map(|app| {
            let blame = session.blame_one(&AnalysisJob::new(app.name, 0)).expect("baseline blames");
            let cov = single_dependency_coverage(&blame);
            (app.name.to_string(), cov.before, cov.after, cov.nodes)
        })
        .collect();
    let want: Vec<Row> = FIGURE7.iter().map(|&(app, b, a, n)| (app.to_string(), b, a, n)).collect();
    let table: String = got
        .iter()
        .map(|(app, before, after, nodes)| {
            format!("    ({app:?}, {before:?}, {after:?}, {nodes}),\n")
        })
        .collect();
    assert_eq!(got, want, "this build's table:\n{table}");
}
