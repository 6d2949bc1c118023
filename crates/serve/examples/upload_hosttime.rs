//! Where an `analyze_profile` upload's host time goes, stage by stage.
//!
//! Builds the 47 upload frames on `Session::full()` the way the benchmark
//! harness's `upload_advise` workload does (v2 options, the profile as
//! `to_doc().compact()`), then replays the daemon's per-upload calls
//! in-process, with no socket: parse → `cache_key` and its fingerprint,
//! hashed once as `dispatch::handle_line` does → store get (capacity 1,
//! so always a miss) → `advise_profile_request` → body → body text →
//! store insert under the carried fingerprint + `ok_frame`, as the worker
//! does without re-deriving or re-hashing the key. Prints the median
//! milliseconds per 47-upload wave of each stage, the best whole wave,
//! the bytes in and out, and one fingerprint over every content address
//! and one over every body — equal across two builds means same keys,
//! same bytes.
//!
//! First it prints what a fresh session pays before its answers are
//! steady: `artifacts()` for the 47 jobs on a new `Session::full()`, then
//! that session's first wave, stage by stage (the blame memo is cold, so
//! its advise fills it). Its answers must be the steady waves' bytes.
//!
//! ```sh
//! cargo run --release -p gpa-serve --example upload_hosttime [waves]
//! ```

use gpa_pipeline::{AnalysisJob, Session};
use gpa_sampling::KernelProfile;
use gpa_serve::protocol::{self, analyze_profile_frame, Request};
use gpa_serve::store::fingerprint;
use gpa_serve::{ReportStore, WireOptions};
use std::time::Instant;

const STAGES: [&str; 7] = [
    "Request::parse",
    "cache_key + store get",
    "advise",
    "body",
    "body text (.compact())",
    "store insert + ok_frame",
    "wave",
];

fn main() {
    let waves: usize = match std::env::args().nth(1).map(|a| a.parse()) {
        None => 60,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("usage: upload_hosttime [waves]");
            std::process::exit(2);
        }
    };
    let session = Session::full();
    let options = WireOptions::v2();
    let uploads: Vec<Upload> = session
        .jobs_for_all_variants()
        .into_iter()
        .map(|job| {
            let (_, profile, _) = session.profile_one(&job).expect("registry job profiles");
            let canon = profile.to_doc().compact();
            let frame = analyze_profile_frame(&job.app, job.variant, &canon, &options);
            (job, profile, frame)
        })
        .collect();
    let store = ReportStore::new(1, None).expect("in-memory store");

    let fresh = Session::full();
    let t = Instant::now();
    for (job, _, _) in &uploads {
        fresh.artifacts(job).expect("registry job builds");
    }
    let artifacts_ms = t.elapsed().as_secs_f64() * 1e3;
    let (first_wave, fresh_tally) = wave(&fresh, &uploads, &options, &store);
    println!("fresh session: Session::full(), {} jobs", uploads.len());
    println!("{:<32} {:>12.3}", "artifacts()", artifacts_ms);
    for (stage, ms) in STAGES.into_iter().zip(first_wave) {
        println!("{:<32} {:>12.3}", format!("first {stage}"), ms);
    }

    // samples[stage][wave], in milliseconds.
    let mut samples = vec![Vec::with_capacity(waves); STAGES.len()];
    let mut tally = Tally::default();
    for wave_no in 0..=waves {
        let (spent, this) = wave(&session, &uploads, &options, &store);
        if wave_no == 0 {
            // Wave 0 warms the blame memo; it is not measured.
            tally = this;
        } else {
            for (stage, ms) in spent.into_iter().enumerate() {
                samples[stage].push(ms);
            }
        }
    }
    assert_eq!(fresh_tally, tally, "a fresh session answers the same bytes");

    println!("upload_hosttime: {} uploads per wave, {waves} waves, Session::full()", uploads.len());
    println!("{:<26} {:>12}", "stage", "median ms/wave");
    for (stage, mut ms) in STAGES.into_iter().zip(samples) {
        ms.sort_by(f64::total_cmp);
        println!("{stage:<26} {:>12.3}", ms[ms.len() / 2]);
        if stage == "wave" {
            println!("{:<26} {:>12.3}", "best wave", ms[0]);
        }
    }
    let Tally { bytes_in, bytes_out, keys_fp, bodies_fp } = tally;
    println!("bytes per wave: {bytes_in} in (frames), {bytes_out} out (answers)");
    println!("fingerprints: keys {keys_fp:#018x}, bodies {bodies_fp:#018x}");
}

type Upload = (AnalysisJob, KernelProfile, String);

/// What one wave read and wrote: bytes, and the fingerprints over every
/// content address and every body.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    bytes_in: usize,
    bytes_out: usize,
    keys_fp: u64,
    bodies_fp: u64,
}

/// One wave of every upload through the daemon's calls on `session`:
/// milliseconds per stage, and the wave's tally.
fn wave(
    session: &Session,
    uploads: &[Upload],
    options: &WireOptions,
    store: &ReportStore,
) -> ([f64; STAGES.len()], Tally) {
    let mut spent = [0f64; STAGES.len()];
    let mut tally = Tally::default();
    let mut clock = |stage: usize, t: Instant| spent[stage] += t.elapsed().as_secs_f64() * 1e3;
    let wave_start = Instant::now();
    for (job, profile, frame) in uploads {
        let t = Instant::now();
        let request = Request::parse(frame).expect("the upload parses");
        clock(0, t);
        let t = Instant::now();
        let key = request.cache_key().expect("uploads are cacheable");
        let hash = fingerprint(&key);
        assert!(store.get_at(hash, &key).is_none(), "capacity 1 never holds the next upload");
        clock(1, t);
        let t = Instant::now();
        let report = session
            .advise_profile_request(job, profile, &options.request)
            .expect("registry job advises");
        clock(2, t);
        let t = Instant::now();
        let body = protocol::profile_body(job, profile, &report, options.schema);
        clock(3, t);
        let t = Instant::now();
        let text = body.compact();
        clock(4, t);
        let t = Instant::now();
        let stored = store.insert_at(hash, &key, &text);
        let answer = protocol::ok_frame(false, &stored);
        clock(5, t);
        tally.bytes_in += frame.len();
        tally.bytes_out += answer.len();
        tally.keys_fp = tally.keys_fp.rotate_left(5) ^ hash;
        tally.bodies_fp = tally.bodies_fp.rotate_left(5) ^ fingerprint(&text);
    }
    spent[6] = wave_start.elapsed().as_secs_f64() * 1e3;
    (spent, tally)
}
