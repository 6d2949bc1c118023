//! Where an `analyze_profile` upload's host time goes, stage by stage.
//!
//! Builds the 47 upload frames on `Session::full()` the way the benchmark
//! harness's `upload_advise` workload does (v2 options, the profile as
//! `to_doc().compact()`), then replays the daemon's per-upload calls
//! in-process, with no socket: parse → `cache_key` → store get (capacity
//! 1, so always a miss) → `advise_profile_request` → body → body text →
//! store insert + `ok_frame`. Prints the median milliseconds per
//! 47-upload wave of each stage, the best whole wave, the bytes in and
//! out, and one fingerprint over every content address and one over
//! every body — equal across two builds means same keys, same bytes.
//!
//! ```sh
//! cargo run --release -p gpa-serve --example upload_hosttime [waves]
//! ```

use gpa_pipeline::Session;
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
    let uploads: Vec<_> = session
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

    // samples[stage][wave], in milliseconds.
    let mut samples = vec![Vec::with_capacity(waves); STAGES.len()];
    let (mut bytes_in, mut bytes_out, mut keys_fp, mut bodies_fp) = (0, 0, 0u64, 0u64);
    for wave in 0..=waves {
        let mut spent = [0f64; STAGES.len()];
        let mut clock = |stage: usize, t: Instant| spent[stage] += t.elapsed().as_secs_f64() * 1e3;
        let wave_start = Instant::now();
        for (job, profile, frame) in &uploads {
            let t = Instant::now();
            let request = Request::parse(frame).expect("the upload parses");
            clock(0, t);
            let t = Instant::now();
            let key = request.cache_key().expect("uploads are cacheable");
            assert!(store.get(&key).is_none(), "capacity 1 never holds the next upload");
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
            let stored = store.insert(&key, &text);
            let answer = protocol::ok_frame(false, &stored);
            clock(5, t);
            if wave == 0 {
                bytes_in += frame.len();
                bytes_out += answer.len();
                keys_fp = keys_fp.rotate_left(5) ^ fingerprint(&key);
                bodies_fp = bodies_fp.rotate_left(5) ^ fingerprint(&text);
            }
        }
        spent[6] = wave_start.elapsed().as_secs_f64() * 1e3;
        // Wave 0 warms the artifact caches; it is not measured.
        if wave > 0 {
            for (stage, ms) in spent.into_iter().enumerate() {
                samples[stage].push(ms);
            }
        }
    }

    println!("upload_hosttime: {} uploads per wave, {waves} waves, Session::full()", uploads.len());
    println!("{:<26} {:>12}", "stage", "median ms/wave");
    for (stage, mut ms) in STAGES.into_iter().zip(samples) {
        ms.sort_by(f64::total_cmp);
        println!("{stage:<26} {:>12.3}", ms[ms.len() / 2]);
        if stage == "wave" {
            println!("{:<26} {:>12.3}", "best wave", ms[0]);
        }
    }
    println!("bytes per wave: {bytes_in} in (frames), {bytes_out} out (answers)");
    println!("fingerprints: keys {keys_fp:#018x}, bodies {bodies_fp:#018x}");
}
