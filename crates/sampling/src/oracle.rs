//! The tree-walking profile reader — the decoder's differential oracle —
//! and the corpus that holds the two together.
//!
//! `from_doc` is how profiles were read before the pull decoder
//! (`decode.rs`): parse the whole document into a [`Json`] tree, then walk
//! it. It stays, test-only, as the independent statement of what the
//! strict schema accepts and which error the first defect earns; the
//! differential below feeds both readers the registry's profile documents
//! and a seeded mutation corpus and requires the same verdict, value,
//! error string and canonical bytes from each.

use crate::decode::{
    check_keys, check_pc, check_totals, pc_of_key, reason_count_error, LAUNCH_FIELDS,
    OCCUPANCY_FIELDS, PC_FIELDS, PROFILE_FIELDS,
};
use crate::profile::{limiter_from_str, KernelProfile, PcStats, N_REASONS};
use gpa_arch::{LaunchConfig, Occupancy};
use gpa_json::Json;
use std::collections::BTreeMap;

impl KernelProfile {
    /// Builds a profile from an already-parsed JSON document, with the
    /// strict validation [`KernelProfile::from_json`] documents.
    pub(crate) fn from_doc(doc: &Json) -> gpa_json::Result<Self> {
        let launch = doc.field("launch")?;
        let occ = doc.field("occupancy")?;
        let mut pcs = BTreeMap::new();
        for (key, stats) in doc.field("pcs")?.entries()? {
            let pc = pc_of_key(key, &pcs)?;
            let st = PcStats {
                total: stats.field("total")?.as_u64()?,
                by_reason: reason_array(stats.field("by_reason")?)?,
                latency_by_reason: reason_array(stats.field("latency_by_reason")?)?,
            };
            check_keys(stats, PC_FIELDS, "pc stats")?;
            check_pc(pc, &st)?;
            pcs.insert(pc, st);
        }
        let profile = KernelProfile {
            kernel: doc.field("kernel")?.as_str()?.to_string(),
            module_name: doc.field("module_name")?.as_str()?.to_string(),
            arch: doc.field("arch")?.as_str()?.to_string(),
            period: doc.field("period")?.as_u32()?,
            launch: LaunchConfig {
                grid_blocks: launch.field("grid_blocks")?.as_u32()?,
                block_threads: launch.field("block_threads")?.as_u32()?,
                regs_per_thread: launch.field("regs_per_thread")?.as_u32()?,
                smem_per_block: launch.field("smem_per_block")?.as_u32()?,
            },
            occupancy: Occupancy {
                blocks_per_sm: occ.field("blocks_per_sm")?.as_u32()?,
                warps_per_sm: occ.field("warps_per_sm")?.as_u32()?,
                warps_per_scheduler: occ.field("warps_per_scheduler")?.as_f64()?,
                limiter: limiter_from_str(occ.field("limiter")?.as_str()?)?,
                ratio: occ.field("ratio")?.as_f64()?,
            },
            cycles: doc.field("cycles")?.as_u64()?,
            issued: doc.field("issued")?.as_u64()?,
            pcs,
            total_samples: doc.field("total_samples")?.as_u64()?,
            active_samples: doc.field("active_samples")?.as_u64()?,
            latency_samples: doc.field("latency_samples")?.as_u64()?,
            mem_transactions: doc.field("mem_transactions")?.as_u64()?,
            l2_hits: doc.field("l2_hits")?.as_u64()?,
            l2_misses: doc.field("l2_misses")?.as_u64()?,
            icache_misses: doc.field("icache_misses")?.as_u64()?,
        };
        check_keys(doc, PROFILE_FIELDS, "profile")?;
        check_keys(launch, LAUNCH_FIELDS, "launch")?;
        check_keys(occ, OCCUPANCY_FIELDS, "occupancy")?;
        check_totals(&profile)?;
        Ok(profile)
    }
}

fn reason_array(v: &Json) -> gpa_json::Result<[u64; N_REASONS]> {
    let items = v.as_array()?;
    if items.len() != N_REASONS {
        return Err(reason_count_error(items.len()));
    }
    let mut out = [0u64; N_REASONS];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item.as_u64()?;
    }
    Ok(out)
}

/// Two PCs (16 and 32), one sample each.
const SMALL: &str = r#"{"kernel":"k","module_name":"m","arch":"volta","period":509,"launch":{"grid_blocks":1,"block_threads":32,"regs_per_thread":32,"smem_per_block":0},"occupancy":{"blocks_per_sm":1,"warps_per_sm":1,"warps_per_scheduler":0.25,"limiter":"GridSize","ratio":0.015625},"cycles":1000,"issued":100,"pcs":{"16":{"total":1,"by_reason":[0,0,0,1,0,0,0,0,0,0,0,0,0],"latency_by_reason":[0,0,0,1,0,0,0,0,0,0,0,0,0]},"32":{"total":1,"by_reason":[1,0,0,0,0,0,0,0,0,0,0,0,0],"latency_by_reason":[0,0,0,0,0,0,0,0,0,0,0,0,0]}},"total_samples":2,"active_samples":1,"latency_samples":1,"mem_transactions":5,"l2_hits":3,"l2_misses":2,"icache_misses":1}"#;

/// Both readers' verdict on `text`, which must be one verdict: the same
/// accept / reject, value, error string, and — when accepted — canonical
/// bytes equal to the tree's compact rendering. Never a panic.
fn verdict(text: &str) -> Result<KernelProfile, String> {
    let oracle = Json::parse(text).and_then(|doc| KernelProfile::from_doc(&doc).map(|p| (p, doc)));
    let decoded = std::panic::catch_unwind(|| KernelProfile::from_json(text))
        .unwrap_or_else(|_| panic!("decoder panicked on {text:?}"));
    match (oracle, decoded) {
        (Ok((want, doc)), Ok(got)) => {
            assert_eq!(got, want, "decoded value differs on {text:?}");
            let canon = gpa_json::compact(text).unwrap();
            assert_eq!(canon, doc.compact(), "canon of {text:?}");
            // The decoding pass's own verdict: the text is its canon.
            let mut reader = gpa_json::Reader::new(text);
            reader.mark();
            KernelProfile::from_reader(&mut reader).unwrap().unwrap();
            let canonical = reader.canonical() && reader.offset() == text.len();
            assert_eq!(canonical, canon == text, "canonical verdict on {text:?}");
            Ok(got)
        }
        (Err(want), Err(got)) => {
            assert_eq!(got.to_string(), want.to_string(), "error differs on {text:?}");
            Err(got.to_string())
        }
        (want, got) => panic!(
            "verdicts differ on {text:?}: oracle {:?}, decoder {:?}",
            want.map(|(p, _)| p),
            got
        ),
    }
}

fn rejects(text: &str, expect: &str) {
    let err = verdict(text).expect_err(text);
    assert!(err.contains(expect), "{text}: {err}");
}

#[test]
fn repeated_and_aliased_pc_keys_are_rejected() {
    assert!(verdict(SMALL).is_ok());
    // `"16"` twice — 5 samples, then 1 — under `total_samples: 1`: the
    // second row used to replace the first and the document passed.
    let twice = SMALL
        .replacen(
            r#""16":{"total":1,"by_reason":[0,0,0,1"#,
            r#""16":{"total":5,"by_reason":[0,0,0,5,0,0,0,0,0,0,0,0,0],"latency_by_reason":[0,0,0,0,0,0,0,0,0,0,0,0,0]},"16":{"total":1,"by_reason":[0,0,0,1"#,
            1,
        )
        .replacen(r#""32":{"total":1,"by_reason":[1"#, r#""32":{"total":0,"by_reason":[0"#, 1)
        .replacen(r#""total_samples":2,"active_samples":1"#, r#""total_samples":1,"active_samples":0"#, 1);
    rejects(&twice, "duplicate pc `16`");
    // Aliases of one PC, in either order and on their own.
    for (first, second) in [("016", "32"), ("+16", "32"), ("16", "+16"), ("016", "16")] {
        let text = SMALL.replacen("\"16\":", &format!("\"{first}\":"), 1).replacen(
            "\"32\":",
            &format!("\"{second}\":"),
            1,
        );
        let alias = if first == "16" { second } else { first };
        rejects(&text, &format!("bad pc key `{alias}`"));
    }
}

#[test]
fn repeated_fields_are_rejected_at_every_level() {
    for (anchor, extra, expect) in [
        ("\"cycles\"", "\"kernel\":\"other\",", "duplicate field `kernel` in profile"),
        ("\"block_threads\"", "\"grid_blocks\":2,", "duplicate field `grid_blocks` in launch"),
        ("\"ratio\"", "\"limiter\":\"Warps\",", "duplicate field `limiter` in occupancy"),
        ("\"by_reason\"", "\"total\":1,", "duplicate field `total` in pc stats"),
    ] {
        rejects(&SMALL.replacen(anchor, &format!("{extra}{anchor}"), 1), expect);
    }
}

/// A deterministic stream for the corpus (SplitMix64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `doc` rendered with arbitrary whitespace between tokens.
fn spaced(doc: &Json, rng: &mut Rng, out: &mut String) {
    fn ws(rng: &mut Rng, out: &mut String) {
        out.push_str(["", "", " ", "\n", "\t ", "\r\n"][rng.below(6)]);
    }
    match doc {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                ws(rng, out);
                spaced(item, rng, out);
                ws(rng, out);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                ws(rng, out);
                out.push_str(&Json::from(key.as_str()).compact());
                ws(rng, out);
                out.push(':');
                ws(rng, out);
                spaced(value, rng, out);
                ws(rng, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.compact()),
    }
}

/// The object at `path` (member names from the root) of `doc`.
fn object_at<'d>(doc: &'d mut Json, path: &[&str]) -> &'d mut Vec<(String, Json)> {
    let mut at = doc;
    for name in path {
        let Json::Obj(entries) = at else { panic!("{name}: parent is an object") };
        at = entries.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v).expect("member exists");
    }
    let Json::Obj(entries) = at else { panic!("{path:?} is an object") };
    entries
}

/// Drops, renames, repeats and moves every member of every object level
/// of `base`, rendered compact, pretty and oddly spaced.
fn structural_mutants(base: &Json, rng: &mut Rng) -> Vec<String> {
    let first_pc = object_at(&mut base.clone(), &["pcs"])[0].0.clone();
    let levels: [&[&str]; 5] =
        [&[], &["launch"], &["occupancy"], &["pcs"], &["pcs", first_pc.as_str()]];
    let mut out = Vec::new();
    for path in levels {
        let members = object_at(&mut base.clone(), path).len();
        for i in 0..members {
            for mutation in 0..4 {
                let mut doc = base.clone();
                let entries = object_at(&mut doc, path);
                match mutation {
                    0 => drop(entries.remove(i)),
                    1 => entries[i].0.insert_str(0, "x_"),
                    2 => {
                        let copy = entries[i].clone();
                        entries.insert(rng.below(members + 1), copy);
                    }
                    _ => {
                        let moved = entries.remove(i);
                        entries.insert(rng.below(members), moved);
                    }
                }
                let mut odd = String::new();
                spaced(&doc, rng, &mut odd);
                out.extend([doc.compact(), doc.pretty(), odd]);
            }
        }
    }
    out
}

/// Every value of `SMALL` swapped, one at a time, for each of a list of
/// awkward spellings and wrong types.
fn value_mutants() -> Vec<String> {
    const SPELLINGS: [&str; 20] = [
        "1e2",
        "1.0",
        "-0",
        "-1",
        "007",
        "0",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "1e999",
        "null",
        "true",
        "[]",
        "[1,[2,{\"a\":null}]]",
        "{}",
        "{\"total\":1}",
        "\"7\"",
        "\"Warps\"",
        "\"\\u0057arps \\\"q\\\" \\\\ \\/ \\n µ é\"",
        "\"Vibes\"",
    ];
    let mut out = Vec::new();
    let mut reader = gpa_json::Reader::new(SMALL);
    // Every value span of the document, found by walking it with the
    // reader itself (containers first, then their members).
    let mut spans: Vec<&str> = Vec::new();
    fn collect<'a>(reader: &mut gpa_json::Reader<'a>, spans: &mut Vec<&'a str>) {
        if reader.open(b'{').unwrap() {
            while reader.key().unwrap().is_some() {
                collect(reader, spans);
            }
        } else if reader.open(b'[').unwrap() {
            while reader.element().unwrap() {
                collect(reader, spans);
            }
        } else {
            spans.push(reader.skip().unwrap());
        }
    }
    collect(&mut reader, &mut spans);
    for span in spans {
        let at = span.as_ptr() as usize - SMALL.as_ptr() as usize;
        for spelling in SPELLINGS {
            out.push(format!("{}{spelling}{}", &SMALL[..at], &SMALL[at + span.len()..]));
        }
    }
    // Whole containers of the wrong type, and non-object documents.
    for (needle, replacement) in [
        (
            "{\"grid_blocks\":1,\"block_threads\":32,\"regs_per_thread\":32,\"smem_per_block\":0}",
            "7",
        ),
        (
            "{\"grid_blocks\":1,\"block_threads\":32,\"regs_per_thread\":32,\"smem_per_block\":0}",
            "[]",
        ),
        ("[1,0,0,0,0,0,0,0,0,0,0,0,0]", "{\"0\":1}"),
        ("[1,0,0,0,0,0,0,0,0,0,0,0,0]", "[1,0,0,0,0,0,0,0,0,0,0,0]"),
        ("[1,0,0,0,0,0,0,0,0,0,0,0,0]", "[1,0,0,0,0,0,0,0,0,0,0,0,0,0]"),
        ("[1,0,0,0,0,0,0,0,0,0,0,0,0]", "[1,0,0,0,0,0,0,0,0,0,0,0,\"x\"]"),
        ("[0,0,0,0,0,0,0,0,0,0,0,0,0]", "[0,0,0,0,0,0,0,0,0,0,0,0,0,-1]"),
        (
            "[0,0,0,1,0,0,0,0,0,0,0,0,0],\"latency",
            "[0,0,0,1,0,0,0,0,0,0,0,0,18446744073709551615],\"latency",
        ),
        (
            "\"total\":1,\"by_reason\":[0",
            "\"total\":18446744073709551615,\"by_reason\":[18446744073709551614",
        ),
        ("\"16\":", "\"sixteen\":"),
        ("\"16\":", "\"-16\":"),
        ("\"16\":", "\" 16\":"),
        ("\"16\":", "\"18446744073709551616\":"),
        ("\"16\":", "\"\\u0031\\u0036\":"),
        ("\"32\":", "\"\\u0031\\u0036\":"),
        ("\"kernel\":", "\"k\\u0065rnel\":"),
        ("\"kernel\":", "\"kérnel\":"),
        ("\"k\"", "\"\\u006b µ\\n\""),
    ] {
        assert!(SMALL.contains(needle), "surgery target {needle}");
        out.push(SMALL.replacen(needle, replacement, 1));
    }
    // Counter rows the one-step read refuses, so the token walk judges
    // them: spaced, a leading-zero element, a trailing comma, 12 and 14
    // elements, an element past `u64`, negative or a float.
    let row = "[0,0,0,1,0,0,0,0,0,0,0,0,0]";
    for spelling in [
        "[ 0,0,0,1,0,0,0,0,0,0,0,0,0]",
        "[0,0,0,1,0,0,0,0,0,0,0,0,0 ]",
        "[0, 0,0,1,0,0,0,0,0,0,0,0,0]",
        "[0,0,0,01,0,0,0,0,0,0,0,0,0]",
        "[0,0,0,1,0,0,0,0,0,0,0,0,0,]",
        "[0,0,0,1,0,0,0,0,0,0,0,0]",
        "[0,0,0,1,0,0,0,0,0,0,0,0,0,0]",
        "[0,0,0,1,0,0,0,0,0,0,0,0,18446744073709551616]",
        "[0,0,0,1,0,0,0,0,0,0,0,0,-1]",
        "[0,0,0,1.0,0,0,0,0,0,0,0,0,0]",
    ] {
        for at in SMALL.match_indices(row).map(|(at, _)| at) {
            out.push(format!("{}{spelling}{}", &SMALL[..at], &SMALL[at + row.len()..]));
        }
    }
    let pcs_at = SMALL.find("\"pcs\":").unwrap() + 6;
    let pcs_end = SMALL.find(",\"total_samples\"").unwrap();
    for pcs in ["[]", "null", "{}", "{\"16\":7}", "{\"16\":[]}", "{\"16\":{}}"] {
        out.push(format!("{}{pcs}{}", &SMALL[..pcs_at], &SMALL[pcs_end..]));
    }
    out.extend(
        ["[]", "42", "\"profile\"", "null", "{}", "", " ", "{\"pcs\":{}}"].map(String::from),
    );
    out
}

#[test]
fn decoder_and_oracle_agree_on_the_mutation_corpus() {
    let mut rng = Rng(21);
    let base = Json::parse(SMALL).unwrap();
    let mut corpus = structural_mutants(&base, &mut rng);
    corpus.extend(value_mutants());
    // Every truncation point of one document, compact and pretty.
    for text in [SMALL.to_string(), base.pretty()] {
        corpus.extend(
            (0..text.len())
                .filter(|&cut| text.is_char_boundary(cut))
                .map(|cut| text[..cut].to_string()),
        );
    }
    let accepted = corpus.iter().filter(|text| verdict(text).is_ok()).count();
    assert!(corpus.len() > 2_000 && accepted > 100, "{accepted} of {} accepted", corpus.len());
}

#[test]
fn decoder_and_oracle_agree_on_the_registry_documents() {
    let session = gpa_pipeline::Session::test();
    let jobs = session.jobs_for_all_variants();
    assert_eq!(jobs.len(), 47);
    let mut rng = Rng(47);
    for job in &jobs {
        // The producer's crate build is not this test build: only the
        // document text crosses over.
        let (_, profile, _) = session.profile_one(job).expect("registry job");
        let doc = Json::parse(&profile.to_json()).unwrap();
        let mut odd = String::new();
        spaced(&doc, &mut rng, &mut odd);
        let decoded = verdict(&doc.compact()).unwrap_or_else(|e| panic!("{job}: {e}"));
        assert_eq!(decoded.to_doc(), doc, "{job}");
        assert_eq!(verdict(&doc.pretty()).as_ref(), Ok(&decoded), "{job}");
        assert_eq!(verdict(&odd).as_ref(), Ok(&decoded), "{job}");
        // One full-size document also goes through the structural
        // mutations (the small one covers them in the corpus test).
        if job == &jobs[0] {
            for text in structural_mutants(&doc, &mut rng) {
                let _ = verdict(&text);
            }
        }
    }
}
