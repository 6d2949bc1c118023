//! Cross-commit advice pins, and the bounds the estimators promise.
//!
//! `schema_snapshot` pins one app and the benchmark harness computes its
//! reference with the build under test, so neither notices an advisor
//! refactor that moves a byte on some other kernel. The tables below pin
//! the v2 report of every registry (app, variant) pair under both memory
//! models, plus the three `demo/membound` variants under the hierarchy
//! (the only kernels that drive both memory-hierarchy optimizers hard):
//! one FNV-1a fingerprint ([`gpa::serve::store::fingerprint`]) of the
//! compact document each.
//!
//! The literals are **recorded at the parent commit** of the change that
//! wants to prove it moved nothing, never regenerated inside that change.
//! To record: zero a table, run the test at the parent, and copy the
//! table the failure message prints. A change that moves advice on
//! purpose re-records in a commit of its own and says which rows moved
//! and why.

mod common;

use common::{profile_of, random_profile, NESTED_CALLS};
use gpa::arch::{ArchConfig, LaunchConfig};
use gpa::core::{schema, AdviceReport, Advisor, OptimizerCategory};
use gpa::kernels::{apps::membound, Params};
use gpa::pipeline::Session;
use gpa::sampling::StallReason;
use gpa::serve::protocol;
use gpa::serve::store::fingerprint;
use proptest::TestRng;

/// `(app, variant, flat-model fingerprint, hierarchy-model fingerprint)`.
type Pin<'a> = (&'a str, usize, u64, u64);

/// `Session::test()` (`Params::test()`) — what tier-1 runs (debug and
/// release agree).
const TEST_PINS: [Pin<'static>; 47] = [
    ("rodinia/backprop", 0, 0xc25af80c9647d98c, 0x6921c3e9f69a0891),
    ("rodinia/backprop", 1, 0xef56684c52b53d7b, 0x6480d1f4b6a0d962),
    ("rodinia/backprop", 2, 0x31117fd9267d36cd, 0x6e40d9de2e03cf71),
    ("rodinia/bfs", 0, 0x9a0eecb7e08ce9c2, 0xcc8dff4339987e69),
    ("rodinia/bfs", 1, 0x5ceb977318d20eee, 0x925dcf54a36d0968),
    ("rodinia/b+tree", 0, 0x52b95ad905cc5383, 0x6e0c58fc69ba0228),
    ("rodinia/b+tree", 1, 0xa2dc22afdec995a7, 0x237c87ff448a1a96),
    ("rodinia/cfd", 0, 0x93441bbb7a8ccb7d, 0xbaeec9c1a17540d7),
    ("rodinia/cfd", 1, 0xac31e6d592e5082a, 0x7ac9403840c04329),
    ("rodinia/gaussian", 0, 0xfafb67a2d11dc0e1, 0x2be337dfda3d7d03),
    ("rodinia/gaussian", 1, 0x6b0edb41d4433b19, 0xffdd26627d96fcea),
    ("rodinia/heartwall", 0, 0xbb1fb869e992f8c6, 0xfe455e43279e0a76),
    ("rodinia/heartwall", 1, 0xb669fbf840a3dd82, 0x1fa24b94345dca0e),
    ("rodinia/hotspot", 0, 0x1396877ddeeb1671, 0x79ee6a385c65acaf),
    ("rodinia/hotspot", 1, 0x576b15d7e7b98d82, 0x35845cacac893dce),
    ("rodinia/huffman", 0, 0xd6b35e10f9833cd5, 0xd9c0bc259b9475d6),
    ("rodinia/huffman", 1, 0x70683f12278eb459, 0x519111c9a4b078b9),
    ("rodinia/kmeans", 0, 0x85dd8f12ff7a8910, 0x4c1e36c699a0f57a),
    ("rodinia/kmeans", 1, 0xfb6806d958b952ca, 0x0573d792dff89ccf),
    ("rodinia/lavaMD", 0, 0xe03a6fe40792e83f, 0xef93676872ec731f),
    ("rodinia/lavaMD", 1, 0x814cb5732b98dbcd, 0x1e910603cfd21782),
    ("rodinia/lud", 0, 0x3e3d29c0b7220c47, 0x3e3d29c0b7220c47),
    ("rodinia/lud", 1, 0x2f18016e5a692bca, 0x2f18016e5a692bca),
    ("rodinia/myocyte", 0, 0x83467e6adef09f8d, 0x83467e6adef09f8d),
    ("rodinia/myocyte", 1, 0x5c35d335c335b40e, 0x5c35d335c335b40e),
    ("rodinia/myocyte", 2, 0x7e5ff7ee5803d559, 0x7e5ff7ee5803d559),
    ("rodinia/nw", 0, 0x2cc80b0dd2626e47, 0x79546be9aa1dca34),
    ("rodinia/nw", 1, 0x7d355ce5cde8f9b1, 0x31252c1b05b4a278),
    ("rodinia/particlefilter", 0, 0x78160de84f7e2e61, 0x0d2b3db3c846ff8f),
    ("rodinia/particlefilter", 1, 0x1175c23e857931f4, 0x0db71e31abac5d62),
    ("rodinia/streamcluster", 0, 0x52b8618b42e20e7f, 0x38b88910b6760e42),
    ("rodinia/streamcluster", 1, 0x0484e48f667a24ee, 0x60176b1249d7e8c6),
    ("rodinia/sradv1", 0, 0x8ca2158cc76ee78c, 0x299ff9cebb12301a),
    ("rodinia/sradv1", 1, 0x8a78961b920cc63b, 0x6cd686b62d03e11b),
    ("rodinia/pathfinder", 0, 0xa458a8e9603fcc8b, 0xf06f0e3a8128258d),
    ("rodinia/pathfinder", 1, 0x29e26946ee31f7e5, 0x4b0c748c7de52e7c),
    ("Quicksilver", 0, 0xd627eb8f37f32c9e, 0xd627eb8f37f32c9e),
    ("Quicksilver", 1, 0xee04ae1cbfafc235, 0xee04ae1cbfafc235),
    ("Quicksilver", 2, 0x3ad8a5382b281cfe, 0x3ad8a5382b281cfe),
    ("ExaTENSOR", 0, 0x880d84cb168963f9, 0x80b315c4a836f8ae),
    ("ExaTENSOR", 1, 0xc4fbd1cc7b2e8f59, 0xadd7a439a2048803),
    ("ExaTENSOR", 2, 0xc4dd0759230b3ec3, 0x4191c2ba2c5a42ed),
    ("PeleC", 0, 0x06d15ce000e5d86a, 0xe4a115d55872041e),
    ("PeleC", 1, 0x36b62285302f4193, 0x36b62285302f4193),
    ("Minimod", 0, 0x70fd101aab3dbcf4, 0xee58dd93df7f1704),
    ("Minimod", 1, 0x5be3f65c2a2c7376, 0x6f0d05bca4b8f0d8),
    ("Minimod", 2, 0x3e1f7562948c100a, 0xde65f18911804282),
];

/// `demo/membound` variants 0–2 on `Session::test().with_hierarchy()`.
const TEST_MEMBOUND_PINS: [u64; 3] = [0x5bc19370ffbe0466, 0xf64d9b1dcfaa5e14, 0x365651abd17de1ce];

/// `Session::full()` (`Params::full()`) — the configuration people run;
/// CI's release step.
const FULL_PINS: [Pin<'static>; 47] = [
    ("rodinia/backprop", 0, 0xc9d0968773838cdc, 0x3ae7656e43ee3e4b),
    ("rodinia/backprop", 1, 0x943b95cfbf17980f, 0xfcc5b2cdd30fca95),
    ("rodinia/backprop", 2, 0xeb3b2ff541317cf5, 0x46d16c821f5c9409),
    ("rodinia/bfs", 0, 0x2cbf1dbcc7ce0682, 0xe19b4eb3e29cf2fb),
    ("rodinia/bfs", 1, 0xb2929b55d6b6feb6, 0x44ebebe37057b88f),
    ("rodinia/b+tree", 0, 0xee7fd3486ed8c422, 0x155cd4544c0245c4),
    ("rodinia/b+tree", 1, 0xe59a6b0f0d64ea61, 0x4e52db75a86cc84c),
    ("rodinia/cfd", 0, 0x00919eda602706a4, 0x435bacb27fc8bfde),
    ("rodinia/cfd", 1, 0xaaf44b54deb4cb42, 0x9770fa220601037e),
    ("rodinia/gaussian", 0, 0x7c1f3deba729bd47, 0x73d3c5d6916017a0),
    ("rodinia/gaussian", 1, 0x351aa190d829bb23, 0x6761c7b9c0cec6e6),
    ("rodinia/heartwall", 0, 0x491ace474b96ad42, 0xbac4e1e9fd6942f8),
    ("rodinia/heartwall", 1, 0x9984f61f546a48f8, 0x2e32a039ce298457),
    ("rodinia/hotspot", 0, 0x8dfa886430cedce6, 0x29a9e13a2b336c20),
    ("rodinia/hotspot", 1, 0x62e355bdba06d671, 0xb84445c91f6602a8),
    ("rodinia/huffman", 0, 0x58edc004b30370a0, 0x23f61fd381d344f7),
    ("rodinia/huffman", 1, 0xfe16c8091c2b8a64, 0x1766fb5e91ce6e2d),
    ("rodinia/kmeans", 0, 0xbbf68ce5e373ba7e, 0x135490c0468248ed),
    ("rodinia/kmeans", 1, 0xdb5919262aaaf6a8, 0x78c4da9baa157a27),
    ("rodinia/lavaMD", 0, 0xf6a64ce4a0033a97, 0xb1cb11506005aa58),
    ("rodinia/lavaMD", 1, 0xb4d6578dfa7d450e, 0x4209e22a33104a48),
    ("rodinia/lud", 0, 0x3a1b0c4f0e15f2b1, 0x3a1b0c4f0e15f2b1),
    ("rodinia/lud", 1, 0x6847e58a08fa056d, 0x6847e58a08fa056d),
    ("rodinia/myocyte", 0, 0x82ebcd69ae3dd8d0, 0x82ebcd69ae3dd8d0),
    ("rodinia/myocyte", 1, 0x4283006dc4a74f09, 0x4283006dc4a74f09),
    ("rodinia/myocyte", 2, 0x687fd602f82eeab9, 0x687fd602f82eeab9),
    ("rodinia/nw", 0, 0xf123927b49e8e79d, 0xbb24ea5f89816a4e),
    ("rodinia/nw", 1, 0xbc95663bcc236e18, 0xa54ea8940c5bd144),
    ("rodinia/particlefilter", 0, 0xb441d957ff708927, 0x684515d3840d3067),
    ("rodinia/particlefilter", 1, 0x1e79f4207fc5f124, 0x7e6f196ca79cfe92),
    ("rodinia/streamcluster", 0, 0xbac0d52852ce2371, 0xf601113deeab5541),
    ("rodinia/streamcluster", 1, 0x6ede39f37cb1e3b5, 0x934c3e92c0502343),
    ("rodinia/sradv1", 0, 0xa1173eee03d4fe4c, 0x2ca195a48f8fd54a),
    ("rodinia/sradv1", 1, 0xf2bda1d5790a8e2c, 0xfe2beb24e8ae91c0),
    ("rodinia/pathfinder", 0, 0x9efd7759a8df2882, 0x973f22c073dc95ec),
    ("rodinia/pathfinder", 1, 0x06e0cc6c88fc9d32, 0xbe8d9d9d9b545d3a),
    ("Quicksilver", 0, 0x3f8e4e638c3c90dc, 0x416685e9d5ef6c41),
    ("Quicksilver", 1, 0xa34c2a0b2e425538, 0xe9d7c968a45ef325),
    ("Quicksilver", 2, 0x88624e3cdf320744, 0x569aaaffefddbacd),
    ("ExaTENSOR", 0, 0x9e98d4b566e42222, 0xe2bb623eb2f69266),
    ("ExaTENSOR", 1, 0xa64ba4a09117b9a0, 0x40cb6ebc4bac1482),
    ("ExaTENSOR", 2, 0x4b46f6e89a3b9344, 0x1a08bd4cd4537c79),
    ("PeleC", 0, 0x9ce1071b389ae757, 0x517bac8afcbd1768),
    ("PeleC", 1, 0x863736ecb876fe1d, 0x863736ecb876fe1d),
    ("Minimod", 0, 0x1b3e7e0c0af9dc55, 0x3bc29c8f0b3f83ac),
    ("Minimod", 1, 0x2fc308a66557a8ae, 0xccbf9922aca1fbef),
    ("Minimod", 2, 0x3c85ad98ace552a5, 0x5e7c2f01a3a2dc47),
];

/// `demo/membound` variants 0–2 on `Session::full().with_hierarchy()`.
const FULL_MEMBOUND_PINS: [u64; 3] = [0x8a83c9426aeefe59, 0xaf50d8ca6b597643, 0xece44a969322c0a7];

/// `(app, variant, v1 fingerprint, v2 fingerprint)` of the whole
/// `analyze_profile` result body — envelope, `advice` / `report` and
/// `text` — on `Session::test()`, flat model, default options.
const BODY_PINS: [Pin<'static>; 47] = [
    ("rodinia/backprop", 0, 0x4af1b0978b57cbf8, 0x978b63d9bb5cb219),
    ("rodinia/backprop", 1, 0x566ce6e8710fc700, 0x12778ba9ba1126f6),
    ("rodinia/backprop", 2, 0xf0ddc4c65b164f56, 0xa894fb950406ad49),
    ("rodinia/bfs", 0, 0x9217b39cdfc9c4b1, 0x0df2d9501682616a),
    ("rodinia/bfs", 1, 0xf4ce24d679307a66, 0x732a5831abf6f1fc),
    ("rodinia/b+tree", 0, 0x3cdb113577276ee9, 0x585bacc871e0fc2c),
    ("rodinia/b+tree", 1, 0x7be3e667557ce2cb, 0x2c80a8effba9156e),
    ("rodinia/cfd", 0, 0x413d53652d9aa893, 0xf9a89d160a193e05),
    ("rodinia/cfd", 1, 0xe5279dbfafc1f671, 0x6f5d103720bade9e),
    ("rodinia/gaussian", 0, 0x4856eb2e3a890590, 0x337b9cbc8b97febe),
    ("rodinia/gaussian", 1, 0xf7ea23af428fb2a4, 0x179cf76c4180ae6d),
    ("rodinia/heartwall", 0, 0x371182d244a33f3b, 0x6454387dfe0e4b99),
    ("rodinia/heartwall", 1, 0x12b4695d25e54149, 0x8ffe02222ee4214c),
    ("rodinia/hotspot", 0, 0x3d5691115643f60e, 0xb9a0f895b5c17df3),
    ("rodinia/hotspot", 1, 0xa4765c216424c1d2, 0x19f7081e1ddc775b),
    ("rodinia/huffman", 0, 0x09fe97063bacdba6, 0xa0f0a336e2c3a203),
    ("rodinia/huffman", 1, 0x073f868a12214703, 0x91df31a6b4f1c978),
    ("rodinia/kmeans", 0, 0xca38758c978815c4, 0x547dd28fe1dbb31b),
    ("rodinia/kmeans", 1, 0x3474ec6efd2d7545, 0x3e18086067209552),
    ("rodinia/lavaMD", 0, 0x1250849a9c5833db, 0x9a3576013bf9d01f),
    ("rodinia/lavaMD", 1, 0xccf27f1d7f05d4e0, 0xfb60c142ca366fb4),
    ("rodinia/lud", 0, 0x54365f07b4ed0500, 0x6ab24c466beaa2e5),
    ("rodinia/lud", 1, 0x90ab16d99ee20cf2, 0x993c433d0657a8df),
    ("rodinia/myocyte", 0, 0xf0abedcd92574ad1, 0xfdb12e562b4f90c4),
    ("rodinia/myocyte", 1, 0x33d13ce76d1a61eb, 0xa6fa5052a7f29a8d),
    ("rodinia/myocyte", 2, 0x2dcd5d4edda35a39, 0xc85d6bb6cc55dc1c),
    ("rodinia/nw", 0, 0x39f9699b441f7b65, 0xc9063810bc96ba71),
    ("rodinia/nw", 1, 0x041534bdb9f97477, 0x2f265d2d7ab219d8),
    ("rodinia/particlefilter", 0, 0xc597fe6fbff2fc1c, 0xac12a22e0f7220f1),
    ("rodinia/particlefilter", 1, 0x631d643f292d7470, 0xdef587e2cc18d6b5),
    ("rodinia/streamcluster", 0, 0x2d374458b2fd2c09, 0xee36fda3cf9ec18e),
    ("rodinia/streamcluster", 1, 0x0851da3499a3df07, 0xa30949f036a5629e),
    ("rodinia/sradv1", 0, 0x5390c5eaeacb36bb, 0x5238d937ee886ad8),
    ("rodinia/sradv1", 1, 0x8f2179dfc28d1f95, 0x64cf63a78a32d7de),
    ("rodinia/pathfinder", 0, 0x8d79557c0f848015, 0xc1f528068e4da74f),
    ("rodinia/pathfinder", 1, 0x9472971e73e7e816, 0xa36bc62b7bf48ad1),
    ("Quicksilver", 0, 0x7f456a9f7577af98, 0xe5c85fdf0550fabc),
    ("Quicksilver", 1, 0x6f80de7f91086d5a, 0xce600577ec0d3f19),
    ("Quicksilver", 2, 0x35cb2e850fb27e65, 0xb339f7578ee14e88),
    ("ExaTENSOR", 0, 0x56f2acb84625eea4, 0xc1a901dfbf0028bd),
    ("ExaTENSOR", 1, 0x40f12ab75cad67ea, 0x352efbb5a12a104a),
    ("ExaTENSOR", 2, 0xc1287ee1e8ecc1a1, 0x91d7314ad115343f),
    ("PeleC", 0, 0xb96f480f62d0cef1, 0x9727bc0b61e93400),
    ("PeleC", 1, 0x685aca8fcf03b588, 0xcf565bfcd041c7b1),
    ("Minimod", 0, 0x6b5d035506f8b0fb, 0x8779613def88a2c7),
    ("Minimod", 1, 0x1e458f1892f6bc6a, 0xbe6778ce5f16213f),
    ("Minimod", 2, 0x4e4572792fa8dd0b, 0x918002a89c089bc5),
];

fn body_fingerprint(report: &AdviceReport) -> u64 {
    fingerprint(&schema::report_to_json(report).compact())
}

/// Fingerprints every registry variant under both models and the demo
/// kernel under the hierarchy, and compares them with the recorded pins.
fn assert_pins(params: Params, pins: &[Pin<'_>], membound_pins: &[u64; 3]) {
    let flat = Session::for_params(params);
    let hier = Session::for_params(params).with_hierarchy();
    let jobs = flat.jobs_for_all_variants();
    let prints = |session: &Session| -> Vec<u64> {
        jobs.iter()
            .zip(session.run_batch(&jobs))
            .map(|(job, out)| {
                body_fingerprint(&out.unwrap_or_else(|e| panic!("{job}: {e}")).report)
            })
            .collect()
    };
    let produced: Vec<Pin<'_>> = jobs
        .iter()
        .zip(prints(&flat).into_iter().zip(prints(&hier)))
        .map(|(job, (f, h))| (job.app.as_str(), job.variant, f, h))
        .collect();
    let app = membound::app();
    let produced_membound: Vec<u64> = (0..app.variants())
        .map(|v| {
            let out = hier.analyze_spec((app.build)(v, &params)).expect("demo kernel runs");
            body_fingerprint(&out.report)
        })
        .collect();

    if produced != pins || produced_membound != membound_pins {
        let mut table = String::new();
        for (app, variant, f, h) in &produced {
            table.push_str(&format!("    ({app:?}, {variant}, {f:#018x}, {h:#018x}),\n"));
        }
        let moved: Vec<String> = produced
            .iter()
            .zip(pins)
            .filter(|(p, r)| p != r)
            .map(|(p, _)| format!("{}#{}", p.0, p.1))
            .collect();
        panic!(
            "advice moved against the recorded pins ({} registry rows: {moved:?}; membound \
             {produced_membound:#018x?} vs {membound_pins:#018x?}).\nThis build produces:\n\
             {table}membound: {produced_membound:#018x?}",
            moved.len()
        );
    }
}

#[test]
fn advice_bytes_match_the_pins_recorded_at_the_parent_commit() {
    assert_pins(Params::test(), &TEST_PINS, &TEST_MEMBOUND_PINS);
}

/// The same gate on the full-scale device (CI runs it in release with
/// `--include-ignored`).
#[test]
#[ignore = "full-scale wave, release only: cargo test --release --test advice_pins -- --include-ignored"]
fn full_scale_advice_bytes_match_the_pins_recorded_at_the_parent_commit() {
    assert_pins(Params::full(), &FULL_PINS, &FULL_MEMBOUND_PINS);
}

/// The pins above cover the `report` document only; this covers the rest
/// of what a client receives: the envelope, the v1 `advice` array and
/// the rendered `text`, in both schema versions.
#[test]
fn result_bodies_match_the_pins_recorded_at_the_parent_commit() {
    let session = Session::test();
    let jobs = session.jobs_for_all_variants();
    let produced: Vec<Pin<'_>> = jobs
        .iter()
        .zip(session.run_batch(&jobs))
        .map(|(job, out)| {
            let out = out.unwrap_or_else(|e| panic!("{job}: {e}"));
            let body = |schema| {
                fingerprint(
                    &protocol::profile_body(job, &out.profile, &out.report, schema).compact(),
                )
            };
            (job.app.as_str(), job.variant, body(1), body(2))
        })
        .collect();
    if produced != BODY_PINS {
        let table: String = produced
            .iter()
            .map(|(app, variant, v1, v2)| {
                format!("    ({app:?}, {variant}, {v1:#018x}, {v2:#018x}),\n")
            })
            .collect();
        panic!("result bodies moved against the recorded pins. This build produces:\n{table}");
    }
}

/// What every estimator promises about an item, whatever the profile.
fn assert_item_bounds(report: &AdviceReport, what: &str) -> usize {
    for item in &report.items {
        let id = item.id;
        assert!(
            (0.0..=1.0).contains(&item.matched_ratio),
            "{what}: {id} matched ratio {} outside [0, 1]",
            item.matched_ratio
        );
        assert!(
            item.estimated_speedup >= 1.0 && item.estimated_speedup.is_finite(),
            "{what}: {id} estimates {}",
            item.estimated_speedup
        );
        let evidence: f64 = item.hotspots.iter().map(|h| h.ratio).sum();
        assert!(evidence <= 1.0 + 1e-9, "{what}: {id} hotspot ratios sum to {evidence}");
        if item.category == OptimizerCategory::LatencyHiding {
            assert!(
                item.estimated_speedup <= 2.0 + 1e-9,
                "{what}: {id} breaks Theorem 5.1 with Sh = {}",
                item.estimated_speedup
            );
        }
    }
    report.items.len()
}

#[test]
fn every_item_respects_its_estimators_bounds_on_random_sample_tables() {
    const TABLES_PER_MODULE: u64 = 40;
    let session = Session::test();
    let mut items = 0;
    for job in &session.jobs_for_all_variants() {
        let artifacts = session.artifacts(job).expect("registry job");
        let mut rng = TestRng::new(&job.to_string());
        for table in 0..TABLES_PER_MODULE {
            let profile = random_profile(&artifacts.spec.module, session.arch(), &mut rng);
            let report = session.advise_profile(job, &profile).expect("registry job");
            items += assert_item_bounds(&report, &format!("{job} table {table}"));
        }
    }

    // The nested-call module: first the table that used to count the
    // inner call site twice (4 latency samples at `f`'s CAL, 10 active
    // samples at `k`'s EXIT read as a 2.33x latency-hiding estimate),
    // then random ones.
    let module = gpa::isa::parse_module(NESTED_CALLS).expect("assembles");
    let (k, f) = (&module.functions[0], &module.functions[1]);
    let arch = ArchConfig::small(1);
    let advisor = Advisor::new();
    let doubled = profile_of(
        &module,
        &arch,
        LaunchConfig::new(1, 32),
        &[
            (f.pc_of(0), StallReason::ExecutionDependency, false, 4),
            (k.pc_of(1), StallReason::Selected, true, 10),
        ],
    );
    items += assert_item_bounds(&advisor.advise(&module, &doubled, &arch), "nested calls");
    let mut rng = TestRng::new("nested calls");
    for table in 0..TABLES_PER_MODULE {
        let profile = random_profile(&module, &arch, &mut rng);
        let report = advisor.advise(&module, &profile, &arch);
        items += assert_item_bounds(&report, &format!("nested calls table {table}"));
    }
    assert!(items > 4_000, "the corpus exercises the estimators ({items} items)");
}
