//! Property tests for `gpa-json` round-tripping (vendored proptest
//! shim): string escaping, integer-precision boundaries, and the
//! parser's depth limit.

use gpa_json::{Json, Num};
use proptest::prelude::*;

/// A tiny deterministic generator (SplitMix64) for building adversarial
/// strings from one drawn seed — the shim's strategies are numeric, so
/// structured values are derived in the test body.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A string mixing the troublesome cases: quotes, backslashes,
    /// every control character, non-ASCII (2-, 3- and 4-byte UTF-8),
    /// and plain ASCII.
    fn string(&mut self, len: usize) -> String {
        let alphabet: &[char] = &[
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1}',
            '\u{8}',
            '\u{b}',
            '\u{c}',
            '\u{1f}',
            ' ',
            'a',
            'Z',
            '0',
            'µ',
            'é',
            '→',
            '日',
            '本',
            '\u{10348}',
            '😀',
            '\u{7f}',
            '\u{80}',
            '\u{2028}',
        ];
        (0..len).map(|_| alphabet[(self.next() as usize) % alphabet.len()]).collect()
    }
}

proptest! {
    /// Any string — including quotes, control characters, and
    /// non-ASCII — survives a pretty-print → parse round trip.
    #[test]
    fn strings_round_trip_through_pretty(seed in 0u64..u64::MAX, len in 0usize..64) {
        let s = Gen(seed).string(len);
        let doc = Json::object().with("k", s.clone());
        let back = Json::parse(&doc.pretty()).unwrap();
        prop_assert_eq!(back.field("k").unwrap().as_str().unwrap(), s.as_str());
    }

    /// The same through the compact (wire) rendering, which must also
    /// stay newline-free — it is the framing invariant of gpa-serve.
    #[test]
    fn strings_round_trip_through_compact(seed in 0u64..u64::MAX, len in 0usize..64) {
        let s = Gen(seed).string(len);
        let doc = Json::object().with("k", s.clone());
        let line = doc.compact();
        prop_assert!(!line.contains('\n'), "frame contains a raw newline: {line:?}");
        let back = Json::parse(&line).unwrap();
        prop_assert_eq!(back.field("k").unwrap().as_str().unwrap(), s.as_str());
    }

    /// Unsigned integers keep full u64 precision (no f64 detour).
    #[test]
    fn u64_precision_is_preserved(offset in 0u64..1_000_000) {
        let v = u64::MAX - offset;
        let doc = Json::object().with("v", v);
        let back = Json::parse(&doc.pretty()).unwrap();
        prop_assert_eq!(back.field("v").unwrap().as_u64().unwrap(), v);
    }

    /// Negative integers keep full i64 precision down to i64::MIN.
    #[test]
    fn i64_precision_is_preserved(offset in 0i64..1_000_000) {
        let v = i64::MIN + offset;
        let doc = Json::object().with("v", v);
        let back = Json::parse(&doc.pretty()).unwrap();
        match back.field("v").unwrap() {
            Json::Num(Num::I(parsed)) => prop_assert_eq!(*parsed, v),
            other => panic!("negative integer parsed as {other:?}"),
        }
    }

    /// Nesting up to the parser's cap parses; anything deeper is a
    /// clean error (never a stack overflow), for both arrays and
    /// objects — and mixed nesting right at the boundary.
    #[test]
    fn depth_limit_is_exact(depth in 1u32..200) {
        let arrays = "[".repeat(depth as usize) + &"]".repeat(depth as usize);
        let mut objects = String::new();
        for _ in 0..depth {
            objects.push_str("{\"k\":");
        }
        objects.push_str("null");
        objects.push_str(&"}".repeat(depth as usize));
        // MAX_DEPTH is 128 (crate-internal); the boundary is observable.
        let expect_ok = depth <= 128;
        prop_assert_eq!(Json::parse(&arrays).is_ok(), expect_ok, "arrays at depth {}", depth);
        prop_assert_eq!(Json::parse(&objects).is_ok(), expect_ok, "objects at depth {}", depth);
    }
}

#[test]
fn integer_boundaries_round_trip_exactly() {
    for v in [0u64, 1, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
        let back = Json::parse(&Json::from(v).pretty()).unwrap();
        assert_eq!(back.as_u64().unwrap(), v);
    }
    for v in [i64::MIN, i64::MIN + 1, -1i64] {
        let back = Json::parse(&Json::from(v).pretty()).unwrap();
        assert_eq!(back, Json::Num(Num::I(v)), "{v}");
    }
    // i64::MAX + 1 .. u64::MAX parse as unsigned, not saturated floats.
    let just_past_i64 = (i64::MAX as u64) + 1;
    let back = Json::parse(&just_past_i64.to_string()).unwrap();
    assert_eq!(back.as_u64().unwrap(), just_past_i64);
}

#[test]
fn deep_nesting_error_mentions_depth() {
    let deep = "[".repeat(4096) + &"]".repeat(4096);
    let err = Json::parse(&deep).unwrap_err();
    assert!(err.to_string().contains("nesting too deep"), "{err}");
}

/// `compact`, `Reader::skip` and `Json::parse` are one lexer: over token
/// soups and nested documents with awkward numbers, spacing and escapes
/// they accept the same texts, fail with the same message at the same
/// byte, and `compact` writes the tree's compact rendering byte for byte.
#[test]
fn reader_skip_and_compact_agree_with_the_tree() {
    #[rustfmt::skip]
    const ATOMS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u0041", "\\u00", "\\n", "\\q", "null", "true",
        "false", "tru", "0", "-0", "-", "1", "12", "007", "1.5", "1e2", "1e", "1.", "-.5", "e",
        "18446744073709551615", "18446744073709551616", "-9223372036854775809", " ", "\n", "\t",
        "a", "é", "\u{1}", "\"k\"", "\"k\":1", "{\"a\":[1,2,{\"b\":null}]}", "[[]]", "{}",
    ];
    fn document(g: &mut Gen, depth: u32) -> String {
        let ws = ["", " ", "\r\n\t"][(g.next() % 3) as usize];
        let members = g.next() % 4;
        match g.next() % if depth > 3 { 4 } else { 6 } {
            0 => ["null", "true", "false"][(g.next() % 3) as usize].to_string(),
            1 | 2 => ATOMS[16 + (g.next() % 15) as usize].to_string(),
            3 => format!(
                "\"{}\"",
                ["", "a", "é\\n", "\\u0041\\/", "x\u{1}y"][(g.next() % 5) as usize]
            ),
            4 => {
                let items: Vec<String> = (0..members).map(|_| document(g, depth + 1)).collect();
                format!("[{ws}{}{ws}]", items.join(&format!("{ws},{ws}")))
            }
            _ => {
                let entries: Vec<String> = (0..members)
                    .map(|i| format!("\"k{}\"{ws}:{ws}{}", i % 2, document(g, depth + 1)))
                    .collect();
                format!("{{{ws}{}{ws}}}", entries.join(&format!("{ws},{ws}")))
            }
        }
    }
    let mut g = Gen(21);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..20_000 {
        let text: String = if case % 2 == 0 {
            (0..1 + g.next() % 10).map(|_| ATOMS[(g.next() as usize) % ATOMS.len()]).collect()
        } else {
            document(&mut g, 0)
        };
        let tree = Json::parse(&text).map(|v| v.compact()).map_err(|e| e.to_string());
        assert_eq!(gpa_json::compact(&text).map_err(|e| e.to_string()), tree, "compact {text:?}");
        let mut reader = gpa_json::Reader::new(&text);
        let span = reader.skip().and_then(|span| reader.finish().map(|()| span));
        match (&tree, span) {
            (Ok(_), Ok(span)) => assert_eq!(span, text.trim_matches([' ', '\t', '\n', '\r'])),
            (Err(want), Err(got)) => assert_eq!(&got.to_string(), want, "skip {text:?}"),
            (want, got) => panic!("skip disagrees on {text:?}: {want:?} vs {got:?}"),
        }
        *if tree.is_ok() { &mut accepted } else { &mut rejected } += 1;
    }
    assert!(accepted > 5_000 && rejected > 5_000, "{accepted} accepted, {rejected} rejected");
}
