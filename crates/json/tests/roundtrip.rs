//! Property tests for `gpa-json` round-tripping (vendored proptest
//! shim): string escaping, integer-precision boundaries, the parser's
//! depth limit, the reader's canonical verdict, and the writer's token
//! primitives against the implementations they replaced.

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

/// RFC 8259 §7: a raw U+0000–U+001F inside a string is malformed. The
/// one lexer says so for the tree, `skip` and `compact` alike, at the
/// control character's byte — so no content address can differ from the
/// text it was taken from by a re-escaped tab.
#[test]
fn a_raw_control_character_in_a_string_is_malformed() {
    for c in (0u8..0x20).map(char::from) {
        for text in [format!("\"a{c}b\""), format!("{{\"k{c}\":1}}")] {
            let at = text.find(c).unwrap();
            let want = format!("json: control character in string at byte {at}");
            assert_eq!(Json::parse(&text).unwrap_err().to_string(), want, "{text:?}");
            assert_eq!(gpa_json::compact(&text).unwrap_err().to_string(), want, "{text:?}");
            let mut reader = gpa_json::Reader::new(&text);
            assert_eq!(reader.skip().unwrap_err().to_string(), want, "{text:?}");
        }
    }
    // Escaped, every one of them is a string; unescaped whitespace
    // between tokens is still whitespace.
    assert_eq!(Json::parse("\"a\\tb\"").unwrap(), Json::from("a\tb"));
    assert_eq!(Json::parse("\t[\n1\r]").unwrap(), Json::from(vec![1u64]));
}

/// The reader's verdict on `text` as a whole: `Some(canonical)` when it
/// accepts the text, read once as validated text and once as a tree
/// (both passes must agree).
fn canonical_verdict(text: &str) -> Option<bool> {
    let verdicts: Vec<Option<bool>> = [false, true]
        .into_iter()
        .map(|tree| {
            let mut reader = gpa_json::Reader::new(text);
            reader.mark();
            let read = if tree { reader.value().map(drop) } else { reader.skip().map(drop) };
            read.ok()?;
            let canonical = reader.canonical() && reader.offset() == text.len();
            reader.finish().ok()?;
            Some(canonical)
        })
        .collect();
    assert_eq!(verdicts[0], verdicts[1], "skip and value disagree on {text:?}");
    verdicts[0]
}

/// A document spelled canonically except where a token draws one of its
/// other spellings (whitespace, a leading-zero or 20-digit counter,
/// `\/` and `\u0041` escapes, `1.50`, `1e2`, `-0`, ...). The reader's
/// verdict must be "canonical" exactly when `compact(text) == text`,
/// which by construction is exactly when nothing was re-spelled.
#[test]
fn the_canonical_verdict_holds_exactly_when_compact_is_the_identity() {
    /// `(canonical spelling, other spellings of the same value)`.
    #[rustfmt::skip]
    const SCALARS: &[(&str, &[&str])] = &[
        ("null", &[]), ("true", &[]), ("false", &[]),
        ("0", &["-0", "00"]), ("7", &["007", "07"]), ("-3", &["-03"]),
        ("1.5", &["1.50", "15e-1", "1.5E0"]), ("100.0", &["1e2", "1E2", "100.00"]),
        ("0.1", &["0.10", "1e-1"]), ("-0.0", &["-0.00", "-0e0"]),
        ("12345678901234567890", &["012345678901234567890"]),
        ("18446744073709551615", &["00000000000000000000018446744073709551615"]),
        ("18446744073709552000.0", &["18446744073709551616"]),
        ("-9223372036854775808", &["-09223372036854775808"]),
        ("\"\"", &[]), ("\"A\"", &["\"\\u0041\""]), ("\"a/b\"", &["\"a\\/b\""]),
        ("\"\\n\\\"\\\\\"", &["\"\\u000a\\\"\\\\\"", "\"\\n\\u0022\\\\\""]),
        ("\"\\u0008\"", &["\"\\b\""]), ("\"\\u000c\"", &["\"\\f\"", "\"\\u000C\""]),
        ("\"\\u001f\"", &["\"\\u001F\""]), ("\"é→😀\"", &["\"\\u00e9→😀\""]),
    ];
    const WS: &[&str] = &[" ", "\n", "\t", "\r\n "];
    struct Doc<'g> {
        g: &'g mut Gen,
        respelled: bool,
    }
    impl Doc<'_> {
        fn pick<'s>(&mut self, canonical: &'s str, others: &[&'s str]) -> &'s str {
            if others.is_empty() || !self.g.next().is_multiple_of(8) {
                return canonical;
            }
            self.respelled = true;
            others[(self.g.next() as usize) % others.len()]
        }
        fn ws(&mut self) -> &'static str {
            self.pick("", WS)
        }
        fn value(&mut self, depth: u32) -> String {
            let members = self.g.next() % 4;
            match self.g.next() % if depth > 2 { 1 } else { 3 } {
                0 => {
                    let (canonical, others) = SCALARS[(self.g.next() as usize) % SCALARS.len()];
                    self.pick(canonical, others).to_string()
                }
                1 => {
                    let mut text = format!("[{}", self.ws());
                    for i in 0..members {
                        let sep = if i > 0 {
                            format!("{},{}", self.ws(), self.ws())
                        } else {
                            String::new()
                        };
                        text += &(sep + &self.value(depth + 1));
                    }
                    text + self.ws() + "]"
                }
                _ => {
                    let mut text = format!("{{{}", self.ws());
                    for i in 0..members {
                        let sep = if i > 0 {
                            format!("{},{}", self.ws(), self.ws())
                        } else {
                            String::new()
                        };
                        let key = self.pick("\"k/\\t\"", &["\"k\\/\\t\"", "\"k/\\u0009\""]);
                        let colon = format!("{}:{}", self.ws(), self.ws());
                        text += &(sep + key + &colon + &self.value(depth + 1));
                    }
                    text + self.ws() + "}"
                }
            }
        }
    }
    let mut g = Gen(28);
    let (mut canonical, mut respelled) = (0, 0);
    for _ in 0..20_000 {
        let mut doc = Doc { g: &mut g, respelled: false };
        let lead = doc.ws();
        let text = lead.to_string() + &doc.value(0);
        let verdict = canonical_verdict(&text).unwrap_or_else(|| panic!("rejected {text:?}"));
        let identity = gpa_json::compact(&text).unwrap() == text;
        assert_eq!(verdict, identity, "verdict vs compact on {text:?}");
        assert_eq!(verdict, !doc.respelled, "verdict vs construction on {text:?}");
        *if verdict { &mut canonical } else { &mut respelled } += 1;
    }
    assert!(canonical > 5_000 && respelled > 5_000, "{canonical} canonical, {respelled} respelled");
    // Counters read through `unsigned` judge their own spelling too.
    for (text, clean) in [("[7,10]", true), ("[7,010]", false), ("[7, 10]", false)] {
        let mut reader = gpa_json::Reader::new(text);
        reader.mark();
        assert!(reader.open(b'[').unwrap());
        while reader.element().unwrap() {
            assert!(reader.unsigned().is_some(), "{text}");
        }
        assert_eq!(reader.canonical(), clean, "{text}");
    }
    // Outside a marked span nothing is judged.
    let mut reader = gpa_json::Reader::new("1.50");
    reader.skip().unwrap();
    assert!(!reader.canonical());
}

/// `unsigned` accepts exactly the plain digit runs that fit `u64` and
/// consumes nothing otherwise.
#[test]
fn counters_are_read_in_one_step_with_the_old_accept_set() {
    for (text, want) in [
        ("0", Some(0)),
        ("007", Some(7)),
        ("18446744073709551615", Some(u64::MAX)),
        ("000000000000000000000018446744073709551615", Some(u64::MAX)),
        ("18446744073709551616", None),
        ("99999999999999999999", None),
        ("1.5", None),
        ("1e2", None),
        ("1E2", None),
        ("-1", None),
        ("\"1\"", None),
        ("", None),
    ] {
        let mut reader = gpa_json::Reader::new(text);
        assert_eq!(reader.unsigned(), want, "{text:?}");
        let consumed = if want.is_some() { text.len() } else { 0 };
        assert_eq!(reader.offset(), consumed, "{text:?}");
    }
}

/// The string writer before it learned to copy runs: one `push` per
/// character — the oracle for the byte-run version.
fn escaped_char_by_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The number writer before it formatted on the stack: `to_string` for
/// integers, `format!` plus the `.0` rule for floats, `null` for the
/// values JSON cannot carry.
fn number_by_format(n: Num) -> String {
    match n {
        Num::U(v) => v.to_string(),
        Num::I(v) => v.to_string(),
        Num::F(v) if v.is_finite() => {
            let s = format!("{v}");
            if s.contains(['.', 'e', 'E']) {
                s
            } else {
                s + ".0"
            }
        }
        Num::F(_) => "null".to_string(),
    }
}

#[test]
fn the_writer_primitives_match_the_implementations_they_replace() {
    let every_ascii: String = (0u8..0x80).map(char::from).collect();
    let mut strings: Vec<String> = (0u8..0x80).map(|b| char::from(b).to_string()).collect();
    strings.extend([every_ascii.clone(), format!("é{every_ascii}日本😀\u{7f}\u{80}\u{2028}x")]);
    let mut g = Gen(3);
    strings.extend((0..2_000).map(|i| g.string(i % 40)));
    for s in &strings {
        assert_eq!(Json::from(s.as_str()).compact(), escaped_char_by_char(s), "{s:?}");
    }
    let numbers = [
        Num::U(0),
        Num::U(9),
        Num::U(10),
        Num::U(u64::MAX),
        Num::I(-1),
        Num::I(i64::MIN),
        Num::F(-0.0),
        Num::F(0.1 + 0.2),
        Num::F(1e21),
        Num::F(5e-324),
        Num::F(f64::MAX),
        Num::F(1.0),
        Num::F(f64::NAN),
        Num::F(f64::INFINITY),
        Num::F(f64::NEG_INFINITY),
    ];
    for n in numbers {
        assert_eq!(Json::Num(n).compact(), number_by_format(n), "{n:?}");
    }
    for n in [Num::F(f64::NAN), Num::F(f64::INFINITY), Num::F(f64::NEG_INFINITY)] {
        assert_eq!(Json::Num(n).compact(), "null");
    }
}

/// A document written by `Writer` is the tree's compact rendering of the
/// same document, byte for byte.
#[test]
fn the_writer_writes_what_the_tree_compacts_to() {
    let tree = Json::object()
        .with("s", "a\"b\n")
        .with("u", 7u64)
        .with("i", -3i64)
        .with("f", 0.5)
        .with("whole", 2.0)
        .with("none", Json::Null)
        .with("xs", vec![1u64, 2])
        .with("empty", Json::Arr(vec![]))
        .with("nested", Json::object().with("b", true).with("o", Json::object()));
    let mut w = gpa_json::Writer::default();
    w.object(|w| {
        w.field("s", "a\"b\n").field("u", 7u64).field("i", -3i64).field("f", 0.5);
        w.field("whole", 2.0).field("none", None::<u64>);
        w.key("xs").array([1u64, 2], |w, x| {
            w.value(x);
        });
        w.key("empty").array(Vec::<u64>::new(), |w, x| {
            w.value(x);
        });
        w.key("nested").object(|w| {
            w.field("b", true).key("o").object(|_| {});
        });
    });
    let written = w.finish();
    assert_eq!(written.tree(), tree);
    assert_eq!(written.compact(), tree.compact());
}
