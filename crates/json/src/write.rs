//! Compact JSON text written straight from values: the token primitives
//! under [`Json::compact`] and [`compact`](crate::compact), and a
//! [`Writer`] that renders a document without building its tree first.
//! Nothing here allocates per token: unescaped string runs are copied
//! whole, integers format on the stack and floats format into the output.

use crate::Json;
use crate::Num;
use std::fmt::Write as _;

/// A value a [`Writer`] can put in a document; `write_json` appends its
/// compact rendering, the bytes [`Json::compact`] gives the same value.
pub trait WriteJson {
    /// Appends the compact rendering to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl WriteJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl WriteJson for u64 {
    fn write_json(&self, out: &mut String) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut v = *self;
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
    }
}

impl WriteJson for u32 {
    fn write_json(&self, out: &mut String) {
        u64::from(*self).write_json(out);
    }
}

impl WriteJson for usize {
    fn write_json(&self, out: &mut String) {
        (*self as u64).write_json(out);
    }
}

impl WriteJson for i64 {
    fn write_json(&self, out: &mut String) {
        if *self < 0 {
            out.push('-');
        }
        self.unsigned_abs().write_json(out);
    }
}

impl WriteJson for f64 {
    fn write_json(&self, out: &mut String) {
        if !self.is_finite() {
            // JSON has no Inf/NaN; serde_json emits null.
            out.push_str("null");
            return;
        }
        // Keep floats round-trippable; force a decimal point so they
        // re-parse as floats.
        let start = out.len();
        write!(out, "{self}").expect("writing to a String cannot fail");
        if !out.as_bytes()[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            out.push_str(".0");
        }
    }
}

impl WriteJson for Num {
    fn write_json(&self, out: &mut String) {
        match *self {
            Num::U(v) => v.write_json(out),
            Num::I(v) => v.write_json(out),
            Num::F(v) => v.write_json(out),
        }
    }
}

impl WriteJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl WriteJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl WriteJson for Json {
    fn write_json(&self, out: &mut String) {
        self.write_compact(out);
    }
}

/// The index of the first byte a JSON string cannot hold raw — `"`, `\`
/// or a control byte below 0x20 — found eight bytes per step.
///
/// Each word goes through the classic SWAR masks: `(w - 0x01..) & !w &
/// 0x80..` flags the zero bytes of `w` (so of `w ^ '"'..` and `w ^
/// '\\'..`), and `(w - 0x20..) & !w & 0x80..` the bytes below 0x20. A
/// borrow can flag a byte that is no hit, but only above a true hit, so
/// the lowest flag — the first byte in memory order, the words being
/// little-endian — is exact. The tail shorter than a word goes bytewise.
pub(crate) fn first_escape(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = ONES << 7;
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS;
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let flags = below(w, 0x20)
            | below(w ^ (ONES * u64::from(b'"')), 1)
            | below(w ^ (ONES * u64::from(b'\\')), 1);
        if flags != 0 {
            return Some(8 * i + flags.trailing_zeros() as usize / 8);
        }
    }
    let tail = bytes.len() - words.remainder().len();
    words.remainder().iter().position(|&b| b < 0x20 || b == b'"' || b == b'\\').map(|n| tail + n)
}

/// Appends `s` as a JSON string literal. Every escaped character is
/// ASCII, so the text between two of them is copied as one run.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push('"');
    let mut run = 0;
    while let Some(n) = first_escape(&bytes[run..]) {
        let at = run + n;
        out.push_str(&s[run..at]);
        run = at + 1;
        let b = bytes[at];
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes one compact JSON document front to back, with no tree: the
/// hot renderers' alternative to `Json::object().with(..)` followed by
/// [`Json::compact`], producing the same bytes.
///
/// Containers take a closure that writes their contents, so brackets
/// always balance; inside an object every value follows a
/// [`key`](Writer::key) (or comes as a [`field`](Writer::field)).
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// A value was just completed, so the next one needs a `,`.
    comma: bool,
}

impl Writer {
    /// A writer whose buffer starts at `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer { out: String::with_capacity(capacity), comma: false }
    }

    fn separate(&mut self) {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
    }

    /// Writes the next value.
    pub fn value(&mut self, value: impl WriteJson) -> &mut Self {
        self.separate();
        value.write_json(&mut self.out);
        self
    }

    /// Writes a member key of the open object; the value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        write_escaped(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one member of the open object.
    pub fn field(&mut self, key: &str, value: impl WriteJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes the next value as an object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'{', b'}', members)
    }

    /// Writes the next value as an array with one element per item,
    /// each written by `element`.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut element: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.container(b'[', b']', |w| items.into_iter().for_each(|item| element(w, item)))
    }

    fn container(&mut self, open: u8, close: u8, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(char::from(open));
        self.comma = false;
        body(self);
        self.out.push(char::from(close));
        self.comma = true;
        self
    }

    /// The text written.
    pub fn finish(self) -> Compact {
        Compact(self.out)
    }
}

/// Compact JSON text a [`Writer`] produced (well-formed by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compact(String);

impl Compact {
    /// The text. Named like [`Json::compact`], so a caller reads the same
    /// whether it was handed a tree or a written document.
    pub fn compact(self) -> String {
        self.0
    }

    /// The document as a tree, for callers that want one (pretty
    /// printing, field access).
    pub fn tree(&self) -> Json {
        Json::parse(&self.0).expect("a Writer writes well-formed JSON")
    }
}
