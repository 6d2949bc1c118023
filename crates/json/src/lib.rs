//! A minimal JSON document model with a parser and pretty-printer.
//!
//! The build environment has no network access, so this crate replaces
//! `serde_json` for the few places the workspace (de)serializes JSON:
//! profile snapshots on disk and the CLI's machine-readable output.
//! Object entries preserve insertion order, so rendered output is stable
//! across runs; numbers keep full `u64`/`i64` precision instead of going
//! through `f64`.

use std::borrow::Cow;
use std::fmt;

mod write;

use write::{first_escape, write_escaped};
pub use write::{Compact, WriteJson, Writer};

/// A JSON number preserving integer precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// An unsigned integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A float.
    F(f64),
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

/// A parse or access error, with enough context to locate the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// A caller-supplied error (for domain validation layered on top of
    /// the document model, e.g. a malformed map key).
    pub fn from_msg(msg: impl Into<String>) -> Self {
        Self::new(msg)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// The crate's result type.
pub type Result<T> = std::result::Result<T, JsonError>;

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(Num::U(v))
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(Num::U(v.into()))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(Num::U(v as u64))
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Json::Num(Num::U(v as u64))
        } else {
            Json::Num(Num::I(v))
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(Num::F(v))
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects: builder
    /// misuse is a programming error, not a data error).
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(entries) => entries.push((key.to_string(), value.into())),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object field.
    ///
    /// # Errors
    ///
    /// When `self` is not an object or the field is missing.
    pub fn field(&self, key: &str) -> Result<&Json> {
        self.get(key).ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The value as `u64`.
    ///
    /// # Errors
    ///
    /// When the value is not an unsigned integer.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            Json::Num(Num::U(v)) => Ok(*v),
            _ => Err(JsonError::new(format!("expected unsigned integer, got {self}"))),
        }
    }

    /// The value as `u32`.
    ///
    /// # Errors
    ///
    /// When the value is not an unsigned integer fitting `u32`.
    pub fn as_u32(&self) -> Result<u32> {
        u32::try_from(self.as_u64()?).map_err(|_| JsonError::new("integer exceeds u32"))
    }

    /// The value as `f64` (integers widen).
    ///
    /// # Errors
    ///
    /// When the value is not a number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(Num::U(v)) => Ok(*v as f64),
            Json::Num(Num::I(v)) => Ok(*v as f64),
            Json::Num(Num::F(v)) => Ok(*v),
            _ => Err(JsonError::new(format!("expected number, got {self}"))),
        }
    }

    /// The value as `&str`.
    ///
    /// # Errors
    ///
    /// When the value is not a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(JsonError::new(format!("expected string, got {self}"))),
        }
    }

    /// The value as `bool`.
    ///
    /// # Errors
    ///
    /// When the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::new(format!("expected bool, got {self}"))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// When the value is not an array.
    pub fn as_array(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(JsonError::new(format!("expected array, got {self}"))),
        }
    }

    /// The value's object entries.
    ///
    /// # Errors
    ///
    /// When the value is not an object.
    pub fn entries(&self) -> Result<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Ok(entries),
            _ => Err(JsonError::new(format!("expected object, got {self}"))),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// On malformed input (with byte offset context).
    pub fn parse(text: &str) -> Result<Json> {
        let mut r = Reader::new(text);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }

    /// Renders with two-space indentation and a trailing newline-free
    /// final line (like `serde_json::to_string_pretty`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Renders on one line with no interior whitespace (like
    /// `serde_json::to_string`). Because strings escape every control
    /// character, the output never contains a raw newline — which is what
    /// makes it usable as one frame of a newline-delimited wire protocol.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Num(n) => n.write_json(out),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Num(n) => n.write_json(out),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

/// Maximum container nesting the parser accepts. Profiles and CLI
/// output nest a handful of levels; the cap turns hostile or corrupt
/// deeply-nested input into an `Err` instead of a stack overflow.
const MAX_DEPTH: u32 = 128;

/// A pull reader over JSON text: the one lexer under [`Json::parse`],
/// [`Reader::skip`] and [`compact`], so all three accept the same
/// documents and report the same errors at the same byte offsets (every
/// `Result` below is that error).
///
/// A decoder that does not want the tree walks a document with
/// [`open`](Reader::open) / [`key`](Reader::key) /
/// [`element`](Reader::element) and takes each member as a tree
/// ([`value`](Reader::value)), as its validated text
/// ([`skip`](Reader::skip), which allocates nothing) or, the common
/// case in a counter table, as a number ([`unsigned`](Reader::unsigned)).
///
/// Between [`mark`](Reader::mark) and [`canonical`](Reader::canonical)
/// the reader also records whether every token it consumed is already
/// its own compact rendering — how a caller learns, in the pass it makes
/// anyway, that [`compact`] of that span would return the span itself.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: u32,
    /// The container just opened has not yielded a member yet.
    fresh: bool,
    /// A span is marked and nothing in it so far differs from its compact
    /// rendering (always `false` outside a span).
    clean: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0, depth: 0, fresh: false, clean: false }
    }

    /// Opens a span at the next unread byte (whitespace included) for
    /// [`canonical`](Reader::canonical) to judge.
    pub fn mark(&mut self) {
        self.clean = true;
    }

    /// Closes the span [`mark`](Reader::mark) opened: whether the text
    /// consumed since then is byte for byte its [`compact`] rendering —
    /// no whitespace, no escape `compact` would not write, no number
    /// spelled other than `compact` spells it.
    pub fn canonical(&mut self) -> bool {
        std::mem::take(&mut self.clean)
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let ws = |r: &Self| matches!(r.peek(), Some(b' ' | b'\t' | b'\n' | b'\r'));
        if ws(self) {
            self.clean = false;
            while ws(self) {
                self.pos += 1;
            }
        }
    }

    /// Byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The digits of the next number when digits are all it is (no sign,
    /// fraction or exponent); nothing is consumed.
    fn digits(&self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut end = self.pos;
        while bytes.get(end).is_some_and(u8::is_ascii_digit) {
            end += 1;
        }
        let plain = end > self.pos && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E'));
        plain.then(|| &self.text[self.pos..end])
    }

    /// Consumes the next value when it is a plain unsigned integer that
    /// fits `u64`; `None` (nothing consumed) for everything else.
    pub fn unsigned(&mut self) -> Option<u64> {
        self.skip_ws();
        let bytes = &self.text.as_bytes()[self.pos..];
        let (mut v, mut len) = (0u64, 0);
        while let Some(&b) = bytes.get(len).filter(|b| b.is_ascii_digit()) {
            v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            len += 1;
        }
        if len == 0 || matches!(bytes.get(len), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        if len > 1 && bytes[0] == b'0' {
            self.clean = false;
        }
        self.pos += len;
        Some(v)
    }

    /// Consumes the next value, in one step, when it is spelled exactly as
    /// [`compact`] writes an array of `N` `u64`s: `[`, `N` digit runs
    /// with no leading zero and no overflow separated by `,`, then `]`,
    /// with no whitespace anywhere (not even before the `[`). `None`,
    /// nothing consumed, for anything else — a caller then walks the
    /// value token by token, which is where errors are worded. Such a
    /// spelling is its own compact rendering, so it leaves the
    /// [`canonical`](Reader::canonical) verdict as it was.
    pub fn counters<const N: usize>(&mut self) -> Option<[u64; N]> {
        let bytes = self.text.as_bytes();
        if self.depth >= MAX_DEPTH || bytes.get(self.pos) != Some(&b'[') {
            return None;
        }
        let (mut out, mut at) = ([0u64; N], self.pos + 1);
        for (i, slot) in out.iter_mut().enumerate() {
            if i > 0 {
                if bytes.get(at) != Some(&b',') {
                    return None;
                }
                at += 1;
            }
            let start = at;
            while let Some(&b) = bytes.get(at).filter(|b| b.is_ascii_digit()) {
                *slot = slot.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
                at += 1;
            }
            if at == start || (bytes[start] == b'0' && at - start > 1) {
                return None;
            }
        }
        if bytes.get(at) != Some(&b']') {
            return None;
        }
        self.pos = at + 1;
        Some(out)
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Enters the next value when it is the container that opens with
    /// `bracket` (`{` or `[`); `Ok(false)`, nothing consumed, when it is
    /// anything else.
    pub fn open(&mut self, bracket: u8) -> Result<bool> {
        self.skip_ws();
        if self.peek() != Some(bracket) {
            return Ok(false);
        }
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.fresh = true;
        Ok(true)
    }

    /// Steps to the next member of the open container: `Ok(false)` once
    /// its closing `close` bracket is consumed.
    fn step(&mut self, close: u8) -> Result<bool> {
        let fresh = std::mem::take(&mut self.fresh);
        self.skip_ws();
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            Some(b',') if !fresh => self.pos += 1,
            _ if fresh => {}
            _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
        }
        self.skip_ws();
        Ok(true)
    }

    /// The next member key of the open object (borrowed unless it holds
    /// escapes), or `None` once the object is closed.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>> {
        if !self.step(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Whether the open array has another element (its closing bracket is
    /// consumed when not).
    pub fn element(&mut self) -> Result<bool> {
        self.step(b']')
    }

    /// Requires that only whitespace remains.
    pub fn finish(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }

    /// Parses the next value into a tree.
    pub fn value(&mut self) -> Result<Json> {
        if self.open(b'[')? {
            let mut items = Vec::new();
            while self.element()? {
                items.push(self.value()?);
            }
            Ok(Json::Arr(items))
        } else if self.open(b'{')? {
            let mut entries = Vec::new();
            while let Some(key) = self.key()? {
                entries.push((key.into_owned(), self.value()?));
            }
            Ok(Json::Obj(entries))
        } else if self.peek() == Some(b'"') {
            Ok(Json::Str(self.string()?.into_owned()))
        } else {
            self.scalar()
        }
    }

    /// Validates the next value without building it and returns its
    /// text.
    pub fn skip(&mut self) -> Result<&'a str> {
        self.skip_ws();
        let start = self.pos;
        self.walk(&mut None)?;
        Ok(&self.text[start..self.pos])
    }

    /// Walks the next value, writing its compact rendering when asked.
    fn walk(&mut self, out: &mut Option<&mut String>) -> Result<()> {
        fn put(out: &mut Option<&mut String>, s: &str) {
            if let Some(out) = out {
                out.push_str(s);
            }
        }
        let mut sep = "";
        if self.open(b'[')? {
            put(out, "[");
            while self.element()? {
                put(out, std::mem::replace(&mut sep, ","));
                self.walk(out)?;
            }
            put(out, "]");
        } else if self.open(b'{')? {
            put(out, "{");
            while let Some(key) = self.key()? {
                if let Some(out) = out {
                    out.push_str(std::mem::replace(&mut sep, ","));
                    write_escaped(out, &key);
                    out.push(':');
                }
                self.walk(out)?;
            }
            put(out, "}");
        } else if self.peek() == Some(b'"') {
            let s = self.string()?;
            if let Some(out) = out {
                write_escaped(out, &s);
            }
        } else if let Some(digits) =
            self.digits().filter(|d| d.len() < 20 && (d.len() == 1 || !d.starts_with('0')))
        {
            // A canonical unsigned integer is its own rendering.
            self.pos += digits.len();
            put(out, digits);
        } else {
            let v = self.scalar()?;
            if let Some(out) = out {
                v.write_compact(out);
            }
        }
        Ok(())
    }

    /// A literal or a number.
    fn scalar(&mut self) -> Result<Json> {
        let literal = |r: &mut Self, word: &str, value: Json| {
            if r.text.as_bytes()[r.pos..].starts_with(word.as_bytes()) {
                r.pos += word.len();
                Ok(value)
            } else {
                Err(r.err("invalid literal"))
            }
        };
        match self.peek() {
            Some(b'n') => literal(self, "null", Json::Null),
            Some(b't') => literal(self, "true", Json::Bool(true)),
            Some(b'f') => literal(self, "false", Json::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            let run = self.pos;
            let rest = &self.text.as_bytes()[run..];
            self.pos += first_escape(rest).unwrap_or(rest.len());
            // Up to its first escape a string is its own text (a `str`:
            // the UTF-8 needs no re-checking), and most have none.
            match &mut out {
                Cow::Borrowed("") => out = Cow::Borrowed(&self.text[run..self.pos]),
                out => out.to_mut().push_str(&self.text[run..self.pos]),
            }
            let Some(b) = self.peek() else { return Err(self.err("unterminated string")) };
            if b < 0x20 {
                return Err(self.err("control character in string"));
            }
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            // `compact` writes `\"`, `\\`, `\n`, `\r`, `\t` and `\u00xx`
            // (lower-case) for the other control characters; any other
            // escape is a spelling it would not reproduce.
            let (c, canonical) = match esc {
                b'"' => ('"', true),
                b'\\' => ('\\', true),
                b'/' => ('/', false),
                b'n' => ('\n', true),
                b'r' => ('\r', true),
                b't' => ('\t', true),
                b'b' => ('\u{8}', false),
                b'f' => ('\u{c}', false),
                b'u' => {
                    let hex = self
                        .text
                        .as_bytes()
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed by our own
                    // output (which never escapes above 0x1F).
                    let c = char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?;
                    let short = matches!(c, '\n' | '\r' | '\t');
                    let lower = hex.bytes().all(|b| !b.is_ascii_uppercase());
                    (c, code < 0x20 && !short && lower && hex.starts_with("00"))
                }
                _ => return Err(self.err("unknown escape")),
            };
            self.clean &= canonical;
            out.to_mut().push(c);
        }
    }

    fn number(&mut self) -> Result<Json> {
        // Counters, most of a profile's numbers, in one step.
        if let Some(v) = self.unsigned() {
            return Ok(Json::Num(Num::U(v)));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        let integer = (!is_float)
            .then(|| text.parse().map(Num::U).or_else(|_| text.parse().map(Num::I)).ok())
            .flatten();
        let num = match integer {
            Some(num) => num,
            None => Num::F(text.parse().map_err(|_| self.err("invalid number"))?),
        };
        if self.clean {
            self.clean = renders_as(num, text);
        }
        Ok(Json::Num(num))
    }
}

/// Whether `compact` writes `num` as exactly `text`, the number's
/// spelling in the input. A float's rendering is compared as `write!`
/// produces it, so the check allocates nothing.
fn renders_as(num: Num, text: &str) -> bool {
    /// What remains of the spelling once a rendering prefix matched it.
    struct Rest<'a>(&'a str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    match num {
        // Digits only (a `-` fails `u64`); `0` aside, no leading zero.
        Num::U(_) => text == "0" || !text.starts_with('0'),
        // `-` and digits with no leading zero, which also rules out `-0`.
        Num::I(_) => !text[1..].starts_with('0'),
        Num::F(v) => {
            use fmt::Write as _;
            let mut rest = Rest(text);
            if !v.is_finite() || write!(rest, "{v}").is_err() {
                return false;
            }
            let shown = &text[..text.len() - rest.0.len()];
            let pointed = shown.contains(['.', 'e', 'E']);
            rest.0 == if pointed { "" } else { ".0" }
        }
    }
}

/// The compact rendering of one JSON value's text, byte-identical to
/// `Json::parse(text)?.compact()` without building the tree — how the
/// daemon canonicalises an uploaded document for content addressing. It
/// fails exactly where, and with what, [`Json::parse`] would.
pub fn compact(text: &str) -> Result<String> {
    let mut out = String::with_capacity(text.len());
    let mut r = Reader::new(text);
    r.walk(&mut Some(&mut out))?;
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let doc = Json::object()
            .with("name", "axpy")
            .with("cycles", 18_446_744_073_709_551_615u64)
            .with("ratio", 0.5)
            .with("ok", true)
            .with("tags", vec!["a", "b"]);
        assert_eq!(doc.field("name").unwrap().as_str().unwrap(), "axpy");
        assert_eq!(doc.field("cycles").unwrap().as_u64().unwrap(), u64::MAX);
        assert_eq!(doc.field("ratio").unwrap().as_f64().unwrap(), 0.5);
        assert!(doc.field("ok").unwrap().as_bool().unwrap());
        assert_eq!(doc.field("tags").unwrap().as_array().unwrap().len(), 2);
        assert!(doc.field("missing").is_err());
    }

    #[test]
    fn round_trip_preserves_structure_and_precision() {
        let doc = Json::object()
            .with("big", u64::MAX)
            .with("neg", -42i64)
            .with("float", 1.25)
            .with("text", "line\n\"quoted\" \\ tab\t µ")
            .with("empty_arr", Json::Arr(vec![]))
            .with("empty_obj", Json::object())
            .with("nested", Json::object().with("k", vec![1u64, 2, 3]));
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5e1 , \"\\u0041\" ] } ").unwrap();
        let arr = v.field("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64().unwrap(), 1);
        assert_eq!(arr[1].as_f64().unwrap(), -25.0);
        assert_eq!(arr[2].as_str().unwrap(), "A");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "{} junk"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let doc = Json::object()
            .with("text", "line\nbreak")
            .with("xs", vec![1u64, 2])
            .with("nested", Json::object().with("f", 0.5));
        let line = doc.compact();
        assert!(!line.contains('\n'), "compact output must be newline-free: {line:?}");
        assert_eq!(line, r#"{"text":"line\nbreak","xs":[1,2],"nested":{"f":0.5}}"#);
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn depth_limit_is_an_error_not_a_crash() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err(), "over-deep input rejected cleanly");
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok(), "reasonable nesting accepted");
    }
}
