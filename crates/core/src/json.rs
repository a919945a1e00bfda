//! The workspace's one JSON writer and one JSON reader.
//!
//! Every JSON byte the workspace emits — fleet, lint, eye/MC and load
//! reports, daemon responses, bench records — is written through
//! [`object`], and every JSON document it reads back goes through
//! [`parse`]. The writer owns the encoding decisions:
//!
//! * strings are quoted and escaped (`"`, `\`, `\n`, `\t`, `\r`, other
//!   control characters as `\u00XX`; everything else verbatim);
//! * a finite float prints in Rust's shortest round-trip `{:e}` form and a
//!   non-finite one as `null`, so a NaN never produces invalid JSON;
//! * `None` prints as `null`;
//! * separators follow the [`Layout`] chosen where each object or array is
//!   opened.
//!
//! ```
//! use macromodel::json::{self, Layout};
//!
//! let text = json::object(Layout::Compact, |o| {
//!     o.field("name", "md\"1").field("rms", 0.25).field("limit", None::<f64>);
//!     o.array("codes", Layout::Compact, |a| {
//!         a.push("M001");
//!     });
//! });
//! assert_eq!(text, r#"{"name":"md\"1","rms":2.5e-1,"limit":null,"codes":["M001"]}"#);
//! let value = json::parse(&text).unwrap();
//! assert_eq!(value.get("name").and_then(|v| v.as_str()), Some("md\"1"));
//! assert_eq!(value.get("rms").and_then(|v| v.as_f64()), Some(0.25));
//! ```

use std::fmt::Write as _;

/// How an object or array places its separators. Each emitter picks the
/// layout its consumers expect when it opens the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"k":v,"k2":v2}` and `[a,b]`.
    Compact,
    /// `{"k": v, "k2": v2}` and `[a, b]`.
    Spaced,
    /// One member per line, indented two spaces per nesting level, with
    /// `": "` after each key; an empty container stays `{}` / `[]`.
    Lines,
}

/// A scalar the writer encodes in place.
pub trait Encode {
    /// Appends the JSON encoding of `self` to `out`.
    fn encode(&self, out: &mut String);
}

impl Encode for str {
    fn encode(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Encode for String {
    fn encode(&self, out: &mut String) {
        self.as_str().encode(out);
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut String) {
        if self.is_finite() {
            write!(out, "{self:e}").expect("writing to a String cannot fail");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! encode_display {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut String) {
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
        }
    )*};
}
encode_display!(bool, u32, u64, usize);

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }
}

/// Text that already is JSON (a nested block another emitter produced, or
/// a payload received verbatim), embedded as is.
pub struct Raw<S: AsRef<str>>(pub S);

impl<S: AsRef<str>> Encode for Raw<S> {
    fn encode(&self, out: &mut String) {
        out.push_str(self.0.as_ref());
    }
}

/// Writes one JSON object laid out as `layout` and returns its text.
pub fn object(layout: Layout, f: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    Object::write(&mut out, layout, 0, f);
    out
}

/// The separator state of one open object or array.
struct Members<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Indent of the line the container opened on (`Lines` only).
    indent: usize,
    empty: bool,
}

impl<'a> Members<'a> {
    fn open(out: &'a mut String, bracket: char, layout: Layout, indent: usize) -> Self {
        out.push(bracket);
        Members {
            out,
            layout,
            indent,
            empty: true,
        }
    }

    /// Places the separator before the next member.
    fn next(&mut self) {
        match self.layout {
            Layout::Compact if !self.empty => self.out.push(','),
            Layout::Spaced if !self.empty => self.out.push_str(", "),
            Layout::Lines => {
                if !self.empty {
                    self.out.push(',');
                }
                self.newline(self.indent + 2);
            }
            _ => {}
        }
        self.empty = false;
    }

    fn newline(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
    }

    /// Indent of a container opened as a member of this one.
    fn child_indent(&self) -> usize {
        match self.layout {
            Layout::Lines => self.indent + 2,
            _ => self.indent,
        }
    }

    fn close(mut self, bracket: char) {
        if self.layout == Layout::Lines && !self.empty {
            self.newline(self.indent);
        }
        self.out.push(bracket);
    }
}

/// An open JSON object; members are written as key/value pairs.
pub struct Object<'a>(Members<'a>);

impl Object<'_> {
    fn write(out: &mut String, layout: Layout, indent: usize, f: impl FnOnce(&mut Object<'_>)) {
        let mut o = Object(Members::open(out, '{', layout, indent));
        f(&mut o);
        o.0.close('}');
    }

    fn key(&mut self, key: &str) {
        self.0.next();
        key.encode(self.0.out);
        self.0.out.push_str(match self.0.layout {
            Layout::Compact => ":",
            Layout::Spaced | Layout::Lines => ": ",
        });
    }

    /// Writes `"key": value`.
    pub fn field(&mut self, key: &str, value: impl Encode) -> &mut Self {
        self.key(key);
        value.encode(self.0.out);
        self
    }

    /// Writes `"key": {…}`, the nested object laid out as `layout`.
    pub fn object(
        &mut self,
        key: &str,
        layout: Layout,
        f: impl FnOnce(&mut Object<'_>),
    ) -> &mut Self {
        self.key(key);
        let indent = self.0.child_indent();
        Object::write(self.0.out, layout, indent, f);
        self
    }

    /// Writes `"key": […]`, the nested array laid out as `layout`.
    pub fn array(
        &mut self,
        key: &str,
        layout: Layout,
        f: impl FnOnce(&mut Array<'_>),
    ) -> &mut Self {
        self.key(key);
        let indent = self.0.child_indent();
        let mut a = Array(Members::open(self.0.out, '[', layout, indent));
        f(&mut a);
        a.0.close(']');
        self
    }
}

/// An open JSON array.
pub struct Array<'a>(Members<'a>);

impl Array<'_> {
    /// Appends one scalar element.
    pub fn push(&mut self, value: impl Encode) -> &mut Self {
        self.0.next();
        value.encode(self.0.out);
        self
    }

    /// Appends one object element laid out as `layout`.
    pub fn object(&mut self, layout: Layout, f: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.0.next();
        let indent = self.0.child_indent();
        Object::write(self.0.out, layout, indent, f);
        self
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Deepest nesting of arrays and objects [`parse`] accepts; deeper input is
/// rejected with [`JsonErrorKind::TooDeep`] instead of exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its source text so that both integers beyond
    /// 2^53 and floats read back exactly.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (the first, if repeated); `None` for
    /// a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as the nearest `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number, if it is written as a non-negative integer that fits a
    /// `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue a value here.
    UnexpectedByte,
    /// A malformed number.
    InvalidNumber,
    /// An unknown escape, a bad `\u` sequence or an unpaired surrogate.
    InvalidEscape,
    /// An unescaped control character inside a string.
    ControlInString,
    /// Nesting deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Non-whitespace after the top-level value.
    TrailingData,
}

/// A [`parse`] failure: what went wrong and at which byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            JsonErrorKind::UnexpectedEnd => "unexpected end of input",
            JsonErrorKind::UnexpectedByte => "unexpected character",
            JsonErrorKind::InvalidNumber => "invalid number",
            JsonErrorKind::InvalidEscape => "invalid escape",
            JsonErrorKind::ControlInString => "control character in string",
            JsonErrorKind::TooDeep => "nesting too deep",
            JsonErrorKind::TrailingData => "trailing data after the value",
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (RFC 8259), surrounded by optional whitespace.
///
/// # Errors
///
/// A [`JsonError`] for any input that is not exactly one well-formed value
/// nested at most [`MAX_DEPTH`] deep.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error(JsonErrorKind::TrailingData));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn error(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    /// The error for whatever sits at the cursor.
    fn unexpected(&self) -> JsonError {
        self.error(match self.peek() {
            None => JsonErrorKind::UnexpectedEnd,
            Some(_) => JsonErrorKind::UnexpectedByte,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.error(JsonErrorKind::TooDeep)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    /// Parses the members after `open` up to `close`, one per `member`
    /// call, separated by commas.
    fn members(
        &mut self,
        open: u8,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected()),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        let mut members = Vec::new();
        self.members(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            members.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Value::Object(members))
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        self.members(b'[', b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(JsonErrorKind::UnexpectedByte))
        }
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error(JsonErrorKind::InvalidNumber));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // Every byte consumed above is ASCII, so both ends are char
        // boundaries.
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end of input, both
            // char boundaries.
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.unexpected()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error(JsonErrorKind::ControlInString)),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            None => return Err(self.unexpected()),
            Some(_) => return Err(self.error(JsonErrorKind::InvalidEscape)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes the hex digits of a `\u` escape, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let bad = self.error(JsonErrorKind::InvalidEscape);
        let high = self.hex4()?;
        let code = match high {
            0xd800..=0xdbff => {
                if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(bad);
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(bad);
                }
                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
            }
            code => code,
        };
        char::from_u32(code).ok_or(bad)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                None => return Err(self.unexpected()),
                Some(b) => char::from(b).to_digit(16),
            };
            code = code * 16 + digit.ok_or_else(|| self.error(JsonErrorKind::InvalidEscape))?;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::rng::SplitMix64;

    #[test]
    fn layouts_place_separators() {
        let doc = |layout| {
            object(layout, |o| {
                o.field("a", 1u32)
                    .array("xs", layout, |a| {
                        a.push(true).push("s");
                    })
                    .array("none", layout, |_| {})
                    .object("o", layout, |o| {
                        o.field("b", None::<f64>);
                    });
            })
        };
        assert_eq!(
            doc(Layout::Compact),
            r#"{"a":1,"xs":[true,"s"],"none":[],"o":{"b":null}}"#
        );
        assert_eq!(
            doc(Layout::Spaced),
            r#"{"a": 1, "xs": [true, "s"], "none": [], "o": {"b": null}}"#
        );
        assert_eq!(
            doc(Layout::Lines),
            "{\n  \"a\": 1,\n  \"xs\": [\n    true,\n    \"s\"\n  ],\n  \"none\": [],\n  \
             \"o\": {\n    \"b\": null\n  }\n}"
        );
        assert_eq!(object(Layout::Lines, |_| {}), "{}");
    }

    /// Every string comes back exactly and every finite float bit for bit
    /// through `parse(object(…))`.
    #[test]
    fn emitted_strings_and_floats_round_trip_exactly() {
        let mut strings: Vec<String> = (0u32..0x80)
            .filter_map(char::from_u32)
            .map(|c| format!("<{c}>"))
            .collect();
        strings.extend(
            [
                "",
                "é ✓ 漢字 😀",
                "\"\\\"\\\\",
                "\u{2028}\u{fffd}",
                "\\u0041",
            ]
            .map(String::from),
        );
        let mut floats = vec![
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            -1.5e-11,
        ];
        let mut rng = SplitMix64::new(0x15_0e);
        while floats.len() < 600 {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                floats.push(v);
            }
        }
        for layout in [Layout::Compact, Layout::Spaced, Layout::Lines] {
            let text = object(layout, |o| {
                o.array("s", layout, |a| {
                    for s in &strings {
                        a.push(s);
                    }
                });
                o.array("f", layout, |a| {
                    for v in &floats {
                        a.push(*v);
                    }
                });
            });
            let value = parse(&text).expect("emitted JSON parses");
            let got: Vec<&str> = value
                .get("s")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap())
                .collect();
            assert_eq!(got, strings);
            let got = value.get("f").and_then(Value::as_array).unwrap();
            assert_eq!(got.len(), floats.len());
            for (g, v) in got.iter().zip(&floats) {
                assert_eq!(g.as_f64().unwrap().to_bits(), v.to_bits(), "{v:e}");
            }
        }
    }

    #[test]
    fn reader_covers_the_grammar() {
        let v = parse(
            " {\"a\" : [1, -0.5e+3, 2E-2, 0, 18446744073709551615], \"b\\u00e9\\n\":\"\\ud83d\\ude00\\/\\b\\f\\r\\t\", \
             \"c\": [true, false, null, {}, []]} ",
        )
        .unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[1].as_f64(), Some(-500.0));
        assert_eq!(a[2].as_f64(), Some(0.02));
        assert_eq!(a[4].as_u64(), Some(u64::MAX));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(
            v.get("bé\n").and_then(Value::as_str),
            Some("😀/\u{8}\u{c}\r\t")
        );
        let c = v.get("c").and_then(Value::as_array).unwrap();
        assert_eq!(c[0].as_bool(), Some(true));
        assert_eq!(c[2], Value::Null);
        assert_eq!(c[3], Value::Object(Vec::new()));
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[0].get("a"), None);
    }

    #[test]
    fn reader_rejects_malformed_input_with_typed_errors() {
        use JsonErrorKind::*;
        let cases: &[(&str, JsonErrorKind, usize)] = &[
            ("", UnexpectedEnd, 0),
            ("  ", UnexpectedEnd, 2),
            ("{\"a\":1", UnexpectedEnd, 6),
            ("{\"a\" 1}", UnexpectedByte, 5),
            ("{a:1}", UnexpectedByte, 1),
            ("[1,]", UnexpectedByte, 3),
            ("[1 2]", UnexpectedByte, 3),
            ("tru", UnexpectedByte, 0),
            ("01", TrailingData, 1),
            ("1.", InvalidNumber, 2),
            ("-", InvalidNumber, 1),
            ("1e+", InvalidNumber, 3),
            ("\"\\x\"", InvalidEscape, 2),
            ("\"\\u12g4\"", InvalidEscape, 5),
            ("\"\\ud800\"", InvalidEscape, 3),
            ("\"\\ud800\\u0041\"", InvalidEscape, 3),
            ("\"\\udc00\"", InvalidEscape, 3),
            ("\"a\u{1}\"", ControlInString, 2),
            ("\"abc", UnexpectedEnd, 4),
            ("{} x", TrailingData, 3),
        ];
        for &(text, kind, offset) in cases {
            assert_eq!(parse(text), Err(JsonError { kind, offset }), "{text:?}");
        }
        let nested = |depth| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        let err = parse(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert_eq!(
            err.to_string(),
            format!("nesting too deep at byte {}", 5 * MAX_DEPTH)
        );
    }
}
