//! The one JSON value type of the CLI layer. Every `--json` document and
//! run manifest is built as a [`Json`] tree and written by its
//! [`Display`] impl, which holds the only string escaper in the crate;
//! [`parse`] is the validating reader that tests and tools use to read
//! those documents back.
//!
//! The workspace has no serde. Two properties make this small tree fit
//! its job:
//!
//! - objects keep insertion order, so a document's field order is the
//!   order its emitter built it in;
//! - numbers are stored as their rendered text, so a fixed-precision
//!   `{:.4}` ratio keeps its trailing zeros, and `parse` followed by
//!   writing reproduces any written document byte for byte.
//!
//! Full 64-bit digests and fingerprints go out as `"0x..."` hex strings
//! ([`Json::hex`]): JSON numbers only carry 53 bits of integer precision.

use std::fmt::{self, Display, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the exact text it is written as.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends one field to an object, builder style.
    ///
    /// # Panics
    ///
    /// When `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field `{key}` added to non-object {other:?}"),
        }
        self
    }

    /// A number written as `v` displays: `Json::num(format_args!("{x:.4}"))`
    /// pins the precision of a ratio.
    #[must_use]
    pub fn num(v: impl Display) -> Json {
        Json::Num(v.to_string())
    }

    /// A 64-bit digest or fingerprint as a `"0x"`-prefixed, 16-digit hex
    /// string.
    #[must_use]
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// An array of the given items.
    #[must_use]
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The value of `key`, when `self` is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number's value.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The string's contents.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean's value.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array's items.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The object's fields, in document order.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::num(v)
            }
        }
    )*};
}
from_integer!(u32, u64, u128, usize, i32, i64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::arr(items)
    }
}

/// Collects `(key, value)` pairs into an object, in iteration order.
impl<K: Into<String>, V: Into<Json>> FromIterator<(K, V)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Json {
        Json::Obj(iter.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }
}

/// Writes `s` as a JSON string literal: quote, backslash and control
/// characters escaped, everything else verbatim.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// The compact canonical form: no whitespace, fields in stored order.
impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Why [`parse`] rejected a document, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong there.
    pub message: String,
}

impl Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (RFC 8259; whitespace around it is allowed).
/// Besides the grammar it rejects duplicate object keys, which no
/// document of this workspace contains.
///
/// # Errors
///
/// The first syntax error, with its byte offset: trailing garbage,
/// unterminated strings, raw control characters, malformed numbers or
/// escapes, and duplicate keys.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    p.ws();
    if p.pos != text.len() {
        return p.err("trailing garbage after the document");
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.to_string() })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), ParseError> {
        if !self.text[self.pos..].starts_with(lit) {
            return self.err(&format!("expected `{lit}`"));
        }
        self.pos += lit.len();
        Ok(())
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("expected a value"),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let at = self.pos;
            let k = self.string()?;
            if fields.iter().any(|(seen, _)| *seen == k) {
                return Err(ParseError { offset: at, message: format!("duplicate key `{k}`") });
            }
            self.ws();
            self.eat(":")?;
            let v = self.value()?;
            fields.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    /// Consumes a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.err("expected a digit"),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("expected a digit after `.`");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("expected an exponent digit");
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(hex) = hex else { return self.err("expected four hex digits") };
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("validated hex digits"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat("\"")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte, so it ends on a char boundary.
            s.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                            let c = self.unicode_escape()?;
                            s.push(c);
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    };
                    self.pos += 1;
                    s.push(c);
                }
                Some(_) => return self.err("raw control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The code point after `\u`, joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let cp = if (0xd800..0xdc00).contains(&hi) {
            self.eat("\\u")?;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return self.err("unpaired surrogate");
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        match char::from_u32(cp) {
            Some(c) => Ok(c),
            None => self.err("unpaired surrogate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(text: &str) -> String {
        parse(text).unwrap_or_else(|e| panic!("{e}: {text}")).to_string()
    }

    #[test]
    fn writer_parse_writer_round_trips() {
        let doc = Json::obj()
            .field("ctl", "a\"b\\c\nd\te\rf\u{1}\u{1f}g\u{7f}é")
            .field("null", Json::Null)
            .field("empty_obj", Json::obj())
            .field("empty_arr", Json::arr(Vec::<Json>::new()))
            .field("nested", Json::arr([Json::obj().field("a", Json::arr([Json::obj()]))]))
            .field("ratio", Json::num(format_args!("{:.4}", 1.5)))
            .field("neg", -3i64)
            .field("exp", Json::Num("1.5e-7".to_string()))
            .field("digest", Json::hex(0xdead_beef))
            .field("flag", false)
            .field("missing", None::<u32>);
        let text = doc.to_string();
        assert!(text.contains(r#""a\"b\\c\nd\te\rf\u0001\u001fg"#), "{text}");
        assert!(text.contains(r#""ratio":1.5000"#), "{text}");
        assert!(text.contains(r#""digest":"0x00000000deadbeef""#), "{text}");
        assert!(text.contains(r#""empty_obj":{},"empty_arr":[],"nested":[{"a":[{}]}]"#));
        let back = parse(&text).expect("writer output parses");
        assert_eq!(back, doc);
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parse_reads_every_escape_and_whitespace() {
        let v =
            parse(" { \"s\" : \"\\/\\b\\f\\u00e9\\ud83d\\ude00\" , \"n\" : [ 0 , -0.5 , 2E+3 ] } ")
                .expect("valid");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("/\u{8}\u{c}é😀"));
        let n: Vec<f64> =
            v.get("n").and_then(Json::as_array).unwrap().iter().filter_map(Json::as_f64).collect();
        assert_eq!(n, [0.0, -0.5, 2000.0]);
        // Canonical output re-escapes only what the writer escapes.
        assert_eq!(canonical("[\"\\u0008\"]"), "[\"\\u0008\"]");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for (text, what) in [
            ("{\"a\":1} x", "trailing garbage"),
            ("[1]]", "trailing garbage"),
            ("\"abc", "unterminated string"),
            ("{\"a\":\"b", "unterminated string"),
            ("\"a\nb\"", "raw control character"),
            ("\"\\q\"", "invalid escape"),
            ("\"\\u12\"", "four hex digits"),
            ("\"\\ud800x\"", "expected `\\u`"),
            ("01", "trailing garbage"),
            ("1.", "after `.`"),
            ("-", "expected a digit"),
            ("1e", "exponent"),
            ("{\"a\":1,\"a\":2}", "duplicate key `a`"),
            ("{\"a\" 1}", "expected `:`"),
            ("[1,]", "expected a value"),
            ("{\"a\":1,}", "expected `\"`"),
            ("", "unexpected end"),
            ("nul", "expected `null`"),
        ] {
            let e = parse(text).expect_err(text);
            assert!(e.message.contains(what), "{text:?}: {e}");
        }
    }

    #[test]
    fn accessors_and_conversions() {
        let v: Json = [("x", 1u32), ("y", 2)].into_iter().collect();
        assert_eq!(v.to_string(), "{\"x\":1,\"y\":2}");
        assert_eq!(v.get("y").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("z"), None);
        assert_eq!(Json::from(Some("s")).as_str(), Some("s"));
        assert_eq!(Json::from(vec![true]).as_array().map(<[Json]>::len), Some(1));
        assert_eq!(Json::Null.as_bool(), None);
    }
}
