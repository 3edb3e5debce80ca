//! The workspace's one JSON layer: one writer and one exact reader.
//!
//! Every machine-readable report (trace JSONL and its summary, audits,
//! campaign records and rollups, the `BENCH_*.json` rows) is rendered by
//! the [`Obj`]/[`Arr`] builders here and read back by [`parse`]. The policy
//! is stated once:
//!
//! * **Field order is call order.** The builders own comma placement, key
//!   quoting and bracket closing; a deterministic run renders byte-identical
//!   documents.
//! * **Floats** use Rust's shortest round-trip form ([`Obj::f64`]) or a
//!   fixed number of decimals where a report already prints one
//!   ([`Obj::fixed`]); a non-finite value becomes `null` under both.
//! * **Strings and keys are escaped** (`"`, `\`, `\n`, `\r`, `\t`, other
//!   control characters as `\u00XX`).
//! * **Unsigned integers are exact.** A literal of digits only that fits a
//!   `u64` parses to [`JsonValue::Uint`], never through `f64` — seeds and
//!   provenance ids above 2^53 survive write → read unchanged.
//! * **Hostile input returns a typed error.** Nesting deeper than
//!   [`MAX_DEPTH`] is a [`JsonError`], not a stack overflow; string scanning
//!   is linear.
//! * **JSONL** readers parse one line at a time; [`complete_lines`] drops a
//!   byte-truncated final line (a crash-time file) instead of failing on it.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Appends `s` as a JSON string literal.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    // Escaped bytes are ASCII, so every split below is on a char boundary.
    while let Some(at) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Appends `v` as a JSON number: shortest round-trip form, or `decimals`
/// fixed decimals; `null` when non-finite.
fn push_f64(out: &mut String, v: f64, decimals: Option<usize>) {
    let written = match decimals {
        _ if !v.is_finite() => {
            out.push_str("null");
            Ok(())
        }
        None => write!(out, "{v}"),
        Some(d) => write!(out, "{v:.d$}"),
    };
    written.expect("writing to a String cannot fail");
}

/// Appends `v` in decimal. Integers are most of every report and of every
/// trace line, so this skips the formatter `write!` would set up.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Renders one JSON object; `fill` adds its fields in order.
pub fn object(fill: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::with_capacity(128);
    Obj::write(&mut out, fill);
    out
}

/// Builder for the fields of one JSON object.
#[derive(Debug)]
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl Obj<'_> {
    fn write(out: &mut String, fill: impl FnOnce(&mut Obj<'_>)) {
        out.push('{');
        fill(&mut Obj { out, first: true });
        out.push('}');
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_str_lit(self.out, key);
        self.out.push(':');
        self.out
    }

    /// `"key":123`.
    pub fn u64(&mut self, key: &str, v: u64) {
        push_u64(self.key(key), v);
    }

    /// `"key":1.5`, shortest round-trip form; `null` when non-finite.
    pub fn f64(&mut self, key: &str, v: f64) {
        push_f64(self.key(key), v, None);
    }

    /// `"key":1.500` with exactly `decimals` decimals; `null` when
    /// non-finite.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) {
        push_f64(self.key(key), v, Some(decimals));
    }

    /// `"key":true`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.key(key).push_str(if v { "true" } else { "false" });
    }

    /// `"key":"escaped value"`.
    pub fn str(&mut self, key: &str, v: &str) {
        push_str_lit(self.key(key), v);
    }

    /// `"key":null`.
    pub fn null(&mut self, key: &str) {
        self.key(key).push_str("null");
    }

    /// `"key":<json>`, splicing an already-rendered document.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key).push_str(json);
    }

    /// `"key":{...}`.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut Obj<'_>)) {
        Obj::write(self.key(key), fill);
    }

    /// `"key":[...]`.
    pub fn arr(&mut self, key: &str, fill: impl FnOnce(&mut Arr<'_>)) {
        Arr::write(self.key(key), fill);
    }

    /// `"key":[1,2,3]`.
    pub fn u64s(&mut self, key: &str, values: impl IntoIterator<Item = u64>) {
        self.arr(key, |a| values.into_iter().for_each(|v| a.u64(v)));
    }
}

/// Builder for the elements of one JSON array.
#[derive(Debug)]
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

impl Arr<'_> {
    fn write(out: &mut String, fill: impl FnOnce(&mut Arr<'_>)) {
        out.push('[');
        fill(&mut Arr { out, first: true });
        out.push(']');
    }

    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// An unsigned integer element.
    pub fn u64(&mut self, v: u64) {
        push_u64(self.next(), v);
    }

    /// An object element.
    pub fn obj(&mut self, fill: impl FnOnce(&mut Obj<'_>)) {
        Obj::write(self.next(), fill);
    }
}

/// A parsed JSON value, borrowing escape-free strings from the input.
///
/// Object fields keep their source order so diff output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A literal of digits only that fits a `u64`, kept exact.
    Uint(u64),
    /// Any other number (signed, fractional, exponent, or above `u64::MAX`).
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<JsonValue<'a>>),
    /// An object, in source field order.
    Obj(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

impl fmt::Display for JsonValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Uint(n) => write!(f, "{n}"),
            JsonValue::Num(n) => write!(f, "{n}"),
            JsonValue::Str(s) => write!(f, "{s:?}"),
            JsonValue::Arr(items) => write!(f, "<array of {}>", items.len()),
            JsonValue::Obj(fields) => write!(f, "<object of {}>", fields.len()),
        }
    }
}

impl<'a> JsonValue<'a> {
    /// The fields of an object in source order (empty for any other value).
    pub fn fields(&self) -> impl Iterator<Item = (&str, &JsonValue<'a>)> {
        let fields = match self {
            JsonValue::Obj(fields) => fields.as_slice(),
            _ => &[],
        };
        fields.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Looks up an object field by name.
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        self.fields().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The object field `key`, when it is an unsigned integer literal.
    pub fn u64_at(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// The object field `key`, when it is a string.
    pub fn str_at(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// The exact value of an unsigned integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number as `f64` (an integer above 2^53 rounds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Uint(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An array's elements (empty for any other value).
    pub fn items(&self) -> &[JsonValue<'a>] {
        match self {
            JsonValue::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Parse failure: byte offset and a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.to_string(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'{') => self.parse_object(depth + 1),
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_literal(
        &mut self,
        lit: &str,
        value: JsonValue<'a>,
    ) -> Result<JsonValue<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn parse_number(&mut self) -> Result<JsonValue<'a>, JsonError> {
        let start = self.pos;
        let mut unsigned_integer = true;
        if self.peek() == Some(b'-') {
            unsigned_integer = false;
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.skip_digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            self.pos = start;
            return self.err("invalid number");
        }
        if self.peek() == Some(b'.') {
            unsigned_integer = false;
            self.pos += 1;
            if self.skip_digits() == 0 {
                return self.err("expected digits after '.'");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            unsigned_integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.skip_digits() == 0 {
                return self.err("expected digits in exponent");
            }
        }
        let literal = &self.text[start..self.pos];
        if unsigned_integer {
            if let Ok(n) = literal.parse() {
                return Ok(JsonValue::Uint(n));
            }
        }
        // Every literal of the grammar above is a valid `f64` literal; one
        // beyond the `f64` range parses to infinity, which no writer emits.
        match literal.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => {
                self.pos = start;
                self.err("number out of range")
            }
        }
    }

    fn parse_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        let mut plain_from = self.pos;
        loop {
            // The structural bytes are ASCII, so stepping bytewise never
            // splits a UTF-8 scalar and the slices below stay on boundaries.
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    let plain = &self.text[plain_from..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut s) => {
                            s.push_str(plain);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[plain_from..self.pos]);
                    self.pos += 1;
                    let unescaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("invalid \\u escape");
                            };
                            self.pos += 4;
                            // Surrogates would need pairing; our writers
                            // never emit them, so map to the replacement
                            // character instead of failing the whole parse.
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        }
                        _ => return self.err("invalid escape"),
                    };
                    out.push(unescaped);
                    self.pos += 1;
                    plain_from = self.pos;
                }
                Some(0..=0x1f) => return self.err("unescaped control character in string"),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue<'a>, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue<'a>, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error. One line of a JSONL file is one document: read its
/// fields with [`JsonValue::get`] / [`JsonValue::u64_at`] /
/// [`JsonValue::str_at`], or walk them with [`JsonValue::fields`].
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first problem, including
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue<'_>, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing content after JSON value");
    }
    Ok(value)
}

/// Splits a byte-truncated final line off a JSONL text, if any. A complete
/// file ends with a newline (every sink writes whole lines), and every
/// record is a one-line object closed by `}` — so a text that neither ends
/// with `\n` nor closes its last line with `}` stopped mid-write. Returns
/// the text to process and whether a partial tail was dropped.
pub fn complete_lines(text: &str) -> (&str, bool) {
    if text.is_empty() || text.ends_with('\n') {
        return (text, false);
    }
    let tail_start = text.rfind('\n').map_or(0, |i| i + 1);
    if text[tail_start..].ends_with('}') {
        // Complete record that merely lacks a trailing newline.
        (text, false)
    } else {
        (&text[..tail_start], true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_owns_commas_quoting_and_nesting() {
        let json = object(|o| {
            o.u64("n", 7);
            o.str("s", "x");
            o.bool("b", true);
            o.null("z");
            o.obj("inner", |o| o.u64("k", 1));
            o.obj("empty", |_| {});
            o.arr("items", |a| {
                a.u64(1);
                a.obj(|o| o.f64("v", 0.5));
            });
            o.u64s("ids", [3, 4]);
            o.f64("nan", f64::NAN);
            o.raw("spliced", "{\"a\":1}");
        });
        assert_eq!(
            json,
            "{\"n\":7,\"s\":\"x\",\"b\":true,\"z\":null,\"inner\":{\"k\":1},\"empty\":{},\
             \"items\":[1,{\"v\":0.5}],\"ids\":[3,4],\"nan\":null,\
             \"spliced\":{\"a\":1}}"
        );
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let json = object(|o| o.str("k\"", "a\"b\\c\nd\r\te\u{1}f\u{1f}é"));
        assert_eq!(
            json,
            "{\"k\\\"\":\"a\\\"b\\\\c\\nd\\r\\te\\u0001f\\u001fé\"}"
        );
        let back = parse(&json).unwrap();
        assert_eq!(
            back.get("k\"").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd\r\te\u{1}f\u{1f}é")
        );
    }

    #[test]
    fn floats_are_shortest_roundtrip_or_fixed_and_never_invalid() {
        let json = object(|o| {
            o.f64("a", 1.5);
            o.f64("b", 5.0);
            o.f64("c", 7.547715999999999);
            o.f64("d", f64::NAN);
            o.f64("e", f64::INFINITY);
            o.f64("f", -0.0);
            o.fixed("g", 1.0, 6);
            o.fixed("h", 2.25, 1);
            o.fixed("i", f64::NEG_INFINITY, 3);
        });
        assert_eq!(
            json,
            "{\"a\":1.5,\"b\":5,\"c\":7.547715999999999,\"d\":null,\"e\":null,\"f\":-0,\
             \"g\":1.000000,\"h\":2.2,\"i\":null}"
        );
        let back = parse(&json).unwrap();
        let bits = |k| back.get(k).and_then(JsonValue::as_f64).map(f64::to_bits);
        assert_eq!(bits("c"), Some(7.547715999999999f64.to_bits()));
        assert_eq!(bits("f"), Some((-0.0f64).to_bits()));
        assert_eq!(back.get("b"), Some(&JsonValue::Uint(5)));
    }

    #[test]
    fn parses_the_shapes_our_writers_emit() {
        let v = parse(
            r#"{"schema_version":2,"name":"engine_hot_path","wall_s":1.25,
                "nested":{"a":[1,2,3],"b":null,"ok":true},"s":"x\"y\n"}"#,
        )
        .expect("valid JSON");
        assert_eq!(v.get("schema_version"), Some(&JsonValue::Uint(2)));
        assert_eq!(v.get("wall_s"), Some(&JsonValue::Num(1.25)));
        assert_eq!(v.str_at("s"), Some("x\"y\n"));
        assert_eq!(v.u64_at("schema_version"), Some(2));
        assert_eq!((v.u64_at("wall_s"), v.str_at("wall_s")), (None, None));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("a").unwrap().items()[1].as_u64(), Some(2));
        assert_eq!(nested.get("b"), Some(&JsonValue::Null));
        assert_eq!(nested.get("ok").and_then(JsonValue::as_bool), Some(true));
        let keys: Vec<&str> = v.fields().map(|(k, _)| k).collect();
        assert_eq!(keys, ["schema_version", "name", "wall_s", "nested", "s"]);
        // Escape-free strings borrow from the input.
        assert!(matches!(
            v.get("name"),
            Some(JsonValue::Str(Cow::Borrowed(_)))
        ));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1} trailing"#,
            r#"{"a":1,}"#,
            "[1,]",
            "\"unterminated",
            "\"raw\ncontrol\"",
            r#""\x""#,
            "tru",
            "-",
            "01",
            "1.",
            "1e",
            "+1",
            ".5",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Every proper prefix of a valid document is a typed error.
        let doc = r#"{"a":[1,{"b":"c\u0041\n"}],"d":-1.5e3}"#;
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            assert!(parse(&doc[..cut]).is_err(), "prefix {cut} must not parse");
        }
    }

    #[test]
    fn unsigned_integers_are_exact_up_to_u64_max() {
        let v = parse("[18446744073709551615,18446744073709551614,9007199254740993]").unwrap();
        assert_eq!(v.items()[0], JsonValue::Uint(u64::MAX));
        assert_eq!(v.items()[1], JsonValue::Uint(u64::MAX - 1));
        assert_ne!(v.items()[0], v.items()[1]);
        assert_eq!(
            object(|o| o.u64s("n", [0, 10, u64::MAX])),
            "{\"n\":[0,10,18446744073709551615]}"
        );
        assert_eq!(v.items()[2].as_u64(), Some((1 << 53) + 1));
        // One past u64::MAX, signed and fractional literals are plain numbers.
        let v = parse("[18446744073709551616,-3,2.0,1e2]").unwrap();
        assert_eq!(v.items()[0], JsonValue::Num(18446744073709551616.0));
        assert_eq!(v.items()[1], JsonValue::Num(-3.0));
        assert_eq!(v.items()[2], JsonValue::Num(2.0));
        assert_eq!(v.items()[3].as_u64(), None);
        assert_eq!(v.items()[3].as_f64(), Some(100.0));
    }

    #[test]
    fn nesting_is_limited_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"));
        assert!(parse(&"[".repeat(2_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(2_000_000)).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""\u00e9x""#).unwrap().as_str(), Some("éx"));
        // `u32::from_str_radix` alone would accept the sign.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u004""#).is_err());
        // A lone surrogate degrades to the replacement character.
        assert_eq!(parse(r#""\ud800""#).unwrap().as_str(), Some("\u{FFFD}"));
    }

    #[test]
    fn long_strings_scan_in_linear_time() {
        // Quadratic scanning of 4 MB would take minutes.
        let doc = format!("\"{}\"", "é\\n".repeat(1 << 20));
        let v = parse(&doc).unwrap();
        assert_eq!(v.as_str().map(str::len), Some(3 << 20));
    }

    #[test]
    fn complete_lines_drops_only_a_partial_tail() {
        assert_eq!(complete_lines(""), ("", false));
        assert_eq!(complete_lines("{\"a\":1}\n"), ("{\"a\":1}\n", false));
        assert_eq!(complete_lines("{\"a\":1}"), ("{\"a\":1}", false));
        assert_eq!(complete_lines("{\"a\":1}\n{\"b\""), ("{\"a\":1}\n", true));
        assert_eq!(complete_lines("{\"b\""), ("", true));
    }
}
