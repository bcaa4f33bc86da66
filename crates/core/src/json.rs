//! The flat-JSON line format.
//!
//! Trace events ([`crate::trace`]), the service's journal records and the
//! strings inside the benchmark artifacts are all one JSON object per
//! line whose values are strings, integers, floats, booleans or flat
//! integer arrays — never nested objects. This module is the only code
//! that escapes or parses that format:
//!
//! * [`escape`] is the one string escaper;
//! * [`Writer`] renders one object, `"key":value` pairs in call order;
//! * [`parse`] reads one back into an [`Object`], whose typed getters
//!   name the field that is missing or has the wrong type.
//!
//! ```
//! use graft_core::json::{parse, Writer};
//!
//! let line = Writer::new()
//!     .str("kind", "warm")
//!     .u64("ny", 4)
//!     .ints("mate_x", [2i64, -1])
//!     .finish();
//! assert_eq!(line, r#"{"kind":"warm","ny":4,"mate_x":[2,-1]}"#);
//! let obj = parse(&line).unwrap();
//! assert_eq!(obj.ints("mate_x").unwrap(), &[2, -1]);
//! assert_eq!(obj.u64("mate_x").unwrap_err(), "`mate_x` must be a non-negative integer");
//! ```

use std::fmt::Write as _;

/// `s` escaped as the body of a JSON string literal (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders one flat object into a single `String`.
///
/// Every method appends one `"key":value` pair and returns the writer,
/// so a record is one expression; [`finish`](Self::finish) closes the
/// object. Numbers are formatted straight into the buffer: an integer
/// array costs no allocation per element.
#[derive(Debug)]
pub struct Writer {
    buf: String,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// An empty object.
    pub fn new() -> Self {
        let mut buf = String::with_capacity(128);
        buf.push('{');
        Self { buf }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Appends an escaped string.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a signed integer.
    pub fn i64(mut self, key: &str, value: i64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float in `{:?}` form, the shortest text that parses
    /// back to the same value and always a JSON number: `5.0`, not `5`.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value:?}");
        self
    }

    /// Appends `true` or `false`.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a flat integer array.
    pub fn ints<T: Into<i64>>(mut self, key: &str, values: impl IntoIterator<Item = T>) -> Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{}", v.into());
        }
        self.buf.push(']');
        self
    }

    /// Closes the object and returns its text (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[derive(Debug, PartialEq)]
enum Value {
    Str(String),
    /// Wide enough for every `u64` and every `i64`.
    Int(i128),
    Float(f64),
    Bool(bool),
    Ints(Vec<i64>),
}

/// One parsed flat object: its fields in line order. A repeated key
/// reads as its first occurrence.
#[derive(Debug, PartialEq)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    fn get(&self, key: &str) -> Result<&Value, String> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The string field `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            _ => Err(format!("`{key}` must be a string")),
        }
    }

    /// The integer field `key`, which must fit a `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
    }

    /// The integer field `key`, which must fit an `i64`.
    pub fn i64(&self, key: &str) -> Result<i64, String> {
        match self.get(key)? {
            Value::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
        .ok_or_else(|| format!("`{key}` must be an integer"))
    }

    /// The number field `key`; an integer literal reads as a float.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            _ => Err(format!("`{key}` must be a number")),
        }
    }

    /// The boolean field `key`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{key}` must be a bool")),
        }
    }

    /// The integer-array field `key`.
    pub fn ints(&self, key: &str) -> Result<&[i64], String> {
        match self.get(key)? {
            Value::Ints(v) => Ok(v),
            _ => Err(format!("`{key}` must be an integer array")),
        }
    }
}

/// Parses one flat object. Values may be strings, integers, floats,
/// `true`/`false` and arrays of integers; nested objects, other arrays,
/// `null` and any text after the closing brace are errors.
pub fn parse(line: &str) -> Result<Object, String> {
    let mut p = Parser { s: line, pos: 0 };
    let mut fields = Vec::new();
    p.ws();
    p.expect(b'{')?;
    p.items(b'}', |p| {
        let key = p.string()?;
        p.ws();
        p.expect(b':')
            .map_err(|_| format!("expected `:` after key `{key}`"))?;
        p.ws();
        let value = p.value().map_err(|e| format!("field `{key}`: {e}"))?;
        fields.push((key, value));
        Ok(())
    })?;
    p.ws();
    if p.pos != line.len() {
        return Err("trailing text after the object".into());
    }
    Ok(Object { fields })
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            _ => Err(format!("expected `{}`", want as char)),
        }
    }

    /// Parses `item, item, ...` up to the `close` bracket, after the
    /// opening one; the list may be empty.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            item(self)?;
            self.ws();
            match self.next() {
                Some(b',') => {}
                Some(b) if b == close => return Ok(()),
                _ => return Err(format!("expected `,` or `{}`", close as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so the slice ends on a char boundary.
            let rest = &self.s[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            match self.next() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let c = self
                        .s
                        .get(self.pos..self.pos + 4)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?))
                        .ok_or("bad \\u escape")?;
                    out.push(c);
                    self.pos += 4;
                }
                _ => return Err("bad escape".into()),
            }
        }
    }

    /// The text of one number literal: a leading digit or `-`, then
    /// digits, signs, `.` and exponents.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if !self.peek().is_some_and(|b| b.is_ascii_digit() || b == b'-') {
            return Err("expected a number".into());
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        Ok(&self.s[start..self.pos])
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut ints = Vec::new();
                self.items(b']', |p| {
                    let tok = p.number()?;
                    ints.push(tok.parse().map_err(|_| format!("bad integer `{tok}`"))?);
                    Ok(())
                })?;
                Ok(Value::Ints(ints))
            }
            Some(b't') if self.s[self.pos..].starts_with("true") => {
                self.pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.s[self.pos..].starts_with("false") => {
                self.pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                let tok = self.number()?;
                if tok.contains(['.', 'e', 'E']) {
                    tok.parse().ok().map(Value::Float)
                } else {
                    tok.parse().ok().map(Value::Int)
                }
                .ok_or_else(|| format!("bad number `{tok}`"))
            }
            _ => Err("expected a string, number, bool or integer array".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\r\t/é"), "\\u0001\\r\\t/é");
    }

    #[test]
    fn every_value_kind_round_trips() {
        let name = "we\"ird\\name\nwith\tctrl\u{1}";
        let line = Writer::new()
            .str("s", name)
            .u64("max", u64::MAX)
            .i64("min", i64::MIN)
            .f64("alpha", 5.0)
            .f64("tiny", 1e-7)
            .bool("t", true)
            .bool("f", false)
            .ints("mate_x", [3i64, -1, i64::MAX])
            .ints("pairs", [0u32, u32::MAX])
            .ints("empty", Vec::<i64>::new())
            .finish();
        let o = parse(&line).unwrap();
        assert_eq!(o.str("s").unwrap(), name);
        assert_eq!(o.u64("max").unwrap(), u64::MAX);
        assert_eq!(o.i64("min").unwrap(), i64::MIN);
        assert_eq!(o.f64("alpha").unwrap(), 5.0);
        assert_eq!(o.f64("tiny").unwrap(), 1e-7);
        assert!(o.bool("t").unwrap() && !o.bool("f").unwrap());
        assert_eq!(o.ints("mate_x").unwrap(), &[3, -1, i64::MAX]);
        assert_eq!(o.ints("pairs").unwrap(), &[0, i64::from(u32::MAX)]);
        assert!(o.ints("empty").unwrap().is_empty());
        assert!(line.contains("\"alpha\":5.0,"), "{line}");
        assert_eq!(Writer::new().finish(), "{}");
        assert_eq!(parse(" { } ").unwrap(), parse("{}").unwrap());
    }

    #[test]
    fn getters_name_the_field() {
        let o = parse(r#"{"n":-1,"big":18446744073709551615,"s":"x","a":[1]}"#).unwrap();
        assert_eq!(o.u64("gone").unwrap_err(), "missing field `gone`");
        assert_eq!(
            o.u64("n").unwrap_err(),
            "`n` must be a non-negative integer"
        );
        assert_eq!(o.i64("n").unwrap(), -1);
        assert_eq!(o.i64("big").unwrap_err(), "`big` must be an integer");
        assert_eq!(o.f64("n").unwrap(), -1.0);
        assert_eq!(o.f64("s").unwrap_err(), "`s` must be a number");
        assert_eq!(o.str("a").unwrap_err(), "`a` must be a string");
        assert_eq!(o.bool("s").unwrap_err(), "`s` must be a bool");
        assert_eq!(o.ints("n").unwrap_err(), "`n` must be an integer array");
    }

    #[test]
    fn rejects_what_is_not_one_flat_object() {
        for bad in [
            "",
            "{",
            "nonsense",
            "[1,2]",
            r#"{"a":{"b":1}}"#,
            r#"{"a":[[1]]}"#,
            r#"{"a":[1.5]}"#,
            r#"{"a":["x"]}"#,
            r#"{"a":null}"#,
            r#"{"a":tru}"#,
            r#"{"a":1} extra"#,
            r#"{"a":1}}"#,
            r#"{"a" 1}"#,
            r#"{"a":1,}"#,
            r#"{"a":"open}"#,
            r#"{"a":"\q"}"#,
            r#"{"a":"\u12"}"#,
            r#"{"a":"\ud800"}"#,
            r#"{"a":1-2}"#,
            r#"{"a":+1}"#,
            r#"{"a":340282366920938463463374607431768211456}"#,
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
