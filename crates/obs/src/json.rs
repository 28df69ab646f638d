//! The workspace's one JSON module: a value tree, a pretty and a compact
//! writer, and a parser.
//!
//! The repository builds with zero external crates, so every JSON document
//! it writes (the engine's result cache, `results/BENCH_harness.json`,
//! Chrome traces, profiles, metrics, forensic reports, `cwsp-lint`
//! diagnostics, fuzz reports, tier snapshots) is built as a [`Value`] and
//! serialized here
//! instead of through serde. Unsigned integers round-trip exactly
//! (simulation counters exceed the f64 mantissa only past 2^53, but we keep
//! them precise anyway); floats use shortest-exact `{:?}` formatting and
//! non-finite floats write as `null`.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for simulator counters).
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace an object field (no-op on non-objects).
    pub fn set(&mut self, key: &str, val: Value) {
        if let Value::Obj(fields) = self {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = val;
            } else {
                fields.push((key.to_string(), val));
            }
        }
    }

    /// The value as a u64 (integers only; floats are counters that were
    /// never written by us, so reject them).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an f64 (accepts integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serialize on one line with no whitespace and a trailing newline
    /// (for large documents such as Chrome traces).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out.push('\n');
        out
    }

    /// `depth` is the indentation level, `None` for compact output.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, depth);
                out.push(']');
            }
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_str(out, k);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Int(n.into())
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Write `s` as a JSON string literal: the workspace's one escaper.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Parse a JSON document.
///
/// # Errors
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // escape in one slice; both delimiters are ASCII, so the cut is
            // always on a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or("bad \\u escape")?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at offset {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Obj(vec![
            ("version".into(), Value::Int(1)),
            (
                "figures".into(),
                Value::Obj(vec![(
                    "fig13".into(),
                    Value::Obj(vec![
                        ("wall_ms".into(), Value::Int(1234)),
                        ("hit_rate".into(), Value::Float(0.5)),
                        ("label".into(), Value::Str("a \"quoted\"\nname".into())),
                        (
                            "hist".into(),
                            Value::Arr(vec![Value::Int(1), Value::Int(2)]),
                        ),
                        ("none".into(), Value::Null),
                        ("ok".into(), Value::Bool(true)),
                    ]),
                )]),
            ),
        ]);
        let text = v.to_pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        let n = (1u64 << 53) + 1; // not representable as f64
        let v = Value::Arr(vec![Value::Int(n), Value::Int(u64::MAX)]);
        let back = parse(&v.to_pretty()).unwrap();
        assert_eq!(back.as_arr().unwrap()[0].as_u64(), Some(n));
        assert_eq!(back.as_arr().unwrap()[1].as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"x\\u0041\" ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("xA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn strings_round_trip_multibyte_text_and_every_escape() {
        // Every escape the writer emits (quote, backslash, \n, \r, \t and
        // \u00XX for the other control characters) next to 2-, 3- and
        // 4-byte UTF-8 characters, in keys and values, pretty and compact.
        let controls: String = (0u8..0x20).map(char::from).collect();
        let s = format!("é ß → 漢字 🦀 \"q\" \\ /{controls}\u{7f}end");
        let v = obj([
            (s.as_str(), Value::Str(s.clone())),
            (
                "ünïcode",
                Value::Arr(vec![Value::Str("日本".into()), Value::Str(String::new())]),
            ),
        ]);
        for text in [v.to_pretty(), v.to_compact()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
        assert!(v.to_compact().contains("\\u001f"));
        assert_eq!(v.to_compact().lines().count(), 1);
        // `\/` and `\u` escapes of non-control characters parse too.
        assert_eq!(
            parse(r#""a\/\u00e9\u6f22""#).unwrap(),
            Value::Str("a/é漢".into())
        );
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse("\"open").is_err());
        assert!(parse(r#""bad \x escape""#).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A scan that re-validates the rest of the document for each plain
        // character is quadratic: minutes for these 2.4 MB.
        let long = "ab€".repeat(200_000);
        let text = Value::Arr(vec![Value::Str(long.clone()); 4]).to_compact();
        let t = std::time::Instant::now();
        let back = parse(&text).unwrap();
        assert_eq!(back.as_arr().unwrap()[3].as_str(), Some(long.as_str()));
        assert!(t.elapsed().as_secs() < 5, "{:?}", t.elapsed());
    }

    #[test]
    fn compact_and_pretty_agree_and_convert_scalars() {
        let v = obj([
            ("n", 7u64.into()),
            ("len", 3usize.into()),
            ("x", 0.25.into()),
            ("nan", f64::NAN.into()),
            ("ok", true.into()),
            ("none", Option::<u64>::None.into()),
            ("some", Some("s").into()),
            ("empty", Value::Obj(vec![])),
        ]);
        assert_eq!(
            v.to_compact(),
            "{\"n\":7,\"len\":3,\"x\":0.25,\"nan\":null,\"ok\":true,\"none\":null,\
             \"some\":\"s\",\"empty\":{}}\n"
        );
        assert_eq!(
            parse(&v.to_pretty()).unwrap(),
            parse(&v.to_compact()).unwrap()
        );
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut v = Value::Obj(vec![]);
        v.set("a", Value::Int(1));
        v.set("a", Value::Int(2));
        v.set("b", Value::Int(3));
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("b").unwrap().as_u64(), Some(3));
    }
}
