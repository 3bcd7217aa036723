//! The workspace's one JSON module: a value model with a strict reader
//! and a compact writer, the string escaper, and the flat-line field
//! reader behind the JSONL formats.
//!
//! Reports, golden snapshots, serve frames, command traces and shaped
//! patterns all write their strings through [`escape`] and read them
//! back through one decoder, so whatever one writer emits every reader
//! decodes. [`parse`] reads a document the way a strict external
//! consumer would: it rejects trailing commas, single quotes, unknown
//! escapes, unpaired surrogates, bare `NaN`, numbers outside the JSON
//! grammar or the `f64` range, raw control bytes and trailing garbage.
//! The module is std-only and feature-free, so production binaries (the
//! serving daemon) and the conformance suite share it.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also how reports encode non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, read as `f64` like most consumers do.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys sorted (JSON objects are unordered).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup that tolerates absence and non-objects. Indexing
    /// (`doc["key"]`) is the lookup that panics instead.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON (object keys in sorted
    /// order — the parse representation is a `BTreeMap`). `parse` ∘
    /// `render_json` is the identity on the value, which is what the
    /// benchmark harnesses need to read-modify-write their JSON
    /// artifacts without a serializer dependency.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, s: &mut String) {
        match self {
            Value::Null => s.push_str("null"),
            Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(s, "{}", *n as i64);
                } else {
                    let _ = write!(s, "{n}");
                }
            }
            Value::Str(t) => {
                s.push('"');
                s.push_str(&escape(t));
                s.push('"');
            }
            Value::Arr(items) => {
                s.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    v.render_into(s);
                }
                s.push(']');
            }
            Value::Obj(map) => {
                s.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push('"');
                    s.push_str(&escape(k));
                    s.push_str("\":");
                    v.render_into(s);
                }
                s.push('}');
            }
        }
    }
}

/// Member lookup for code that requires the key, tests above all.
///
/// # Panics
///
/// Panics, naming the keys present, if `self` is not an object or lacks
/// `key`.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        match self {
            Value::Obj(m) => m.get(key).unwrap_or_else(|| {
                panic!("missing key {key:?} (keys: {:?})", m.keys().collect::<Vec<_>>())
            }),
            other => panic!("expected an object with key {key:?}, got {other:?}"),
        }
    }
}

/// Escapes a string for a JSON string literal (no surrounding quotes):
/// `"` and `\` backslashed, newline, CR and tab in their short forms,
/// every other control character as `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Reads a `u64` spelled in decimal or as `0x…` hex. Writers put 64-bit
/// seeds, digests and word values in hex strings, which survive parsers
/// that read every JSON number as `f64`.
///
/// # Errors
///
/// Returns a message quoting the rejected text.
pub fn parse_u64(text: &str) -> Result<u64, String> {
    let t = text.trim();
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex value {t:?}: {e}")),
        None => t.parse().map_err(|e| format!("bad value {t:?}: {e}")),
    }
}

/// Reads the value of the first `"key":` in one flat JSON object line (a
/// JSONL record) without building a [`Value`]. A string value goes
/// through the same decoder as [`parse`] and borrows from `line` unless
/// it holds an escape; any other value is the trimmed text up to the next
/// `,` or `}`. `None` when the key is absent or its string is malformed.
pub fn field<'a>(line: &'a str, key: &str) -> Option<Cow<'a, str>> {
    // `key` holds no quote, so a candidate that fails the check cannot
    // overlap the real match.
    let mut pos = line.match_indices(key).find_map(|(at, _)| {
        let after = at + key.len();
        (line[..at].ends_with('"') && line[after..].starts_with("\":")).then_some(after + 2)
    })?;
    skip_ws(line.as_bytes(), &mut pos);
    if line[pos..].starts_with('"') {
        string(line, &mut pos).ok()
    } else {
        let rest = &line[pos..];
        Some(Cow::Borrowed(rest[..rest.find([',', '}'])?].trim()))
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a message, tagged with the byte offset where it helps, on any
/// syntax violation.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let v = value(text, &mut pos)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn value(s: &str, pos: &mut usize) -> Result<Value, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => object(s, pos),
        Some(b'[') => array(s, pos),
        Some(b'"') => Ok(Value::Str(string(s, pos)?.into_owned())),
        Some(b't') => literal(b, pos, "true", Value::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Value::Null),
        Some(b'-' | b'0'..=b'9') => number(s, pos),
        Some(&c) => Err(format!("unexpected byte {:?} at {}", c as char, *pos)),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, read as a
/// finite `f64` (an overflowing literal would render back as `inf`).
fn number(s: &str, pos: &mut usize) -> Result<Value, String> {
    let b = s.as_bytes();
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if b[*pos] == b'-' {
        *pos += 1;
    }
    let int = *pos;
    let mut ok = digits(pos) && (b[int] != b'0' || *pos == int + 1);
    if ok && b.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok = digits(pos);
    }
    if ok && matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok = digits(pos);
    }
    let text = &s[start..*pos];
    match text.parse::<f64>() {
        Ok(n) if ok && n.is_finite() => Ok(Value::Num(n)),
        _ => Err(format!("bad number {text:?} at byte {start}")),
    }
}

/// Decodes the string literal whose opening quote is at `s[*pos]`,
/// leaving `pos` just past its closing quote. One pass; the result
/// borrows from `s` unless the literal holds an escape.
fn string<'a>(s: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let b = s.as_bytes();
    *pos += 1;
    // Start of the unescaped run not yet copied into `owned`.
    let mut run = *pos;
    let mut owned: Option<String> = None;
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                let tail = &s[run..*pos];
                *pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(tail),
                    Some(mut o) => {
                        o.push_str(tail);
                        Cow::Owned(o)
                    }
                });
            }
            Some(b'\\') => {
                let o = owned.get_or_insert_with(String::new);
                o.push_str(&s[run..*pos]);
                *pos += 1;
                o.push(unescape(b, pos)?);
                run = *pos;
            }
            Some(&c) if c < 0x20 => return Err(format!("raw control byte {c:#04x} in string")),
            // `s` is valid UTF-8 and runs are cut only at ASCII bytes, so
            // multi-byte characters pass through unchecked.
            Some(_) => *pos += 1,
        }
    }
}

/// Decodes the escape after a backslash, surrogate pairs included.
fn unescape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let Some(&e) = b.get(*pos) else {
        return Err("unterminated escape".to_owned());
    };
    *pos += 1;
    Ok(match e {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'u' => {
            let cp = match hex4(b, pos)? {
                hi @ 0xD800..=0xDBFF => {
                    if !b[*pos..].starts_with(b"\\u") {
                        return Err("unpaired surrogate".to_owned());
                    }
                    *pos += 2;
                    let lo = hex4(b, pos)?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err("unpaired surrogate".to_owned());
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                }
                0xDC00..=0xDFFF => return Err("unpaired surrogate".to_owned()),
                cp => cp,
            };
            char::from_u32(cp).ok_or_else(|| format!("bad code point {cp:#x}"))?
        }
        other => return Err(format!("bad escape \\{}", other as char)),
    })
}

/// The four hex digits of a `\u` escape.
fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let digits = b
        .get(*pos..*pos + 4)
        .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
        .ok_or("bad \\u escape: four hex digits required")?;
    *pos += 4;
    Ok(digits.iter().fold(0, |acc, &d| acc * 16 + char::from(d).to_digit(16).unwrap_or(0)))
}

fn array(s: &str, pos: &mut usize) -> Result<Value, String> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(value(s, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn object(s: &str, pos: &mut usize) -> Result<Value, String> {
    let b = s.as_bytes();
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = string(s, pos)?.into_owned();
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let val = value(s, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}
