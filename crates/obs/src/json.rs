//! A small, dependency-free JSON value model, writer and parser.
//!
//! Every artifact the toolchain persists — trace files, placement reports,
//! advisor configurations, metrics documents, the JSONL event sink — goes
//! through this module. It exists because the pipeline must keep working on
//! air-gapped HPC login nodes where we control exactly what ships; the
//! grammar is RFC 8259 with two deliberate choices:
//!
//! * Numbers preserve integer-ness: a literal without `.`/`e` that fits in
//!   `u64`/`i64` round-trips exactly (addresses and byte sizes exceed 2^53,
//!   where `f64` starts dropping bits).
//! * Non-finite floats serialize as `null`; [`Json::as_f64`] reads `null`
//!   back as NaN. JSON has no NaN literal and the fault injector produces
//!   NaN timestamps on purpose, so the round-trip must not invent one.
//!
//! Two layers share one lexer and one printer. The [`Json`] tree suits
//! small documents (metrics, configurations). Large documents — a trace
//! header carries every line table of the program image — stream through
//! [`JsonWriter`] and [`JsonReader`] instead and never build a tree:
//! [`JsonWriter`] prints byte for byte what [`Json::to_string_compact`]
//! prints for the same values, and [`Json::parse`] is [`JsonReader::value`]
//! over the whole text, so both layers report the same syntax errors at
//! the same line and column.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A parsed JSON value. Objects keep insertion order so that serialized
/// documents (golden files, metrics reports) are byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// Any literal with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (keeps the given order).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A float value; non-finite inputs become `null` (see module docs).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::F64(v)
        } else {
            Json::Null
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable lookup of a key in an object.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            Json::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as `i64` when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(v) => Some(*v),
            Json::U64(v) => i64::try_from(*v).ok(),
            Json::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(*v as i64),
            _ => None,
        }
    }

    /// The value as `f64`. `null` reads back as NaN (see module docs).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a borrowed string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a borrowed array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(self);
        w.finish()
    }

    /// Serializes with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out
    }

    /// Parses a JSON document. Trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut r = JsonReader::new(input);
        let v = r.value(0)?;
        r.finish()?;
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// A parse failure with 1-based line/column of the offending byte.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// 1-based line of the first offending byte.
    pub line: usize,
    /// 1-based column of the first offending byte.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at line {} column {}", self.message, self.line, self.column)
    }
}

impl std::error::Error for JsonError {}

fn write_value(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::U64(n) => {
            let mut buf = [0u8; 20];
            out.push_str(fmt_u64(*n, &mut buf));
        }
        Json::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Json::F64(f) => write_f64(*f, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_seq(out, indent, depth, items.is_empty(), b'[', |out| {
            for (i, item) in items.iter().enumerate() {
                sep(out, indent, depth + 1, i > 0);
                write_value(item, out, indent, depth + 1);
            }
        }),
        Json::Obj(pairs) => write_seq(out, indent, depth, pairs.is_empty(), b'{', |out| {
            for (i, (k, item)) in pairs.iter().enumerate() {
                sep(out, indent, depth + 1, i > 0);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    open: u8,
    body: impl FnOnce(&mut String),
) {
    let close = if open == b'[' { ']' } else { '}' };
    out.push(open as char);
    if empty {
        out.push(close);
        return;
    }
    body(out);
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..depth * w {
            out.push(' ');
        }
    }
    out.push(close);
}

fn sep(out: &mut String, indent: Option<usize>, depth: usize, comma: bool) {
    if comma {
        out.push(',');
    }
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..depth * w {
            out.push(' ');
        }
    }
}

fn fmt_u64(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ascii")
}

fn write_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's Display for f64 is the shortest string that round-trips, but
    // it omits the fraction for integral values ("3") — re-add ".0" so the
    // parser preserves float-ness on the way back in.
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// True for the characters [`write_string`] escapes.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\' || b == 0x7f
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // DEL is legal unescaped JSON, but these strings end up in
            // JSONL sinks read by terminals and line-oriented tools —
            // escape the whole control range, C0 and DEL alike.
            c if (c as u32) < 0x20 || c == '\u{7f}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A streaming writer of compact JSON. It prints what
/// [`Json::to_string_compact`] prints for the same values, with the same
/// number formatting and string escaping, without building a [`Json`]
/// tree first. The caller drives the structure: it opens and closes
/// containers and writes each object key before its value. The writer
/// places the commas; it does not check that the calls nest.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// True when the next value or key follows a sibling.
    comma: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Writes the comma a value needs after a sibling.
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object key; the value follows.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        write_string(k, &mut self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        let mut buf = [0u8; 20];
        self.out.push_str(fmt_u64(v, &mut buf));
        self
    }

    /// Writes a float; non-finite values become `null` (see module docs).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.sep();
        write_f64(v, &mut self.out);
        self
    }

    /// Writes a bool.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        write_string(s, &mut self.out);
        self
    }

    /// Writes a whole [`Json`] value.
    pub fn value(&mut self, v: &Json) -> &mut Self {
        self.sep();
        write_value(v, &mut self.out, None, 0);
        self
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A pull reader over one JSON text: the caller asks for the value it
/// expects next and reads containers item by item, so a decoder can fill
/// its own structures without a [`Json`] tree in between. [`Self::value`]
/// still returns a small subtree as a [`Json`], and [`Self::skip`] passes
/// over a value while checking its syntax.
///
/// Errors are the parser's own: [`Json::parse`] is [`Self::value`] on the
/// whole text, so a syntax error met while pulling carries the same
/// message, line and column. Every value-reading method takes the value's
/// nesting depth (the document's root value is at depth 0) and refuses a
/// value deeper than the parser's limit.
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

/// Nesting deeper than this is rejected rather than risking stack overflow
/// on adversarial input (the fault injector feeds us damaged files).
const MAX_DEPTH: usize = 128;

impl<'a> JsonReader<'a> {
    /// A reader at the start of the document's root value.
    pub fn new(text: &'a str) -> Self {
        let mut r = JsonReader { text, bytes: text.as_bytes(), pos: 0 };
        r.skip_ws();
        r
    }

    /// The byte offset of the next value.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves back to an offset [`Self::position`] returned.
    #[inline]
    pub fn rewind(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// The first byte of the next value, if any: `{`, `[`, `"`, a digit,
    /// `-`, or the first letter of a keyword.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Ends the document: only whitespace may follow the root value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    /// A syntax error at the current byte.
    #[cold]
    fn err(&self, message: impl Into<String>) -> JsonError {
        let (mut line, mut col) = (1usize, 1usize);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError { line, column: col, message: message.into() }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    #[inline]
    fn check_depth(&self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    /// Reads the value at `depth` as a [`Json`] tree.
    #[inline]
    pub fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.check_depth(depth)?;
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            _ => self.other_value(depth),
        }
    }

    /// [`Self::value`] for containers, keywords and errors.
    fn other_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.each_item(depth, |r| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.each_field(depth, |r, key| {
                    pairs.push((key.into_owned(), r.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Passes over the value at `depth`, checking its syntax as
    /// [`Self::value`] would, without building it.
    pub fn skip(&mut self, depth: usize) -> Result<(), JsonError> {
        self.check_depth(depth)?;
        match self.peek() {
            Some(b'[') => self.each_item(depth, |r| r.skip(depth + 1)),
            Some(b'{') => self.each_field(depth, |r, _| r.skip(depth + 1)),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.other_value(depth).map(drop),
        }
    }

    /// Reads the array at `depth`, calling `item` once per element with
    /// the reader at the element (which sits at `depth + 1`). `item` must
    /// consume the element.
    pub fn each_item(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.check_depth(depth)?;
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Reads the object at `depth`, calling `field` once per member with
    /// its key and the reader at its value (which sits at `depth + 1`).
    /// `field` must consume the value. Keys come back borrowed from the
    /// text unless they contain escapes.
    pub fn each_field(
        &mut self,
        depth: usize,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.check_depth(depth)?;
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// Reads a string, borrowed from the text when it has no escapes.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            let rest = &self.bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            // Both ends sit next to ASCII bytes, so the slice is on char
            // boundaries of the (already valid) UTF-8 text.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        c => {
                            return Err(self.err(format!("bad escape '\\{}'", c as char)));
                        }
                    };
                    s.push(c);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require the low half.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    #[inline]
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        // Fast path: up to 19 plain digits cannot overflow a u64, so the
        // common literal is read in one pass with `str::parse`'s result.
        let mut v = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - start;
        let plain = !matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if (1..=19).contains(&digits) && plain {
            return Ok(Json::U64(v));
        }
        self.pos = start;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err(format!("invalid number '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in ["null", "true", "false", "0", "-7", "18446744073709551615", "\"hi\""] {
            let v = Json::parse(doc).unwrap();
            assert_eq!(v.to_string_compact(), doc, "{doc}");
        }
    }

    #[test]
    fn big_integers_are_exact() {
        let v = Json::parse("9007199254740993").unwrap(); // 2^53 + 1: f64 would lose it
        assert_eq!(v.as_u64(), Some(9007199254740993));
    }

    #[test]
    fn floats_keep_float_ness() {
        let v = Json::parse("3.0").unwrap();
        assert_eq!(v, Json::F64(3.0));
        assert_eq!(v.to_string_compact(), "3.0");
        let v = Json::parse("1e3").unwrap();
        assert_eq!(v.as_f64(), Some(1000.0));
    }

    #[test]
    fn non_finite_serializes_as_null_and_reads_back_nan() {
        assert_eq!(Json::f64(f64::NAN), Json::Null);
        assert_eq!(Json::f64(f64::INFINITY).to_string_compact(), "null");
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn objects_preserve_order_and_nest() {
        let doc = r#"{"b":[1,2,{"c":null}],"a":"x\n\"y\""}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.to_string_compact(), doc);
        assert_eq!(v.get("a").unwrap().as_str(), Some("x\n\"y\""));
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""A😀\t""#).unwrap();
        assert_eq!(v.as_str(), Some("A😀\t"));
        let s = Json::str("tab\tctl\u{1}").to_string_compact();
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("tab\tctl\u{1}"));
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.column > 1);
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn the_writer_places_commas_like_the_tree() {
        let mut w = JsonWriter::new();
        w.begin_object().key("a").begin_array();
        w.u64(1).f64(2.0).str("x\n").bool(false).begin_object().end_object();
        w.begin_array().end_array().value(&Json::Null);
        w.end_array().key("b").f64(f64::NAN).end_object();
        let doc = r#"{"a":[1,2.0,"x\n",false,{},[],null],"b":null}"#;
        assert_eq!(w.finish(), doc);
        assert_eq!(Json::parse(doc).unwrap().to_string_compact(), doc);
    }

    #[test]
    fn the_reader_pulls_what_parse_builds() {
        let doc = " {\"k\":[1, \"s\\u00e9\"], \"skip\":{\"x\":[[]]}, \"n\":-2.5} ";
        let mut r = JsonReader::new(doc);
        let mut seen = Vec::new();
        r.each_field(0, |r, key| {
            match &*key {
                "k" => r.each_item(1, |r| {
                    seen.push(r.value(2)?);
                    Ok(())
                })?,
                "skip" => r.skip(1)?,
                _ => seen.push(r.value(1)?),
            }
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(seen, vec![Json::U64(1), Json::str("s\u{e9}"), Json::F64(-2.5)]);
        // A syntax error met while pulling is the parser's own.
        let bad = "{\"k\":[1,]}";
        let mut r = JsonReader::new(bad);
        let e = r.each_field(0, |r, _| r.skip(1)).unwrap_err();
        assert_eq!(e, Json::parse(bad).unwrap_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }
}
