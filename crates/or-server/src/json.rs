//! A minimal JSON encoder/decoder — exactly the subset the server's
//! request/response bodies need, with no dependencies (the build
//! environment is offline, so `serde` is not an option).
//!
//! Decoding accepts any standard JSON document (objects, arrays, strings
//! with escapes, integer and fractional numbers, `true`/`false`/`null`).
//! Encoding is driven through [`Json`] constructors plus its `Display`
//! impl (`to_string()`), or member by member through [`ObjectWriter`]
//! when a member is streamed; object member order is preserved, strings
//! are escaped per RFC 8259.

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers survive up to `i64` precision via
    /// [`Json::as_u64`]-style accessors.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, member order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value.
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse a JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::trailing(parser.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                let mut object = ObjectWriter::new(f)?;
                for (key, value) in members {
                    object.member(key, value)?;
                }
                object.end()
            }
        }
    }
}

/// Writes one JSON object member by member, in exactly the bytes
/// [`Json::Obj`]'s `Display` writes (which is built on it), so a response
/// can stream a member straight into its body instead of building a
/// [`Json`] value first.
pub struct ObjectWriter<'a, W: fmt::Write> {
    out: &'a mut W,
    members: usize,
}

impl<'a, W: fmt::Write> ObjectWriter<'a, W> {
    /// Open an object in `out`.
    pub fn new(out: &'a mut W) -> Result<ObjectWriter<'a, W>, fmt::Error> {
        out.write_char('{')?;
        Ok(ObjectWriter { out, members: 0 })
    }

    fn key(&mut self, key: &str) -> fmt::Result {
        if self.members > 0 {
            self.out.write_char(',')?;
        }
        self.members += 1;
        write_escaped(self.out, key)?;
        self.out.write_char(':')
    }

    /// Write the member `key: value`.
    pub fn member(&mut self, key: &str, value: &Json) -> fmt::Result {
        self.key(key)?;
        write!(self.out, "{value}")
    }

    /// Write a string member whose contents `write` streams through an
    /// escaping writer: the bytes of `member(key, &Json::str(text))` for
    /// the `text` it writes, without that `String`.
    pub fn str_member(
        &mut self,
        key: &str,
        write: impl FnOnce(&mut Escaped<'_, W>) -> fmt::Result,
    ) -> fmt::Result {
        self.key(key)?;
        self.out.write_char('"')?;
        write(&mut Escaped(self.out))?;
        self.out.write_char('"')
    }

    /// Close the object.
    pub fn end(self) -> fmt::Result {
        self.out.write_char('}')
    }
}

/// A writer that JSON-escapes everything written through it into the
/// wrapped writer: the inside of a string literal, for
/// [`ObjectWriter::str_member`].
pub struct Escaped<'a, W: fmt::Write>(&'a mut W);

impl<W: fmt::Write> fmt::Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape(self.0, s)
    }
}

fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    escape(out, s)?;
    out.write_char('"')
}

/// Escape `s` per RFC 8259 into `out`: `"` and `\` by a backslash, `\n`,
/// `\r` and `\t` by name, every other control character as `\u00xx`.
/// Each run of bytes that needs no escape goes out in one `write_str`;
/// every byte that does is ASCII, so the runs split on character
/// boundaries.
fn escape<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let named = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if named.is_empty() {
            write!(out, "\\u{byte:04x}")?;
        } else {
            out.write_str(named)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// A JSON parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl JsonError {
    fn new(message: impl Into<String>, at: usize) -> JsonError {
        JsonError {
            message: message.into(),
            at,
        }
    }

    fn trailing(at: usize) -> JsonError {
        JsonError::new("trailing characters after the document", at)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest.  The parser recurses once per
/// level, so without a bound a small body of `[`s overflows the thread's
/// stack and aborts the process; no request the server understands nests
/// more than a few levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                format!("expected `{}`", byte as char),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!("expected `{text}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(JsonError::new(
                format!("nested deeper than {MAX_DEPTH} levels"),
                self.pos,
            )),
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new("expected a JSON value", self.pos)),
        }
    }

    /// Parse one array or object one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(JsonError::new("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(JsonError::new("unterminated string", self.pos));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(escape) = self.peek() else {
                        return Err(JsonError::new("unterminated escape", self.pos));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError::new("invalid \\u escape", self.pos))?;
                            self.pos += 4;
                            // surrogate pairs: a high surrogate must be
                            // followed by `\uDC00..DFFF`
                            let code = if (0xD800..0xDC00).contains(&hex) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(JsonError::new("lone high surrogate", self.pos));
                                }
                                self.pos += 2;
                                let low = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| {
                                        JsonError::new("invalid \\u escape", self.pos)
                                    })?;
                                self.pos += 4;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::new("invalid low surrogate", self.pos));
                                }
                                0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                hex
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| {
                                    JsonError::new("invalid code point", self.pos)
                                })?,
                            );
                        }
                        _ => return Err(JsonError::new("unknown escape", self.pos)),
                    }
                }
                _ => {
                    // copy the full UTF-8 sequence starting here
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| JsonError::new("invalid UTF-8", start))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| JsonError::new("invalid number", start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_request_body() {
        let body = r#"{"db": "example", "statement": "{ x | x <- db, x <= 2 }",
                       "budget": {"denotations": 100, "time_ms": 250}}"#;
        let parsed = Json::parse(body).unwrap();
        assert_eq!(parsed.get("db").unwrap().as_str(), Some("example"));
        assert_eq!(
            parsed.get("statement").unwrap().as_str(),
            Some("{ x | x <- db, x <= 2 }")
        );
        let budget = parsed.get("budget").unwrap();
        assert_eq!(budget.get("denotations").unwrap().as_u64(), Some(100));
        assert_eq!(budget.get("time_ms").unwrap().as_u64(), Some(250));
        // re-encode → re-parse is stable
        assert_eq!(Json::parse(&parsed.to_string()).unwrap(), parsed);
    }

    #[test]
    fn escapes_survive_the_round_trip() {
        let original = Json::obj([("s", Json::str("a \"quoted\"\nline\twith \\ and ünïcode"))]);
        let reparsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(reparsed, original);
        // escaped input decodes
        let decoded = Json::parse(r#""Aé😀""#).unwrap();
        assert_eq!(decoded.as_str(), Some("Aé😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "\"unterminated",
            "nul",
            "{}extra",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    /// Deep nesting is a parse error, not a stack overflow: a 100 000-deep
    /// array on a default-stack thread returns `Err`, and nesting up to
    /// the limit still parses.
    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = std::thread::spawn(|| Json::parse(&"[".repeat(100_000)))
            .join()
            .expect("parsing must not overflow the stack");
        let err = deep.unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past_limit = format!("[{at_limit}]");
        assert!(Json::parse(&past_limit).is_err());
    }

    /// The escaper as it was, one `write!` per character: the reference
    /// the run-based escaper matches byte for byte.
    fn escaped_per_char(s: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => write!(out, "\\\"").unwrap(),
                '\\' => write!(out, "\\\\").unwrap(),
                '\n' => write!(out, "\\n").unwrap(),
                '\r' => write!(out, "\\r").unwrap(),
                '\t' => write!(out, "\\t").unwrap(),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => write!(out, "{c}").unwrap(),
            }
        }
        out.push('"');
        out
    }

    /// Every control character, quotes, backslashes, DEL, `/`, and 2-, 3-
    /// and 4-byte UTF-8, by index.
    fn piece(k: u32) -> char {
        match k {
            0..=0x1f => char::from_u32(k).unwrap(),
            0x20 => '"',
            0x21 => '\\',
            0x22 => '\u{7f}',
            0x23 => '/',
            0x24 => 'é',
            0x25 => '€',
            0x26 => '😀',
            0x27 => '\u{2028}',
            _ => char::from_u32(u32::from(b'a') + k % 26).unwrap(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 256,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Escaping a run at a time writes what escaping a character at a
        /// time wrote, and the parser reads the string back.
        #[test]
        fn run_escaping_matches_per_character_escaping(
            picks in proptest::collection::vec(0u32..0x30, 0..40)
        ) {
            let s: String = picks.into_iter().map(piece).collect();
            let json = Json::str(s.as_str()).to_string();
            proptest::prop_assert_eq!(&json, &escaped_per_char(&s));
            proptest::prop_assert_eq!(Json::parse(&json).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn every_control_character_escapes_as_before() {
        let s: String = (0..0x30).map(piece).collect();
        let json = Json::str(s.as_str()).to_string();
        assert_eq!(json, escaped_per_char(&s));
        assert!(json.contains(r"\u0000") && json.contains(r"\u001f") && json.contains(r"\n"));
        assert_eq!(Json::parse(&json).unwrap(), Json::Str(s));
    }

    /// A streamed string member writes the bytes of the `Json` member.
    #[test]
    fn object_writer_streams_the_bytes_json_writes() {
        let text = "{(1, \"a\\\\b\"), (2, \"café\")}";
        let mut body = String::new();
        let mut object = ObjectWriter::new(&mut body).unwrap();
        object.member("ok", &Json::Bool(true)).unwrap();
        object
            .str_member("value", |out| {
                use std::fmt::Write as _;
                // in pieces, as a renderer writes
                text.split_inclusive(',')
                    .try_for_each(|piece| out.write_str(piece))
            })
            .unwrap();
        object.member("bound", &Json::Null).unwrap();
        object.end().unwrap();
        let built = Json::obj([
            ("ok", Json::Bool(true)),
            ("value", Json::str(text)),
            ("bound", Json::Null),
        ]);
        assert_eq!(body, built.to_string());
    }

    #[test]
    fn arrays_booleans_and_null_parse() {
        let parsed = Json::parse(r#"[true, false, null, -2.5, []]"#).unwrap();
        let Json::Arr(items) = &parsed else {
            panic!("expected array")
        };
        assert_eq!(items.len(), 5);
        assert_eq!(items[0].as_bool(), Some(true));
        assert_eq!(items[3], Json::Num(-2.5));
    }
}
