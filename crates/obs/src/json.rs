//! The workspace's one JSON: value tree, parser, writer, string
//! escaper and number rule, shared by the [`Journal`](crate::Journal)'s
//! event fields, the ingest checkpoint blobs and the jobs work-dir
//! protocol.
//!
//! The workspace builds offline and deliberately carries no serde; a
//! small, deterministic subset is all it needs — objects keep insertion
//! order so identical states serialize to identical bytes, which the
//! checkpoint round-trip and wire-golden tests rely on.
//!
//! Reading and writing are linear in the document. The parser copies a
//! string's runs between quotes and escapes whole (its input is a
//! `&str`, so nothing is validated twice) and reads an integer of at most
//! 15 digits by folding them; the writer prints a non-negative integral
//! value below 2⁵³ from its integer digits ([`decimal`]). Each shortcut
//! gives exactly what the general path it skips gives — char-at-a-time
//! decoding, `str::parse::<f64>`, `f64`'s `Display` — and the tests hold
//! it to that path as an oracle.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds a number from a `usize` (lossless for the sizes used
    /// here).
    pub fn usize(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Appends the compact wire form (no whitespace) to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Total on any input: malformed text,
    /// including arrays/objects nested more than 64 deep, is an `Err`.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }
}

/// Serializes to compact JSON (no whitespace) — `to_string()` gives the
/// wire form directly.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// 2⁵³: every integer below it is exactly an `f64`, and `Display` prints
/// such a value as its integer digits.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// The one number rule, at every nesting depth: `f64`'s `Display` —
/// the shortest decimal that parses back to the same value, no
/// fraction on integral values (`4`, not `4.0`), never an exponent. A
/// non-negative integral value below 2⁵³ is printed from its integer
/// digits, which are what `Display` prints for it.
fn write_number(n: f64, out: &mut String) {
    if n.is_sign_positive() && n < EXACT_INTEGERS && n.fract() == 0.0 {
        out.push_str(decimal(n as u64, &mut [0; 20]));
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null"); // JSON has no NaN/Inf
    }
}

/// The decimal digits of `n`, written into the tail of `buf` and
/// returned: the integer printer of the JSON number rule and of the
/// structured log `logparse_core` writes.
pub fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

/// `text` as a number when it is an optional `-` and 1 to 15 decimal
/// digits: below 2⁵³, so folding the digits is exact and gives what
/// `str::parse::<f64>` gives, bit for bit (`-0` and leading zeros
/// included). Anything else is `None`, for the `f64` parser.
fn integer(text: &str) -> Option<f64> {
    let digits = text.strip_prefix('-').unwrap_or(text);
    if digits.is_empty() || digits.len() > 15 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let n = digits
        .bytes()
        .fold(0u64, |n, b| n * 10 + u64::from(b - b'0')) as f64;
    Some(if digits.len() < text.len() { -n } else { n })
}

/// The one string escaper: `s` quoted, with `"`, `\\` and control
/// characters escaped.
pub(crate) fn write_string(s: &str, out: &mut String) {
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

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document this workspace writes has 4 levels (Drain's `leaves`); the
/// cap turns a hostile or damaged file into an `Err` where unbounded
/// recursion would overflow the stack and abort the process.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The document; `bytes` is the same text as bytes.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} at {}", self.pos));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = self.text.get(start..self.pos).unwrap_or("");
        if let Some(n) = integer(text) {
            return Ok(Json::Num(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote or backslash, copied whole:
            // both are ASCII, so the run ends on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |len| self.pos + len);
            out.push_str(self.text.get(self.pos..run).ok_or("invalid UTF-8")?);
            self.pos = run;
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("dangling escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let unit = self.hex4()?;
                    let code = if (0xD800..0xDC00).contains(&unit) {
                        // surrogate pair
                        self.expect_byte(b'\\')?;
                        self.expect_byte(b'u')?;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(format!("unpaired surrogate \\u{unit:04x}"));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    } else {
                        unit
                    };
                    out.push(
                        char::from_u32(code).ok_or_else(|| format!("bad \\u escape {code:#x}"))?,
                    );
                }
                _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".into())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let value = Json::Obj(vec![
            ("name".into(), Json::str("drain")),
            ("tau".into(), Json::num(0.5)),
            ("count".into(), Json::usize(42)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "groups".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::str("send"), Json::Null]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let value = Json::str("a \"b\"\n\\c\tδ");
        let text = value.to_string();
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::usize(12345).to_string(), "12345");
        assert_eq!(Json::num(0.25).to_string(), "0.25");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parses_whitespace_and_unicode_escapes() {
        let parsed = Json::parse(" { \"a\" : [ 1 , \"\\u00e9\\ud83d\\ude00\" ] } ").unwrap();
        let arr = parsed.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_usize(), Some(1));
        assert_eq!(arr[1].as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        // A high surrogate needs a low one: below the range the
        // subtraction used to underflow (a panic under overflow checks,
        // U+2441 without), above it the sum named the wrong character.
        for low in ["\\u0041", "\\ue000", "\\ud800", ""] {
            assert!(Json::parse(&format!("\"\\ud800{low}\"")).is_err(), "{low}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |depth: usize| "[".repeat(depth) + "{}" + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH - 1)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
        // Depth counts open containers, not containers seen.
        assert!(Json::parse(&format!("[{}[]]", "[],".repeat(10 * MAX_DEPTH))).is_ok());
    }

    /// xorshift64*: this crate takes no dependency, not even proptest,
    /// so the oracle tests draw their cases from a fixed-seed generator.
    struct Rng(u64);

    impl Rng {
        fn step(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.step() % n as u64) as usize
        }
    }

    #[test]
    fn write_number_equals_display_on_finite_values() {
        let two_53 = EXACT_INTEGERS;
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            0.1,
            123.456,
            -7.25,
            two_53 - 1.0,
            two_53,
            two_53 + 1.0,
            two_53 + 2.0,
            -(two_53 - 1.0),
            u64::MAX as f64,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
        ];
        for exponent in 15..=21 {
            let p = 10f64.powi(exponent);
            values.extend([p - 1.0, p, p + 1.0, p + 0.5, -p]);
        }
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..20_000 {
            values.push(f64::from_bits(rng.step()));
            values.push((rng.step() >> 11) as f64);
            values.push(rng.below(1 << 20) as f64);
            values.push(rng.below(1 << 20) as f64 / 1024.0);
        }
        for n in values.into_iter().filter(|n| n.is_finite()) {
            let mut out = String::new();
            write_number(n, &mut out);
            assert_eq!(out, format!("{n}"), "{n:e}");
        }
    }

    #[test]
    fn integer_text_parses_like_the_f64_parser() {
        let mut cases: Vec<String> = [
            "0",
            "-0",
            "007",
            "-007",
            "9",
            "10",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "12345678901234567",
            "-12345678901234567",
            "00000000000000000001",
            "-",
            "--1",
            "1-",
            "0.5",
            "1e5",
            "-0.0",
        ]
        .map(String::from)
        .to_vec();
        let mut rng = Rng(7);
        for _ in 0..20_000 {
            let digits: String = (0..1 + rng.below(18))
                .map(|_| char::from(b'0' + rng.below(10) as u8))
                .collect();
            cases.push(if rng.below(2) == 0 {
                digits
            } else {
                format!("-{digits}")
            });
        }
        for text in &cases {
            let ours = Json::parse(text).ok().and_then(|n| n.as_f64());
            let std = text.parse::<f64>().ok();
            assert_eq!(ours.map(f64::to_bits), std.map(f64::to_bits), "{text}");
        }
    }

    /// The previous string decoder, one character at a time with the
    /// rest of the document re-validated for each: the oracle
    /// `Parser::string` is held to.
    fn string_char_at_a_time(p: &mut Parser) -> Result<String, String> {
        p.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let b = p.peek().ok_or("unterminated string")?;
            p.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = p.peek().ok_or("dangling escape")?;
                    p.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = p.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&unit) {
                                p.expect_byte(b'\\')?;
                                p.expect_byte(b'u')?;
                                let low = p.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("unpaired surrogate \\u{unit:04x}"));
                                }
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                unit
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u escape {code:#x}"))?,
                            );
                        }
                        _ => return Err(format!("bad escape at offset {}", p.pos - 1)),
                    }
                }
                _ => {
                    p.pos -= 1;
                    let rest = std::str::from_utf8(&p.bytes[p.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    #[test]
    fn string_decoding_equals_the_char_at_a_time_decoder() {
        const PIECES: &[&str] = &[
            "a",
            "Z",
            " ",
            "é",
            "中",
            "😀",
            "\u{7f}",
            "\u{1}",
            "\t",
            "\n",
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u00e9",
            "\\u0000",
            "\\ud83d\\ude00",
            "\\uD83D\\uDE00",
            "\\x",
            "\\u12",
            "\\ud800\\u0041",
            "\\ud800",
            "\\udc00",
            "\\uzzzz",
            "\\",
            "\"",
        ];
        let mut rng = Rng(0x0123_4567_89ab_cdef);
        for _ in 0..20_000 {
            let mut doc = String::from("\"");
            for _ in 0..rng.below(12) {
                if rng.below(4) == 0 {
                    // Any scalar value; a draw in the surrogate gap adds none.
                    doc.extend(char::from_u32(rng.below(0x11_0000) as u32));
                } else {
                    doc.push_str(PIECES[rng.below(PIECES.len())]);
                }
            }
            if rng.below(4) != 0 {
                doc.push('"');
            }
            doc.push_str(",1");
            let (mut ours, mut theirs) = (Parser::new(&doc), Parser::new(&doc));
            assert_eq!(ours.string(), string_char_at_a_time(&mut theirs), "{doc:?}");
            assert_eq!(ours.pos, theirs.pos, "{doc:?}");
        }
    }
}
