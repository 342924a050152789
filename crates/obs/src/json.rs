//! The workspace's JSON text codec — the only place under `crates/` and
//! `src/` that reads JSON text or escapes a string into it.
//!
//! **Reading**: [`parse_json`] is one total recursive-descent parser
//! into [`JsonValue`]. Chrome traces ([`parse_chrome`]), journal lines,
//! the `/status` document, flight dumps, `BENCH_compute.json` and the
//! benchmark harness all go through it, so there is one decoder to
//! harden: hostile input returns `Err`, it never panics, and nesting
//! past `MAX_JSON_DEPTH` is an error rather than a stack overflow.
//!
//! **Writing**: emitters keep their own `write!` templates (the
//! documents are flat and their byte layout is pinned by tests and
//! golden files); what they share is how a value becomes JSON text —
//! `JsonStr` for a string literal and `JsonNum` for a float. Both
//! are `Display` adapters, so `write!(out, "{}", JsonStr(s))` appends
//! straight into `out` without an intermediate `String`.
//!
//! [`parse_chrome`]: crate::chrome::parse_chrome

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse_json`] accepts. Every document
/// the workspace emits nests at most five levels; the bound only keeps
/// the recursion — and so the stack — independent of the input.
pub(crate) const MAX_JSON_DEPTH: usize = 128;

/// `Display`s a string as a JSON string literal, quotes included.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        f.write_char('"')?;
        // Everything escaped is ASCII, so the unescaped runs between two
        // escapes are whole characters and are copied as slices.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            f.write_str(&s[run..i])?;
            match b {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                _ => write!(f, "\\u{b:04x}")?,
            }
            run = i + 1;
        }
        f.write_str(&s[run..])?;
        f.write_char('"')
    }
}

/// `Display`s an `f64` as a JSON number, or `null` when it is not
/// finite (JSON has no NaN/Infinity).
#[derive(Debug, Clone, Copy)]
pub(crate) struct JsonNum(pub f64);

impl fmt::Display for JsonNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// A parsed JSON value. Object keys keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A plain non-negative integer literal that fits `u64`, kept exact
    /// (an `f64` holds only 53 bits; seeds and hashes use all 64).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly:
    /// every integer literal up to `u64::MAX`, and other spellings
    /// (`3.0`, `1e3`) whose value is integral and below 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed,
/// trailing garbage rejected). Total: any input returns, none panics.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Scanner {
        src: input,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(value)
}

struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Scanner<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Runs a container parser one level down, refusing to go deeper
    /// than [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        // `text` starts with a digit or '-', so this takes digits only.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::Int(n));
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }

    /// The four hex digits of a `\u` escape; `pos` moves from the `u`
    /// to the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .src
            .get(self.pos + 1..self.pos + 5)
            .and_then(|digits| {
                digits
                    .chars()
                    .try_fold(0, |acc, c| Some(acc * 16 + c.to_digit(16)?))
            })
            .ok_or("invalid \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    /// The scalar a `\u` escape stands for, joining a surrogate pair
    /// (`\ud83d\ude00`); a lone surrogate is an error. `pos` is on the
    /// first `u` and ends on the last hex digit consumed.
    fn unicode_escape(&mut self) -> Result<char, String> {
        const LONE: &str = "lone surrogate in \\u escape";
        let hi = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&hi) {
            if !self.src.as_bytes()[self.pos + 1..].starts_with(b"\\u") {
                return Err(LONE.into());
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(LONE.into());
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| LONE.into())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole; both
            // are ASCII, so the run ends on a character boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err("invalid escape".into()),
                    });
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_handles_nesting_numbers_and_escapes() {
        let doc = parse_json(
            "{\"a\": [1, 2.5, -3], \"b\": {\"c\": \"x\\ny\", \"d\": true, \"e\": null}}",
        )
        .unwrap();
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_u64(), None, "negative is not a u64");
        assert_eq!(a[2].as_f64(), Some(-3.0));
        let b = doc.get("b").unwrap();
        assert_eq!(b.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(b.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(b.get("e"), Some(&JsonValue::Null));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("not json").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn every_escape_decodes_and_the_writer_round_trips() {
        let doc = parse_json(r#""a\"b\\c\/\b\f\n\r\tA é""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c/\u{8}\u{c}\n\r\tA é"));
        for s in ["", "plain", "q\"b\\s", "\n\r\t\u{1}\u{1f}", "é😀\u{7f}"] {
            let text = JsonStr(s).to_string();
            assert_eq!(parse_json(&text).unwrap().as_str(), Some(s), "{text}");
        }
        assert_eq!(
            JsonStr("a\"\\\n\r\t\u{1}é").to_string(),
            "\"a\\\"\\\\\\n\\r\\t\\u0001é\""
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\n\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\ud83d\\ude0\"",
            "\"\\u+041\"",
            "\"\\u12\"",
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integer_literals_are_exact_up_to_u64_max() {
        let exact = |text: &str| parse_json(text).unwrap().as_u64();
        assert_eq!(exact("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(exact("18446744073709551615"), Some(u64::MAX));
        assert_eq!(exact("18446744073709551616"), None, "2^64 does not fit");
        assert_eq!(exact("3.0"), Some(3));
        assert_eq!(exact("1e3"), Some(1000));
        assert_eq!(exact("2.5"), None);
        assert_eq!(exact("-1"), None);
        assert_eq!(
            parse_json("9007199254740993").unwrap().as_f64(),
            Some(9_007_199_254_740_992.0)
        );
    }

    #[test]
    fn non_finite_and_malformed_numbers_are_rejected() {
        for bad in ["1e999", "-1e999", "-", "1e", "1.2.3", "--1", "+1", ".5"] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
        assert_eq!(JsonNum(0.25).to_string(), "0.25");
        assert_eq!(JsonNum(3.0).to_string(), "3");
        assert_eq!(JsonNum(f64::NAN).to_string(), "null");
        assert_eq!(JsonNum(f64::NEG_INFINITY).to_string(), "null");
    }

    #[test]
    fn nesting_is_bounded_not_recursed() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(parse_json(&nest("[", "]", MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&nest("{\"a\":", "}", MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nest("[", "]", MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // What used to abort the process with a stack overflow.
        assert!(parse_json(&"[".repeat(200_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(200_000)).is_err());
        // Width is not depth: siblings do not accumulate.
        let wide = format!("[{}[]]", "[],".repeat(10_000));
        assert_eq!(parse_json(&wide).unwrap().as_arr().unwrap().len(), 10_001);
    }
}
