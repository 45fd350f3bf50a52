//! The one JSON value type every report artifact is built from, with its
//! writer and reader.
//!
//! Numbers are kept as the token they are written with: integers via
//! `to_string`, floats with a fixed number of decimals (six by default,
//! `null` when not finite). So `parse` followed by `Display` reproduces a
//! canonical document byte for byte, and readers convert to `f64` only
//! when they ask ([`Json::as_f64`]).
//!
//! Layout is decided by one rule inside the writer, so call sites never
//! choose it: an array of scalars goes on one line; an object that is an
//! array item and holds no array goes on one line; every other container
//! puts one member per line with a two-space indent.

use std::fmt;

/// A JSON value. Object members keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, held as its written token (a valid JSON number).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append the member `key: value` to this object.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::with on a non-object: {other:?}"),
        }
        self
    }

    /// `x` with `decimals` digits after the point, or `null` when `x` is
    /// not finite.
    pub(crate) fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// The member bound to `key`, when `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items of an array; empty for any other value.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The value of a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn holds_array(&self) -> bool {
        match self {
            Json::Arr(_) => true,
            Json::Obj(fields) => fields.iter().any(|(_, v)| v.holds_array()),
            _ => false,
        }
    }

    /// The layout rule: does this value go on one line?
    fn one_line(&self, is_item: bool) -> bool {
        match self {
            Json::Arr(items) => items.iter().all(Json::is_scalar),
            Json::Obj(fields) => fields.is_empty() || (is_item && !self.holds_array()),
            _ => true,
        }
    }

    /// Write in flat form (`indent == None`) or one member per line,
    /// members `indent + 1` levels deep.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(token) => return f.write_str(token),
            Json::Str(s) => return write_string(f, s),
            Json::Arr(items) => ("[", "]", items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                "{",
                "}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let is_arr = matches!(self, Json::Arr(_));
        f.write_str(open)?;
        for (i, (key, v)) in members.into_iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match indent {
                Some(d) => write!(f, "\n{:1$}", "", 2 * (d + 1))?,
                None if i > 0 => f.write_str(" ")?,
                None => {}
            }
            if let Some(k) = key {
                write_string(f, k)?;
                f.write_str(": ")?;
            }
            let child = indent.filter(|_| !v.one_line(is_arr)).map(|d| d + 1);
            v.write(f, child)?;
        }
        if let Some(d) = indent {
            write!(f, "\n{:1$}", "", 2 * d)?;
        }
        f.write_str(close)
    }
}

/// Writes the value in the canonical layout, without a trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, (!self.one_line(false)).then_some(0))
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

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

/// Six decimals, or `null` when not finite.
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::fixed(x, 6)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}

from_int!(u32, u64, usize, i64);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Why a document did not parse, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which reading failed.
    pub offset: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Read one JSON document; anything but whitespace after it is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != text.len() {
        return Err(p.err("trailing bytes"));
    }
    Ok(v)
}

/// Recursive-descent reader over the input bytes; `i` is the cursor.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError {
            offset: self.i,
            what,
        }
    }

    fn ws(&mut self) {
        let b = self.s.as_bytes();
        while b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let k = self.string()?;
                    if !self.eat(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    fields.push((k, self.value()?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            b'-' | b'0'..=b'9' => {
                let start = self.i;
                let b = self.s.as_bytes();
                while b
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                let token = &self.s[start..self.i];
                if token.parse::<f64>().is_err() {
                    self.i = start;
                    return Err(self.err("bad number"));
                }
                Ok(Json::Num(token.to_string()))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn word(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    /// A string literal; the cursor is on its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let b = self.s.as_bytes();
        let mut out = String::new();
        let mut run = self.i;
        loop {
            match b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    let c = match b.get(self.i) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            // Basic-plane code points only: the writer
                            // escapes nothing outside the control range.
                            let hex = self.s.get(self.i + 1..self.i + 5);
                            let c = hex
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            c
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.i += 1;
                    run = self.i;
                }
                Some(c) if *c < b' ' => return Err(self.err("control character in string")),
                Some(_) => self.i += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, 2.5, {"b": "x", "c": null, "d": true}], "e": -3e2}"#).unwrap();
        assert_eq!(doc.get("e").unwrap().as_f64(), Some(-300.0));
        let arr = doc.get("a").unwrap().items();
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(arr[2].get("c"), Some(&Json::Null));
        assert_eq!(arr[2].get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_trailing_bytes_and_dangling_commas() {
        assert_eq!(parse("{} extra").unwrap_err().offset, 3);
        assert_eq!(parse("[1,]").unwrap_err().offset, 3);
        assert_eq!(parse(r#"{"a": 1,}"#).unwrap_err().offset, 8);
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"a\nb\"").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn layout_rule() {
        let doc = Json::object()
            .with("n", 1u64)
            .with("xs", [1u64, 2].into_iter().collect::<Json>())
            .with("empty", Vec::<u64>::new().into_iter().collect::<Json>())
            .with(
                "rows",
                [Json::object()
                    .with("a", 0.5)
                    .with("b", Json::object().with("c", "d"))]
                .into_iter()
                .chain([Json::object().with("ys", Json::Arr(vec![Json::Null]))])
                .collect::<Json>(),
            )
            .with("inner", Json::object().with("k", f64::NAN));
        let want = r#"{
  "n": 1,
  "xs": [1, 2],
  "empty": [],
  "rows": [
    {"a": 0.500000, "b": {"c": "d"}},
    {
      "ys": [null]
    }
  ],
  "inner": {
    "k": null
  }
}"#;
        assert_eq!(doc.to_string(), want);
        assert_eq!(parse(want).unwrap(), doc);
    }

    #[test]
    fn strings_are_escaped() {
        let s = "q\"b\\n\nt\tc\u{1}é";
        let text = Json::from(s).to_string();
        assert_eq!(text, r#""q\"b\\n\nt\tc\u0001é""#);
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
        assert_eq!(
            parse(r#""\/\b\fé""#).unwrap().as_str(),
            Some("/\u{8}\u{c}é")
        );
    }

    /// A random tree drawn from `seed`: every value kind, strings over
    /// an alphabet of quotes, backslashes, control and non-ASCII
    /// characters, and floats that may be infinite or NaN.
    fn tree(seed: u64) -> Json {
        fn next(s: &mut u64) -> u64 {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *s >> 33
        }
        fn text(s: &mut u64) -> String {
            const ALPHABET: [char; 10] =
                ['a', 'Z', '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', 'é', '/'];
            (0..next(s) % 6)
                .map(|_| ALPHABET[(next(s) % 10) as usize])
                .collect()
        }
        fn value(s: &mut u64, depth: u32) -> Json {
            let kinds = if depth >= 4 { 6 } else { 8 };
            match next(s) % kinds {
                0 => Json::Null,
                1 => Json::Bool(next(s) % 2 == 0),
                2 => Json::from(next(s) << 20),
                3 => Json::from(-(next(s) as i64)),
                4 => {
                    let x = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -2.5e-7]
                        [(next(s) % 5) as usize];
                    Json::from(if next(s) % 2 == 0 {
                        x
                    } else {
                        next(s) as f64 / 7.0
                    })
                }
                5 => Json::Str(text(s)),
                6 => (0..next(s) % 4).map(|_| value(s, depth + 1)).collect(),
                _ => Json::Obj(
                    (0..next(s) % 4)
                        .map(|_| (text(s), value(s, depth + 1)))
                        .collect(),
                ),
            }
        }
        let mut s = seed;
        value(&mut s, 0)
    }

    proptest! {
        #[test]
        fn prop_round_trip(seed in any::<u64>()) {
            let t = tree(seed);
            let text = t.to_string();
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            prop_assert_eq!(&back, &t);
            prop_assert_eq!(back.to_string(), text);
        }
    }

    #[test]
    fn non_finite_floats_are_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(x), Json::Null);
            assert_eq!(Json::fixed(x, 3).to_string(), "null");
        }
        assert_eq!(Json::fixed(2.0 / 3.0, 3).to_string(), "0.667");
    }
}
