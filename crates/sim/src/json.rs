//! A minimal JSON value, writer, and parser (in-repo `serde` replacement).
//!
//! The bench harness emits machine-readable `BENCH_*.json` reports. The
//! schema is flat and small, so instead of a serialization framework the
//! workspace carries this ~150-line module: a [`Json`] value type with a
//! compact renderer, a [`ToJson`] conversion trait for the report row
//! structs, and a recursive-descent [`Json::parse`] used by tests to check
//! that what was written reads back field-for-field.
//!
//! Numbers are `f64` rendered via Rust's shortest-round-trip `Display`, so
//! parse(render(x)) is exact for every finite value; NaN and infinities
//! render as `null` (JSON has no spelling for them).
//!
//! # Examples
//!
//! ```
//! use fbuf_sim::json::{Json, ToJson};
//!
//! let report = Json::obj(vec![
//!     ("bench", "table1".to_json()),
//!     ("median_us", 3.0.to_json()),
//! ]);
//! let text = report.render();
//! assert_eq!(text, r#"{"bench":"table1","median_us":3}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("median_us").unwrap().as_f64(), Some(3.0));
//! ```

/// A JSON value. Object keys keep insertion order (reports stay diffable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}
impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}
impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}
impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}
impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}
impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}
impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if !v.is_finite() {
                    out.push_str("null");
                } else if *v == v.trunc() && v.abs() < 9e15 {
                    out.push_str(&format!("{}", *v as i64));
                } else {
                    out.push_str(&format!("{v}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict enough for this workspace's reports:
    /// no comments, no trailing commas; `\uXXXX` escapes supported).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut p = Parser { s: &bytes, i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at char {}", p.i));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [char],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: char) -> Result<(), String> {
        if self.i < self.s.len() && self.s[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{c}' at char {}", self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.eat(c)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some('n') => self.lit("null", Json::Null),
            Some('t') => self.lit("true", Json::Bool(true)),
            Some('f') => self.lit("false", Json::Bool(false)),
            Some('"') => self.string().map(Json::Str),
            Some('[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value()?);
                    self.ws();
                    if self.s.get(self.i) == Some(&',') {
                        self.i += 1;
                    } else {
                        self.eat(']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some('{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&'}') {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(':')?;
                    self.ws();
                    pairs.push((k, self.value()?));
                    self.ws();
                    if self.s.get(self.i) == Some(&',') {
                        self.i += 1;
                    } else {
                        self.eat('}')?;
                        return Ok(Json::Obj(pairs));
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        '"' | '\\' | '/' => out.push(e),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            if self.i + 4 > self.s.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex: String = self.s[self.i..self.i + 4].iter().collect();
                            self.i += 4;
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
        {
            self.i += 1;
        }
        let text: String = self.s[start..self.i].iter().collect();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at char {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compactly() {
        let v = Json::obj(vec![
            ("a", 1.5.to_json()),
            ("b", vec![1u64, 2, 3].to_json()),
            ("c", Json::Null),
            ("d", true.to_json()),
        ]);
        assert_eq!(v.render(), r#"{"a":1.5,"b":[1,2,3],"c":null,"d":true}"#);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(285.0).render(), "285");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn round_trips_through_parse() {
        let v = Json::obj(vec![
            ("bench", "fig5".to_json()),
            ("mbps", 284.7.to_json()),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![
                    ("label", "user-user".to_json()),
                    ("p10", 249.6.to_json()),
                ])]),
            ),
        ]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"a\\u0041\" , null ] } ").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("aA"));
        assert_eq!(arr[2], Json::Null);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }
}
