//! The workspace's one JSON reader (it builds offline with no serde):
//! a [`Json`] value, a recursive-descent parser covering the whole
//! grammar the artifacts use — objects, arrays, numbers, UTF-8 strings
//! with every escape including `\uXXXX`, bools, null — and the
//! matching string [`escape`]. Run reports, Chrome traces, and the
//! bench artifacts are all read through it.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always read as f64).
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON document.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, when this is one (or a bool, read as 0/1 — the
    /// gate treats `digest_match` as a 0/1 metric).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{').then_some(())?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':').then_some(())?;
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.eat(b'}').then_some(())?;
            return Some(Json::Obj(fields));
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[').then_some(())?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.eat(b']').then_some(())?;
            return Some(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"').then_some(())?;
        let mut out = String::new();
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return None,
                    }
                }
                _ => {
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| *b != b'"' && *b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
            .map(Json::Num)
    }
}

/// Escapes `s` for embedding between double quotes in a JSON document:
/// quotes, backslashes, and every control character (as `\n`, `\t`,
/// `\r`, or `\u00XX`), so the output is valid JSON whatever the input.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_every_value_shape() {
        let doc = Json::parse(r#"{"a":[1,2.5e1,{"b":"x\ny"}],"t":true,"n":null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[1], Json::Num(25.0));
        assert_eq!(doc.get("t").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert!(Json::parse(r#"{"a":}"#).is_none());
        assert!(Json::parse("[1,2] trailing").is_none());
        assert!(Json::parse("").is_none());
    }

    #[test]
    fn strings_survive_escape_then_parse() {
        for s in [
            "plain",
            "tab\there",
            "q\"b\\s\n\r",
            "caf\u{e9} \u{4e16}\u{754c}",
            "\u{1}\u{1f}",
        ] {
            let doc = Json::parse(&format!("\"{}\"", escape(s))).unwrap();
            assert_eq!(doc.as_str(), Some(s), "{s:?}");
        }
        // Escapes the writer never emits still decode.
        assert_eq!(
            Json::parse(r#""\u00e9\/\b\f""#).unwrap().as_str(),
            Some("\u{e9}/\u{8}\u{c}")
        );
    }
}
