//! Minimal JSON reader shared by the observability tooling.
//!
//! The repo carries no external deps (PR 1), so every JSON artifact
//! the suite itself produces — stage profiles, metrics series, Chrome
//! traces — is read back with this small recursive-descent parser. It
//! covers exactly the subset the exporters emit: objects, arrays,
//! strings without escapes, booleans, and non-negative integers.
//! Anything outside that subset is a parse error, which doubles as a
//! regression guard: an exporter that starts emitting floats or
//! escaped strings breaks its own round-trip tests.

/// A parsed JSON value (exporter subset; see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// A string (no escape sequences).
    Str(String),
    /// A non-negative integer.
    Num(u64),
    /// `true` or `false`.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source field order (duplicate keys keep the
    /// first occurrence on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field `key` of an object (`None` for other variants or a
    /// missing key).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String field `key`, or an error naming the missing field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing string field {key:?}")),
        }
    }

    /// Integer field `key`, or an error naming the missing field.
    pub fn num_field(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("missing integer field {key:?}")),
        }
    }

    /// The array items (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The integer value (`None` for non-numbers).
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// exporters nest at most four levels; the cap keeps the recursive
/// descent from overflowing the stack on hostile input.
const MAX_DEPTH: usize = 64;

/// Parses one JSON value from `text`, requiring only trailing
/// whitespace after it.
///
/// # Errors
///
/// Returns a byte-offset description of the first construct outside
/// the exporter subset (floats, escapes, `null`, negative numbers),
/// of arrays and objects nested more than 64 deep, or of any
/// malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser::new(text);
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing input at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", self.pos));
            }
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("integer at byte {start}: {e}"))
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected input at byte {}", self.pos))
        }
    }

    /// Parses one value that sits inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'{') => {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        other => return Err(format!("expected ',' or '}}', found {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("expected ',' or ']', found {other:?}")),
                    }
                }
            }
            Some(b) if b.is_ascii_digit() => Ok(Json::Num(self.number()?)),
            other => Err(format!("unexpected input at byte {}: {other:?}", self.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = parse("{\"a\":[1,2,{\"b\":\"x\"}],\"c\":true}").unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].str_field("b"),
            Ok("x")
        );
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_outside_subset() {
        assert!(parse("{\"a\":1.5}").is_err(), "floats");
        assert!(parse("{\"a\":-1}").is_err(), "negative");
        assert!(parse("{\"a\":null}").is_err(), "null");
        assert!(parse("{\"a\":\"x\\n\"}").is_err(), "escapes");
        assert!(parse("{} junk").is_err(), "trailing input");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let deep_objects = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_objects)
            .unwrap_err()
            .starts_with("nesting deeper"));
        // Exactly MAX_DEPTH levels still parse.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
    }

    #[test]
    fn first_duplicate_key_wins() {
        let doc = parse("{\"a\":1,\"a\":2}").unwrap();
        assert_eq!(doc.num_field("a"), Ok(1));
    }
}
