//! A minimal JSON value type with a recursive-descent parser and
//! deterministic renderers.
//!
//! The workspace has no serde, so every crate that reads or writes JSON
//! artifacts does it through this module: `ca-obs` itself round-trips
//! metrics snapshots through it, `ca-bench` renders result envelopes with
//! it, and `ca-tune` parses machine profiles with it.
//!
//! Determinism rules match the rest of the stack: object keys are kept
//! in insertion order (callers sort when they need canonical output),
//! floats render with Rust's shortest-roundtrip formatting, non-finite
//! floats render as `null`, and integers that fit `i128` are kept exact
//! (a `u64` hash or seed never loses bits to an `f64` detour).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Jv {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Jv>),
    /// An object, keys in source / insertion order.
    Obj(Vec<(String, Jv)>),
}

impl Jv {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Jv, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Jv> {
        match self {
            Jv::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (`Int` widened through `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Jv::Int(i) => Some(*i as f64),
            Jv::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Exact unsigned view of an `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Jv::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Jv::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Jv]> {
        match self {
            Jv::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_obj(&self) -> Option<&[(String, Jv)]> {
        match self {
            Jv::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation (the committed-artifact
    /// format of `ca-bench` payloads).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Jv::Null => out.push_str("null"),
            Jv::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Jv::Int(i) => out.push_str(&i.to_string()),
            Jv::Num(x) => out.push_str(&crate::metrics::json_f64(*x)),
            Jv::Str(s) => out.push_str(&crate::metrics::json_string(s)),
            Jv::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Jv::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    out.push_str(&crate::metrics::json_string(k));
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at offset {pos}"))
    }
}

/// Arrays and objects nested deeper than this are refused: the parser
/// recurses once per level, so an unbounded depth would let a document
/// overflow the stack.
const MAX_DEPTH: usize = 256;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Jv, String> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Jv::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Jv::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Jv::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Jv::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Jv::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Jv::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Jv::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Jv::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut cp = hex4(b, *pos + 1)
                            .ok_or_else(|| format!("bad \\u escape at offset {pos}"))?;
                        *pos += 4;
                        // a high surrogate followed by an escaped low one is
                        // one code point; an unpaired surrogate is U+FFFD
                        if (0xD800..0xDC00).contains(&cp) && b[*pos + 1..].starts_with(b"\\u") {
                            if let Some(lo @ 0xDC00..0xE000) = hex4(b, *pos + 3) {
                                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // copy the longest run of plain bytes in one go (UTF-8 safe:
                // multibyte sequences never contain '"' or '\\')
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| "invalid UTF-8".to_string())?,
                );
            }
        }
    }
}

/// The code unit of the four hex digits at `b[at..at + 4]`.
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4)?.iter().try_fold(0, |cp, &c| Some(cp * 16 + char::from(c).to_digit(16)?))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Jv, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid UTF-8".to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected number at offset {start}"));
    }
    if !fractional {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Jv::Int(i));
        }
    }
    text.parse::<f64>().map(Jv::Num).map_err(|_| format!("bad number '{text}' at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let src = r#"{"a": [1, -2.5, null, true, "x\ny"], "b": {"c": 9601566090225566363}}"#;
        let v = Jv::parse(src).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_u64(), Some(9601566090225566363));
        let re = Jv::parse(&v.render()).unwrap();
        assert_eq!(v, re);
        let re = Jv::parse(&v.render_pretty()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn big_integers_stay_exact() {
        let v = Jv::parse("18446744073709551615").unwrap();
        assert_eq!(v, Jv::Int(u64::MAX as i128));
        assert_eq!(v.render(), "18446744073709551615");
    }

    #[test]
    fn floats_render_shortest() {
        assert_eq!(Jv::Num(1.5).render(), "1.5");
        assert_eq!(Jv::Num(f64::NAN).render(), "null");
        assert_eq!(Jv::parse("1e3").unwrap(), Jv::Num(1000.0));
    }

    #[test]
    fn pretty_format_is_stable() {
        let v = Jv::Obj(vec![
            ("k".into(), Jv::Arr(vec![Jv::Int(1), Jv::Int(2)])),
            ("e".into(), Jv::Obj(vec![])),
        ]);
        assert_eq!(v.render_pretty(), "{\n  \"k\": [\n    1,\n    2\n  ],\n  \"e\": {}\n}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Jv::parse("{\"a\": }").is_err());
        assert!(Jv::parse("[1, 2").is_err());
        assert!(Jv::parse("12 34").is_err());
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        let err = Jv::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Jv::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Jv::parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(Jv::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn escaped_surrogate_pair_is_one_code_point() {
        assert_eq!(Jv::parse(r#""\ud83d\ude00""#).unwrap(), Jv::Str("\u{1F600}".into()));
        // unpaired halves stay U+FFFD, and the character after them is kept
        assert_eq!(Jv::parse(r#""\ud83dx""#).unwrap(), Jv::Str("\u{fffd}x".into()));
        assert_eq!(Jv::parse(r#""\ude00\ud83d""#).unwrap(), Jv::Str("\u{fffd}\u{fffd}".into()));
        assert_eq!(Jv::parse(r#""\ud83d\u0041""#).unwrap(), Jv::Str("\u{fffd}A".into()));
    }

    #[test]
    fn unicode_escape_needs_four_hex_digits() {
        assert_eq!(Jv::parse(r#""\u0041""#).unwrap(), Jv::Str("A".into()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u004""#, r#""\u00 41""#, r#""\u"#] {
            assert!(Jv::parse(bad).is_err(), "{bad}");
        }
    }
}
