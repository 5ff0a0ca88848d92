//! A small self-contained Rust lexer: just enough fidelity for the
//! amlint rules.
//!
//! The lexer produces a flat token stream with line numbers plus a
//! side-channel of comments (rules need comments for `// SAFETY:` and
//! `// amlint: allow(..)` handling, but no rule should ever match
//! *inside* one). It understands the parts of the language where a
//! naive scanner would misfire:
//!
//! * line and (nested) block comments,
//! * string / raw-string / byte-string literals (`"…"`, `r#"…"#`,
//!   `b"…"`) and char literals vs. lifetimes (`'a'` vs `'a`),
//! * multi-character operators (`==`, `!=`, `->`, `..=`, …) so rules
//!   can tell `-` from `->`,
//! * float vs. integer literals (R3 keys on float literals) without
//!   swallowing range expressions like `0..2`.
//!
//! It is *not* a parser: rules operate on token adjacency plus a
//! brace-matching pass, which is exactly the level of rigor the five
//! invariants need.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Int,
    Float,
    Str,
    Char,
    Lifetime,
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// One comment (line or block), with the line span it covers.
#[derive(Debug, Clone)]
pub struct Comment {
    pub start_line: u32,
    pub end_line: u32,
    pub text: String,
}

/// Lexer output: tokens plus comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Multi-character punctuation, longest first so greedy matching works.
const MULTI_PUNCT: &[&str] = &[
    "..=", "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lex `source` into tokens and comments. The lexer never fails: on a
/// malformed construct it degrades to single-character punctuation,
/// which at worst makes a rule miss — it never aborts the whole lint.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < bytes.len() {
        let c = bytes[i] as char;

        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }

        // Line comment.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            out.comments.push(Comment {
                start_line: line,
                end_line: line,
                text: source[start..i].to_string(),
            });
            continue;
        }

        // Block comment (nested).
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let start = i;
            let start_line = line;
            let mut depth = 1u32;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            out.comments.push(Comment {
                start_line,
                end_line: line,
                text: source[start..i.min(bytes.len())].to_string(),
            });
            continue;
        }

        // Raw / byte string prefixes: r"…", r#"…"#, b"…", br#"…"#.
        if (c == 'r' || c == 'b') && is_string_prefix(bytes, i) {
            let (consumed, newlines) = lex_prefixed_string(bytes, i);
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: String::new(), // rules never look inside strings
                line,
            });
            line += newlines;
            i += consumed;
            continue;
        }

        // Plain string literal.
        if c == '"' {
            let (consumed, newlines) = lex_quoted(bytes, i, b'"');
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            line += newlines;
            i += consumed;
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            if let Some(consumed) = char_literal_len(bytes, i) {
                out.tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                i += consumed;
            } else {
                // Lifetime: 'ident
                let mut j = i + 1;
                while j < bytes.len() && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: source[i..j].to_string(),
                    line,
                });
                i = j;
            }
            continue;
        }

        // Identifier / keyword.
        if is_ident_start(bytes[i]) {
            let mut j = i + 1;
            while j < bytes.len() && is_ident_continue(bytes[j]) {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text: source[i..j].to_string(),
                line,
            });
            i = j;
            continue;
        }

        // Number literal.
        if bytes[i].is_ascii_digit() {
            let (j, kind) = lex_number(bytes, i);
            out.tokens.push(Token {
                kind,
                text: source[i..j].to_string(),
                line,
            });
            i = j;
            continue;
        }

        // Punctuation: longest operator first.
        let rest = &source[i..];
        let mut matched = false;
        for op in MULTI_PUNCT {
            if rest.starts_with(op) {
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (*op).to_string(),
                    line,
                });
                i += op.len();
                matched = true;
                break;
            }
        }
        if !matched {
            out.tokens.push(Token {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += c.len_utf8();
        }
    }

    out
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || (b as char).is_ascii_alphabetic()
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || (b as char).is_ascii_alphanumeric()
}

/// Does `r`/`b` at `i` start a (raw/byte) string literal rather than an
/// identifier like `raw_bytes`?
fn is_string_prefix(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'r' {
        j += 1;
        while j < bytes.len() && bytes[j] == b'#' {
            j += 1;
        }
    }
    // After optional b / r## prefix there must be an opening quote, and
    // the prefix must not be part of a longer identifier (e.g. `rows`).
    j < bytes.len() && bytes[j] == b'"' && j > i
}

/// Length in bytes + newline count of a string starting with `b`/`r`
/// prefixes at `i`.
fn lex_prefixed_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    let raw = j < bytes.len() && bytes[j] == b'r';
    let mut hashes = 0usize;
    if raw {
        j += 1;
        while j < bytes.len() && bytes[j] == b'#' {
            hashes += 1;
            j += 1;
        }
    }
    debug_assert!(j < bytes.len() && bytes[j] == b'"');
    if raw {
        // Scan to `"` followed by `hashes` '#' characters, no escapes.
        j += 1;
        let mut newlines = 0u32;
        while j < bytes.len() {
            if bytes[j] == b'\n' {
                newlines += 1;
                j += 1;
            } else if bytes[j] == b'"' && bytes[j + 1..].iter().take(hashes).all(|&b| b == b'#') {
                j += 1 + hashes;
                return (j - i, newlines);
            } else {
                j += 1;
            }
        }
        (j - i, newlines)
    } else {
        let (consumed, newlines) = lex_quoted(bytes, j, b'"');
        (j - i + consumed, newlines)
    }
}

/// Length + newlines of a quoted literal with escape handling, starting
/// at the opening quote.
fn lex_quoted(bytes: &[u8], i: usize, quote: u8) -> (usize, u32) {
    let mut j = i + 1;
    let mut newlines = 0u32;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            b if b == quote => {
                j += 1;
                return (j - i, newlines);
            }
            _ => j += 1,
        }
    }
    (j - i, newlines)
}

/// If `'` at `i` begins a char literal, its byte length; `None` means
/// it is a lifetime.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escaped char: scan to closing quote.
        let mut j = i + 2;
        if j < bytes.len() {
            j += 1; // the escaped character itself
        }
        // \u{…} escapes.
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
        return (bytes.get(j) == Some(&b'\'')).then_some(j + 1 - i);
    }
    // 'x' is a char literal; 'x (no closing quote) is a lifetime. A
    // multi-byte UTF-8 scalar is also possible; find the next quote
    // within a few bytes.
    for (j, &b) in bytes
        .iter()
        .enumerate()
        .take((i + 6).min(bytes.len()))
        .skip(i + 2)
    {
        if b == b'\'' {
            return Some(j + 1 - i);
        }
        if b & 0x80 != 0x80 && j == i + 2 {
            break;
        }
    }
    if is_ident_start(next) {
        None // lifetime
    } else {
        Some(2) // degenerate; treat as punctuation-ish char
    }
}

/// Lex a number starting at a digit. Returns end index and kind. Floats
/// require a digit after the dot (so `0..2` stays two ints and a
/// range), or an exponent, or an explicit f32/f64 suffix.
fn lex_number(bytes: &[u8], i: usize) -> (usize, TokKind) {
    let mut j = i;
    let mut kind = TokKind::Int;
    // Radix prefixes never produce floats.
    if bytes[j] == b'0' && matches!(bytes.get(j + 1), Some(b'x' | b'b' | b'o')) {
        j += 2;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        return (j, TokKind::Int);
    }
    while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
        j += 1;
    }
    if j + 1 < bytes.len() && bytes[j] == b'.' && bytes[j + 1].is_ascii_digit() {
        kind = TokKind::Float;
        j += 1;
        while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
            j += 1;
        }
    }
    if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
        let mut k = j + 1;
        if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
            k += 1;
        }
        if k < bytes.len() && bytes[k].is_ascii_digit() {
            kind = TokKind::Float;
            j = k;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
                j += 1;
            }
        }
    }
    // Type suffix (u32, i64, f64, usize, …).
    let suffix_start = j;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    if bytes[suffix_start..j].starts_with(b"f32") || bytes[suffix_start..j].starts_with(b"f64") {
        kind = TokKind::Float;
    }
    (j, kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn operators_lex_greedily() {
        assert_eq!(
            texts("a == b -> c - d"),
            ["a", "==", "b", "->", "c", "-", "d"]
        );
        assert_eq!(texts("0..2"), ["0", "..", "2"]);
    }

    #[test]
    fn floats_vs_ranges() {
        let lexed = lex("let x = 1.5 + 2e9; let r = 0..10; let f = 3f64;");
        let floats: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Float)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(floats, ["1.5", "2e9", "3f64"]);
    }

    #[test]
    fn comments_are_side_channel() {
        let lexed = lex("let a = 1; // amlint: allow(R2) -- reason\n/* block\nspan */ let b = 2;");
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("allow(R2)"));
        assert_eq!(lexed.comments[1].start_line, 2);
        assert_eq!(lexed.comments[1].end_line, 3);
        assert!(lexed.tokens.iter().all(|t| t.text != "allow"));
    }

    #[test]
    fn strings_and_chars_do_not_leak_tokens() {
        let lexed = lex(r#"let s = "unwrap() - tstamp"; let c = '-'; let r = r"a - b";"#);
        assert!(lexed
            .tokens
            .iter()
            .all(|t| t.text != "unwrap" && t.text != "tstamp"));
        let minus = lexed.tokens.iter().filter(|t| t.text == "-").count();
        assert_eq!(minus, 0);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* outer /* inner */ still */ after");
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].text, "after");
    }
}
