//! A lightweight recursive-descent item parser over [`crate::lexer`].
//!
//! amlint v2's cross-file rules (R6–R9) need more structure than a flat
//! token stream: *which function does this token belong to*, *what type
//! is this method implemented on*, and *did the author annotate this
//! item as a hot-path root or a cold escape hatch*. This module
//! recovers exactly that much structure — per-file item trees of
//! functions and the impl blocks that own them — and deliberately no
//! more. It is not a Rust parser; it is a brace-matching walk that is
//! precise about the three things the rules consume:
//!
//! 1. every `fn` item with its name, body token range, and line,
//! 2. the innermost `impl` type owning each method,
//! 3. `// amlint: hot` / `// amlint: cold` annotations bound to items.
//!
//! Annotation binding: a comment on its **own line** binds to the next
//! `fn` item starting within 3 lines (attributes in between are fine).
//! A trailing comment, or a leading comment with no `fn` nearby, is a
//! *line-level* annotation instead — it blesses the construct on that
//! line (or the line below, mirroring suppression placement).

use crate::lexer::{Comment, Lexed, TokKind, Token};
use crate::rules::test_spans;

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Type name of the innermost enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Line of the `fn` keyword token.
    pub line: u32,
    /// Token index range of the body including the outer braces,
    /// `[start, end)`. `None` for bodiless declarations (trait method
    /// signatures, extern fns).
    pub body: Option<(usize, usize)>,
    /// Inside a `#[cfg(test)]` / `#[test]` span.
    pub is_test: bool,
    /// Annotated `// amlint: hot` — a hot-path root for R6/R8.
    pub hot: bool,
    /// Annotated `// amlint: cold` at fn level — reachability stops
    /// here; the whole fn is off the hot path by declaration.
    pub cold: bool,
}

/// Line-level annotation left over after fn binding: blesses a single
/// construct site as cold (R6/R8) without excusing a whole function.
#[derive(Debug, Clone)]
pub struct ColdLine {
    pub line: u32,
    /// Text after `--` in the annotation, the "why" shown in reports.
    pub reason: Option<String>,
}

/// Everything the cross-file rules need from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub cold_lines: Vec<ColdLine>,
}

impl ParsedFile {
    /// Is `line` blessed by a line-level `// amlint: cold`? Matches the
    /// annotation's own line or the line directly below it (same
    /// placement rules as `allow(...)` suppressions).
    pub fn line_is_cold(&self, line: u32) -> bool {
        self.cold_line(line).is_some()
    }

    /// The blessing annotation covering `line`, if any.
    pub fn cold_line(&self, line: u32) -> Option<&ColdLine> {
        self.cold_lines
            .iter()
            .find(|c| c.line == line || c.line + 1 == line)
    }
}

/// Keywords that can directly precede `(` or `[` without forming a
/// call/index expression, plus everything we must never treat as a
/// callee name.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
];

pub fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// Index one past the `}` matching the `{` at `open` (or `tokens.len()`
/// if unbalanced).
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Skip a generic argument list starting at a `<` token; returns the
/// index one past the matching `>`. Handles `>>` closing two levels
/// (`Vec<Vec<u8>>` lexes the tail as one token). Bails at `{` / `;` so
/// a stray comparison operator cannot swallow the file.
pub fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "{" | ";" => return i,
            _ => {}
        }
        i += 1;
        if depth <= 0 {
            return i;
        }
    }
    tokens.len()
}

/// Scan `impl` blocks: `(body_start_tok, body_end_tok, type_name)`.
/// The type name is the last path segment of the implemented-on type —
/// the segment after `for` in a trait impl, the head type otherwise.
fn scan_impls(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind == TokKind::Ident && tokens[i].text == "impl" {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.text == "<") {
                j = skip_angles(tokens, j);
            }
            let mut name: Option<String> = None;
            while j < tokens.len() {
                let t = &tokens[j];
                match t.text.as_str() {
                    "{" => break,
                    ";" => break, // `impl Trait for Type;`-like degenerate input
                    "for" => {
                        name = None;
                        j += 1;
                    }
                    "where" => {
                        // Type is settled; scan forward to the body.
                        while j < tokens.len() && tokens[j].text != "{" {
                            j += 1;
                        }
                        break;
                    }
                    "<" => j = skip_angles(tokens, j),
                    _ => {
                        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
                            name = Some(t.text.clone());
                        }
                        j += 1;
                    }
                }
            }
            if j < tokens.len() && tokens[j].text == "{" {
                let end = match_brace(tokens, j);
                if let Some(name) = name {
                    out.push((j, end, name));
                }
                // Do not skip the body: nested impls (rare) and the fns
                // inside are found by the main walk.
            }
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
    out
}

/// Does a comment carry the given amlint marker (`hot` / `cold`)?
fn has_marker(c: &Comment, marker: &str) -> bool {
    c.text
        .find("amlint:")
        .map(|at| {
            let rest = c.text[at + "amlint:".len()..].trim_start();
            rest == marker
                || rest.starts_with(&format!("{marker} "))
                || rest.starts_with(&format!("{marker}\t"))
                || rest.starts_with(&format!("{marker}--"))
        })
        .unwrap_or(false)
}

/// The `-- why` tail of an annotation comment.
fn marker_reason(text: &str) -> Option<String> {
    text.split_once("--")
        .map(|(_, why)| why.trim().trim_end_matches("*/").trim().to_string())
        .filter(|w| !w.is_empty())
}

/// Parse one file into its item tree.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let tokens = &lexed.tokens;
    let spans = test_spans(tokens);
    let in_test = |line: u32| spans.iter().any(|&(s, e)| line >= s && line <= e);
    let impls = scan_impls(tokens);

    // A comment is "leading" when no token shares its start line —
    // those are item-annotation candidates; trailing comments are
    // always line-level.
    let mut line_has_code = std::collections::HashSet::new();
    for t in tokens.iter() {
        line_has_code.insert(t.line);
    }

    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokKind::Ident && t.text == "fn" {
            let name = match tokens.get(i + 1) {
                Some(n) if n.kind == TokKind::Ident && !is_keyword(&n.text) => n.text.clone(),
                _ => {
                    // `fn(u32) -> u32` pointer type or malformed input.
                    i += 1;
                    continue;
                }
            };
            let mut j = i + 2;
            let mut body = None;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "{" => {
                        body = Some((j, match_brace(tokens, j)));
                        break;
                    }
                    ";" => break,
                    "<" => j = skip_angles(tokens, j),
                    _ => j += 1,
                }
            }
            let impl_type = impls
                .iter()
                .rfind(|(s, e, _)| *s < i && i < *e)
                .map(|(_, _, n)| n.clone());
            fns.push(FnItem {
                name,
                impl_type,
                line: t.line,
                body,
                is_test: in_test(t.line),
                hot: false,
                cold: false,
            });
        }
        i += 1;
    }

    // Bind hot/cold annotations. Leading comments bind to the first fn
    // whose `fn` token sits within the next 3 lines; everything else
    // (trailing comments, unbound cold markers) becomes line-level.
    let mut cold_lines = Vec::new();
    for c in &lexed.comments {
        let hot = has_marker(c, "hot");
        let cold = has_marker(c, "cold");
        if !hot && !cold {
            continue;
        }
        let leading = !line_has_code.contains(&c.start_line);
        let bound = if leading {
            fns.iter_mut()
                .find(|f| f.line >= c.end_line && f.line <= c.end_line + 3)
        } else {
            None
        };
        match bound {
            Some(f) => {
                f.hot |= hot;
                f.cold |= cold;
            }
            None => {
                if cold {
                    cold_lines.push(ColdLine {
                        line: c.end_line,
                        reason: marker_reason(&c.text),
                    });
                }
                // A dangling `hot` annotation binds nothing — the
                // snapshot's `hot_roots` diff catches roots that
                // silently detached.
            }
        }
    }

    ParsedFile { fns, cold_lines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_free_and_impl_fns() {
        let src = r#"
            pub fn free_fn(x: u32) -> u32 { x }
            struct Widget;
            impl Widget {
                pub fn method(&self) -> u32 { 1 }
            }
            impl Clone for Widget {
                fn clone(&self) -> Self { Widget }
            }
        "#;
        let p = parse(&lex(src));
        let names: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free_fn", None),
                ("method", Some("Widget")),
                ("clone", Some("Widget")),
            ]
        );
    }

    #[test]
    fn generic_impls_resolve_to_the_for_type() {
        let src = r#"
            impl<T: Clone> From<Vec<T>> for Holder<T> {
                fn from(v: Vec<T>) -> Self { Holder(v) }
            }
            impl<C> Runner<C> where C: Send {
                fn run(&self) {}
            }
        "#;
        let p = parse(&lex(src));
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Holder"));
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("Runner"));
    }

    #[test]
    fn hot_and_cold_bind_to_items_or_lines() {
        let src = r#"
            // amlint: hot
            pub fn ingest(&mut self) {}

            // amlint: cold
            #[inline(never)]
            fn slow_path() {}

            fn mixed(v: &mut Vec<u8>) {
                v.push(1); // amlint: cold -- amortized
            }
        "#;
        let p = parse(&lex(src));
        assert!(p.fns[0].hot && !p.fns[0].cold);
        assert!(p.fns[1].cold && !p.fns[1].hot);
        assert!(!p.fns[2].hot && !p.fns[2].cold);
        assert!(p.line_is_cold(10), "trailing cold is line-level");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "static F: fn(u32) -> u32 = id; fn id(x: u32) -> u32 { x }";
        let p = parse(&lex(src));
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "id");
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n #[test]\n fn check() {}\n}";
        let p = parse(&lex(src));
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }
}
