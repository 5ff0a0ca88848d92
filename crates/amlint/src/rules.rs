//! The five amlint rules, evaluated over the token stream.
//!
//! Every rule is a lexical/structural approximation of a project
//! invariant (see README.md § "Static analysis & invariants"):
//!
//! * **R1** — no `unwrap()` / `expect()` / `panic!` / `todo!` /
//!   `unimplemented!` in hot-path modules outside `#[cfg(test)]`.
//! * **R2** — arithmetic on 32-bit INT ingress/egress timestamps must
//!   use `wrapping_*` operations (the paper's INT report carries 32-bit
//!   ns counters that wrap every ~4.3 s). Keys on identifiers that
//!   contain `tstamp` or `stamp32`.
//! * **R3** — no direct `==` / `!=` against floating-point literals
//!   (feature values are f64; exact comparison is how unclamped NaN and
//!   ULP noise sneak into the ensemble vote).
//! * **R4** — no lock guard held across a channel `.send(` / `.recv(`
//!   in the threaded runtime (`runtime.rs`, `modules.rs`, …): a blocked
//!   bounded channel plus a held lock is the classic pipeline deadlock.
//! * **R5** — `unsafe` only in `shims/`, and every occurrence there
//!   must carry a `// SAFETY:` comment.
//!
//! Rules run on tokens — never inside comments or string literals — and
//! skip `#[cfg(test)]` / `#[test]` items where noted.

use crate::lexer::{Comment, Lexed, TokKind, Token};
use crate::{Diagnostic, FileClass};

/// Hot-path modules for R1 (workspace-relative path suffixes). The
/// sFlow agent and datagram codec joined the list when the telemetry-
/// generic event layer put them on the live ingest path; the ingest
/// server and the mailbox it publishes through joined when the socket
/// front end made them the first thing a wire datagram touches.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/pipeline.rs",
    "crates/core/src/runtime.rs",
    "crates/core/src/modules.rs",
    "crates/core/src/source.rs",
    "crates/core/src/event.rs",
    "crates/core/src/db.rs",
    "crates/core/src/mailbox.rs",
    "crates/core/src/epoch.rs",
    "crates/core/src/drift.rs",
    "crates/features/src/sharded.rs",
    "crates/features/src/table.rs",
    "crates/ingest/src/lib.rs",
    "crates/int/src/hops.rs",
    "crates/int/src/report.rs",
    "crates/int/src/collector.rs",
    "crates/int/src/metadata.rs",
    "crates/sflow/src/agent.rs",
    "crates/sflow/src/datagram.rs",
];

/// Files where R4 (lock-across-send) applies.
const R4_FILES: &[&str] = &[
    "crates/core/src/runtime.rs",
    "crates/core/src/modules.rs",
    "crates/core/src/epoch.rs",
    "crates/core/src/source.rs",
    "crates/core/src/event.rs",
    "crates/core/src/mailbox.rs",
    "crates/ingest/src/lib.rs",
    "crates/sflow/src/agent.rs",
    "crates/sflow/src/datagram.rs",
];

/// Is this file part of the detection hot path (R1 scope)?
pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATH_FILES.contains(&rel) || rel.starts_with("crates/ml/src/")
}

/// Does R4 apply to this file?
pub fn r4_applies(rel: &str) -> bool {
    R4_FILES.contains(&rel)
}

/// Inclusive line spans covered by `#[cfg(test)]` / `#[test]` items.
pub fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // Match an outer attribute `#[ … ]` (skip inner `#![ … ]`).
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            let (attr_end, is_test) = scan_attr(tokens, i + 1);
            if is_test {
                // Skip any further attributes between this one and the item.
                let mut j = attr_end;
                while j < tokens.len()
                    && tokens[j].text == "#"
                    && tokens.get(j + 1).is_some_and(|t| t.text == "[")
                {
                    let (next_end, _) = scan_attr(tokens, j + 1);
                    j = next_end;
                }
                let end = item_end(tokens, j);
                let start_line = tokens[i].line;
                let end_line = tokens
                    .get(end.saturating_sub(1))
                    .map_or(start_line, |t| t.line);
                spans.push((start_line, end_line));
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    spans
}

/// Scan an attribute starting at its `[` token; returns (index one past
/// the closing `]`, attribute-mentions-test).
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut is_test = false;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, is_test);
                }
            }
            // `test` marks a test item — except under `not(test)`,
            // which marks the opposite.
            "test" if tokens[j].kind == TokKind::Ident => {
                let negated = j >= 2 && tokens[j - 1].text == "(" && tokens[j - 2].text == "not";
                if !negated {
                    is_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    (j, is_test)
}

/// One past the end of the item starting at `start`: the matching `}`
/// of the first top-level brace, or the first top-level `;`.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut brace = 0i32;
    let mut entered = false;
    let mut j = start;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" => {
                brace += 1;
                entered = true;
            }
            "}" => {
                brace -= 1;
                if entered && brace == 0 {
                    return j + 1;
                }
            }
            ";" if !entered && brace == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    j
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Evaluate every applicable rule; returns raw (pre-suppression)
/// diagnostics.
pub fn check(rel: &str, class: FileClass, lexed: &Lexed) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let spans = test_spans(tokens);
    let mut diags = Vec::new();

    let lib_code = class == FileClass::Library;

    if lib_code && is_hot_path(rel) {
        r1_no_panics(rel, tokens, &spans, &mut diags);
    }
    if lib_code {
        r2_wrapping_timestamps(rel, tokens, &spans, &mut diags);
        r3_no_float_eq(rel, tokens, &spans, &mut diags);
    }
    if lib_code && r4_applies(rel) {
        r4_no_lock_across_channel(rel, tokens, &spans, &mut diags);
    }
    // R5 applies everywhere, tests included: unsafe in a test is still
    // unsafe, and shim tests need SAFETY comments like shim code does.
    r5_unsafe_policy(rel, class, tokens, &lexed.comments, &mut diags);

    diags.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    diags
}

fn diag(rel: &str, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: rel.to_string(),
        line,
        rule,
        message,
        suppressed: false,
        suppress_reason: None,
    }
}

/// R1: panicking constructs in hot-path modules.
fn r1_no_panics(rel: &str, tokens: &[Token], spans: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_spans(spans, t.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
        let next = tokens.get(i + 1).map(|n| n.text.as_str());
        match t.text.as_str() {
            "unwrap" | "expect" if prev == Some(".") && next == Some("(") => {
                out.push(diag(
                    rel,
                    t.line,
                    "R1",
                    format!(
                        "`.{}()` in hot-path module: return a typed error or add a suppression",
                        t.text
                    ),
                ));
            }
            "panic" | "todo" | "unimplemented" if next == Some("!") => {
                out.push(diag(
                    rel,
                    t.line,
                    "R1",
                    format!("`{}!` in hot-path module outside #[cfg(test)]", t.text),
                ));
            }
            _ => {}
        }
    }
}

/// Does an identifier name a 32-bit INT timestamp?
fn is_timestamp_ident(t: &Token) -> bool {
    t.kind == TokKind::Ident && (t.text.contains("tstamp") || t.text.contains("stamp32"))
}

/// Non-wrapping integer methods R2 forbids on timestamps.
const NON_WRAPPING_METHODS: &[&str] = &[
    "checked_sub",
    "checked_add",
    "saturating_sub",
    "saturating_add",
    "overflowing_sub",
    "overflowing_add",
];

/// R2: timestamp arithmetic must wrap.
fn r2_wrapping_timestamps(
    rel: &str,
    tokens: &[Token],
    spans: &[(u32, u32)],
    out: &mut Vec<Diagnostic>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if !is_timestamp_ident(t) || in_spans(spans, t.line) {
            continue;
        }
        // Struct-field init / declaration (`egress_tstamp: …`) is not
        // arithmetic; `::` paths are.
        if tokens.get(i + 1).is_some_and(|n| n.text == ":") {
            continue;
        }

        // ident(.method)* chain endings: `.checked_sub(` etc.
        if tokens.get(i + 1).is_some_and(|n| n.text == ".")
            && tokens
                .get(i + 2)
                .is_some_and(|m| NON_WRAPPING_METHODS.contains(&m.text.as_str()))
        {
            out.push(diag(
                rel,
                t.line,
                "R2",
                format!(
                    "`{}` on 32-bit INT timestamp `{}`: use the wrapping_* equivalent (stamps wrap every ~4.3 s)",
                    tokens[i + 2].text, t.text
                ),
            ));
            continue;
        }

        // Binary +/- with the timestamp as the *right* operand, allowing
        // a field chain on the left of the ident (`x - h.egress_tstamp`).
        let mut left = i;
        while left >= 2 && tokens[left - 1].text == "." && tokens[left - 2].kind == TokKind::Ident {
            left -= 2;
        }
        if left >= 1 && is_plain_add_sub(&tokens[left - 1]) {
            out.push(diag(
                rel,
                t.line,
                "R2",
                format!(
                    "non-wrapping `{}` on 32-bit INT timestamp `{}`: use wrapping_sub/wrapping_add",
                    tokens[left - 1].text,
                    t.text
                ),
            ));
            continue;
        }

        // Binary +/- (or -=, +=) with the timestamp as the *left*
        // operand, allowing an `as <type>` cast in between.
        let mut right = i + 1;
        if tokens.get(right).is_some_and(|n| n.text == "as")
            && tokens
                .get(right + 1)
                .is_some_and(|n| n.kind == TokKind::Ident)
        {
            right += 2;
        }
        if tokens.get(right).is_some_and(is_plain_add_sub) {
            out.push(diag(
                rel,
                t.line,
                "R2",
                format!(
                    "non-wrapping `{}` on 32-bit INT timestamp `{}`: use wrapping_sub/wrapping_add",
                    tokens[right].text, t.text
                ),
            ));
        }
    }
}

fn is_plain_add_sub(t: &Token) -> bool {
    matches!(t.text.as_str(), "-" | "+" | "-=" | "+=")
}

/// R3: exact equality against float literals.
fn r3_no_float_eq(rel: &str, tokens: &[Token], spans: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") || in_spans(spans, t.line)
        {
            continue;
        }
        let float_left = i
            .checked_sub(1)
            .is_some_and(|p| tokens[p].kind == TokKind::Float);
        // Right side may carry a unary sign: `x == -1.0`.
        let mut r = i + 1;
        if tokens
            .get(r)
            .is_some_and(|n| n.text == "-" || n.text == "+")
        {
            r += 1;
        }
        let float_right = tokens.get(r).is_some_and(|n| n.kind == TokKind::Float);
        // `x == f64::NAN` is always false — a special, always-wrong case.
        let nan = tokens
            .get(i + 1)
            .zip(tokens.get(i + 3))
            .is_some_and(|(a, b)| {
                a.kind == TokKind::Ident && tokens[i + 2].text == "::" && b.text == "NAN"
            });
        if float_left || float_right || nan {
            out.push(diag(
                rel,
                t.line,
                "R3",
                format!(
                    "exact `{}` against a floating-point value: compare with a tolerance or use total_cmp / is_nan",
                    t.text
                ),
            ));
        }
    }
}

/// Guard-acquiring methods on the parking_lot shim types.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// R4: no lock guard live across a channel send/recv.
fn r4_no_lock_across_channel(
    rel: &str,
    tokens: &[Token],
    spans: &[(u32, u32)],
    out: &mut Vec<Diagnostic>,
) {
    for (i, t) in tokens.iter().enumerate() {
        let acquires = t.kind == TokKind::Ident
            && GUARD_METHODS.contains(&t.text.as_str())
            && i >= 1
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|n| n.text == "(")
            && tokens.get(i + 2).is_some_and(|n| n.text == ")");
        if !acquires || in_spans(spans, t.line) {
            continue;
        }

        // Find the binding name: statement looks like `let [mut] g = …`.
        // Walk back to the previous `;` / `{` / `}` and inspect.
        let mut s = i;
        while s > 0 && !matches!(tokens[s - 1].text.as_str(), ";" | "{" | "}") {
            s -= 1;
        }
        let bound_name = if tokens.get(s).is_some_and(|t| t.text == "let") {
            let mut n = s + 1;
            if tokens.get(n).is_some_and(|t| t.text == "mut") {
                n += 1;
            }
            tokens
                .get(n)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
        } else {
            None
        };

        // Guard lifetime: a named guard lives to the end of the current
        // block (or an explicit `drop(name)`); a temporary guard dies at
        // the end of the statement.
        let mut depth = 0i32;
        let mut j = i + 3; // past `( )`
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break; // end of enclosing block
                    }
                }
                ";" if bound_name.is_none() && depth == 0 => break,
                "drop"
                    if bound_name.is_some()
                        && tokens.get(j + 1).is_some_and(|n| n.text == "(")
                        && tokens
                            .get(j + 2)
                            .is_some_and(|n| Some(&n.text) == bound_name.as_ref()) =>
                {
                    break
                }
                "send" | "recv"
                    if tokens[j].kind == TokKind::Ident
                        && tokens[j - 1].text == "."
                        && tokens.get(j + 1).is_some_and(|n| n.text == "(") =>
                {
                    out.push(diag(
                        rel,
                        tokens[j].line,
                        "R4",
                        format!(
                            "channel `.{}(` while the {} guard acquired on line {} is still live: drop the guard first (bounded channels block; a held lock makes that a deadlock)",
                            tokens[j].text,
                            bound_name.as_deref().map_or_else(
                                || "temporary".to_string(),
                                |n| format!("`{n}`")
                            ),
                            t.line
                        ),
                    ));
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// R5: unsafe containment + SAFETY comments.
fn r5_unsafe_policy(
    rel: &str,
    class: FileClass,
    tokens: &[Token],
    comments: &[Comment],
    out: &mut Vec<Diagnostic>,
) {
    for t in tokens {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if class != FileClass::Shim {
            out.push(diag(
                rel,
                t.line,
                "R5",
                "`unsafe` outside shims/: the detection crates are #![forbid(unsafe_code)] territory"
                    .to_string(),
            ));
            continue;
        }
        let blessed = comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.end_line <= t.line && c.end_line + 2 >= t.line
        });
        if !blessed {
            out.push(diag(
                rel,
                t.line,
                "R5",
                "`unsafe` in shims/ without a `// SAFETY:` comment on the preceding lines"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel: &str, class: FileClass, src: &str) -> Vec<Diagnostic> {
        check(rel, class, &lex(src))
    }

    const HOT: &str = "crates/ml/src/tree.rs";

    #[test]
    fn test_spans_cover_cfg_test_mods() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn x() { a.unwrap(); }\n}\n";
        let lexed = lex(src);
        let spans = test_spans(&lexed.tokens);
        assert_eq!(spans, vec![(2, 5)]);
    }

    #[test]
    fn r1_skips_test_regions() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let d = run(HOT, FileClass::Library, src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "R1");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn r1_only_fires_in_hot_paths() {
        let src = "fn live() { x.unwrap(); }";
        assert!(run("crates/sim/src/engine.rs", FileClass::Library, src).is_empty());
        assert_eq!(run(HOT, FileClass::Library, src).len(), 1);
    }

    #[test]
    fn r1_catches_macros_but_not_lookalikes() {
        let src =
            "fn f() { panic!(\"x\"); todo!(); std::panic::catch_unwind(|| {}); v.unwrap_or(0); }";
        let d = run(HOT, FileClass::Library, src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == "R1"));
    }

    #[test]
    fn r2_flags_plain_and_checked_arithmetic() {
        let src = "fn f(h: &Hop) -> u32 { let a = h.egress_tstamp - h.ingress_tstamp; \
                   let b = h.egress_tstamp.checked_sub(1).unwrap_or(0); a + b }";
        let d = run("crates/int/src/metadata.rs", FileClass::Library, src);
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"R2"), "got {d:?}");
        // plain `-` (left operand), plain `-` (right operand), checked_sub
        assert_eq!(d.iter().filter(|d| d.rule == "R2").count(), 3, "{d:?}");
    }

    #[test]
    fn r2_allows_wrapping_and_field_init() {
        let src = "fn f(h: &Hop) -> u32 { let m = Hop { egress_tstamp: 7, ingress_tstamp: 3 }; \
                   h.egress_tstamp.wrapping_sub(h.ingress_tstamp) }";
        let d = run("crates/int/src/metadata.rs", FileClass::Library, src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r2_allows_cast_then_wrap_but_flags_cast_then_sub() {
        let flagged = "fn f(s: u32, t: u64) -> u64 { let x = last_tstamp as u64 - t; x }";
        let d = run("crates/int/src/report.rs", FileClass::Library, flagged);
        assert_eq!(d.iter().filter(|d| d.rule == "R2").count(), 1, "{d:?}");
    }

    #[test]
    fn r3_flags_float_literal_equality() {
        let src = "fn f(x: f64) -> bool { x == 0.0 || 1.5 != x }";
        let d = run("crates/features/src/stats.rs", FileClass::Library, src);
        assert_eq!(d.iter().filter(|d| d.rule == "R3").count(), 2, "{d:?}");
    }

    #[test]
    fn r3_allows_integer_equality_and_tests() {
        let src = "fn f(x: u32) -> bool { x == 0 }\n#[cfg(test)]\nmod t { fn g(y: f64) -> bool { y == 0.5 } }";
        let d = run("crates/features/src/stats.rs", FileClass::Library, src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r4_flags_send_under_live_guard() {
        let src = "fn f(&self) { let g = self.state.lock(); tx.send(1).unwrap(); }";
        let d = run("crates/core/src/runtime.rs", FileClass::Library, src);
        assert!(d.iter().any(|d| d.rule == "R4"), "{d:?}");
    }

    #[test]
    fn r4_allows_dropped_guard_and_other_files() {
        let dropped = "fn f(&self) { let g = self.state.lock(); drop(g); tx.send(1); }";
        let d = run("crates/core/src/runtime.rs", FileClass::Library, dropped);
        assert!(d.iter().all(|d| d.rule != "R4"), "{d:?}");
        let other = "fn f(&self) { let g = self.state.lock(); tx.send(1); }";
        let d = run("crates/core/src/db.rs", FileClass::Library, other);
        assert!(d.iter().all(|d| d.rule != "R4"), "{d:?}");
    }

    #[test]
    fn r4_temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) { *self.cursor.lock() = 5; tx.send(1); }";
        let d = run("crates/core/src/runtime.rs", FileClass::Library, src);
        assert!(d.iter().all(|d| d.rule != "R4"), "{d:?}");
    }

    #[test]
    fn r5_flags_unsafe_outside_shims() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        let d = run("crates/net/src/packet.rs", FileClass::Library, src);
        assert!(d.iter().any(|d| d.rule == "R5"), "{d:?}");
    }

    #[test]
    fn r5_requires_safety_comment_in_shims() {
        let bare = "fn f() { unsafe { imp() } }";
        let d = run("shims/bytes/src/lib.rs", FileClass::Shim, bare);
        assert!(d.iter().any(|d| d.rule == "R5"), "{d:?}");
        let blessed = "fn f() {\n // SAFETY: imp has no preconditions here\n unsafe { imp() } }";
        let d = run("shims/bytes/src/lib.rs", FileClass::Shim, blessed);
        assert!(d.is_empty(), "{d:?}");
    }
}
