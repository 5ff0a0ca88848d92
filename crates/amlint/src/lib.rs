//! amlint — workspace-native static analysis for the AmLight detection
//! pipeline.
//!
//! The detector is a soft-real-time system: a panic in the Data
//! Processor or Prediction module, a non-wrapping subtraction on the
//! 32-bit ns INT timestamps, or a lock held across a blocking channel
//! send silently breaks the "automated, always-on" property the
//! deployment depends on. `cargo test` cannot catch those classes of
//! regression — they are invariants about *how* code is written, not
//! what it computes — so amlint enforces them as machine-checkable
//! rules over every `.rs` file in the workspace.
//!
//! See [`rules`] for the rule catalog (R1–R5) and README.md for the
//! invariant ↔ paper mapping. Violations can be suppressed per line:
//!
//! ```text
//! some_hot_call().unwrap(); // amlint: allow(R1) -- bounded by startup-only path
//! ```
//!
//! The suppression must name the rule and should carry a reason after
//! `--`; suppressed findings are still counted and reported (in JSON
//! under `"suppressed"`), so CI can watch the suppression budget too.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod xrules;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// JSON report schema version. v2 added `version` itself, `hot_roots`
/// (the annotation drift gate), and the cross-file rules R6–R9.
pub const SCHEMA_VERSION: u32 = 2;

/// Hot-path roots that must stay annotated (`// amlint: hot`) — the
/// floor the drift gate and `--self-check` enforce. Removing one of
/// these annotations without updating amlint itself is a CI failure:
/// the zero-alloc / no-panic proofs silently stop covering that
/// entry point otherwise.
pub const EXPECTED_HOT_ROOTS: &[&str] = &[
    "crates/core/src/drift.rs::observe_row",
    "crates/core/src/epoch.rs::load",
    "crates/core/src/mailbox.rs::acquire",
    "crates/core/src/mailbox.rs::pop",
    "crates/core/src/mailbox.rs::publish",
    "crates/core/src/modules.rs::ingest",
    "crates/features/src/table.rs::apply",
    "crates/features/src/triage.rs::assess",
    "crates/int/src/collector.rs::decode_datagram_into",
    "crates/int/src/collector.rs::ingest_into",
    "crates/pint/src/datagram.rs::ingest",
    "crates/pint/src/report.rs::encode",
    "crates/pint/src/sketch.rs::absorb",
    "crates/pint/src/sketch.rs::annotate",
    "crates/sflow/src/datagram.rs::ingest",
];

/// How a file is classified for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source under `crates/*/src` or the facade `src/`.
    Library,
    /// Offline dependency stand-ins under `shims/`.
    Shim,
    /// Integration tests, benches, examples, and the bench crate:
    /// test-context code where the hot-path rules don't apply.
    TestContext,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    pub suppressed: bool,
    pub suppress_reason: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}{}",
            self.file,
            self.line,
            self.rule,
            self.message,
            if self.suppressed { " [suppressed]" } else { "" }
        )
    }
}

/// One lexed + parsed source file, the unit the workspace rules
/// consume.
#[derive(Debug)]
pub struct SourceFile {
    pub rel: String,
    pub class: FileClass,
    pub lexed: lexer::Lexed,
    pub parsed: parser::ParsedFile,
}

impl SourceFile {
    pub fn new(rel: String, source: &str) -> Self {
        let class = classify(&rel);
        let lexed = lexer::lex(source);
        let parsed = parser::parse(&lexed);
        SourceFile {
            rel,
            class,
            lexed,
            parsed,
        }
    }
}

/// Lint results for a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    /// `file::fn` for every `// amlint: hot` annotation found — part of
    /// the JSON snapshot so removing a root annotation fails the drift
    /// gate.
    pub hot_roots: Vec<String>,
}

impl Report {
    /// Non-suppressed findings — what gates CI.
    pub fn violations(&self) -> usize {
        self.diagnostics.iter().filter(|d| !d.suppressed).count()
    }

    pub fn suppressed(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.suppressed).count()
    }

    /// Render as a JSON document (hand-rolled: amlint is dependency-free
    /// by design, and the schema is two levels deep).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.diagnostics.len() * 128);
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {},\n", SCHEMA_VERSION));
        s.push_str(&format!("  \"violations\": {},\n", self.violations()));
        s.push_str(&format!("  \"suppressed\": {},\n", self.suppressed()));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"hot_roots\": [");
        for (i, r) in self.hot_roots.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\"", json_escape(r)));
        }
        if !self.hot_roots.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"file\": \"{}\", ", json_escape(&d.file)));
            s.push_str(&format!("\"line\": {}, ", d.line));
            s.push_str(&format!("\"rule\": \"{}\", ", d.rule));
            s.push_str(&format!("\"suppressed\": {}, ", d.suppressed));
            if let Some(reason) = &d.suppress_reason {
                s.push_str(&format!("\"reason\": \"{}\", ", json_escape(reason)));
            }
            s.push_str(&format!("\"message\": \"{}\"}}", json_escape(&d.message)));
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("shims/") {
        FileClass::Shim
    } else if rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("crates/bench/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
    {
        FileClass::TestContext
    } else {
        FileClass::Library
    }
}

/// Lint one source text as if it lived at `rel` in the workspace —
/// the full rule set, with the workspace graph built from this one
/// file.
pub fn lint_source(rel: &str, source: &str) -> Vec<Diagnostic> {
    lint_files(&[(rel, source)])
}

/// Lint a set of sources as a self-contained workspace (the fixture
/// API for the cross-file rules: each entry is `(workspace-relative
/// path, source text)`).
pub fn lint_files(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(rel, src)| SourceFile::new(rel.to_string(), src))
        .collect();
    analyze(&sources).0
}

/// Run per-file rules (R1–R5) plus workspace rules (R6–R9) over parsed
/// sources; returns (diagnostics, hot roots).
pub fn analyze(sources: &[SourceFile]) -> (Vec<Diagnostic>, Vec<String>) {
    let mut diags = Vec::new();
    for f in sources {
        diags.extend(rules::check(&f.rel, f.class, &f.lexed));
    }
    xrules::check_workspace(sources, &mut diags);
    for f in sources {
        let mut mine: Vec<&mut Diagnostic> = diags.iter_mut().filter(|d| d.file == f.rel).collect();
        apply_suppressions(&f.lexed.comments, &mut mine);
        apply_fn_suppressions(f, &mut mine);
    }
    diags.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
            .then(a.message.cmp(&b.message))
    });
    let mut hot_roots: Vec<String> = sources
        .iter()
        .flat_map(|f| {
            f.parsed
                .fns
                .iter()
                .filter(|i| i.hot)
                .map(|i| format!("{}::{}", f.rel, i.name))
        })
        .collect();
    hot_roots.sort();
    hot_roots.dedup();
    (diags, hot_roots)
}

/// Honor `// amlint: allow(<rules>) -- <reason>` comments: a suppression
/// on the diagnostic's line, or on the line directly above it, marks the
/// finding suppressed (it stays in the report for counting).
fn apply_suppressions(comments: &[lexer::Comment], diags: &mut [&mut Diagnostic]) {
    let supps: Vec<(u32, Vec<String>, Option<String>)> = comments
        .iter()
        .filter_map(|c| parse_suppression(&c.text).map(|(rules, why)| (c.end_line, rules, why)))
        .collect();
    for d in diags.iter_mut() {
        for (line, rules, why) in &supps {
            let line_matches = *line == d.line || *line + 1 == d.line;
            if line_matches && rules.iter().any(|r| r == d.rule) {
                d.suppressed = true;
                d.suppress_reason = why.clone();
            }
        }
    }
}

/// Cross-file rules the fn-level escape applies to: an `allow(...)`
/// comment bound to a `fn` item (leading comment within 3 lines above
/// it) suppresses matching R6–R9 findings anywhere in that fn's span.
/// One documented invariant then covers e.g. every masked index in a
/// slab probe loop, instead of a comment per line. R1–R5 keep their
/// strictly line-level placement.
const FN_SUPPRESSABLE: &[&str] = &["R6", "R7", "R8", "R9"];

fn apply_fn_suppressions(file: &SourceFile, diags: &mut [&mut Diagnostic]) {
    let tokens = &file.lexed.tokens;
    for c in &file.lexed.comments {
        let Some((rules, why)) = parse_suppression(&c.text) else {
            continue;
        };
        // Leading comments only, same binding rule as hot/cold.
        if tokens.iter().any(|t| t.line == c.start_line) {
            continue;
        }
        let Some(f) = file
            .parsed
            .fns
            .iter()
            .find(|f| f.line >= c.end_line && f.line <= c.end_line + 3)
        else {
            continue;
        };
        let end_line = f
            .body
            .and_then(|(_, e)| tokens.get(e.saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(f.line);
        for d in diags.iter_mut() {
            if d.line >= f.line
                && d.line <= end_line
                && rules.iter().any(|r| r == d.rule)
                && FN_SUPPRESSABLE.contains(&d.rule)
            {
                d.suppressed = true;
                d.suppress_reason = why.clone();
            }
        }
    }
}

/// Parse `amlint: allow(R1, R2) -- reason` out of a comment.
fn parse_suppression(text: &str) -> Option<(Vec<String>, Option<String>)> {
    let at = text.find("amlint:")?;
    let rest = &text[at + "amlint:".len()..];
    let allow = rest.trim_start();
    let inner = allow.strip_prefix("allow(")?;
    let close = inner.find(')')?;
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let reason = inner[close + 1..]
        .split_once("--")
        .map(|(_, why)| why.trim().to_string())
        .filter(|w| !w.is_empty());
    Some((rules, reason))
}

/// Recursively collect every `.rs` file worth linting under `root`.
fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "results"];
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let files = collect_rs_files(root)?;
    let mut sources = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        sources.push(SourceFile::new(rel, &source));
    }
    let (diagnostics, hot_roots) = analyze(&sources);
    Ok(Report {
        diagnostics,
        files_scanned: sources.len(),
        hot_roots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_parses_rules_and_reason() {
        let (rules, why) =
            parse_suppression("// amlint: allow(R1, R4) -- startup-only, bounded").unwrap();
        assert_eq!(rules, ["R1", "R4"]);
        assert_eq!(why.as_deref(), Some("startup-only, bounded"));
        assert!(parse_suppression("// just a comment about amlint").is_none());
        let (rules, why) = parse_suppression("/* amlint: allow(R2) */").unwrap();
        assert_eq!(rules, ["R2"]);
        assert_eq!(why, None);
    }

    #[test]
    fn trailing_and_preceding_suppressions_apply() {
        let trailing = "fn f() { x.unwrap(); // amlint: allow(R1) -- bounded\n }";
        let d = lint_source("crates/ml/src/tree.rs", trailing);
        assert_eq!(d.len(), 1);
        assert!(d[0].suppressed);
        assert_eq!(d[0].suppress_reason.as_deref(), Some("bounded"));

        let above = "fn f() {\n // amlint: allow(R1) -- bounded\n x.unwrap();\n }";
        let d = lint_source("crates/ml/src/tree.rs", above);
        assert_eq!(d.len(), 1);
        assert!(d[0].suppressed);
    }

    #[test]
    fn suppression_must_name_the_right_rule() {
        let wrong = "fn f() { x.unwrap(); // amlint: allow(R2) -- not this rule\n }";
        let d = lint_source("crates/ml/src/tree.rs", wrong);
        assert_eq!(d.len(), 1);
        assert!(!d[0].suppressed);
    }

    #[test]
    fn classification_matches_layout() {
        assert_eq!(classify("crates/core/src/runtime.rs"), FileClass::Library);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
        assert_eq!(classify("shims/rand/src/lib.rs"), FileClass::Shim);
        assert_eq!(classify("tests/end_to_end.rs"), FileClass::TestContext);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::TestContext);
        assert_eq!(classify("crates/bench/src/util.rs"), FileClass::TestContext);
        assert_eq!(
            classify("crates/ml/benches/inference.rs"),
            FileClass::TestContext
        );
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let mut r = Report {
            files_scanned: 2,
            ..Default::default()
        };
        r.diagnostics.push(Diagnostic {
            file: "a.rs".into(),
            line: 3,
            rule: "R1",
            message: "msg with \"quotes\"".into(),
            suppressed: false,
            suppress_reason: None,
        });
        let json = r.to_json();
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("msg with \\\"quotes\\\""));
        assert!(json.ends_with("}\n"));
    }
}
