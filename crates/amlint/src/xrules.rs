//! The cross-file rules R6–R9, evaluated over the workspace call graph.
//!
//! * **R6 — static allocation discipline.** Functions reachable from
//!   `// amlint: hot` roots must not reach allocating constructs
//!   (`Vec::new` / `.push(` / `format!` / `.clone()` / `.collect()` …)
//!   except through an explicit `// amlint: cold` escape hatch: a
//!   fn-level annotation stops traversal, a line-level one blesses a
//!   single site (counted as suppressed, like `allow(...)`). This is
//!   the static twin of the stats_alloc runtime gate.
//! * **R7 — channel/lock topology.** Channel construction must be
//!   bounded (`unbounded(` is a violation anywhere in library code),
//!   no blocking channel op may run — directly or through a callee —
//!   while a lock guard is held, and the per-type lock acquisition
//!   order must be acyclic.
//! * **R8 — panic reachability.** `.unwrap()` / `.expect(` / the
//!   `PANIC_MACROS` are violations in every non-test fn of a
//!   `HOT_PATH_FILES` module (or `crates/ml/src/`) and in every
//!   hot-reachable fn wherever it lives; non-range indexing (`x[i]`)
//!   is a violation in hot-reachable fns. Range slices (`x[a..b]`) are
//!   out of scope — they are how the decoders already bound their
//!   accesses.
//! * **R9 — untrusted-cast taint.** In the `int` / `sflow` / `ingest`
//!   decode crates, values derived from datagram bytes (`get_u16()`,
//!   `.len()`, `remaining()`) must not flow through a *narrowing*
//!   `as` cast (widening is fine), and must not size an allocation
//!   (`with_capacity(n)`) unclamped. `try_from` / `try_into` are the
//!   sanctioned conversions.

use crate::callgraph::Workspace;
use crate::lexer::TokKind;
use crate::parser::is_keyword;
use crate::{Diagnostic, SourceFile};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Hot-path modules whose every non-test fn R8 scans for panics,
/// reachable from a hot root or not (workspace-relative paths). The
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

/// Is this file part of the detection hot path (R8's file scope)?
fn is_hot_path(rel: &str) -> bool {
    HOT_PATH_FILES.contains(&rel) || rel.starts_with("crates/ml/src/")
}

/// Owning-container constructors: `Type::ctor(` allocates.
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "Box",
    "BytesMut",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "FnvHashMap",
    "Rc",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "with_hasher", "default"];

/// Methods that (re)allocate on owning containers.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "split_off",
    "repeat",
    "or_insert",
    "or_insert_with",
];

/// Blocking channel operations (the `try_*` forms are exempt).
const CHAN_OPS: &[&str] = &["send", "recv", "send_timeout", "recv_timeout"];

/// Panicking constructs for R8 (macro names; method forms below).
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

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

/// Entry point: run R6–R9 over the parsed workspace, appending findings.
pub fn check_workspace(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let ws = Workspace::build(files);
    check_r6_r8(&ws, out);
    check_r7(&ws, out);
    check_r9(files, out);
}

/// Emit a finding, pre-suppressed when a line-level `// amlint: cold`
/// blesses the site.
fn emit_cold_aware(
    ws: &Workspace,
    f: usize,
    line: u32,
    rule: &'static str,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let file = &ws.files[ws.fns[f].file];
    let mut d = diag(&file.rel, line, rule, message);
    if let Some(cold) = file.parsed.cold_line(line) {
        d.suppressed = true;
        d.suppress_reason = Some(cold.reason.clone().unwrap_or_else(|| "cold".to_string()));
    }
    out.push(d);
}

/// R6 (allocation) and R8 (panic/indexing) over the hot-reachable set,
/// plus R8's panic scan over every fn of a hot-path module.
fn check_r6_r8(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let reach = ws.hot_reachable();
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for f in 0..ws.fns.len() {
        let rel = ws.rel(f).to_string();
        let reachable = reach.contains_key(&f);
        if !reachable && !is_hot_path(&rel) {
            continue;
        }
        let path = if reachable {
            ws.path_to(&reach, f)
        } else {
            String::new()
        };
        // Why a panic here matters: the call chain from a hot root, or
        // the file's place on the pipeline's hot path.
        let panic_scope = if reachable {
            format!("is hot-reachable ({path})")
        } else {
            format!("is in hot-path module {rel}")
        };
        let tokens = &ws.files[ws.fns[f].file].lexed.tokens;

        // R6/R8 over extracted call sites.
        for call in &ws.fns[f].calls {
            let construct = if call.is_method && ALLOC_METHODS.contains(&call.name.as_str()) {
                Some(format!(".{}(", call.name))
            } else if let Some(q) = &call.qualifier {
                if ALLOC_TYPES.contains(&q.as_str()) && ALLOC_CTORS.contains(&call.name.as_str()) {
                    Some(format!("{}::{}(", q, call.name))
                } else {
                    None
                }
            } else {
                None
            };
            if let Some(c) = construct.filter(|_| reachable) {
                if seen.insert((rel.clone(), call.line, c.clone())) {
                    emit_cold_aware(
                        ws,
                        f,
                        call.line,
                        "R6",
                        format!(
                            "allocating construct `{c}` on the hot path ({path}); \
                             fix it or bless the site with `// amlint: cold -- why`"
                        ),
                        out,
                    );
                }
            }
            if call.is_method
                && (call.name == "unwrap" || call.name == "expect")
                && seen.insert((rel.clone(), call.line, format!(".{}(", call.name)))
            {
                emit_cold_aware(
                    ws,
                    f,
                    call.line,
                    "R8",
                    format!(
                        "`.{}()` {panic_scope}; return a typed error or bless with \
                         `// amlint: cold -- why`",
                        call.name
                    ),
                    out,
                );
            }
        }

        // Token-level scans: macros and non-range indexing.
        let body = ws.body_token_indices(f);
        for (bi, &i) in body.iter().enumerate() {
            let t = &tokens[i];
            let next_is = |s: &str| tokens.get(i + 1).is_some_and(|n| n.text == s);
            if t.kind == TokKind::Ident && next_is("!") {
                if reachable
                    && (t.text == "vec" || t.text == "format")
                    && seen.insert((rel.clone(), t.line, format!("{}!", t.text)))
                {
                    emit_cold_aware(
                        ws,
                        f,
                        t.line,
                        "R6",
                        format!(
                            "allocating macro `{}!` on the hot path ({path}); \
                             fix it or bless the site with `// amlint: cold -- why`",
                            t.text
                        ),
                        out,
                    );
                }
                if PANIC_MACROS.contains(&t.text.as_str())
                    && seen.insert((rel.clone(), t.line, format!("{}!", t.text)))
                {
                    emit_cold_aware(
                        ws,
                        f,
                        t.line,
                        "R8",
                        format!("`{}!` {panic_scope}", t.text),
                        out,
                    );
                }
            }
            // `expr[index]` — previous token ends an expression and the
            // brackets contain a non-range expression.
            if reachable && t.text == "[" && bi > 0 {
                let prev = &tokens[body[bi - 1]];
                let prev_ends_expr = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
                    || prev.text == ")"
                    || prev.text == "]";
                if prev_ends_expr {
                    let mut depth = 0i32;
                    let mut j = i;
                    let mut has_range = false;
                    let mut has_semi = false;
                    let mut close = None;
                    while j < tokens.len() {
                        match tokens[j].text.as_str() {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    close = Some(j);
                                    break;
                                }
                            }
                            ".." | "..=" => has_range = true,
                            ";" => has_semi = true,
                            _ => {}
                        }
                        j += 1;
                    }
                    let non_empty = close.is_some_and(|c| c > i + 1);
                    if non_empty
                        && !has_range
                        && !has_semi
                        && seen.insert((rel.clone(), t.line, "[]".into()))
                    {
                        emit_cold_aware(
                            ws,
                            f,
                            t.line,
                            "R8",
                            format!(
                                "unchecked indexing can panic and is hot-reachable ({path}); \
                                 prove the bound and bless the fn with \
                                 `// amlint: allow(R8) -- invariant`, or use `get(..)`"
                            ),
                            out,
                        );
                    }
                }
            }
        }
    }
}

/// One lock acquisition inside a fn body.
struct Acquisition {
    /// Stable lock identity: `Type.field` for `self.field.lock()`,
    /// `fn_name.var` for locals.
    id: String,
    /// Token index of the `lock` / `read` / `write` ident.
    tok: usize,
    line: u32,
    /// Exclusive token index where the guard is no longer live.
    region_end: usize,
}

fn lock_id(ws: &Workspace, f: usize, chain: &[String]) -> String {
    let item = ws.item(f);
    if chain.first().map(String::as_str) == Some("self") {
        let owner = item.impl_type.clone().unwrap_or_else(|| item.name.clone());
        format!("{owner}.{}", chain.last().cloned().unwrap_or_default())
    } else {
        format!("{}.{}", item.name, chain.join("."))
    }
}

/// Find lock-guard acquisitions in `f` with their live regions.
fn acquisitions(ws: &Workspace, f: usize) -> Vec<Acquisition> {
    let tokens = &ws.files[ws.fns[f].file].lexed.tokens;
    let body = ws.body_token_indices(f);
    let Some((body_start, body_end)) = ws.item(f).body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (bi, &i) in body.iter().enumerate() {
        let t = &tokens[i];
        if !(t.kind == TokKind::Ident && matches!(t.text.as_str(), "lock" | "read" | "write")) {
            continue;
        }
        if !(tokens.get(i + 1).is_some_and(|n| n.text == "(")
            && tokens.get(i + 2).is_some_and(|n| n.text == ")"))
        {
            continue; // `.read(&mut buf)` is io, not a lock
        }
        if bi == 0 || tokens[body[bi - 1]].text != "." {
            continue;
        }
        // Walk the receiver chain backwards: `self . inner . lock`.
        let mut chain: Vec<String> = Vec::new();
        let mut j = bi - 1; // the `.`
        while j >= 1 {
            let prev = &tokens[body[j - 1]];
            if prev.kind == TokKind::Ident && !is_keyword(&prev.text) {
                chain.push(prev.text.clone());
                if j >= 3 && tokens[body[j - 2]].text == "." {
                    j -= 2;
                    continue;
                }
            }
            break;
        }
        chain.reverse();
        if chain.is_empty() {
            continue;
        }
        // Std stream locks (`stdout().lock()` handles) are per-process
        // conveniences, not part of the pipeline's lock topology.
        if matches!(
            chain.last().map(String::as_str),
            Some("stdout" | "stderr" | "stdin")
        ) {
            continue;
        }
        let head = body[j - 1];
        // Named guard (`let [mut] g = …`) lives to the end of the
        // enclosing block or an explicit `drop(g)`; a temporary dies at
        // the statement's `;`.
        let named = guard_binding(tokens, head);
        let region_end = match named {
            Some(ref name) => {
                let block_end = enclosing_block_end(tokens, (body_start, body_end), i);
                explicit_drop(tokens, i, block_end, name).unwrap_or(block_end)
            }
            None => statement_end(tokens, i, body_end),
        };
        out.push(Acquisition {
            id: lock_id(ws, f, &chain),
            tok: i,
            line: t.line,
            region_end,
        });
    }
    out
}

/// If the statement holding `head` is `let [mut] name = …`, the guard
/// variable name.
fn guard_binding(tokens: &[crate::lexer::Token], head: usize) -> Option<String> {
    let mut k = head;
    // `=` then the binding then (mut)? then `let`.
    if k == 0 || tokens[k - 1].text != "=" {
        return None;
    }
    k -= 1;
    let name = tokens.get(k.checked_sub(1)?)?;
    if name.kind != TokKind::Ident || is_keyword(&name.text) {
        return None;
    }
    let mut l = k - 1;
    if l >= 1 && tokens[l - 1].text == "mut" {
        l -= 1;
    }
    if l >= 1 && tokens[l - 1].text == "let" {
        Some(name.text.clone())
    } else {
        None
    }
}

/// End (exclusive token index) of the innermost block containing `pos`.
fn enclosing_block_end(tokens: &[crate::lexer::Token], body: (usize, usize), pos: usize) -> usize {
    let mut depth = 0i32;
    let mut i = pos;
    while i < body.1 {
        match tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            _ => {}
        }
        i += 1;
    }
    body.1
}

/// Token index of `drop(name)` between `from` and `to`, if present.
fn explicit_drop(
    tokens: &[crate::lexer::Token],
    from: usize,
    to: usize,
    name: &str,
) -> Option<usize> {
    (from..to.saturating_sub(2)).find(|&i| {
        tokens[i].text == "drop" && tokens[i + 1].text == "(" && tokens[i + 2].text == name
    })
}

/// Token index one past the `;` ending the statement containing `pos`.
fn statement_end(tokens: &[crate::lexer::Token], pos: usize, body_end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = pos;
    while i < body_end {
        match tokens[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    body_end
}

fn check_r7(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // (a) unbounded channel construction anywhere in library code.
    for f in 0..ws.fns.len() {
        for call in &ws.fns[f].calls {
            if call.name == "unbounded" && !call.is_method {
                out.push(diag(
                    ws.rel(f),
                    call.line,
                    "R7",
                    "unbounded channel construction — every channel between pipeline \
                     stages must be bounded so backpressure sheds measurably"
                        .to_string(),
                ));
            }
        }
    }

    // (b) per-fn lock / blocking-channel summaries.
    let n = ws.fns.len();
    let acqs: Vec<Vec<Acquisition>> = (0..n).map(|f| acquisitions(ws, f)).collect();
    let mut chan_direct = vec![false; n];
    let mut locks_star: Vec<BTreeSet<String>> = (0..n)
        .map(|f| acqs[f].iter().map(|a| a.id.clone()).collect())
        .collect();
    for (f, g) in ws.fns.iter().enumerate() {
        chan_direct[f] = g
            .calls
            .iter()
            .any(|c| c.is_method && CHAN_OPS.contains(&c.name.as_str()));
    }
    let callees: Vec<Vec<usize>> = (0..n)
        .map(|f| {
            ws.fns[f]
                .calls
                .iter()
                .flat_map(|c| ws.resolve_strict(f, c))
                .collect()
        })
        .collect();
    let mut chan_star = chan_direct.clone();
    loop {
        let mut changed = false;
        for f in 0..n {
            for &g in &callees[f] {
                if chan_star[g] && !chan_star[f] {
                    chan_star[f] = true;
                    changed = true;
                }
                if !locks_star[g].is_empty() {
                    let before = locks_star[f].len();
                    let add: Vec<String> = locks_star[g].iter().cloned().collect();
                    locks_star[f].extend(add);
                    changed |= locks_star[f].len() != before;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // (c) guard regions: blocking ops and lock-order edges under a guard.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut flagged: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    for (f, f_acqs) in acqs.iter().enumerate() {
        let rel = ws.rel(f).to_string();
        let tokens = &ws.files[ws.fns[f].file].lexed.tokens;
        for a in f_acqs {
            // Direct blocking channel ops in the region.
            for call in &ws.fns[f].calls {
                if call.tok <= a.tok || call.tok >= a.region_end {
                    continue;
                }
                if call.is_method && CHAN_OPS.contains(&call.name.as_str()) {
                    if flagged.insert((rel.clone(), call.line, "direct")) {
                        out.push(diag(
                            &rel,
                            call.line,
                            "R7",
                            format!("blocking `.{}(` while holding lock `{}`", call.name, a.id),
                        ));
                    }
                    continue;
                }
                // Transitive: a callee that blocks on a channel or
                // takes another lock while this guard is live.
                for g in ws.resolve_strict(f, call) {
                    if chan_star[g] && flagged.insert((rel.clone(), call.line, "transitive")) {
                        out.push(diag(
                            &rel,
                            call.line,
                            "R7",
                            format!(
                                "`{}` can block on a channel and is called while lock `{}` \
                                 is held",
                                ws.display_name(g),
                                a.id
                            ),
                        ));
                    }
                    for m in &locks_star[g] {
                        if *m != a.id {
                            edges
                                .entry((a.id.clone(), m.clone()))
                                .or_insert((rel.clone(), call.line));
                        }
                    }
                }
            }
            // Nested direct acquisitions.
            for b in f_acqs {
                if b.tok > a.tok && b.tok < a.region_end {
                    if b.id == a.id {
                        if flagged.insert((rel.clone(), b.line, "reentrant")) {
                            out.push(diag(
                                &rel,
                                b.line,
                                "R7",
                                format!(
                                    "`{}` re-acquired while already held — \
                                     parking_lot locks are not re-entrant",
                                    a.id
                                ),
                            ));
                        }
                    } else {
                        edges
                            .entry((a.id.clone(), b.id.clone()))
                            .or_insert((rel.clone(), tokens[b.tok].line));
                    }
                }
            }
        }
    }

    // (d) lock-order cycles: edge (a, b) is in a cycle iff b reaches a.
    let mut adj: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().insert(b);
    }
    let reaches = |from: &String, to: &String| -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x.clone()) {
                continue;
            }
            if let Some(next) = adj.get(x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    for ((a, b), (rel, line)) in &edges {
        if reaches(b, a) {
            out.push(diag(
                rel,
                *line,
                "R7",
                format!(
                    "lock-order cycle: `{a}` is held while acquiring `{b}` here, but \
                     another path orders them the other way"
                ),
            ));
        }
    }
}

/// Files in R9 scope: the wire-facing decode crates.
fn r9_applies(rel: &str) -> bool {
    rel.starts_with("crates/int/src/")
        || rel.starts_with("crates/sflow/src/")
        || rel.starts_with("crates/ingest/src/")
}

fn width_of(ty: &str) -> u32 {
    match ty {
        "u8" | "i8" => 8,
        "u16" | "i16" => 16,
        "u32" | "i32" => 32,
        "u64" | "i64" | "u128" | "i128" | "usize" | "isize" => 64,
        _ => 0,
    }
}

/// Bit width produced by a byte-derived getter, if it taints.
fn source_width(name: &str) -> u32 {
    match name {
        "get_u8" | "get_i8" => 8,
        "get_u16" | "get_i16" => 16,
        "get_u32" | "get_i32" => 32,
        "get_u64" | "get_i64" => 64,
        "len" | "remaining" => 64,
        _ => 0,
    }
}

fn check_r9(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
        if file.class != crate::FileClass::Library || !r9_applies(&file.rel) {
            continue;
        }
        let tokens = &file.lexed.tokens;
        for item in &file.parsed.fns {
            if item.is_test {
                continue;
            }
            let Some((start, end)) = item.body else {
                continue;
            };
            let mut taint: HashMap<String, u32> = HashMap::new();
            let mut i = start + 1;
            let body_end = end.saturating_sub(1);
            while i < body_end {
                let t = &tokens[i];
                // `let [mut] x = <expr>;` — propagate taint to x.
                if t.kind == TokKind::Ident && t.text == "let" {
                    let mut k = i + 1;
                    if tokens.get(k).is_some_and(|n| n.text == "mut") {
                        k += 1;
                    }
                    let target = tokens
                        .get(k)
                        .filter(|n| n.kind == TokKind::Ident && !is_keyword(&n.text));
                    if let Some(target) = target {
                        if tokens.get(k + 1).is_some_and(|n| n.text == "=")
                            || (tokens.get(k + 1).is_some_and(|n| n.text == ":")
                                // typed binding: scan to the `=`
                                && (k + 1..statement_end(tokens, i, body_end))
                                    .any(|j| tokens[j].text == "="))
                        {
                            let stmt_end = statement_end(tokens, i, body_end);
                            let mut w = 0u32;
                            for j in k + 1..stmt_end {
                                let e = &tokens[j];
                                if e.kind != TokKind::Ident {
                                    continue;
                                }
                                if tokens.get(j + 1).is_some_and(|n| n.text == "(") {
                                    w = w.max(source_width(&e.text));
                                }
                                w = w.max(*taint.get(&e.text).unwrap_or(&0));
                            }
                            if w > 0 {
                                taint.insert(target.text.clone(), w);
                            }
                        }
                    }
                }
                // `… as T` — find the cast source just before `as`.
                if t.kind == TokKind::Ident && t.text == "as" && i > start + 1 {
                    let target_w = tokens.get(i + 1).map(|n| width_of(&n.text)).unwrap_or(0);
                    if target_w > 0 {
                        let prev = &tokens[i - 1];
                        let mut src_w = 0u32;
                        let mut what = String::new();
                        if prev.text == ")" {
                            // Walk back to the matching `(`, then the callee.
                            let mut depth = 0i32;
                            let mut j = i - 1;
                            loop {
                                match tokens[j].text.as_str() {
                                    ")" => depth += 1,
                                    "(" => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                if j == 0 {
                                    break;
                                }
                                j -= 1;
                            }
                            if j > 0 && tokens[j - 1].kind == TokKind::Ident {
                                src_w = source_width(&tokens[j - 1].text);
                                what = format!("{}()", tokens[j - 1].text);
                            }
                        } else if prev.kind == TokKind::Ident && !is_keyword(&prev.text) {
                            src_w = *taint.get(&prev.text).unwrap_or(&0);
                            what = format!("`{}`", prev.text);
                        }
                        if src_w > target_w {
                            out.push(diag(
                                &file.rel,
                                t.line,
                                "R9",
                                format!(
                                    "narrowing `as {}` on byte-derived {} ({}-bit) truncates \
                                     silently; use a checked conversion (`try_from` / saturate)",
                                    tokens[i + 1].text,
                                    what,
                                    src_w
                                ),
                            ));
                        }
                    }
                }
                // `with_capacity(x)` with x tainted and unclamped.
                if t.kind == TokKind::Ident
                    && t.text == "with_capacity"
                    && tokens.get(i + 1).is_some_and(|n| n.text == "(")
                {
                    if let (Some(arg), Some(close)) = (tokens.get(i + 2), tokens.get(i + 3)) {
                        if close.text == ")"
                            && arg.kind == TokKind::Ident
                            && taint.contains_key(&arg.text)
                        {
                            out.push(diag(
                                &file.rel,
                                t.line,
                                "R9",
                                format!(
                                    "`with_capacity({})` sized by untrusted wire bytes — an \
                                     attacker picks the allocation; clamp it first \
                                     (e.g. `{}.min(LIMIT)`)",
                                    arg.text, arg.text
                                ),
                            ));
                        }
                    }
                }
                i += 1;
            }
        }
    }
}
