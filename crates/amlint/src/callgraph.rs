//! Workspace symbol table and conservative call graph.
//!
//! Resolution is *over*-approximate with one precision valve: a method
//! call `.m(` links to every workspace function named `m` (plus a
//! precise hit when the receiver is `self` or the callee is
//! path-qualified) — except through [`GENERIC_METHODS`], the ubiquitous
//! container/codec names (`push`, `get`, `parse`, `get_u64`, …) whose
//! bare-name edges are overwhelmingly std calls and would otherwise
//! fuse unrelated crates into one reachable blob. A workspace fn with
//! such a name that really sits on the hot path opts back in with its
//! own `// amlint: hot` annotation. For everything else the graph errs
//! toward an edge too many — which forces an explicit `// amlint: cold`
//! blessing — never an edge too few, which would silently hide an
//! allocation. Three trust boundaries bound the graph:
//!
//! * `shims/` is excluded — shims model external crates; rustc and
//!   clippy police their `unsafe`, and their internals are not the
//!   workspace's hot path.
//! * test-context files and `#[cfg(test)]` items are excluded.
//! * `// amlint: cold` functions stop traversal: calling into one is
//!   fine, what happens inside is by declaration off the hot path.

use crate::lexer::{TokKind, Token};
use crate::parser::{is_keyword, FnItem};
use crate::SourceFile;
use std::collections::{HashMap, VecDeque};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    /// Last path segment before `::name(` — `Vec` in `Vec::new(`,
    /// the impl type for `Self::helper(`. `None` for method and free
    /// calls.
    pub qualifier: Option<String>,
    /// `.name(` form.
    pub is_method: bool,
    /// Receiver is literally `self` — resolved against the enclosing
    /// impl type first.
    pub self_receiver: bool,
    pub line: u32,
    /// Token index of the callee name (for region membership tests).
    pub tok: usize,
}

/// A function in the workspace graph.
#[derive(Debug)]
pub struct GraphFn {
    /// Index into the [`SourceFile`] slice.
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub item: usize,
    pub calls: Vec<CallSite>,
}

/// Symbol table + call graph over the library portion of a workspace.
pub struct Workspace<'a> {
    pub files: &'a [SourceFile],
    pub fns: Vec<GraphFn>,
    by_name: HashMap<String, Vec<usize>>,
    typed: HashMap<(String, String), Vec<usize>>,
}

/// Ubiquitous std-container / codec method names: a bare-name `.m(`
/// edge via one of these is overwhelmingly a `Vec`/`VecDeque`/slice/
/// `bytes::Buf` call, so neither the R6/R8 reachability closure nor
/// the R7 lock/channel summaries propagate through them (R6 still
/// flags the allocating ones directly at the call site, and precise
/// self/path-qualified calls always propagate). A workspace fn that
/// shares one of these names and really is hot must carry its own
/// `// amlint: hot` annotation — see `HopStack::push`.
const GENERIC_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "iter",
    "iter_mut",
    "drain",
    "extend",
    "contains",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "resize",
    "reserve",
    "truncate",
    "last",
    "first",
    "next",
    "take",
    "entry",
    "keys",
    "values",
    "parse",
    "clone",
    "collect",
    "from",
    "to_string",
    "extend_from_slice",
    "get_u8",
    "get_u16",
    "get_u32",
    "get_u64",
    "get_i32",
    "get_i64",
    "put_u8",
    "put_u16",
    "put_u32",
    "put_u64",
];

impl<'a> Workspace<'a> {
    /// Build the graph from parsed files. Only `Library` files outside
    /// test spans contribute symbols and call sites.
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut fns = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut typed: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            if file.class != crate::FileClass::Library {
                continue;
            }
            for (ii, item) in file.parsed.fns.iter().enumerate() {
                if item.is_test {
                    continue;
                }
                let idx = fns.len();
                let calls = item
                    .body
                    .map(|body| extract_calls(&file.lexed.tokens, body, item, &file.parsed.fns))
                    .unwrap_or_default();
                fns.push(GraphFn {
                    file: fi,
                    item: ii,
                    calls,
                });
                by_name.entry(item.name.clone()).or_default().push(idx);
                if let Some(ty) = &item.impl_type {
                    typed
                        .entry((ty.clone(), item.name.clone()))
                        .or_default()
                        .push(idx);
                }
            }
        }
        Workspace {
            files,
            fns,
            by_name,
            typed,
        }
    }

    pub fn item(&self, f: usize) -> &FnItem {
        &self.files[self.fns[f].file].parsed.fns[self.fns[f].item]
    }

    pub fn rel(&self, f: usize) -> &str {
        &self.files[self.fns[f].file].rel
    }

    /// Tokens of `f`'s body (inside the outer braces), with nested fn
    /// items carved out so their constructs are attributed to
    /// themselves.
    pub fn body_token_indices(&self, f: usize) -> Vec<usize> {
        let g = &self.fns[f];
        let file = &self.files[g.file];
        let Some((start, end)) = file.parsed.fns[g.item].body else {
            return Vec::new();
        };
        let nested: Vec<(usize, usize)> = file
            .parsed
            .fns
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != g.item)
            .filter_map(|(_, other)| other.body)
            .filter(|(s, e)| *s > start && *e <= end)
            .collect();
        (start + 1..end.saturating_sub(1))
            .filter(|i| !nested.iter().any(|(s, e)| i >= s && i < e))
            .collect()
    }

    /// Resolve a call site to candidate callees (conservative).
    pub fn resolve(&self, call: &CallSite) -> Vec<usize> {
        if Self::is_never_workspace(call) {
            return Vec::new();
        }
        if let Some(q) = &call.qualifier {
            if let Some(hits) = self.typed.get(&(q.clone(), call.name.clone())) {
                return hits.clone();
            }
            // Typed miss. An uppercase qualifier names a concrete type,
            // so the method is external or `#[derive]`d (`Vec::new`,
            // `DatagramOutcome::default`) — linking it by bare name
            // would connect every same-named fn in the workspace. A
            // lowercase qualifier is a module path (`codec::decode_one`)
            // where a by-name match still finds the free fn.
            const PRIMITIVES: &[&str] = &[
                "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
                "isize", "f32", "f64", "bool", "char", "str",
            ];
            if q.chars().next().is_some_and(char::is_uppercase) || PRIMITIVES.contains(&q.as_str())
            {
                return Vec::new();
            }
            return self.by_name.get(&call.name).cloned().unwrap_or_default();
        }
        if call.self_receiver {
            // Precise: `self.helper()` against the enclosing impl.
            // (Falls through when the impl type has no such method —
            // e.g. the method lives on a trait default.)
            // Note: resolved per call below, where the caller is known.
        }
        self.by_name.get(&call.name).cloned().unwrap_or_default()
    }

    /// Like [`Workspace::resolve`], with the caller known so that
    /// `self.helper()` resolves against the caller's impl type first.
    pub fn resolve_from(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        if call.qualifier.is_none() && call.self_receiver {
            if let Some(ty) = &self.item(caller).impl_type {
                if let Some(hits) = self.typed.get(&(ty.clone(), call.name.clone())) {
                    return hits.clone();
                }
            }
        }
        self.resolve(call)
    }

    /// R7-grade resolution: drop by-name method edges through
    /// ubiquitous container method names (precise edges always kept).
    pub fn resolve_strict(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        if call.qualifier.is_none() && call.self_receiver {
            if let Some(ty) = &self.item(caller).impl_type {
                if let Some(hits) = self.typed.get(&(ty.clone(), call.name.clone())) {
                    return hits.clone();
                }
            }
        }
        if call.qualifier.is_none()
            && call.is_method
            && GENERIC_METHODS.contains(&call.name.as_str())
        {
            return Vec::new();
        }
        self.resolve(call)
    }

    /// Edges every resolver refuses: a free `drop(x)` is always
    /// `std::mem::drop` — Rust forbids calling `Drop::drop` directly —
    /// so linking it by name to `fn drop(&mut self)` impls is never
    /// right.
    fn is_never_workspace(call: &CallSite) -> bool {
        call.name == "drop" && !call.is_method && call.qualifier.is_none()
    }

    /// All `// amlint: hot` roots.
    pub fn hot_roots(&self) -> Vec<usize> {
        (0..self.fns.len()).filter(|&f| self.item(f).hot).collect()
    }

    /// BFS over the call graph from the hot roots, stopping at
    /// `// amlint: cold` functions. Returns `fn -> parent` (roots map
    /// to themselves), enough to reconstruct one shortest call path
    /// for diagnostics.
    pub fn hot_reachable(&self) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue = VecDeque::new();
        for root in self.hot_roots() {
            parent.insert(root, root);
            queue.push_back(root);
        }
        while let Some(f) = queue.pop_front() {
            let calls = self.fns[f].calls.clone();
            for call in &calls {
                for callee in self.resolve_strict(f, call) {
                    if self.item(callee).cold || parent.contains_key(&callee) {
                        continue;
                    }
                    parent.insert(callee, f);
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// `root → … → f` as `a::b::c` style display names.
    pub fn path_to(&self, parents: &HashMap<usize, usize>, f: usize) -> String {
        let mut chain = vec![f];
        let mut cur = f;
        while let Some(&p) = parents.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&x| self.display_name(x))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    pub fn display_name(&self, f: usize) -> String {
        let item = self.item(f);
        match &item.impl_type {
            Some(ty) => format!("{ty}::{}", item.name),
            None => item.name.clone(),
        }
    }
}

/// Extract call sites from a body token range, skipping nested fn
/// bodies (they are their own graph nodes).
fn extract_calls(
    tokens: &[Token],
    body: (usize, usize),
    item: &FnItem,
    siblings: &[FnItem],
) -> Vec<CallSite> {
    let (start, end) = body;
    let nested: Vec<(usize, usize)> = siblings
        .iter()
        .filter(|other| other.line != item.line || other.name != item.name)
        .filter_map(|other| other.body)
        .filter(|(s, e)| *s > start && *e <= end)
        .collect();
    let mut out = Vec::new();
    let mut i = start + 1;
    let body_end = end.saturating_sub(1);
    while i < body_end {
        if let Some((s, e)) = nested.iter().find(|(s, e)| i >= *s && i < *e) {
            debug_assert!(s < e);
            i = *e;
            continue;
        }
        let t = &tokens[i];
        if t.kind == TokKind::Ident && !is_keyword(&t.text) && t.text != "self" && t.text != "Self"
        {
            // Optional turbofish between name and the argument list:
            // `collect::<Vec<_>>(` / `try_into::<u16>(`.
            let mut after = i + 1;
            if tokens.get(after).is_some_and(|n| n.text == "::")
                && tokens.get(after + 1).is_some_and(|n| n.text == "<")
            {
                after = crate::parser::skip_angles(tokens, after + 1);
            }
            if tokens.get(after).is_some_and(|n| n.text == "(") {
                let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
                match prev {
                    Some(".") => {
                        let self_receiver = i >= 2 && tokens[i - 2].text == "self";
                        out.push(CallSite {
                            name: t.text.clone(),
                            qualifier: None,
                            is_method: true,
                            self_receiver,
                            line: t.line,
                            tok: i,
                        });
                    }
                    Some("::") => {
                        let mut qualifier = None;
                        if i >= 2 && tokens[i - 2].kind == TokKind::Ident {
                            let q = tokens[i - 2].text.as_str();
                            qualifier = Some(if q == "Self" {
                                item.impl_type.clone().unwrap_or_else(|| "Self".into())
                            } else {
                                q.to_string()
                            });
                        }
                        out.push(CallSite {
                            name: t.text.clone(),
                            qualifier,
                            is_method: false,
                            self_receiver: false,
                            line: t.line,
                            tok: i,
                        });
                    }
                    Some("fn") => {} // the item's own signature (nested fn heads are carved out)
                    _ => {
                        out.push(CallSite {
                            name: t.text.clone(),
                            qualifier: None,
                            is_method: false,
                            self_receiver: false,
                            line: t.line,
                            tok: i,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel.to_string(), src)
    }

    fn ws_fixture() -> Vec<SourceFile> {
        vec![
            file(
                "crates/a/src/lib.rs",
                r#"
                pub struct Hot;
                impl Hot {
                    // amlint: hot
                    pub fn root(&self) { helper(); self.local(); }
                    fn local(&self) { Other::leaf(); }
                }
                "#,
            ),
            file(
                "crates/b/src/lib.rs",
                r#"
                pub fn helper() { frozen(); }
                // amlint: cold
                pub fn frozen() { hidden(); }
                fn hidden() {}
                pub struct Other;
                impl Other {
                    pub fn leaf() {}
                }
                "#,
            ),
        ]
    }

    #[test]
    fn reachability_crosses_files_and_stops_at_cold() {
        let files = ws_fixture();
        let ws = Workspace::build(&files);
        let reach = ws.hot_reachable();
        let names: Vec<String> = {
            let mut v: Vec<String> = reach.keys().map(|&f| ws.display_name(f)).collect();
            v.sort();
            v
        };
        assert_eq!(names, ["Hot::local", "Hot::root", "Other::leaf", "helper"]);
        // `frozen` is cold (stopped), `hidden` is behind it.
        assert!(!names.iter().any(|n| n == "frozen" || n == "hidden"));
    }

    #[test]
    fn paths_reconstruct_for_diagnostics() {
        let files = ws_fixture();
        let ws = Workspace::build(&files);
        let reach = ws.hot_reachable();
        let leaf = (0..ws.fns.len())
            .find(|&f| ws.display_name(f) == "Other::leaf")
            .unwrap();
        assert_eq!(
            ws.path_to(&reach, leaf),
            "Hot::root -> Hot::local -> Other::leaf"
        );
    }

    #[test]
    fn turbofish_calls_are_extracted() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "fn f(v: &[u8]) { let _: Vec<u8> = v.iter().copied().collect::<Vec<u8>>(); }",
        )];
        let ws = Workspace::build(&files);
        assert!(ws.fns[0].calls.iter().any(|c| c.name == "collect"));
    }

    #[test]
    fn lint_files_smoke() {
        let d = crate::lint_files(&[("crates/a/src/lib.rs", "fn ok() {}")]);
        assert!(d.is_empty());
    }
}
