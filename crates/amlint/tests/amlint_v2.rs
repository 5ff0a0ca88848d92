//! Fixture suite for the cross-file rules (R6–R9) and the call-graph
//! machinery behind them, mirroring `amlint_rules.rs`: one
//! known-bad snippet per trigger asserting the exact rule and line,
//! one escape-hatch variant per rule asserting silence, plus the
//! resolver-precision cases that keep the graph from over-linking.
//!
//! The last section pins the acceptance contract from the v2 issue:
//! a deliberately introduced hot-path `Vec::push`, an unbounded
//! channel, and an unchecked narrowing cast must each fail.

use amlint::{analyze, lint_files, Report, SourceFile, SCHEMA_VERSION};

/// The one (rule, file, line) triple of live findings in a fixture set.
fn sole_finding(files: &[(&str, &str)]) -> (String, String, u32) {
    let diags = lint_files(files);
    let live: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert_eq!(
        live.len(),
        1,
        "expected exactly one live finding, got {live:#?}"
    );
    (live[0].rule.to_string(), live[0].file.clone(), live[0].line)
}

/// Assert a fixture set produces zero live findings; returns the
/// suppressed count for inspection.
fn assert_silent(files: &[(&str, &str)]) -> usize {
    let diags = lint_files(files);
    let live: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert!(live.is_empty(), "expected silence, got {live:#?}");
    diags.iter().filter(|d| d.suppressed).count()
}

// ---------------------------------------------------------------- R6

#[test]
fn r6_hot_path_push_fires_with_line() {
    let src = "\
// amlint: hot
pub fn ingest(out: &mut Vec<u64>, v: u64) {
    out.push(v);
}
";
    let (rule, file, line) = sole_finding(&[("crates/net/src/fastpath.rs", src)]);
    assert_eq!(rule, "R6");
    assert_eq!(file, "crates/net/src/fastpath.rs");
    assert_eq!(line, 3);
}

#[test]
fn r6_without_hot_annotation_is_silent() {
    let src = "\
pub fn ingest(out: &mut Vec<u64>, v: u64) {
    out.push(v);
}
";
    let diags = lint_files(&[("crates/net/src/fastpath.rs", src)]);
    assert!(diags.is_empty(), "no hot root, no hot path: {diags:#?}");
}

#[test]
fn r6_allocation_fires_across_files() {
    let root = "\
// amlint: hot
pub fn ingest(frame: &[u8]) -> usize {
    decode_len(frame)
}
";
    let helper = "\
pub fn decode_len(frame: &[u8]) -> usize {
    let mut scratch = Vec::new();
    scratch.extend_from_slice(frame);
    scratch.len()
}
";
    let diags = lint_files(&[
        ("crates/net/src/rx.rs", root),
        ("crates/net/src/codec.rs", helper),
    ]);
    let live: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert_eq!(live.len(), 2, "{live:#?}");
    assert!(live
        .iter()
        .all(|d| d.rule == "R6" && d.file == "crates/net/src/codec.rs"));
    assert_eq!(live[0].line, 2); // Vec::new
    assert_eq!(live[1].line, 3); // extend_from_slice
                                 // The message names the call chain from the root.
    assert!(
        live[0].message.contains("ingest -> decode_len"),
        "{}",
        live[0].message
    );
}

#[test]
fn r6_fn_level_cold_stops_traversal() {
    let src = "\
// amlint: hot
pub fn ingest(&mut self, v: u64) {
    self.rebuild(v);
}

// amlint: cold -- rebuild runs at config reload only, not per event
fn rebuild(&mut self, v: u64) {
    self.cache = Vec::new();
    self.cache.push(v);
}
";
    let diags = lint_files(&[("crates/net/src/table.rs", src)]);
    assert!(
        diags.is_empty(),
        "cold fn is off the graph entirely: {diags:#?}"
    );
}

#[test]
fn r6_line_level_cold_blesses_one_site_with_reason() {
    let src = "\
// amlint: hot
pub fn ingest(out: &mut Vec<u64>, v: u64) {
    // amlint: cold -- pooled batch buffer, reused across calls
    out.push(v);
}
";
    let diags = lint_files(&[("crates/net/src/fastpath.rs", src)]);
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].suppressed,
        "blessed sites stay in the report as suppressed"
    );
    assert_eq!(
        diags[0].suppress_reason.as_deref(),
        Some("pooled batch buffer, reused across calls")
    );
}

// ---------------------------------------------------------------- R8

#[test]
fn r8_unwrap_fires_across_files_outside_the_hot_path_modules() {
    let root = "\
// amlint: hot
pub fn pump(frames: &[u8]) -> u32 {
    parse_frame(frames)
}
";
    let helper = "\
pub fn parse_frame(frame: &[u8]) -> u32 {
    let first = frame.first().unwrap();
    u32::from(*first)
}
";
    let diags = lint_files(&[
        ("crates/net/src/rx.rs", root),
        ("crates/net/src/wire.rs", helper),
    ]);
    let live: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "R8");
    assert_eq!(live[0].file, "crates/net/src/wire.rs");
    assert_eq!(live[0].line, 2);
    assert!(
        live[0].message.contains("pump -> parse_frame"),
        "{}",
        live[0].message
    );
}

#[test]
fn r8_unchecked_indexing_fires_with_line() {
    let src = "\
// amlint: hot
pub fn head(xs: &[u32]) -> u32 {
    xs[0]
}
";
    let (rule, _, line) = sole_finding(&[("crates/net/src/probe.rs", src)]);
    assert_eq!(rule, "R8");
    assert_eq!(line, 3);
}

#[test]
fn r8_fn_level_allow_covers_every_index_in_the_fn() {
    let src = "\
// amlint: hot
// amlint: allow(R8) -- indices masked to the table size by construction
pub fn probe(xs: &[u32], i: usize, j: usize) -> u32 {
    xs[i] + xs[j]
}
";
    assert_eq!(assert_silent(&[("crates/net/src/probe.rs", src)]), 1);
}

#[test]
fn r8_range_slicing_is_the_sanctioned_form() {
    let src = "\
// amlint: hot
pub fn window(xs: &[u32]) -> &[u32] {
    &xs[1..3]
}
";
    assert_silent(&[("crates/net/src/probe.rs", src)]);
}

// ---------------------------------------------------------------- R7

#[test]
fn r7_unbounded_channel_fires_bounded_is_silent() {
    let bad = "\
pub fn wire_up() {
    let (tx, rx) = unbounded();
    spawn_consumer(rx, tx);
}
";
    let (rule, _, line) = sole_finding(&[("crates/net/src/hub.rs", bad)]);
    assert_eq!(rule, "R7");
    assert_eq!(line, 2);

    let good = "\
pub fn wire_up() {
    let (tx, rx) = bounded(1024);
    spawn_consumer(rx, tx);
}
";
    assert_silent(&[("crates/net/src/hub.rs", good)]);
}

#[test]
fn r7_direct_send_under_live_guard_fires() {
    let src = "\
impl Relay {
    pub fn flush(&self) {
        let guard = self.state.lock();
        self.tx.send(*guard);
    }
}
";
    let (rule, _, line) = sole_finding(&[("crates/net/src/relay.rs", src)]);
    assert_eq!(rule, "R7");
    assert_eq!(line, 4);
}

#[test]
fn r7_transitive_send_under_guard_fires() {
    let src = "\
impl Relay {
    pub fn forward_locked(&self, v: u64) {
        let guard = self.seq.lock();
        self.forward(v + *guard);
    }

    fn forward(&self, v: u64) {
        self.tx.send(v);
    }
}
";
    let (rule, _, line) = sole_finding(&[("crates/net/src/relay.rs", src)]);
    assert_eq!(rule, "R7");
    assert_eq!(line, 4, "flagged at the call site, while the guard is live");
}

#[test]
fn r7_dropping_the_guard_first_is_silent() {
    let src = "\
impl Relay {
    pub fn forward_unlocked(&self, v: u64) {
        let guard = self.seq.lock();
        let seq = *guard;
        drop(guard);
        self.tx.send(seq + v);
    }
}
";
    assert_silent(&[("crates/net/src/relay.rs", src)]);
}

#[test]
fn r7_lock_order_cycle_is_detected() {
    let src = "\
impl Pair {
    pub fn ab(&self) -> u64 {
        let a = self.left.lock();
        let b = self.right.lock();
        *a + *b
    }

    pub fn ba(&self) -> u64 {
        let b = self.right.lock();
        let a = self.left.lock();
        *a + *b
    }
}
";
    let diags = lint_files(&[("crates/net/src/pair.rs", src)]);
    let cycles: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "R7" && d.message.contains("lock-order cycle"))
        .collect();
    assert!(!cycles.is_empty(), "{diags:#?}");
    assert!(cycles[0].message.contains("Pair.left") || cycles[0].message.contains("Pair.right"));
}

// ---------------------------------------------------------------- R9

#[test]
fn r9_narrowing_cast_of_tainted_binding_fires() {
    let src = "\
pub fn decode(buf: &mut Bytes) -> u16 {
    let n = buf.get_u32();
    n as u16
}
";
    let (rule, _, line) = sole_finding(&[("crates/int/src/wire.rs", src)]);
    assert_eq!(rule, "R9");
    assert_eq!(line, 3);
}

#[test]
fn r9_narrowing_cast_of_getter_result_fires() {
    let src = "\
pub fn decode(buf: &mut Bytes) -> u8 {
    buf.get_u16() as u8
}
";
    let (rule, _, line) = sole_finding(&[("crates/sflow/src/wire.rs", src)]);
    assert_eq!(rule, "R9");
    assert_eq!(line, 2);
}

#[test]
fn r9_widening_and_checked_conversions_are_silent() {
    let src = "\
pub fn decode(buf: &mut Bytes) -> u32 {
    let wide = buf.get_u16() as u32;
    let exact = u16::try_from(buf.get_u32()).unwrap_or(0);
    wide + u32::from(exact)
}
";
    assert_silent(&[("crates/int/src/wire.rs", src)]);
}

#[test]
fn r9_tainted_with_capacity_fires_clamped_is_silent() {
    let bad = "\
pub fn decode(buf: &mut Bytes) -> Vec<u8> {
    let count = buf.get_u32() as usize;
    Vec::with_capacity(count)
}
";
    let (rule, _, line) = sole_finding(&[("crates/ingest/src/frame.rs", bad)]);
    assert_eq!(rule, "R9");
    assert_eq!(line, 3);

    let good = "\
pub fn decode(buf: &mut Bytes) -> Vec<u8> {
    let count = buf.get_u32() as usize;
    Vec::with_capacity(count.min(4096))
}
";
    assert_silent(&[("crates/ingest/src/frame.rs", good)]);
}

#[test]
fn r9_is_scoped_to_the_decode_crates() {
    let src = "\
pub fn shrink(buf: &mut Bytes) -> u16 {
    let n = buf.get_u32();
    n as u16
}
";
    // Same code outside int/sflow/ingest: not R9's business.
    assert_silent(&[("crates/features/src/stats.rs", src)]);
    assert_silent(&[("crates/sim/src/engine.rs", src)]);
}

// ------------------------------------------------ resolver precision

#[test]
fn generic_method_names_do_not_propagate_hotness() {
    let root = "\
// amlint: hot
pub fn lookup(&self, i: usize) -> u64 {
    self.table.get(i).copied().unwrap_or(0)
}
";
    // A workspace fn that happens to share a std collection method's
    // name must not be dragged into the hot set by a bare-name edge.
    let decoy = "\
pub fn get(map: &[u64]) -> u64 {
    map.to_vec().pop().unwrap()
}
";
    assert_silent(&[
        ("crates/net/src/index.rs", root),
        ("crates/net/src/store.rs", decoy),
    ]);
}

#[test]
fn external_type_methods_do_not_resolve_by_name() {
    let root = "\
// amlint: hot
pub fn stamp(&mut self) {
    self.last = Instant::now();
}
";
    // `Instant::now` is external; a by-name fallback would link this.
    let decoy = "\
pub fn now() -> u64 {
    let mut v = Vec::new();
    v.push(1);
    v.len()
}
";
    assert_silent(&[
        ("crates/net/src/clock.rs", root),
        ("crates/net/src/wall.rs", decoy),
    ]);
}

#[test]
fn free_drop_never_links_to_drop_impls() {
    let root = "\
// amlint: hot
pub fn publish(&mut self, v: u64) {
    let guard = self.q.lock();
    drop(guard);
    self.emit(v);
}

fn emit(&mut self, _v: u64) {}
";
    // `drop(x)` is always `std::mem::drop`; Rust forbids calling
    // `Drop::drop` directly, so this impl must stay unreachable.
    let decoy = "\
impl Conn {
    fn drop(&mut self) {
        self.log.push(0);
    }
}
";
    assert_silent(&[
        ("crates/net/src/bus.rs", root),
        ("crates/net/src/conn.rs", decoy),
    ]);
}

// ------------------------------------------------- schema & drift gate

/// The JSON report of a fixture set, as `amlint --format json` renders
/// it.
fn report_json(files: &[(&str, &str)]) -> String {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(rel, src)| SourceFile::new(rel.to_string(), src))
        .collect();
    let (diagnostics, hot_roots) = analyze(&sources);
    Report {
        diagnostics,
        files_scanned: sources.len(),
        hot_roots,
    }
    .to_json()
}

#[test]
fn report_json_is_schema_v3_with_hot_roots_and_no_lines() {
    assert_eq!(SCHEMA_VERSION, 3);
    let json = report_json(&[(
        "crates/net/src/fastpath.rs",
        "// amlint: hot\npub fn ingest(out: &mut Vec<u64>, v: u64) {\n    out.push(v);\n}\n",
    )]);
    assert!(
        json.starts_with("{\n  \"version\": 3,"),
        "version leads the document"
    );
    assert!(json.contains("\"hot_roots\": ["));
    assert!(json.contains("\"crates/net/src/fastpath.rs::ingest\""));
    assert!(json.contains("\"rule\": \"R6\""), "{json}");
    assert!(!json.contains("\"line\""), "{json}");
    assert!(json.ends_with("}\n"));
}

#[test]
fn moving_a_blessed_site_leaves_the_report_unchanged() {
    let src = "\
// amlint: hot
pub fn ingest(out: &mut Vec<u64>, v: u64) -> u64 {
    // amlint: cold -- pooled batch buffer, reused across calls
    out.push(v);
    // amlint: cold -- the caller sized the buffer above the batch
    out.push(v + 1);
    v
}
";
    let moved = "\
// amlint: hot
pub fn ingest(out: &mut Vec<u64>, v: u64) -> u64 {


    // amlint: cold -- the caller sized the buffer above the batch
    out.push(v + 1);

    // amlint: cold -- pooled batch buffer, reused across calls
    out.push(v);
    v
}
";
    let rel = "crates/net/src/fastpath.rs";
    let before = report_json(&[(rel, src)]);
    assert_eq!(
        before.matches("\"suppressed\": true").count(),
        2,
        "{before}"
    );
    assert_eq!(report_json(&[(rel, moved)]), before);
}

// -------------------------------------------- acceptance contract

/// The v2 acceptance trio: each deliberately introduced defect class
/// must produce at least one live finding under its rule.
#[test]
fn acceptance_trio_each_fails() {
    let hot_push = "\
// amlint: hot
pub fn ingest(out: &mut Vec<u64>, v: u64) {
    out.push(v);
}
";
    let unbounded = "\
pub fn wire_up() {
    let (tx, rx) = unbounded();
    spawn_consumer(rx, tx);
}
";
    let narrowing = "\
pub fn decode(buf: &mut Bytes) -> u16 {
    let n = buf.get_u32();
    n as u16
}
";
    for (rel, src, rule) in [
        ("crates/net/src/fastpath.rs", hot_push, "R6"),
        ("crates/net/src/hub.rs", unbounded, "R7"),
        ("crates/int/src/wire.rs", narrowing, "R9"),
    ] {
        let diags = lint_files(&[(rel, src)]);
        assert!(
            diags.iter().any(|d| !d.suppressed && d.rule == rule),
            "{rel} must fail {rule}, got {diags:#?}"
        );
    }
}
