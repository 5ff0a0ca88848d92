//! Fixture suite for the single-file amlint contracts: one known-bad
//! snippet per contract asserting the exact rule ID and line that
//! fires, plus a suppressed variant asserting silence. R2 and R3 are
//! per-file rules; the hot-path-module panic scan (R8) and the
//! lock-across-send check (R7) are cross-file rules whose fixtures
//! here need no second file.
//!
//! These fixtures double as the rule catalog's executable examples —
//! if a rule's trigger conditions change, this file is where the
//! contract breaks first.

use amlint::lint_source;

/// The one (rule, line) pair of live findings in a snippet.
fn sole_finding(rel: &str, src: &str) -> (String, u32) {
    let diags = lint_source(rel, src);
    let live: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert_eq!(
        live.len(),
        1,
        "expected exactly one live finding in {rel}, got {live:#?}"
    );
    (live[0].rule.to_string(), live[0].line)
}

/// Assert a snippet produces zero live findings (suppressed ones may
/// remain, and are returned for inspection).
fn assert_silent(rel: &str, src: &str) -> usize {
    let diags = lint_source(rel, src);
    let live: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert!(live.is_empty(), "expected silence in {rel}, got {live:#?}");
    diags.iter().filter(|d| d.suppressed).count()
}

// ------------------------------------------------- R8, hot-path module

#[test]
fn r8_unwrap_in_hot_path_module_fires_with_line() {
    let src = "\
fn scale(xs: &[f64]) -> f64 {
    let first = xs.first().unwrap();
    *first
}
";
    let (rule, line) = sole_finding("crates/ml/src/scaler.rs", src);
    assert_eq!(rule, "R8");
    assert_eq!(line, 2);
}

#[test]
fn r8_suppressed_unwrap_in_hot_path_module_is_silent() {
    let src = "\
fn scale(xs: &[f64]) -> f64 {
    // amlint: allow(R8) -- caller guarantees non-empty, measured hot loop
    let first = xs.first().unwrap();
    *first
}
";
    assert_eq!(assert_silent("crates/ml/src/scaler.rs", src), 1);
}

#[test]
fn r8_unreachable_in_hot_path_module_fires_without_a_hot_root() {
    let src = "\
fn last_layer(n: usize) -> usize {
    match n {
        0 => unreachable!(\"network has at least one layer\"),
        n => n - 1,
    }
}
";
    let (rule, line) = sole_finding("crates/ml/src/mlp.rs", src);
    assert_eq!(rule, "R8");
    assert_eq!(line, 3);
}

#[test]
fn r8_catches_panic_macros_but_not_lookalikes() {
    let src = "\
fn f(v: Option<u32>) -> u32 {
    panic!(\"x\");
    todo!();
    std::panic::catch_unwind(|| {});
    v.unwrap_or(0)
}
";
    let diags = lint_source("crates/ml/src/tree.rs", src);
    let found: Vec<_> = diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(found, [("R8", 2), ("R8", 3)], "{diags:#?}");
}

#[test]
fn r8_module_scan_is_scoped_to_hot_path_modules() {
    let src = "fn f(xs: &[f64]) -> f64 { *xs.first().unwrap() }";
    // Same code outside the hot path and off every hot root: not R8's
    // business.
    assert_silent("crates/sim/src/engine.rs", src);
    assert_silent("crates/cli/src/commands.rs", src);
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_plain_subtraction_on_tstamp_fires_with_line() {
    let src = "\
fn hop_latency(ingress_tstamp: u32, egress_tstamp: u32) -> u32 {
    egress_tstamp - ingress_tstamp
}
";
    let diags = lint_source("crates/int/src/metadata.rs", src);
    let live: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    // Both operands are timestamps; both sides report, same line.
    assert!(!live.is_empty());
    assert!(
        live.iter().all(|d| d.rule == "R2" && d.line == 2),
        "{live:#?}"
    );
}

#[test]
fn r2_saturating_sub_on_tstamp_fires() {
    let src = "\
fn gap(egress_tstamp: u32, prev_tstamp: u32) -> u32 {
    egress_tstamp.saturating_sub(prev_tstamp)
}
";
    let (rule, line) = sole_finding("crates/int/src/report.rs", src);
    assert_eq!(rule, "R2");
    assert_eq!(line, 2);
}

#[test]
fn r2_wrapping_sub_is_the_sanctioned_form() {
    let src = "\
fn hop_latency(ingress_tstamp: u32, egress_tstamp: u32) -> u32 {
    egress_tstamp.wrapping_sub(ingress_tstamp)
}
";
    assert_silent("crates/int/src/metadata.rs", src);
}

#[test]
fn r2_suppression_silences() {
    let src = "\
fn widened(egress_tstamp: u64) -> u64 {
    egress_tstamp - 1 // amlint: allow(R2) -- already widened to u64 collector clock
}
";
    assert_eq!(assert_silent("crates/int/src/report.rs", src), 1);
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_float_equality_fires_with_line() {
    let src = "\
fn is_idle(rate: f64) -> bool {
    rate == 0.0
}
";
    let (rule, line) = sole_finding("crates/features/src/stats.rs", src);
    assert_eq!(rule, "R3");
    assert_eq!(line, 2);
}

#[test]
fn r3_suppressed_equality_is_silent() {
    let src = "\
fn is_sentinel(rate: f64) -> bool {
    // amlint: allow(R3) -- sentinel is assigned, never computed
    rate == -1.0
}
";
    assert_eq!(assert_silent("crates/features/src/stats.rs", src), 1);
}

// -------------------------------------------- R7, lock across a send

#[test]
fn r7_send_under_live_guard_fires_with_line() {
    let src = "\
fn forward(&self) {
    let guard = self.cursor.lock();
    self.tx.send(*guard);
}
";
    let (rule, line) = sole_finding("crates/core/src/runtime.rs", src);
    assert_eq!(rule, "R7");
    assert_eq!(line, 3);
}

#[test]
fn r7_dropping_the_guard_first_is_silent() {
    let src = "\
fn forward(&self) {
    let guard = self.cursor.lock();
    let v = *guard;
    drop(guard);
    self.tx.send(v);
}
";
    assert_silent("crates/core/src/runtime.rs", src);
}

#[test]
fn r7_temporary_guard_dies_at_statement_end() {
    let src = "\
fn forward(&self) {
    *self.cursor.lock() = 5;
    self.tx.send(1);
}
";
    assert_silent("crates/core/src/runtime.rs", src);
}

#[test]
fn r7_suppression_silences() {
    let src = "\
fn forward(&self) {
    let guard = self.cursor.lock();
    self.tx.send(*guard); // amlint: allow(R7) -- unbounded channel, send never blocks
}
";
    assert_eq!(assert_silent("crates/core/src/runtime.rs", src), 1);
}

// ------------------------------------------------------- cross-rule

#[test]
fn test_regions_are_exempt_from_hot_path_rules() {
    let src = "\
fn live() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn exercises_panics() {
        let v: Vec<u32> = vec![1];
        assert_eq!(*v.first().unwrap(), 1);
        if (0.5f64) == 0.5 {
            panic!(\"test-only panic is fine\");
        }
    }
}
";
    assert_silent("crates/ml/src/tree.rs", src);
}

#[test]
fn suppression_does_not_leak_to_other_lines() {
    let src = "\
fn f(xs: &[f64]) -> f64 {
    // amlint: allow(R8) -- covers only the next line
    let a = xs.first().unwrap();
    let b = xs.last().unwrap();
    *a + *b
}
";
    let diags = lint_source("crates/ml/src/scaler.rs", src);
    let live: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].line, 4);
    assert_eq!(diags.iter().filter(|d| d.suppressed).count(), 1);
}
