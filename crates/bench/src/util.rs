//! Small shared helpers for the `repro_*` and `bench_*` binaries.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// `--fast` trims workload sizes and training budgets for smoke runs.
pub fn flag_fast() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// `--seed N` overrides the default experiment seed.
pub fn arg_seed(default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Directory JSON results are written to (`results/` at the repo root,
/// overridable with `AMLIGHT_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var("AMLIGHT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Serialize `value` to `results/<name>.json`, creating the directory.
/// Failures are reported, not fatal — the printed table is the primary
/// artifact.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    write_pretty(&dir.join(format!("{name}.json")), value);
}

/// Serialize a gated bench's report to `BENCH_<name>.json` at the repo
/// root — full runs only. A `--fast` smoke run prints and gates but
/// writes nothing, so it can never become, or clobber, the committed
/// artifact.
pub fn write_bench_artifact<T: Serialize>(name: &str, value: &T, fast: bool) {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    if fast {
        eprintln!("(--fast: {} left as committed)", path.display());
    } else {
        write_pretty(&path, value);
    }
}

fn write_pretty<T: Serialize>(path: &Path, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warn: cannot write {}: {e}", path.display());
            } else {
                eprintln!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warn: cannot serialize {}: {e}", path.display()),
    }
}

/// `Err` unless `json` is the artifact of a full run: a `--check` that
/// reads a committed file must not pass on the trimmed workload of a
/// `--fast` smoke run that overwrote it.
pub fn require_full_run(json: &str) -> Result<(), String> {
    let fast = serde_json::from_str::<serde_json::Value>(json)
        .map_err(|e| format!("not JSON: {e}"))?
        .get("fast")
        .and_then(serde_json::Value::as_bool);
    match fast {
        Some(false) => Ok(()),
        Some(true) => Err("written by a --fast smoke run; regenerate it as a full run".into()),
        None => Err("no boolean `fast` field".into()),
    }
}

/// Print a section header.
pub fn banner(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_fast_artifact_is_refused() {
        use super::require_full_run;
        assert_eq!(require_full_run(r#"{"seed": 1, "fast": false}"#), Ok(()));
        for refused in [r#"{"seed": 1, "fast": true}"#, r#"{"seed": 1}"#, ""] {
            assert!(require_full_run(refused).is_err(), "{refused:?}");
        }
    }
}
