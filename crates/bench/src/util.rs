//! Small shared helpers for the `repro` binary.

use amlight_core::trainer::TrainerConfig;
use amlight_features::{FeatureId, FeatureSet};
use amlight_ml::{MlpConfig, RandomForestConfig};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// The queue-blind projection sFlow populates (12 of 15 columns).
pub fn sflow_set() -> FeatureSet {
    FeatureSet::full().without(&FeatureId::QUEUE_COLUMNS)
}

/// The Random Forest the offline experiments train: 10 trees under
/// `--fast`, [`RandomForestConfig::fast`] otherwise.
pub fn forest_config(fast: bool) -> RandomForestConfig {
    if fast {
        RandomForestConfig {
            n_trees: 10,
            ..RandomForestConfig::fast()
        }
    } else {
        RandomForestConfig::fast()
    }
}

/// The bundle the threaded-pipeline targets (telemetry, prefilter)
/// train: 4 MLP epochs and 10 trees under `--fast`, 10 and 30 otherwise.
pub fn streaming_trainer_config(fast: bool) -> TrainerConfig {
    TrainerConfig {
        mlp: MlpConfig {
            epochs: if fast { 4 } else { 10 },
            ..MlpConfig::paper_mlp()
        },
        forest: RandomForestConfig {
            n_trees: if fast { 10 } else { 30 },
            ..RandomForestConfig::fast()
        },
        ..Default::default()
    }
}

/// `file` (a committed artifact's path from the repo root) moved into
/// `AMLIGHT_RESULTS_DIR`, when that is set.
fn redirected(file: &str) -> Option<PathBuf> {
    let dir = std::env::var("AMLIGHT_RESULTS_DIR").ok()?;
    Some(Path::new(&dir).join(Path::new(file).file_name()?))
}

/// Where the committed artifact `file` (`results/telemetry.json`,
/// `BENCH_drift.json`, …) is read from: the same file name in
/// `AMLIGHT_RESULTS_DIR` when that is set, `file` itself otherwise.
pub fn artifact_path(file: &str) -> PathBuf {
    redirected(file).unwrap_or_else(|| PathBuf::from(file))
}

/// Serialize `value` to [`artifact_path`]`(file)`. Every committed
/// artifact is a full run: a `--fast` smoke run writes only into an
/// explicitly set `AMLIGHT_RESULTS_DIR`, and without one prints and
/// leaves the committed file alone. Failures are reported, not fatal —
/// the printed table is the primary artifact.
pub fn write_json<T: Serialize>(file: &str, value: &T, fast: bool) {
    let path = match redirected(file) {
        Some(path) => path,
        None if fast => {
            eprintln!("(--fast: {file} left as committed)");
            return;
        }
        None => PathBuf::from(file),
    };
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warn: cannot create {}: {e}", dir.display());
            return;
        }
    }
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
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
