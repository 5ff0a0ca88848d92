//! Bundle provenance: who trained this model, on what, and when.
//!
//! A deployed bundle outlives the process that trained it, so the
//! artifact itself must carry enough metadata for a loader to refuse
//! rather than mispredict: the serialization schema it was written
//! under, the feature width it expects, the training window it saw,
//! and the publication epoch it was stamped with. The epoch is what
//! the live pipeline threads through every verdict (see
//! `amlight_core::epoch`), turning "which model said this?" from a
//! deployment-log archaeology question into a database column.

use serde::{Deserialize, Serialize};

/// Version of the persisted bundle layout. Bump when `ModelBundle`'s
/// serialized shape changes incompatibly; loaders reject mismatches.
/// v3: `feature_set` became a column-mask descriptor (was a 2-variant
/// backend enum) when the telemetry registry landed.
pub const BUNDLE_SCHEMA_VERSION: u32 = 3;

/// Provenance stamped into every trained bundle and carried through to
/// each verdict the bundle produces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleMeta {
    /// Persisted-layout version; see [`BUNDLE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Publication epoch: 0 for an offline-trained bundle, incremented
    /// by the epoch handle on every hot-swap publish.
    pub epoch: u64,
    /// Feature-row width the models were fit on. A loader feeding a
    /// different width would silently mispredict — reject instead.
    pub n_features: usize,
    /// Number of labeled rows in the training set.
    pub n_rows: usize,
    /// Telemetry-time bounds (ns) of the training window, `0..=0` when
    /// the trainer saw no timestamps.
    pub train_window_start_ns: u64,
    pub train_window_end_ns: u64,
}

/// Why a bundle is unusable here.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaError {
    /// Written under a different persisted layout.
    SchemaVersion { found: u32, expected: u32 },
    /// Fit on a different feature width than the caller will feed it.
    FeatureWidth { found: usize, expected: usize },
    /// A forest leaf that is not a probability: NaN, infinite or outside
    /// [0, 1] (see `RandomForest::invalid_leaf`). Training never writes
    /// one, and the forest's early-exit vote is exact only without one.
    ForestLeaf {
        tree: usize,
        node: usize,
        proba: f64,
    },
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::SchemaVersion { found, expected } => write!(
                f,
                "bundle schema v{found} is not the supported v{expected}; retrain the bundle"
            ),
            MetaError::FeatureWidth { found, expected } => write!(
                f,
                "bundle was trained on {found}-wide feature rows but this \
                 pipeline produces {expected}-wide rows"
            ),
            MetaError::ForestLeaf { tree, node, proba } => write!(
                f,
                "forest tree {tree} node {node} holds leaf probability {proba}, \
                 outside [0, 1]; the bundle is damaged — retrain it"
            ),
        }
    }
}

impl std::error::Error for MetaError {}

impl BundleMeta {
    /// Metadata for a freshly (offline-)trained bundle: epoch 0, the
    /// current schema version, and the given training provenance.
    pub fn offline(n_features: usize, n_rows: usize, window_ns: (u64, u64)) -> Self {
        Self {
            schema_version: BUNDLE_SCHEMA_VERSION,
            epoch: 0,
            n_features,
            n_rows,
            train_window_start_ns: window_ns.0,
            train_window_end_ns: window_ns.1,
        }
    }

    /// Reject stale or mismatched bundles before they can mispredict.
    pub fn validate(&self, expected_features: usize) -> Result<(), MetaError> {
        if self.schema_version != BUNDLE_SCHEMA_VERSION {
            return Err(MetaError::SchemaVersion {
                found: self.schema_version,
                expected: BUNDLE_SCHEMA_VERSION,
            });
        }
        if self.n_features != expected_features {
            return Err(MetaError::FeatureWidth {
                found: self.n_features,
                expected: expected_features,
            });
        }
        Ok(())
    }

    /// Duration of the training window in nanoseconds.
    pub fn train_window_ns(&self) -> u64 {
        self.train_window_end_ns
            .saturating_sub(self.train_window_start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_meta_validates_against_its_own_width() {
        let m = BundleMeta::offline(15, 1000, (10, 500));
        assert_eq!(m.epoch, 0);
        assert_eq!(m.schema_version, BUNDLE_SCHEMA_VERSION);
        assert_eq!(m.train_window_ns(), 490);
        assert!(m.validate(15).is_ok());
    }

    #[test]
    fn width_mismatch_is_rejected_with_both_sides_named() {
        let m = BundleMeta::offline(12, 10, (0, 0));
        let err = m.validate(15).unwrap_err();
        assert_eq!(
            err,
            MetaError::FeatureWidth {
                found: 12,
                expected: 15
            }
        );
        assert!(err.to_string().contains("12-wide"));
    }

    #[test]
    fn old_schema_is_rejected() {
        let m = BundleMeta {
            schema_version: BUNDLE_SCHEMA_VERSION - 1,
            ..BundleMeta::offline(15, 10, (0, 0))
        };
        let err = m.validate(15).unwrap_err();
        assert!(matches!(err, MetaError::SchemaVersion { .. }));
        assert!(err.to_string().contains("retrain"));
    }

    #[test]
    fn meta_roundtrips_through_json() {
        let m = BundleMeta {
            epoch: 7,
            ..BundleMeta::offline(15, 42, (100, 900))
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: BundleMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn inverted_window_saturates_to_zero() {
        let m = BundleMeta::offline(15, 1, (500, 10));
        assert_eq!(m.train_window_ns(), 0);
    }
}
