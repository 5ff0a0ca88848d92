//! Offline training: from labeled telemetry to a deployable model bundle.
//!
//! The paper pre-trains its models offline on a replayed capture
//! (§IV-C.2) and ships them, plus the fitted scaler, to the Prediction
//! module. [`train_bundle`] reproduces that step; the dataset builders
//! are also used directly by the Table III/IV experiment binaries.

use crate::event::{LabeledEvent, Telemetry};
use amlight_features::{
    FeatureId, FeatureSet, FlowTable, FlowTableConfig, TriageConfig, TriageStage,
};
use amlight_ml::model::BinaryClassifier;
use amlight_ml::{
    BundleMeta, Dataset, GaussianNb, MajorityEnsemble, MetaError, Mlp, MlpConfig, RandomForest,
    RandomForestConfig, StandardScaler, BUNDLE_SCHEMA_VERSION,
};
use amlight_net::TrafficClass;
use serde::{Deserialize, Serialize};

/// Build a labeled dataset from any telemetry backend's events: one row
/// per packet, the feature snapshot *after* that packet's flow-table
/// update (exactly what the live pipeline would feed the models).
///
/// Backend-blind by construction: every event lowers itself into a
/// normalized [`amlight_features::FlowUpdate`] via [`Telemetry`], so the
/// same code path trains on INT reports, sFlow samples, or PINT digests.
///
/// When `set` includes the [`FeatureId::SketchScore`] extension column a
/// shadow [`TriageStage`] (default knobs) scores every update exactly as
/// the live Processor would, so the trained models see the same column
/// distribution they will get at detection time.
pub fn dataset_from_events<E: Telemetry>(
    labeled: &[(E, TrafficClass)],
    set: FeatureSet,
) -> Dataset {
    dataset_rows(labeled.iter().map(|(event, class)| (event, *class)), set)
}

/// Same, over already-erased [`LabeledEvent`]s (what
/// [`crate::event::TelemetryBackend::derive_view`] produces).
pub fn dataset_from_labeled(labeled: &[LabeledEvent], set: FeatureSet) -> Dataset {
    dataset_rows(
        labeled.iter().map(|ev| {
            // amlint: cold -- offline training; unlabeled events are a usage error
            let class = ev.truth.expect("training requires ground-truth labels");
            (&ev.event, class)
        }),
        set,
    )
}

/// The row loop behind both dataset builders.
fn dataset_rows<'a, E: Telemetry + 'a>(
    labeled: impl ExactSizeIterator<Item = (&'a E, TrafficClass)>,
    set: FeatureSet,
) -> Dataset {
    let mut table = FlowTable::new(FlowTableConfig::default());
    let mut triage = sketch_stage_for(set);
    let mut data = Dataset::with_capacity(set.dim(), labeled.len());
    let mut buf = Vec::with_capacity(set.dim());
    for (event, class) in labeled {
        let update = event.flow_update();
        let (_, rec) = table.apply(&update);
        let mut features = rec.features();
        if let Some(stage) = triage.as_mut() {
            features.set(FeatureId::SketchScore, stage.assess(&update, rec).score);
        }
        buf.clear();
        features.project_into(set, &mut buf);
        data.push(&buf, class.label());
    }
    data
}

/// A shadow triage scorer when (and only when) the feature set asks for
/// the sketch-score extension column.
fn sketch_stage_for(set: FeatureSet) -> Option<TriageStage> {
    set.contains(FeatureId::SketchScore)
        .then(|| TriageStage::new(TriageConfig::default()))
}

/// Training knobs for the deployable bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    pub forest: RandomForestConfig,
    pub mlp: MlpConfig,
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            forest: RandomForestConfig::fast(),
            // The testbed deployment uses the 64-32-16 MLPClassifier.
            mlp: MlpConfig::paper_mlp(),
            seed: 0xA317,
        }
    }
}

/// The paper's deployed artifact: scaler + MLP + RF + GNB (§IV-C.3 — KNN
/// is dropped for prediction-latency reasons), stamped with its
/// provenance ([`BundleMeta`]: schema version, publication epoch,
/// feature width, training-window bounds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelBundle {
    pub scaler: StandardScaler,
    pub mlp: Mlp,
    pub forest: RandomForest,
    pub gnb: GaussianNb,
    pub feature_set: FeatureSet,
    pub meta: BundleMeta,
}

/// Caller-owned scratch for [`ModelBundle::votes_batch`]. Reusing it
/// across batches keeps the detection hot path allocation-free once the
/// buffers have grown to the working batch size.
#[derive(Debug, Clone, Default)]
pub struct VoteScratch {
    scaled: Vec<f64>,
    proba: Vec<f64>,
    /// Batch indices of the rows GNB and the forest split on, in row
    /// order (sized for the batch; the leading escalated-count entries
    /// are live).
    split_idx: Vec<usize>,
    /// Those rows' scaled features gathered row-major for the MLP,
    /// parallel to `split_idx`.
    split_rows: Vec<f64>,
}

/// What one [`ModelBundle::votes_batch`] call cost beyond its rows'
/// scaler, GNB and gather work — the two figures that vary with the
/// bundle and the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteCost {
    /// Rows GNB and the forest split on, which the MLP then scored.
    pub escalated: usize,
    /// Trees the forest walked, summed over the batch's rows (at most
    /// rows × trees; the early exit stops once a vote is settled).
    pub trees_walked: u64,
}

/// The 2-of-3 rule over the two votes taken first: when they agree that
/// is the majority whatever the third member says, and when they split
/// (`None`) the third member's vote *is* the majority. The one
/// definition behind [`ModelBundle::ensemble_vote`] and
/// [`ModelBundle::votes_batch`].
#[inline]
fn settled(gnb: bool, forest: bool) -> Option<bool> {
    (gnb == forest).then_some(gnb)
}

impl ModelBundle {
    /// Individual model votes (MLP, RF, GNB order) for a raw (unscaled)
    /// feature row. Always evaluates all three members: this is the
    /// independent reference the early-exit paths
    /// ([`ModelBundle::ensemble_vote`], [`ModelBundle::votes_batch`])
    /// are tested against, and what the ablation reports read per-model
    /// votes from.
    pub fn votes(&self, raw_features: &[f64]) -> [bool; 3] {
        let mut row = raw_features.to_vec();
        self.scaler.transform_row(&mut row);
        [
            self.mlp.predict_one(&row),
            self.forest.predict_one(&row),
            self.gnb.predict_one(&row),
        ]
    }

    /// The 2-of-3 ensemble decision for a raw feature row: GNB and the
    /// forest vote (the forest through its early-exit decision path), and
    /// the MLP is consulted only to break their tie — the same majority
    /// [`ModelBundle::votes`] would count.
    pub fn ensemble_vote(&self, raw_features: &[f64]) -> bool {
        let mut row = raw_features.to_vec();
        self.scaler.transform_row(&mut row);
        let mut forest = [false];
        self.forest.decide_batch(&row, row.len(), &mut forest);
        settled(self.gnb.predict_one(&row), forest[0]).unwrap_or_else(|| self.mlp.predict_one(&row))
    }

    /// Batched 2-of-3 ensemble decisions over contiguous row-major raw
    /// (unscaled) features, with two exact early exits: one scaler pass,
    /// GNB scores the whole batch through its columnar
    /// `predict_proba_batch`, the forest votes through
    /// [`RandomForest::decide_batch`] (which stops walking a row's trees
    /// once the rest cannot change its vote), and only the rows those two
    /// split on are gathered and escalated to the MLP — structurally the
    /// dearest member — whose vote breaks the tie. Where the two agree
    /// the majority is already theirs.
    ///
    /// `out` is cleared and refilled with one decision per row, in row
    /// order, identical to the three-member count over
    /// [`ModelBundle::votes`]: every member kernel is bit-stable per row
    /// whatever else shares its batch, the forest's decision path equals
    /// [`amlight_ml::decide`] on its probability path, and `decide` is
    /// the one threshold on every path. At worst (the cheap members split
    /// on every row, and every row's forest sum hovers at the cut) the
    /// call costs the three-member pass plus one row copy and a few
    /// compares per tree.
    pub fn votes_batch(
        &self,
        rows: &[f64],
        n_features: usize,
        scratch: &mut VoteScratch,
        out: &mut Vec<bool>,
    ) -> VoteCost {
        assert!(n_features > 0 || rows.is_empty(), "rows need features");
        let n_rows = rows.len().checked_div(n_features).unwrap_or(0);
        assert_eq!(
            rows.len(),
            n_rows * n_features,
            "votes_batch: {} values is not a whole number of {n_features}-wide rows",
            rows.len()
        );
        out.clear();
        out.resize(n_rows, false);
        if n_rows == 0 {
            return VoteCost::default();
        }

        scratch.scaled.clear();
        scratch.scaled.resize(rows.len(), 0.0);
        self.scaler.transform_into(rows, &mut scratch.scaled);

        let trees_walked = self.forest.decide_batch(&scratch.scaled, n_features, out);
        scratch.proba.clear();
        scratch.proba.resize(n_rows, 0.0);
        self.gnb
            .predict_proba_batch(&scratch.scaled, n_features, &mut scratch.proba);
        scratch.split_idx.clear();
        scratch.split_idx.resize(n_rows, 0);
        let mut n_split = 0;
        for (i, (o, &p)) in out.iter_mut().zip(&scratch.proba).enumerate() {
            match settled(amlight_ml::decide(p), *o) {
                Some(majority) => *o = majority,
                None => {
                    scratch.split_idx[n_split] = i;
                    n_split += 1;
                }
            }
        }
        let cost = VoteCost {
            escalated: n_split,
            trees_walked,
        };
        if n_split == 0 {
            return cost;
        }

        let split_idx = &scratch.split_idx[..n_split];
        scratch.split_rows.clear();
        scratch.split_rows.resize(n_split * n_features, 0.0);
        for (dst, &i) in scratch
            .split_rows
            .chunks_exact_mut(n_features)
            .zip(split_idx)
        {
            dst.copy_from_slice(&scratch.scaled[i * n_features..(i + 1) * n_features]);
        }
        let tie_break = &mut scratch.proba[..n_split];
        self.mlp
            .predict_proba_batch(&scratch.split_rows, n_features, tie_break);
        for (&i, &p) in split_idx.iter().zip(&*tie_break) {
            out[i] = amlight_ml::decide(p);
        }
        cost
    }

    /// Wrap the three members as a [`MajorityEnsemble`] over *scaled*
    /// inputs (for the generic evaluation paths).
    pub fn into_ensemble(self) -> MajorityEnsemble {
        MajorityEnsemble::new(vec![
            Box::new(self.mlp),
            Box::new(self.forest),
            Box::new(self.gnb),
        ])
    }

    /// Stamp the training-window bounds (telemetry-clock ns) into the
    /// bundle's metadata. Builder-style: used by trainers that know the
    /// capture's time range.
    pub fn with_train_window(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.meta.train_window_start_ns = start_ns;
        self.meta.train_window_end_ns = end_ns;
        self
    }

    /// Reject this bundle unless it was persisted under the current
    /// schema and fit on exactly the feature rows `set` produces. This
    /// is the load-time gate that turns "stale artifact" into a usage
    /// error instead of silent mispredictions.
    ///
    /// A forest leaf that is not a probability in [0, 1] is rejected
    /// here too: [`RandomForest::decide_batch`]'s early exit is exact
    /// only over valid leaves, and training never writes another kind.
    pub fn validate_for(&self, set: FeatureSet) -> Result<(), MetaError> {
        self.meta.validate(set.dim())?;
        if let Some((tree, node, proba)) = self.forest.invalid_leaf() {
            return Err(MetaError::ForestLeaf { tree, node, proba });
        }
        if self.feature_set != set {
            // Same width but a different projection would also
            // mispredict; the widths of Int (15) and Sflow (12) differ
            // today, so this arm is future-proofing.
            return Err(MetaError::FeatureWidth {
                found: self.feature_set.dim(),
                expected: set.dim(),
            });
        }
        Ok(())
    }

    /// Persist the bundle as JSON — the artifact the paper's Prediction
    /// module "uploads" at initialization (§III-4: "the pre-trained ML
    /// models and the coefficients of scaler transformation").
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Load a bundle saved with [`ModelBundle::save`]. Bundles written
    /// before metadata stamping existed (or under any other schema) fail
    /// here with an error naming the fix, not downstream with wrong
    /// verdicts.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(|e| {
            // amlint: cold -- bundle load is CLI-startup/artifact work, never per event
            std::io::Error::other(format!(
                "not a schema-v{BUNDLE_SCHEMA_VERSION} model bundle ({e}); \
                 retrain it with `amlight train`"
            ))
        })
    }
}

/// Fit the scaler and all three models on a raw (unscaled) dataset.
/// The bundle is stamped as epoch 0 (offline training); hot-swap
/// publishes restamp the epoch, and drivers that know the capture's
/// time range add it via [`ModelBundle::with_train_window`].
pub fn train_bundle(raw: &Dataset, set: FeatureSet, cfg: &TrainerConfig) -> ModelBundle {
    assert!(!raw.is_empty(), "cannot train on an empty capture");
    let mut scaled = raw.clone();
    let scaler = StandardScaler::fit_transform(&mut scaled);
    let mlp = Mlp::fit(&scaled, &cfg.mlp, cfg.seed);
    let forest = RandomForest::fit(&scaled, &cfg.forest, cfg.seed ^ 0x51);
    let gnb = GaussianNb::fit(&scaled);
    ModelBundle {
        scaler,
        mlp,
        forest,
        gnb,
        feature_set: set,
        meta: BundleMeta::offline(set.dim(), raw.len(), (0, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_int::{HopMetadata, InstructionSet, TelemetryReport};
    use amlight_net::{FlowKey, Protocol};
    use amlight_sflow::FlowSample;
    use std::net::Ipv4Addr;

    /// The queue-blind projection sFlow populates (12 of 15 columns).
    fn sflow_set() -> FeatureSet {
        FeatureSet::full().without(&amlight_features::FeatureId::QUEUE_COLUMNS)
    }

    fn report(port: u16, seqno: u32, len: u16, qocc: u32) -> TelemetryReport {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(9, 9, 9, 9),
                Ipv4Addr::new(10, 0, 0, 2),
                port,
                80,
                Protocol::Tcp,
            ),
            ip_len: len,
            tcp_flags: Some(0x02),
            instructions: InstructionSet::amlight(),
            hops: vec![HopMetadata {
                switch_id: 0,
                ingress_tstamp: seqno * 1_000,
                egress_tstamp: seqno * 1_000 + 500,
                hop_latency: 0,
                queue_occupancy: qocc,
            }]
            .into(),
            export_ns: u64::from(seqno) * 1_000,
        }
    }

    /// Flood-ish attack reports (tiny, fast, queue-building) vs benign
    /// (bigger, slower) — enough contrast to train on.
    fn labeled_reports(n: usize) -> Vec<(TelemetryReport, TrafficClass)> {
        let mut v = Vec::new();
        for i in 0..n as u32 {
            // Benign flows on ports 1000..1010, one packet per ms.
            v.push((
                report(1000 + (i % 10) as u16, i * 1000, 800, 0),
                TrafficClass::Benign,
            ));
            // Attack flows on ports 2000..2004, packets 2 µs apart, queue
            // pressure visible.
            v.push((
                report(2000 + (i % 4) as u16, i * 2, 40, 30 + (i % 8)),
                TrafficClass::SynFlood,
            ));
        }
        v
    }

    #[test]
    fn int_dataset_has_row_per_report() {
        let labeled = labeled_reports(50);
        let d = dataset_from_events(&labeled, FeatureSet::full());
        assert_eq!(d.len(), 100);
        assert_eq!(d.n_features(), 15);
        assert_eq!(d.class_counts(), (50, 50));
    }

    #[test]
    fn sflow_dataset_is_twelve_wide() {
        let labeled: Vec<(FlowSample, TrafficClass)> = (0..20)
            .map(|i| {
                (
                    FlowSample {
                        flow: FlowKey::new(
                            Ipv4Addr::new(9, 9, 9, 9),
                            Ipv4Addr::new(10, 0, 0, 2),
                            1000 + (i % 5) as u16,
                            80,
                            Protocol::Tcp,
                        ),
                        ip_len: 500,
                        tcp_flags: Some(0x10),
                        observed_ns: i as u64 * 1_000_000,
                        sampling_period: 4096,
                    },
                    TrafficClass::Benign,
                )
            })
            .collect();
        let d = dataset_from_events(&labeled, sflow_set());
        assert_eq!(d.n_features(), 12);
        assert_eq!(d.len(), 20);
    }

    #[test]
    fn sketch_score_column_is_populated_when_requested() {
        let labeled = labeled_reports(60);
        let ext = FeatureSet::full().with(&[FeatureId::SketchScore]);
        let d = dataset_from_events(&labeled, ext);
        assert_eq!(d.n_features(), 16);
        // Attack rows (tiny packets, µs inter-arrivals, heavy-hitter
        // counts) sit far outside the benign envelope: their sketch
        // scores must dominate the benign ones on average.
        let (mut attack, mut benign) = ((0.0, 0u32), (0.0, 0u32));
        for (i, (_, class)) in labeled.iter().enumerate() {
            let score = d.row(i)[15];
            let side = if class.label() {
                &mut attack
            } else {
                &mut benign
            };
            side.0 += score;
            side.1 += 1;
        }
        let (attack_mean, benign_mean) = (
            attack.0 / f64::from(attack.1),
            benign.0 / f64::from(benign.1),
        );
        assert!(
            attack_mean > benign_mean,
            "attack mean {attack_mean} vs benign mean {benign_mean}"
        );
        // And without the extension the canonical 15 stay untouched.
        let plain = dataset_from_events(&labeled, FeatureSet::full());
        assert_eq!(plain.n_features(), 15);
        for i in 0..plain.len() {
            assert_eq!(plain.row(i), &d.row(i)[..15], "row {i}");
        }
    }

    #[test]
    fn bundle_learns_the_contrast() {
        let labeled = labeled_reports(300);
        let raw = dataset_from_events(&labeled, FeatureSet::full());
        let cfg = TrainerConfig {
            mlp: MlpConfig {
                epochs: 15,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        };
        let bundle = train_bundle(&raw, FeatureSet::full(), &cfg);

        // Evaluate ensemble votes against truth on the training rows.
        let mut correct = 0;
        for (i, (_, class)) in labeled.iter().enumerate() {
            if bundle.ensemble_vote(raw.row(i)) == class.label() {
                correct += 1;
            }
        }
        let acc = correct as f64 / raw.len() as f64;
        assert!(acc > 0.95, "ensemble training accuracy {acc}");
    }

    #[test]
    fn votes_are_three_and_ordered() {
        let labeled = labeled_reports(100);
        let raw = dataset_from_events(&labeled, FeatureSet::full());
        let cfg = TrainerConfig {
            mlp: MlpConfig {
                epochs: 5,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        };
        let bundle = train_bundle(&raw, FeatureSet::full(), &cfg);
        let v = bundle.votes(raw.row(0));
        assert_eq!(v.len(), 3);
        // 2-of-3 semantics.
        let expected = v.iter().filter(|&&b| b).count() >= 2;
        assert_eq!(bundle.ensemble_vote(raw.row(0)), expected);
    }

    #[test]
    fn two_settled_votes_or_the_third_is_the_two_of_three_majority() {
        for votes in 0u8..8 {
            let [gnb, forest, mlp] = [votes & 1 != 0, votes & 2 != 0, votes & 4 != 0];
            let counted = [gnb, forest, mlp].iter().filter(|&&v| v).count() >= 2;
            assert_eq!(settled(gnb, forest).unwrap_or(mlp), counted, "{votes:03b}");
        }
    }

    #[test]
    #[should_panic(expected = "empty capture")]
    fn empty_training_rejected() {
        let d = Dataset::new(15);
        train_bundle(&d, FeatureSet::full(), &TrainerConfig::default());
    }

    #[test]
    fn votes_batch_matches_per_row_ensemble() {
        let labeled = labeled_reports(120);
        let raw = dataset_from_events(&labeled, FeatureSet::full());
        let cfg = TrainerConfig {
            mlp: MlpConfig {
                epochs: 5,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        };
        let bundle = train_bundle(&raw, FeatureSet::full(), &cfg);

        let mut scratch = VoteScratch::default();
        let mut batched = Vec::new();
        let cost = bundle.votes_batch(raw.raw(), raw.n_features(), &mut scratch, &mut batched);
        assert_eq!(batched.len(), raw.len());
        let mut split = 0;
        for (i, &got) in batched.iter().enumerate() {
            assert_eq!(got, bundle.ensemble_vote(raw.row(i)), "row {i}");
            // The three-member count is the reference for both.
            let [mlp, forest, gnb] = bundle.votes(raw.row(i));
            assert_eq!(got, [mlp, forest, gnb].iter().filter(|&&v| v).count() >= 2);
            split += usize::from(forest != gnb);
        }
        assert_eq!(cost.escalated, split);
        let n_trees = bundle.forest.n_trees() as u64;
        let rows = raw.len() as u64;
        assert!(cost.trees_walked > 0 && cost.trees_walked <= rows * n_trees);

        // Empty batch is a no-op; scratch reuse gives identical output.
        let empty = bundle.votes_batch(&[], raw.n_features(), &mut scratch, &mut batched);
        assert!(batched.is_empty());
        assert_eq!(empty, VoteCost::default());
        bundle.votes_batch(raw.raw(), raw.n_features(), &mut scratch, &mut batched);
        for (i, &got) in batched.iter().enumerate() {
            assert_eq!(got, bundle.ensemble_vote(raw.row(i)));
        }
    }

    #[test]
    fn bundle_save_load_roundtrip() {
        let labeled = labeled_reports(80);
        let raw = dataset_from_events(&labeled, FeatureSet::full());
        let cfg = TrainerConfig {
            mlp: MlpConfig {
                epochs: 3,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        };
        let bundle = train_bundle(&raw, FeatureSet::full(), &cfg);
        let path =
            std::env::temp_dir().join(format!("amlight-bundle-test-{}.json", std::process::id()));
        bundle.save(&path).expect("save");
        let back = ModelBundle::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        // Identical votes on every training row.
        for i in 0..raw.len() {
            assert_eq!(bundle.votes(raw.row(i)), back.votes(raw.row(i)));
        }
        assert_eq!(back.feature_set, FeatureSet::full());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(ModelBundle::load("/nonexistent/amlight-bundle.json").is_err());
    }

    #[test]
    fn offline_training_stamps_metadata() {
        let labeled = labeled_reports(40);
        let raw = dataset_from_events(&labeled, FeatureSet::full());
        let bundle = train_bundle(&raw, FeatureSet::full(), &TrainerConfig::default());
        assert_eq!(bundle.meta.schema_version, BUNDLE_SCHEMA_VERSION);
        assert_eq!(bundle.meta.epoch, 0, "offline bundles are epoch 0");
        assert_eq!(bundle.meta.n_features, FeatureSet::full().dim());
        assert_eq!(bundle.meta.n_rows, raw.len());
    }

    #[test]
    fn metadata_survives_persistence() {
        let labeled = labeled_reports(40);
        let raw = dataset_from_events(&labeled, FeatureSet::full());
        let bundle = train_bundle(&raw, FeatureSet::full(), &TrainerConfig::default())
            .with_train_window(5_000, 125_000);
        let path = std::env::temp_dir().join(format!(
            "amlight-bundle-meta-test-{}.json",
            std::process::id()
        ));
        bundle.save(&path).expect("save");
        let back = ModelBundle::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.meta, bundle.meta);
        assert_eq!(back.meta.train_window_ns(), 120_000);
    }

    #[test]
    fn validate_for_accepts_matching_set_and_rejects_the_other() {
        let labeled = labeled_reports(40);
        let raw = dataset_from_events(&labeled, FeatureSet::full());
        let bundle = train_bundle(&raw, FeatureSet::full(), &TrainerConfig::default());
        assert!(bundle.validate_for(FeatureSet::full()).is_ok());
        let err = bundle.validate_for(sflow_set()).unwrap_err();
        assert!(
            matches!(
                err,
                MetaError::FeatureWidth {
                    found: 15,
                    expected: 12
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn a_bundle_with_a_leaf_outside_zero_one_loads_but_is_rejected() {
        let labeled = labeled_reports(40);
        let raw = dataset_from_events(&labeled, FeatureSet::full());
        let bundle = train_bundle(&raw, FeatureSet::full(), &TrainerConfig::default());
        let path = std::env::temp_dir().join(format!(
            "amlight-bundle-leaf-test-{}.json",
            std::process::id()
        ));
        bundle.save(&path).expect("save");
        let json = std::fs::read_to_string(&path).expect("read");
        // Hand-edit the first leaf of the first tree: a value past 1, and
        // `null`, which is how JSON carries a NaN.
        let leaf = "{\"Leaf\":{\"proba\":";
        let at = json.find(leaf).expect("a leaf") + leaf.len();
        let end = at + json[at..].find('}').expect("leaf closes");
        for (edit, shown) in [("1.5", "1.5"), ("null", "NaN")] {
            std::fs::write(&path, format!("{}{edit}{}", &json[..at], &json[end..])).expect("write");
            let damaged = ModelBundle::load(&path).expect("still valid JSON");
            let err = damaged.validate_for(FeatureSet::full()).unwrap_err();
            assert!(
                matches!(err, MetaError::ForestLeaf { tree: 0, .. }),
                "got {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains("tree 0") && msg.contains(shown), "{msg}");
        }
        std::fs::write(&path, &json).expect("write");
        let intact = ModelBundle::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert!(intact.validate_for(FeatureSet::full()).is_ok());
    }

    #[test]
    fn legacy_bundle_without_metadata_fails_with_a_retrain_hint() {
        // A pre-metadata artifact: valid JSON, but no `meta` object.
        let path = std::env::temp_dir().join(format!(
            "amlight-bundle-legacy-test-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, "{\"feature_set\":\"Int\"}").expect("write");
        let err = ModelBundle::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        let msg = err.to_string();
        assert!(
            msg.contains("retrain") && msg.contains("schema-v3"),
            "error must name the fix: {msg}"
        );
    }
}
