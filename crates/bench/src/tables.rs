//! Table reproductions (paper Tables I–VI).

use crate::capture::ExperimentCapture;
use amlight_core::pipeline::{DetectionPipeline, PipelineConfig};
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{dataset_from_events, train_bundle, TrainerConfig};
use amlight_features::{FeatureId, FeatureSet};
use amlight_ml::model::BinaryClassifier;
use amlight_ml::{
    permutation_importance, top_k_features, BinaryMetrics, ConfusionMatrix, Dataset, GaussianNb,
    Knn, Mlp, MlpConfig, RandomForest, RandomForestConfig, StandardScaler,
};
use amlight_net::TrafficClass;
use amlight_traffic::{AttackKind, EpisodeSchedule, ReplayLibrary};
use serde::{Deserialize, Serialize};

/// The queue-blind projection sFlow populates (12 of 15 columns).
fn sflow_set() -> FeatureSet {
    FeatureSet::full().without(&FeatureId::QUEUE_COLUMNS)
}

/// One row of Tables III/IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsRow {
    pub data: &'static str,
    pub model: &'static str,
    pub metrics: BinaryMetrics,
    pub confusion: ConfusionMatrix,
    pub test_rows: usize,
}

impl MetricsRow {
    pub fn render(&self) -> String {
        format!(
            "{:<6} {:<5} {}   (n={})",
            self.data,
            self.model,
            self.metrics.row(),
            self.test_rows
        )
    }
}

/// Models trained for the comparison tables. `fast` trims epochs/trees
/// for smoke tests.
fn model_suite(
    train: &Dataset,
    fast: bool,
    seed: u64,
) -> Vec<(&'static str, Box<dyn BinaryClassifier>)> {
    let forest_cfg = if fast {
        RandomForestConfig {
            n_trees: 10,
            ..RandomForestConfig::fast()
        }
    } else {
        RandomForestConfig::fast()
    };
    let mlp_cfg = MlpConfig {
        epochs: if fast { 5 } else { 20 },
        batch_size: 256,
        ..MlpConfig::paper_nn()
    };
    // Paper (Table III note): KNN runs on one-thousandth of the sample.
    // Our compressed capture is ~1000× smaller than the paper's, so the
    // equivalent budget is a couple thousand memorized rows.
    let knn_fraction = (2_000.0 / train.len() as f64).clamp(0.001, 1.0);

    vec![
        (
            "RF",
            Box::new(RandomForest::fit(train, &forest_cfg, seed)) as Box<dyn BinaryClassifier>,
        ),
        ("GNB", Box::new(GaussianNb::fit(train))),
        (
            "KNN",
            Box::new(Knn::fit_subsampled(train, 5, knn_fraction, seed ^ 0x3)),
        ),
        ("NN", Box::new(Mlp::fit(train, &mlp_cfg, seed ^ 0x7))),
    ]
}

fn evaluate_suite(
    data_name: &'static str,
    train_raw: &Dataset,
    test_raw: &Dataset,
    fast: bool,
    seed: u64,
) -> Vec<MetricsRow> {
    // Scale on train statistics only (no test leakage).
    let mut train = train_raw.clone();
    let scaler = StandardScaler::fit_transform(&mut train);
    let mut test = test_raw.clone();
    scaler.transform(&mut test);

    model_suite(&train, fast, seed)
        .into_iter()
        .map(|(name, model)| {
            let confusion = model.evaluate(&test);
            MetricsRow {
                data: data_name,
                model: name,
                metrics: confusion.metrics(),
                confusion,
                test_rows: test.len(),
            }
        })
        .collect()
}

/// **Table III**: INT vs sFlow across four models, 90:10 random split.
pub fn table3_comparison(cap: &ExperimentCapture, fast: bool) -> Vec<MetricsRow> {
    let seed = cap.config.seed;
    let int_raw = dataset_from_events(&cap.int, FeatureSet::full());
    let sflow_raw = dataset_from_events(&cap.sflow, sflow_set());

    let (int_train, int_test) = int_raw.train_test_split(0.9, seed ^ 0x90);
    let (sf_train, sf_test) = sflow_raw.train_test_split(0.9, seed ^ 0x91);

    let mut rows = evaluate_suite("INT", &int_train, &int_test, fast, seed);
    rows.extend(evaluate_suite("sFlow", &sf_train, &sf_test, fast, seed));
    // Interleave INT/sFlow per model, like the paper's table layout.
    let order = ["RF", "GNB", "KNN", "NN"];
    rows.sort_by_key(|r| {
        (
            order.iter().position(|m| *m == r.model).unwrap_or(9),
            r.data != "INT",
        )
    });
    rows
}

/// **Table IV**: zero-day evaluation — train on day 0, test on day 1
/// (SlowLoris never seen in training).
pub fn table4_zero_day(cap: &ExperimentCapture, fast: bool) -> Vec<MetricsRow> {
    let seed = cap.config.seed;
    let (int_train_l, int_test_l) = cap.int_split_by_day();
    let (sf_train_l, sf_test_l) = cap.sflow_split_by_day();

    let int_train = dataset_from_events(&int_train_l, FeatureSet::full());
    let int_test = dataset_from_events(&int_test_l, FeatureSet::full());
    let sf_train = dataset_from_events(&sf_train_l, sflow_set());
    let sf_test = dataset_from_events(&sf_test_l, sflow_set());

    let mut rows = evaluate_suite("INT", &int_train, &int_test, fast, seed);
    rows.extend(evaluate_suite("sFlow", &sf_train, &sf_test, fast, seed));
    let order = ["RF", "GNB", "KNN", "NN"];
    rows.sort_by_key(|r| {
        (
            order.iter().position(|m| *m == r.model).unwrap_or(9),
            r.data != "INT",
        )
    });
    rows
}

/// One model's top-k features (paper Table V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportanceRow {
    pub model: &'static str,
    /// (feature name, score), descending.
    pub top: Vec<(String, f64)>,
}

/// **Table V**: the five most important features per model, INT data.
///
/// RF uses native mean-decrease-in-impurity; GNB/KNN/NN use permutation
/// importance on a held-out subsample.
pub fn table5_importance(cap: &ExperimentCapture, fast: bool) -> Vec<ImportanceRow> {
    let seed = cap.config.seed;
    let raw = dataset_from_events(&cap.int, FeatureSet::full());
    let (train_raw, test_raw) = raw.train_test_split(0.9, seed ^ 0x90);
    let mut train = train_raw.clone();
    let scaler = StandardScaler::fit_transform(&mut train);
    // Permutation importance is O(features × repeats × |test|): subsample.
    let mut test = test_raw.subsample((4_000.0 / test_raw.len() as f64).clamp(0.01, 1.0), seed);
    scaler.transform(&mut test);

    let names: Vec<String> = FeatureSet::full()
        .features()
        .iter()
        .map(|f| f.name().to_string())
        .collect();
    let top5 = |scores: &[f64]| -> Vec<(String, f64)> {
        top_k_features(scores, 5)
            .into_iter()
            .map(|i| (names[i].clone(), scores[i]))
            .collect()
    };

    let mut rows = Vec::new();
    for (name, model) in model_suite(&train, fast, seed) {
        let scores = if name == "RF" {
            // Refit to grab native importances (the suite erased the type).
            let cfg = if fast {
                RandomForestConfig {
                    n_trees: 10,
                    ..RandomForestConfig::fast()
                }
            } else {
                RandomForestConfig::fast()
            };
            RandomForest::fit(&train, &cfg, seed).feature_importances()
        } else {
            permutation_importance(model.as_ref(), &test, if fast { 1 } else { 2 }, seed ^ 0x5)
        };
        rows.push(ImportanceRow {
            model: name,
            top: top5(&scores),
        });
    }
    rows
}

/// One row of Table VI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table6Row {
    pub class: TrafficClass,
    pub accuracy: f64,
    pub misclassified: u64,
    pub predicted: u64,
    pub avg_prediction_s: f64,
    /// Max prediction time — for benign flows the paper reports the 99th
    /// percentile instead (its table note); so do we.
    pub max_prediction_s: f64,
    pub max_is_p99: bool,
}

impl Table6Row {
    pub fn render(&self) -> String {
        format!(
            "{:<10} {:.4}   {:>6}/{:<6}   {:>10.2}   {:>10.2}{}",
            self.class.name(),
            self.accuracy,
            self.misclassified,
            self.predicted,
            self.avg_prediction_s,
            self.max_prediction_s,
            if self.max_is_p99 { " (p99)" } else { "" },
        )
    }
}

/// **Table VI**: the automated mechanism on the testbed — per-class
/// accuracy and prediction latency from per-class `tcpreplay` runs.
///
/// Procedure mirrors §IV-C: train the bundle offline on a capture replay
/// **without SlowLoris** (zero-day), then replay ~`packets_per_class`
/// packets of each flow type through the live pipeline.
pub fn table6_automated(
    packets_per_class: usize,
    pace: PipelineConfig,
    fast: bool,
    seed: u64,
) -> (Vec<Table6Row>, Vec<amlight_core::pipeline::PipelineReport>) {
    let lab = Testbed::new(TestbedConfig::default());

    // Offline training set: per §IV-C.2 the paper *replays* segments of
    // each flow type on the testbed and trains on that — so do we, from
    // an independent replay (different seed), minus SlowLoris (the
    // designated zero-day attack).
    let train_lib = ReplayLibrary::build(packets_per_class * if fast { 2 } else { 4 }, seed ^ 0x77);
    let mut train_labeled = Vec::new();
    for class in TrafficClass::ALL {
        if class == TrafficClass::SlowLoris {
            continue;
        }
        train_labeled.extend(lab.replay_class(&train_lib, class));
    }
    let train_raw = dataset_from_events(&train_labeled, FeatureSet::full());
    let trainer_cfg = TrainerConfig {
        mlp: MlpConfig {
            epochs: if fast { 5 } else { 20 },
            batch_size: 256,
            ..MlpConfig::paper_mlp()
        },
        forest: if fast {
            RandomForestConfig {
                n_trees: 10,
                ..RandomForestConfig::fast()
            }
        } else {
            RandomForestConfig::fast()
        },
        seed,
    };
    let bundle = train_bundle(&train_raw, FeatureSet::full(), &trainer_cfg);

    // Replay each class and run the pipeline.
    let library = ReplayLibrary::build(packets_per_class, seed ^ 0x6);
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for class in TrafficClass::ALL {
        let labeled = lab.replay_class(&library, class);
        let mut pipe = DetectionPipeline::new(bundle.clone(), pace);
        let report = pipe.run_sync(&labeled);
        let s = report.class_summary(class);
        let benign = class == TrafficClass::Benign;
        rows.push(Table6Row {
            class,
            accuracy: s.accuracy(),
            misclassified: s.misclassified,
            predicted: s.predicted,
            avg_prediction_s: s.avg_latency_s,
            max_prediction_s: if benign {
                s.p99_latency_s
            } else {
                s.max_latency_s
            },
            max_is_p99: benign,
        });
        reports.push(report);
    }
    // Paper's row order: UDP Scan, SYN Scan, SYN Flood, SlowLoris, Benign.
    let order = [
        TrafficClass::UdpScan,
        TrafficClass::SynScan,
        TrafficClass::SynFlood,
        TrafficClass::SlowLoris,
        TrafficClass::Benign,
    ];
    rows.sort_by_key(|r| order.iter().position(|c| *c == r.class).unwrap());
    (rows, reports)
}

/// **Table I**: the episode schedule actually generated.
pub fn table1_schedule(day_len_s: u64) -> Vec<String> {
    let s = EpisodeSchedule::table1(day_len_s);
    s.episodes
        .iter()
        .map(|e| {
            format!(
                "{:<10}  day {}  {:>8.2}s – {:>8.2}s  ({:.2}s)",
                e.kind.name(),
                e.day,
                e.start_ns as f64 / 1e9,
                e.end_ns as f64 / 1e9,
                e.duration_ns() as f64 / 1e9,
            )
        })
        .collect()
}

/// **Table II**: feature availability matrix, INT vs sFlow.
pub fn table2_features() -> Vec<String> {
    FeatureSet::full()
        .features()
        .into_iter()
        .map(|f| {
            format!(
                "{:<26} INT: ✓   sFlow: {}",
                f.name(),
                if sflow_set().contains(f) {
                    "✓"
                } else {
                    "✗"
                }
            )
        })
        .collect()
}

/// Attack kinds in the Table I schedule (re-exported for binaries).
pub fn schedule_attacks() -> [AttackKind; 4] {
    AttackKind::ALL
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{ExperimentCapture, ExperimentConfig};

    fn cap() -> ExperimentCapture {
        ExperimentCapture::generate(ExperimentConfig::smoke())
    }

    #[test]
    fn table3_produces_eight_rows_with_sane_metrics() {
        let rows = table3_comparison(&cap(), true);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.metrics.accuracy >= 0.0 && r.metrics.accuracy <= 1.0);
            assert!(r.test_rows > 0);
        }
        // INT RF should be strong even on the smoke capture.
        let int_rf = rows
            .iter()
            .find(|r| r.data == "INT" && r.model == "RF")
            .unwrap();
        assert!(int_rf.metrics.f1 > 0.9, "INT/RF F1 {}", int_rf.metrics.f1);
    }

    #[test]
    fn table4_trains_without_slowloris() {
        let rows = table4_zero_day(&cap(), true);
        assert_eq!(rows.len(), 8);
        let int_rf = rows
            .iter()
            .find(|r| r.data == "INT" && r.model == "RF")
            .unwrap();
        assert!(
            int_rf.metrics.accuracy > 0.85,
            "INT/RF zero-day accuracy {}",
            int_rf.metrics.accuracy
        );
    }

    #[test]
    fn table5_returns_top5_per_model() {
        let rows = table5_importance(&cap(), true);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.top.len(), 5);
            // Descending scores.
            for w in r.top.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn table1_lists_eleven_episodes() {
        assert_eq!(table1_schedule(60).len(), 11);
    }

    #[test]
    fn table2_lists_fifteen_features() {
        let rows = table2_features();
        assert_eq!(rows.len(), 15);
        assert_eq!(rows.iter().filter(|r| r.contains('✗')).count(), 3);
    }

    #[test]
    fn table6_smoke_run_covers_all_classes() {
        let (rows, _) = table6_automated(150, PipelineConfig::rust_pace(), true, 3);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.predicted + r.misclassified > 0 || r.predicted == 0);
            assert!(r.avg_prediction_s >= 0.0);
            // Epsilon allows for mean-accumulation rounding when all
            // latencies are identical.
            assert!(r.max_prediction_s >= r.avg_prediction_s - 1e-9 || r.max_is_p99);
        }
        // Attack detection should mostly work even in the smoke config.
        let flood = rows
            .iter()
            .find(|r| r.class == TrafficClass::SynFlood)
            .unwrap();
        assert!(flood.accuracy > 0.7, "flood accuracy {}", flood.accuracy);
    }
}
