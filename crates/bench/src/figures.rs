//! Figure reproductions (paper Figs. 3, 4, 5, 7).

use crate::capture::ExperimentCapture;
use crate::util::{forest_config, sflow_set};
use amlight_core::pipeline::PipelineReport;
use amlight_core::trainer::dataset_from_events;
use amlight_features::FeatureSet;
use amlight_ml::model::BinaryClassifier;
use amlight_ml::{ConfusionMatrix, RandomForest, StandardScaler};
use amlight_net::TrafficClass;
use serde::{Deserialize, Serialize};

/// **Figs. 3 & 4**: confusion matrices of the Random Forest model on INT
/// and sFlow test sets (90:10 split).
pub fn fig3_4_confusions(
    cap: &ExperimentCapture,
    fast: bool,
) -> (ConfusionMatrix, ConfusionMatrix) {
    let seed = cap.config.seed;
    let cfg = forest_config(fast);

    let run = |raw: &amlight_ml::Dataset, split_seed: u64| {
        let (train_raw, test_raw) = raw.train_test_split(0.9, split_seed);
        let mut train = train_raw.clone();
        let scaler = StandardScaler::fit_transform(&mut train);
        let mut test = test_raw;
        scaler.transform(&mut test);
        RandomForest::fit(&train, &cfg, seed).evaluate(&test)
    };

    let int = run(
        &dataset_from_events(&cap.int, FeatureSet::full()),
        seed ^ 0x90,
    );
    let sflow = run(&dataset_from_events(&cap.sflow, sflow_set()), seed ^ 0x91);
    (int, sflow)
}

/// One time bucket of the Fig. 5 timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Bucket start, seconds from capture start.
    pub t_s: f64,
    /// Ground truth: is an attack episode active?
    pub truth: bool,
    /// INT coverage: reports in this bucket.
    pub int_reports: usize,
    /// INT prediction: fraction of bucket reports classified attack.
    pub int_attack_frac: f64,
    /// sFlow coverage: samples in this bucket (0 = the sampling gap!).
    pub sflow_samples: usize,
    /// sFlow prediction fraction (None when no samples).
    pub sflow_attack_frac: Option<f64>,
}

/// **Fig. 5**: truth vs RF predictions over time for both telemetry
/// sources. The headline phenomenon: sFlow buckets inside SlowLoris
/// episodes typically have *zero samples* — no data, no prediction.
pub fn fig5_timeline(cap: &ExperimentCapture, buckets: usize, fast: bool) -> Vec<Fig5Point> {
    let seed = cap.config.seed;
    let cfg = forest_config(fast);

    // Train RF on a 90% split of each view; predict the full stream.
    let int_raw = dataset_from_events(&cap.int, FeatureSet::full());
    let sf_raw = dataset_from_events(&cap.sflow, sflow_set());

    let fit_full = |raw: &amlight_ml::Dataset, split_seed: u64| {
        let (train_raw, _) = raw.train_test_split(0.9, split_seed);
        let mut train = train_raw.clone();
        let scaler = StandardScaler::fit_transform(&mut train);
        let model = RandomForest::fit(&train, &cfg, seed);
        (model, scaler)
    };
    let (int_model, int_scaler) = fit_full(&int_raw, seed ^ 0x90);
    let (sf_model, sf_scaler) = fit_full(&sf_raw, seed ^ 0x91);

    let window_ns = cap.schedule.window_ns;
    let bucket_ns = (window_ns / buckets as u64).max(1);
    let mut points: Vec<Fig5Point> = (0..buckets)
        .map(|b| Fig5Point {
            t_s: (b as u64 * bucket_ns) as f64 / 1e9,
            truth: false,
            int_reports: 0,
            int_attack_frac: 0.0,
            sflow_samples: 0,
            sflow_attack_frac: None,
        })
        .collect();

    // Truth per bucket from the schedule.
    for (b, p) in points.iter_mut().enumerate() {
        let mid = b as u64 * bucket_ns + bucket_ns / 2;
        p.truth = cap.schedule.active_at(mid).is_some();
    }

    // INT predictions.
    let mut row = Vec::with_capacity(16);
    let mut int_attacks = vec![0usize; buckets];
    for (i, (report, _)) in cap.int.iter().enumerate() {
        let b = ((report.export_ns / bucket_ns) as usize).min(buckets - 1);
        points[b].int_reports += 1;
        row.clear();
        row.extend_from_slice(int_raw.row(i));
        int_scaler.transform_row(&mut row);
        if int_model.predict_one(&row) {
            int_attacks[b] += 1;
        }
    }
    for (p, &a) in points.iter_mut().zip(&int_attacks) {
        if p.int_reports > 0 {
            p.int_attack_frac = a as f64 / p.int_reports as f64;
        }
    }

    // sFlow predictions.
    let mut sf_attacks = vec![0usize; buckets];
    for (i, (sample, _)) in cap.sflow.iter().enumerate() {
        let b = ((sample.observed_ns / bucket_ns) as usize).min(buckets - 1);
        points[b].sflow_samples += 1;
        row.clear();
        row.extend_from_slice(sf_raw.row(i));
        sf_scaler.transform_row(&mut row);
        if sf_model.predict_one(&row) {
            sf_attacks[b] += 1;
        }
    }
    for (p, &a) in points.iter_mut().zip(&sf_attacks) {
        if p.sflow_samples > 0 {
            p.sflow_attack_frac = Some(a as f64 / p.sflow_samples as f64);
        }
    }

    points
}

/// One prediction of the Fig. 7 scatter: prediction order index vs
/// predicted label for a class replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig7Point {
    pub index: u64,
    /// Final verdict as 0/1; None while smoothing pends.
    pub predicted: Option<u8>,
    pub correct: Option<bool>,
}

/// **Figs. 7a/7b**: per-prediction outcome sequences for a class replay,
/// extracted from a Table VI pipeline report. Misclassifications cluster
/// at flow starts — visible as early `correct == Some(false)` points.
pub fn fig7_distributions(report: &PipelineReport, class: TrafficClass) -> Vec<Fig7Point> {
    report
        .timeline
        .iter()
        .filter(|p| p.truth == class)
        .enumerate()
        .map(|(i, p)| Fig7Point {
            index: i as u64,
            predicted: p.verdict.label().map(u8::from),
            correct: p.verdict.label().map(|l| l == class.label()),
        })
        .collect()
}

/// Render a Fig. 5 timeline as a compact ASCII strip chart (three rows:
/// truth, INT prediction, sFlow prediction; `·` = no data).
pub fn render_fig5_ascii(points: &[Fig5Point]) -> String {
    let cell = |on: bool| if on { '█' } else { ' ' };
    let truth: String = points.iter().map(|p| cell(p.truth)).collect();
    let int: String = points
        .iter()
        .map(|p| cell(p.int_attack_frac >= 0.5))
        .collect();
    let sflow: String = points
        .iter()
        .map(|p| match p.sflow_attack_frac {
            None => '·',
            Some(f) => cell(f >= 0.5),
        })
        .collect();
    format!("truth |{truth}|\nINT   |{int}|\nsFlow |{sflow}|\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{ExperimentCapture, ExperimentConfig};
    use crate::tables::table6_automated;
    use amlight_core::pipeline::PipelineConfig;

    fn cap() -> ExperimentCapture {
        ExperimentCapture::generate(ExperimentConfig::smoke())
    }

    #[test]
    fn confusions_total_matches_test_sets() {
        let c = cap();
        let (int, sflow) = fig3_4_confusions(&c, true);
        assert!(int.total() > 0);
        assert!(sflow.total() > 0);
        assert!(int.total() > sflow.total(), "INT sees far more packets");
        assert!(int.accuracy() > 0.8);
    }

    #[test]
    fn fig5_buckets_cover_window_and_flag_gaps() {
        let c = cap();
        let points = fig5_timeline(&c, 60, true);
        assert_eq!(points.len(), 60);
        assert!(points.iter().any(|p| p.truth), "some buckets under attack");
        assert!(points.iter().any(|p| !p.truth));
        // sFlow must have coverage gaps at this sampling rate.
        assert!(
            points.iter().any(|p| p.sflow_samples == 0),
            "expected empty sFlow buckets"
        );
        // INT should cover nearly every bucket.
        let int_covered = points.iter().filter(|p| p.int_reports > 0).count();
        assert!(int_covered * 10 >= points.len() * 8);
    }

    #[test]
    fn fig5_ascii_renders_three_rows() {
        let c = cap();
        let points = fig5_timeline(&c, 40, true);
        let art = render_fig5_ascii(&points);
        assert_eq!(art.lines().count(), 3);
        assert!(art.contains('█'));
    }

    #[test]
    fn fig7_extracts_class_series() {
        let (_, reports) = table6_automated(120, PipelineConfig::rust_pace(), true, 5);
        // reports are ordered by TrafficClass::ALL.
        let benign_report = &reports[0];
        let series = fig7_distributions(benign_report, TrafficClass::Benign);
        assert!(!series.is_empty());
        // Indices are sequential.
        for (i, p) in series.iter().enumerate() {
            assert_eq!(p.index, i as u64);
        }
        // Early points pend (smoothing warm-up).
        assert_eq!(series[0].predicted, None);
    }
}
