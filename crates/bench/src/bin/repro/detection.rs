//! Detection-side microbenchmarks: per-model prediction latency, ensemble
//! voting, training time, and the end-to-end pipeline rate.
//!
//! The paper dropped KNN from the live testbed "because of its relatively
//! slower prediction times" (§IV-C.3) — the `predict_one` group puts a
//! number on that decision.
//!
//! Each case is calibrated so one sample lasts about a millisecond, then
//! timed over ten samples; it prints the mean and minimum time per
//! iteration and, from the mean, the throughput of the cases that count
//! elements.
//!
//! Usage: `repro detection`

use amlight_core::pipeline::{DetectionPipeline, PipelineConfig};
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{dataset_from_events, train_bundle, TrainerConfig};
use amlight_features::FeatureSet;
use amlight_ml::model::BinaryClassifier;
use amlight_ml::{
    GaussianNb, Knn, Mlp, MlpConfig, RandomForest, RandomForestConfig, StandardScaler,
};
use amlight_net::TrafficClass;
use amlight_traffic::ReplayLibrary;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLE: Duration = Duration::from_millis(1);
const SAMPLES: u32 = 10;

/// Time one case. `run(n)` performs `n` iterations and returns the time
/// they took; `elements` is how many units one iteration processes.
fn bench(label: &str, elements: Option<u64>, mut run: impl FnMut(u64) -> Duration) {
    let per_iter = run(1).max(Duration::from_nanos(1));
    let iters = (SAMPLE.as_nanos() / per_iter.as_nanos()).clamp(1, 1 << 20) as u64;
    let per_sample: Vec<f64> = (0..SAMPLES)
        .map(|_| run(iters).as_secs_f64() / iters as f64)
        .collect();
    let mean = per_sample.iter().sum::<f64>() / f64::from(SAMPLES);
    let min = per_sample.iter().copied().fold(f64::INFINITY, f64::min);
    let thrpt = elements.map_or(String::new(), |n| {
        format!(" thrpt {}", si(n as f64 / mean, "elem/s"))
    });
    println!(
        "{label:<50} mean {:>10} min {:>10}{thrpt}",
        si(mean, "s"),
        si(min, "s")
    );
}

/// `n` calls of `f`, timed together.
fn iter<O>(mut f: impl FnMut() -> O) -> impl FnMut(u64) -> Duration {
    move |n| {
        let start = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        start.elapsed()
    }
}

/// `n` calls of `f`, each on a fresh `setup()` that is not timed.
fn iter_batched<I, O>(
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(I) -> O,
) -> impl FnMut(u64) -> Duration {
    move |n| {
        (0..n)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(f(input));
                start.elapsed()
            })
            .sum()
    }
}

/// `value` scaled to an SI prefix: `si(1.85e-6, "s")` is `1.85 µs`.
fn si(value: f64, unit: &str) -> String {
    let prefixes = [
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
    ];
    let (scale, prefix) = prefixes
        .into_iter()
        .find(|(scale, _)| value >= *scale)
        .unwrap_or((1e-9, "n"));
    format!("{:.2} {prefix}{unit}", value / scale)
}

pub fn run() {
    let lab = Testbed::new(TestbedConfig::default());
    let library = ReplayLibrary::build(800, 31);
    let mut training = Vec::new();
    for class in TrafficClass::ALL {
        if class != TrafficClass::SlowLoris {
            training.extend(lab.replay_class(&library, class));
        }
    }
    let raw = dataset_from_events(&training, FeatureSet::full());
    let mut scaled_train = raw.clone();
    let _ = StandardScaler::fit_transform(&mut scaled_train);
    let row = scaled_train.row(scaled_train.len() / 2).to_vec();
    let bundle = train_bundle(
        &raw,
        FeatureSet::full(),
        &TrainerConfig {
            mlp: MlpConfig {
                epochs: 8,
                batch_size: 256,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        },
    );
    let labeled = lab.replay_class(&ReplayLibrary::build(2000, 32), TrafficClass::Benign);

    let rf = RandomForest::fit(&scaled_train, &RandomForestConfig::fast(), 1);
    let gnb = GaussianNb::fit(&scaled_train);
    let knn = Knn::fit_subsampled(&scaled_train, 5, 0.05, 1);
    let mlp = Mlp::fit(
        &scaled_train,
        &MlpConfig {
            epochs: 3,
            ..MlpConfig::paper_nn()
        },
        1,
    );
    bench(
        "predict_one/rf_25_trees",
        Some(1),
        iter(|| rf.predict_one(black_box(&row))),
    );
    bench(
        "predict_one/gnb",
        Some(1),
        iter(|| gnb.predict_one(black_box(&row))),
    );
    bench(
        "predict_one/knn_memorized",
        Some(1),
        iter(|| knn.predict_one(black_box(&row))),
    );
    bench(
        "predict_one/mlp_32_16_8",
        Some(1),
        iter(|| mlp.predict_one(black_box(&row))),
    );

    // Raw (unscaled) row, as the pipeline feeds the bundle.
    let raw_row: Vec<f64> = vec![
        6.0, 40.0, 400.0, 40.0, 0.0, 0.001, 0.01, 0.001, 0.0, 0.0, 0.0, 0.0, 10.0, 1000.0, 40000.0,
    ];
    bench(
        "ensemble/scale_plus_2of3_vote",
        Some(1),
        iter(|| bundle.ensemble_vote(black_box(&raw_row))),
    );

    bench(
        "training/rf_25_trees",
        None,
        iter(|| RandomForest::fit(&scaled_train, &RandomForestConfig::fast(), 3)),
    );
    bench(
        "training/gnb",
        None,
        iter(|| GaussianNb::fit(&scaled_train)),
    );
    let mlp_cfg = MlpConfig {
        epochs: 3,
        batch_size: 256,
        ..MlpConfig::paper_mlp()
    };
    bench(
        "training/mlp_3_epochs",
        None,
        iter(|| Mlp::fit(&scaled_train, &mlp_cfg, 3)),
    );

    bench(
        "pipeline/run_sync_benign_replay",
        Some(labeled.len() as u64),
        iter_batched(
            || DetectionPipeline::new(bundle.clone(), PipelineConfig::rust_pace()),
            |mut pipe| pipe.run_sync(black_box(&labeled)),
        ),
    );
}
