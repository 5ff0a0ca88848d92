//! Error bars for the paper's Table III: 5-fold cross-validation of
//! each model × telemetry source, reported as mean ± std.
//!
//! The paper reports single 90:10 splits; with a 60× size difference
//! between the INT and sFlow test sets, the spread matters when reading
//! four-decimal accuracy cells.
//!
//! Usage: `repro variance [--fast] [--seed N]`

use crate::Ctx;
use amlight_bench::util::{banner, forest_config, sflow_set, write_json};
use amlight_core::trainer::dataset_from_events;
use amlight_features::FeatureSet;
use amlight_ml::{
    cross_validate, CvReport, Dataset, GaussianNb, Mlp, MlpConfig, RandomForest, StandardScaler,
};
use serde_json::json;

fn scaled(raw: &Dataset) -> Dataset {
    // CV folds re-split inside; scale globally here (slightly optimistic
    // but identical across models, which is what the comparison needs).
    let mut d = raw.clone();
    StandardScaler::fit_transform(&mut d);
    d
}

fn suite(
    name: &str,
    data: &Dataset,
    k: usize,
    fast: bool,
    seed: u64,
    out: &mut Vec<serde_json::Value>,
) {
    let forest_cfg = forest_config(fast);
    let mlp_cfg = MlpConfig {
        epochs: if fast { 4 } else { 12 },
        batch_size: 256,
        ..MlpConfig::paper_nn()
    };

    let mut row = |model: &str, report: CvReport| {
        println!(
            "{:<6} {:<5}  acc {}   f1 {}",
            name,
            model,
            report.cell(|m| m.accuracy, |s| s.accuracy),
            report.cell(|m| m.f1, |s| s.f1),
        );
        out.push(json!({
            "data": name,
            "model": model,
            "accuracy_mean": report.mean.accuracy,
            "accuracy_std": report.std.accuracy,
            "f1_mean": report.mean.f1,
            "f1_std": report.std.f1,
        }));
    };

    row(
        "RF",
        cross_validate(data, k, seed, |train| {
            RandomForest::fit(train, &forest_cfg, seed)
        }),
    );
    row("GNB", cross_validate(data, k, seed, GaussianNb::fit));
    row(
        "NN",
        cross_validate(data, k, seed, |train| Mlp::fit(train, &mlp_cfg, seed)),
    );
}

pub fn run(ctx: &mut Ctx) {
    let fast = ctx.args.fast;
    let cap = ctx.capture();
    let seed = cap.config.seed;
    let k = 5;

    let int = scaled(&dataset_from_events(&cap.int, FeatureSet::full()));
    let sflow = scaled(&dataset_from_events(&cap.sflow, sflow_set()));
    eprintln!("INT rows: {}, sFlow rows: {}", int.len(), sflow.len());

    banner(&format!(
        "Table III with error bars — {k}-fold cross-validation"
    ));
    let mut rows = Vec::new();
    suite("INT", &int, k, fast, seed, &mut rows);
    suite("sFlow", &sflow, k, fast, seed, &mut rows);
    println!(
        "\n(KNN omitted: memorization + 5 refits on the full INT set is the\n\
         cost the paper's own 1/1000 subsample note is about)"
    );
    write_json("results/variance.json", &rows, fast);
}
