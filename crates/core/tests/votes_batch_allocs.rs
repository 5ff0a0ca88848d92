//! The early-exit gather in `ModelBundle::votes_batch` — split indices
//! plus the gathered scaled rows the MLP tie-breaks on — performs no heap
//! acquisition of its own once `VoteScratch` has grown to the working
//! batch size: a steady-state call acquires exactly what the member
//! kernels acquire on the same shapes (GNB's two hoisted-norm vectors,
//! the MLP's transpose and activations), nothing more.
//!
//! One `#[test]` per binary: [`stats_alloc`] counts process-wide, so a
//! sibling test running on another thread would be counted too.

use amlight_core::trainer::{train_bundle, TrainerConfig, VoteScratch};
use amlight_features::FeatureSet;
use amlight_ml::model::BinaryClassifier;
use amlight_ml::{Dataset, MlpConfig};

#[global_allocator]
static ALLOC: stats_alloc::StatsAlloc = stats_alloc::StatsAlloc;

/// XOR of the first two features' signs over a 15-column lattice: the
/// classes share their per-feature means, so GNB cannot separate them
/// and the forest can — the cheap members split and the gather really
/// runs.
fn xor_rows(n: usize) -> Dataset {
    let mut d = Dataset::new(15);
    for i in 0..n {
        let row: Vec<f64> = (0..15)
            .map(|k| ((i * (7 + 2 * k) + 3 * k) % 61) as f64 / 10.0 - 3.0)
            .collect();
        d.push(&row, (row[0] > 0.0) != (row[1] > 0.0));
    }
    d
}

#[test]
fn early_exit_gather_allocates_nothing_in_steady_state() {
    let data = xor_rows(600);
    let cfg = TrainerConfig {
        mlp: MlpConfig {
            epochs: 2,
            ..MlpConfig::paper_mlp()
        },
        ..Default::default()
    };
    let bundle = train_bundle(&data, FeatureSet::full(), &cfg);
    let nf = data.n_features();
    let (large, small) = (data.raw(), &data.raw()[..64 * nf]);

    let mut scratch = VoteScratch::default();
    let mut out = Vec::new();
    // The one large batch grows every scratch buffer to its high-water
    // mark; the small batch after it is the steady state.
    let escalated_large = bundle.votes_batch(large, nf, &mut scratch, &mut out);
    assert!(escalated_large > 0 && escalated_large < data.len());
    let escalated = bundle.votes_batch(small, nf, &mut scratch, &mut out);
    assert!(escalated > 0 && escalated < 64, "{escalated} of 64");

    // What the members acquire by themselves on those shapes: 64 rows
    // through GNB and the forest, `escalated` rows through the MLP.
    let mut proba = vec![0.0; 64];
    let region = stats_alloc::Region::new();
    bundle.gnb.predict_proba_batch(small, nf, &mut proba);
    bundle.forest.predict_proba_batch(small, nf, &mut proba);
    bundle
        .mlp
        .predict_proba_batch(&small[..escalated * nf], nf, &mut proba[..escalated]);
    let members = region.change().acquisitions();
    assert!(
        members > 0,
        "the counter must be live for equality to mean anything"
    );

    let region = stats_alloc::Region::new();
    let again = bundle.votes_batch(small, nf, &mut scratch, &mut out);
    let acquisitions = region.change().acquisitions();

    assert_eq!(again, escalated);
    assert_eq!(
        acquisitions, members,
        "votes_batch acquired heap beyond its member kernels' own \
         ({escalated} of 64 rows escalated)"
    );
}
