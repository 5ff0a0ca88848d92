//! `ModelBundle::votes_batch` performs no heap acquisition of its own
//! once `VoteScratch` has grown to the working batch size, and neither
//! do its cheap members: GNB's normalization terms live on the stack and
//! the forest's decision path walks in place. So a steady-state batch
//! that escalates nothing acquires nothing, and one that escalates rows
//! acquires exactly what the MLP (its transpose and activations)
//! acquires on those rows.
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
fn votes_batch_allocates_nothing_beyond_the_mlp_in_steady_state() {
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
    // 64 rows the cheap members agree on: nothing to escalate.
    let agreed: Vec<f64> = (0..data.len())
        .map(|i| data.row(i))
        .filter(|row| {
            let [_, forest, gnb] = bundle.votes(row);
            forest == gnb
        })
        .take(64)
        .flatten()
        .copied()
        .collect();
    assert_eq!(agreed.len(), 64 * nf);

    let mut scratch = VoteScratch::default();
    let mut out = Vec::new();
    // The one large batch grows every scratch buffer to its high-water
    // mark; the small batches after it are the steady state.
    let escalated_large = bundle
        .votes_batch(large, nf, &mut scratch, &mut out)
        .escalated;
    assert!(escalated_large > 0 && escalated_large < data.len());
    assert_eq!(
        bundle
            .votes_batch(&agreed, nf, &mut scratch, &mut out)
            .escalated,
        0
    );
    let escalated = bundle
        .votes_batch(small, nf, &mut scratch, &mut out)
        .escalated;
    assert!(escalated > 0 && escalated < 64, "{escalated} of 64");

    let region = stats_alloc::Region::new();
    let cost = bundle.votes_batch(&agreed, nf, &mut scratch, &mut out);
    let acquisitions = region.change().acquisitions();
    assert_eq!(cost.escalated, 0);
    assert_eq!(
        acquisitions, 0,
        "votes_batch acquired heap on a batch nothing was escalated from"
    );

    // What the MLP acquires by itself on the escalated rows' shape.
    let mut proba = vec![0.0; escalated];
    let region = stats_alloc::Region::new();
    bundle
        .mlp
        .predict_proba_batch(&small[..escalated * nf], nf, &mut proba);
    let mlp = region.change().acquisitions();
    assert!(
        mlp > 0,
        "the counter must be live for equality to mean anything"
    );

    let region = stats_alloc::Region::new();
    let again = bundle
        .votes_batch(small, nf, &mut scratch, &mut out)
        .escalated;
    let acquisitions = region.change().acquisitions();
    assert_eq!(again, escalated);
    assert_eq!(
        acquisitions, mlp,
        "votes_batch acquired heap beyond the MLP's own \
         ({escalated} of 64 rows escalated)"
    );
}
