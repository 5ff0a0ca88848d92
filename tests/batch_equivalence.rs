//! Batched inference must be *bit-identical* to the single-row path.
//!
//! The columnar `predict_proba_batch` specializations (tree lockstep
//! walks, the MLP's register-tiled matrix-matrix forward, GNB's hoisted
//! normalization terms) are pure layout/throughput changes: every
//! (row, model) probability must carry exactly the same f64 bits as
//! `predict_proba_one` on that row, and the ensemble's batched votes
//! must match `ensemble_vote` decision for decision. These tests pin
//! that contract across awkward batch sizes (empty, one row, lockstep
//! and register-tile remainders) and non-finite feature values, plus a
//! property test over random batches.
//!
//! `votes_batch` and `ensemble_vote` both exit early — the forest stops
//! walking a row's trees once its vote is settled, and the MLP votes
//! only where GNB and the forest split — so agreeing with each other
//! proves nothing about the rule. Their reference is the majority over
//! `ModelBundle::votes`, which always evaluates all three members on
//! their probability paths, on a bundle trained so the cheap members
//! really do split; the forest's decision path is held to `decide` over
//! its own probability path row for row.
//!
//! The same holds one level up: the threaded runtime, which routes and
//! scores events in channel-message batches, must store per flow exactly
//! the verdict sequence the one-thread `run_sync` driver stores.

use amlight::core::source::ReplaySource;
use amlight::core::trainer::{
    dataset_from_events, train_bundle, ModelBundle, TrainerConfig, VoteCost, VoteScratch,
};
use amlight::core::{DetectionPipeline, PipelineConfig, ThreadedPipeline};
use amlight::features::FeatureSet;
use amlight::int::{HopMetadata, InstructionSet, TelemetryReport};
use amlight::ml::model::BinaryClassifier;
use amlight::ml::{
    decide, Dataset, GaussianNb, GbtConfig, GradientBoost, Knn, Mlp, MlpConfig, RandomForest,
    RandomForestConfig,
};
use amlight::net::{FlowKey, Protocol, TrafficClass};
use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Two deterministic interleaved clusters, jittered enough that trees
/// actually split and the MLP trains non-trivially.
fn blobs(n_per_class: usize, n_features: usize) -> Dataset {
    let mut d = Dataset::new(n_features);
    for i in 0..n_per_class {
        let jitter = |k: usize| ((i * 31 + k * 17) % 100) as f64 / 50.0 - 1.0;
        let neg: Vec<f64> = (0..n_features).map(|k| -2.0 + jitter(k)).collect();
        let pos: Vec<f64> = (0..n_features).map(|k| 2.0 + jitter(k + 7)).collect();
        d.push(&neg, false);
        d.push(&pos, true);
    }
    d
}

/// A row-major block of `n` rows cycled out of `d`.
fn block(d: &Dataset, n: usize) -> Vec<f64> {
    let mut rows = Vec::with_capacity(n * d.n_features());
    for i in 0..n {
        rows.extend_from_slice(d.row(i % d.len()));
    }
    rows
}

/// Batch sizes that hit the interesting seams: empty, single row, the
/// 4-row lockstep quads and their remainders, and the MLP's 8-row
/// register tile and its tail.
const SIZES: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64, 100];

/// The forest's early-exit decision path must vote exactly
/// `decide(predict_proba_one)` on every row, walking between one and all
/// of its trees per row.
fn assert_forest_decisions_match(forest: &RandomForest, rows: &[f64], nf: usize) {
    let n = rows.len() / nf;
    let mut votes = vec![false; n];
    let walked = forest.decide_batch(rows, nf, &mut votes);
    for (r, (row, &vote)) in rows.chunks_exact(nf).zip(&votes).enumerate() {
        let want = decide(forest.predict_proba_one(row));
        assert_eq!(vote, want, "forest decision diverged at row {r} of {n}");
    }
    let trees = forest.n_trees() as u64;
    assert!(
        walked >= n as u64 && walked <= n as u64 * trees,
        "{walked} trees for {n} rows"
    );
}

fn assert_bit_identical(model: &dyn BinaryClassifier, d: &Dataset) {
    let nf = d.n_features();
    for &n in SIZES {
        let rows = block(d, n);
        let mut batched = vec![0.0f64; n];
        model.predict_proba_batch(&rows, nf, &mut batched);
        for (r, (row, b)) in rows.chunks_exact(nf).zip(&batched).enumerate() {
            let single = model.predict_proba_one(row);
            assert_eq!(
                single.to_bits(),
                b.to_bits(),
                "{} row {r} of {n}: single {single:?} != batched {b:?}",
                model.name()
            );
        }
    }
}

#[test]
fn random_forest_batch_is_bit_identical() {
    let d = blobs(120, 6);
    let rf = RandomForest::fit(&d, &RandomForestConfig::fast(), 7);
    assert_bit_identical(&rf, &d);
    for &n in SIZES {
        assert_forest_decisions_match(&rf, &block(&d, n), d.n_features());
    }
}

#[test]
fn gradient_boost_batch_is_bit_identical() {
    let d = blobs(120, 6);
    let gb = GradientBoost::fit(&d, &GbtConfig::fast(), 7);
    assert_bit_identical(&gb, &d);
}

#[test]
fn gnb_batch_is_bit_identical() {
    let d = blobs(120, 6);
    let gnb = GaussianNb::fit(&d);
    assert_bit_identical(&gnb, &d);
}

#[test]
fn knn_batch_is_bit_identical() {
    let d = blobs(60, 5);
    let knn = Knn::fit(blobs(60, 5), 5);
    assert_bit_identical(&knn, &d);
}

#[test]
fn mlp_batch_is_bit_identical() {
    let d = blobs(100, 6);
    // Hidden widths deliberately not multiples of the 4-unit register
    // tile, so the output-tail path runs too.
    let cfg = MlpConfig {
        hidden: vec![9, 5],
        epochs: 4,
        batch_size: 32,
        ..MlpConfig::default()
    };
    let mlp = Mlp::fit(&d, &cfg, 3);
    assert_bit_identical(&mlp, &d);
}

#[test]
fn paper_shaped_mlp_batch_is_bit_identical() {
    let d = blobs(80, 15);
    let cfg = MlpConfig {
        epochs: 2,
        ..MlpConfig::paper_mlp()
    };
    let mlp = Mlp::fit(&d, &cfg, 3);
    assert_bit_identical(&mlp, &d);
}

#[test]
fn non_finite_features_stay_bit_identical() {
    let d = blobs(80, 5);
    let rf = RandomForest::fit(&d, &RandomForestConfig::fast(), 7);
    let gb = GradientBoost::fit(&d, &GbtConfig::fast(), 7);
    let gnb = GaussianNb::fit(&d);
    let mlp = Mlp::fit(
        &d,
        &MlpConfig {
            hidden: vec![6, 3],
            epochs: 2,
            ..MlpConfig::default()
        },
        3,
    );
    let models: [&dyn BinaryClassifier; 4] = [&rf, &gb, &gnb, &mlp];

    let mut rows = block(&d, 12);
    rows[0] = f64::NAN;
    rows[7] = f64::INFINITY;
    rows[13] = f64::NEG_INFINITY;
    rows[29] = f64::NAN;
    let nf = d.n_features();
    assert_forest_decisions_match(&rf, &rows, nf);
    for model in models {
        let mut batched = vec![0.0f64; 12];
        model.predict_proba_batch(&rows, nf, &mut batched);
        for (r, (row, b)) in rows.chunks_exact(nf).zip(&batched).enumerate() {
            let single = model.predict_proba_one(row);
            assert_eq!(
                single.to_bits(),
                b.to_bits(),
                "{} row {r} with non-finite input: {single:?} != {b:?}",
                model.name()
            );
        }
    }
}

#[test]
fn ensemble_votes_batch_matches_per_row_votes() {
    let raw = blobs(100, 15);
    let bundle = train_bundle(
        &raw,
        FeatureSet::full(),
        &TrainerConfig {
            mlp: MlpConfig {
                epochs: 2,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        },
    );
    let nf = raw.n_features();
    let mut scratch = VoteScratch::default();
    let mut out = Vec::new();
    for &n in SIZES {
        let rows = block(&raw, n);
        bundle.votes_batch(&rows, nf, &mut scratch, &mut out);
        assert_eq!(out.len(), n);
        for (r, (row, &got)) in rows.chunks_exact(nf).zip(&out).enumerate() {
            assert_eq!(
                bundle.ensemble_vote(row),
                got,
                "ensemble decision diverged at row {r} of batch {n}"
            );
        }
    }
}

/// XOR of the signs of the first two features, the other 13 columns
/// noise. Both classes share every per-feature mean and variance, so GNB
/// is left guessing near its prior while the forest learns the
/// quadrants: the two cheap members split on a large share of rows and
/// the MLP's tie-break really runs.
fn xor_rows(n: usize) -> Dataset {
    let mut d = Dataset::new(15);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    for _ in 0..n {
        let row: Vec<f64> = (0..15).map(|_| 3.0 * unit()).collect();
        d.push(&row, (row[0] > 0.0) != (row[1] > 0.0));
    }
    d
}

/// The bundle every early-exit test votes with (trained once).
fn xor_bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        train_bundle(
            &xor_rows(600),
            FeatureSet::full(),
            &TrainerConfig {
                mlp: MlpConfig {
                    epochs: 3,
                    ..MlpConfig::paper_mlp()
                },
                ..Default::default()
            },
        )
    })
}

/// 2-of-3 counted over all three members — the reference the early exit
/// must reproduce.
fn three_member_majority(bundle: &ModelBundle, row: &[f64]) -> bool {
    bundle.votes(row).iter().filter(|&&v| v).count() >= 2
}

/// Rows (of `rows`, 15 wide) on which GNB and the forest split.
fn cheap_splits(bundle: &ModelBundle, rows: &[f64]) -> usize {
    rows.chunks_exact(15)
        .filter(|row| {
            let [_, forest, gnb] = bundle.votes(row);
            forest != gnb
        })
        .count()
}

/// `votes_batch` over `rows` must equal the three-member majority row
/// for row, escalate exactly the rows the cheap members split on, and
/// `ensemble_vote` must say the same.
fn assert_early_exit_is_exact(
    bundle: &ModelBundle,
    rows: &[f64],
    scratch: &mut VoteScratch,
) -> usize {
    let mut out = Vec::new();
    let cost = bundle.votes_batch(rows, 15, scratch, &mut out);
    assert_eq!(out.len(), rows.len() / 15);
    assert_eq!(cost.escalated, cheap_splits(bundle, rows));
    let escalated = cost.escalated;
    for (r, (row, &got)) in rows.chunks_exact(15).zip(&out).enumerate() {
        let want = three_member_majority(bundle, row);
        assert_eq!(got, want, "batched decision diverged at row {r}");
        assert_eq!(bundle.ensemble_vote(row), want, "per-row, row {r}");
    }
    escalated
}

#[test]
fn early_exit_matches_three_member_majority_where_cheap_members_split() {
    let bundle = xor_bundle();
    let fresh = xor_rows(2_000);
    let mut scratch = VoteScratch::default();
    let escalated = assert_early_exit_is_exact(bundle, fresh.raw(), &mut scratch);
    // Not vacuous: both the agree path and the escalation path ran.
    assert!(
        escalated > fresh.len() / 20 && escalated < fresh.len() * 19 / 20,
        "{escalated} of {} rows escalated",
        fresh.len()
    );

    // Sizes whose gathered sub-batches land on and around the forest's
    // 4-row lockstep tail and the MLP's 8-row tile tail; one scratch
    // throughout, so every call also reuses the previous call's buffers.
    for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 255, 256, 257] {
        for offset in [0usize, 1, 2, 3] {
            let rows = &fresh.raw()[offset * 15..(offset + n) * 15];
            assert_early_exit_is_exact(bundle, rows, &mut scratch);
        }
    }
}

#[test]
fn early_exit_clamps_non_finite_rows_like_the_three_member_count() {
    let bundle = xor_bundle();
    let mut rows = block(&xor_rows(40), 40);
    // One poisoned value per affected row, in the columns the forest
    // splits on and in a noise column, so every member sees some.
    for (row, col, v) in [
        (0, 0, f64::NAN),
        (3, 1, f64::NAN),
        (4, 0, f64::INFINITY),
        (9, 1, f64::NEG_INFINITY),
        (17, 7, f64::NAN),
        (18, 14, f64::INFINITY),
        (39, 0, f64::NEG_INFINITY),
    ] {
        rows[row * 15 + col] = v;
    }
    // A row of nothing but NaN: GNB's posterior is NaN, which `decide`
    // clamps to a benign vote — so the early exit must count it as one
    // (attack only if the forest and then the MLP both say so), which
    // the three-member reference below holds it to.
    rows[20 * 15..21 * 15].fill(f64::NAN);
    assert_early_exit_is_exact(bundle, &rows, &mut VoteScratch::default());
    let [_, _, gnb] = bundle.votes(&rows[20 * 15..21 * 15]);
    assert!(!gnb, "NaN posterior must clamp to benign");
}

#[test]
fn vote_scratch_reuse_leaves_no_stale_rows_or_indices() {
    let bundle = xor_bundle();
    let data = xor_rows(700);
    let (large, small) = (&data.raw()[..600 * 15], &data.raw()[600 * 15..612 * 15]);
    let fresh = |rows: &[f64]| {
        let mut out = Vec::new();
        let cost = bundle.votes_batch(rows, 15, &mut VoteScratch::default(), &mut out);
        (cost, out)
    };
    let (want_large, want_small) = (fresh(large), fresh(small));
    assert!(want_large.0.escalated > want_small.0.escalated && want_small.0.escalated > 0);

    let mut scratch = VoteScratch::default();
    let mut out = Vec::new();
    // Small first (scratch grows under the large one), large first
    // (the small one sees a scratch full of the large one's leftovers),
    // and an empty batch in between.
    for (rows, want) in [
        (small, &want_small),
        (large, &want_large),
        (small, &want_small),
        (&[][..], &(VoteCost::default(), Vec::new())),
        (small, &want_small),
        (large, &want_large),
    ] {
        let cost = bundle.votes_batch(rows, 15, &mut scratch, &mut out);
        assert_eq!((cost, &out), (want.0, &want.1));
    }
}

/// 12 benign flows at 1 ms cadence interleaved with 6 flood flows at
/// 3 µs cadence, in export order.
fn labeled_capture(n: u64) -> Vec<(TelemetryReport, TrafficClass)> {
    let report = |src: u8, port: u16, t_ns: u64, len: u16, qocc: u32| TelemetryReport {
        flow: FlowKey::new(
            Ipv4Addr::new(10, 9, 0, src),
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
            ingress_tstamp: t_ns as u32,
            egress_tstamp: (t_ns as u32).wrapping_add(400),
            hop_latency: 0,
            queue_occupancy: qocc,
        }]
        .into(),
        export_ns: t_ns,
    };
    let mut v = Vec::new();
    for i in 0..n {
        let benign = report(1, 1000 + (i % 12) as u16, i * 1_000_000, 800, 0);
        v.push((benign, TrafficClass::Benign));
        let flood = report(2, 2000 + (i % 6) as u16, i * 3_000, 40, 20);
        v.push((flood, TrafficClass::SynFlood));
    }
    v.sort_by_key(|(r, _)| r.export_ns);
    v
}

#[test]
fn threaded_batches_store_the_verdict_sequences_run_sync_stores() {
    let raw = dataset_from_events(&labeled_capture(200), FeatureSet::full());
    let trainer = TrainerConfig {
        mlp: MlpConfig {
            epochs: 4,
            ..MlpConfig::paper_mlp()
        },
        ..Default::default()
    };
    let bundle = train_bundle(&raw, FeatureSet::full(), &trainer);
    // 1000 events: several full 256-event messages and a partial one.
    let labeled = labeled_capture(500);

    let mut sync = DetectionPipeline::new(bundle.clone(), PipelineConfig::default());
    sync.run_sync(&labeled);
    let expected = sync.database().verdict_sequences();
    assert_eq!(expected.len(), 18);
    // What the runtime must report as escalated, counted independently:
    // every update after a flow's first is predicted, and it needs the
    // MLP exactly when the forest and GNB split on its feature row.
    let rows = dataset_from_events(&labeled, FeatureSet::full());
    let mut seen = HashSet::new();
    let expected_escalated = labeled
        .iter()
        .enumerate()
        .filter(|(_, (report, _))| !seen.insert(report.flow))
        .filter(|&(i, _)| {
            let [_, forest, gnb] = bundle.votes(rows.row(i));
            forest != gnb
        })
        .count() as u64;

    for shards in [1usize, 2, 8] {
        let threaded = ThreadedPipeline::new(bundle.clone()).with_shards(shards);
        let stats = threaded
            .start(ReplaySource::new(labeled.iter().cloned()))
            .join()
            .expect("no module thread panicked");
        assert_eq!(stats.events_in, labeled.len() as u64);
        assert_eq!(
            threaded.database().verdict_sequences(),
            expected,
            "{shards} shards"
        );
        assert_eq!(stats.rows_scored, stats.predictions);
        assert_eq!(stats.rows_escalated, expected_escalated, "{shards} shards");
        let trees = bundle.forest.n_trees() as u64;
        assert!(
            stats.trees_walked >= stats.rows_scored
                && stats.trees_walked <= stats.rows_scored * trees,
            "{} trees walked over {} rows",
            stats.trees_walked,
            stats.rows_scored
        );
    }
}

proptest! {
    #[test]
    fn random_batches_vote_the_three_member_majority(
        rows in proptest::collection::vec(
            proptest::collection::vec(-4.0f64..4.0, 15),
            0..70,
        ),
    ) {
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        assert_early_exit_is_exact(xor_bundle(), &flat, &mut VoteScratch::default());
    }

    /// Rows near the XOR axes, where the forest's trees disagree and the
    /// sums hover around the cut.
    #[test]
    fn random_rows_get_the_forest_vote_of_the_probability_path(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 15),
            0..70,
        ),
    ) {
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        assert_forest_decisions_match(&xor_bundle().forest, &flat, 15);
    }

    #[test]
    fn random_batches_are_bit_identical(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e3f64..1e3, 5),
            0..40,
        ),
    ) {
        static MODELS: OnceLock<(RandomForest, GradientBoost, GaussianNb, Mlp)> = OnceLock::new();
        let (rf, gb, gnb, mlp) = MODELS.get_or_init(|| {
            let d = blobs(80, 5);
            (
                RandomForest::fit(&d, &RandomForestConfig::fast(), 11),
                GradientBoost::fit(&d, &GbtConfig::fast(), 11),
                GaussianNb::fit(&d),
                Mlp::fit(
                    &d,
                    &MlpConfig {
                        hidden: vec![7, 3],
                        epochs: 2,
                        ..MlpConfig::default()
                    },
                    11,
                ),
            )
        });
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let n = rows.len();
        assert_forest_decisions_match(rf, &flat, 5);
        let models: [&dyn BinaryClassifier; 4] = [rf, gb, gnb, mlp];
        for model in models {
            let mut batched = vec![0.0f64; n];
            model.predict_proba_batch(&flat, 5, &mut batched);
            for (row, b) in rows.iter().zip(&batched) {
                let single = model.predict_proba_one(row);
                prop_assert_eq!(single.to_bits(), b.to_bits());
            }
        }
    }
}
