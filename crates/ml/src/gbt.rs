//! Gradient-boosted trees for binary classification.
//!
//! The paper is ambiguous about its third testbed model: §IV-C.3 names
//! Gaussian Naive Bayes, but the Table VI procedure says the ensemble
//! combines "the MLP, RF, and **GB** models". We implement both so the
//! ambiguity can be tested instead of argued about (see the
//! `repro ablations` ensemble study).
//!
//! This is classic logit-loss gradient boosting: regression trees fit to
//! the negative gradient (residuals) of the log-loss, shrunk by a
//! learning rate, summed into a logit score. Split search reuses the
//! histogram strategy of [`crate::tree`] but minimizes squared error on
//! residuals instead of Gini.

use crate::dataset::Dataset;
use crate::model::BinaryClassifier;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtConfig {
    pub n_rounds: usize,
    pub learning_rate: f64,
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    /// Candidate thresholds per feature per node.
    pub max_candidates: usize,
    /// Row subsampling per round (stochastic gradient boosting).
    pub subsample: f64,
}

impl Default for GbtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 50,
            learning_rate: 0.2,
            max_depth: 4,
            min_samples_leaf: 5,
            max_candidates: 32,
            subsample: 0.8,
        }
    }
}

impl GbtConfig {
    /// A lighter model for fast experiments.
    pub fn fast() -> Self {
        Self {
            n_rounds: 25,
            ..Default::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum RNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: u32,
        threshold: f64,
        left: u32,
    },
}

/// A regression tree over residuals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RegressionTree {
    nodes: Vec<RNode>,
}

impl RegressionTree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match self.nodes[i] {
                RNode::Leaf { value } => return value,
                RNode::Split {
                    feature,
                    threshold,
                    left,
                } => {
                    i = if x[feature as usize] <= threshold {
                        left as usize
                    } else {
                        left as usize + 1
                    };
                }
            }
        }
    }

    /// Walk four rows down the tree in lockstep. Lanes that reach a
    /// leaf idle there until the deepest lane finishes; the four chase
    /// chains stay independent so their node loads overlap.
    fn predict4(&self, x: [&[f64]; 4]) -> [f64; 4] {
        let mut i = [0usize; 4];
        let mut p = [0.0f64; 4];
        loop {
            let mut all_leaves = true;
            for l in 0..4 {
                match self.nodes[i[l]] {
                    RNode::Leaf { value } => p[l] = value,
                    RNode::Split {
                        feature,
                        threshold,
                        left,
                    } => {
                        all_leaves = false;
                        i[l] = if x[l][feature as usize] <= threshold {
                            left as usize
                        } else {
                            left as usize + 1
                        };
                    }
                }
            }
            if all_leaves {
                return p;
            }
        }
    }

    /// Fit to `targets` over the selected rows.
    fn fit(
        data: &Dataset,
        targets: &[f64],
        indices: &mut [usize],
        cfg: &GbtConfig,
        rng: &mut SmallRng,
    ) -> Self {
        let mut tree = RegressionTree { nodes: Vec::new() };
        tree.build(data, targets, indices, 0, cfg, rng);
        tree
    }

    fn build(
        &mut self,
        data: &Dataset,
        targets: &[f64],
        indices: &mut [usize],
        depth: usize,
        cfg: &GbtConfig,
        rng: &mut SmallRng,
    ) -> u32 {
        let n = indices.len();
        let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / n as f64;

        if depth < cfg.max_depth && n >= 2 * cfg.min_samples_leaf {
            if let Some((feature, threshold)) = self.best_split(data, targets, indices, cfg, rng) {
                let mid = partition(data, indices, feature, threshold);
                if mid >= cfg.min_samples_leaf && n - mid >= cfg.min_samples_leaf {
                    let slot = self.nodes.len() as u32;
                    self.nodes.push(RNode::Leaf { value: mean }); // placeholder
                    let (li, ri) = indices.split_at_mut(mid);
                    let left_slot = self.nodes.len() as u32;
                    self.nodes.push(RNode::Leaf { value: 0.0 });
                    self.nodes.push(RNode::Leaf { value: 0.0 });
                    let bl = self.build(data, targets, li, depth + 1, cfg, rng);
                    self.nodes.swap(left_slot as usize, bl as usize);
                    let br = self.build(data, targets, ri, depth + 1, cfg, rng);
                    self.nodes.swap(left_slot as usize + 1, br as usize);
                    self.nodes[slot as usize] = RNode::Split {
                        feature: feature as u32,
                        threshold,
                        left: left_slot,
                    };
                    return slot;
                }
            }
        }
        let slot = self.nodes.len() as u32;
        self.nodes.push(RNode::Leaf { value: mean });
        slot
    }

    /// Variance-reduction split over histogram candidates.
    fn best_split(
        &self,
        data: &Dataset,
        targets: &[f64],
        indices: &[usize],
        cfg: &GbtConfig,
        rng: &mut SmallRng,
    ) -> Option<(usize, f64)> {
        let n = indices.len();
        let d = data.n_features();
        let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();

        let sample_n = 128.min(n);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, thr, gain)
        let mut values: Vec<f64> = Vec::with_capacity(sample_n);
        let mut bins: Vec<(usize, f64)> = Vec::new(); // (count, target sum)

        for f in 0..d {
            values.clear();
            for _ in 0..sample_n {
                let i = indices[rng.random_range(0..n)];
                values.push(data.row(i)[f]);
            }
            values.sort_by(f64::total_cmp);
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            let step = ((values.len() - 1) as f64 / cfg.max_candidates as f64).max(1.0);
            let mut thresholds: Vec<f64> = Vec::new();
            let mut k = 0.0;
            while (k as usize) < values.len() - 1 {
                let i = k as usize;
                thresholds.push((values[i] + values[i + 1]) / 2.0);
                k += step;
            }
            thresholds.dedup();

            bins.clear();
            bins.resize(thresholds.len() + 1, (0, 0.0));
            for &i in indices {
                let v = data.row(i)[f];
                let b = thresholds.partition_point(|&t| v > t);
                let e = &mut bins[b];
                e.0 += 1;
                e.1 += targets[i];
            }

            let mut left_n = 0usize;
            let mut left_sum = 0.0f64;
            for (b, &(cnt, sum)) in bins.iter().enumerate().take(thresholds.len()) {
                left_n += cnt;
                left_sum += sum;
                let right_n = n - left_n;
                if left_n == 0 || right_n == 0 {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                // Variance reduction ∝ sum²/n improvements.
                let gain = left_sum * left_sum / left_n as f64
                    + right_sum * right_sum / right_n as f64
                    - total_sum * total_sum / n as f64;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    best = Some((f, thresholds[b], gain));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

fn partition(data: &Dataset, indices: &mut [usize], feature: usize, threshold: f64) -> usize {
    let mut lo = 0usize;
    let mut hi = indices.len();
    while lo < hi {
        if data.row(indices[lo])[feature] <= threshold {
            lo += 1;
        } else {
            hi -= 1;
            indices.swap(lo, hi);
        }
    }
    lo
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The boosted model: base score plus shrunk tree outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientBoost {
    base_score: f64,
    trees: Vec<RegressionTree>,
    learning_rate: f64,
}

impl GradientBoost {
    pub fn fit(data: &Dataset, cfg: &GbtConfig, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot boost on an empty dataset");
        let n = data.len();
        let (pos, _) = data.class_counts();
        // Base score: log-odds of the positive class, clamped away from
        // degeneracy for single-class data.
        let p = (pos as f64 / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (p / (1.0 - p)).ln();

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scores = vec![base_score; n];
        let mut residuals = vec![0.0f64; n];
        let mut trees = Vec::with_capacity(cfg.n_rounds);

        for _ in 0..cfg.n_rounds {
            // Negative gradient of log-loss: y − σ(score).
            for i in 0..n {
                let y = f64::from(u8::from(data.label(i)));
                residuals[i] = y - sigmoid(scores[i]);
            }
            // Stochastic row subsample.
            let mut indices: Vec<usize> = (0..n)
                .filter(|_| cfg.subsample >= 1.0 || rng.random::<f64>() < cfg.subsample)
                .collect();
            if indices.len() < 2 * cfg.min_samples_leaf {
                indices = (0..n).collect();
            }
            let tree = RegressionTree::fit(data, &residuals, &mut indices, cfg, &mut rng);
            for (i, score) in scores.iter_mut().enumerate() {
                *score += cfg.learning_rate * tree.predict(data.row(i));
            }
            trees.push(tree);
        }
        Self {
            base_score,
            trees,
            learning_rate: cfg.learning_rate,
        }
    }

    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }

    /// Raw logit score.
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        let mut s = self.base_score;
        for t in &self.trees {
            s += self.learning_rate * t.predict(x);
        }
        s
    }

    /// Raw logit scores for a contiguous row-major batch. Four rows
    /// walk each round's tree in lockstep so the pointer-chase chains
    /// overlap; accumulation into each row's score happens in round
    /// order — the same addition sequence as
    /// [`GradientBoost::decision_function`], so results are
    /// bit-identical.
    pub fn decision_function_batch(&self, rows: &[f64], n_features: usize, out: &mut [f64]) {
        crate::model::check_batch_shape(rows, n_features, out.len());
        if out.is_empty() {
            return;
        }
        let mut rows4 = rows.chunks_exact(4 * n_features);
        let mut outs4 = out.chunks_exact_mut(4);
        for (quad, o4) in rows4.by_ref().zip(outs4.by_ref()) {
            let (x0, rest) = quad.split_at(n_features);
            let (x1, rest) = rest.split_at(n_features);
            let (x2, x3) = rest.split_at(n_features);
            let mut acc = [self.base_score; 4];
            for t in &self.trees {
                let p = t.predict4([x0, x1, x2, x3]);
                for (a, &pv) in acc.iter_mut().zip(&p) {
                    *a += self.learning_rate * pv;
                }
            }
            o4.copy_from_slice(&acc);
        }
        for (row, o) in rows4
            .remainder()
            .chunks_exact(n_features)
            .zip(outs4.into_remainder())
        {
            *o = self.decision_function(row);
        }
    }
}

impl BinaryClassifier for GradientBoost {
    fn predict_proba_one(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision_function(x))
    }

    fn predict_proba_batch(&self, rows: &[f64], n_features: usize, out: &mut [f64]) {
        self.decision_function_batch(rows, n_features, out);
        for o in out.iter_mut() {
            *o = sigmoid(*o);
        }
    }

    fn name(&self) -> &'static str {
        "GB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_util::blobs;

    #[test]
    fn learns_separable_blobs() {
        let train = blobs(200, 4, 2.0);
        let test = blobs(50, 4, 2.0);
        let gb = GradientBoost::fit(&train, &GbtConfig::fast(), 1);
        assert!(gb.evaluate(&test).accuracy() > 0.99);
    }

    #[test]
    fn learns_xor_nonlinearity() {
        let mut d = Dataset::new(2);
        for i in 0..400 {
            let a = i % 2 == 0;
            let b = (i / 2) % 2 == 0;
            let j = ((i * 37) % 100) as f64 / 500.0;
            d.push(
                &[
                    if a { 1.0 } else { -1.0 } + j,
                    if b { 1.0 } else { -1.0 } - j,
                ],
                a ^ b,
            );
        }
        let gb = GradientBoost::fit(&d, &GbtConfig::default(), 2);
        assert!(
            gb.evaluate(&d).accuracy() > 0.95,
            "XOR needs depth ≥ 2 trees"
        );
    }

    #[test]
    fn more_rounds_fit_tighter() {
        let d = blobs(150, 3, 0.6); // overlapping
        let few = GradientBoost::fit(
            &d,
            &GbtConfig {
                n_rounds: 2,
                ..GbtConfig::default()
            },
            3,
        )
        .evaluate(&d)
        .accuracy();
        let many = GradientBoost::fit(
            &d,
            &GbtConfig {
                n_rounds: 60,
                ..GbtConfig::default()
            },
            3,
        )
        .evaluate(&d)
        .accuracy();
        assert!(
            many >= few,
            "boosting must not get worse on train: {few} → {many}"
        );
    }

    #[test]
    fn base_score_matches_prior() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            d.push(&[i as f64], i < 25); // 25% positive
        }
        let gb = GradientBoost::fit(
            &d,
            &GbtConfig {
                n_rounds: 0,
                ..Default::default()
            },
            1,
        );
        assert_eq!(gb.n_rounds(), 0);
        let p = gb.predict_proba_one(&[50.0]);
        assert!(
            (p - 0.25).abs() < 1e-9,
            "with no trees, predict the prior, got {p}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let d = blobs(80, 3, 1.0);
        let a = GradientBoost::fit(&d, &GbtConfig::fast(), 5);
        let b = GradientBoost::fit(&d, &GbtConfig::fast(), 5);
        let x = [0.1, -0.7, 0.4];
        assert_eq!(a.decision_function(&x), b.decision_function(&x));
    }

    #[test]
    fn proba_bounded() {
        let d = blobs(60, 2, 2.0);
        let gb = GradientBoost::fit(&d, &GbtConfig::fast(), 7);
        for x in [[100.0, 100.0], [-100.0, -100.0], [0.0, 0.0]] {
            let p = gb.predict_proba_one(&x);
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let d = blobs(60, 3, 1.5);
        let gb = GradientBoost::fit(&d, &GbtConfig::fast(), 9);
        let json = serde_json::to_string(&gb).unwrap();
        let back: GradientBoost = serde_json::from_str(&json).unwrap();
        for (row, _) in d.rows() {
            assert_eq!(gb.predict_one(row), back.predict_one(row));
        }
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f64], true);
        }
        let gb = GradientBoost::fit(&d, &GbtConfig::fast(), 1);
        assert!(gb.predict_one(&[5.0]));
    }
}
