//! Gaussian Naive Bayes.

use crate::dataset::Dataset;
use crate::model::BinaryClassifier;
use serde::{Deserialize, Serialize};

/// Widest model whose `ln(2πσ²)` terms the batch path hoists into stack
/// tables: twice the widest feature row the detector builds.
const HOISTED_WIDTH: usize = 32;

/// A feature's Gaussian normalization term `ln(2πσ²)`.
#[inline]
fn ln_norm(var: f64) -> f64 {
    (2.0 * std::f64::consts::PI * var).ln()
}

/// Per-class feature Gaussians with a shared variance-smoothing floor
/// (scikit-learn's `var_smoothing` scheme: ε = 1e-9 × max feature
/// variance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianNb {
    prior_pos: f64,
    mean_pos: Vec<f64>,
    var_pos: Vec<f64>,
    mean_neg: Vec<f64>,
    var_neg: Vec<f64>,
}

impl GaussianNb {
    pub fn fit(data: &Dataset) -> Self {
        let d = data.n_features();
        let (pos_n, neg_n) = data.class_counts();
        assert!(pos_n > 0 && neg_n > 0, "GNB needs both classes present");

        let mut mean_pos = vec![0.0; d];
        let mut mean_neg = vec![0.0; d];
        for (row, label) in data.rows() {
            let m = if label { &mut mean_pos } else { &mut mean_neg };
            for (acc, &v) in m.iter_mut().zip(row) {
                *acc += v;
            }
        }
        for v in &mut mean_pos {
            *v /= pos_n as f64;
        }
        for v in &mut mean_neg {
            *v /= neg_n as f64;
        }

        let mut var_pos = vec![0.0; d];
        let mut var_neg = vec![0.0; d];
        for (row, label) in data.rows() {
            let (v, m) = if label {
                (&mut var_pos, &mean_pos)
            } else {
                (&mut var_neg, &mean_neg)
            };
            for ((acc, &mu), &x) in v.iter_mut().zip(m).zip(row) {
                let dlt = x - mu;
                *acc += dlt * dlt;
            }
        }
        for v in &mut var_pos {
            *v /= pos_n as f64;
        }
        for v in &mut var_neg {
            *v /= neg_n as f64;
        }

        // Smoothing floor keyed to the largest variance in the data.
        let max_var = var_pos
            .iter()
            .chain(&var_neg)
            .fold(0.0f64, |a, &b| a.max(b));
        let eps = 1e-9 * max_var.max(1e-12);
        for v in var_pos.iter_mut().chain(var_neg.iter_mut()) {
            *v = v.max(eps);
        }

        Self {
            prior_pos: pos_n as f64 / data.len() as f64,
            mean_pos,
            var_pos,
            mean_neg,
            var_neg,
        }
    }

    pub fn prior(&self) -> f64 {
        self.prior_pos
    }

    fn log_likelihood(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
        let mut ll = 0.0;
        for ((&xi, &mu), &v) in x.iter().zip(mean).zip(var) {
            let d = xi - mu;
            ll += -0.5 * (ln_norm(v) + d * d / v);
        }
        ll
    }

    /// Posterior P(attack | x) — the shared core of the single-row and
    /// batched prediction paths.
    #[inline]
    fn posterior(&self, x: &[f64]) -> f64 {
        let lp = self.prior_pos.ln() + Self::log_likelihood(x, &self.mean_pos, &self.var_pos);
        let ln =
            (1.0 - self.prior_pos).ln() + Self::log_likelihood(x, &self.mean_neg, &self.var_neg);
        // Softmax over two log-joint terms, computed stably.
        let m = lp.max(ln);
        let ep = (lp - m).exp();
        let en = (ln - m).exp();
        ep / (ep + en)
    }
}

impl BinaryClassifier for GaussianNb {
    fn predict_proba_one(&self, x: &[f64]) -> f64 {
        self.posterior(x)
    }

    /// One pass over the batch buffer with the per-feature Gaussian
    /// normalization terms `ln(2πσ²)` hoisted out of the row loop into
    /// stack tables — they depend only on the model, and `ln` is
    /// deterministic, so hoisting them keeps every row's floating-point
    /// op sequence (and therefore its bits) identical to
    /// [`GaussianNb::predict_proba_one`]. Nothing is allocated; a model
    /// wider than `HOISTED_WIDTH` takes the per-row path.
    fn predict_proba_batch(&self, rows: &[f64], n_features: usize, out: &mut [f64]) {
        crate::model::check_batch_shape(rows, n_features, out.len());
        if out.is_empty() {
            return;
        }
        let d = self.var_pos.len().max(self.var_neg.len());
        if d > HOISTED_WIDTH {
            for (row, o) in rows.chunks_exact(n_features).zip(out.iter_mut()) {
                *o = self.posterior(row);
            }
            return;
        }
        let (mut norm_pos, mut norm_neg) = ([0.0; HOISTED_WIDTH], [0.0; HOISTED_WIDTH]);
        for (n, &v) in norm_pos.iter_mut().zip(&self.var_pos) {
            *n = ln_norm(v);
        }
        for (n, &v) in norm_neg.iter_mut().zip(&self.var_neg) {
            *n = ln_norm(v);
        }
        let (norm_pos, norm_neg) = (&norm_pos[..d], &norm_neg[..d]);
        let prior_lp = self.prior_pos.ln();
        let prior_ln = (1.0 - self.prior_pos).ln();
        let ll = |x: &[f64], mean: &[f64], var: &[f64], norm: &[f64]| -> f64 {
            let mut acc = 0.0;
            for (((&xi, &mu), &v), &n) in x.iter().zip(mean).zip(var).zip(norm) {
                let d = xi - mu;
                acc += -0.5 * (n + d * d / v);
            }
            acc
        };
        for (row, o) in rows.chunks_exact(n_features).zip(out.iter_mut()) {
            let lp = prior_lp + ll(row, &self.mean_pos, &self.var_pos, norm_pos);
            let ln = prior_ln + ll(row, &self.mean_neg, &self.var_neg, norm_neg);
            let m = lp.max(ln);
            let ep = (lp - m).exp();
            let en = (ln - m).exp();
            *o = ep / (ep + en);
        }
    }

    fn name(&self) -> &'static str {
        "GNB"
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
        let gnb = GaussianNb::fit(&train);
        assert!(gnb.evaluate(&test).accuracy() > 0.99);
    }

    #[test]
    fn prior_matches_class_balance() {
        let mut d = blobs(10, 2, 1.0); // balanced: prior 0.5
        let gnb = GaussianNb::fit(&d);
        assert!((gnb.prior() - 0.5).abs() < 1e-12);
        // Skew it.
        for _ in 0..20 {
            d.push(&[5.0, 5.0], true);
        }
        let gnb = GaussianNb::fit(&d);
        assert!((gnb.prior() - 30.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_rejected() {
        let mut d = Dataset::new(1);
        d.push(&[1.0], true);
        d.push(&[2.0], true);
        GaussianNb::fit(&d);
    }

    #[test]
    fn proba_is_calibrated_at_midpoint() {
        // Symmetric blobs: the midpoint should score ≈ 0.5.
        let d = blobs(500, 1, 2.0);
        let gnb = GaussianNb::fit(&d);
        let p = gnb.predict_proba_one(&[0.0]);
        assert!((p - 0.5).abs() < 0.1, "midpoint proba {p}");
        assert!(gnb.predict_proba_one(&[2.0]) > 0.9);
        assert!(gnb.predict_proba_one(&[-2.0]) < 0.1);
    }

    #[test]
    fn constant_feature_does_not_nan() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(&[i as f64, 7.0], i % 2 == 0);
        }
        let gnb = GaussianNb::fit(&d);
        let p = gnb.predict_proba_one(&[3.0, 7.0]);
        assert!(p.is_finite());
    }

    #[test]
    fn extreme_inputs_stay_finite() {
        let d = blobs(50, 3, 1.0);
        let gnb = GaussianNb::fit(&d);
        let p = gnb.predict_proba_one(&[1e12, -1e12, 0.0]);
        assert!(p.is_finite());
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn batches_match_rows_on_both_sides_of_the_hoisted_width() {
        for d in [HOISTED_WIDTH, HOISTED_WIDTH + 1] {
            let data = blobs(20, d, 0.8);
            let gnb = GaussianNb::fit(&data);
            let mut out = vec![0.0; data.len()];
            gnb.predict_proba_batch(data.raw(), d, &mut out);
            for (i, p) in out.iter().enumerate() {
                assert_eq!(p.to_bits(), gnb.predict_proba_one(data.row(i)).to_bits());
            }
        }
    }

    use crate::dataset::Dataset;
}
