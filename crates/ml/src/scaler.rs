//! Standardization to zero mean / unit variance.
//!
//! The paper's Prediction module "uploads … the coefficients of scaler
//! transformation, which are used to standardize the feature values to
//! unit variance" (§III-4) — i.e. scikit-learn's `StandardScaler`. The
//! scaler is fitted offline on the training set and shipped with the
//! models.

use crate::dataset::Dataset;
use crate::meta::{check_widths, MetaError};
use serde::{Deserialize, Serialize};

/// Per-feature mean/std transform.
///
/// ```
/// use amlight_ml::{Dataset, StandardScaler};
///
/// let mut data = Dataset::new(2);
/// data.push(&[1.0, 100.0], false);
/// data.push(&[3.0, 300.0], true);
/// let scaler = StandardScaler::fit_transform(&mut data);
/// assert_eq!(data.row(0), &[-1.0, -1.0]);
/// assert_eq!(data.row(1), &[1.0, 1.0]);
/// // Deploy-time: transform unseen rows with the trained statistics.
/// let mut live = vec![2.0, 200.0];
/// scaler.transform_row(&mut live);
/// assert_eq!(live, vec![0.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit on a dataset: column means and population standard deviations.
    /// Constant columns get std 1 so they transform to 0, not NaN.
    pub fn fit(data: &Dataset) -> Self {
        let d = data.n_features();
        let n = data.len().max(1) as f64;
        let mut means = vec![0.0; d];
        for (row, _) in data.rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for (row, _) in data.rows() {
            for ((s, &m), &v) in vars.iter_mut().zip(&means).zip(row) {
                let dlt = v - m;
                *s += dlt * dlt;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Self { means, stds }
    }

    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    pub fn means(&self) -> &[f64] {
        &self.means
    }

    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Reject coefficients that are not one mean and one std per
    /// feature: the transforms zip them with the row, so a short scaler
    /// would leave the row's tail unscaled.
    pub fn validate(&self, n_features: usize) -> Result<(), MetaError> {
        check_widths("scaler", &[&self.means, &self.stds], n_features)
    }

    /// Transform one row in place.
    #[inline]
    pub fn transform_row(&self, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.means.len());
        for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Standardize a contiguous row-major batch into a caller-owned
    /// buffer. `rows` and `out` hold the same number of complete rows;
    /// nothing is allocated, so a reused scratch buffer makes the
    /// per-prediction scaling cost pure arithmetic. Values are written
    /// with exactly the arithmetic of [`StandardScaler::transform_row`],
    /// so batched and per-row scaling are bit-identical.
    pub fn transform_into(&self, rows: &[f64], out: &mut [f64]) {
        let d = self.means.len();
        assert_eq!(
            rows.len(),
            out.len(),
            "scaler batch: input and output sizes differ"
        );
        assert_eq!(
            rows.len() % d.max(1),
            0,
            "scaler batch: {} values is not a whole number of {d}-wide rows",
            rows.len()
        );
        for (src, dst) in rows.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            for (((o, &v), &m), &s) in dst.iter_mut().zip(src).zip(&self.means).zip(&self.stds) {
                *o = (v - m) / s;
            }
        }
    }

    /// Transform a whole dataset in place.
    pub fn transform(&self, data: &mut Dataset) {
        assert_eq!(data.n_features(), self.n_features());
        let d = self.n_features();
        for row in data.raw_mut().chunks_exact_mut(d) {
            self.transform_row(row);
        }
    }

    /// Fit on `data` and transform it, returning the scaler.
    pub fn fit_transform(data: &mut Dataset) -> Self {
        let s = Self::fit(data);
        s.transform(data);
        s
    }

    /// Undo the transform on one row (testing/debugging aid).
    pub fn inverse_transform_row(&self, row: &mut [f64]) {
        for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = *v * s + m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        let mut d = Dataset::new(3);
        d.push(&[1.0, 10.0, 5.0], false);
        d.push(&[2.0, 20.0, 5.0], true);
        d.push(&[3.0, 30.0, 5.0], false);
        d
    }

    #[test]
    fn fit_computes_column_statistics() {
        let s = StandardScaler::fit(&data());
        assert_eq!(s.means(), &[2.0, 20.0, 5.0]);
        let expected_std = (2.0f64 / 3.0).sqrt();
        assert!((s.stds()[0] - expected_std).abs() < 1e-12);
        assert_eq!(s.stds()[2], 1.0, "constant column gets unit std");
    }

    #[test]
    fn transform_standardizes() {
        let mut d = data();
        let s = StandardScaler::fit_transform(&mut d);
        // Column means ≈ 0 after transform.
        for j in 0..3 {
            let mean: f64 = (0..d.len()).map(|i| d.row(i)[j]).sum::<f64>() / d.len() as f64;
            assert!(mean.abs() < 1e-12, "col {j} mean {mean}");
        }
        // Non-constant columns have unit variance.
        for j in 0..2 {
            let var: f64 = (0..d.len()).map(|i| d.row(i)[j].powi(2)).sum::<f64>() / d.len() as f64;
            assert!((var - 1.0).abs() < 1e-12, "col {j} var {var}");
        }
        // Constant column became all zeros.
        for i in 0..d.len() {
            assert_eq!(d.row(i)[2], 0.0);
        }
        assert_eq!(s.n_features(), 3);
    }

    #[test]
    fn inverse_roundtrips() {
        let d = data();
        let s = StandardScaler::fit(&d);
        let mut row = d.row(1).to_vec();
        s.transform_row(&mut row);
        s.inverse_transform_row(&mut row);
        for (a, b) in row.iter().zip(d.row(1)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transform_unseen_row_uses_train_statistics() {
        let s = StandardScaler::fit(&data());
        let mut row = vec![4.0, 40.0, 7.0];
        s.transform_row(&mut row);
        let std0 = (2.0f64 / 3.0).sqrt();
        assert!((row[0] - (4.0 - 2.0) / std0).abs() < 1e-12);
        assert_eq!(row[2], 2.0); // (7-5)/1
    }

    #[test]
    fn transform_into_matches_row_transform() {
        let s = StandardScaler::fit(&data());
        let rows = [4.0, 40.0, 7.0, -1.0, 0.0, 5.0];
        let mut out = [0.0; 6];
        s.transform_into(&rows, &mut out);
        for (chunk, scaled) in rows.chunks_exact(3).zip(out.chunks_exact(3)) {
            let mut row = chunk.to_vec();
            s.transform_row(&mut row);
            assert_eq!(row.as_slice(), scaled, "bit-identical scaling");
        }
        // Empty batch is fine.
        s.transform_into(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn transform_into_rejects_ragged_input() {
        let s = StandardScaler::fit(&data());
        let mut out = [0.0; 4];
        s.transform_into(&[1.0, 2.0, 3.0, 4.0], &mut out);
    }

    #[test]
    fn serde_roundtrip() {
        let s = StandardScaler::fit(&data());
        let json = serde_json::to_string(&s).unwrap();
        let back: StandardScaler = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
