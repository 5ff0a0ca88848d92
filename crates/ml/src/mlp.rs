//! Multi-layer perceptron: ReLU hidden layers, sigmoid output, binary
//! cross-entropy loss, Adam optimizer, mini-batch training.
//!
//! Two presets match the paper:
//! * [`MlpConfig::paper_nn`] — 32-16-8 hidden layers (§IV-B.3's "shallow
//!   neural network"),
//! * [`MlpConfig::paper_mlp`] — 64-32-16 hidden layers (§IV-C.3's
//!   scikit-learn `MLPClassifier`).

use crate::dataset::Dataset;
use crate::meta::MetaError;
use crate::model::BinaryClassifier;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f64,
    /// L2 penalty (scikit-learn's `alpha`).
    pub l2: f64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32, 16, 8],
            epochs: 30,
            batch_size: 128,
            learning_rate: 1e-3,
            l2: 1e-4,
        }
    }
}

impl MlpConfig {
    /// The §IV-B shallow NN: 32-16-8.
    pub fn paper_nn() -> Self {
        Self::default()
    }

    /// The §IV-C MLPClassifier: 64-32-16.
    pub fn paper_mlp() -> Self {
        Self {
            hidden: vec![64, 32, 16],
            ..Self::default()
        }
    }
}

/// One dense layer's parameters and Adam state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    /// Row-major [out × in] weights.
    w: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut SmallRng) -> Self {
        // He initialization for ReLU layers.
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Self {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    /// z = W·x + b.
    fn forward(&self, x: &[f64], z: &mut Vec<f64>) {
        z.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            z.push(acc);
        }
    }

    /// Z = W·A + b over a feature-major (column-major) batch — the
    /// matrix-matrix form of [`Layer::forward`]. `a` holds `n_in`
    /// columns of `n_rows` values each (`a[i * n_rows + r]` is feature
    /// `i` of row `r`); `z` comes out in the same layout with `n_out`
    /// columns. The inner loop is a unit-stride AXPY over a row tile,
    /// which the compiler vectorizes; each row's accumulator still sees
    /// `b + w0·x0 + w1·x1 + …` in ascending-feature order, so the output
    /// is bit-identical to calling `forward` row by row.
    fn forward_batch(&self, a: &[f64], n_rows: usize, z: &mut Vec<f64>) {
        /// Rows per register tile: 8 × 4 output units of f64
        /// accumulators fit the vector register file, so `z` is written
        /// exactly once per element instead of read-modify-written per
        /// input feature.
        const RB: usize = 8;
        /// Output units per register tile.
        const OB: usize = 4;
        z.clear();
        z.resize(n_rows * self.n_out, 0.0);
        let n_in = self.n_in;
        let mut r0 = 0;
        while r0 + RB <= n_rows {
            let mut o0 = 0;
            while o0 + OB <= self.n_out {
                let mut acc = [[0.0f64; RB]; OB];
                for (u, accu) in acc.iter_mut().enumerate() {
                    accu.fill(self.b[o0 + u]);
                }
                for i in 0..n_in {
                    let ac = &a[i * n_rows + r0..i * n_rows + r0 + RB];
                    for (u, accu) in acc.iter_mut().enumerate() {
                        let w = self.w[(o0 + u) * n_in + i];
                        for k in 0..RB {
                            accu[k] += w * ac[k];
                        }
                    }
                }
                for (u, accu) in acc.iter().enumerate() {
                    let at = (o0 + u) * n_rows + r0;
                    z[at..at + RB].copy_from_slice(accu);
                }
                o0 += OB;
            }
            while o0 < self.n_out {
                let mut accu = [self.b[o0]; RB];
                for i in 0..n_in {
                    let ac = &a[i * n_rows + r0..i * n_rows + r0 + RB];
                    let w = self.w[o0 * n_in + i];
                    for k in 0..RB {
                        accu[k] += w * ac[k];
                    }
                }
                let at = o0 * n_rows + r0;
                z[at..at + RB].copy_from_slice(&accu);
                o0 += 1;
            }
            r0 += RB;
        }
        // Row tail: plain per-(row, unit) dot products, same order.
        for r in r0..n_rows {
            for o in 0..self.n_out {
                let mut acc = self.b[o];
                for i in 0..n_in {
                    acc += self.w[o * n_in + i] * a[i * n_rows + r];
                }
                z[o * n_rows + r] = acc;
            }
        }
    }
}

#[inline]
fn relu(x: f64) -> f64 {
    x.max(0.0)
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

/// The trained network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
    config: MlpConfig,
    /// Adam step counter.
    t: u64,
}

impl Mlp {
    /// Train on `data` (expected pre-scaled — see
    /// [`crate::scaler::StandardScaler`]).
    pub fn fit(data: &Dataset, config: &MlpConfig, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dims = vec![data.n_features()];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let layers = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        let mut net = Mlp {
            layers,
            config: config.clone(),
            t: 0,
        };
        net.train(data, &mut rng);
        net
    }

    fn train(&mut self, data: &Dataset, rng: &mut SmallRng) {
        let mut order: Vec<usize> = (0..data.len()).collect();
        let epochs = self.config.epochs;
        let batch = self.config.batch_size.max(1);
        for _ in 0..epochs {
            order.shuffle(rng);
            for chunk in order.chunks(batch) {
                self.step(data, chunk);
            }
        }
    }

    /// One Adam step over a mini-batch.
    fn step(&mut self, data: &Dataset, batch: &[usize]) {
        let l = self.layers.len();
        // Accumulated gradients per layer.
        let mut gw: Vec<Vec<f64>> = self.layers.iter().map(|ly| vec![0.0; ly.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|ly| vec![0.0; ly.b.len()]).collect();

        // Forward/backward per sample (batch sizes are small; simplicity
        // beats a GEMM here and the hot path is prediction anyway).
        let mut acts: Vec<Vec<f64>> = Vec::with_capacity(l + 1);
        let mut zs: Vec<Vec<f64>> = vec![Vec::new(); l];
        for &i in batch {
            acts.clear();
            acts.push(data.row(i).to_vec());
            for (li, layer) in self.layers.iter().enumerate() {
                let mut z = std::mem::take(&mut zs[li]);
                // acts[li] is the previous layer's activation: one entry
                // was pushed before the loop and one per iteration.
                layer.forward(&acts[li], &mut z);
                let a = if li + 1 == l {
                    z.iter().map(|&v| sigmoid(v)).collect()
                } else {
                    z.iter().map(|&v| relu(v)).collect()
                };
                zs[li] = z;
                acts.push(a);
            }

            // Output delta for sigmoid + BCE: (ŷ − y).
            let y = f64::from(u8::from(data.label(i)));
            let mut delta = vec![acts[l][0] - y];

            for li in (0..l).rev() {
                let a_in = &acts[li];
                let layer = &self.layers[li];
                // Accumulate gradients.
                for o in 0..layer.n_out {
                    gb[li][o] += delta[o];
                    let grow = &mut gw[li][o * layer.n_in..(o + 1) * layer.n_in];
                    for (g, &ai) in grow.iter_mut().zip(a_in) {
                        *g += delta[o] * ai;
                    }
                }
                if li == 0 {
                    break;
                }
                // Propagate: δ_in = Wᵀ·δ ⊙ relu'(z_in).
                let mut next = vec![0.0; layer.n_in];
                for (o, &d_o) in delta.iter().enumerate().take(layer.n_out) {
                    let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                    for (nv, &wi) in next.iter_mut().zip(row) {
                        *nv += wi * d_o;
                    }
                }
                for (nv, &z) in next.iter_mut().zip(&zs[li - 1]) {
                    if z <= 0.0 {
                        *nv = 0.0;
                    }
                }
                delta = next;
            }
        }

        // Adam update.
        self.t += 1;
        let n = batch.len() as f64;
        let lr = self.config.learning_rate;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (j, w) in layer.w.iter_mut().enumerate() {
                let g = gw[li][j] / n + self.config.l2 * *w;
                layer.mw[j] = b1 * layer.mw[j] + (1.0 - b1) * g;
                layer.vw[j] = b2 * layer.vw[j] + (1.0 - b2) * g * g;
                *w -= lr * (layer.mw[j] / bc1) / ((layer.vw[j] / bc2).sqrt() + eps);
            }
            for (j, b) in layer.b.iter_mut().enumerate() {
                let g = gb[li][j] / n;
                layer.mb[j] = b1 * layer.mb[j] + (1.0 - b1) * g;
                layer.vb[j] = b2 * layer.vb[j] + (1.0 - b2) * g * g;
                *b -= lr * (layer.mb[j] / bc1) / ((layer.vb[j] / bc2).sqrt() + eps);
            }
        }
    }

    /// Reject a network that does not chain `n_features` inputs through
    /// its layers to one output (see [`MetaError::MlpLayer`]): the
    /// forward passes index weights by those widths, and read the
    /// output layer's single unit.
    pub fn validate(&self, n_features: usize) -> Result<(), MetaError> {
        let layers = self.layers.len();
        if layers == 0 {
            return Err(MetaError::MlpLayer { layer: 0, layers });
        }
        let mut n_in = n_features;
        for (layer, l) in self.layers.iter().enumerate() {
            let n_out = if layer + 1 == layers { 1 } else { l.n_out };
            if l.n_in != n_in
                || l.n_out != n_out
                || l.n_in.checked_mul(n_out) != Some(l.w.len())
                || l.b.len() != n_out
            {
                return Err(MetaError::MlpLayer { layer, layers });
            }
            n_in = n_out;
        }
        Ok(())
    }

    pub fn hidden_sizes(&self) -> Vec<usize> {
        self.config.hidden.clone()
    }

    /// Parameter count (weights + biases) — the paper prefers the MLP to
    /// the earlier NN partly for model-size reasons.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }
}

impl BinaryClassifier for Mlp {
    /// An empty network (which [`Mlp::validate`] refuses) has no output
    /// to score and returns NaN, which [`crate::decide`] reads as benign.
    fn predict_proba_one(&self, x: &[f64]) -> f64 {
        let Some((output, hidden)) = self.layers.split_last() else {
            return f64::NAN;
        };
        let mut a = x.to_vec();
        let mut z = Vec::new();
        for layer in hidden {
            layer.forward(&a, &mut z);
            a.clear();
            a.extend(z.iter().map(|&v| relu(v)));
        }
        output.forward(&a, &mut z);
        sigmoid(z[0])
    }

    /// Whole-batch forward pass: the batch is transposed once into
    /// feature-major columns, then every layer runs as one tiled,
    /// vectorizable matrix-matrix multiply instead of a matrix-vector
    /// product per row. Two ping-pong activation buffers are the only
    /// allocations, amortized over the batch. An empty network scores
    /// every row NaN, as [`Mlp::predict_proba_one`] does.
    fn predict_proba_batch(&self, rows: &[f64], n_features: usize, out: &mut [f64]) {
        crate::model::check_batch_shape(rows, n_features, out.len());
        let n_rows = out.len();
        if n_rows == 0 {
            return;
        }
        let Some((output, hidden)) = self.layers.split_last() else {
            out.fill(f64::NAN);
            return;
        };
        assert_eq!(
            n_features,
            hidden.first().unwrap_or(output).n_in,
            "feature width does not match the input layer"
        );
        // Transpose row-major input into feature-major columns.
        let mut a = vec![0.0; rows.len()];
        for (r, row) in rows.chunks_exact(n_features).enumerate() {
            for (i, &v) in row.iter().enumerate() {
                a[i * n_rows + r] = v;
            }
        }
        let mut z: Vec<f64> = Vec::new();
        for layer in hidden {
            layer.forward_batch(&a, n_rows, &mut z);
            for v in z.iter_mut() {
                *v = relu(*v);
            }
            std::mem::swap(&mut a, &mut z);
        }
        output.forward_batch(&a, n_rows, &mut z);
        // The output layer has one unit: z is one logit per row.
        for (o, &v) in out.iter_mut().zip(&z) {
            *o = sigmoid(v);
        }
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_util::blobs;

    fn quick_cfg() -> MlpConfig {
        MlpConfig {
            hidden: vec![16, 8],
            epochs: 60,
            batch_size: 32,
            ..Default::default()
        }
    }

    #[test]
    fn learns_separable_blobs() {
        let train = blobs(200, 4, 2.0);
        let test = blobs(50, 4, 2.0);
        let mlp = Mlp::fit(&train, &quick_cfg(), 1);
        assert!(mlp.evaluate(&test).accuracy() > 0.99);
    }

    #[test]
    fn learns_xor_nonlinearity() {
        // XOR on two features: linearly inseparable, solvable with one
        // hidden layer.
        let mut d = Dataset::new(2);
        for i in 0..400 {
            let a = i % 2 == 0;
            let b = (i / 2) % 2 == 0;
            let jitter = ((i * 37) % 100) as f64 / 1000.0;
            d.push(
                &[
                    if a { 1.0 } else { -1.0 } + jitter,
                    if b { 1.0 } else { -1.0 } - jitter,
                ],
                a ^ b,
            );
        }
        let cfg = MlpConfig {
            hidden: vec![16],
            epochs: 200,
            batch_size: 32,
            ..Default::default()
        };
        let mlp = Mlp::fit(&d, &cfg, 3);
        assert!(mlp.evaluate(&d).accuracy() > 0.95);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = blobs(50, 3, 2.0);
        let a = Mlp::fit(&d, &quick_cfg(), 7);
        let b = Mlp::fit(&d, &quick_cfg(), 7);
        let x = [0.5, -0.5, 1.0];
        assert_eq!(a.predict_proba_one(&x), b.predict_proba_one(&x));
    }

    #[test]
    fn paper_presets_have_stated_shapes() {
        assert_eq!(MlpConfig::paper_nn().hidden, vec![32, 16, 8]);
        assert_eq!(MlpConfig::paper_mlp().hidden, vec![64, 32, 16]);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let d = blobs(10, 4, 2.0);
        let cfg = MlpConfig {
            hidden: vec![8, 4],
            epochs: 1,
            ..Default::default()
        };
        let mlp = Mlp::fit(&d, &cfg, 1);
        // (4×8+8) + (8×4+4) + (4×1+1) = 40 + 36 + 5 = 81.
        assert_eq!(mlp.parameter_count(), 81);
        assert_eq!(mlp.hidden_sizes(), vec![8, 4]);
    }

    #[test]
    fn proba_bounded_and_finite() {
        let d = blobs(50, 2, 2.0);
        let mlp = Mlp::fit(&d, &quick_cfg(), 2);
        for x in [[10.0, 10.0], [-10.0, -10.0], [0.0, 0.0]] {
            let p = mlp.predict_proba_one(&x);
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(super::sigmoid(1000.0), 1.0);
        assert_eq!(super::sigmoid(-1000.0), 0.0);
        assert!((super::sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    use crate::dataset::Dataset;
}
