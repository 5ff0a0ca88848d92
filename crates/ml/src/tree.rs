//! CART decision trees and the random forest built on them.
//!
//! Split search is histogram-based: candidate thresholds are quantiles of
//! a value sample at each node, and all rows are binned in one pass per
//! feature. That bounds split cost at O(n log c) per feature regardless
//! of node size — the classic trick for training on millions of
//! telemetry rows without per-node full sorts.
//!
//! Trees are independent, so [`RandomForest::fit`] trains them in
//! parallel with rayon (each tree gets a seed derived from the forest
//! seed, so results are deterministic regardless of thread scheduling).

use crate::dataset::Dataset;
use crate::meta::MetaError;
use crate::model::BinaryClassifier;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Per-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
    /// Maximum candidate thresholds per feature per node.
    pub max_candidates: usize,
    /// Features considered per split; `None` = all (single tree default).
    pub mtry: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_candidates: 32,
            mtry: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        proba: f64,
    },
    Split {
        feature: u32,
        threshold: f64,
        /// Children are at `left` and `left + 1` in the arena.
        left: u32,
    },
}

/// A trained CART tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    /// Total impurity decrease contributed by each feature.
    importances: Vec<f64>,
}

#[inline]
fn gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p) // 1 - p² - (1-p)² simplified
}

impl DecisionTree {
    /// Fit on the rows of `data` selected by `indices`.
    pub fn fit_indices(data: &Dataset, indices: &[usize], config: &TreeConfig, seed: u64) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_features: data.n_features(),
            importances: vec![0.0; data.n_features()],
        };
        let mut scratch = indices.to_vec();
        tree.build(data, &mut scratch, 0, config, &mut rng);
        tree
    }

    /// Fit on all rows.
    pub fn fit(data: &Dataset, config: &TreeConfig, seed: u64) -> Self {
        let indices: Vec<usize> = (0..data.len()).collect();
        Self::fit_indices(data, &indices, config, seed)
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match nodes[i] {
                Node::Leaf { .. } => 1,
                Node::Split { left, .. } => {
                    1 + walk(nodes, left as usize).max(walk(nodes, left as usize + 1))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Raw (unnormalized) impurity-decrease importances.
    pub fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Build the subtree over `indices`, returning its arena slot.
    fn build(
        &mut self,
        data: &Dataset,
        indices: &mut [usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut SmallRng,
    ) -> u32 {
        let n = indices.len();
        let pos = indices.iter().filter(|&&i| data.label(i)).count();
        let proba = pos as f64 / n as f64;

        let make_leaf =
            pos == 0 || pos == n || depth >= config.max_depth || n < config.min_samples_split;
        if !make_leaf {
            if let Some((feature, threshold, gain)) = self.best_split(data, indices, config, rng) {
                // Partition in place.
                let mid = partition(data, indices, feature, threshold);
                if mid >= config.min_samples_leaf
                    && n - mid >= config.min_samples_leaf
                    && gain > 0.0
                {
                    self.importances[feature] += gain;
                    let slot = self.nodes.len() as u32;
                    self.nodes.push(Node::Leaf { proba }); // placeholder
                    let (left_idx, right_idx) = indices.split_at_mut(mid);
                    // Children must be adjacent: reserve both by building
                    // left first, then right, then fixing the pointer.
                    let left = self.build_pair(data, left_idx, right_idx, depth, config, rng);
                    self.nodes[slot as usize] = Node::Split {
                        feature: feature as u32,
                        threshold,
                        left,
                    };
                    return slot;
                }
            }
        }
        let slot = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf { proba });
        slot
    }

    /// Build both children, guaranteeing adjacency (left at k, right at
    /// k+1) by pre-allocating placeholder slots.
    fn build_pair(
        &mut self,
        data: &Dataset,
        left_idx: &mut [usize],
        right_idx: &mut [usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut SmallRng,
    ) -> u32 {
        let left_slot = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf { proba: 0.0 }); // left placeholder
        self.nodes.push(Node::Leaf { proba: 0.0 }); // right placeholder
        let built_left = self.build(data, left_idx, depth + 1, config, rng);
        self.nodes.swap(left_slot as usize, built_left as usize);
        self.relocate_children(left_slot, built_left);
        let built_right = self.build(data, right_idx, depth + 1, config, rng);
        self.nodes
            .swap(left_slot as usize + 1, built_right as usize);
        self.relocate_children(left_slot + 1, built_right);
        left_slot
    }

    /// After swapping a subtree root into its reserved slot, the node that
    /// used to live in the reserved slot (a placeholder) sits where the
    /// root was built; nothing points at it, so only the moved root's
    /// children pointers stay valid (children were built after the root
    /// slot and never moved). No fix-up needed beyond the swap — this
    /// helper documents that invariant and asserts it in debug builds.
    fn relocate_children(&self, _slot: u32, _from: u32) {
        debug_assert!(_from as usize >= _slot as usize);
    }

    /// Find the best (feature, threshold) by Gini gain over histogram
    /// candidates. Returns `None` if no split improves purity.
    fn best_split(
        &self,
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut SmallRng,
    ) -> Option<(usize, f64, f64)> {
        let n = indices.len();
        let total_pos = indices.iter().filter(|&&i| data.label(i)).count();
        let parent_gini = gini(total_pos, n);

        // Feature subset (mtry).
        let d = data.n_features();
        let mut features: Vec<usize> = (0..d).collect();
        let take = config.mtry.unwrap_or(d).clamp(1, d);
        if take < d {
            features.shuffle(rng);
            features.truncate(take);
        }

        // Sample values for candidate thresholds.
        let sample_n = 256.min(n);
        let mut best: Option<(usize, f64, f64)> = None;
        let mut values: Vec<f64> = Vec::with_capacity(sample_n);
        let mut bins: Vec<(usize, usize)> = Vec::new(); // (count, pos) per bin

        for &f in &features {
            values.clear();
            for _ in 0..sample_n {
                let i = indices[rng.random_range(0..n)];
                values.push(data.row(i)[f]);
            }
            values.sort_by(f64::total_cmp);
            values.dedup();
            if values.len() < 2 {
                continue; // constant feature at this node
            }
            // Candidate thresholds: midpoints of up to max_candidates
            // evenly spaced quantiles.
            let step = ((values.len() - 1) as f64 / config.max_candidates as f64).max(1.0);
            let mut thresholds: Vec<f64> = Vec::with_capacity(config.max_candidates);
            let mut k = 0.0;
            while (k as usize) < values.len() - 1 {
                let i = k as usize;
                thresholds.push((values[i] + values[i + 1]) / 2.0);
                k += step;
            }
            thresholds.dedup();

            // One pass: bin every row by threshold index.
            bins.clear();
            bins.resize(thresholds.len() + 1, (0, 0));
            for &i in indices {
                let v = data.row(i)[f];
                let bin = thresholds.partition_point(|&t| v > t);
                let e = &mut bins[bin];
                e.0 += 1;
                e.1 += usize::from(data.label(i));
            }

            // Prefix scan: split after bin b means left = bins[..=b].
            let mut left_n = 0usize;
            let mut left_pos = 0usize;
            for (b, &(cnt, pos)) in bins.iter().enumerate().take(thresholds.len()) {
                left_n += cnt;
                left_pos += pos;
                let right_n = n - left_n;
                if left_n == 0 || right_n == 0 {
                    continue;
                }
                let right_pos = total_pos - left_pos;
                let w_gini = (left_n as f64 * gini(left_pos, left_n)
                    + right_n as f64 * gini(right_pos, right_n))
                    / n as f64;
                let gain = (parent_gini - w_gini) * n as f64;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    // bins are ordered low→high values; threshold index b.
                    best = Some((f, thresholds[b], gain));
                }
            }
        }
        best
    }

    #[inline]
    fn leaf_proba(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match self.nodes[i] {
                Node::Leaf { proba } => return proba,
                Node::Split {
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

    /// Walk `L` rows down the tree in lockstep. Lanes that reach a leaf
    /// idle there (re-reading the cached leaf node) until the deepest
    /// lane finishes; the chase chains stay independent so their node
    /// loads overlap.
    fn leaf_probas<const L: usize>(&self, x: [&[f64]; L]) -> [f64; L] {
        let mut i = [0usize; L];
        let mut p = [0.0f64; L];
        loop {
            let mut all_leaves = true;
            for l in 0..L {
                match self.nodes[i[l]] {
                    Node::Leaf { proba } => p[l] = proba,
                    Node::Split {
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
}

/// In-place partition of `indices`: rows with `x[feature] <= threshold`
/// first. Returns the boundary.
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

impl BinaryClassifier for DecisionTree {
    fn predict_proba_one(&self, x: &[f64]) -> f64 {
        self.leaf_proba(x)
    }

    /// Route every row of the batch through the (cache-hot) node arena.
    fn predict_proba_batch(&self, rows: &[f64], n_features: usize, out: &mut [f64]) {
        crate::model::check_batch_shape(rows, n_features, out.len());
        if out.is_empty() {
            return;
        }
        for (row, o) in rows.chunks_exact(n_features).zip(out.iter_mut()) {
            *o = self.leaf_proba(row);
        }
    }

    fn name(&self) -> &'static str {
        "DecisionTree"
    }
}

/// Forest hyperparameters. Defaults follow scikit-learn's spirit:
/// 100 trees, sqrt(d) features per split, bootstrap the full sample size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    pub n_trees: usize,
    pub tree: TreeConfig,
    pub bootstrap: bool,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 100,
            tree: TreeConfig {
                max_depth: 16,
                ..Default::default()
            },
            bootstrap: true,
        }
    }
}

impl RandomForestConfig {
    /// A lighter forest for fast experiments.
    pub fn fast() -> Self {
        Self {
            n_trees: 25,
            ..Default::default()
        }
    }
}

/// A bagged ensemble of CART trees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    pub fn fit(data: &Dataset, config: &RandomForestConfig, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        let d = data.n_features();
        let mtry = config
            .tree
            .mtry
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize);
        let tree_cfg = TreeConfig {
            mtry: Some(mtry),
            ..config.tree
        };

        let trees: Vec<DecisionTree> = (0..config.n_trees)
            .into_par_iter()
            .map(|t| {
                let tree_seed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(t as u64);
                let mut rng = SmallRng::seed_from_u64(tree_seed);
                if config.bootstrap {
                    let idx = data.bootstrap_indices(data.len(), &mut rng);
                    DecisionTree::fit_indices(data, &idx, &tree_cfg, tree_seed ^ 0xabcd)
                } else {
                    DecisionTree::fit(data, &tree_cfg, tree_seed ^ 0xabcd)
                }
            })
            .collect();
        let forest = Self {
            trees,
            n_features: d,
        };
        debug_assert_eq!(forest.invalid_leaf(), None, "fit builds leaves as pos / n");
        forest
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean-decrease-in-impurity importances, normalized to sum to 1.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.n_features];
        for t in &self.trees {
            for (acc, &v) in total.iter_mut().zip(t.raw_importances()) {
                *acc += v;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for v in &mut total {
                *v /= sum;
            }
        }
        total
    }

    /// The first leaf whose probability is not a finite value in [0, 1],
    /// as (tree, node, probability) — the invariant the early exit in
    /// [`RandomForest::decide_batch`] rests on. [`RandomForest::fit`]
    /// builds every leaf as a class share `pos / n`, so only a damaged or
    /// hand-edited bundle has one.
    pub fn invalid_leaf(&self) -> Option<(usize, usize, f64)> {
        self.trees.iter().enumerate().find_map(|(t, tree)| {
            tree.nodes
                .iter()
                .enumerate()
                .find_map(|(i, node)| match *node {
                    Node::Leaf { proba } if !(0.0..=1.0).contains(&proba) => Some((t, i, proba)),
                    _ => None,
                })
        })
    }

    /// Reject a forest that cannot be walked over `n_features`-wide rows
    /// or whose early exit would not be exact: a tree with no nodes, a
    /// split on a feature outside the row or with children that do not
    /// both lie after it ([`RandomForest::fit`] always places them
    /// there, so every walk ends at a leaf), or an
    /// [`RandomForest::invalid_leaf`].
    pub fn validate(&self, n_features: usize) -> Result<(), MetaError> {
        for (t, tree) in self.trees.iter().enumerate() {
            let bad_node = if tree.nodes.is_empty() {
                Some(0)
            } else {
                tree.nodes
                    .iter()
                    .enumerate()
                    .position(|(i, node)| match *node {
                        Node::Leaf { .. } => false,
                        Node::Split { feature, left, .. } => {
                            let left = left as usize;
                            feature as usize >= n_features
                                || left <= i
                                || left + 1 >= tree.nodes.len()
                        }
                    })
            };
            if let Some(node) = bad_node {
                return Err(MetaError::ForestSplit { tree: t, node });
            }
        }
        match self.invalid_leaf() {
            Some((tree, node, proba)) => Err(MetaError::ForestLeaf { tree, node, proba }),
            None => Ok(()),
        }
    }

    /// The one traversal behind both batch paths. `L` rows walk the
    /// trees in lockstep — four at a time, so the four pointer-chase
    /// chains overlap their node loads instead of serializing; a batch's
    /// last `len % 4` rows walk alone. Trees stay innermost: the deployed
    /// forest (30 trees of depth ≤ 16) stays cache-resident, and a
    /// tree-major sweep measured slower than keeping each row quad hot.
    /// Leaf probabilities are summed **in tree order**, exactly as
    /// [`RandomForest::predict_proba_one`] sums them. After each tree
    /// `stop(&sums, trees_left)` may end the walk. Returns the sums and
    /// the number of trees walked.
    #[inline(always)]
    fn walk<const L: usize>(
        &self,
        x: [&[f64]; L],
        mut stop: impl FnMut(&[f64; L], f64) -> bool,
    ) -> ([f64; L], usize) {
        let n = self.trees.len();
        let mut acc = [0.0f64; L];
        for (t, tree) in self.trees.iter().enumerate() {
            let p = tree.leaf_probas(x);
            for (a, &pv) in acc.iter_mut().zip(&p) {
                *a += pv;
            }
            if stop(&acc, (n - t - 1) as f64) {
                return (acc, t + 1);
            }
        }
        (acc, n)
    }

    /// The forest's vote on every row of a row-major batch, each exactly
    /// `decide(self.predict_proba_one(row))`, walking only as many trees
    /// as it takes to settle it. Returns the trees walked, summed over
    /// rows: a quad of rows walks until all four are settled, so each of
    /// its rows counts the quad's trees; a batch's last `len % 4` rows
    /// walk and count alone.
    ///
    /// Why stopping early cannot change a vote. `predict_proba_one` sums
    /// the leaves in tree order, `s_0 = 0`, `s_{k+1} = fl(s_k + p_k)`,
    /// and votes `decide(s_n / n)`.
    /// 1. Every leaf `p` is finite and in [0, 1]: `fit` builds it as
    ///    `pos / n`, and bundle validation rejects any
    ///    [`RandomForest::invalid_leaf`].
    /// 2. Round-to-nearest addition is monotone in each argument. With
    ///    `p ≥ 0` that gives `s_n ≥ s_k`; with `p ≤ 1` it gives
    ///    `s_n ≤ t`, where `t` continues the sum from `s_k` with every
    ///    one of the `r = n − k` remaining leaves equal to 1.0, in the
    ///    same order of roundings.
    /// 3. Division by `n` is monotone too, so `decide(s / n)` holds
    ///    exactly when `s ≥ cut` (`attack_cut`).
    ///
    /// So a row with `s_k ≥ cut` votes attack whatever the other trees
    /// say. For the benign side, every value involved is at most
    /// `B = n + 1`, so each rounding errs by at most `u·B`, `u = 2⁻⁵³`:
    /// `t ≤ s_k + r + r·u·B`, and the check's own two roundings give
    /// `fl(fl(s_k + r) + m) ≥ s_k + r + m − 2·u·B`. With
    /// `m = (n + 1)²·2⁻⁵² = 2·u·B² ≥ (r + 2)·u·B`, the check passing
    /// means `t < cut − m + (r + 2)·u·B ≤ cut`, so `s_n < cut`: the row
    /// votes benign whatever the other trees say. At `n = 30`,
    /// `m ≈ 2.1e-13`; without it, sums that hover at the cut can round
    /// across it (the `margin_covers_sequential_rounding` test pins one).
    /// A row that never settles walks every tree and is decided on the
    /// full sum, as `predict_proba_one` decides it.
    pub fn decide_batch(&self, rows: &[f64], n_features: usize, out: &mut [bool]) -> u64 {
        crate::model::check_batch_shape(rows, n_features, out.len());
        if out.is_empty() {
            return 0;
        }
        let n = self.trees.len() as f64;
        let cut = attack_cut(n);
        let margin = (n + 1.0) * (n + 1.0) * f64::EPSILON;
        let settled = |s: f64, left: f64| s >= cut || s + left + margin < cut;
        let mut walked = 0;
        let mut quads = rows.chunks_exact(4 * n_features);
        let mut outs = out.chunks_exact_mut(4);
        for (q, o) in quads.by_ref().zip(outs.by_ref()) {
            let all_settled = |acc: &[f64; 4], left| acc.iter().all(|&s| settled(s, left));
            let (acc, trees) = self.walk(quad(q, n_features), all_settled);
            for (o, s) in o.iter_mut().zip(acc) {
                *o = s >= cut;
            }
            walked += 4 * trees;
        }
        let tail = quads.remainder().chunks_exact(n_features);
        for (row, o) in tail.zip(outs.into_remainder()) {
            let ([s], trees) = self.walk([row], |&[s], left| settled(s, left));
            *o = s >= cut;
            walked += trees;
        }
        walked as u64
    }
}

/// Where the forest's vote flips: the smallest sum `cut` of `n` leaf
/// probabilities with `decide(cut / n)`, so that
/// `decide(s / n) == (s >= cut)` for every such sum. Division by `n`
/// rounds monotonically, so `decide(s / n)` is a step in `s`; `n / 2`
/// divides to exactly 0.5, and stepping down ulps finds the step's edge
/// in a step or two (`s / n` rounds to 0.5 only within half an ulp of
/// it). With no trees every probability is `0 / 0`, a NaN `decide` calls
/// benign, and an infinite cut says the same.
fn attack_cut(n: f64) -> f64 {
    let mut cut = n / 2.0;
    if !crate::decide(cut / n) {
        return f64::INFINITY;
    }
    while crate::decide(cut.next_down() / n) {
        cut = cut.next_down();
    }
    cut
}

/// One `4 × n_features` chunk of a row-major batch as its four rows.
fn quad(rows: &[f64], n_features: usize) -> [&[f64]; 4] {
    let (x0, rest) = rows.split_at(n_features);
    let (x1, rest) = rest.split_at(n_features);
    let (x2, x3) = rest.split_at(n_features);
    [x0, x1, x2, x3]
}

impl BinaryClassifier for RandomForest {
    fn predict_proba_one(&self, x: &[f64]) -> f64 {
        let s: f64 = self.trees.iter().map(|t| t.leaf_proba(x)).sum();
        s / self.trees.len() as f64
    }

    /// Every tree over every row (`RandomForest::walk`), straight into
    /// `out` — no per-call allocation, and bit-identical to
    /// [`RandomForest::predict_proba_one`].
    fn predict_proba_batch(&self, rows: &[f64], n_features: usize, out: &mut [f64]) {
        crate::model::check_batch_shape(rows, n_features, out.len());
        if out.is_empty() {
            return;
        }
        let n = self.trees.len() as f64;
        let mut quads = rows.chunks_exact(4 * n_features);
        let mut outs = out.chunks_exact_mut(4);
        for (q, o) in quads.by_ref().zip(outs.by_ref()) {
            let (acc, _) = self.walk(quad(q, n_features), |_, _| false);
            for (o, s) in o.iter_mut().zip(acc) {
                *o = s / n;
            }
        }
        let tail = quads.remainder().chunks_exact(n_features);
        for (row, o) in tail.zip(outs.into_remainder()) {
            let ([s], _) = self.walk([row], |_, _| false);
            *o = s / n;
        }
    }

    fn name(&self) -> &'static str {
        "RF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_util::blobs;

    #[test]
    fn tree_learns_separable_blobs() {
        let d = blobs(100, 4, 3.0);
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), 1);
        assert_eq!(tree.evaluate(&d).accuracy(), 1.0);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[i as f64, 0.0], true);
        }
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), 1);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_proba_one(&[5.0, 0.0]), 1.0);
    }

    #[test]
    fn depth_limit_is_respected() {
        let d = blobs(200, 3, 0.4); // overlapping blobs force deep trees
        let tree = DecisionTree::fit(
            &d,
            &TreeConfig {
                max_depth: 3,
                ..Default::default()
            },
            1,
        );
        assert!(tree.depth() <= 4, "depth {}", tree.depth());
    }

    #[test]
    fn min_samples_split_caps_growth() {
        let d = blobs(100, 2, 0.3);
        let big = DecisionTree::fit(&d, &TreeConfig::default(), 1).node_count();
        let small = DecisionTree::fit(
            &d,
            &TreeConfig {
                min_samples_split: 100,
                ..Default::default()
            },
            1,
        )
        .node_count();
        assert!(small < big);
    }

    #[test]
    fn importances_identify_informative_feature() {
        // Only feature 0 is informative; 1 and 2 are constant-ish noise.
        let mut d = Dataset::new(3);
        for i in 0..400 {
            let x0 = if i % 2 == 0 { -1.0 } else { 1.0 };
            let noise = ((i * 7919) % 100) as f64 / 1000.0;
            d.push(&[x0 + noise / 10.0, noise, 0.5], i % 2 == 1);
        }
        let forest = RandomForest::fit(&d, &RandomForestConfig::fast(), 3);
        let imp = forest.feature_importances();
        assert!(imp[0] > 0.9, "importances {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn forest_beats_or_matches_single_tree_on_noisy_data() {
        let train = blobs(300, 5, 0.8);
        let test = blobs(100, 5, 0.8);
        let tree = DecisionTree::fit(
            &train,
            &TreeConfig {
                max_depth: 4,
                ..Default::default()
            },
            5,
        );
        let forest = RandomForest::fit(
            &train,
            &RandomForestConfig {
                n_trees: 30,
                ..RandomForestConfig::fast()
            },
            5,
        );
        let t_acc = tree.evaluate(&test).accuracy();
        let f_acc = forest.evaluate(&test).accuracy();
        assert!(f_acc >= t_acc - 0.02, "forest {f_acc} vs tree {t_acc}");
        assert!(f_acc > 0.9);
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let d = blobs(50, 3, 1.0);
        let a = RandomForest::fit(&d, &RandomForestConfig::fast(), 9);
        let b = RandomForest::fit(&d, &RandomForestConfig::fast(), 9);
        let x = [0.3, -0.2, 0.9];
        assert_eq!(a.predict_proba_one(&x), b.predict_proba_one(&x));
    }

    #[test]
    fn proba_is_bounded() {
        let d = blobs(50, 2, 2.0);
        let forest = RandomForest::fit(&d, &RandomForestConfig::fast(), 2);
        for (row, _) in d.rows() {
            let p = forest.predict_proba_one(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn partition_splits_correctly() {
        let mut d = Dataset::new(1);
        for v in [5.0, 1.0, 3.0, 8.0, 2.0] {
            d.push(&[v], false);
        }
        let mut idx = vec![0, 1, 2, 3, 4];
        let mid = partition(&d, &mut idx, 0, 3.0);
        assert_eq!(mid, 3);
        for &i in &idx[..mid] {
            assert!(d.row(i)[0] <= 3.0);
        }
        for &i in &idx[mid..] {
            assert!(d.row(i)[0] > 3.0);
        }
    }

    /// A depth-1 tree: rows with `x[0] <= 0` land on `cold`, the rest on
    /// `hot`.
    fn stump(cold: f64, hot: f64) -> DecisionTree {
        DecisionTree {
            nodes: vec![
                Node::Split {
                    feature: 0,
                    threshold: 0.0,
                    left: 1,
                },
                Node::Leaf { proba: cold },
                Node::Leaf { proba: hot },
            ],
            n_features: 1,
            importances: vec![0.0],
        }
    }

    /// One stump per leaf: hot rows (`x > 0`) sum `hot` in tree order,
    /// cold rows sum zeros.
    fn stumps(hot: &[f64]) -> RandomForest {
        RandomForest {
            trees: hot.iter().map(|&p| stump(0.0, p)).collect(),
            n_features: 1,
        }
    }

    /// `decide_batch` over one-feature `rows`, checked row by row against
    /// the probability path; returns the votes and the trees walked.
    fn decided(forest: &RandomForest, rows: &[f64]) -> (Vec<bool>, u64) {
        let mut out = vec![false; rows.len()];
        let walked = forest.decide_batch(rows, 1, &mut out);
        for (r, (&x, &vote)) in rows.iter().zip(&out).enumerate() {
            let want = crate::decide(forest.predict_proba_one(&[x]));
            assert_eq!(vote, want, "row {r} (x = {x}) of {}", rows.len());
        }
        (out, walked)
    }

    #[test]
    fn cut_is_the_edge_of_the_vote() {
        for n in 1..=64 {
            let n = n as f64;
            let cut = attack_cut(n);
            assert!(crate::decide(cut / n), "n = {n}");
            assert!(!crate::decide(cut.next_down() / n), "n = {n}");
        }
        // No trees: every probability is 0 / 0, which votes benign.
        assert_eq!(attack_cut(0.0), f64::INFINITY);
        let empty = stumps(&[]);
        assert!(empty.predict_proba_one(&[1.0]).is_nan());
        assert_eq!(decided(&empty, &[1.0, -1.0]), (vec![false, false], 0));
    }

    #[test]
    fn sums_on_the_cut_and_one_ulp_either_side() {
        // n − 1 leaves of 0.5, then the one leaf that lands the sum
        // exactly on `target` (Sterbenz: the subtraction is exact). The
        // sum hovers below the cut and above the benign bound until the
        // last tree, so every tree is walked.
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 17, 30] {
            let cut = attack_cut(n as f64);
            let head = (n - 1) as f64 * 0.5;
            for (target, attack) in [(cut.next_down(), false), (cut, true), (cut.next_up(), true)] {
                let mut leaves = vec![0.5; n - 1];
                leaves.push(target - head);
                let forest = stumps(&leaves);
                assert_eq!(forest.predict_proba_one(&[1.0]) * n as f64 >= cut, attack);
                let (votes, walked) = decided(&forest, &[1.0]);
                assert_eq!(votes, [attack], "n = {n}, sum {target:e}");
                assert_eq!(walked, n as u64, "n = {n}, sum {target:e}");
            }
        }
    }

    #[test]
    fn half_leaves_sum_to_exactly_half_and_walk_every_tree() {
        for n in [1usize, 2, 3, 4, 5, 8, 9, 30, 31] {
            let forest = RandomForest {
                trees: vec![stump(0.5, 0.5); n],
                n_features: 1,
            };
            assert_eq!(forest.predict_proba_one(&[1.0]), 0.5);
            let (votes, walked) = decided(&forest, &[1.0, -1.0, f64::NAN]);
            assert_eq!(votes, [true; 3], "n = {n}");
            assert_eq!(walked, 3 * n as u64, "n = {n}");
        }
    }

    #[test]
    fn settles_as_soon_as_the_vote_is_fixed() {
        // n = 4, cut = 2: all-ones reaches the cut after two trees; all
        // zeros cannot reach it once one tree is left (0 + 1 < 2), i.e.
        // after three. n = 30, cut = 15: 15 trees and 16.
        for (n, attack_after, benign_after) in [(4, 2, 3), (30, 15, 16)] {
            let forest = stumps(&vec![1.0; n]);
            let (votes, walked) = decided(&forest, &[1.0; 4]);
            assert_eq!((votes, walked), (vec![true; 4], 4 * attack_after));
            let (votes, walked) = decided(&forest, &[-1.0; 4]);
            assert_eq!((votes, walked), (vec![false; 4], 4 * benign_after));
            // A quad walks until its last lane settles.
            let (votes, walked) = decided(&forest, &[1.0, -1.0, 1.0, 1.0]);
            assert_eq!(votes, [true, false, true, true]);
            assert_eq!(walked, 4 * benign_after);
        }
    }

    #[test]
    fn margin_covers_sequential_rounding() {
        // n = 17, cut = 8.5. After nine trees the sum is 0.5 − 5·2⁻⁵²
        // and eight trees of 1.0 remain. Added in one rounding, s + 8
        // falls below the cut; added one at a time, ties-to-even carries
        // the sum up to exactly 8.5 — an attack vote.
        let first = 0.5 - 5.0 * f64::EPSILON;
        let mut leaves = vec![first];
        leaves.extend([0.0; 8]);
        leaves.extend([1.0; 8]);
        let forest = stumps(&leaves);
        let cut = attack_cut(17.0);
        assert_eq!(cut, 8.5);
        assert!(
            first + 8.0 < cut,
            "the unmargined bound would settle benign"
        );
        assert_eq!(forest.predict_proba_one(&[1.0]), 0.5);
        assert_eq!(decided(&forest, &[1.0]), (vec![true], 17));
    }

    #[test]
    fn decisions_match_on_non_finite_rows_and_every_batch_size() {
        let d = blobs(60, 3, 0.6);
        let forest = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 30,
                ..RandomForestConfig::fast()
            },
            4,
        );
        let mut out = vec![false; 4];
        let special = [
            f64::NAN,
            0.2,
            -0.1,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            f64::NAN,
            f64::NAN,
            f64::NAN,
            1.0,
            f64::INFINITY,
            -1.0,
        ];
        forest.decide_batch(&special, 3, &mut out);
        for (row, &vote) in special.chunks_exact(3).zip(&out) {
            assert_eq!(
                vote,
                crate::decide(forest.predict_proba_one(row)),
                "{row:?}"
            );
        }

        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 255, 256, 257] {
            let rows: Vec<f64> = (0..n).flat_map(|i| d.row(i % d.len()).to_vec()).collect();
            let mut out = vec![false; n];
            let walked = forest.decide_batch(&rows, 3, &mut out);
            for (r, (row, &vote)) in rows.chunks_exact(3).zip(&out).enumerate() {
                assert_eq!(
                    vote,
                    crate::decide(forest.predict_proba_one(row)),
                    "row {r} of {n}"
                );
            }
            // Every row walks at least until a vote can be fixed, and at
            // most the whole forest.
            assert!(
                walked >= 15 * n as u64 && walked <= 30 * n as u64,
                "{walked} for {n}"
            );
        }
    }

    #[test]
    fn fitted_leaves_are_valid_and_damaged_ones_are_found() {
        let d = blobs(40, 2, 1.0);
        let mut forest = RandomForest::fit(&d, &RandomForestConfig::fast(), 6);
        assert_eq!(forest.invalid_leaf(), None);
        let tree = 3;
        let node = forest.trees[tree]
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Leaf { .. }))
            .unwrap();
        for bad in [1.5, -0.25, f64::INFINITY, f64::NEG_INFINITY] {
            forest.trees[tree].nodes[node] = Node::Leaf { proba: bad };
            assert_eq!(forest.invalid_leaf(), Some((tree, node, bad)));
        }
        forest.trees[tree].nodes[node] = Node::Leaf { proba: f64::NAN };
        let (t, n, p) = forest.invalid_leaf().unwrap();
        assert!((t, n) == (tree, node) && p.is_nan());
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let d = blobs(40, 3, 2.0);
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), 4);
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        for (row, _) in d.rows() {
            assert_eq!(tree.predict_one(row), back.predict_one(row));
        }
    }
}
