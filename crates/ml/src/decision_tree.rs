//! Cost-sensitive CART decision trees.
//!
//! The Exhaustive Feature Subsets classifiers of Level 2 are decision trees
//! trained per feature subset (the paper cites Quinlan's induction of
//! decision trees). Because mislabeling input *i* as configuration *j* costs
//! the performance (and accuracy-penalty) difference `C_ij`, the tree
//! minimizes *expected misclassification cost* rather than plain error: leaf
//! predictions pick `argmin_j Σ_i C[label_i][j]`, and splits greedily reduce
//! total leaf cost (with a small Gini tie-breaker so that cost plateaus do
//! not stall induction).
//!
//! # Split search
//!
//! A node tries, on each of its columns, up to `max_thresholds`
//! quantile-spaced midpoints between the column's distinct values, and
//! keeps the first split with the lowest summed child cost. The search
//! sorts the node's rows by the column once and then sweeps the
//! thresholds in ascending order: a cursor moves every row at or below the
//! current threshold into running left-hand class counts, the right-hand
//! counts are the node's counts minus those, and each side is costed
//! against a flat cost matrix. Counts are integers and nothing is
//! allocated per threshold.
//!
//! # Tree families
//!
//! Level 2 fits one tree per feature subset and cross-validation fold, and
//! subsets that share a column keep asking the same question: which split
//! of *these* rows on *this* column is best, under the same labels, cost
//! matrix and options. A [`TreeFamily`] holds those fixed and memoizes each
//! column's best split per node row set, so one scan serves every tree of
//! the family that reaches that node. [`DecisionTree::fit`] is a family of
//! one.
//!
//! The memo key is the node's row set, as a bitset over the family's rows,
//! plus the column id, and map lookups compare it in full, never by hash
//! alone. A column's split search reads nothing but those rows' values and
//! labels and the fixed cost matrix and options (depth and `min_split` only
//! decide whether a node searches at all), so a hit returns exactly what a
//! fresh scan would compute. The memo lives as long as its family: the
//! level-2 learner builds one family per fold and cost matrix and drops it
//! when the fold is done.
//!
//! # Identical trees
//!
//! The sweep reproduces a rescan that walks every row at every candidate
//! threshold bit for bit, provided features are not NaN and the cost
//! matrix is finite:
//! - the candidate thresholds are the same midpoints of the same distinct
//!   values (`-0.0` and `0.0` count as one value, and either gives the same
//!   midpoint bits);
//! - midpoints never decrease, so the cursor's prefix is exactly the rows
//!   with `value <= threshold`, also where a midpoint rounds up to the upper
//!   value or overflows to infinity;
//! - class counts are exact, and every cost is summed in the same operand
//!   order;
//! - ties keep the first split in (column, threshold) order, both within a
//!   column and across the memoized per-column bests.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::AddAssign;

/// Hyper-parameters for [`DecisionTree::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeOptions {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_split: usize,
    /// Minimum samples in each child of a split.
    pub min_leaf: usize,
    /// Maximum number of candidate thresholds examined per feature
    /// (quantile-spaced); bounds induction cost on large data.
    pub max_thresholds: usize,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions {
            max_depth: 12,
            min_split: 4,
            min_leaf: 1,
            max_thresholds: 32,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted cost-sensitive decision tree over dense `f64` features and
/// `usize` class labels. Serializable: trained trees ship inside model
/// artifacts (`intune_serve`) and reload bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    num_classes: usize,
    num_features: usize,
}

/// Work counts of tree induction, summable across families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InductionStats {
    /// Trees fitted.
    pub trees_fitted: usize,
    /// Column scans requested at tree nodes that searched for a split.
    pub split_scans: usize,
    /// Scans actually computed; the rest were answered by the memo.
    pub split_scans_computed: usize,
}

impl AddAssign for InductionStats {
    fn add_assign(&mut self, rhs: Self) {
        self.trees_fitted += rhs.trees_fitted;
        self.split_scans += rhs.split_scans;
        self.split_scans_computed += rhs.split_scans_computed;
    }
}

/// The best split one column offers one node.
#[derive(Debug, Clone, Copy)]
struct Split {
    cost: f64,
    threshold: f64,
}

/// A set of trees over shared columns, labels, cost matrix and options,
/// whose split searches are memoized per node row set and column (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct TreeFamily {
    /// `columns[c][row]`.
    columns: Vec<Vec<f64>>,
    labels: Vec<usize>,
    num_classes: usize,
    /// The cost matrix transposed and flattened: `cost[j * k + i]` is the
    /// penalty for predicting `j` on a sample labeled `i`.
    cost: Vec<f64>,
    opts: TreeOptions,
    /// Node row set (a bitset over the family's rows) → each column's best
    /// split, `None` until that column is scanned.
    memo: HashMap<Box<[u64]>, Vec<Option<Option<Split>>>>,
    sweep: Sweep,
    stats: InductionStats,
}

/// Buffers the split search reuses from scan to scan.
#[derive(Debug, Default)]
struct Sweep {
    /// The node's `(value, label)` pairs in ascending value order.
    sorted: Vec<(f64, usize)>,
    distinct: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
}

impl TreeFamily {
    /// Creates a family over `columns` (`columns[c][row]`) and `labels`
    /// (`0..num_classes`, one per row), minimizing expected cost under
    /// `cost`, a `num_classes × num_classes` matrix where `cost[i][j]` is
    /// the penalty for predicting `j` on a sample labeled `i`.
    ///
    /// # Panics
    /// Panics if there are no rows, a column's length differs from the
    /// label count, a label is out of range, or `cost` is not
    /// `num_classes × num_classes`.
    pub fn new(
        columns: Vec<Vec<f64>>,
        labels: Vec<usize>,
        num_classes: usize,
        cost: &[Vec<f64>],
        opts: TreeOptions,
    ) -> Self {
        assert!(!labels.is_empty(), "cannot fit a tree on no samples");
        assert!(
            columns.iter().all(|c| c.len() == labels.len()),
            "column/labels length mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        assert_eq!(cost.len(), num_classes, "cost matrix rows");
        assert!(
            cost.iter().all(|r| r.len() == num_classes),
            "cost matrix cols"
        );
        let cost = (0..num_classes)
            .flat_map(|j| cost.iter().map(move |row| row[j]))
            .collect();
        TreeFamily {
            columns,
            labels,
            num_classes,
            cost,
            opts,
            memo: HashMap::new(),
            sweep: Sweep::default(),
            stats: InductionStats::default(),
        }
    }

    /// Fits a tree on the family's rows whose feature `f` is column
    /// `features[f]`.
    ///
    /// # Panics
    /// Panics if a feature names no column of the family.
    pub fn fit(&mut self, features: &[usize]) -> DecisionTree {
        assert!(
            features.iter().all(|&c| c < self.columns.len()),
            "feature column out of range"
        );
        let rows: Vec<usize> = (0..self.labels.len()).collect();
        let root = self.grow(features, &rows, 0);
        self.stats.trees_fitted += 1;
        DecisionTree {
            root,
            num_classes: self.num_classes,
            num_features: features.len(),
        }
    }

    /// Work done by this family so far.
    pub fn stats(&self) -> InductionStats {
        self.stats
    }

    fn grow(&mut self, features: &[usize], rows: &[usize], depth: usize) -> Node {
        let mut counts = vec![0u32; self.num_classes];
        for &r in rows {
            counts[self.labels[r]] += 1;
        }
        let (parent_cost, majority) = node_cost(&counts, &self.cost);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= self.opts.max_depth || rows.len() < self.opts.min_split {
            return Node::Leaf { class: majority };
        }

        let mut bits = vec![0u64; self.labels.len().div_ceil(64)];
        for &r in rows {
            bits[r / 64] |= 1 << (r % 64);
        }
        let num_columns = self.columns.len();
        let memo = self
            .memo
            .entry(bits.into_boxed_slice())
            .or_insert_with(|| vec![None; num_columns]);
        // Best split so far: (cost, feature, threshold), the first minimum
        // in feature order.
        let mut best: Option<(f64, usize, f64)> = None;
        for (f, &c) in features.iter().enumerate() {
            let split = *memo[c].get_or_insert_with(|| {
                self.stats.split_scans_computed += 1;
                self.sweep.best_split(
                    &self.columns[c],
                    &self.labels,
                    rows,
                    &counts,
                    &self.cost,
                    &self.opts,
                )
            });
            if let Some(s) = split {
                if best.is_none_or(|(b, _, _)| s.cost < b) {
                    best = Some((s.cost, f, s.threshold));
                }
            }
        }
        self.stats.split_scans += features.len();

        match best {
            Some((split_cost, feature, threshold)) if split_cost < parent_cost - 1e-12 => {
                let column = &self.columns[features[feature]];
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&r| column[r] <= threshold);
                let left = self.grow(features, &left_rows, depth + 1);
                let right = self.grow(features, &right_rows, depth + 1);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
            _ => Node::Leaf { class: majority },
        }
    }
}

impl Sweep {
    /// The lowest-cost split of `rows` on `column` (the first on ties), or
    /// `None` when no candidate threshold leaves `min_leaf` rows per side.
    /// `counts` are the rows' class counts.
    fn best_split(
        &mut self,
        column: &[f64],
        labels: &[usize],
        rows: &[usize],
        counts: &[u32],
        cost: &[f64],
        opts: &TreeOptions,
    ) -> Option<Split> {
        self.sorted.clear();
        self.sorted
            .extend(rows.iter().map(|&r| (column[r], labels[r])));
        self.sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        self.distinct.clear();
        for &(v, _) in &self.sorted {
            if self.distinct.last() != Some(&v) {
                self.distinct.push(v);
            }
        }
        let values = &self.distinct;
        if values.len() < 2 {
            return None;
        }

        self.left.clear();
        self.left.resize(counts.len(), 0);
        self.right.clear();
        self.right.resize(counts.len(), 0);
        let mut left_n = 0;
        let mut best: Option<Split> = None;
        // Quantile-spaced candidate thresholds (midpoints).
        let step = ((values.len() - 1) as f64 / opts.max_thresholds as f64).max(1.0);
        let mut t = 0.0;
        while (t as usize) < values.len() - 1 {
            let v = t as usize;
            let threshold = (values[v] + values[v + 1]) / 2.0;
            t += step;

            while left_n < self.sorted.len() && self.sorted[left_n].0 <= threshold {
                self.left[self.sorted[left_n].1] += 1;
                left_n += 1;
            }
            let right_n = rows.len() - left_n;
            if left_n < opts.min_leaf || right_n < opts.min_leaf {
                continue;
            }
            for ((r, &n), &l) in self.right.iter_mut().zip(counts).zip(&self.left) {
                *r = n - l;
            }
            let split_cost = node_cost(&self.left, cost).0 + node_cost(&self.right, cost).0;
            if best.is_none_or(|b| split_cost < b.cost) {
                best = Some(Split {
                    cost: split_cost,
                    threshold,
                });
            }
        }
        best
    }
}

/// Expected cost of the best single prediction for a node with these class
/// counts, plus that prediction, under the transposed flat cost matrix.
/// Gini impurity is blended in at 1e-6 weight to break ties.
fn node_cost(counts: &[u32], cost: &[f64]) -> (f64, usize) {
    let total: u32 = counts.iter().sum();
    let mut best = (f64::INFINITY, 0usize);
    for (j, predict_j) in cost.chunks_exact(counts.len()).enumerate() {
        let c: f64 = counts
            .iter()
            .zip(predict_j)
            .map(|(&n, c)| f64::from(n) * c)
            .sum();
        if c < best.0 {
            best = (c, j);
        }
    }
    if total > 0 {
        let total = f64::from(total);
        let gini: f64 = 1.0
            - counts
                .iter()
                .map(|&n| {
                    let p = f64::from(n) / total;
                    p * p
                })
                .sum::<f64>();
        best.0 += 1e-6 * gini * total;
    }
    best
}

impl DecisionTree {
    /// Fits a tree on `x` (rows = samples) and `labels` (`0..num_classes`),
    /// minimizing expected cost under `cost` — a `num_classes × num_classes`
    /// matrix where `cost[i][j]` is the penalty for predicting `j` on a
    /// sample labeled `i`. Pass a 0/1 matrix for plain accuracy. This is a
    /// [`TreeFamily`] of one tree.
    ///
    /// # Panics
    /// Panics if `x` is empty, row lengths differ, labels are out of range,
    /// or `cost` is not `num_classes × num_classes`.
    pub fn fit(
        x: &[Vec<f64>],
        labels: &[usize],
        num_classes: usize,
        cost: &[Vec<f64>],
        opts: TreeOptions,
    ) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree on no samples");
        assert_eq!(x.len(), labels.len(), "x/labels length mismatch");
        let num_features = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == num_features),
            "inconsistent feature dimensions"
        );
        let columns = (0..num_features)
            .map(|f| x.iter().map(|r| r[f]).collect())
            .collect();
        let features: Vec<usize> = (0..num_features).collect();
        TreeFamily::new(columns, labels.to_vec(), num_classes, cost, opts).fit(&features)
    }

    /// Convenience: fit with the 0/1 cost matrix (plain misclassification).
    pub fn fit_plain(
        x: &[Vec<f64>],
        labels: &[usize],
        num_classes: usize,
        opts: TreeOptions,
    ) -> Self {
        let cost: Vec<Vec<f64>> = (0..num_classes)
            .map(|i| {
                (0..num_classes)
                    .map(|j| if i == j { 0.0 } else { 1.0 })
                    .collect()
            })
            .collect();
        Self::fit(x, labels, num_classes, &cost, opts)
    }

    /// Predicts the class of one sample.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the training dimensionality.
    pub fn predict(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.num_features, "dimension mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Compiles the tree into the array-indexed
    /// [`FlatTree`](crate::FlatTree) layout for hot-path inference;
    /// predictions are bit-identical to [`DecisionTree::predict`].
    pub fn flatten(&self) -> crate::FlatTree {
        crate::FlatTree::build(self, self.num_classes, self.num_features)
    }

    /// Root access for the flattener (layout-only consumer).
    pub(crate) fn root_for_flatten(&self) -> &Node {
        &self.root
    }

    /// Number of classes the tree was trained with.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of input features the tree expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of leaves (model-complexity diagnostic).
    pub fn num_leaves(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => walk(left) + walk(right),
            }
        }
        walk(&self.root)
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The split search before the sweep: it walks every row of the node
    /// at every candidate threshold. Kept verbatim as the oracle the
    /// induction core must match bit for bit.
    struct Rescan;

    impl Rescan {
        fn fit(
            x: &[Vec<f64>],
            labels: &[usize],
            num_classes: usize,
            cost: &[Vec<f64>],
            opts: TreeOptions,
        ) -> Node {
            let idx: Vec<usize> = (0..x.len()).collect();
            Self::build(x, labels, num_classes, cost, &idx, 0, &opts)
        }

        fn class_counts(labels: &[usize], idx: &[usize], num_classes: usize) -> Vec<f64> {
            let mut counts = vec![0.0; num_classes];
            for &i in idx {
                counts[labels[i]] += 1.0;
            }
            counts
        }

        /// Expected cost of the best single prediction for a node, plus that
        /// prediction. Gini impurity is blended in at 1e-6 weight to break ties.
        // `j` walks prediction columns of the cost matrix; the index is the point.
        #[allow(clippy::needless_range_loop)]
        fn node_cost(counts: &[f64], cost: &[Vec<f64>]) -> (f64, usize) {
            let total: f64 = counts.iter().sum();
            let mut best = (f64::INFINITY, 0usize);
            for j in 0..counts.len() {
                let c: f64 = counts.iter().enumerate().map(|(i, n)| n * cost[i][j]).sum();
                if c < best.0 {
                    best = (c, j);
                }
            }
            if total > 0.0 {
                let gini: f64 = 1.0
                    - counts
                        .iter()
                        .map(|n| {
                            let p = n / total;
                            p * p
                        })
                        .sum::<f64>();
                best.0 += 1e-6 * gini * total;
            }
            best
        }

        fn build(
            x: &[Vec<f64>],
            labels: &[usize],
            num_classes: usize,
            cost: &[Vec<f64>],
            idx: &[usize],
            depth: usize,
            opts: &TreeOptions,
        ) -> Node {
            let counts = Self::class_counts(labels, idx, num_classes);
            let (parent_cost, majority) = Self::node_cost(&counts, cost);
            let pure = counts.iter().filter(|&&c| c > 0.0).count() <= 1;
            if pure || depth >= opts.max_depth || idx.len() < opts.min_split {
                return Node::Leaf { class: majority };
            }

            let num_features = x[0].len();
            // Best split so far: (cost, feature, threshold). `f` below is a
            // column index into every row of `x`, not into one slice.
            let mut best: Option<(f64, usize, f64)> = None;
            #[allow(clippy::needless_range_loop)]
            for f in 0..num_features {
                let mut values: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
                values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                values.dedup();
                if values.len() < 2 {
                    continue;
                }
                // Quantile-spaced candidate thresholds (midpoints).
                let step = ((values.len() - 1) as f64 / opts.max_thresholds as f64).max(1.0);
                let mut t = 0.0;
                while (t as usize) < values.len() - 1 {
                    let v = t as usize;
                    let threshold = (values[v] + values[v + 1]) / 2.0;
                    t += step;

                    let mut left_counts = vec![0.0; num_classes];
                    let mut right_counts = vec![0.0; num_classes];
                    let mut left_n = 0usize;
                    for &i in idx {
                        if x[i][f] <= threshold {
                            left_counts[labels[i]] += 1.0;
                            left_n += 1;
                        } else {
                            right_counts[labels[i]] += 1.0;
                        }
                    }
                    let right_n = idx.len() - left_n;
                    if left_n < opts.min_leaf || right_n < opts.min_leaf {
                        continue;
                    }
                    let (lc, _) = Self::node_cost(&left_counts, cost);
                    let (rc, _) = Self::node_cost(&right_counts, cost);
                    let split_cost = lc + rc;
                    if best.is_none_or(|(b, _, _)| split_cost < b) {
                        best = Some((split_cost, f, threshold));
                    }
                }
            }

            match best {
                Some((split_cost, feature, threshold)) if split_cost < parent_cost - 1e-12 => {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                        idx.iter().partition(|&&i| x[i][feature] <= threshold);
                    let left =
                        Self::build(x, labels, num_classes, cost, &left_idx, depth + 1, opts);
                    let right =
                        Self::build(x, labels, num_classes, cost, &right_idx, depth + 1, opts);
                    Node::Split {
                        feature,
                        threshold,
                        left: Box::new(left),
                        right: Box::new(right),
                    }
                }
                _ => Node::Leaf { class: majority },
            }
        }
    }

    /// Two clearly separable classes on feature 0.
    fn separable() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f64;
            x.push(vec![v, (i % 7) as f64]);
            y.push(if v < 20.0 { 0 } else { 1 });
        }
        (x, y)
    }

    #[test]
    fn learns_separable_data_perfectly() {
        let (x, y) = separable();
        let t = DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default());
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(t.predict(row), label);
        }
        assert!(t.depth() >= 1);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let t = DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default());
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.predict(&[99.0]), 1);
    }

    #[test]
    fn max_depth_zero_gives_majority_stump() {
        let (x, y) = separable();
        let t = DecisionTree::fit_plain(
            &x,
            &y,
            2,
            TreeOptions {
                max_depth: 0,
                ..TreeOptions::default()
            },
        );
        assert_eq!(t.num_leaves(), 1);
    }

    #[test]
    fn cost_matrix_biases_leaf_prediction() {
        // 70% class 0, 30% class 1 — but predicting 0 on a true 1 is 10x
        // worse than the reverse, so the cost-optimal stump predicts 1.
        let x: Vec<Vec<f64>> = (0..10).map(|_| vec![0.0]).collect();
        let y = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 1];
        let cost = vec![vec![0.0, 1.0], vec![10.0, 0.0]];
        let t = DecisionTree::fit(
            &x,
            &y,
            2,
            &cost,
            TreeOptions {
                max_depth: 0,
                ..TreeOptions::default()
            },
        );
        assert_eq!(t.predict(&[0.0]), 1);
    }

    #[test]
    fn irrelevant_feature_ignored() {
        // Feature 1 is constant; the split must be on feature 0.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 5.0]).collect();
        let y: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let t = DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default());
        assert_eq!(t.predict(&[3.0, 5.0]), 0);
        assert_eq!(t.predict(&[15.0, 5.0]), 1);
    }

    #[test]
    fn multiclass_checkerboard() {
        // Four quadrants, four classes.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                x.push(vec![i as f64, j as f64]);
                y.push(usize::from(i >= 6) * 2 + usize::from(j >= 6));
            }
        }
        let t = DecisionTree::fit_plain(&x, &y, 4, TreeOptions::default());
        let errors = x
            .iter()
            .zip(&y)
            .filter(|(row, &l)| t.predict(row) != l)
            .count();
        assert_eq!(errors, 0);
        assert!(t.num_leaves() >= 4);
    }

    #[test]
    fn min_leaf_respected() {
        let (x, y) = separable();
        let t = DecisionTree::fit_plain(
            &x,
            &y,
            2,
            TreeOptions {
                min_leaf: 40, // cannot split without starving a side
                ..TreeOptions::default()
            },
        );
        assert_eq!(t.num_leaves(), 1);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = DecisionTree::fit_plain(&[vec![0.0]], &[5], 2, TreeOptions::default());
    }

    #[test]
    fn family_answers_shared_scans_from_the_memo() {
        let (x, y) = separable();
        let columns = vec![
            x.iter().map(|r| r[0]).collect(),
            x.iter().map(|r| r[1]).collect(),
        ];
        let mut family = TreeFamily::new(
            columns,
            y.clone(),
            2,
            &[vec![0.0, 1.0], vec![1.0, 0.0]],
            TreeOptions::default(),
        );
        let both = family.fit(&[0, 1]);
        let after_one = family.stats();
        assert_eq!(after_one.split_scans, after_one.split_scans_computed);
        // Same rows, same columns in another order: every scan is a hit.
        let swapped = family.fit(&[1, 0]);
        let after_two = family.stats();
        assert_eq!(after_two.trees_fitted, 2);
        assert_eq!(after_two.split_scans, 2 * after_one.split_scans);
        assert_eq!(
            after_two.split_scans_computed,
            after_one.split_scans_computed
        );
        assert_eq!(
            both,
            DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default())
        );
        for row in &x {
            assert_eq!(swapped.predict(&[row[1], row[0]]), both.predict(row));
        }
    }

    /// Whether two trees have the same shape, split features, threshold
    /// bits and leaf classes.
    fn same_tree(a: &Node, b: &Node) -> bool {
        match (a, b) {
            (Node::Leaf { class: x }, Node::Leaf { class: y }) => x == y,
            (
                Node::Split {
                    feature: fa,
                    threshold: ta,
                    left: la,
                    right: ra,
                },
                Node::Split {
                    feature: fb,
                    threshold: tb,
                    left: lb,
                    right: rb,
                },
            ) => fa == fb && ta.to_bits() == tb.to_bits() && same_tree(la, lb) && same_tree(ra, rb),
            _ => false,
        }
    }

    /// A random finite column: a constant, repeated small integers, signed
    /// zeros, values whose midpoints overflow, runs of adjacent floats
    /// (whose midpoints round to either neighbour), or uniform values.
    fn random_column(rng: &mut StdRng, n: usize) -> Vec<f64> {
        const EDGES: [f64; 7] = [
            f64::MAX,
            -f64::MAX,
            f64::MAX / 3.0,
            1e308,
            -1e308,
            f64::MIN_POSITIVE,
            -5e-324,
        ];
        match rng.gen_range(0..6) {
            0 => vec![[0.0, -0.0, 3.5, -1e300][rng.gen_range(0..4usize)]; n],
            1 => (0..n).map(|_| rng.gen_range(-3i64..4) as f64).collect(),
            2 => (0..n)
                .map(|_| [0.0, -0.0, 1.0, -1.0][rng.gen_range(0..4usize)])
                .collect(),
            3 => (0..n)
                .map(|_| EDGES[rng.gen_range(0..EDGES.len())])
                .collect(),
            4 => {
                let base: f64 = rng.gen_range(-4.0..4.0);
                (0..n)
                    .map(|_| f64::from_bits(base.to_bits() + rng.gen_range(0u64..6)))
                    .collect()
            }
            _ => (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sweep and the memo grow exactly the trees the rescan grows:
        /// one tree alone, and every tree of a family over shared columns.
        #[test]
        fn induction_matches_the_rescan(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..80usize);
            let d = rng.gen_range(1..5usize);
            let k = rng.gen_range(2..13usize);
            let columns: Vec<Vec<f64>> = (0..d).map(|_| random_column(&mut rng, n)).collect();
            let used = rng.gen_range(1..=k);
            let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..used)).collect();
            let cost: Vec<Vec<f64>> = (0..k)
                .map(|_| {
                    (0..k)
                        .map(|_| match rng.gen_range(0..4) {
                            0 => 0.0,
                            1 => rng.gen_range(0i64..4) as f64,
                            _ => rng.gen_range(0.0..10.0),
                        })
                        .collect()
                })
                .collect();
            let opts = TreeOptions {
                max_depth: rng.gen_range(0..10),
                min_split: rng.gen_range(0..8),
                min_leaf: rng.gen_range(0..5),
                max_thresholds: rng.gen_range(0..40),
            };
            let x: Vec<Vec<f64>> = (0..n)
                .map(|r| columns.iter().map(|c| c[r]).collect())
                .collect();

            let tree = DecisionTree::fit(&x, &labels, k, &cost, opts);
            let oracle = Rescan::fit(&x, &labels, k, &cost, opts);
            prop_assert!(
                same_tree(&tree.root, &oracle),
                "seed {seed}: {:?} vs {oracle:?}",
                tree.root
            );

            let mut family = TreeFamily::new(columns, labels.clone(), k, &cost, opts);
            for _ in 0..6 {
                let mut subset: Vec<usize> = (0..d).filter(|_| rng.gen_bool(0.6)).collect();
                subset.shuffle(&mut rng);
                let sub_x: Vec<Vec<f64>> = x
                    .iter()
                    .map(|row| subset.iter().map(|&c| row[c]).collect())
                    .collect();
                let tree = family.fit(&subset);
                let oracle = Rescan::fit(&sub_x, &labels, k, &cost, opts);
                prop_assert!(
                    same_tree(&tree.root, &oracle),
                    "seed {seed}, columns {subset:?}: {:?} vs {oracle:?}",
                    tree.root
                );
            }
            let stats = family.stats();
            prop_assert!(stats.split_scans_computed <= stats.split_scans);
        }
    }
}
