//! Array-indexed decision-tree inference.
//!
//! A fitted [`DecisionTree`] stores its nodes as a
//! boxed recursive enum — ideal for induction and serialization, terrible
//! for the serving hot path, where every split dereferences a fresh heap
//! pointer. [`FlatTree`] re-packs the same tree into a contiguous
//! pre-order node array at load time: the left child of any split is the
//! next array element, so a prediction is a tight index-chasing loop over
//! one cache-friendly buffer with a single stored index per node.
//!
//! Flattening changes *layout only*. The comparison (`row[feature] <=
//! threshold`), traversal order, and therefore every prediction are
//! bit-identical to the boxed tree — the artifact serialization format is
//! untouched (flat trees are built in memory, never persisted).

use crate::decision_tree::DecisionTree;

/// Sentinel feature index marking a leaf node; real feature indices are
/// bounded by the training dimensionality, far below this.
const LEAF: u32 = u32::MAX;

/// One packed node. For splits, the left child is implicitly the next
/// array index and `right` holds the right child's index; for leaves
/// (`feature == LEAF`), `right` holds the predicted class.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    feature: u32,
    right: u32,
    threshold: f64,
}

/// A [`DecisionTree`] compiled to a pre-order node
/// array for allocation-free, pointer-chase-free prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree {
    nodes: Vec<FlatNode>,
    num_classes: usize,
    num_features: usize,
}

impl FlatTree {
    pub(crate) fn build(tree: &DecisionTree, num_classes: usize, num_features: usize) -> Self {
        let mut nodes = Vec::with_capacity(2 * tree.num_leaves());
        Self::emit(tree.root_for_flatten(), &mut nodes);
        FlatTree {
            nodes,
            num_classes,
            num_features,
        }
    }

    fn emit(node: &crate::decision_tree::Node, nodes: &mut Vec<FlatNode>) -> u32 {
        use crate::decision_tree::Node;
        let idx = nodes.len() as u32;
        match node {
            Node::Leaf { class } => nodes.push(FlatNode {
                feature: LEAF,
                right: *class as u32,
                threshold: 0.0,
            }),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                nodes.push(FlatNode {
                    feature: *feature as u32,
                    right: 0, // patched after the right subtree is emitted
                    threshold: *threshold,
                });
                let left_idx = Self::emit(left, nodes);
                debug_assert_eq!(left_idx, idx + 1, "left child is pre-order adjacent");
                let right_idx = Self::emit(right, nodes);
                nodes[idx as usize].right = right_idx;
            }
        }
        idx
    }

    /// Predicts the class of one sample; identical to
    /// [`DecisionTree::predict`] on the source tree.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the training dimensionality.
    pub fn predict(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.num_features, "dimension mismatch");
        self.predict_with(|f| row[f])
    }

    /// Predicts with an indexed value accessor, letting callers feed
    /// feature values straight out of their own storage (e.g. a sample
    /// buffer) without materializing a dense row first. `value(f)` must
    /// be defined for every `f < num_features`.
    pub fn predict_with(&self, mut value: impl FnMut(usize) -> f64) -> usize {
        let mut i = 0usize;
        loop {
            let n = self.nodes[i];
            if n.feature == LEAF {
                return n.right as usize;
            }
            i = if value(n.feature as usize) <= n.threshold {
                i + 1
            } else {
                n.right as usize
            };
        }
    }

    /// Number of classes the source tree was trained with.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of input features the tree expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Total packed nodes (splits + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::{DecisionTree, TreeOptions};

    /// Deterministic pseudo-random stream (no external RNG in unit tests).
    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64) / ((1u64 << 31) as f64)
    }

    fn random_problem(seed: u64, n: usize, d: usize, k: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut s = seed;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| lcg(&mut s) * 10.0).collect())
            .collect();
        let y: Vec<usize> = x
            .iter()
            .map(|row| {
                let score: f64 = row
                    .iter()
                    .enumerate()
                    .map(|(j, v)| v * (j + 1) as f64)
                    .sum();
                (score as usize / 7) % k
            })
            .collect();
        (x, y)
    }

    #[test]
    fn flat_predictions_match_boxed_tree_exactly() {
        for seed in 0..5u64 {
            let (x, y) = random_problem(seed + 1, 120, 3, 4);
            let tree = DecisionTree::fit_plain(&x, &y, 4, TreeOptions::default());
            let flat = tree.flatten();
            assert_eq!(flat.num_classes(), tree.num_classes());
            assert_eq!(flat.num_features(), tree.num_features());
            // Training rows, plus off-manifold probes (including the exact
            // thresholds' neighborhoods via scaled rows).
            let mut s = seed + 99;
            for row in x.iter() {
                assert_eq!(flat.predict(row), tree.predict(row));
            }
            for _ in 0..500 {
                let probe: Vec<f64> = (0..3).map(|_| lcg(&mut s) * 12.0 - 1.0).collect();
                assert_eq!(flat.predict(&probe), tree.predict(&probe));
            }
        }
    }

    #[test]
    fn flat_node_count_matches_tree_shape() {
        let (x, y) = random_problem(7, 80, 2, 3);
        let tree = DecisionTree::fit_plain(&x, &y, 3, TreeOptions::default());
        let flat = tree.flatten();
        // A binary tree with L leaves has exactly 2L - 1 nodes.
        assert_eq!(flat.num_nodes(), 2 * tree.num_leaves() - 1);
    }

    #[test]
    fn stump_flattens_to_single_leaf() {
        let tree =
            DecisionTree::fit_plain(&[vec![1.0], vec![2.0]], &[1, 1], 2, TreeOptions::default());
        let flat = tree.flatten();
        assert_eq!(flat.num_nodes(), 1);
        assert_eq!(flat.predict(&[123.0]), 1);
    }

    #[test]
    fn predict_with_reads_by_feature_index() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 5.0]).collect();
        let y: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let flat = DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default()).flatten();
        assert_eq!(flat.predict_with(|f| [3.0, 5.0][f]), 0);
        assert_eq!(flat.predict_with(|f| [15.0, 5.0][f]), 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn predict_checks_dimensions() {
        let flat = DecisionTree::fit_plain(&[vec![0.0]], &[0], 1, TreeOptions::default()).flatten();
        let _ = flat.predict(&[1.0, 2.0]);
    }
}
