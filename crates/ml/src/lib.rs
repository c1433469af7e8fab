//! # intune-ml
//!
//! A from-scratch machine-learning substrate for the two-level input
//! learning pipeline. The paper's learner needs exactly these pieces:
//!
//! * [`kmeans`] — K-means++ clustering of normalized input feature vectors
//!   (Level 1, Step 2 "Input Clustering").
//! * [`normalize`] — z-score normalization ("we first normalize the input
//!   feature vectors to avoid biases imposed by the different value scales").
//! * [`decision_tree`] — cost-sensitive CART decision trees, the learner
//!   behind the Exhaustive Feature Subsets classifiers (paper cites Quinlan).
//! * [`naive_bayes`] — discretized per-class likelihoods powering the
//!   Incremental Feature Examination classifier's posteriors (Eq. 1).
//! * [`crossval`] — 10-fold cross validation used to select among per-subset
//!   trees.
//! * [`pca`] — principal component analysis, included to reproduce the
//!   paper's observation that unsupervised feature selection does *not*
//!   close the mapping-disparity gap.
//! * [`stats`] — summary statistics shared by everything above.
//!
//! All algorithms are deterministic given their seed parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossval;
pub mod decision_tree;
pub mod flat_tree;
pub mod kmeans;
pub mod naive_bayes;
pub mod normalize;
pub mod pca;
pub mod stats;

pub use crossval::KFold;
pub use decision_tree::{DecisionTree, InductionStats, TreeFamily, TreeOptions};
pub use flat_tree::FlatTree;
pub use kmeans::{KMeans, KMeansOptions};
pub use naive_bayes::{IncrementalPosterior, NaiveBayes};
pub use normalize::ZScore;
pub use pca::Pca;
