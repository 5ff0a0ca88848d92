//! From-scratch machine learning for the DDoS detection pipeline.
//!
//! Implements the paper's four model families with the stated
//! hyperparameters:
//!
//! * **Random Forest** (Gini CART trees, bootstrap + feature subsampling,
//!   trained in parallel with rayon),
//! * **Gaussian Naive Bayes**,
//! * **K-Nearest Neighbors** (brute force; the paper subsamples to 1/1000
//!   for tractability — so do our experiment harnesses),
//! * **MLP / shallow neural network** (ReLU hidden layers, sigmoid
//!   output, Adam; 32-16-8 for the "NN" of §IV-B and 64-32-16 for the
//!   "MLP" of §IV-C).
//!
//! Plus the supporting cast: standard scaler, train/test split, binary
//! metrics and confusion matrices, impurity- and permutation-based
//! feature importances, and the 2-of-3 majority ensemble of §IV-C.4.
//!
//! Everything is deterministic given a seed.

pub mod crossval;
pub mod dataset;
pub mod ensemble;
pub mod error;
pub mod gbt;
pub mod gnb;
pub mod importance;
pub mod knn;
pub mod meta;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod roc;
pub mod scaler;
pub mod tree;

pub use crossval::{cross_validate, kfold_indices, CvReport};
pub use dataset::Dataset;
pub use ensemble::MajorityEnsemble;
pub use error::MlError;
pub use gbt::{GbtConfig, GradientBoost};
pub use gnb::GaussianNb;
pub use importance::{permutation_importance, top_k_features};
pub use knn::Knn;
pub use meta::{BundleMeta, MetaError, BUNDLE_SCHEMA_VERSION};
pub use metrics::{BinaryMetrics, ConfusionMatrix};
pub use mlp::{Mlp, MlpConfig};
pub use model::{decide, BinaryClassifier};
pub use roc::{RocCurve, RocPoint};
pub use scaler::StandardScaler;
pub use tree::{DecisionTree, RandomForest, RandomForestConfig, TreeConfig};
