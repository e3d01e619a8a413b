//! # aligraph-eval
//!
//! The evaluation harness of the AliGraph reproduction (paper §5.2.1):
//! link-prediction train/test splits and the four metrics the paper reports
//! — ROC-AUC, PR-AUC, F1-score, and hit recall rate (HR@k) — plus
//! micro/macro F1 for the multi-class dynamic-graph experiment (Table 11).
//! "Each metric is averaged among different types of edges."

pub mod metrics;
pub mod split;

pub use metrics::{best_f1, hit_rate_at_k, macro_f1, micro_f1, pr_auc, roc_auc, LinkMetrics};
pub use split::{link_prediction_split, HeldOutEdge, LinkSplit};
