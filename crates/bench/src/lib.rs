//! Experiment harness: everything needed to regenerate the paper's
//! tables and figures.
//!
//! Each `repro_*` binary in `src/bin/` is a thin wrapper over a function
//! here; the one Criterion bench lives in `benches/`. See DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for recorded results.

// Compiler-enforced arm of amlint rule R5: unsafe stays in shims/.
#![forbid(unsafe_code)]

pub mod capture;
pub mod figures;
pub mod tables;
pub mod util;

pub use capture::{ExperimentCapture, ExperimentConfig};
pub use figures::{fig3_4_confusions, fig5_timeline, fig7_distributions};
pub use tables::{
    table1_schedule, table2_features, table3_comparison, table4_zero_day, table5_importance,
    table6_automated, MetricsRow, Table6Row,
};
