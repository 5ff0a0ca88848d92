//! Experiment harness: everything needed to regenerate the paper's
//! tables and figures.
//!
//! The `repro` binary (`src/bin/repro/`) is the one entry point:
//! `repro <target>... [--fast] [--seed N]` runs any of the paper's
//! tables and figures over the functions here, plus the ablations,
//! studies, quality gates and the detection microbenchmark. See DESIGN.md
//! §4 for the experiment index and EXPERIMENTS.md for recorded results.

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
