//! The automated INT-based DDoS detection mechanism — the paper's
//! primary contribution (§III, Fig. 2).
//!
//! Four modules cooperate around a flow database:
//!
//! ```text
//!  INT sink ──(1)──▶ [INT Data Collection] ──(2)──▶ [Data Processor]
//!                                                      │  ▲ (7,8)
//!                                                 (3)  ▼  │
//!                                                  [ Database ]
//!                                                      │  ▲ (6)
//!                                                 (4)  ▼  │
//!                                                  [CentralServer] ⇄ [Prediction]
//!                                                              (5)
//! ```
//!
//! * **INT Data Collection** reads telemetry reports from the collector.
//! * **Data Processor** maintains the flow table, writes one record per
//!   flow to the database, and aggregates returned model votes into a
//!   final verdict with a *prediction latency* stamp.
//! * **CentralServer** polls the database for **updated** records (new
//!   flows are skipped until their first update) and shuttles feature
//!   vectors to Prediction and votes back.
//! * **Prediction** standardizes features with the pre-fitted scaler and
//!   runs the pre-trained models (MLP + RF + GNB on the testbed).
//!
//! Robustness mechanisms from §IV-C.4 are faithfully implemented:
//! 2-of-3 **ensemble voting** across models, then a **3-prediction
//! smoothing window** (2 of the last 3) per flow.
//!
//! Two drivers are provided: [`pipeline::DetectionPipeline::run_sync`]
//! is a deterministic virtual-time driver with an explicit queueing model
//! of prediction service (so the paper's Table VI latency *shape* is
//! reproducible), and [`runtime::ThreadedPipeline`] runs the four modules
//! as real threads over crossbeam channels.

pub mod db;
pub mod drift;
pub mod epoch;
pub mod event;
pub mod guard;
pub mod mailbox;
pub mod modules;
pub mod pipeline;
pub mod runtime;
pub mod source;
pub mod testbed;
pub mod trainer;
pub mod verdict;

pub use amlight_ml::{BundleMeta, MetaError, BUNDLE_SCHEMA_VERSION};
pub use db::{FlowDatabase, PredictionRecord};
pub use drift::{DriftConfig, DriftDetector};
pub use epoch::{EpochHandle, PublishError, VersionedBundle};
pub use event::{
    pint_view, sample_reports, LabeledEvent, Telemetry, TelemetryBackend, TelemetryEvent,
    ViewOptions,
};
pub use guard::{FloodAlert, GuardConfig, NewFlowGuard};
pub use mailbox::EventMailbox;
pub use modules::{
    Aggregator, Clock, Ingest, JudgedUpdate, LaneBatch, Predictor, Processor, VirtualClock,
    WallClock,
};
pub use pipeline::{DetectionPipeline, PipelineConfig, PipelineReport};
pub use runtime::{AdaptConfig, AdaptStats, RunHandle, RuntimeError, ThreadedPipeline};
pub use source::{
    BatchPoll, ChannelSource, CollectorSource, EventSource, IterSource, ReplaySource, SocketSource,
    SourcePoll,
};
pub use testbed::{Testbed, TestbedConfig};
pub use trainer::{train_bundle, ModelBundle, TrainerConfig, VoteScratch};
pub use verdict::{RecallCounts, SmoothingWindow, Verdict, VerdictCounts};
