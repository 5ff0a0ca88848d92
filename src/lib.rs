//! Facade crate for the AmLight INT-based automated DDoS detection
//! reproduction. Re-exports every workspace crate under one roof so
//! examples and downstream users can depend on a single crate.
//!
//! The system reproduces *"Leveraging In-band Network Telemetry for
//! Automated DDoS Detection in Production Programmable Networks: The
//! AmLight Use Case"* (SC 2024 INDIS). See `DESIGN.md` for the full
//! inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```
//! use amlight::prelude::*;
//!
//! // Build the paper's Fig. 6 testbed, replay a short mixed workload,
//! // and collect INT telemetry reports.
//! let mut lab = Testbed::new(TestbedConfig::default());
//! let reports = lab.replay_quick(42);
//! assert!(!reports.is_empty());
//! ```

// Compiler-enforced arm of amlint rule R5: unsafe stays in shims/.
#![forbid(unsafe_code)]

pub use amlight_core as core;
pub use amlight_features as features;
pub use amlight_ingest as ingest;
pub use amlight_int as int;
pub use amlight_ml as ml;
pub use amlight_net as net;
pub use amlight_pint as pint;
pub use amlight_sflow as sflow;
pub use amlight_sim as sim;
pub use amlight_traffic as traffic;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use amlight_core::{
        db::FlowDatabase,
        event::{
            pint_view, sample_reports, LabeledEvent, Telemetry, TelemetryBackend, TelemetryEvent,
            ViewOptions,
        },
        guard::{FloodAlert, GuardConfig, NewFlowGuard},
        pipeline::{DetectionPipeline, PipelineConfig, PipelineReport},
        runtime::ThreadedPipeline,
        source::{EventSource, ReplaySource},
        testbed::{Testbed, TestbedConfig},
        trainer::{
            dataset_from_events, dataset_from_labeled, train_bundle, ModelBundle, TrainerConfig,
        },
        verdict::{RecallCounts, SmoothingWindow, Verdict},
    };
    pub use amlight_features::{
        FeatureSet, FeatureVector, FlowTable, FlowTableConfig, PrefilterMode, TriageConfig,
        TriageStage, TriageVerdict,
    };
    pub use amlight_ingest::{IngestServer, IngestStats, ListenerConfig, WireProtocol};
    pub use amlight_int::{
        BudgetedTelemetry, IntCollector, MicroburstConfig, MicroburstDetector, TelemetryBudget,
        TelemetryReport,
    };
    pub use amlight_ml::{
        ensemble::MajorityEnsemble,
        gbt::{GbtConfig, GradientBoost},
        metrics::{BinaryMetrics, ConfusionMatrix},
        model::BinaryClassifier,
        roc::RocCurve,
        scaler::StandardScaler,
    };
    pub use amlight_net::{FlowKey, Packet, Protocol};
    pub use amlight_pint::{PintCollector, PintEncoder, PintReport, PintSketch, SketchConfig};
    pub use amlight_sflow::{SamplingMode, SflowAgent, SflowCollector};
    pub use amlight_sim::{clock::TelemetryClock, topology::Topology};
    pub use amlight_traffic::{
        schedule::{AttackKind, Episode, EpisodeSchedule},
        TrafficMix,
    };
}
