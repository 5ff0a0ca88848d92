//! Flow table and streaming feature extraction — the paper's *Data
//! Processor* module (§III-2).
//!
//! Per incoming telemetry record the processor:
//!
//! 1. looks the five-tuple *Flow ID* up in the flow table;
//! 2. creates a fresh record (defaults ≈ 0) or updates the existing one:
//!    packet-level fields are **replaced**, flow-level aggregates
//!    (counters, cumulative sums, streaming mean/std) are **updated**;
//! 3. emits the feature vector the ML models consume.
//!
//! The crate is backend-blind: every telemetry system lowers its events
//! into the normalized [`FlowUpdate`] and the table has exactly one
//! ingest path, [`FlowTable::apply`]. Which of the 15 canonical columns
//! (paper §IV-C.3) a backend can populate is a [`FeatureSet`] bitmask
//! descriptor — the full INT projection, the queue-blind sFlow subset
//! (paper Table II), or anything in between. Inter-arrival times derived
//! from wrapped 32-bit stamps (`FlowUpdate::stamp32`) inherit the 4.3 s
//! aliasing artifact the paper describes — on purpose.

pub mod reference;
pub mod sharded;
pub mod table;
pub mod triage;
pub mod vector;

pub use sharded::ShardRouter;
pub use table::{FlowRecord, FlowTable, FlowTableConfig, FlowUpdate, UpdateKind};
pub use triage::{
    EntropySketch, PrefilterMode, TriageConfig, TriageCounters, TriageDecision, TriageStage,
    TriageVerdict, WindowedCountMin,
};
pub use vector::{FeatureId, FeatureSet, FeatureVector};
