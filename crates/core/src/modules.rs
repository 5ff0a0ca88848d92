//! The shared Fig. 2 stage layer: one implementation of the paper's
//! module logic, used by every driver.
//!
//! Before this layer existed the dataflow was implemented twice — once
//! in the virtual-time [`crate::pipeline::DetectionPipeline`] and again,
//! with subtly diverging logic, in the wall-clock
//! [`crate::runtime::ThreadedPipeline`]. The three structs here are the
//! single source of truth for the module semantics:
//!
//! * [`Processor`] — Fig. 2's *Data Processor* ingest half plus the
//!   *CentralServer*'s update-forwarding rule: flow-table update (the
//!   one record per flow), a tally in the [`FlowDatabase`], and
//!   feature-row projection for **updated** flows only (brand-new flows
//!   are never forwarded to Prediction, §III-3).
//! * [`Predictor`] — Fig. 2's *Prediction* module: pre-fitted scaler +
//!   pre-trained ensemble, one columnar
//!   [`crate::trainer::ModelBundle::votes_batch`] call per micro-batch
//!   (GNB and the forest over every row, the MLP only where those two
//!   split — counted, never silent).
//! * [`Aggregator`] — the Data Processor's aggregation half: per-flow
//!   smoothing windows, verdict counting, and the stored
//!   [`PredictionRecord`] with its prediction-latency stamp.
//!
//! Time is abstracted behind [`Clock`] so the same stages serve both
//! drivers: [`VirtualClock`] stamps events with modeled collector time
//! (native event time plus a fixed processing delay), [`WallClock`]
//! with monotonic nanoseconds since the pipeline epoch. The telemetry
//! backend is abstracted behind [`crate::event::Telemetry`], so the
//! same [`Processor`] ingests INT reports and sFlow samples — the only
//! backend-specific step is the flow-table update dispatch.

use crate::db::{FlowDatabase, PredictionRecord};
use crate::epoch::EpochHandle;
use crate::event::Telemetry;
use crate::trainer::VoteScratch;
use crate::verdict::{RecallCounts, SmoothingWindow, Verdict, VerdictCounts};
use amlight_features::UpdateKind;
use amlight_features::{
    FeatureId, FeatureSet, FlowTable, FlowTableConfig, PrefilterMode, TriageConfig, TriageCounters,
    TriageDecision, TriageStage, TriageVerdict,
};
use amlight_net::flow::FnvHashMap;
use amlight_net::{FlowKey, TrafficClass};
use std::time::Instant;

/// The time base a [`Processor`] stamps registrations with.
///
/// Implementations must be cheap: `register_ns` sits in the per-event
/// hot path. The argument is the event's *native* timestamp
/// ([`Telemetry::event_ns`]: INT export time, sFlow observation time),
/// which is what makes the clock telemetry-generic.
pub trait Clock: Send {
    /// Registration timestamp (collector-clock ns) for an event with
    /// native timestamp `event_ns` entering the Data Processor.
    fn register_ns(&self, event_ns: u64) -> u64;
}

/// Deterministic virtual time: an event is registered a fixed processing
/// delay after its native timestamp. This is the [`DetectionPipeline`]'s
/// time base (latency then comes from its explicit queueing model).
///
/// [`DetectionPipeline`]: crate::pipeline::DetectionPipeline
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualClock {
    /// Data Processor handling cost per event, ns.
    pub processing_delay_ns: u64,
}

impl Clock for VirtualClock {
    #[inline]
    fn register_ns(&self, event_ns: u64) -> u64 {
        event_ns + self.processing_delay_ns
    }
}

/// Monotonic wall time, as nanoseconds since a shared pipeline epoch.
///
/// Every module of a [`crate::runtime::ThreadedPipeline`] run clones the
/// same epoch, so registration stamps from the processor shards and
/// prediction stamps from the aggregator are directly comparable — this
/// is what lets wall-clock [`PredictionRecord`]s carry a real
/// `predicted_ns` instead of a placeholder.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A fresh epoch; clone it into every stage of one run.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Monotonic ns elapsed since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    #[inline]
    fn register_ns(&self, _event_ns: u64) -> u64 {
        self.now_ns()
    }
}

/// A flow update the CentralServer forwards to Prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JudgedUpdate {
    pub key: FlowKey,
    /// Collector-clock registration stamp from the driver's [`Clock`].
    pub registered_ns: u64,
    /// Live flow count in this processor's table when the update was
    /// handled — the queueing model's record-scan term must use the size
    /// the CentralServer would have observed *then*.
    pub table_len: u64,
    /// Which prediction lane triage graded this update onto. Always
    /// [`TriageVerdict::Forward`] when the pre-filter is off or in
    /// shadow mode.
    pub lane: TriageVerdict,
}

/// Outcome of one report's ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// First packet of a flow: recorded, never forwarded (§III-3).
    Created { key: FlowKey, registered_ns: u64 },
    /// An existing flow's update, forwarded for prediction; its feature
    /// row was appended to the caller's row buffer.
    Judged(JudgedUpdate),
    /// An existing flow's update the triage pre-filter dropped: recorded
    /// in the database, never predicted. No feature row was appended.
    Dropped { key: FlowKey, registered_ns: u64 },
}

/// The judged updates of one prediction lane, as [`Processor::route`]
/// fills them: one channel message, and one columnar ensemble call, for
/// every update its producer had on hand in that lane.
#[derive(Debug, Default)]
pub struct LaneBatch {
    /// (flow, registration stamp ns, ground truth if the source was
    /// labeled) per judged update, in arrival order.
    pub items: Vec<(FlowKey, u64, Option<TrafficClass>)>,
    /// Row-major raw feature rows, parallel to `items`.
    pub rows: Vec<f64>,
}

impl LaneBatch {
    /// An empty batch with room for `updates` judged updates of `dim`
    /// features each, so neither buffer grows while it fills.
    pub fn with_capacity(updates: usize, dim: usize) -> Self {
        Self {
            items: Vec::with_capacity(updates),
            rows: Vec::with_capacity(updates * dim),
        }
    }
}

/// What the triage pre-filter did: the lanes a [`Processor`] actually
/// applied, plus the scorer's would-be verdicts. A threaded run sums one
/// per processor shard. With the stage off (mode `Off`) every update is
/// `forwarded` and the rest stays zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TriageStats {
    pub mode: PrefilterMode,
    /// Updates evaluated on the normal prediction lane.
    pub forwarded: u64,
    /// Updates parked on the low-priority lane (drained when idle).
    pub deferred: u64,
    /// Updates the pre-filter dropped before prediction.
    pub dropped: u64,
    /// Deferred updates shed because the low-priority lane was full —
    /// the lane's explicit overflow, counted, never silent.
    pub shed: u64,
    /// The scorer's would-be verdicts (what `on` would have done) —
    /// shadow mode's measurement output.
    pub would: TriageCounters,
}

impl TriageStats {
    /// Updates that actually reached the ensemble:
    /// forwarded plus the deferred ones that weren't shed.
    pub fn evaluated(&self) -> u64 {
        self.forwarded + self.deferred - self.shed
    }

    /// Fold another shard's tallies in; every shard of a run shares one
    /// mode.
    pub fn merge(&mut self, other: &TriageStats) {
        self.mode = other.mode;
        self.forwarded += other.forwarded;
        self.deferred += other.deferred;
        self.dropped += other.dropped;
        self.shed += other.shed;
        self.would.merge(&other.would);
    }
}

/// Fig. 2 Data Processor (ingest half) + CentralServer forwarding rule,
/// with the optional triage pre-filter between the two.
#[derive(Debug)]
pub struct Processor<C: Clock> {
    table: FlowTable,
    db: FlowDatabase,
    clock: C,
    feature_set: FeatureSet,
    triage: Option<TriageStage>,
    /// Mode and applied lanes; `would` is filled in from the stage on read.
    stats: TriageStats,
}

impl<C: Clock> Processor<C> {
    pub fn new(
        table: FlowTableConfig,
        db: FlowDatabase,
        clock: C,
        feature_set: FeatureSet,
    ) -> Self {
        Self {
            table: FlowTable::new(table),
            db,
            clock,
            feature_set,
            triage: None,
            stats: TriageStats::default(),
        }
    }

    /// Enable the triage pre-filter (`features::triage`): every ingested
    /// event feeds the sketch state; in [`PrefilterMode::On`] the verdict
    /// actually gates, in [`PrefilterMode::Shadow`] it is only counted.
    pub fn with_prefilter(mut self, mode: PrefilterMode, cfg: TriageConfig) -> Self {
        self.stats.mode = mode;
        self.triage = match mode {
            PrefilterMode::Off => None,
            _ => Some(TriageStage::new(cfg)),
        };
        self
    }

    /// Ingest one telemetry event — INT report, sFlow sample, or the
    /// unified [`crate::event::TelemetryEvent`]: lower it to the
    /// normalized [`amlight_features::FlowUpdate`] ([`Telemetry::flow_update`]),
    /// apply it to the flow table, tally the record in the database,
    /// grade the update through the optional triage stage, and — for
    /// updates that survive gating — append the projected feature row to
    /// `rows` and return the judged update (tagged with its prediction
    /// lane).
    // amlint: hot
    pub fn ingest<E: Telemetry>(&mut self, event: &E, rows: &mut Vec<f64>) -> Ingest {
        self.judge(event, rows, None)
    }

    /// [`Processor::ingest`] one event, routing a judged update onto the
    /// lane triage chose: its row is projected straight into that lane's
    /// `rows` and (key, stamp, `truth`) pushed onto its `items`.
    // amlint: hot
    pub fn route<E: Telemetry>(
        &mut self,
        event: &E,
        truth: Option<TrafficClass>,
        main: &mut LaneBatch,
        deferred: &mut LaneBatch,
    ) -> Ingest {
        let outcome = self.judge(event, &mut main.rows, Some(&mut deferred.rows));
        if let Ingest::Judged(judged) = outcome {
            let lane = match judged.lane {
                TriageVerdict::Defer => deferred,
                _ => main,
            };
            lane.items
                // amlint: cold -- LaneBatch sized for a full batch at creation
                .push((judged.key, judged.registered_ns, truth));
        }
        outcome
    }

    /// The one place the created-vs-updated forwarding decision lives,
    /// identical for every telemetry backend. A judged row goes to
    /// `deferred_rows`, if given, when triage defers it, else to `rows`.
    fn judge<E: Telemetry>(
        &mut self,
        event: &E,
        rows: &mut Vec<f64>,
        deferred_rows: Option<&mut Vec<f64>>,
    ) -> Ingest {
        let key = event.flow();
        let registered_ns = self.clock.register_ns(event.event_ns());
        let update = event.flow_update();
        let (kind, rec) = self.table.apply(&update);
        let mut features = rec.features();
        match kind {
            UpdateKind::Created => {
                // Creations still feed the sketches: the aggregate alarm
                // must see a spoofed flood's creation firehose even
                // though §III-3 never forwards first packets.
                if let Some(stage) = self.triage.as_mut() {
                    let _ = stage.assess(&update, rec);
                }
                self.db.record_created(key, features, registered_ns);
                Ingest::Created { key, registered_ns }
            }
            UpdateKind::Updated => {
                self.db
                    .record_updated(key, rec.update_seq, features, registered_ns);
                let decision = match self.triage.as_mut() {
                    Some(stage) => stage.assess(&update, rec),
                    None => TriageDecision::forward(),
                };
                let lane = match self.stats.mode {
                    // Shadow scores and counts but never gates.
                    PrefilterMode::On => decision.verdict,
                    _ => TriageVerdict::Forward,
                };
                if matches!(lane, TriageVerdict::Drop) {
                    self.stats.dropped += 1;
                    return Ingest::Dropped { key, registered_ns };
                }
                if self.feature_set.contains(FeatureId::SketchScore) {
                    features.set(FeatureId::SketchScore, decision.score);
                }
                let rows = match (lane, deferred_rows) {
                    (TriageVerdict::Defer, Some(deferred)) => deferred,
                    _ => rows,
                };
                features.project_into(self.feature_set, rows);
                match lane {
                    TriageVerdict::Defer => self.stats.deferred += 1,
                    _ => self.stats.forwarded += 1,
                }
                Ingest::Judged(JudgedUpdate {
                    key,
                    registered_ns,
                    table_len: self.table.len() as u64,
                    lane,
                })
            }
        }
    }

    /// Count `n` deferred updates the caller shed because the deferred
    /// lane was full.
    pub fn count_shed(&mut self, n: u64) {
        self.stats.shed += n;
    }

    /// Flows created by this processor so far.
    pub fn created(&self) -> u64 {
        self.table.created()
    }

    /// Live flows in this processor's table.
    pub fn flow_count(&self) -> usize {
        self.table.len()
    }

    /// The pre-filter's tallies so far: the lanes as applied and the
    /// scorer's would-be verdicts (all-zero when the stage is off).
    pub fn triage_stats(&self) -> TriageStats {
        TriageStats {
            would: self
                .triage
                .as_ref()
                .map(TriageStage::counters)
                .unwrap_or_default(),
            ..self.stats
        }
    }
}

/// Fig. 2 Prediction: scaler + MLP/RF/GNB ensemble, batched.
///
/// The predictor does not own a model copy — it reads the shared
/// [`EpochHandle`] once per batch (one wait-free atomic load), so a
/// bundle published mid-run takes effect on the next batch without the
/// predictor being rebuilt, and every batch is scored against exactly
/// one epoch.
///
/// The 2-of-3 vote exits early twice: the forest stops walking a row's
/// trees once the rest cannot change its vote, and the MLP scores only
/// the rows GNB and the forest split on. The predictor tallies the rows,
/// the escalated rows and the trees walked, because those *are* the
/// predictor's cost model — if the escalated share or the trees per row
/// climb (model drift, or traffic crafted to split the cheap members or
/// to hover at the forest's cut) the per-row cost climbs back toward
/// the full three-member pass.
#[derive(Debug)]
pub struct Predictor {
    handle: EpochHandle,
    scratch: VoteScratch,
    rows_scored: u64,
    rows_escalated: u64,
    trees_walked: u64,
}

impl Predictor {
    /// A predictor reading (a clone of) a shared epoch handle: publishes
    /// through any clone of `handle` become visible on the next batch.
    pub fn shared(handle: EpochHandle) -> Self {
        Self {
            handle,
            scratch: VoteScratch::default(),
            rows_scored: 0,
            rows_escalated: 0,
            trees_walked: 0,
        }
    }

    /// The swappable model handle this predictor reads.
    pub fn handle(&self) -> &EpochHandle {
        &self.handle
    }

    pub fn feature_set(&self) -> FeatureSet {
        self.handle.feature_set()
    }

    /// Rows this predictor has voted on so far.
    pub fn rows_scored(&self) -> u64 {
        self.rows_scored
    }

    /// How many of those needed the third member (the MLP) because GNB
    /// and the forest split.
    pub fn rows_escalated(&self) -> u64 {
        self.rows_escalated
    }

    /// Trees the forest walked over those rows: at most rows × trees,
    /// less by whatever the forest's early exit saved.
    pub fn trees_walked(&self) -> u64 {
        self.trees_walked
    }

    /// One columnar 2-of-3 ensemble pass over contiguous row-major raw
    /// feature rows; `decisions` is cleared and refilled in row order.
    /// Returns the model epoch the whole batch was scored against.
    pub fn predict(&mut self, rows: &[f64], decisions: &mut Vec<bool>) -> u64 {
        let current = self.handle.load();
        let bundle = current.bundle();
        let cost = bundle.votes_batch(rows, bundle.feature_set.dim(), &mut self.scratch, decisions);
        self.rows_scored += decisions.len() as u64;
        self.rows_escalated += cost.escalated as u64;
        self.trees_walked += cost.trees_walked;
        current.epoch()
    }
}

/// Fig. 2 Data Processor (aggregation half): smoothing + stored verdicts.
#[derive(Debug)]
pub struct Aggregator {
    db: FlowDatabase,
    windows: FnvHashMap<FlowKey, SmoothingWindow>,
    window_size: usize,
    counts: VerdictCounts,
    latency_sum_us: f64,
    latency_max_us: f64,
    /// Verdicts [`Aggregator::stage_batch`] scored against ground truth.
    labeled: RecallCounts,
    /// Labeled rows shed instead of fed to a shadow trainer.
    trainer_shed: u64,
    /// Records folded by [`Aggregator::stage`] and not yet stored.
    staged: Vec<PredictionRecord>,
}

impl Aggregator {
    pub fn new(db: FlowDatabase, window_size: usize) -> Self {
        Self {
            db,
            windows: FnvHashMap::default(),
            window_size,
            counts: VerdictCounts::default(),
            latency_sum_us: 0.0,
            latency_max_us: 0.0,
            labeled: RecallCounts::default(),
            trainer_shed: 0,
            staged: Vec::new(),
        }
    }

    /// Fold one ensemble decision into the flow's smoothing window and
    /// stage its [`PredictionRecord`] (with `predicted_ns`, the latency
    /// against `registered_ns`, and the model `epoch` that voted);
    /// returns the smoothed verdict. The record reaches the database at
    /// the next [`Aggregator::commit`] — drivers stage a voted batch and
    /// commit once, so the store lock is taken per batch, not per
    /// verdict.
    pub fn stage(
        &mut self,
        key: FlowKey,
        attack: bool,
        registered_ns: u64,
        predicted_ns: u64,
        epoch: u64,
    ) -> Verdict {
        let window = self
            .windows
            .entry(key)
            .or_insert_with(|| SmoothingWindow::new(self.window_size));
        let verdict = window.push(attack);
        self.counts.observe(verdict);
        let latency_ns = predicted_ns.saturating_sub(registered_ns);
        let lat_us = latency_ns as f64 / 1e3;
        self.latency_sum_us += lat_us;
        self.latency_max_us = self.latency_max_us.max(lat_us);
        self.staged.push(PredictionRecord {
            key,
            label: verdict.label(),
            epoch,
            predicted_ns,
            latency_ns,
        });
        verdict
    }

    /// [`Aggregator::stage`] every item of a voted lane batch, `attacks`
    /// parallel to its items, and score each labeled item's verdict
    /// against its ground truth.
    pub fn stage_batch(
        &mut self,
        batch: &LaneBatch,
        attacks: &[bool],
        predicted_ns: u64,
        epoch: u64,
    ) {
        for (&(key, registered_ns, truth), &attack) in batch.items.iter().zip(attacks) {
            let verdict = self.stage(key, attack, registered_ns, predicted_ns, epoch);
            if let Some(class) = truth {
                self.labeled.observe(class.label(), verdict);
            }
        }
    }

    /// Store everything staged since the last commit, in staging order,
    /// under one lock acquisition.
    pub fn commit(&mut self) {
        self.db.store_predictions(&mut self.staged);
    }

    /// [`Aggregator::stage`] one decision and [`Aggregator::commit`] it.
    pub fn aggregate(
        &mut self,
        key: FlowKey,
        attack: bool,
        registered_ns: u64,
        predicted_ns: u64,
        epoch: u64,
    ) -> Verdict {
        let verdict = self.stage(key, attack, registered_ns, predicted_ns, epoch);
        self.commit();
        verdict
    }

    /// Verdict tallies so far.
    pub fn counts(&self) -> VerdictCounts {
        self.counts
    }

    pub fn mean_latency_us(&self) -> f64 {
        if self.counts.predictions == 0 {
            0.0
        } else {
            self.latency_sum_us / self.counts.predictions as f64
        }
    }

    pub fn max_latency_us(&self) -> f64 {
        self.latency_max_us
    }

    /// Ground-truth tallies of the verdicts [`Aggregator::stage_batch`]
    /// staged (all-zero for an unlabeled stream).
    pub fn labeled(&self) -> RecallCounts {
        self.labeled
    }

    /// Count `rows` labeled rows shed instead of fed to a shadow trainer.
    pub fn count_trainer_shed(&mut self, rows: u64) {
        self.trainer_shed += rows;
    }

    /// Labeled rows shed toward the shadow trainer so far.
    pub fn trainer_shed(&self) -> u64 {
        self.trainer_shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;
    use amlight_int::{HopMetadata, InstructionSet, TelemetryReport};
    use amlight_net::Protocol;
    use amlight_sflow::FlowSample;
    use std::net::Ipv4Addr;

    fn report(port: u16, t_ns: u64) -> TelemetryReport {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(9, 9, 9, 9),
                Ipv4Addr::new(10, 0, 0, 2),
                port,
                80,
                Protocol::Tcp,
            ),
            ip_len: 120,
            tcp_flags: Some(0x02),
            instructions: InstructionSet::amlight(),
            hops: vec![HopMetadata {
                switch_id: 0,
                ingress_tstamp: t_ns as u32,
                egress_tstamp: (t_ns as u32).wrapping_add(300),
                hop_latency: 0,
                queue_occupancy: 0,
            }]
            .into(),
            export_ns: t_ns,
        }
    }

    #[test]
    fn processor_forwards_updates_only() {
        let db = FlowDatabase::new();
        let mut p = Processor::new(
            FlowTableConfig::default(),
            db.clone(),
            VirtualClock {
                processing_delay_ns: 10,
            },
            FeatureSet::full(),
        );
        let mut rows = Vec::new();

        let first = p.ingest(&report(1, 100), &mut rows);
        assert_eq!(
            first,
            Ingest::Created {
                key: report(1, 100).flow,
                registered_ns: 110,
            }
        );
        assert!(rows.is_empty(), "created flows are never forwarded");
        assert_eq!(db.update_count(), 0);

        let second = p.ingest(&report(1, 200), &mut rows);
        match second {
            Ingest::Judged(j) => {
                assert_eq!(j.registered_ns, 210);
                assert_eq!(j.table_len, 1);
            }
            other => panic!("expected judged update, got {other:?}"),
        }
        assert_eq!(rows.len(), FeatureSet::full().dim());
        assert_eq!(db.update_count(), 1);
        assert_eq!(p.created(), 1);
        assert_eq!(p.flow_count(), 1);
    }

    /// A flood-shaped report stream: 40-byte packets at 20 µs on one
    /// flow — far outside the triage benign envelope.
    fn floody(seq: u64) -> TelemetryReport {
        let mut r = report(9, seq * 20_000);
        r.ip_len = 40;
        r
    }

    #[test]
    fn prefilter_on_decimates_suspicious_flows() {
        let db = FlowDatabase::new();
        let mut p = Processor::new(
            FlowTableConfig::default(),
            db.clone(),
            VirtualClock {
                processing_delay_ns: 0,
            },
            FeatureSet::full(),
        )
        .with_prefilter(
            PrefilterMode::On,
            TriageConfig {
                alarm_min_events: u64::MAX,
                ..TriageConfig::default()
            },
        );
        let mut rows = Vec::new();
        let n = 100u64;
        let mut forwarded = 0u64;
        let mut dropped = 0u64;
        for i in 0..n {
            match p.ingest(&floody(i), &mut rows) {
                Ingest::Created { .. } => {}
                Ingest::Judged(j) => {
                    assert_eq!(j.lane, TriageVerdict::Forward);
                    forwarded += 1;
                }
                Ingest::Dropped { .. } => dropped += 1,
            }
        }
        assert!(forwarded > 0 && dropped > 0, "decimation forwards a sample");
        assert!(dropped > forwarded, "most of the firehose is dropped");
        // Dropped updates appended no rows …
        assert_eq!(rows.len() as u64 / 15, forwarded);
        // … but every update (dropped included) hit the database.
        assert_eq!(db.update_count() as u64, n - 1);
        let stats = p.triage_stats();
        assert_eq!(stats.forwarded, forwarded);
        assert_eq!(stats.dropped, dropped);
        assert_eq!(stats.would.scored, n - 1);
    }

    #[test]
    fn prefilter_shadow_counts_but_never_gates() {
        let db = FlowDatabase::new();
        let mk = |mode| {
            Processor::new(
                FlowTableConfig::default(),
                db.clone(),
                VirtualClock {
                    processing_delay_ns: 0,
                },
                FeatureSet::full(),
            )
            .with_prefilter(mode, TriageConfig::default())
        };
        let mut off = mk(PrefilterMode::Off);
        let mut shadow = mk(PrefilterMode::Shadow);
        let mut rows_off = Vec::new();
        let mut rows_shadow = Vec::new();
        for i in 0..50u64 {
            let a = off.ingest(&floody(i), &mut rows_off);
            let b = shadow.ingest(&floody(i), &mut rows_shadow);
            assert_eq!(a, b, "shadow must be bit-identical to off");
        }
        assert_eq!(rows_off, rows_shadow);
        let stats = shadow.triage_stats();
        assert_eq!((stats.dropped, stats.deferred), (0, 0));
        assert!(stats.would.drop > 0, "shadow still counts would-be drops");
        assert_eq!(off.triage_stats().would, TriageCounters::default());
    }

    #[test]
    fn route_is_ingest_split_by_lane() {
        let quiet = TriageConfig {
            alarm_min_events: u64::MAX,
            ..TriageConfig::default()
        };
        let mk = || {
            Processor::new(
                FlowTableConfig::default(),
                FlowDatabase::new(),
                VirtualClock {
                    processing_delay_ns: 5,
                },
                FeatureSet::full(),
            )
            .with_prefilter(PrefilterMode::On, quiet)
        };
        let (mut via_ingest, mut via_route) = (mk(), mk());
        let dim = FeatureSet::full().dim();
        // Steady benign flows (which defer once warmed up) interleaved
        // with one flood-shaped flow (forwarded and dropped); every
        // seventh event carries no ground truth.
        let mut events = Vec::new();
        for i in 0..300u64 {
            let mut benign = report(100 + (i % 4) as u16, i * 1_000_000);
            benign.ip_len = 800;
            events.push((benign, TrafficClass::Benign));
            events.push((floody(i), TrafficClass::SynFlood));
        }

        let mut rows = Vec::new();
        let mut want = [LaneBatch::default(), LaneBatch::default()];
        let mut main = LaneBatch::with_capacity(16, dim);
        let mut deferred = LaneBatch::with_capacity(16, dim);
        for (i, (event, class)) in events.iter().enumerate() {
            let truth = (i % 7 != 0).then_some(*class);
            let expected = via_ingest.ingest(event, &mut rows);
            let written = main.rows.len() + deferred.rows.len();
            assert_eq!(
                via_route.route(event, truth, &mut main, &mut deferred),
                expected
            );
            match expected {
                Ingest::Judged(j) => {
                    let lane = &mut want[usize::from(j.lane == TriageVerdict::Defer)];
                    lane.items.push((j.key, j.registered_ns, truth));
                    lane.rows.append(&mut rows);
                }
                _ => assert_eq!(
                    main.rows.len() + deferred.rows.len(),
                    written,
                    "no row for a created or dropped update"
                ),
            }
        }
        let stats = via_route.triage_stats();
        assert!(stats.forwarded > 0 && stats.deferred > 0 && stats.dropped > 0);
        assert_eq!(stats, via_ingest.triage_stats());
        for (got, want) in [(&main, &want[0]), (&deferred, &want[1])] {
            assert_eq!(got.items, want.items);
            let bits = |rows: &[f64]| rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.rows), bits(&want.rows));
        }
    }

    #[test]
    fn wall_clock_is_monotone_and_shared() {
        let clock = WallClock::new();
        let sibling = clock; // Copy: same epoch
        let a = clock.register_ns(0);
        let b = sibling.now_ns();
        assert!(b >= a, "clones share the epoch: {b} < {a}");
    }

    #[test]
    fn processor_ingests_sflow_through_the_same_path() {
        let db = FlowDatabase::new();
        let mut p = Processor::new(
            FlowTableConfig::default(),
            db.clone(),
            VirtualClock {
                processing_delay_ns: 10,
            },
            FeatureSet::full().without(&amlight_features::FeatureId::QUEUE_COLUMNS),
        );
        let sample = |t_ns: u64| FlowSample {
            flow: report(5, 0).flow,
            ip_len: 40,
            tcp_flags: Some(0x02),
            observed_ns: t_ns,
            sampling_period: 4096,
        };
        let mut rows = Vec::new();

        // Same created-vs-updated forwarding rule, registration stamped
        // off the sample's observation time.
        match p.ingest(&sample(100), &mut rows) {
            Ingest::Created { registered_ns, .. } => assert_eq!(registered_ns, 110),
            other => panic!("expected created, got {other:?}"),
        }
        assert!(rows.is_empty());
        match p.ingest(&TelemetryEvent::from(sample(200)), &mut rows) {
            Ingest::Judged(j) => assert_eq!(j.registered_ns, 210),
            other => panic!("expected judged update, got {other:?}"),
        }
        assert_eq!(
            rows.len(),
            FeatureSet::full()
                .without(&amlight_features::FeatureId::QUEUE_COLUMNS)
                .dim()
        );
        assert_eq!(db.update_count(), 1);
    }

    #[test]
    fn aggregator_counts_and_stamps() {
        let db = FlowDatabase::new();
        let mut agg = Aggregator::new(db.clone(), 3);
        let key = report(7, 0).flow;
        assert_eq!(agg.aggregate(key, true, 100, 400, 0), Verdict::Pending);
        assert_eq!(agg.aggregate(key, true, 200, 600, 0), Verdict::Pending);
        assert_eq!(agg.aggregate(key, true, 300, 800, 1), Verdict::Attack);
        let c = agg.counts();
        assert_eq!(c.predictions, 3);
        assert_eq!(c.attacks, 1);
        assert_eq!(c.pendings, 2);
        let preds = db.predictions();
        assert_eq!(preds.len(), 3);
        assert_eq!(preds[0].predicted_ns, 400);
        assert_eq!(preds[0].latency_ns, 300);
        assert_eq!(preds[2].label, Some(true));
        assert_eq!(preds[2].epoch, 1, "verdicts carry the voting epoch");
        assert_eq!(db.epochs_used(), vec![0, 1]);
        assert!(agg.max_latency_us() >= agg.mean_latency_us());
    }

    #[test]
    fn staged_verdicts_reach_the_database_at_commit_in_order() {
        let db = FlowDatabase::new();
        let mut agg = Aggregator::new(db.clone(), 1);
        let (a, b) = (report(7, 0).flow, report(8, 0).flow);
        assert_eq!(agg.stage(a, true, 100, 400, 0), Verdict::Attack);
        assert_eq!(agg.stage(b, false, 200, 400, 0), Verdict::Normal);
        assert_eq!(agg.counts().predictions, 2, "tallies move at stage time");
        assert_eq!(db.prediction_count(), 0, "nothing stored before commit");
        agg.commit();
        let keys: Vec<FlowKey> = db.predictions().iter().map(|p| p.key).collect();
        assert_eq!(keys, vec![a, b]);
        // A second commit stores nothing twice.
        agg.commit();
        assert_eq!(db.prediction_count(), 2);
    }
}
