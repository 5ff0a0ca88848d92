//! The deterministic virtual-time pipeline driver.
//!
//! [`DetectionPipeline::run_sync`] replays a labeled telemetry stream
//! through the full Fig. 2 dataflow in one thread, advancing a virtual
//! clock. The module semantics — flow-table ingest, the CentralServer's
//! updates-only forwarding rule, batched ensemble voting, and verdict
//! smoothing — live in the shared [`crate::modules`] stage layer
//! ([`Processor`] / [`Predictor`] / [`Aggregator`]); this driver owns
//! only what is specific to virtual time. Prediction latency (paper
//! Table VI, cols 3–4) is produced by an explicit queueing model of the
//! CentralServer + Prediction path:
//!
//! * a single FIFO server handles one flow-update prediction at a time;
//! * each prediction costs `base_service_ns` **plus
//!   `scan_cost_per_flow_ns` × (live flow records)** — the paper's
//!   CentralServer polls the database by scanning records, so per-
//!   prediction overhead grows with table size. This is what makes
//!   benign replays (hundreds of concurrent flows, thousands of updates)
//!   orders of magnitude slower than a SYN-flood replay from a handful
//!   of sockets — the Table VI asymmetry.
//!
//! Two paces are provided: [`PipelineConfig::rust_pace`] (what this Rust
//! implementation actually costs) and [`PipelineConfig::paper_pace`]
//! (Python/JavaScript-era service times, for reproducing the paper's
//! absolute latency scale).

use crate::db::FlowDatabase;
use crate::event::Telemetry;
use crate::guard::{FloodAlert, GuardConfig, NewFlowGuard};
use crate::modules::{Aggregator, Ingest, JudgedUpdate, Predictor, Processor, VirtualClock};
use crate::trainer::ModelBundle;
use crate::verdict::Verdict;
use amlight_features::{FeatureSet, FlowTableConfig};
use amlight_net::{FlowKey, TrafficClass};
use serde::{Deserialize, Serialize};

/// Pipeline tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Data Processor per-report handling cost, ns (collection → record
    /// registered in the database).
    pub processing_delay_ns: u64,
    /// Fixed prediction cost per flow update, ns.
    pub base_service_ns: u64,
    /// CentralServer scan cost per live flow record per prediction, ns.
    pub scan_cost_per_flow_ns: u64,
    /// Smoothing window size (paper: 3).
    pub smoothing_window: usize,
    /// Flow-table housekeeping.
    pub table: FlowTableConfig,
    /// Optional new-flow-rate guard (catches spoofed floods the
    /// per-update ML path is structurally blind to; see ablation 4).
    pub guard: Option<GuardConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::rust_pace()
    }
}

impl PipelineConfig {
    /// Service times representative of this Rust implementation.
    pub fn rust_pace() -> Self {
        Self {
            processing_delay_ns: 2_000,
            base_service_ns: 20_000,    // 20 µs per ensemble prediction
            scan_cost_per_flow_ns: 200, // 0.2 µs per record scanned
            smoothing_window: 3,
            table: FlowTableConfig::default(),
            guard: Some(GuardConfig::default()),
        }
    }

    /// Service times representative of the paper's Python + JavaScript
    /// prototype, for reproducing Table VI's latency *shape*: the
    /// sklearn predict call itself is fast (~0.1 ms/row), but the
    /// CentralServer re-scans every database record per poll (~0.4 ms
    /// each), so prediction cost grows with live flow count. Replays
    /// with many concurrent flows (benign, scans) pay heavily; the
    /// 16-socket flood barely notices.
    pub fn paper_pace() -> Self {
        Self {
            processing_delay_ns: 100_000,   // 0.1 ms per packet in JS
            base_service_ns: 100_000,       // 0.1 ms per sklearn call
            scan_cost_per_flow_ns: 150_000, // 0.15 ms per record scan
            smoothing_window: 3,
            table: FlowTableConfig::default(),
            guard: Some(GuardConfig::default()),
        }
    }
}

/// One prediction event for the report timeline (Figs. 7a/7b).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Order of the prediction within the run.
    pub index: u64,
    pub key: FlowKey,
    pub truth: TrafficClass,
    pub verdict: Verdict,
    pub registered_ns: u64,
    pub predicted_ns: u64,
}

impl TimelinePoint {
    pub fn latency_s(&self) -> f64 {
        (self.predicted_ns - self.registered_ns) as f64 / 1e9
    }
}

/// Per-traffic-class outcome (one row of the paper's Table VI).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    pub class: TrafficClass,
    /// Predictions with a final (non-pending) verdict.
    pub predicted: u64,
    pub misclassified: u64,
    /// Predictions still inside the smoothing warm-up.
    pub pending: u64,
    pub avg_latency_s: f64,
    pub max_latency_s: f64,
    pub p99_latency_s: f64,
}

impl ClassSummary {
    pub fn accuracy(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            1.0 - self.misclassified as f64 / self.predicted as f64
        }
    }
}

/// Full output of a pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    pub timeline: Vec<TimelinePoint>,
    /// Updates that never got a verdict because their flow stayed inside
    /// the warm-up — included in the per-class `pending` counts.
    pub total_reports: u64,
    pub total_flows: u64,
    /// New-flow-rate alerts from the guard (empty when disabled).
    pub flood_alerts: Vec<FloodAlert>,
}

impl PipelineReport {
    /// Summarize one class (a Table VI row).
    pub fn class_summary(&self, class: TrafficClass) -> ClassSummary {
        let mut latencies: Vec<f64> = Vec::new();
        let mut predicted = 0u64;
        let mut misclassified = 0u64;
        let mut pending = 0u64;
        for p in self.timeline.iter().filter(|p| p.truth == class) {
            latencies.push(p.latency_s());
            match p.verdict.label() {
                None => pending += 1,
                Some(label) => {
                    predicted += 1;
                    if label != class.label() {
                        misclassified += 1;
                    }
                }
            }
        }
        latencies.sort_by(f64::total_cmp);
        let n = latencies.len();
        let avg = if n == 0 {
            0.0
        } else {
            latencies.iter().sum::<f64>() / n as f64
        };
        let max = latencies.last().copied().unwrap_or(0.0);
        let p99 = if n == 0 {
            0.0
        } else {
            latencies[((n as f64 * 0.99) as usize).min(n - 1)]
        };
        ClassSummary {
            class,
            predicted,
            misclassified,
            pending,
            avg_latency_s: avg,
            max_latency_s: max,
            p99_latency_s: p99,
        }
    }

    /// Classes present in this run, in canonical order.
    pub fn classes(&self) -> Vec<TrafficClass> {
        TrafficClass::ALL
            .into_iter()
            .filter(|c| self.timeline.iter().any(|p| p.truth == *c))
            .collect()
    }

    /// Overall accuracy across final verdicts.
    pub fn overall_accuracy(&self) -> f64 {
        let (mut ok, mut total) = (0u64, 0u64);
        for p in &self.timeline {
            if let Some(label) = p.verdict.label() {
                total += 1;
                ok += u64::from(label == p.truth.label());
            }
        }
        if total == 0 {
            0.0
        } else {
            ok as f64 / total as f64
        }
    }
}

/// The synchronous, virtual-time pipeline.
pub struct DetectionPipeline {
    config: PipelineConfig,
    predictor: Predictor,
    db: FlowDatabase,
}

/// Reports per columnar prediction flush in [`DetectionPipeline::run_sync`].
const PREDICTION_BATCH: usize = 1024;

impl DetectionPipeline {
    pub fn new(bundle: ModelBundle, config: PipelineConfig) -> Self {
        Self::shared(crate::epoch::EpochHandle::new(bundle), config)
    }

    /// Build the driver over an existing epoch handle, so a publish
    /// through any clone of it swaps the model between this driver's
    /// prediction micro-batches.
    pub fn shared(handle: crate::epoch::EpochHandle, config: PipelineConfig) -> Self {
        Self {
            config,
            predictor: Predictor::shared(handle),
            db: FlowDatabase::new(),
        }
    }

    /// The swappable model handle this driver predicts with.
    pub fn model_handle(&self) -> crate::epoch::EpochHandle {
        self.predictor.handle().clone()
    }

    pub fn database(&self) -> &FlowDatabase {
        &self.db
    }

    pub fn feature_set(&self) -> FeatureSet {
        self.predictor.feature_set()
    }

    /// Replay a labeled telemetry stream from any backend (must be
    /// event-time ordered) through the full detection dataflow. The
    /// backend only changes the normalized [`amlight_features::FlowUpdate`]
    /// each event lowers to and which feature projection the bundle was
    /// trained on — the dataflow is backend-blind.
    ///
    /// Ingest, forwarding, prediction, and aggregation are the shared
    /// [`crate::modules`] stages under a [`VirtualClock`]; this method
    /// adds only the virtual-time queueing model. Predictions are
    /// flushed in micro-batches of [`PREDICTION_BATCH`] reports through
    /// one columnar ensemble call instead of three virtual model calls
    /// per update. Deferring them is invisible to the queueing model:
    /// predictions never feed back into the flow table, each pending
    /// update carries the table size and registration stamp from its own
    /// collect step, and the flush walks updates in input order, so
    /// verdicts, latencies, and database contents are identical to the
    /// one-at-a-time replay. Static dispatch over [`Telemetry`] keeps
    /// each backend's path monomorphic — the INT instantiation is
    /// bit-identical to the pre-refactor driver.
    pub fn run_sync<E: Telemetry>(&mut self, labeled: &[(E, TrafficClass)]) -> PipelineReport {
        // (1)→(3): the shared Data Processor stage under virtual time.
        let mut processor = Processor::new(
            self.config.table,
            self.db.clone(),
            VirtualClock {
                processing_delay_ns: self.config.processing_delay_ns,
            },
            self.predictor.feature_set(),
        );
        // (6)→(8): the shared aggregation stage (fresh windows per run).
        let mut aggregator = Aggregator::new(self.db.clone(), self.config.smoothing_window);
        let mut guard = self.config.guard.map(NewFlowGuard::new);
        let mut timeline = Vec::new();
        let mut server_free_ns = 0u64;
        let mut index = 0u64;

        let dim = self.predictor.feature_set().dim();
        let mut pending: Vec<(JudgedUpdate, TrafficClass)> = Vec::with_capacity(PREDICTION_BATCH);
        let mut rows: Vec<f64> = Vec::with_capacity(PREDICTION_BATCH * dim);
        let mut decisions: Vec<bool> = Vec::new();

        for chunk in labeled.chunks(PREDICTION_BATCH) {
            pending.clear();
            rows.clear();

            for (report, class) in chunk {
                // One ingest call decides created-vs-updated, writes the
                // database record, and projects the feature row (§III-3:
                // brand-new flows are never forwarded).
                match processor.ingest(report, &mut rows) {
                    Ingest::Created { key, registered_ns } => {
                        if let Some(g) = guard.as_mut() {
                            g.observe_new_flow(key.dst_ip, registered_ns);
                        }
                    }
                    Ingest::Judged(judged) => pending.push((judged, *class)),
                    // The batch pipeline runs without the triage
                    // pre-filter, so nothing is ever dropped here.
                    Ingest::Dropped { .. } => {}
                }
            }

            // (5): standardize + predict — one columnar ensemble call for
            // every update this micro-batch judged, all scored against
            // one model epoch (a published swap lands between batches,
            // never inside one).
            let epoch = self.predictor.predict(&rows, &mut decisions);

            for ((judged, truth), &ensemble) in pending.iter().zip(&decisions) {
                // (4)→(5): CentralServer discovers the update and queues
                // it at the single-server Prediction stage. Service cost
                // includes the record scan proportional to table size.
                let service_ns = self.config.base_service_ns
                    + self.config.scan_cost_per_flow_ns * judged.table_len;
                let start_ns = server_free_ns.max(judged.registered_ns);
                let predicted_ns = start_ns + service_ns;
                server_free_ns = predicted_ns;

                // (6)→(7)→(8): smoothed verdict + stored latency stamp.
                let verdict = aggregator.stage(
                    judged.key,
                    ensemble,
                    judged.registered_ns,
                    predicted_ns,
                    epoch,
                );
                timeline.push(TimelinePoint {
                    index,
                    key: judged.key,
                    truth: *truth,
                    verdict,
                    registered_ns: judged.registered_ns,
                    predicted_ns,
                });
                index += 1;
            }
            aggregator.commit();
        }

        PipelineReport {
            timeline,
            total_reports: labeled.len() as u64,
            total_flows: processor.flow_count() as u64,
            flood_alerts: guard.map(NewFlowGuard::finish).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{dataset_from_events, train_bundle, TrainerConfig};
    use crate::verdict::SmoothingWindow;
    use amlight_features::{FlowTable, UpdateKind};
    use amlight_int::{HopMetadata, InstructionSet, TelemetryReport};
    use amlight_ml::MlpConfig;
    use amlight_net::flow::FnvHashMap;
    use amlight_net::{FlowKey, Protocol};
    use std::net::Ipv4Addr;

    fn report(port: u16, t_ns: u64, len: u16, qocc: u32) -> TelemetryReport {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(8, 8, 8, 8),
                Ipv4Addr::new(10, 0, 0, 2),
                port,
                80,
                Protocol::Tcp,
            ),
            ip_len: len,
            tcp_flags: Some(0x02),
            instructions: InstructionSet::amlight(),
            hops: vec![HopMetadata {
                switch_id: 0,
                ingress_tstamp: t_ns as u32,
                egress_tstamp: (t_ns as u32).wrapping_add(500),
                hop_latency: 0,
                queue_occupancy: qocc,
            }]
            .into(),
            export_ns: t_ns,
        }
    }

    /// Benign: 10 flows, 1 ms cadence, large packets. Attack: 4 flows,
    /// 2 µs cadence, tiny packets, queue pressure.
    fn capture(n: usize) -> Vec<(TelemetryReport, TrafficClass)> {
        let mut v = Vec::new();
        for i in 0..n as u64 {
            v.push((
                report(1000 + (i % 10) as u16, i * 1_000_000, 900, 0),
                TrafficClass::Benign,
            ));
            v.push((
                report(2000 + (i % 4) as u16, i * 2_000, 40, 25),
                TrafficClass::SynFlood,
            ));
        }
        v.sort_by_key(|(r, _)| r.export_ns);
        v
    }

    fn bundle(train: &[(TelemetryReport, TrafficClass)]) -> ModelBundle {
        let raw = dataset_from_events(train, FeatureSet::full());
        train_bundle(
            &raw,
            FeatureSet::full(),
            &TrainerConfig {
                mlp: MlpConfig {
                    epochs: 10,
                    ..MlpConfig::paper_mlp()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn pipeline_detects_trained_contrast() {
        let train = capture(300);
        let b = bundle(&train);
        let mut pipe = DetectionPipeline::new(b, PipelineConfig::rust_pace());
        let test = capture(150);
        let rep = pipe.run_sync(&test);
        assert!(
            rep.overall_accuracy() > 0.9,
            "accuracy {}",
            rep.overall_accuracy()
        );
        let flood = rep.class_summary(TrafficClass::SynFlood);
        assert!(
            flood.accuracy() > 0.9,
            "flood accuracy {}",
            flood.accuracy()
        );
        assert!(flood.predicted > 0);
    }

    #[test]
    fn first_packet_of_each_flow_is_never_predicted() {
        let train = capture(200);
        let b = bundle(&train);
        let mut pipe = DetectionPipeline::new(b, PipelineConfig::rust_pace());
        let test = capture(50);
        let rep = pipe.run_sync(&test);
        // 14 distinct flows (10 benign + 4 attack) never produce a
        // prediction for their first packet.
        assert_eq!(rep.total_reports as usize, test.len());
        assert_eq!(rep.timeline.len(), test.len() - 14);
        assert_eq!(pipe.database().created_count(), 14);
    }

    #[test]
    fn smoothing_keeps_early_predictions_pending() {
        let train = capture(200);
        let b = bundle(&train);
        let mut pipe = DetectionPipeline::new(b, PipelineConfig::rust_pace());
        let test = capture(50);
        let rep = pipe.run_sync(&test);
        // Per flow, updates 1 and 2 are Pending (window 3 unfilled).
        let benign = rep.class_summary(TrafficClass::Benign);
        assert_eq!(benign.pending, 10 * 2);
    }

    #[test]
    fn latency_grows_with_backlog() {
        let train = capture(200);
        let b = bundle(&train);
        // Pathological pace: service far slower than arrivals.
        let cfg = PipelineConfig {
            base_service_ns: 10_000_000, // 10 ms per prediction
            scan_cost_per_flow_ns: 0,
            ..PipelineConfig::rust_pace()
        };
        let mut pipe = DetectionPipeline::new(b, cfg);
        let test = capture(100);
        let rep = pipe.run_sync(&test);
        let flood = rep.class_summary(TrafficClass::SynFlood);
        // Arrivals every ~2 µs, service 10 ms → deep backlog: the last
        // prediction waits ~ (n-1) * 10 ms.
        assert!(flood.max_latency_s > 0.5, "max {}", flood.max_latency_s);
        assert!(flood.max_latency_s > flood.avg_latency_s * 1.5);
    }

    #[test]
    fn scan_cost_penalizes_many_flows() {
        let train = capture(200);
        let b = bundle(&train);
        let cfg = PipelineConfig {
            base_service_ns: 1_000,
            scan_cost_per_flow_ns: 1_000_000, // 1 ms per live record
            ..PipelineConfig::rust_pace()
        };
        // Many-flow run vs few-flow run with the same packet count.
        let mut many: Vec<(TelemetryReport, TrafficClass)> = Vec::new();
        for i in 0..200u64 {
            many.push((
                report(3000 + (i % 100) as u16, i * 10_000, 500, 0),
                TrafficClass::Benign,
            ));
        }
        let mut few: Vec<(TelemetryReport, TrafficClass)> = Vec::new();
        for i in 0..200u64 {
            few.push((
                report(4000 + (i % 2) as u16, i * 10_000, 500, 0),
                TrafficClass::Benign,
            ));
        }
        let rep_many = DetectionPipeline::new(b.clone(), cfg).run_sync(&many);
        let rep_few = DetectionPipeline::new(b, cfg).run_sync(&few);
        let l_many = rep_many.class_summary(TrafficClass::Benign).avg_latency_s;
        let l_few = rep_few.class_summary(TrafficClass::Benign).avg_latency_s;
        assert!(
            l_many > l_few * 3.0,
            "many-flow latency {l_many} vs few-flow {l_few}"
        );
    }

    #[test]
    fn report_summaries_are_consistent() {
        let train = capture(200);
        let b = bundle(&train);
        let mut pipe = DetectionPipeline::new(b, PipelineConfig::rust_pace());
        let rep = pipe.run_sync(&capture(60));
        for class in rep.classes() {
            let s = rep.class_summary(class);
            assert!(s.max_latency_s >= s.avg_latency_s);
            assert!(s.max_latency_s >= s.p99_latency_s);
            assert_eq!(
                s.predicted + s.pending,
                rep.timeline.iter().filter(|p| p.truth == class).count() as u64
            );
        }
    }

    #[test]
    fn microbatching_matches_per_row_oracle() {
        let train = capture(200);
        let b = bundle(&train);
        let cfg = PipelineConfig::rust_pace();
        // 1400 reports: the run crosses the 1024-report flush boundary.
        let test = capture(700);
        let rep = DetectionPipeline::new(b.clone(), cfg).run_sync(&test);

        // Independent oracle: the pre-batching one-row-at-a-time replay.
        let mut table = FlowTable::new(cfg.table);
        let mut windows: FnvHashMap<FlowKey, SmoothingWindow> = FnvHashMap::default();
        let mut server_free = 0u64;
        let mut oracle = Vec::new();
        let mut buf = Vec::new();
        for (report, _) in &test {
            let registered = report.export_ns + cfg.processing_delay_ns;
            let (kind, rec) = table.apply(&report.flow_update());
            let features = rec.features();
            if kind == UpdateKind::Created {
                continue;
            }
            let service = cfg.base_service_ns + cfg.scan_cost_per_flow_ns * table.len() as u64;
            let predicted = server_free.max(registered) + service;
            server_free = predicted;
            buf.clear();
            features.project_into(b.feature_set, &mut buf);
            let verdict = windows
                .entry(report.flow)
                .or_insert_with(|| SmoothingWindow::new(cfg.smoothing_window))
                .push(b.ensemble_vote(&buf));
            oracle.push((report.flow, verdict, registered, predicted));
        }

        assert_eq!(rep.timeline.len(), oracle.len());
        for (t, (key, verdict, reg, pred)) in rep.timeline.iter().zip(&oracle) {
            assert_eq!(t.key, *key);
            assert_eq!(t.verdict, *verdict);
            assert_eq!(t.registered_ns, *reg);
            assert_eq!(t.predicted_ns, *pred, "latency model must be unchanged");
        }
    }

    #[test]
    fn database_mirrors_timeline() {
        let train = capture(200);
        let b = bundle(&train);
        let mut pipe = DetectionPipeline::new(b, PipelineConfig::rust_pace());
        let rep = pipe.run_sync(&capture(40));
        let preds = pipe.database().predictions();
        assert_eq!(preds.len(), rep.timeline.len());
        for (p, t) in preds.iter().zip(&rep.timeline) {
            assert_eq!(p.predicted_ns, t.predicted_ns);
            assert_eq!(p.latency_ns, t.predicted_ns - t.registered_ns);
        }
    }
}
