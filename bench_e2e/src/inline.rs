//! The single-thread baseline: the same bytes through the same public
//! functions on one thread, block by block, with no channel, no lock
//! contention and no scheduler in the way.
//!
//! The plain pass times four coarse stages with two clock reads per block
//! and is the oracle the threaded laps' verdicts are checked against. The
//! traced pass takes `Processor::ingest` apart into the calls it makes and
//! brackets each one; it exists for the waterfall, and what the brackets
//! cost is reported as `trace.overhead_share`.

use crate::score::{score_db, Score};
use crate::setup::{Inputs, Workload, REPORTS_PER_DATAGRAM};
use crate::trace::{Span, Tracer};
use amlight_core::{
    Aggregator, FlowDatabase, Ingest, PredictionRecord, Predictor, Processor, Telemetry, WallClock,
};
use amlight_features::{
    FeatureId, FlowTable, FlowTableConfig, PrefilterMode, TriageConfig, TriageDecision,
    TriageStage, TriageVerdict, UpdateKind,
};
use amlight_int::{IntCollector, TelemetryReport};
use amlight_ml::BinaryClassifier;
use amlight_net::FlowKey;
use std::time::Instant;

/// Events per block: the runtime's `MAX_JOB_BATCH`.
const BLOCK_EVENTS: usize = 256;
const BLOCK_DATAGRAMS: usize = BLOCK_EVENTS / REPORTS_PER_DATAGRAM;
/// Every this-many-th block also times the ensemble's members and
/// `store_prediction` on their own, outside the calls that contain them.
const SAMPLE_BLOCKS: usize = 16;
/// The paper's smoothing window, the runtime's default.
const SMOOTHING_WINDOW: usize = 3;

/// Coarse stage totals of the plain pass, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageNs {
    pub decode: u64,
    pub processor: u64,
    pub predictor: u64,
    pub aggregator: u64,
}

pub struct PlainPass {
    pub wall_ns: u64,
    pub stages: StageNs,
    pub events: u64,
    pub rows: u64,
    pub score: Score,
}

/// Judged updates of one block waiting for the ensemble, in one lane.
#[derive(Default)]
struct Pending {
    items: Vec<(FlowKey, u64)>,
    rows: Vec<f64>,
}

impl Pending {
    fn clear(&mut self) {
        self.items.clear();
        self.rows.clear();
    }
}

fn ns(from: Instant) -> u64 {
    from.elapsed().as_nanos() as u64
}

pub fn plain_pass(inputs: &Inputs, workload: &Workload) -> PlainPass {
    let db = FlowDatabase::new();
    let clock = WallClock::new();
    let feature_set = inputs.model.feature_set();
    let dim = feature_set.dim();
    let mut collector = IntCollector::new();
    let mut processor = Processor::new(FlowTableConfig::default(), db.clone(), clock, feature_set)
        .with_prefilter(workload.prefilter, TriageConfig::default());
    let mut predictor = Predictor::shared(inputs.model.clone());
    let mut aggregator = Aggregator::new(db.clone(), SMOOTHING_WINDOW);

    let mut reports: Vec<TelemetryReport> = Vec::with_capacity(BLOCK_EVENTS);
    let mut main = Pending::default();
    let mut deferred = Pending::default();
    let mut attacks: Vec<bool> = Vec::new();
    let mut stages = StageNs::default();
    let mut events = 0u64;
    let mut rows = 0u64;

    let start = Instant::now();
    for block in inputs.wire.chunks(BLOCK_DATAGRAMS) {
        let t = Instant::now();
        reports.clear();
        for datagram in block {
            collector.ingest_into(datagram, &mut reports);
        }
        stages.decode += ns(t);
        events += reports.len() as u64;

        let t = Instant::now();
        main.clear();
        deferred.clear();
        for report in &reports {
            if let Ingest::Judged(j) = processor.ingest(report, &mut main.rows) {
                if j.lane == TriageVerdict::Defer {
                    // As the runtime does: the row `ingest` appended moves
                    // to the deferred lane's buffer.
                    let split = main.rows.len() - dim;
                    deferred.rows.extend_from_slice(&main.rows[split..]);
                    main.rows.truncate(split);
                    deferred.items.push((j.key, j.registered_ns));
                } else {
                    main.items.push((j.key, j.registered_ns));
                }
            }
        }
        stages.processor += ns(t);

        // The deferred lane is served when the main lane is idle: on one
        // thread, right after the block's main lane.
        for lane in [&main, &deferred] {
            if lane.items.is_empty() {
                continue;
            }
            let t = Instant::now();
            let epoch = predictor.predict(&lane.rows, &mut attacks);
            stages.predictor += ns(t);
            rows += lane.items.len() as u64;
            let t = Instant::now();
            for (&(key, registered_ns), &attack) in lane.items.iter().zip(&attacks) {
                aggregator.aggregate(key, attack, registered_ns, clock.now_ns(), epoch);
            }
            stages.aggregator += ns(t);
        }
    }
    let wall_ns = ns(start);
    PlainPass {
        wall_ns,
        stages,
        events,
        rows,
        score: score_db(&db, &inputs.flows),
    }
}

/// Leaf layers of the traced pass, by index into [`LAYERS`].
pub const LAYERS: [&str; 11] = [
    "int.decode",
    "event.lower",
    "table.apply",
    "table.features",
    "triage.assess",
    "db.record_created",
    "db.record_updated",
    "vector.project",
    "predictor.predict",
    "aggregator.aggregate",
    "trace.sampling",
];
const DECODE: usize = 0;
const LOWER: usize = 1;
const APPLY: usize = 2;
const FEATURES: usize = 3;
const ASSESS: usize = 4;
const CREATED: usize = 5;
const UPDATED: usize = 6;
const PROJECT: usize = 7;
const PREDICT: usize = 8;
const AGGREGATE: usize = 9;
const SAMPLING: usize = 10;

/// Side measurements on the sampled blocks: calls that sit inside another
/// public call and cannot be bracketed where they happen.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    pub rows: u64,
    pub scaler_ns: u64,
    pub mlp_ns: u64,
    pub forest_ns: u64,
    pub gnb_ns: u64,
    pub store_prediction_ns: u64,
}

/// Counters the traced pass reads off the layers it drives directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub table_created: u64,
    pub table_updated: u64,
    pub table_evicted: u64,
    pub table_live_flows: u64,
    pub forwarded: u64,
    pub deferred: u64,
    pub dropped: u64,
}

pub struct TracedPass {
    pub wall_ns: u64,
    pub spans: Vec<Span>,
    pub events: u64,
    pub rows: u64,
    pub sampled: Sampled,
    pub counts: LayerCounts,
    pub score: Score,
}

pub fn traced_pass(inputs: &Inputs, workload: &Workload) -> TracedPass {
    let db = FlowDatabase::new();
    let clock = WallClock::new();
    let feature_set = inputs.model.feature_set();
    // `Processor::ingest` writes the triage score into this column when
    // the bundle asks for it; the benchmark's bundle never does.
    assert!(
        !feature_set.contains(FeatureId::SketchScore),
        "the traced pass mirrors Processor::ingest without the sketch-score column"
    );
    let dim = feature_set.dim();
    let mut collector = IntCollector::new();
    let mut table = FlowTable::new(FlowTableConfig::default());
    let mut triage = (workload.prefilter != PrefilterMode::Off)
        .then(|| TriageStage::new(TriageConfig::default()));
    let gate = workload.prefilter == PrefilterMode::On;
    let mut predictor = Predictor::shared(inputs.model.clone());
    let mut aggregator = Aggregator::new(db.clone(), SMOOTHING_WINDOW);
    let side_db = FlowDatabase::new();

    let mut reports: Vec<TelemetryReport> = Vec::with_capacity(BLOCK_EVENTS);
    let mut main = Pending::default();
    let mut deferred = Pending::default();
    let mut attacks: Vec<bool> = Vec::new();
    let mut scaled: Vec<f64> = Vec::new();
    let mut proba: Vec<f64> = Vec::new();
    let mut sampled = Sampled::default();
    let mut counts = LayerCounts::default();
    let mut events = 0u64;
    let mut rows = 0u64;

    let mut tr = Tracer::new("inline.pass", &LAYERS);
    for (block_no, block) in inputs.wire.chunks(BLOCK_DATAGRAMS).enumerate() {
        let mut at = tr.mark();
        tr.open_block("inline.block", &at);

        reports.clear();
        for datagram in block {
            collector.ingest_into(datagram, &mut reports);
            let now = tr.mark();
            tr.charge(DECODE, &at, &now);
            at = now;
        }
        events += reports.len() as u64;

        main.clear();
        deferred.clear();
        // One mark closes a call and opens the next, so a report costs one
        // clock read per call, not two.
        at = tr.mark();
        for report in &reports {
            let key = report.flow;
            let registered_ns = clock.now_ns();
            let update = report.flow_update();
            let now = tr.mark();
            tr.charge(LOWER, &at, &now);
            at = now;

            let (kind, rec) = table.apply(&update);
            let now = tr.mark();
            tr.charge(APPLY, &at, &now);
            at = now;

            let features = rec.features();
            let now = tr.mark();
            tr.charge(FEATURES, &at, &now);
            at = now;

            match kind {
                UpdateKind::Created => {
                    if let Some(stage) = triage.as_mut() {
                        let _ = stage.assess(&update, rec);
                        let now = tr.mark();
                        tr.charge(ASSESS, &at, &now);
                        at = now;
                    }
                    db.record_created(key, features, registered_ns);
                    let now = tr.mark();
                    tr.charge(CREATED, &at, &now);
                    at = now;
                }
                UpdateKind::Updated => {
                    db.record_updated(key, rec.update_seq, features, registered_ns);
                    let now = tr.mark();
                    tr.charge(UPDATED, &at, &now);
                    at = now;

                    let decision = match triage.as_mut() {
                        Some(stage) => {
                            let d = stage.assess(&update, rec);
                            let now = tr.mark();
                            tr.charge(ASSESS, &at, &now);
                            at = now;
                            d
                        }
                        None => TriageDecision::forward(),
                    };
                    let lane = if gate {
                        decision.verdict
                    } else {
                        TriageVerdict::Forward
                    };
                    let pending = match lane {
                        TriageVerdict::Drop => {
                            counts.dropped += 1;
                            continue;
                        }
                        TriageVerdict::Defer => {
                            counts.deferred += 1;
                            &mut deferred
                        }
                        TriageVerdict::Forward => {
                            counts.forwarded += 1;
                            &mut main
                        }
                    };
                    features.project_into(feature_set, &mut pending.rows);
                    pending.items.push((key, registered_ns));
                    let now = tr.mark();
                    tr.charge(PROJECT, &at, &now);
                    at = now;
                }
            }
        }

        for lane in [&main, &deferred] {
            if lane.items.is_empty() {
                continue;
            }
            at = tr.mark();
            let epoch = predictor.predict(&lane.rows, &mut attacks);
            let now = tr.mark();
            tr.charge(PREDICT, &at, &now);
            at = now;
            rows += lane.items.len() as u64;
            for (&(key, registered_ns), &attack) in lane.items.iter().zip(&attacks) {
                aggregator.aggregate(key, attack, registered_ns, clock.now_ns(), epoch);
                let now = tr.mark();
                tr.charge(AGGREGATE, &at, &now);
                at = now;
            }
        }

        if block_no % SAMPLE_BLOCKS == 0 && !main.items.is_empty() {
            at = tr.mark();
            let n = main.items.len();
            let current = inputs.model.load();
            let bundle = current.bundle();
            scaled.clear();
            scaled.resize(main.rows.len(), 0.0);
            proba.clear();
            proba.resize(n, 0.0);
            let t = Instant::now();
            bundle.scaler.transform_into(&main.rows, &mut scaled);
            sampled.scaler_ns += ns(t);
            let members: [(&dyn BinaryClassifier, &mut u64); 3] = [
                (&bundle.mlp, &mut sampled.mlp_ns),
                (&bundle.forest, &mut sampled.forest_ns),
                (&bundle.gnb, &mut sampled.gnb_ns),
            ];
            for (member, total) in members {
                let t = Instant::now();
                member.predict_proba_batch(&scaled, dim, &mut proba);
                *total += ns(t);
                std::hint::black_box(&proba);
            }
            let t = Instant::now();
            for &(key, registered_ns) in &main.items {
                side_db.store_prediction(PredictionRecord {
                    key,
                    label: None,
                    epoch: 0,
                    predicted_ns: registered_ns,
                    latency_ns: 0,
                });
            }
            sampled.store_prediction_ns += ns(t);
            sampled.rows += n as u64;
            let now = tr.mark();
            tr.charge(SAMPLING, &at, &now);
        }

        let end = tr.mark();
        tr.close_block(&end);
    }
    let end = tr.mark();
    let wall_ns = tr.finish(&end);

    counts.table_created = table.created();
    counts.table_updated = table.updated();
    counts.table_evicted = table.evicted();
    counts.table_live_flows = table.len() as u64;
    TracedPass {
        wall_ns,
        spans: tr.spans,
        events,
        rows,
        sampled,
        counts,
        score: score_db(&db, &inputs.flows),
    }
}

/// What one clock-and-counter read costs, ns: the median of a thousand
/// back-to-back pairs. The waterfall shows it as its own line.
pub fn mark_cost_ns() -> f64 {
    static NONE: [&str; 0] = [];
    let tr = Tracer::new("calibration", &NONE);
    let mut gaps: Vec<f64> = (0..1000)
        .map(|_| {
            let a = tr.mark();
            let b = tr.mark();
            (b.ns - a.ns) as f64
        })
        .collect();
    gaps.sort_by(f64::total_cmp);
    gaps[gaps.len() / 2]
}
