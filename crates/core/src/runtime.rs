//! The threaded runtime: the Fig. 2 modules as real OS threads connected
//! by crossbeam channels, sharing the [`FlowDatabase`].
//!
//! This is the live-deployment shape of the mechanism — the same module
//! logic as [`crate::pipeline::DetectionPipeline`] (both drivers are
//! built on the shared [`crate::modules`] stages), but with actual
//! concurrency and a wall clock instead of a virtual one:
//!
//! * **collection** drains a streaming [`EventSource`] (iterator,
//!   channel, capture replay, raw INT byte stream, or ingest-server
//!   mailboxes — every telemetry backend speaks
//!   [`crate::event::LabeledEvent`]) a batch at a time and fans events
//!   out to the processor shards, routed by
//!   [`ShardRouter`] over the event's
//!   5-tuple, which both backends carry — so a given flow always lands
//!   on the same shard no matter which telemetry system observed it;
//! * **processor shards** (N threads) each own a private
//!   [`Processor`] — flow table + database tallies + the CentralServer's
//!   updates-only forwarding rule, with the backend-specific table
//!   update behind [`crate::event::Telemetry`] dispatch — and hand the
//!   judged updates of each event batch toward prediction;
//! * **prediction** (one thread) fans the shard batches back in and runs
//!   one early-exit ensemble pass per batch via the shared [`Predictor`]:
//!   GNB and the forest vote on every row columnar (the forest walking
//!   only the trees a row's vote needs), the MLP only on the rows those
//!   two split on, and the escalated and trees-walked counts ride out in
//!   [`ThreadedRunStats`];
//! * **aggregation** (one thread) folds votes into per-flow smoothing
//!   windows with the shared [`crate::modules::Aggregator`], stamping
//!   every stored [`crate::db::PredictionRecord`] with a real wall-clock
//!   `predicted_ns` (no more placeholder zeros) and the measured
//!   prediction latency, and stores each voted batch under one database
//!   lock.
//!
//! The batch is the unit of work on every hop: one channel message
//! carries up to [`MAX_JOB_BATCH`] events or judged updates, a partial
//! batch leaves as soon as its producer has nothing more on hand (so a
//! trickling live source is never held back to fill one), and the
//! buffers travel back to their producers for reuse. Between wire bytes
//! and stored verdict no event takes a lock, a channel message or a heap
//! allocation of its own.
//!
//! Every stage stamps time with one shared [`WallClock`] epoch, so
//! registration and prediction stamps are directly comparable.
//!
//! [`ThreadedPipeline::start`] returns a [`RunHandle`] with an explicit
//! lifecycle: `drain()` waits for everything ingested so far to flow all
//! the way to the database, `stop()` ends collection early, and
//! `join()` blocks until the source ends and every module thread exits.
//! [`ThreadedPipeline::run`] is `start(IterSource) + join()` for an
//! in-memory `Vec` of any backend's events.

use crate::db::FlowDatabase;
use crate::drift::{DriftConfig, DriftDetector};
use crate::epoch::EpochHandle;
use crate::event::{LabeledEvent, Telemetry};
use crate::modules::{Clock, Ingest, LaneCounts, Predictor, Processor, WallClock};
use crate::source::{BatchPoll, EventSource, IterSource};
use crate::trainer::{train_bundle, ModelBundle, TrainerConfig};
use crate::verdict::{RecallCounts, VerdictCounts};
use amlight_features::{
    FlowTableConfig, PrefilterMode, ShardRouter, TriageConfig, TriageCounters, TriageVerdict,
};
use amlight_ml::Dataset;
use amlight_net::{FlowKey, TrafficClass};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Most events (collection → shard) or flow updates (shard → prediction)
/// a single channel message may carry.
const MAX_JOB_BATCH: usize = 256;

/// Depth of the hops whose depth decides what is kept: [`BatchJob`]s on
/// the deferred lane, which sheds when full, and events (however they are
/// batched) on collection → shard.
const CHANNEL_CAPACITY: usize = 1024;

/// Depth in [`BatchJob`]s of the main (shard → prediction) and vote
/// (prediction → aggregation) lanes. Both block when full, so their depth
/// decides no verdict, only how far a stage may run ahead of the next:
/// the backlog's memory and latency. At 1024 batches (≈ 262 k rows,
/// ≈ 30 MiB) a momentary stall of the stage downstream let the backlog,
/// and with it a `bench_e2e` `day` lap's peak resident set, swing by up
/// to 30 MiB whenever prediction and the processor ran at similar
/// speeds. 128 batches bound that swing to a few MiB and cost no
/// measurable throughput; 32 cost ≈ 5 %.
const BLOCKING_LANE_DEPTH: usize = 128;

/// Votes per flow the aggregator smooths a verdict over (§III-3).
const SMOOTHING_WINDOW: usize = 3;

/// How long the prediction thread blocks on the main lane before
/// re-checking the deferred lane (priority-drain loop, prefilter on).
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// How many recycled event buffers, [`BatchJob`] shells (per shard) and
/// prediction scratch vectors the pool channels hold. Deep enough to
/// cover the batches in flight across the job and vote channels under
/// normal pacing; when the pool momentarily runs dry a fresh buffer is
/// allocated, and when it is full a returning buffer is simply dropped —
/// both paths are non-blocking, so recycling can never deadlock the
/// pipeline.
const POOL_DEPTH: usize = 32;

/// A batch of prediction jobs flowing shard → Prediction: one channel
/// message (and one columnar ensemble call downstream) for every update
/// the shard had on hand, not one message per flow update.
///
/// After aggregation stores the batch's verdicts, the (cleared) shell
/// travels back to its shard over a per-shard pool channel, so the
/// steady-state hot path reuses `items`/`rows` capacity instead of
/// allocating per batch.
struct BatchJob {
    /// Which processor shard built this batch — the return address for
    /// buffer recycling.
    shard: usize,
    /// (flow, wall-clock registration stamp ns, ground truth if the
    /// source was labeled) per judged update, in the shard's arrival
    /// order.
    items: Vec<(FlowKey, u64, Option<TrafficClass>)>,
    /// Row-major raw feature rows, parallel to `items`.
    rows: Vec<f64>,
}

impl BatchJob {
    fn empty(shard: usize) -> Self {
        Self {
            shard,
            items: Vec::with_capacity(MAX_JOB_BATCH),
            rows: Vec::new(),
        }
    }
}

/// The scored batch flowing Prediction → aggregation. Carries the whole
/// job (not just its items) so aggregation can recycle the row buffers
/// back to the owning shard.
struct BatchVoted {
    job: BatchJob,
    attacks: Vec<bool>,
    /// Model epoch the whole batch was scored against — stamped into
    /// every stored verdict. One epoch per batch by construction (the
    /// predictor loads the handle once per batch).
    epoch: u64,
}

/// Labeled feature rows flowing aggregation → the shadow trainer over a
/// bounded channel (non-blocking send: a slow trainer sheds samples, it
/// never backpressures the verdict path).
struct SampleBatch {
    /// Row-major raw feature rows.
    rows: Vec<f64>,
    /// Ground-truth labels, parallel to the rows (`true` = attack).
    labels: Vec<bool>,
}

/// Online-adaptation knobs for [`ThreadedPipeline::with_adaptation`]:
/// drift detection over the benign distribution, plus the shadow
/// retrainer that turns a drift flag into a published epoch.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Page–Hinkley tuning for the benign-distribution watch.
    pub drift: DriftConfig,
    /// Hyperparameters for shadow retraining.
    pub trainer: TrainerConfig,
    /// Sliding window of labeled rows kept for retraining (oldest rows
    /// are dropped first).
    pub max_buffer_rows: usize,
    /// Rows (with both classes present) the buffer must hold before a
    /// drift flag may retrain.
    pub min_train_rows: usize,
    /// Bounded capacity (in sample batches) of the aggregation → trainer
    /// channel.
    pub queue_capacity: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            drift: DriftConfig::default(),
            trainer: TrainerConfig::default(),
            max_buffer_rows: 8_192,
            min_train_rows: 256,
            queue_capacity: 64,
        }
    }
}

/// What the adaptation stage did during a run. All-zero when adaptation
/// was not enabled (or the stream carried no labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptStats {
    /// Labeled rows handed to the shadow trainer.
    pub samples_fed: u64,
    /// Labeled rows shed because the trainer channel was full.
    pub samples_shed: u64,
    /// Times the drift detector tripped.
    pub drift_events: u64,
    /// Fresh bundles published (each one a new epoch).
    pub retrains: u64,
    /// Live epoch when the run ended.
    pub final_epoch: u64,
}

/// Failure of the threaded runtime: one of the module threads panicked,
/// so the pipeline's output cannot be trusted. The always-on deployment
/// treats this as "restart the detector", not "crash the collector
/// host" — which is why [`RunHandle::join`] returns it instead of
/// propagating the panic (amlint rule R8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeError {
    /// Which Fig. 2 module died.
    pub module: &'static str,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} thread panicked", self.module)
    }
}

impl std::error::Error for RuntimeError {}

/// What the triage pre-filter did during a run, aggregated across the
/// processor shards. All-zero (mode `Off`) when the stage is disabled.
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
}

/// What one processor shard hands back when it exits.
struct ShardStats {
    created: u64,
    lanes: LaneCounts,
    triage: TriageCounters,
    shed: u64,
}

/// Summary of a threaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedRunStats {
    /// Telemetry events ingested (INT reports and/or sFlow samples).
    pub events_in: u64,
    pub flows_created: u64,
    pub predictions: u64,
    pub attack_verdicts: u64,
    pub normal_verdicts: u64,
    pub pending_verdicts: u64,
    /// Ground-truth-aware tallies, populated when the source threaded
    /// labels through (e.g. a capture replay). All-zero for unlabeled
    /// live streams.
    pub labeled: RecallCounts,
    /// Online-adaptation tallies (drift flags, retrains, publishes).
    pub adapt: AdaptStats,
    /// Triage pre-filter tallies (lanes, shed, would-be verdicts).
    pub triage: TriageStats,
    /// Rows the ensemble voted on.
    pub rows_scored: u64,
    /// How many of those GNB and the forest split on, so the MLP had to
    /// break the tie. The predictor's per-row cost tracks this share.
    pub rows_escalated: u64,
    /// Trees the forest walked over those rows. Its early exit stops a
    /// row once the remaining trees cannot change its vote, so
    /// `trees_walked / rows_scored` is the forest's per-row cost in trees.
    pub trees_walked: u64,
    pub mean_latency_us: f64,
    pub max_latency_us: f64,
}

/// Sets a flag when dropped — survives panics, so [`RunHandle::drain`]
/// can never spin forever on a dead aggregator.
struct SetOnDrop(Arc<AtomicBool>);

impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The live multi-module pipeline.
pub struct ThreadedPipeline {
    db: FlowDatabase,
    /// The one swappable model handle every run's prediction thread
    /// reads — publish through (a clone of) it and the next micro-batch
    /// votes with the new epoch.
    handle: EpochHandle,
    shards: usize,
    adapt: Option<AdaptConfig>,
    prefilter: PrefilterMode,
    triage: TriageConfig,
}

impl ThreadedPipeline {
    pub fn new(bundle: ModelBundle) -> Self {
        Self::shared(EpochHandle::new(bundle))
    }

    /// Build the runtime over an existing epoch handle — the hot-swap
    /// entry point: whoever holds a clone of the handle can publish a
    /// fresh bundle into a live run.
    pub fn shared(handle: EpochHandle) -> Self {
        Self {
            db: FlowDatabase::new(),
            handle,
            shards: 1,
            adapt: None,
            prefilter: PrefilterMode::Off,
            triage: TriageConfig::default(),
        }
    }

    /// A clone of the swappable model handle (for external publishers
    /// and for inspecting the live epoch).
    pub fn model_handle(&self) -> EpochHandle {
        self.handle.clone()
    }

    /// Enable the shadow-trainer stage: a drift detector watching the
    /// benign feature distribution and a background retrainer that
    /// consumes labeled flows and atomically publishes fresh epochs into
    /// the live run. Requires a labeled source to have any effect.
    pub fn with_adaptation(mut self, adapt: AdaptConfig) -> Self {
        self.adapt = Some(adapt);
        self
    }

    /// Enable the triage pre-filter (`features::triage`): per-shard
    /// sketch state grades every flow update Forward/Defer/Drop.
    /// `Shadow` scores without gating (recall-parity measurement); `On`
    /// routes Defer onto a bounded low-priority lane the prediction
    /// thread drains only when the main lane is idle, and skips Drop
    /// entirely.
    pub fn with_prefilter(mut self, mode: PrefilterMode) -> Self {
        self.prefilter = mode;
        self
    }

    /// Tune the triage stage (thresholds, sketch sizes, alarm knobs).
    #[cfg(test)]
    fn with_triage_config(mut self, cfg: TriageConfig) -> Self {
        self.triage = cfg;
        self
    }

    /// Fan ingest across at least `shards` processor shards (rounded up
    /// to a power of two by the router). Per-flow order — and therefore
    /// every per-flow verdict sequence — is independent of the count,
    /// because a flow always routes to the same shard. Each shard's flow
    /// table gets the *full* default housekeeping limits (not a split
    /// budget): shard tables partition the flow space, and keeping
    /// per-shard limits identical to the single-shard ones is what makes
    /// shard count observable only as throughput.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    pub fn database(&self) -> &FlowDatabase {
        &self.db
    }

    /// Run the full pipeline over an in-memory `Vec` of events from any
    /// backend, in the order given: `start(IterSource) + join()`. The
    /// bundle must be trained on that backend's projection
    /// ([`crate::event::TelemetryBackend::feature_set`]). Blocks until
    /// every module drains; a panicked module thread surfaces as
    /// [`RuntimeError`] naming it.
    pub fn run<E: Into<LabeledEvent>>(
        &self,
        events: Vec<E>,
    ) -> Result<ThreadedRunStats, RuntimeError> {
        self.start(IterSource::from(events)).join()
    }

    /// Spawn the module threads over a streaming source and return the
    /// lifecycle handle. The run ends when the source reports
    /// [`BatchPoll::End`] (e.g. every channel sender dropped) or
    /// [`RunHandle::stop`] is called.
    pub fn start<S: EventSource + 'static>(&self, source: S) -> RunHandle {
        let router = ShardRouter::new(self.shards);
        let n_shards = router.shard_count();
        let clock = WallClock::new();
        let stop = Arc::new(AtomicBool::new(false));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));

        let mut shard_txs = Vec::with_capacity(n_shards);
        let mut shard_rxs = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            // The hop's capacity stays counted in events: a full channel
            // parks `CHANNEL_CAPACITY` reports, however they are batched.
            let (tx, rx) = bounded::<Vec<LabeledEvent>>(CHANNEL_CAPACITY / MAX_JOB_BATCH);
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }
        let (job_tx, job_rx) = bounded::<BatchJob>(BLOCKING_LANE_DEPTH);
        // The low-priority lane: deferred batches park here until the
        // prediction thread finds the main lane idle. Deep, because it
        // sheds rather than blocks: a processor that outruns the
        // predictor through a capture's dense minutes parks that
        // stretch's deferred work here and the predictor catches up in
        // the sparse ones. Measured
        // on bench_e2e's `day_triage`, a lane of 8 batches shed 21 k of
        // 33 k deferred updates per lap and one of 32 still 12–15 k;
        // this depth shed none, for about 2 MiB. Overflow is still
        // explicit, counted shed, never backpressure.
        let (defer_tx, defer_rx) = bounded::<BatchJob>(CHANNEL_CAPACITY);
        let (vote_tx, vote_rx) = bounded::<BatchVoted>(BLOCKING_LANE_DEPTH);

        // Optional adaptation stage: a bounded sample channel from the
        // aggregator (which sees rows + ground truth together) into a
        // shadow-trainer thread that watches for drift, retrains, and
        // publishes fresh epochs through the shared handle.
        let feature_set = self.handle.feature_set();
        let dim = feature_set.dim();
        let (sample_tx, adaptation) = match &self.adapt {
            Some(cfg) => {
                let (tx, rx) = bounded::<SampleBatch>(cfg.queue_capacity);
                let cfg = cfg.clone();
                let handle = self.handle.clone();
                let worker: JoinHandle<(u64, u64)> = std::thread::spawn(move || {
                    let dim = feature_set.dim();
                    let mut detector = DriftDetector::new(dim, cfg.drift);
                    let mut buf_rows: Vec<f64> = Vec::new();
                    let mut buf_labels: Vec<bool> = Vec::new();
                    let mut drift_events = 0u64;
                    let mut retrains = 0u64;
                    for batch in rx.iter() {
                        for (row, &label) in batch.rows.chunks_exact(dim).zip(&batch.labels) {
                            // Drift is defined over the *benign*
                            // distribution — attack rows must not be
                            // able to fake (or mask) a drift flag.
                            if !label && detector.observe_row(row) {
                                drift_events += 1;
                            }
                            buf_rows.extend_from_slice(row);
                            buf_labels.push(label);
                        }
                        // Sliding retraining window: oldest rows out.
                        if buf_labels.len() > cfg.max_buffer_rows {
                            let excess = buf_labels.len() - cfg.max_buffer_rows;
                            buf_labels.drain(..excess);
                            buf_rows.drain(..excess * dim);
                        }
                        let both_classes =
                            buf_labels.iter().any(|&l| l) && buf_labels.iter().any(|&l| !l);
                        if detector.drifted()
                            && both_classes
                            && buf_labels.len() >= cfg.min_train_rows
                        {
                            let mut data = Dataset::with_capacity(dim, buf_labels.len());
                            for (row, &label) in buf_rows.chunks_exact(dim).zip(&buf_labels) {
                                data.push(row, label);
                            }
                            let fresh = train_bundle(&data, feature_set, &cfg.trainer);
                            if handle.publish(fresh).is_ok() {
                                retrains += 1;
                            }
                            // The retrained distribution is the new
                            // baseline; stale moments must not re-trip.
                            detector.reset();
                        }
                    }
                    (drift_events, retrains)
                });
                (Some(tx), Some(worker))
            }
            None => (None, None),
        };

        // Buffer-recycling pools: shards return drained event buffers to
        // collection, aggregation returns drained BatchJob shells to
        // their owning shard and drained vote vectors to prediction.
        // Strictly non-blocking on both ends (try_recv to acquire,
        // try_send to return) so the pools can only ever save
        // allocations, never stall the pipeline.
        let (events_pool_tx, events_pool_rx) = bounded::<Vec<LabeledEvent>>(POOL_DEPTH);
        let mut pool_txs = Vec::with_capacity(n_shards);
        let mut pool_rxs = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let (tx, rx) = bounded::<BatchJob>(POOL_DEPTH);
            pool_txs.push(tx);
            pool_rxs.push(rx);
        }
        let (scratch_tx, scratch_rx) = bounded::<Vec<bool>>(POOL_DEPTH);

        // Module 1: Data Collection — drains the source (either
        // telemetry backend) a batch at a time and fans events out by
        // flow hash into one outgoing buffer per shard; both event kinds
        // carry the 5-tuple, so routing is backend-blind. A buffer
        // leaves when it is full, and every partial one whenever the
        // source has nothing more on hand. Exiting drops every shard
        // sender, which cascades shutdown through the whole pipeline.
        let collection: JoinHandle<u64> = {
            let stop = Arc::clone(&stop);
            let in_flight = Arc::clone(&in_flight);
            std::thread::spawn(move || {
                let mut source = source;
                let mut events_in = 0u64;
                let mut polled: Vec<LabeledEvent> = Vec::with_capacity(MAX_JOB_BATCH);
                let mut outbox: Vec<Vec<LabeledEvent>> = (0..n_shards)
                    .map(|_| Vec::with_capacity(MAX_JOB_BATCH))
                    .collect();
                // Send shard `i`'s buffer and put a recycled one in its
                // place; false once the shard is gone.
                let dispatch = |outbox: &mut [Vec<LabeledEvent>], i: usize| {
                    let fresh = events_pool_rx
                        .try_recv()
                        .unwrap_or_else(|_| Vec::with_capacity(MAX_JOB_BATCH));
                    let full = std::mem::replace(&mut outbox[i], fresh);
                    let n = full.len();
                    let sent = shard_txs[i].send(full).is_ok();
                    if !sent {
                        in_flight.fetch_sub(n, Ordering::AcqRel);
                    }
                    sent
                };
                let flush = |outbox: &mut [Vec<LabeledEvent>]| {
                    (0..n_shards).all(|i| outbox[i].is_empty() || dispatch(outbox, i))
                };
                'poll: while !stop.load(Ordering::Acquire) {
                    let poll = source.poll_batch(&mut polled, MAX_JOB_BATCH);
                    // In flight from the moment it is polled: drain()
                    // must also wait for an event parked in a partial
                    // buffer here.
                    in_flight.fetch_add(polled.len(), Ordering::AcqRel);
                    events_in += polled.len() as u64;
                    for event in polled.drain(..) {
                        let shard = router.route(event.event.flow());
                        outbox[shard].push(event);
                        if outbox[shard].len() >= MAX_JOB_BATCH && !dispatch(&mut outbox, shard) {
                            break 'poll;
                        }
                    }
                    match poll {
                        BatchPoll::More => {}
                        BatchPoll::Idle => {
                            if !flush(&mut outbox) {
                                break;
                            }
                            // Blocking sources already waited briefly
                            // before reporting Idle; just re-check the
                            // stop flag.
                            std::thread::yield_now();
                        }
                        BatchPoll::End => break,
                    }
                }
                // End of stream or stop(): what was polled still flows
                // through to the database.
                flush(&mut outbox);
                events_in
            })
        };

        // Module 2a: Data Processor shards — per-shard flow table + DB
        // tallies + the CentralServer's updates-only forwarding, via the
        // shared Processor stage. One event batch in, its judged updates
        // out: collection already flushes partial batches when the
        // source idles, so a trickling live source still sees its
        // updates predicted promptly.
        let prefilter = self.prefilter;
        let triage_cfg = self.triage;
        let processors: Vec<JoinHandle<ShardStats>> = shard_rxs
            .into_iter()
            .zip(pool_rxs)
            .enumerate()
            .map(|(shard_idx, (shard_rx, pool_rx))| {
                let db = self.db.clone();
                let job_tx = job_tx.clone();
                let defer_tx = defer_tx.clone();
                let events_pool_tx = events_pool_tx.clone();
                let in_flight = Arc::clone(&in_flight);
                std::thread::spawn(move || {
                    let mut processor =
                        Processor::new(FlowTableConfig::default(), db, clock, feature_set)
                            .with_prefilter(prefilter, triage_cfg);
                    // Both are empty again at the end of every turn.
                    let mut batch = BatchJob::empty(shard_idx);
                    let mut defer = BatchJob::empty(shard_idx);
                    let mut shed = 0u64;
                    for mut events in shard_rx.iter() {
                        for event in &events {
                            ingest_event(&mut processor, event, &mut batch, &mut defer, dim);
                        }
                        // Created flows retire from the in-flight count
                        // here (they never reach aggregation, §III-3),
                        // and so do triage-dropped updates (no verdict
                        // will ever be stored for them); judged ones
                        // retire after their verdict is stored.
                        let judged = batch.items.len() + defer.items.len();
                        in_flight.fetch_sub(events.len() - judged, Ordering::AcqRel);
                        events.clear();
                        let _ = events_pool_tx.try_send(events);
                        // Prefer a recycled shell (cleared by the
                        // aggregator) over a fresh allocation.
                        let shell = || {
                            pool_rx
                                .try_recv()
                                .unwrap_or_else(|_| BatchJob::empty(shard_idx))
                        };
                        if !batch.items.is_empty() {
                            let full = std::mem::replace(&mut batch, shell());
                            if job_tx.send(full).is_err() {
                                break;
                            }
                        }
                        if !defer.items.is_empty() {
                            let full = std::mem::replace(&mut defer, shell());
                            // Strictly non-blocking: a saturated deferred
                            // lane sheds, it never backpressures ingest —
                            // that is the lane's whole contract.
                            if let Err(err) = defer_tx.try_send(full) {
                                let mut rejected = match err {
                                    TrySendError::Full(job) => job,
                                    TrySendError::Disconnected(job) => job,
                                };
                                let n = rejected.items.len();
                                shed += n as u64;
                                in_flight.fetch_sub(n, Ordering::AcqRel);
                                rejected.items.clear();
                                rejected.rows.clear();
                                defer = rejected;
                            }
                        }
                    }
                    ShardStats {
                        created: processor.created(),
                        lanes: processor.lane_counts(),
                        triage: processor.triage_counters(),
                        shed,
                    }
                })
            })
            .collect();
        // The spawn loop cloned per-shard senders; drop the originals so
        // the job and defer channels close once every shard exits.
        drop(job_tx);
        drop(defer_tx);

        // Module 4: Prediction — shard batches fan back in here; one
        // scaler + early-exit ensemble pass per batch, against whatever
        // model epoch is published when the batch arrives (one wait-free
        // handle load per batch, so a hot-swap lands between batches,
        // never inside one). The thread hands back its vote tallies.
        let prediction: JoinHandle<(u64, u64, u64)> = {
            let handle = self.handle.clone();
            std::thread::spawn(move || {
                let mut predictor = Predictor::shared(handle);
                serve_lanes(
                    &mut predictor,
                    prefilter,
                    job_rx,
                    defer_rx,
                    &scratch_rx,
                    &vote_tx,
                );
                (
                    predictor.rows_scored(),
                    predictor.rows_escalated(),
                    predictor.trees_walked(),
                )
            })
        };

        // Module 2b: Data Processor (aggregation half) — smoothing +
        // the stored verdict with a real wall-clock prediction stamp.
        // When the source threaded labels through, every smoothed
        // verdict is also scored against its ground truth here, so the
        // run reports recall without a side-channel lookup table.
        let aggregator: JoinHandle<(VerdictCounts, RecallCounts, f64, f64, u64, u64)> = {
            let db = self.db.clone();
            let in_flight = Arc::clone(&in_flight);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let _done_guard = SetOnDrop(done);
                let mut agg = crate::modules::Aggregator::new(db, SMOOTHING_WINDOW);
                let mut labeled = RecallCounts::default();
                let mut samples_fed = 0u64;
                let mut samples_shed = 0u64;
                for batch in vote_rx.iter() {
                    let predicted_ns = clock.now_ns();
                    for (&(key, registered_ns, truth), &attack) in
                        batch.job.items.iter().zip(&batch.attacks)
                    {
                        let verdict =
                            agg.stage(key, attack, registered_ns, predicted_ns, batch.epoch);
                        if let Some(class) = truth {
                            labeled.observe(class.label(), verdict);
                        }
                    }
                    // Stored first, retired second: drain() promises the
                    // verdicts are in the database once nothing is in
                    // flight.
                    agg.commit();
                    in_flight.fetch_sub(batch.job.items.len(), Ordering::AcqRel);
                    // Feed the shadow trainer: the aggregator is the one
                    // stage that sees feature rows and ground truth side
                    // by side. Strictly non-blocking (try_send) — a busy
                    // trainer sheds samples, it never stalls verdicts.
                    if let Some(tx) = &sample_tx {
                        feed_trainer(&batch, dim, tx, &mut samples_fed, &mut samples_shed);
                    }
                    // Recycle: drained shells go home to their shard,
                    // vote vectors back to prediction. try_send — a full
                    // pool (or an exited stage) just drops the buffer.
                    let BatchVoted {
                        mut job,
                        mut attacks,
                        epoch: _,
                    } = batch;
                    job.items.clear();
                    job.rows.clear();
                    let _ = pool_txs[job.shard].try_send(job);
                    attacks.clear();
                    let _ = scratch_tx.try_send(attacks);
                }
                // Dropping sample_tx here disconnects the trainer's
                // receiver, which is what ends the adaptation thread.
                (
                    agg.counts(),
                    labeled,
                    agg.mean_latency_us(),
                    agg.max_latency_us(),
                    samples_fed,
                    samples_shed,
                )
            })
        };

        RunHandle {
            collection,
            processors,
            prediction,
            aggregator,
            adaptation,
            handle: self.handle.clone(),
            prefilter,
            stop,
            in_flight,
            done,
        }
    }
}

/// The prediction thread's loop: score batches off the main lane — and,
/// with the pre-filter on, off the deferred lane whenever the main one is
/// idle — until the shards hang up or aggregation exits.
fn serve_lanes(
    predictor: &mut Predictor,
    prefilter: PrefilterMode,
    job_rx: Receiver<BatchJob>,
    defer_rx: Receiver<BatchJob>,
    scratch_rx: &Receiver<Vec<bool>>,
    vote_tx: &Sender<BatchVoted>,
) {
    if prefilter != PrefilterMode::On {
        // No deferred lane to service (Off and Shadow both route
        // everything onto the main lane): the plain blocking loop, so
        // shadow's timing stays identical to off and its measurements
        // are apples-to-apples.
        drop(defer_rx);
        for job in job_rx.iter() {
            if !score_batch(predictor, job, scratch_rx, vote_tx) {
                return;
            }
        }
        return;
    }
    // Priority drain: the main lane is served strictly first; the
    // deferred lane is only touched when the main lane is momentarily
    // empty ("the Predictor drains it when idle").
    loop {
        match job_rx.try_recv() {
            Ok(job) => {
                if !score_batch(predictor, job, scratch_rx, vote_tx) {
                    return;
                }
                continue;
            }
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {}
        }
        if let Ok(job) = defer_rx.try_recv() {
            if !score_batch(predictor, job, scratch_rx, vote_tx) {
                return;
            }
            continue;
        }
        match job_rx.recv_timeout(IDLE_WAIT) {
            Ok(job) => {
                if !score_batch(predictor, job, scratch_rx, vote_tx) {
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Drain discipline: once the main lane closes, everything deferred
    // (and not shed) is still evaluated before the run ends — which is
    // what keeps verdict totals, and recall, shard-count invariant.
    for job in defer_rx.iter() {
        if !score_batch(predictor, job, scratch_rx, vote_tx) {
            return;
        }
    }
}

/// Score one batch through the shared ensemble and pass it to
/// aggregation. Returns `false` when aggregation has exited (time for
/// the prediction thread to stop too).
fn score_batch(
    predictor: &mut Predictor,
    job: BatchJob,
    scratch_rx: &Receiver<Vec<bool>>,
    vote_tx: &Sender<BatchVoted>,
) -> bool {
    // Vote buffers round-trip through aggregation and come back via the
    // scratch pool; predict() clears them.
    let mut attacks: Vec<bool> = scratch_rx.try_recv().unwrap_or_default();
    let epoch = predictor.predict(&job.rows, &mut attacks);
    vote_tx
        .send(BatchVoted {
            job,
            attacks,
            epoch,
        })
        .is_ok()
}

/// Copy a voted batch's labeled rows toward the shadow trainer over the
/// bounded sample channel. Only rows with ground truth ride along; an
/// unlabeled live stream feeds the trainer nothing.
fn feed_trainer(
    batch: &BatchVoted,
    dim: usize,
    tx: &Sender<SampleBatch>,
    samples_fed: &mut u64,
    samples_shed: &mut u64,
) {
    let labeled_rows = batch
        .job
        .items
        .iter()
        .filter(|(_, _, truth)| truth.is_some())
        .count();
    if labeled_rows == 0 {
        return;
    }
    // amlint: cold -- adaptation feed: allocates only when --adapt is on
    let mut rows = Vec::with_capacity(labeled_rows * dim);
    let mut labels = Vec::with_capacity(labeled_rows);
    for (&(_, _, truth), row) in batch.job.items.iter().zip(batch.job.rows.chunks_exact(dim)) {
        if let Some(class) = truth {
            // amlint: cold -- adaptation feed: allocates only when --adapt is on
            rows.extend_from_slice(row);
            labels.push(class.label());
        }
    }
    let n = labels.len() as u64;
    match tx.try_send(SampleBatch { rows, labels }) {
        Ok(()) => *samples_fed += n,
        Err(_) => *samples_shed += n,
    }
}

/// One telemetry event (either backend) through the shared Processor
/// stage, batching judged updates into their triage lane. A deferred
/// update's feature row migrates from the main batch (where
/// `Processor::ingest` appended it) into the defer batch, keeping the
/// two row buffers parallel to their item lists. The event's ground
/// truth, if any, rides along with the judged item so aggregation can
/// score the verdict.
// amlint: hot
fn ingest_event<C: Clock>(
    processor: &mut Processor<C>,
    event: &LabeledEvent,
    batch: &mut BatchJob,
    defer: &mut BatchJob,
    dim: usize,
) {
    if let Ingest::Judged(judged) = processor.ingest(&event.event, &mut batch.rows) {
        if judged.lane == TriageVerdict::Defer {
            let split = batch.rows.len() - dim;
            // amlint: cold -- pooled BatchJob buffer, reused across batches
            defer.rows.extend_from_slice(&batch.rows[split..]);
            batch.rows.truncate(split);
            defer
                .items
                // amlint: cold -- pooled BatchJob buffer, reused across batches
                .push((judged.key, judged.registered_ns, event.truth));
        } else {
            batch
                .items
                // amlint: cold -- pooled BatchJob buffer, reused across batches
                .push((judged.key, judged.registered_ns, event.truth));
        }
    }
}

/// Consecutive zero-in-flight observations [`RunHandle::drain`] requires
/// before declaring the pipeline quiescent (spaced [`DRAIN_POLL`] apart —
/// long enough for a report sitting in a channel source's buffer to be
/// polled up and counted).
const DRAIN_STABLE_POLLS: u32 = 5;
const DRAIN_POLL: Duration = Duration::from_micros(400);

/// A running threaded pipeline: the explicit lifecycle around
/// [`ThreadedPipeline::start`].
pub struct RunHandle {
    collection: JoinHandle<u64>,
    processors: Vec<JoinHandle<ShardStats>>,
    /// Returns (rows scored, rows escalated to the MLP, trees walked).
    prediction: JoinHandle<(u64, u64, u64)>,
    aggregator: JoinHandle<(VerdictCounts, RecallCounts, f64, f64, u64, u64)>,
    /// The shadow-trainer thread, present when adaptation is enabled.
    /// Returns (drift events, retrains published).
    adaptation: Option<JoinHandle<(u64, u64)>>,
    /// The run's model handle, for stamping final-epoch stats and for
    /// callers that want to publish into the live run.
    handle: EpochHandle,
    /// Which pre-filter mode the run was started with (stamped into the
    /// final stats).
    prefilter: PrefilterMode,
    stop: Arc<AtomicBool>,
    in_flight: Arc<AtomicUsize>,
    done: Arc<AtomicBool>,
}

impl RunHandle {
    /// Ask collection to stop reading the source. Reports already
    /// ingested still flow through to the database; follow with
    /// [`RunHandle::join`] to wait for that.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Block until everything ingested so far has been fully processed
    /// (its verdict stored) — the pipeline stays running and the source
    /// stays open. Returns immediately if the pipeline already shut
    /// down.
    pub fn drain(&self) {
        let mut stable = 0u32;
        while stable < DRAIN_STABLE_POLLS {
            if self.done.load(Ordering::Acquire) {
                return;
            }
            if self.in_flight.load(Ordering::Acquire) == 0 {
                stable += 1;
            } else {
                stable = 0;
            }
            std::thread::sleep(DRAIN_POLL);
        }
    }

    /// Wait for the source to end (or [`RunHandle::stop`]) and every
    /// module thread to exit. Joins ALL threads before reporting any
    /// failure: a panicked module drops its channel endpoints, which
    /// drains the others to completion — erroring out early would leave
    /// them detached and still writing to the shared database.
    pub fn join(self) -> Result<ThreadedRunStats, RuntimeError> {
        let col = self.collection.join().map_err(|_| RuntimeError {
            module: "collection",
        });
        let mut flows_created = 0u64;
        let mut lanes = LaneCounts::default();
        let mut would = TriageCounters::default();
        let mut shed = 0u64;
        let mut shard_err = None;
        for shard in self.processors {
            match shard.join() {
                Ok(stats) => {
                    flows_created += stats.created;
                    lanes.merge(&stats.lanes);
                    would.merge(&stats.triage);
                    shed += stats.shed;
                }
                Err(_) => {
                    shard_err = Some(RuntimeError {
                        module: "processor",
                    });
                }
            }
        }
        let pred = self.prediction.join().map_err(|_| RuntimeError {
            module: "prediction",
        });
        let agg = self.aggregator.join().map_err(|_| RuntimeError {
            module: "aggregator",
        });
        // The aggregator dropping its sample sender is what disconnects
        // the trainer's receiver, so this join comes after the
        // aggregator's and cannot hang.
        let adapt_out = match self.adaptation {
            Some(worker) => Some(worker.join().map_err(|_| RuntimeError {
                module: "adaptation",
            })?),
            None => None,
        };
        let events_in = col?;
        if let Some(err) = shard_err {
            return Err(err);
        }
        let (rows_scored, rows_escalated, trees_walked) = pred?;
        let (counts, labeled, mean_latency_us, max_latency_us, samples_fed, samples_shed) = agg?;
        let (drift_events, retrains) = adapt_out.unwrap_or((0, 0));

        Ok(ThreadedRunStats {
            events_in,
            flows_created,
            predictions: counts.predictions,
            attack_verdicts: counts.attacks,
            normal_verdicts: counts.normals,
            pending_verdicts: counts.pendings,
            labeled,
            adapt: AdaptStats {
                samples_fed,
                samples_shed,
                drift_events,
                retrains,
                final_epoch: self.handle.current_epoch(),
            },
            triage: TriageStats {
                mode: self.prefilter,
                forwarded: lanes.forwarded,
                deferred: lanes.deferred,
                dropped: lanes.dropped,
                shed,
                would,
            },
            rows_scored,
            rows_escalated,
            trees_walked,
            mean_latency_us,
            max_latency_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ChannelSource;
    use crate::trainer::{dataset_from_events, train_bundle, TrainerConfig};
    use amlight_features::FeatureSet;
    use amlight_int::{HopMetadata, InstructionSet, TelemetryReport};
    use amlight_ml::MlpConfig;
    use amlight_net::{Protocol, TrafficClass};
    use std::net::Ipv4Addr;

    fn report(port: u16, t_ns: u64, len: u16, qocc: u32) -> TelemetryReport {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(7, 7, 7, 7),
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
                egress_tstamp: (t_ns as u32).wrapping_add(400),
                hop_latency: 0,
                queue_occupancy: qocc,
            }]
            .into(),
            export_ns: t_ns,
        }
    }

    fn capture(n: usize) -> Vec<(TelemetryReport, TrafficClass)> {
        let mut v = Vec::new();
        for i in 0..n as u64 {
            v.push((
                report(1000 + (i % 5) as u16, i * 1_000_000, 800, 0),
                TrafficClass::Benign,
            ));
            v.push((
                report(2000 + (i % 3) as u16, i * 3_000, 40, 20),
                TrafficClass::SynFlood,
            ));
        }
        v.sort_by_key(|(r, _)| r.export_ns);
        v
    }

    fn bundle() -> ModelBundle {
        let train = capture(200);
        let raw = dataset_from_events(&train, FeatureSet::full());
        train_bundle(
            &raw,
            FeatureSet::full(),
            &TrainerConfig {
                mlp: MlpConfig {
                    epochs: 8,
                    ..MlpConfig::paper_mlp()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn threaded_run_processes_everything() {
        let pipe = ThreadedPipeline::new(bundle());
        let reports: Vec<TelemetryReport> = capture(100).into_iter().map(|(r, _)| r).collect();
        let n = reports.len() as u64;
        let stats = pipe.run(reports).expect("no module panicked");
        assert_eq!(stats.events_in, n);
        assert_eq!(stats.flows_created, 8); // 5 benign + 3 attack flows
        assert_eq!(stats.predictions, n - 8);
        assert_eq!(
            stats.attack_verdicts + stats.normal_verdicts + stats.pending_verdicts,
            stats.predictions
        );
        assert_eq!(
            pipe.database().predictions().len() as u64,
            stats.predictions
        );
    }

    #[test]
    fn latency_is_measured_and_positive() {
        let pipe = ThreadedPipeline::new(bundle());
        let reports: Vec<TelemetryReport> = capture(50).into_iter().map(|(r, _)| r).collect();
        let stats = pipe.run(reports).expect("no module panicked");
        assert!(stats.mean_latency_us > 0.0);
        assert!(stats.max_latency_us >= stats.mean_latency_us);
    }

    #[test]
    fn detects_attacks_in_live_mode() {
        let pipe = ThreadedPipeline::new(bundle());
        // Attack-only stream (skip benign) — most verdicts should be
        // attack once smoothing warms up.
        let reports: Vec<TelemetryReport> = capture(120)
            .into_iter()
            .filter(|(_, c)| *c == TrafficClass::SynFlood)
            .map(|(r, _)| r)
            .collect();
        let stats = pipe.run(reports).expect("no module panicked");
        assert!(
            stats.attack_verdicts > stats.normal_verdicts,
            "attacks {} vs normals {}",
            stats.attack_verdicts,
            stats.normal_verdicts
        );
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let pipe = ThreadedPipeline::new(bundle());
        let stats = pipe
            .run(Vec::<TelemetryReport>::new())
            .expect("no module panicked");
        assert_eq!(stats.events_in, 0);
        assert_eq!(stats.predictions, 0);
        assert_eq!(stats.mean_latency_us, 0.0);
    }

    #[test]
    fn wall_clock_prediction_stamps_are_real() {
        let pipe = ThreadedPipeline::new(bundle());
        let reports: Vec<TelemetryReport> = capture(40).into_iter().map(|(r, _)| r).collect();
        pipe.run(reports).expect("no module panicked");
        let preds = pipe.database().predictions();
        assert!(!preds.is_empty());
        for p in preds {
            assert!(p.predicted_ns > 0, "placeholder stamp leaked through");
            assert!(p.latency_ns <= p.predicted_ns);
        }
    }

    /// A [`ChannelSource`] that signals once collection has taken
    /// `signal_at` events: on the poll after the one that handed over the
    /// last of them, so collection has already counted them in flight.
    struct SignallingSource {
        inner: ChannelSource,
        handed: usize,
        signal_at: usize,
        taken: Option<std::sync::mpsc::Sender<()>>,
    }

    impl EventSource for SignallingSource {
        fn poll_event(&mut self) -> crate::source::SourcePoll {
            unreachable!("the runtime polls batches")
        }

        fn poll_batch(&mut self, out: &mut Vec<LabeledEvent>, max: usize) -> BatchPoll {
            if self.handed >= self.signal_at {
                if let Some(taken) = self.taken.take() {
                    let _ = taken.send(());
                }
            }
            let before = out.len();
            let poll = self.inner.poll_batch(out, max);
            self.handed += out.len() - before;
            poll
        }
    }

    #[test]
    fn channel_source_lifecycle_drain_then_join() {
        let pipe = ThreadedPipeline::new(bundle()).with_shards(2);
        let reports: Vec<TelemetryReport> = capture(60).into_iter().map(|(r, _)| r).collect();
        let n = reports.len() as u64;
        let (first, rest) = reports.split_at(reports.len() / 2);
        let (tx, inner) = ChannelSource::bounded(64);
        let (taken_tx, taken_rx) = std::sync::mpsc::channel();
        let handle = pipe.start(SignallingSource {
            inner,
            handed: 0,
            signal_at: first.len(),
            taken: Some(taken_tx),
        });

        for r in first {
            tx.send(r.clone().into()).expect("pipeline is live");
        }
        // drain() waits only for what collection has taken, so wait for
        // collection to take the first half before draining it.
        taken_rx.recv().expect("collection took the first half");
        handle.drain();
        let mid = pipe.database().prediction_count();
        assert!(mid > 0, "drained pipeline must have stored verdicts");

        for r in rest {
            tx.send(r.clone().into()).expect("pipeline is live");
        }
        drop(tx); // end of stream
        let stats = handle.join().expect("no module panicked");
        assert_eq!(stats.events_in, n);
        assert_eq!(stats.flows_created, 8);
        assert_eq!(stats.predictions, n - 8);
        assert!(pipe.database().prediction_count() >= mid);
    }

    /// A labeled stream whose benign distribution steps halfway through:
    /// packet sizes collapse and queues build, several sigma away from
    /// the prefix — exactly the diurnal-shift scenario §IV-A motivates.
    fn drifting_capture(n: usize) -> Vec<(TelemetryReport, TrafficClass)> {
        let mut v = Vec::new();
        for i in 0..n as u64 {
            let (len, qocc) = if (i as usize) < n / 2 {
                (800, 0)
            } else {
                (200, 10)
            };
            v.push((
                report(1000 + (i % 5) as u16, i * 1_000_000, len, qocc),
                TrafficClass::Benign,
            ));
            v.push((
                report(2000 + (i % 3) as u16, i * 3_000, 40, 20),
                TrafficClass::SynFlood,
            ));
        }
        v.sort_by_key(|(r, _)| r.export_ns);
        v
    }

    /// A second bundle trained on different data — genuinely different
    /// weights, same feature set, so a swap changes the epoch stamp
    /// without invalidating the pipeline's feature rows.
    fn other_bundle() -> ModelBundle {
        let train = drifting_capture(200);
        let raw = dataset_from_events(&train, FeatureSet::full());
        train_bundle(
            &raw,
            FeatureSet::full(),
            &TrainerConfig {
                mlp: MlpConfig {
                    epochs: 4,
                    ..MlpConfig::paper_mlp()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn hot_swap_mid_run_drops_nothing_and_stamps_both_epochs() {
        let pipe = ThreadedPipeline::new(bundle()).with_shards(2);
        let reports: Vec<TelemetryReport> = capture(80).into_iter().map(|(r, _)| r).collect();
        let n = reports.len() as u64;
        let (tx, source) = ChannelSource::bounded(64);
        let handle = pipe.start(source);

        let (first, rest) = reports.split_at(reports.len() / 2);
        for r in first {
            tx.send(r.clone().into()).expect("pipeline is live");
        }
        handle.drain();

        // Publish a genuinely different bundle into the live run.
        let model = pipe.model_handle();
        assert_eq!(model.current_epoch(), 0);
        model.publish(other_bundle()).expect("same feature set");
        assert_eq!(model.current_epoch(), 1);

        for r in rest {
            tx.send(r.clone().into()).expect("pipeline is live");
        }
        drop(tx);
        let stats = handle.join().expect("no module panicked");

        // Zero dropped events: everything ingested was either a flow
        // creation or produced a stored verdict.
        assert_eq!(stats.events_in, n);
        assert_eq!(stats.flows_created + stats.predictions, n);
        assert_eq!(
            pipe.database().predictions().len() as u64,
            stats.predictions
        );
        // Both epochs voted, and the boundary is clean: epoch is
        // monotonic over the stored sequence (one handle load per batch,
        // so no batch straddles the swap).
        assert_eq!(pipe.database().epochs_used(), vec![0, 1]);
        assert_eq!(stats.adapt.final_epoch, 1);
    }

    #[test]
    fn identical_bundle_swap_is_invisible_to_verdicts() {
        let b = bundle();
        let reports: Vec<TelemetryReport> = capture(60).into_iter().map(|(r, _)| r).collect();

        let frozen = ThreadedPipeline::new(b.clone());
        let baseline = frozen.run(reports.clone()).expect("no module panicked");

        let swapped = ThreadedPipeline::new(b.clone());
        let (tx, source) = ChannelSource::bounded(64);
        let handle = swapped.start(source);
        let (first, rest) = reports.split_at(reports.len() / 2);
        for r in first {
            tx.send(r.clone().into()).expect("pipeline is live");
        }
        handle.drain();
        // Same weights, new epoch: votes cannot change, stamps must.
        swapped.model_handle().publish(b).expect("same feature set");
        for r in rest {
            tx.send(r.clone().into()).expect("pipeline is live");
        }
        drop(tx);
        let stats = handle.join().expect("no module panicked");

        assert_eq!(stats.attack_verdicts, baseline.attack_verdicts);
        assert_eq!(stats.normal_verdicts, baseline.normal_verdicts);
        assert_eq!(stats.pending_verdicts, baseline.pending_verdicts);
        assert_eq!(swapped.database().epochs_used(), vec![0, 1]);
    }

    #[test]
    fn adaptation_detects_drift_and_publishes_a_fresh_epoch() {
        let adapt = AdaptConfig {
            drift: DriftConfig {
                delta: 0.05,
                lambda: 15.0,
                min_samples: 128,
            },
            trainer: TrainerConfig {
                mlp: MlpConfig {
                    epochs: 2,
                    ..MlpConfig::paper_mlp()
                },
                ..Default::default()
            },
            max_buffer_rows: 4_096,
            min_train_rows: 64,
            queue_capacity: 1_024,
        };
        let pipe = ThreadedPipeline::new(bundle()).with_adaptation(adapt);
        let labeled = drifting_capture(600);
        let n = labeled.len() as u64;
        let handle = pipe.start(crate::source::ReplaySource::new(labeled));
        let stats = handle.join().expect("no module panicked");

        // Nothing dropped while the shadow trainer ran.
        assert_eq!(stats.events_in, n);
        assert_eq!(stats.flows_created + stats.predictions, n);
        // The benign step tripped the detector and a retrained bundle
        // was actually published into the live run.
        assert!(stats.adapt.samples_fed > 0, "aggregator fed the trainer");
        assert!(stats.adapt.drift_events >= 1, "benign step must trip");
        assert!(stats.adapt.retrains >= 1, "drift flag must retrain");
        assert_eq!(
            stats.adapt.final_epoch, stats.adapt.retrains,
            "every publish is one epoch, starting from the offline 0"
        );
    }

    #[test]
    fn adaptation_stats_are_zero_without_the_stage() {
        let pipe = ThreadedPipeline::new(bundle());
        let reports: Vec<TelemetryReport> = capture(20).into_iter().map(|(r, _)| r).collect();
        let stats = pipe.run(reports).expect("no module panicked");
        assert_eq!(stats.adapt, AdaptStats::default());
    }

    /// Default triage knobs with the aggregate alarm disabled — these
    /// tests exercise the per-flow lanes, not the alarm heuristics.
    fn quiet_triage() -> TriageConfig {
        TriageConfig {
            alarm_min_events: u64::MAX,
            ..TriageConfig::default()
        }
    }

    #[test]
    fn prefilter_on_cuts_predictor_load_and_accounts_every_update() {
        let reports: Vec<TelemetryReport> = capture(150).into_iter().map(|(r, _)| r).collect();
        let n = reports.len() as u64;

        let off = ThreadedPipeline::new(bundle());
        let base = off.run(reports.clone()).expect("no module panicked");
        assert_eq!(base.predictions, n - 8);
        // Off still tallies the (sole) lane; the scorer never ran.
        assert_eq!(
            base.triage,
            TriageStats {
                forwarded: n - 8,
                ..TriageStats::default()
            }
        );

        let on = ThreadedPipeline::new(bundle())
            .with_prefilter(PrefilterMode::On)
            .with_triage_config(quiet_triage());
        let stats = on.run(reports).expect("no module panicked");
        let t = stats.triage;
        assert_eq!(t.mode, PrefilterMode::On);
        assert!(t.dropped > 0, "flood updates must be decimated");
        // Conservation: every ingested event is a flow creation, a
        // stored verdict, a triage drop, or explicit shed — nothing
        // vanishes silently.
        assert_eq!(
            stats.flows_created + stats.predictions + t.dropped + t.shed,
            stats.events_in
        );
        assert_eq!(stats.predictions, t.evaluated());
        assert!(
            stats.predictions < base.predictions,
            "gating must cut predictor load: {} vs {}",
            stats.predictions,
            base.predictions
        );
        assert_eq!(on.database().predictions().len() as u64, stats.predictions);
    }

    #[test]
    fn prefilter_shadow_is_invisible_to_the_predictor() {
        let reports: Vec<TelemetryReport> = capture(100).into_iter().map(|(r, _)| r).collect();
        let n = reports.len() as u64;
        let pipe = ThreadedPipeline::new(bundle())
            .with_shards(2)
            .with_prefilter(PrefilterMode::Shadow)
            .with_triage_config(quiet_triage());
        let stats = pipe.run(reports).expect("no module panicked");
        let t = stats.triage;
        assert_eq!(stats.predictions, n - 8, "shadow gates nothing");
        assert_eq!(t.mode, PrefilterMode::Shadow);
        assert_eq!((t.deferred, t.dropped, t.shed), (0, 0, 0));
        assert_eq!(t.forwarded, stats.predictions);
        assert!(t.would.drop > 0, "the scorer still reports would-be drops");
        assert_eq!(t.would.scored, n - 8);
    }

    /// Events the database can account for: creations plus stored
    /// verdicts.
    fn accounted(pipe: &ThreadedPipeline) -> u64 {
        let db = pipe.database();
        db.created_count() + db.prediction_count() as u64
    }

    #[test]
    fn drain_waits_for_a_partial_batch_on_an_open_source() {
        let pipe = ThreadedPipeline::new(bundle());
        let (tx, source) = ChannelSource::bounded(8);
        let handle = pipe.start(source);
        // Three events of one flow — nowhere near a full batch — and the
        // sender stays open, so only the idle flush can move them.
        for i in 0..3 {
            tx.send(report(1000, i * 1_000_000, 800, 0).into())
                .expect("pipeline is live");
        }
        handle.drain();
        assert_eq!(pipe.database().created_count(), 1);
        assert_eq!(pipe.database().prediction_count(), 2);
        drop(tx);
        let stats = handle.join().expect("no module panicked");
        assert_eq!(stats.events_in, 3);
    }

    /// Hands over three events as a full batch (`More`, so collection
    /// parks them unflushed), then blocks in its next poll until released.
    struct GatedSource {
        events: Vec<LabeledEvent>,
        parked: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl EventSource for GatedSource {
        fn poll_event(&mut self) -> crate::source::SourcePoll {
            unreachable!("the runtime polls batches")
        }

        fn poll_batch(&mut self, out: &mut Vec<LabeledEvent>, _max: usize) -> BatchPoll {
            if self.events.is_empty() {
                let _ = self.parked.send(());
                let _ = self.release.recv();
                return BatchPoll::End;
            }
            out.append(&mut self.events);
            BatchPoll::More
        }
    }

    #[test]
    fn drain_counts_events_parked_in_collection_as_in_flight() {
        let pipe = ThreadedPipeline::new(bundle());
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let handle = pipe.start(GatedSource {
            events: (0..3)
                .map(|i| report(1000, i * 1_000_000, 800, 0).into())
                .collect(),
            parked: parked_tx,
            release: release_rx,
        });
        parked_rx.recv().expect("source reached its second poll");
        // The three events now sit in collection's partial buffer and
        // nothing will flush them until the source is released, so a
        // correct drain() cannot return before that. The pause only
        // gives a wrong one time to.
        let accounted_after_drain = std::thread::scope(|scope| {
            let drained = scope.spawn(|| {
                handle.drain();
                accounted(&pipe)
            });
            std::thread::sleep(DRAIN_POLL * 4 * DRAIN_STABLE_POLLS);
            release_tx.send(()).expect("source is waiting");
            drained.join().expect("drain returned")
        });
        assert_eq!(accounted_after_drain, 3);
        handle.join().expect("no module panicked");
    }

    #[test]
    fn a_trickling_source_gets_each_verdict_without_filling_a_batch() {
        let pipe = ThreadedPipeline::new(bundle()).with_shards(2);
        let (tx, source) = ChannelSource::bounded(8);
        let handle = pipe.start(source);
        for i in 0..6u64 {
            tx.send(report(1000 + (i % 2) as u16, i * 1_000_000, 800, 0).into())
                .expect("pipeline is live");
            // drain() is the only synchronisation: it returns once this
            // one event's creation or verdict is in the database.
            handle.drain();
            assert_eq!(accounted(&pipe), i + 1, "event {i} waited for company");
        }
        drop(tx);
        let stats = handle.join().expect("no module panicked");
        assert_eq!(stats.flows_created + stats.predictions, 6);
    }

    #[test]
    fn full_speed_prefilter_replay_evaluates_every_deferred_update() {
        let labeled = capture(400);
        let pipe = ThreadedPipeline::new(bundle())
            .with_prefilter(PrefilterMode::On)
            .with_triage_config(quiet_triage());
        let stats = pipe
            .start(crate::source::ReplaySource::new(labeled))
            .join()
            .expect("no module panicked");
        let t = stats.triage;
        assert!(t.deferred > 0, "steady benign flows defer");
        assert_eq!(
            stats.flows_created + stats.predictions + t.dropped + t.shed,
            stats.events_in
        );
        // The lane is as deep as every other hop, so a replay this size
        // cannot fill it: nothing is shed, every deferred update is scored.
        assert_eq!(t.shed, 0);
        assert_eq!(stats.predictions, t.forwarded + t.deferred);
    }

    #[test]
    fn stop_ends_collection_early() {
        let pipe = ThreadedPipeline::new(bundle());
        let (tx, source) = ChannelSource::bounded(64);
        let handle = pipe.start(source);
        for r in capture(10).into_iter().map(|(r, _)| r) {
            tx.send(r.into()).expect("pipeline is live");
        }
        handle.drain();
        handle.stop();
        // Sender still alive: only stop() can end this run.
        let stats = handle.join().expect("no module panicked");
        assert_eq!(stats.events_in, 20);
        drop(tx);
    }
}
