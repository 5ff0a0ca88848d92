//! The flow database at the center of Fig. 2.
//!
//! In the paper the Data Processor keeps **one record per flow** in a
//! database and the CentralServer *polls it for changes*, skipping
//! brand-new entries — "it does not consider new entries with new Flow
//! IDs, but focuses on existing records from their first update"
//! (§III-3). Here the one-record-per-flow store is the
//! [`amlight_features::FlowTable`] each processor shard owns, and the
//! poll is the updates-only forwarding rule inside
//! [`crate::modules::Processor::ingest`]: an update is handed to
//! Prediction in the same call that applies it, so nothing is copied
//! into a second per-flow map or a change log that no module reads
//! back.
//!
//! What the shared handle keeps is what the modules really exchange
//! through it: lock-free tallies of the records the processors wrote
//! (creations and updates), and the append-only list of stored
//! [`PredictionRecord`]s behind a `parking_lot::RwLock`.

use amlight_features::FeatureVector;
use amlight_net::flow::FnvHashMap;
use amlight_net::FlowKey;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stored model verdict for one flow update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionRecord {
    pub key: FlowKey,
    /// Aggregated (ensemble + smoothing) label; None while smoothing is
    /// still pending.
    pub label: Option<bool>,
    /// Publication epoch of the model bundle that voted on this update
    /// (see [`crate::epoch::EpochHandle`]) — which model said this, as a
    /// database column instead of deployment-log archaeology.
    pub epoch: u64,
    /// When the prediction was produced, virtual collector clock ns.
    pub predicted_ns: u64,
    /// predicted_ns − registered_ns.
    pub latency_ns: u64,
}

#[derive(Debug, Default)]
struct DbInner {
    /// Flow records created / updated by the processor shards. Plain
    /// tallies that publish no other data, hence `Relaxed`.
    created: AtomicU64,
    updated: AtomicU64,
    /// Stored predictions, append-only.
    predictions: RwLock<Vec<PredictionRecord>>,
}

/// Shared handle to the database.
#[derive(Debug, Clone, Default)]
pub struct FlowDatabase {
    inner: Arc<DbInner>,
}

impl FlowDatabase {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a freshly *created* flow entry. The record itself lives in
    /// the caller's flow table; creations are never forwarded (§III-3).
    #[inline]
    pub fn record_created(&self, _key: FlowKey, _features: FeatureVector, _registered_ns: u64) {
        self.inner.created.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an *update* to an existing flow — what the CentralServer's
    /// poll would have seen. Returns the update's position in the global
    /// update sequence.
    #[inline]
    pub fn record_updated(
        &self,
        _key: FlowKey,
        _update_seq: u64,
        _features: FeatureVector,
        _registered_ns: u64,
    ) -> u64 {
        self.inner.updated.fetch_add(1, Ordering::Relaxed)
    }

    /// Store an aggregated prediction (§III-2, item 8).
    pub fn store_prediction(&self, rec: PredictionRecord) {
        self.inner.predictions.write().push(rec);
    }

    /// Store a whole voted batch under one lock acquisition, in order.
    /// `recs` is left empty with its capacity intact, so the caller can
    /// refill it for the next batch.
    pub fn store_predictions(&self, recs: &mut Vec<PredictionRecord>) {
        self.inner.predictions.write().append(recs);
    }

    pub fn predictions(&self) -> Vec<PredictionRecord> {
        self.inner.predictions.read().clone()
    }

    /// Cursor-based incremental read of stored predictions: everything
    /// from index `since` on, plus the next cursor value. Stats pollers
    /// use this instead of [`FlowDatabase::predictions`], which clones
    /// the entire append-only history on every call.
    pub fn predictions_since(&self, since: usize) -> (Vec<PredictionRecord>, usize) {
        let g = self.inner.predictions.read();
        let start = since.min(g.len());
        (g[start..].to_vec(), g.len())
    }

    pub fn prediction_count(&self) -> usize {
        self.inner.predictions.read().len()
    }

    /// Per-flow verdict sequences, in each flow's own prediction order.
    ///
    /// Store order *across* flows is nondeterministic once processor
    /// shards aggregate concurrently, but each flow's predictions are
    /// produced by exactly one shard in arrival order — so this grouping
    /// is the shard-count-invariant view of a run (used by the
    /// shard-invariance tests and stats tooling).
    pub fn verdict_sequences(&self) -> FnvHashMap<FlowKey, Vec<Option<bool>>> {
        let g = self.inner.predictions.read();
        let mut out: FnvHashMap<FlowKey, Vec<Option<bool>>> = FnvHashMap::default();
        for p in g.iter() {
            out.entry(p.key).or_default().push(p.label);
        }
        out
    }

    /// Distinct model epochs that produced stored predictions, sorted.
    /// A hot-swapped run shows every epoch that actually voted — the
    /// observability half of the epoch publication protocol.
    pub fn epochs_used(&self) -> Vec<u64> {
        let g = self.inner.predictions.read();
        let mut epochs: Vec<u64> = g.iter().map(|p| p.epoch).collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }

    /// Flow records created so far, across every processor shard. A flow
    /// that was evicted and came back counts again; the live ones are in
    /// the shards' flow tables.
    pub fn created_count(&self) -> u64 {
        self.inner.created.load(Ordering::Relaxed)
    }

    /// [`FlowDatabase::created_count`] as a size.
    pub fn flow_count(&self) -> usize {
        self.created_count() as usize
    }

    /// Flow updates recorded so far — everything the forwarding rule saw.
    pub fn update_count(&self) -> usize {
        self.inner.updated.load(Ordering::Relaxed) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_net::Protocol;
    use std::net::Ipv4Addr;

    fn key(p: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            p,
            80,
            Protocol::Tcp,
        )
    }

    fn feat() -> FeatureVector {
        FeatureVector::default()
    }

    fn pred(port: u16, label: Option<bool>, epoch: u64, at: u64) -> PredictionRecord {
        PredictionRecord {
            key: key(port),
            label,
            epoch,
            predicted_ns: at,
            latency_ns: at / 2,
        }
    }

    #[test]
    fn creations_and_updates_are_tallied_apart() {
        let db = FlowDatabase::new();
        db.record_created(key(1), feat(), 100);
        assert_eq!((db.created_count(), db.update_count()), (1, 0));
        // Updates number themselves in recording order.
        assert_eq!(db.record_updated(key(1), 1, feat(), 200), 0);
        assert_eq!(db.record_updated(key(1), 2, feat(), 300), 1);
        db.record_created(key(2), feat(), 400);
        assert_eq!(db.created_count(), 2);
        assert_eq!(db.flow_count(), 2);
        assert_eq!(db.update_count(), 2);
        assert_eq!(db.prediction_count(), 0, "records are not verdicts");
    }

    #[test]
    fn predictions_accumulate() {
        let db = FlowDatabase::new();
        db.store_prediction(pred(1, Some(true), 0, 900));
        db.store_prediction(pred(1, None, 1, 950));
        let preds = db.predictions();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].label, Some(true));
        assert_eq!(preds[1].label, None);
        assert_eq!(db.epochs_used(), vec![0, 1]);
    }

    #[test]
    fn a_batch_store_appends_in_order_and_hands_the_buffer_back() {
        let db = FlowDatabase::new();
        db.store_prediction(pred(1, None, 0, 10));
        let mut batch = vec![pred(2, Some(true), 0, 20), pred(3, Some(false), 0, 30)];
        let capacity = batch.capacity();
        db.store_predictions(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), capacity);
        let ports: Vec<u16> = db.predictions().iter().map(|p| p.key.src_port).collect();
        assert_eq!(ports, vec![1, 2, 3]);
        // An empty batch stores nothing.
        db.store_predictions(&mut batch);
        assert_eq!(db.prediction_count(), 3);
    }

    #[test]
    fn predictions_since_is_exactly_once() {
        let db = FlowDatabase::new();
        for i in 0..5u64 {
            db.store_prediction(pred(1, Some(i % 2 == 0), 0, i * 100));
        }
        let (first, cursor) = db.predictions_since(0);
        assert_eq!(first.len(), 5);
        assert_eq!(cursor, 5);
        // Nothing new: empty, cursor stable.
        let (empty, cursor2) = db.predictions_since(cursor);
        assert!(empty.is_empty());
        assert_eq!(cursor2, cursor);
        // New records appear exactly once; stale cursors past the end
        // are clamped.
        db.store_prediction(pred(2, None, 0, 900));
        let (more, cursor3) = db.predictions_since(cursor);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].key, key(2));
        assert_eq!(cursor3, 6);
        assert_eq!(db.prediction_count(), 6);
        assert!(db.predictions_since(100).0.is_empty());
    }

    #[test]
    fn verdict_sequences_group_per_flow_in_order() {
        let db = FlowDatabase::new();
        for (port, label) in [(1, Some(true)), (2, None), (1, Some(false)), (1, None)] {
            db.store_prediction(pred(port, label, 0, 0));
        }
        let seqs = db.verdict_sequences();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[&key(1)], vec![Some(true), Some(false), None]);
        assert_eq!(seqs[&key(2)], vec![None]);
    }

    #[test]
    fn shared_handles_see_same_state() {
        let db = FlowDatabase::new();
        let db2 = db.clone();
        db.record_created(key(3), feat(), 1);
        db.record_updated(key(3), 1, feat(), 2);
        db.store_prediction(pred(3, None, 0, 3));
        assert_eq!(db2.created_count(), 1);
        assert_eq!(db2.update_count(), 1);
        assert_eq!(db2.prediction_count(), 1);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let db = FlowDatabase::new();
        db.record_created(key(0), feat(), 0);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    (0..250u64)
                        .map(|i| db.record_updated(key(0), t * 1000 + i, feat(), i))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut seqs: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        assert_eq!(db.update_count(), 1000);
        // Every writer got a distinct position: 0..1000 exactly once.
        seqs.sort_unstable();
        assert_eq!(seqs, (0..1000).collect::<Vec<u64>>());
    }
}
