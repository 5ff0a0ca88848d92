//! Reference flow table: the pre-slab `FnvHashMap` implementation.
//!
//! [`HashFlowTable`] is the behavioral oracle for the slab-backed
//! [`crate::FlowTable`]: both drive `FlowRecord::observe` for the
//! per-event record update, so any divergence is in table mechanics
//! (lookup, creation, eviction) — exactly what the equivalence proptest
//! in `tests/proptests.rs` pins down. It also serves as the allocating
//! baseline in the ingest benchmarks.
//!
//! Not for production use: it allocates per new flow and rehashes on
//! growth, which is what the slab design exists to avoid.

use crate::table::{FlowRecord, FlowTableConfig, FlowUpdate, UpdateKind};
use amlight_net::flow::FnvHashMap;
use amlight_net::FlowKey;

/// The straightforward hashmap-backed flow table. Semantically identical
/// to [`crate::FlowTable`]; kept as an oracle and baseline.
#[derive(Debug, Default)]
pub struct HashFlowTable {
    cfg: FlowTableConfig,
    flows: FnvHashMap<FlowKey, FlowRecord>,
    created: u64,
    updated: u64,
    evicted: u64,
}

impl HashFlowTable {
    pub fn new(cfg: FlowTableConfig) -> Self {
        Self {
            cfg,
            flows: FnvHashMap::default(),
            created: 0,
            updated: 0,
            evicted: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.flows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    pub fn created(&self) -> u64 {
        self.created
    }

    pub fn updated(&self) -> u64 {
        self.updated
    }

    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    pub fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        self.flows.get(key)
    }

    pub fn records(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.values()
    }

    /// See [`crate::FlowTable::apply`].
    // amlint: cold -- reference model: HashMap-based by design, not the optimized path
    pub fn apply(&mut self, update: &FlowUpdate) -> (UpdateKind, &FlowRecord) {
        let key = update.flow;
        let now_ns = update.now_ns;
        if self.flows.len() >= self.cfg.max_flows && !self.flows.contains_key(&key) {
            self.evict_idle(now_ns);
        }
        let entry = self.flows.entry(key);
        let kind = match &entry {
            std::collections::hash_map::Entry::Occupied(_) => UpdateKind::Updated,
            std::collections::hash_map::Entry::Vacant(_) => UpdateKind::Created,
        };
        let rec = entry.or_insert_with(|| FlowRecord::new(key));
        if kind == UpdateKind::Created {
            self.created += 1;
        } else {
            self.updated += 1;
            rec.update_seq += 1;
        }
        rec.observe(update);
        (kind, &*rec)
    }

    /// See [`crate::FlowTable::evict_idle`].
    pub fn evict_idle(&mut self, now_ns: u64) -> usize {
        let deadline = now_ns.saturating_sub(self.cfg.idle_timeout_ns);
        let before = self.flows.len();
        self.flows.retain(|_, r| r.last_seen_ns >= deadline);
        let mut evicted = before - self.flows.len();
        if evicted == 0 && self.flows.len() >= self.cfg.max_flows {
            if let Some(oldest) = self
                .flows
                .values()
                .min_by_key(|r| r.last_seen_ns)
                .map(|r| r.key)
            {
                self.flows.remove(&oldest);
                evicted = 1;
            }
        }
        self.evicted += evicted as u64;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_net::Protocol;
    use std::net::Ipv4Addr;

    fn sample(port: u16, observed_ns: u64) -> FlowUpdate {
        FlowUpdate {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                port,
                80,
                Protocol::Tcp,
            ),
            now_ns: observed_ns,
            len: 100,
            stamp32: None,
            observed_ns: Some(observed_ns),
            queue_occupancy: None,
        }
    }

    #[test]
    fn tracks_counters_like_the_slab_table() {
        let mut hash = HashFlowTable::new(FlowTableConfig::default());
        let mut slab = crate::FlowTable::new(FlowTableConfig::default());
        for (port, ts) in [(1u16, 10u64), (2, 20), (1, 30), (3, 40), (2, 50)] {
            let s = sample(port, ts);
            let (hk, hr) = hash.apply(&s);
            // Rust won't let both mutable borrows overlap; compare eagerly.
            let (hk, hseq, hcount) = (hk, hr.update_seq, hr.packet_count());
            let (sk, sr) = slab.apply(&s);
            assert_eq!(hk, sk);
            assert_eq!(hseq, sr.update_seq);
            assert_eq!(hcount, sr.packet_count());
        }
        assert_eq!(hash.len(), slab.len());
        assert_eq!(hash.created(), slab.created());
        assert_eq!(hash.updated(), slab.updated());
    }
}
