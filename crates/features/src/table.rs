//! The flow table: one record per *Flow ID*, updated per telemetry event.

use crate::vector::{FeatureId, FeatureVector};
use amlight_net::flow::FnvBuildHasher;
use amlight_net::{FlowKey, Protocol};
use serde::{Deserialize, Serialize};
use std::hash::BuildHasher;

/// One normalized flow-table update — the backend-neutral currency every
/// telemetry event lowers into before it touches a table.
///
/// The flow table does not know which telemetry system produced an
/// observation; it only sees byte/packet deltas plus the optional
/// clock/queue fields a backend could populate. The lowering from a
/// concrete event type into a `FlowUpdate` lives in one place per
/// backend (`amlight_core::event::Telemetry::flow_update`), which is
/// what keeps this crate N-backend-blind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowUpdate {
    /// The 5-tuple the observation belongs to.
    pub flow: FlowKey,
    /// Collector-clock time of the observation, ns (drives eviction).
    pub now_ns: u64,
    /// IP length of the observed packet.
    pub len: u16,
    /// Wrapped 32-bit device timestamp (INT egress stamps). When set,
    /// inter-arrival time derives from consecutive stamps via wrapping
    /// subtraction — inheriting the paper's §V 4.3 s aliasing artifact.
    pub stamp32: Option<u32>,
    /// Full-width observation clock, ns (header-sampling backends).
    /// Inter-arrival derives via saturating subtraction (samples can
    /// arrive reordered over UDP).
    pub observed_ns: Option<u64>,
    /// Queue occupancy, if this backend can populate the queue columns.
    /// `None` leaves the queue aggregates untouched — the consistent
    /// imputation every queue-blind backend shares.
    pub queue_occupancy: Option<u32>,
}

/// Whether an ingest created a new record or updated an existing one.
///
/// The distinction matters downstream: the paper's CentralServer "does
/// not consider new entries with new Flow IDs, but focuses on existing
/// records from their first update" (§III-3) — predictions start at the
/// second packet of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateKind {
    Created,
    Updated,
}

/// Welford running mean and sum of squared deviations (numerically
/// stable where a naive sum/sum-of-squares cancels catastrophically).
///
/// The observation count is the caller's: packet length takes it from
/// the record's `update_seq + 1`, so it is not stored twice. `mean` is 0
/// until the first observation — the paper initializes flow-level values
/// at 0.
#[derive(Debug, Clone, Copy, Default)]
struct Moments {
    mean: f64,
    m2: f64,
}

impl Moments {
    /// Fold in `x` as observation number `n` (1-based).
    #[inline]
    fn add(&mut self, n: u64, x: f64) {
        let delta = x - self.mean;
        self.mean += delta / n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Population standard deviation of `n` observations; 0 for fewer
    /// than two.
    fn std(&self, n: u64) -> f64 {
        if n < 2 {
            0.0
        } else {
            (self.m2 / n as f64).max(0.0).sqrt()
        }
    }
}

/// Per-flow state: latest packet-level fields plus streaming aggregates.
///
/// Under a spoofed flood every packet is a new Flow ID, so this record's
/// size is what an attacker spends collector memory with. It keeps only
/// what [`FlowRecord::features`], triage and eviction read — 144 B, a
/// ceiling checked at compile time:
///
/// | group | fields | bytes |
/// |---|---|---|
/// | identity | `key`, `last_seen_ns`, `update_seq` (packet count − 1) | 14 + 16 |
/// | length | `last_packet_len`, `byte_count`, Welford mean/M2 | 2 + 8 + 16 |
/// | inter-arrival | `last_inter_arrival_s`, count, mean/M2, sum (the duration) | 8 + 8 + 16 + 8 |
/// | queue | `last_queue_occ`, count, mean/M2 | 4 + 8 + 16 |
/// | previous clocks | 32-bit stamp, 64-bit observation time, two presence flags | 4 + 8 + 2 |
/// | alignment padding | | 6 |
#[derive(Debug, Clone)]
pub struct FlowRecord {
    pub key: FlowKey,
    /// Collector-clock time of the latest update, ns.
    pub last_seen_ns: u64,
    /// Monotone per-record update sequence (0 = just created); the
    /// record has seen `update_seq + 1` packets.
    pub update_seq: u64,

    // -- packet length --
    pub last_packet_len: u16,
    pub byte_count: u64,
    len: Moments,

    // -- inter-arrival --
    /// Inter-arrival time derived from consecutive telemetry stamps, s.
    pub last_inter_arrival_s: f64,
    iat_count: u64,
    iat: Moments,
    /// Cumulative inter-arrival time, s.
    iat_sum: f64,

    // -- queue occupancy --
    pub last_queue_occ: u32,
    qocc_count: u64,
    qocc: Moments,

    // -- previous clocks --
    /// Previous 32-bit telemetry stamp (INT path); valid iff `has_stamp32`.
    last_stamp32: u32,
    /// Previous full-width observation time (sFlow path), ns; valid iff
    /// `has_observed_ns`.
    last_observed_ns: u64,
    has_stamp32: bool,
    has_observed_ns: bool,
}

const _: () = assert!(size_of::<FlowRecord>() <= 144);

impl FlowRecord {
    pub(crate) fn new(key: FlowKey) -> Self {
        Self {
            key,
            last_seen_ns: 0,
            update_seq: 0,
            last_packet_len: 0,
            byte_count: 0,
            len: Moments::default(),
            last_inter_arrival_s: 0.0,
            iat_count: 0,
            iat: Moments::default(),
            iat_sum: 0.0,
            last_queue_occ: 0,
            qocc_count: 0,
            qocc: Moments::default(),
            last_stamp32: 0,
            last_observed_ns: 0,
            has_stamp32: false,
            has_observed_ns: false,
        }
    }

    /// One telemetry observation: derive the inter-arrival time from the
    /// record's clock state, remember the new clocks, fold the packet
    /// into the aggregates. This is the *entire* per-event record update,
    /// shared by the slab table and the reference hashmap table
    /// ([`crate::reference::HashFlowTable`]) so their records are
    /// bit-identical by construction. The caller has already bumped
    /// `update_seq` for an existing record, so this packet is number
    /// `update_seq + 1`.
    pub(crate) fn observe(
        &mut self,
        now_ns: u64,
        len: u16,
        stamp32: Option<u32>,
        observed_ns: Option<u64>,
        qocc: Option<u32>,
    ) {
        // Inter-arrival: INT path uses wrapped 32-bit stamps; sFlow path
        // uses the full-width agent clock. sFlow samples can arrive out
        // of order (UDP transport, multiple agents), so the full-width
        // difference saturates instead of underflowing.
        let iat_s = match (stamp32, observed_ns) {
            (Some(s), _) if self.has_stamp32 => {
                Some(f64::from(s.wrapping_sub(self.last_stamp32)) / 1e9)
            }
            (_, Some(o)) if self.has_observed_ns => {
                Some(o.saturating_sub(self.last_observed_ns) as f64 / 1e9)
            }
            _ => None,
        };
        if let Some(s) = stamp32 {
            self.last_stamp32 = s;
            self.has_stamp32 = true;
        }
        if let Some(o) = observed_ns {
            self.last_observed_ns = o;
            self.has_observed_ns = true;
        }

        self.last_seen_ns = now_ns;
        self.last_packet_len = len;
        self.byte_count += u64::from(len);
        self.len.add(self.packet_count(), f64::from(len));
        if let Some(iat) = iat_s {
            self.last_inter_arrival_s = iat;
            self.iat_count += 1;
            self.iat_sum += iat;
            self.iat.add(self.iat_count, iat);
        }
        if let Some(q) = qocc {
            self.last_queue_occ = q;
            self.qocc_count += 1;
            self.qocc.add(self.qocc_count, f64::from(q));
        }
    }

    /// Packets folded into this record.
    pub fn packet_count(&self) -> u64 {
        self.update_seq + 1
    }

    /// Flow duration as the paper computes it: cumulative inter-arrival
    /// time (Table II note). Inherits 32-bit aliasing on the INT path.
    pub fn duration_s(&self) -> f64 {
        self.iat_sum
    }

    /// Build the canonical 15-feature vector for the current state.
    pub fn features(&self) -> FeatureVector {
        let packets = self.packet_count();
        let mut v = FeatureVector::default();
        v.set(FeatureId::Protocol, f64::from(self.key.protocol.number()));
        v.set(FeatureId::PacketLen, f64::from(self.last_packet_len));
        v.set(FeatureId::PacketLenCum, self.byte_count as f64);
        v.set(FeatureId::PacketLenAvg, self.len.mean);
        v.set(FeatureId::PacketLenStd, self.len.std(packets));
        v.set(FeatureId::InterArrival, self.last_inter_arrival_s);
        v.set(FeatureId::InterArrivalCum, self.duration_s());
        v.set(FeatureId::InterArrivalAvg, self.iat.mean);
        v.set(FeatureId::InterArrivalStd, self.iat.std(self.iat_count));
        v.set(FeatureId::QueueOcc, f64::from(self.last_queue_occ));
        v.set(FeatureId::QueueOccAvg, self.qocc.mean);
        v.set(FeatureId::QueueOccStd, self.qocc.std(self.qocc_count));
        v.set(FeatureId::PacketCount, packets as f64);
        let dur = self.duration_s();
        if dur > 0.0 {
            v.set(FeatureId::PacketsPerSec, packets as f64 / dur);
            v.set(FeatureId::BytesPerSec, self.byte_count as f64 / dur);
        }
        v
    }
}

/// Flow-table housekeeping knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowTableConfig {
    /// Evict records idle longer than this (collector clock), ns.
    pub idle_timeout_ns: u64,
    /// Hard cap on tracked flows; oldest-idle records are evicted first
    /// when exceeded. Protects the processor against flood-driven state
    /// explosion (every spoofed SYN is a new flow!).
    pub max_flows: usize,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        Self {
            idle_timeout_ns: 60 * 1_000_000_000,
            max_flows: 1_000_000,
        }
    }
}

/// Sentinel for an unoccupied bucket in the open-addressing index.
const EMPTY: u32 = u32::MAX;

/// Buckets allocated on the first insert (power of two).
const INITIAL_BUCKETS: usize = 16;

/// Slab (and hash array) entries reserved on the first insert. At 144 B
/// a record, 1 024 of them are past glibc's default 128 KiB mmap
/// threshold, so the slab is its own mapping from the start instead of
/// doubling up through small sizes that land in the inserting thread's
/// malloc arena (measured on `bench_e2e` `day_triage`, seed 1: peak
/// resident memory 123.7 MiB without the reservation, 85.6 with it).
const INITIAL_SLOTS: usize = 1024;

/// The flow table: a slab of records plus a compact open-addressing
/// index keyed by the [`FlowKey`]'s FNV hash.
///
/// Records live contiguously in `slots` (feature extraction walks them
/// cache-linearly); the `buckets` index maps hash → slot with linear
/// probing. Removal is tombstone-free: the bucket cluster is repaired
/// with backward-shift deletion and the slab hole is filled by
/// `swap_remove`, so lookups never scan deleted entries and the table
/// performs **zero allocations in steady state** — only index growth
/// (amortized, on new-flow creation) touches the allocator.
///
/// Semantics are bit-identical to the pre-slab `FnvHashMap` table; the
/// equivalence oracle lives in [`crate::reference::HashFlowTable`].
///
/// ```
/// use amlight_features::{FlowTable, FlowTableConfig, FlowUpdate, UpdateKind};
/// use amlight_net::{FlowKey, Protocol};
///
/// let mut table = FlowTable::new(FlowTableConfig::default());
/// let update = FlowUpdate {
///     flow: FlowKey::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 4242, 80, Protocol::Tcp),
///     now_ns: 1_000,
///     len: 60,
///     stamp32: Some(500),
///     observed_ns: None,
///     queue_occupancy: Some(3),
/// };
/// let (kind, record) = table.apply(&update);
/// assert_eq!(kind, UpdateKind::Created);
/// assert_eq!(record.packet_count(), 1);
/// ```
#[derive(Debug)]
pub struct FlowTable {
    cfg: FlowTableConfig,
    hasher: FnvBuildHasher,
    /// Dense slab of live records.
    slots: Vec<FlowRecord>,
    /// Low 32 bits of each slot's key hash, parallel to `slots`
    /// (rehash-free index growth and cheap bucket repair). Only low bits
    /// place a bucket and key equality decides a match, so the upper half
    /// would only ever spare a rare key comparison.
    hashes: Vec<u32>,
    /// Open-addressing index: slot number or [`EMPTY`], linear probing,
    /// power-of-two length.
    buckets: Vec<u32>,
    created: u64,
    updated: u64,
    evicted: u64,
}

impl Default for FlowTable {
    fn default() -> Self {
        Self::new(FlowTableConfig::default())
    }
}

impl FlowTable {
    pub fn new(cfg: FlowTableConfig) -> Self {
        Self {
            cfg,
            hasher: FnvBuildHasher::default(),
            slots: Vec::new(),
            hashes: Vec::new(),
            buckets: Vec::new(),
            created: 0,
            updated: 0,
            evicted: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
        let slot = self.find_slot(*key, self.key_hash(*key))?;
        self.slots.get(slot)
    }

    pub fn records(&self) -> impl Iterator<Item = &FlowRecord> {
        self.slots.iter()
    }

    /// Apply one normalized telemetry observation — the single update
    /// path every backend shares. Inter-arrival derives from whichever
    /// clock the update carries (wrapped 32-bit stamp, full-width
    /// observation time, or neither); queue aggregates update only when
    /// `queue_occupancy` is populated.
    // amlint: hot
    // amlint: allow(R8) -- slot indices come from find_slot/insert_slot, in-bounds by construction
    pub fn apply(&mut self, update: &FlowUpdate) -> (UpdateKind, &FlowRecord) {
        let key = update.flow;
        let now_ns = update.now_ns;
        let hash = self.key_hash(key);
        let (kind, slot) = match self.find_slot(key, hash) {
            Some(slot) => {
                self.updated += 1;
                self.slots[slot].update_seq += 1;
                (UpdateKind::Updated, slot)
            }
            None => {
                if self.slots.len() >= self.cfg.max_flows {
                    self.evict_idle(now_ns);
                }
                self.created += 1;
                (UpdateKind::Created, self.insert_slot(key, hash))
            }
        };
        self.slots[slot].observe(
            now_ns,
            update.len,
            update.stamp32,
            update.observed_ns,
            update.queue_occupancy,
        );
        (kind, &self.slots[slot])
    }

    /// Evict records idle past the timeout as of `now_ns`. Returns the
    /// number evicted. If nothing is idle but the table is over capacity,
    /// evicts the single longest-idle record (to guarantee progress).
    // amlint: allow(R8) -- `i < slots.len()` loop bound; oldest index recorded by that loop
    pub fn evict_idle(&mut self, now_ns: u64) -> usize {
        let deadline = now_ns.saturating_sub(self.cfg.idle_timeout_ns);
        let before = self.slots.len();
        // The first strictly-oldest survivor and its clock: the fallback
        // victim. Its index is read only when the sweep removed nothing,
        // and a sweep that removed nothing moved nothing.
        let mut oldest: Option<(usize, u64)> = None;
        let mut i = 0usize;
        while i < self.slots.len() {
            let seen = self.slots[i].last_seen_ns;
            if seen < deadline {
                // swap_remove refills slot i with the last record; do not
                // advance, the replacement needs the same check.
                self.remove_slot(i);
            } else {
                if oldest.is_none_or(|(_, t)| seen < t) {
                    oldest = Some((i, seen));
                }
                i += 1;
            }
        }
        let mut evicted = before - self.slots.len();
        if evicted == 0 && self.slots.len() >= self.cfg.max_flows {
            if let Some((slot, _)) = oldest {
                self.remove_slot(slot);
                evicted = 1;
            }
        }
        self.evicted += evicted as u64;
        evicted
    }

    /// Protocol histogram over live flows — cheap observability hook.
    pub fn protocol_split(&self) -> (usize, usize) {
        let tcp = self
            .slots
            .iter()
            .filter(|r| r.key.protocol == Protocol::Tcp)
            .count();
        (tcp, self.slots.len() - tcp)
    }

    // ---- slab / index internals -------------------------------------

    /// The key's FNV hash, truncated to the 32 bits the index keeps.
    #[inline]
    fn key_hash(&self, key: FlowKey) -> u32 {
        self.hasher.hash_one(key) as u32
    }

    /// Linear-probe lookup. The load factor is capped below 1 (see
    /// [`FlowTable::insert_slot`]), so an empty bucket always terminates
    /// the probe.
    // amlint: allow(R8) -- buckets.len() is a power of two, probes masked; load < 1 terminates
    #[inline]
    fn find_slot(&self, key: FlowKey, hash: u32) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut b = (hash as usize) & mask;
        loop {
            let s = self.buckets[b];
            if s == EMPTY {
                return None;
            }
            let s = s as usize;
            if self.hashes[s] == hash && self.slots[s].key == key {
                return Some(s);
            }
            b = (b + 1) & mask;
        }
    }

    /// Append a fresh record to the slab and index it. Grows the bucket
    /// array (outside steady state) to keep load ≤ 7/8.
    // amlint: allow(R8) -- probes masked by power-of-two bucket len
    fn insert_slot(&mut self, key: FlowKey, hash: u32) -> usize {
        if (self.slots.len() + 1) * 8 > self.buckets.len() * 7 {
            self.grow_buckets();
        }
        let mask = self.buckets.len() - 1;
        let mut b = (hash as usize) & mask;
        while self.buckets[b] != EMPTY {
            b = (b + 1) & mask;
        }
        let slot = self.slots.len();
        self.buckets[b] = slot as u32;
        self.slots.push(FlowRecord::new(key)); // amlint: cold -- slab append, amortized
        self.hashes.push(hash); // amlint: cold -- slab append, amortized
        slot
    }

    /// Double the bucket array and re-index every slot from its cached
    /// hash (records are never touched). The first call, on the first
    /// insert, also reserves `INITIAL_SLOTS` slab entries.
    // amlint: cold -- bucket doubling happens outside steady state by definition
    fn grow_buckets(&mut self) {
        if self.buckets.is_empty() {
            self.slots.reserve_exact(INITIAL_SLOTS);
            self.hashes.reserve_exact(INITIAL_SLOTS);
        }
        let new_cap = (self.buckets.len() * 2).max(INITIAL_BUCKETS);
        self.buckets.clear();
        self.buckets.resize(new_cap, EMPTY);
        let mask = new_cap - 1;
        for (slot, &h) in self.hashes.iter().enumerate() {
            let mut b = (h as usize) & mask;
            while self.buckets[b] != EMPTY {
                b = (b + 1) & mask;
            }
            self.buckets[b] = slot as u32;
        }
    }

    /// Remove the record in `slot`: backward-shift the bucket cluster
    /// (tombstone-free), then `swap_remove` the slab hole and re-point
    /// the moved record's bucket. O(cluster length), no allocation.
    // amlint: allow(R8) -- cluster walk stays within the masked bucket array; slab indices < len
    fn remove_slot(&mut self, slot: usize) {
        let mask = self.buckets.len() - 1;

        // Locate the bucket holding `slot` (reachable from its hash by
        // the linear-probe invariant).
        let mut b = (self.hashes[slot] as usize) & mask;
        while self.buckets[b] != slot as u32 {
            b = (b + 1) & mask;
        }

        // Backward-shift deletion: close the gap by pulling cluster
        // entries whose probe path crosses it.
        let mut gap = b;
        let mut j = (gap + 1) & mask;
        while self.buckets[j] != EMPTY {
            let s = self.buckets[j] as usize;
            let ideal = (self.hashes[s] as usize) & mask;
            // The entry at j may fill the gap iff its probe walked
            // through the gap position, i.e. its displacement from the
            // ideal bucket reaches at least back to the gap.
            if j.wrapping_sub(ideal) & mask >= j.wrapping_sub(gap) & mask {
                self.buckets[gap] = self.buckets[j];
                gap = j;
            }
            j = (j + 1) & mask;
        }
        self.buckets[gap] = EMPTY;

        // Fill the slab hole with the last record and fix its bucket.
        let last = self.slots.len() - 1;
        self.slots.swap_remove(slot);
        self.hashes.swap_remove(slot);
        if slot != last {
            let mut b = (self.hashes[slot] as usize) & mask;
            while self.buckets[b] != last as u32 {
                b = (b + 1) & mask;
            }
            self.buckets[b] = slot as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::FeatureId;
    use std::net::Ipv4Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            port,
            80,
            Protocol::Tcp,
        )
    }

    /// An INT-shaped update: wrapped 32-bit stamp + queue occupancy.
    fn report(port: u16, now_ns: u64, egress32: u32, len: u16, qocc: u32) -> FlowUpdate {
        FlowUpdate {
            flow: key(port),
            now_ns,
            len,
            stamp32: Some(egress32),
            observed_ns: None,
            queue_occupancy: Some(qocc),
        }
    }

    /// A sample-shaped update: full-width clock, no queue telemetry.
    fn sample(flow: FlowKey, observed_ns: u64, len: u16) -> FlowUpdate {
        FlowUpdate {
            flow,
            now_ns: observed_ns,
            len,
            stamp32: None,
            observed_ns: Some(observed_ns),
            queue_occupancy: None,
        }
    }

    #[test]
    fn first_packet_creates_record_with_defaults() {
        let mut t = FlowTable::default();
        let (kind, rec) = t.apply(&report(1, 1000, 1000, 40, 3));
        assert_eq!(kind, UpdateKind::Created);
        assert_eq!(rec.update_seq, 0);
        assert_eq!(rec.packet_count(), 1);
        assert_eq!(rec.last_packet_len, 40);
        assert_eq!(rec.last_inter_arrival_s, 0.0, "no IAT on first packet");
        assert_eq!(rec.last_queue_occ, 3);
        assert_eq!(t.len(), 1);
        assert_eq!(t.created(), 1);
    }

    #[test]
    fn second_packet_updates_and_derives_iat() {
        let mut t = FlowTable::default();
        t.apply(&report(1, 1_000, 1_000, 40, 0));
        let (kind, rec) = t.apply(&report(1, 2_000_000, 2_001_000, 1400, 5));
        assert_eq!(kind, UpdateKind::Updated);
        assert_eq!(rec.update_seq, 1);
        assert_eq!(rec.packet_count(), 2);
        // IAT = (2_001_000 - 1_000) ns = 2 ms.
        assert!((rec.last_inter_arrival_s - 0.002).abs() < 1e-12);
        assert_eq!(rec.last_packet_len, 1400, "packet-level fields replaced");
        assert_eq!(rec.byte_count, 1440);
        assert!((rec.duration_s() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn iat_wraps_like_the_paper_warns() {
        let mut t = FlowTable::default();
        // First stamp just below the wrap, second just above zero.
        t.apply(&report(1, 0, u32::MAX - 999, 40, 0));
        let (_, rec) = t.apply(&report(1, 10_000, 1_000, 40, 0));
        // True gap 2000 ns across the wrap: wrapping_sub gets it right.
        assert!((rec.last_inter_arrival_s - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn iat_aliases_when_gap_exceeds_wrap_period() {
        let mut t = FlowTable::default();
        t.apply(&report(1, 0, 1_000, 40, 0));
        // True gap = 2^32 + 500 ns, but the 32-bit stamp only moved 500.
        let (_, rec) = t.apply(&report(1, 4_294_967_796, 1_500, 40, 0));
        assert!(
            (rec.last_inter_arrival_s - 5e-7).abs() < 1e-15,
            "aliased to 500 ns, the paper's §V artifact"
        );
    }

    #[test]
    fn distinct_flows_distinct_records() {
        let mut t = FlowTable::default();
        t.apply(&report(1, 0, 0, 40, 0));
        t.apply(&report(2, 10, 10, 40, 0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.created(), 2);
        assert_eq!(t.updated(), 0);
    }

    #[test]
    fn features_reflect_aggregates() {
        let mut t = FlowTable::default();
        t.apply(&report(1, 1_000, 1_000, 100, 2));
        t.apply(&report(1, 1_001_000, 1_001_000, 300, 4));
        let (_, rec) = t.apply(&report(1, 2_001_000, 2_001_000, 200, 6));
        let v = rec.features();
        assert_eq!(v.get(FeatureId::Protocol), 6.0);
        assert_eq!(v.get(FeatureId::PacketLen), 200.0);
        assert_eq!(v.get(FeatureId::PacketLenCum), 600.0);
        assert_eq!(v.get(FeatureId::PacketLenAvg), 200.0);
        assert_eq!(v.get(FeatureId::PacketCount), 3.0);
        assert_eq!(v.get(FeatureId::QueueOcc), 6.0);
        assert_eq!(v.get(FeatureId::QueueOccAvg), 4.0);
        // Duration 2 ms → 1500 pps, 300_000 Bps.
        assert!((v.get(FeatureId::PacketsPerSec) - 1500.0).abs() < 1e-6);
        assert!((v.get(FeatureId::BytesPerSec) - 300_000.0).abs() < 1e-6);
    }

    #[test]
    fn sflow_ingest_has_no_queue_data() {
        let mut t = FlowTable::default();
        let s1 = sample(key(9), 1_000_000, 500);
        let s2 = sample(key(9), 3_000_000, 700);
        t.apply(&s1);
        let (kind, rec) = t.apply(&s2);
        assert_eq!(kind, UpdateKind::Updated);
        assert_eq!(rec.last_queue_occ, 0);
        assert_eq!(rec.qocc_count, 0);
        assert!((rec.last_inter_arrival_s - 0.002).abs() < 1e-12);
    }

    #[test]
    fn idle_eviction() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_ns: 1_000,
            max_flows: 100,
        });
        t.apply(&report(1, 0, 0, 40, 0));
        t.apply(&report(2, 1_500, 1_500, 40, 0));
        let evicted = t.evict_idle(2_000);
        assert_eq!(evicted, 1, "flow 1 idle past timeout");
        assert!(t.get(&key(2)).is_some());
        assert!(t.get(&key(1)).is_none());
        assert_eq!(t.evicted(), 1);
    }

    #[test]
    fn capacity_pressure_evicts_oldest() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_ns: u64::MAX / 2, // nothing times out
            max_flows: 3,
        });
        for (i, ts) in [(1u16, 100u64), (2, 200), (3, 300)] {
            t.apply(&report(i, ts, ts as u32, 40, 0));
        }
        // A fourth flow forces eviction of the oldest-idle (flow 1).
        t.apply(&report(4, 400, 400, 40, 0));
        assert_eq!(t.len(), 3);
        assert!(t.get(&key(1)).is_none());
        assert!(t.get(&key(4)).is_some());
    }

    /// Regression: sFlow samples can arrive out of order (UDP transport,
    /// multiple agents). An older observation must saturate the IAT to
    /// zero, not underflow the u64 clock difference into a ~584-year
    /// inter-arrival.
    #[test]
    fn reordered_sflow_sample_saturates_iat() {
        let mut t = FlowTable::default();
        let newer = sample(key(7), 5_000_000, 500);
        // Arrives second, observed earlier.
        let older = sample(key(7), 2_000_000, 600);
        t.apply(&newer);
        let (_, rec) = t.apply(&older);
        assert_eq!(
            rec.last_inter_arrival_s, 0.0,
            "reordered sample must clamp, not wrap to ~1.8e10 s"
        );
        assert!(rec.duration_s().is_finite());
        assert!(rec.features().get(FeatureId::InterArrivalCum) < 1.0);
    }

    /// Eviction path under sustained capacity pressure with *no* idle
    /// flows: every new flow must make progress via the oldest-idle
    /// fallback, the table must not grow past `max_flows`, and the
    /// counters must account for every record that passed through.
    #[test]
    fn full_table_with_no_idle_flows_keeps_making_progress() {
        const CAP: usize = 64;
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_ns: u64::MAX / 2, // idle sweep never fires
            max_flows: CAP,
        });
        // Strictly increasing clock: nothing ever idles out, so each
        // over-capacity insert exercises the single-eviction fallback.
        for i in 0..10 * CAP as u64 {
            let port = 1 + i as u16; // all distinct: worst-case pressure
            t.apply(&report(
                port,
                1_000 * (i + 1),
                (1_000 * (i + 1)) as u32,
                40,
                0,
            ));
            assert!(t.len() <= CAP, "table exceeded cap at step {i}");
        }
        assert_eq!(t.len(), CAP);
        assert_eq!(
            t.evicted(),
            t.created() - CAP as u64,
            "every create past cap evicted one"
        );
        assert_eq!(t.created() + t.updated(), 10 * CAP as u64);
        // The survivors are exactly the most recent CAP distinct flows.
        let mut seen: Vec<u64> = t.records().map(|r| r.last_seen_ns).collect();
        seen.sort_unstable();
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
    }

    /// Slab-index stress: interleaved inserts and removals must keep the
    /// open-addressing index consistent (every live key findable, every
    /// removed key gone) across swap_remove relocations and backward-shift
    /// cluster repairs.
    #[test]
    fn slab_index_survives_churn() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_ns: 500,
            max_flows: 10_000,
        });
        let mut live: Vec<u16> = Vec::new();
        let mut clock = 0u64;
        for round in 0u16..40 {
            // Insert a batch of new flows...
            for p in 0..23u16 {
                let port = round * 100 + p + 1;
                clock += 10;
                t.apply(&report(port, clock, clock as u32, 40, 0));
                live.push(port);
            }
            // ...touch a stale subset so only the rest idles out.
            clock += 1_000;
            let keep_from = live.len().saturating_sub(11);
            for &port in &live[keep_from..] {
                clock += 1;
                t.apply(&report(port, clock, clock as u32, 40, 0));
            }
            clock += 400;
            t.evict_idle(clock);
            let (gone, kept) = live.split_at(keep_from);
            for &port in gone {
                assert!(t.get(&key(port)).is_none(), "evicted {port} still findable");
            }
            for &port in kept {
                assert!(
                    t.get(&key(port)).is_some(),
                    "live {port} lost by index repair"
                );
            }
            live = kept.to_vec();
        }
        assert_eq!(t.len(), live.len());
    }

    fn moments_of(xs: &[f64]) -> Moments {
        let mut m = Moments::default();
        for (i, &x) in xs.iter().enumerate() {
            m.add(i as u64 + 1, x);
        }
        m
    }

    #[test]
    fn moments_match_two_pass_reference() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let m = moments_of(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let std = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();
        assert!((m.mean - mean).abs() < 1e-12);
        assert!((m.std(xs.len() as u64) - std).abs() < 1e-12);
        assert_eq!(
            moments_of(&[7.5]).std(1),
            0.0,
            "one observation has no spread"
        );
        assert_eq!(Moments::default().mean, 0.0, "empty mean is the paper's 0");
    }

    #[test]
    fn moments_stable_for_large_offset_small_variance() {
        // The classic catastrophic-cancellation case for naive sums.
        let xs: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 2) as f64).collect();
        let std = moments_of(&xs).std(xs.len() as u64);
        assert!((std - 0.5).abs() < 1e-6, "std {std}");
    }

    #[test]
    fn moments_variance_never_negative() {
        let xs = [0.1 + 0.2; 100]; // representation noise
        let std = moments_of(&xs).std(xs.len() as u64);
        assert!(std >= 0.0, "std {std}"); // also rules out NaN
    }

    #[test]
    fn protocol_split_counts() {
        let mut t = FlowTable::default();
        t.apply(&report(1, 0, 0, 40, 0));
        let mut udp_key = key(2);
        udp_key.protocol = Protocol::Udp;
        t.apply(&sample(udp_key, 0, 100));
        assert_eq!(t.protocol_split(), (1, 1));
    }
}
