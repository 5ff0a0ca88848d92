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
/// It keeps only what [`FlowRecord::features`], triage and eviction read —
/// 144 B, a ceiling checked at compile time. A spoofed packet no longer
/// pays for one: [`FlowTable`] keeps a flow seen once as its first
/// packet's 48 B and builds this record when a second packet arrives
/// (DESIGN §10 has the per-flow bytes of both tiers).
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
    /// shared by both tiers of the flow table and the reference hashmap
    /// table ([`crate::reference::HashFlowTable`]) so their records are
    /// bit-identical by construction. The caller has already bumped
    /// `update_seq` for an existing record, so this packet is number
    /// `update_seq + 1`.
    pub(crate) fn observe(&mut self, update: &FlowUpdate) {
        let FlowUpdate {
            now_ns,
            len,
            stamp32,
            observed_ns,
            queue_occupancy: qocc,
            ..
        } = *update;
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

/// A flow seen once: its key and its first update's fields, which is
/// everything [`FlowRecord::new`] and [`FlowRecord::observe`] read, so
/// [`FirstPacket::to_record`] rebuilds the record bit for bit. 48 B against
/// the record's 144: under a spoofed flood nearly every live flow is one.
#[derive(Debug, Clone, Copy)]
struct FirstPacket {
    now_ns: u64,
    observed_ns: u64,
    key: FlowKey,
    len: u16,
    stamp32: u32,
    queue_occupancy: u32,
    /// The key's index hash: a nursery entry that moves is re-pointed
    /// without rehashing its key.
    hash: u32,
    /// Which optional fields the update carried: [`HAS_STAMP32`],
    /// [`HAS_OBSERVED`], [`HAS_QUEUE`].
    present: u8,
}

const _: () = assert!(size_of::<FirstPacket>() <= 48);

const HAS_STAMP32: u8 = 1;
const HAS_OBSERVED: u8 = 2;
const HAS_QUEUE: u8 = 4;

impl FirstPacket {
    fn new(update: &FlowUpdate, hash: u32) -> Self {
        let flag = |set: bool, bit: u8| if set { bit } else { 0 };
        Self {
            now_ns: update.now_ns,
            observed_ns: update.observed_ns.unwrap_or(0),
            key: update.flow,
            len: update.len,
            stamp32: update.stamp32.unwrap_or(0),
            queue_occupancy: update.queue_occupancy.unwrap_or(0),
            hash,
            present: flag(update.stamp32.is_some(), HAS_STAMP32)
                | flag(update.observed_ns.is_some(), HAS_OBSERVED)
                | flag(update.queue_occupancy.is_some(), HAS_QUEUE),
        }
    }

    /// The update this entry was made from.
    fn to_update(self) -> FlowUpdate {
        let has = |bit: u8| self.present & bit != 0;
        FlowUpdate {
            flow: self.key,
            now_ns: self.now_ns,
            len: self.len,
            stamp32: has(HAS_STAMP32).then_some(self.stamp32),
            observed_ns: has(HAS_OBSERVED).then_some(self.observed_ns),
            queue_occupancy: has(HAS_QUEUE).then_some(self.queue_occupancy),
        }
    }

    /// The record a one-tier table would hold for this flow.
    fn to_record(self) -> FlowRecord {
        let mut rec = FlowRecord::new(self.key);
        rec.observe(&self.to_update());
        rec
    }
}

/// An index bucket is `hash << 32 | tier | slot`: the key's 32-bit hash,
/// the tier bit ([`NURSERY`] or [`SLAB`]) and the entry's position in
/// that tier — or `EMPTY`. (The one real entry equal to `EMPTY` would be
/// nursery slot 2³¹ − 1, i.e. 96 GiB of nursery.)
const EMPTY: u64 = u64::MAX;
const SLAB: u64 = 0;
const NURSERY: u64 = 1 << 31;
const SLOT_MASK: u64 = NURSERY - 1;

#[inline]
fn bucket(hash: u32, tier: u64, slot: usize) -> u64 {
    u64::from(hash) << 32 | tier | slot as u64
}

#[inline]
fn slot_of(bucket: u64) -> usize {
    (bucket & SLOT_MASK) as usize
}

#[inline]
fn hash_of(bucket: u64) -> u32 {
    (bucket >> 32) as u32
}

/// Buckets allocated on the first insert (power of two). At 8 B a bucket
/// that is 128 KiB, the mmap threshold `bench_e2e` pins, so the index is
/// its own mapping from the start instead of doubling up through the
/// inserting thread's malloc arena (DESIGN §10 has the measurement).
const INITIAL_BUCKETS: usize = 16_384;

/// Slab entries reserved on the first promotion. At 144 B a record,
/// 1 024 of them are past the mmap threshold, so the slab is its own
/// mapping from the start instead of doubling up through small sizes
/// that land in the inserting thread's malloc arena (measured on
/// `bench_e2e` `day_triage`, seed 1: peak resident memory 123.7 MiB
/// without the reservation, 85.6 with it).
const INITIAL_SLOTS: usize = 1024;

/// Nursery entries reserved on the first insert: 192 KiB at 48 B, past
/// the mmap threshold for the same reason.
const INITIAL_NURSERY: usize = 4096;

/// Bytes per flow the two tiers may reserve between them, times
/// `max_flows` rounded up to a power of two: what the slab (144 B) and
/// its per-slot hash (4 B) could reserve before the table had a nursery.
const TIER_BUDGET_PER_FLOW: usize = 148;

/// The flow table: two dense tiers behind one open-addressing index
/// keyed by the [`FlowKey`]'s FNV hash.
///
/// * The **nursery** holds flows seen once, as a `FirstPacket` (48 B).
///   §III-3 never predicts a first packet, so a flow that never sends a
///   second — every flow of a spoofed flood — never costs a record.
/// * The **slab** holds a [`FlowRecord`] (144 B) for every flow with two
///   or more packets. A flow moves there on its second packet, which
///   replays `new`, `observe(first)`, `update_seq += 1`,
///   `observe(second)`: the operations a one-tier table performs.
///
/// The `buckets` index maps hash → (tier, slot) with linear probing.
/// Each bucket carries its key's hash, so a probe compares it before
/// reading either tier, growth re-indexes without rehashing, and a
/// promotion rewrites its bucket in place. Removal is tombstone-free:
/// the bucket cluster is repaired with backward-shift deletion and the
/// tier hole is filled by `swap_remove`, so lookups never scan deleted
/// entries and the table performs **zero allocations in steady state**
/// — only index and tier growth (amortized, on creation and promotion)
/// touch the allocator. The two tiers share one byte budget
/// (`TIER_BUDGET_PER_FLOW` × `max_flows` rounded up to a power of two):
/// a tier that cannot double within it first makes the other give its
/// spare capacity back.
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
    /// Records of the flows seen two or more times.
    slots: Vec<FlowRecord>,
    /// The flows seen once.
    nursery: Vec<FirstPacket>,
    /// Open-addressing index over both tiers (see [`bucket`]), linear
    /// probing, power-of-two length.
    buckets: Vec<u64>,
    /// The record [`FlowTable::apply`] hands back for a flow it has just
    /// created.
    created_record: FlowRecord,
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
        let nobody = std::net::Ipv4Addr::UNSPECIFIED;
        Self {
            cfg,
            hasher: FnvBuildHasher::default(),
            slots: Vec::new(),
            nursery: Vec::new(),
            buckets: Vec::new(),
            created_record: FlowRecord::new(FlowKey::new(nobody, nobody, 0, 0, Protocol::Tcp)),
            created: 0,
            updated: 0,
            evicted: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len() + self.nursery.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// The flow's record; a flow seen once gets it rebuilt from its first
    /// packet.
    pub fn get(&self, key: &FlowKey) -> Option<FlowRecord> {
        let entry = *self.buckets.get(self.find(*key, self.key_hash(*key))?)?;
        if entry & NURSERY == NURSERY {
            self.nursery.get(slot_of(entry)).map(|f| f.to_record())
        } else {
            self.slots.get(slot_of(entry)).cloned()
        }
    }

    /// Every live flow's record: the slab's, then the nursery's rebuilt.
    pub fn records(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        let nursery = self.nursery.iter().map(|f| f.to_record());
        self.slots.iter().cloned().chain(nursery)
    }

    /// Apply one normalized telemetry observation — the single update
    /// path every backend shares. Inter-arrival derives from whichever
    /// clock the update carries (wrapped 32-bit stamp, full-width
    /// observation time, or neither); queue aggregates update only when
    /// `queue_occupancy` is populated.
    // amlint: hot
    // amlint: allow(R8) -- bucket and slot indices come from find/promote, in-bounds by construction
    pub fn apply(&mut self, update: &FlowUpdate) -> (UpdateKind, &FlowRecord) {
        let hash = self.key_hash(update.flow);
        let Some(b) = self.find(update.flow, hash) else {
            if self.len() >= self.cfg.max_flows {
                self.evict_idle(update.now_ns);
            }
            self.created += 1;
            self.insert_first(update, hash);
            return (UpdateKind::Created, &self.created_record);
        };
        self.updated += 1;
        let entry = self.buckets[b];
        let slot = if entry & NURSERY == NURSERY {
            self.promote(b, slot_of(entry), update)
        } else {
            let rec = &mut self.slots[slot_of(entry)];
            rec.update_seq += 1;
            rec.observe(update);
            slot_of(entry)
        };
        (UpdateKind::Updated, &self.slots[slot])
    }

    /// Evict records idle past the timeout as of `now_ns`, from both
    /// tiers. Returns the number evicted. If nothing is idle but the
    /// table is over capacity, evicts the single longest-idle flow (to
    /// guarantee progress).
    // amlint: allow(R8) -- `i < tier_len` loop bounds; the oldest index is recorded by those loops
    pub fn evict_idle(&mut self, now_ns: u64) -> usize {
        let deadline = now_ns.saturating_sub(self.cfg.idle_timeout_ns);
        let before = self.len();
        // The first strictly-oldest survivor (slab before nursery) and
        // its clock: the fallback victim. Its index is read only when the
        // sweep removed nothing, and a sweep that removed nothing moved
        // nothing.
        let mut oldest: Option<(u64, usize, u64)> = None;
        for tier in [SLAB, NURSERY] {
            let mut i = 0usize;
            while i < self.tier_len(tier) {
                let seen = if tier == NURSERY {
                    self.nursery[i].now_ns
                } else {
                    self.slots[i].last_seen_ns
                };
                if seen < deadline {
                    // swap_remove refills slot i with the tier's last
                    // entry; do not advance, it needs the same check.
                    self.remove(tier, i);
                } else {
                    if oldest.is_none_or(|(_, _, t)| seen < t) {
                        oldest = Some((tier, i, seen));
                    }
                    i += 1;
                }
            }
        }
        let mut evicted = before - self.len();
        if evicted == 0 && self.len() >= self.cfg.max_flows {
            if let Some((tier, slot, _)) = oldest {
                self.remove(tier, slot);
                evicted = 1;
            }
        }
        self.evicted += evicted as u64;
        evicted
    }

    /// Protocol histogram over live flows — cheap observability hook.
    pub fn protocol_split(&self) -> (usize, usize) {
        let slab = self.slots.iter().map(|r| r.key.protocol);
        let nursery = self.nursery.iter().map(|f| f.key.protocol);
        let tcp = slab.chain(nursery).filter(|&p| p == Protocol::Tcp).count();
        (tcp, self.len() - tcp)
    }

    // ---- tiers / index internals ------------------------------------

    /// The key's FNV hash, truncated to the 32 bits the index keeps.
    #[inline]
    fn key_hash(&self, key: FlowKey) -> u32 {
        self.hasher.hash_one(key) as u32
    }

    #[inline]
    fn tier_len(&self, tier: u64) -> usize {
        if tier == NURSERY {
            self.nursery.len()
        } else {
            self.slots.len()
        }
    }

    /// Linear-probe lookup: the bucket holding `key`. A bucket whose hash
    /// differs is skipped without reading either tier. The load factor is
    /// capped below 1 (see [`FlowTable::insert_first`]), so an empty
    /// bucket always terminates the probe.
    // amlint: allow(R8) -- buckets.len() is a power of two, probes masked; slots come from the index
    #[inline]
    fn find(&self, key: FlowKey, hash: u32) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut b = hash as usize & mask;
        loop {
            let e = self.buckets[b];
            if e == EMPTY {
                return None;
            }
            if hash_of(e) == hash {
                let found = if e & NURSERY == NURSERY {
                    self.nursery[slot_of(e)].key
                } else {
                    self.slots[slot_of(e)].key
                };
                if found == key {
                    return Some(b);
                }
            }
            b = (b + 1) & mask;
        }
    }

    /// The first empty bucket on `hash`'s probe path.
    // amlint: allow(R8) -- probes masked by the power-of-two bucket count; load < 1 terminates
    #[inline]
    fn vacant_bucket(&self, hash: u32) -> usize {
        let mask = self.buckets.len() - 1;
        let mut b = hash as usize & mask;
        while self.buckets[b] != EMPTY {
            b = (b + 1) & mask;
        }
        b
    }

    /// The bucket holding `entry`, reachable from its hash by the
    /// linear-probe invariant.
    // amlint: allow(R8) -- probes masked by the power-of-two bucket count; the entry is indexed
    fn bucket_holding(&self, entry: u64) -> usize {
        let mask = self.buckets.len() - 1;
        let mut b = hash_of(entry) as usize & mask;
        while self.buckets[b] != entry {
            b = (b + 1) & mask;
        }
        b
    }

    /// Index a new flow in the nursery and leave its record in
    /// `created_record`. Grows the bucket array (outside steady state) to
    /// keep load ≤ 7/8.
    // amlint: allow(R8) -- vacant_bucket returns an in-bounds bucket
    fn insert_first(&mut self, update: &FlowUpdate, hash: u32) {
        if (self.len() + 1) * 8 > self.buckets.len() * 7 {
            self.grow_buckets();
        }
        if self.nursery.len() == self.nursery.capacity() {
            self.make_room(NURSERY);
        }
        let first = FirstPacket::new(update, hash);
        let b = self.vacant_bucket(hash);
        self.buckets[b] = bucket(hash, NURSERY, self.nursery.len());
        self.nursery.push(first); // amlint: cold -- within reserved capacity, grown by make_room
        self.created_record = first.to_record();
    }

    /// A nursery flow's second packet: move it out of the nursery, give
    /// it the record a one-tier table would hold after this packet, and
    /// re-point its bucket `b` at the new slab slot (the hash is the same).
    // amlint: allow(R8) -- `n` is a nursery slot read from bucket `b`, in-bounds by construction
    fn promote(&mut self, b: usize, n: usize, second: &FlowUpdate) -> usize {
        let first = self.nursery[n];
        self.detach(NURSERY, n);
        let mut rec = first.to_record();
        rec.update_seq += 1;
        rec.observe(second);
        if self.slots.len() == self.slots.capacity() {
            self.make_room(SLAB);
        }
        let slot = self.slots.len();
        self.slots.push(rec); // amlint: cold -- within reserved capacity, grown by make_room
        self.buckets[b] = bucket(first.hash, SLAB, slot);
        slot
    }

    /// Double the bucket array and re-index every entry from the hash its
    /// bucket carries (neither tier is touched).
    // amlint: cold -- bucket doubling happens outside steady state by definition
    fn grow_buckets(&mut self) {
        let len = (self.buckets.len() * 2).max(INITIAL_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY; len]);
        for e in old.into_iter().filter(|&e| e != EMPTY) {
            let b = self.vacant_bucket(hash_of(e));
            self.buckets[b] = e;
        }
    }

    /// Make room for one more entry in a full tier: double it (the first
    /// time, reserve its initial entries) within the budget both tiers
    /// share. If doubling does not fit, the other tier gives its spare
    /// capacity back and this one takes at most half of what is then
    /// free, leaving the rest for the other tier's next growth. Live
    /// entries need at most 144 B × `max_flows`, under the budget, so
    /// one more entry always fits.
    // amlint: cold -- tier growth, amortized over the entries it adds
    fn make_room(&mut self, tier: u64) {
        let budget = self
            .cfg
            .max_flows
            .max(1)
            .checked_next_power_of_two()
            .map_or(usize::MAX, |p| p.saturating_mul(TIER_BUDGET_PER_FLOW));
        let (len, size, initial) = if tier == NURSERY {
            (
                self.nursery.len(),
                size_of::<FirstPacket>(),
                INITIAL_NURSERY,
            )
        } else {
            (self.slots.len(), size_of::<FlowRecord>(), INITIAL_SLOTS)
        };
        let want = len.max(initial);
        let mut fits = budget.saturating_sub(self.tier_bytes()) / size;
        if fits < want {
            if tier == NURSERY {
                self.slots.shrink_to_fit();
            } else {
                self.nursery.shrink_to_fit();
            }
            fits = (budget.saturating_sub(self.tier_bytes()) / size / 2).max(1);
        }
        if tier == NURSERY {
            self.nursery.reserve_exact(want.min(fits));
        } else {
            self.slots.reserve_exact(want.min(fits));
        }
    }

    /// Bytes the two tiers hold reserved.
    fn tier_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<FlowRecord>()
            + self.nursery.capacity() * size_of::<FirstPacket>()
    }

    /// Remove the entry in `tier`'s `slot`: backward-shift the bucket
    /// cluster (tombstone-free), then fill the tier's hole. O(cluster
    /// length), no allocation. A slab record's key is rehashed to find
    /// its bucket; eviction is the cold path.
    // amlint: allow(R8) -- cluster walk stays within the masked bucket array; slot < tier len
    fn remove(&mut self, tier: u64, slot: usize) {
        let hash = self.hash_at(tier, slot);
        let mask = self.buckets.len() - 1;
        let mut gap = self.bucket_holding(bucket(hash, tier, slot));
        // Backward-shift deletion: close the gap by pulling cluster
        // entries whose probe path crosses it.
        let mut j = (gap + 1) & mask;
        while self.buckets[j] != EMPTY {
            let ideal = hash_of(self.buckets[j]) as usize & mask;
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
        self.detach(tier, slot);
    }

    /// `swap_remove` `slot` from `tier` and re-point the bucket of the
    /// entry that moved into it. The caller owns `slot`'s own bucket.
    // amlint: allow(R8) -- bucket_holding returns an in-bounds bucket; slot < tier len
    fn detach(&mut self, tier: u64, slot: usize) {
        let last = self.tier_len(tier) - 1;
        if tier == NURSERY {
            self.nursery.swap_remove(slot);
        } else {
            self.slots.swap_remove(slot);
        }
        if slot != last {
            let hash = self.hash_at(tier, slot);
            let b = self.bucket_holding(bucket(hash, tier, last));
            self.buckets[b] = bucket(hash, tier, slot);
        }
    }

    /// The index hash of the entry in `tier`'s `slot`.
    // amlint: allow(R8) -- callers pass slot < tier len
    fn hash_at(&self, tier: u64, slot: usize) -> u32 {
        if tier == NURSERY {
            self.nursery[slot].hash
        } else {
            self.key_hash(self.slots[slot].key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{FeatureId, FeatureSet};
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

    /// Every public field and feature column of a record, as bits.
    fn bits(r: &FlowRecord) -> Vec<u64> {
        let mut v = vec![
            r.last_seen_ns,
            r.update_seq,
            u64::from(r.last_packet_len),
            r.byte_count,
            r.last_inter_arrival_s.to_bits(),
            u64::from(r.last_queue_occ),
        ];
        v.extend(
            r.features()
                .project(FeatureSet::full())
                .iter()
                .map(|x| x.to_bits()),
        );
        v
    }

    #[test]
    fn a_one_packet_flow_stays_in_the_nursery() {
        let mut t = FlowTable::default();
        for port in 1..=5 {
            t.apply(&report(port, u64::from(port), u32::from(port), 40, 1));
        }
        assert!(t.slots.is_empty(), "no flow has a second packet");
        assert_eq!((t.nursery.len(), t.len()), (5, 5));
        let rec = t.get(&key(3)).expect("a nursery flow is found");
        assert_eq!((rec.packet_count(), rec.last_seen_ns), (1, 3));
        assert_eq!(t.records().count(), 5);
        assert_eq!(t.protocol_split(), (5, 0));

        t.apply(&report(3, 10, 10, 40, 1));
        assert_eq!((t.slots.len(), t.nursery.len(), t.len()), (1, 4, 5));
        assert_eq!(t.get(&key(3)).map(|r| r.packet_count()), Some(2));
        for port in [1, 2, 4, 5] {
            assert_eq!(t.get(&key(port)).map(|r| r.packet_count()), Some(1));
        }
    }

    /// Creation hands back `new` + `observe(first)`, and promotion replays
    /// `new`, `observe(first)`, `update_seq += 1`, `observe(second)` — bit
    /// for bit, for each backend's update shape.
    #[test]
    fn promotion_matches_a_one_tier_replay() {
        let pint = |now_ns: u64, len: u16| FlowUpdate {
            flow: key(8),
            now_ns,
            len,
            stamp32: None,
            observed_ns: Some(now_ns),
            queue_occupancy: None,
        };
        let shapes = [
            (
                "INT",
                report(8, 1_000, u32::MAX - 99, 40, 7),
                report(8, 9_000, 400, 1400, 2),
            ),
            (
                "sFlow",
                sample(key(8), 5_000_000, 500),
                sample(key(8), 2_000_000, 700),
            ),
            ("PINT", pint(1_000, 64), pint(3_501_000, 1200)),
        ];
        for (name, first, second) in shapes {
            let mut t = FlowTable::default();
            // Neighbours on both tiers, so the moved entries get re-pointed.
            for port in [20, 21, 22] {
                t.apply(&report(port, 1, 1, 40, 0));
            }
            t.apply(&report(21, 2, 2, 40, 0));
            let mut one_tier = FlowRecord::new(first.flow);
            one_tier.observe(&first);
            let (kind, created) = t.apply(&first);
            assert_eq!(kind, UpdateKind::Created);
            assert_eq!(bits(created), bits(&one_tier), "{name} first packet");
            one_tier.update_seq += 1;
            one_tier.observe(&second);
            let (kind, promoted) = t.apply(&second);
            assert_eq!(kind, UpdateKind::Updated);
            assert_eq!(bits(promoted), bits(&one_tier), "{name} second packet");
            let stored = t.get(&first.flow).expect("promoted flow is found");
            assert_eq!(bits(&stored), bits(&one_tier), "{name} stored record");
            for port in [20, 21, 22] {
                assert!(t.get(&key(port)).is_some(), "{name}: lost {port}");
            }
        }
    }

    #[test]
    fn idle_eviction() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_ns: 1_000,
            max_flows: 100,
        });
        t.apply(&report(1, 0, 0, 40, 0)); // nursery, idle at 2 000
        t.apply(&report(2, 100, 100, 40, 0));
        t.apply(&report(2, 200, 200, 40, 0)); // slab, idle at 2 000
        t.apply(&report(3, 1_500, 1_500, 40, 0)); // nursery, live
        t.apply(&report(4, 1_400, 1_400, 40, 0));
        t.apply(&report(4, 1_600, 1_600, 40, 0)); // slab, live
        assert_eq!(t.evict_idle(2_000), 2);
        assert_eq!((t.slots.len(), t.nursery.len()), (1, 1));
        assert!(t.get(&key(1)).is_none() && t.get(&key(2)).is_none());
        assert!(t.get(&key(3)).is_some() && t.get(&key(4)).is_some());
    }

    #[test]
    fn capacity_pressure_evicts_oldest() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_ns: u64::MAX / 2, // nothing times out
            max_flows: 3,
        });
        t.apply(&report(1, 100, 100, 40, 0)); // nursery, oldest
        t.apply(&report(2, 150, 150, 40, 0));
        t.apply(&report(2, 200, 200, 40, 0)); // slab
        t.apply(&report(3, 300, 300, 40, 0)); // nursery
        t.apply(&report(4, 400, 400, 40, 0));
        assert!(t.get(&key(1)).is_none(), "the oldest nursery flow goes");
        t.apply(&report(3, 450, 450, 40, 0)); // promoted
        t.apply(&report(5, 500, 500, 40, 0));
        assert!(t.get(&key(2)).is_none(), "then the oldest slab flow");
        assert_eq!((t.slots.len(), t.nursery.len()), (1, 2));
        assert_eq!(t.evicted(), 2);
    }

    /// Bytes the table holds reserved: both tiers and the index.
    fn reserved(t: &FlowTable) -> usize {
        t.tier_bytes() + t.buckets.capacity() * size_of::<u64>()
    }

    /// DESIGN §10's ceiling, at a `max_flows` whose tiers and index are
    /// past their initial reservations: all-one-packet flows reserve at
    /// most 64 B per flow (48 B nursery + 16 B index at 2 buckets a
    /// flow), and any order of filling, promoting and evicting at most
    /// 164 B (the 148 B tier budget + 16 B index) — per flow of
    /// `max_flows` rounded up to a power of two. Filling the nursery and
    /// then promoting every flow, then replacing the slab with a new
    /// nursery, would hold both tiers at full size without the budget.
    #[test]
    fn tiers_and_index_stay_under_the_ceiling() {
        const FLOWS: usize = 20_000;
        let per_flow = FLOWS.next_power_of_two();
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_ns: 1_000_000_000,
            max_flows: FLOWS,
        });
        let flow = |i: usize| {
            let i = i as u32;
            FlowKey::new(
                Ipv4Addr::from(i),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                80,
                Protocol::Tcp,
            )
        };
        let mut clock = 0u64;
        let packet = |t: &mut FlowTable, clock: &mut u64, i: usize| {
            *clock += 1;
            t.apply(&FlowUpdate {
                flow: flow(i),
                ..report(1, *clock, *clock as u32, 40, 0)
            });
            assert!(
                reserved(t) <= 164 * per_flow,
                "{} B at {clock}",
                reserved(t)
            );
        };
        for round in 0..2 {
            let first = round * FLOWS;
            for i in first..first + FLOWS {
                packet(&mut t, &mut clock, i);
            }
            assert_eq!(t.nursery.len(), FLOWS);
            if round == 0 {
                assert!(reserved(&t) <= 64 * per_flow, "{} B", reserved(&t));
            }
            for i in first..first + FLOWS {
                packet(&mut t, &mut clock, i);
            }
            assert_eq!(t.slots.len(), FLOWS);
            // The next round's first packet finds every flow idle.
            clock += 2_000_000_000;
        }
        assert_eq!(t.evicted(), FLOWS as u64);
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
