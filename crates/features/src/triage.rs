//! Line-rate triage pre-filter: sketch-based flow gating in front of the
//! Predictor (ROADMAP item 4's collection-stage pre-filter).
//!
//! The paper forwards *every* flow update to the ML ensemble — exactly
//! backwards under a volumetric DDoS, which multiplies the active-flow
//! population precisely when inference capacity is scarcest. This module
//! is the O(1)-per-update, statically allocated triage stage that runs
//! inside the Processor ingest path (after [`crate::FlowTable::apply`],
//! before the CentralServer update filter) and grades each update:
//!
//! * **Forward** — evaluate now, on the normal prediction lane. Early
//!   updates of every flow (smoothing warm-up) always forward, and
//!   suspicious flows keep forwarding at a decimated 1-in-`stride` rate,
//!   so detection latency and the per-flow verdict stream survive gating.
//! * **Defer** — park on a bounded low-priority lane the Predictor
//!   drains only when the main lane is idle. Benign steady-state traffic
//!   lands here: it still gets evaluated in quiet periods, and lane
//!   overflow under load is explicit shed, not silent loss.
//! * **Drop** — do not evaluate. The decimated remainder of suspicious
//!   flows, plus baseline-conforming traffic while the aggregate alarm
//!   says a flood is in progress.
//!
//! The score is *not* self-deviation (a steady SYN flood is perfectly
//! self-consistent): each flow's EMA of packet length and inter-arrival
//! is compared in log-space against a configured benign operating
//! envelope, plus a heavy-hitter term from a window-decayed count-min
//! sketch. Src/dst entropy sketches provide the aggregate alarm — a
//! surge in update rate or source-address entropy flips the stage into
//! flood posture, where low-score updates drop instead of defer.
//!
//! Everything is allocated once in [`TriageStage::new`]; the per-update
//! path is allocation-free and panic-free (amlint R6/R1, enforced via
//! the `assess` hot root).

use crate::table::{FlowRecord, FlowUpdate};
use amlight_net::flow::FnvBuildHasher;
use serde::{Deserialize, Serialize};
use std::hash::BuildHasher;

/// How the pre-filter participates in a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PrefilterMode {
    /// Stage disabled: no sketch state, no scoring, every update forwards.
    #[default]
    Off,
    /// Scores and sketches run (counted as would-be verdicts) but every
    /// update still forwards — the recall-parity measurement mode.
    Shadow,
    /// Verdicts gate for real: Defer routes to the low-priority lane and
    /// Drop skips prediction entirely.
    On,
}

impl PrefilterMode {
    /// Parse a `--prefilter` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "shadow" => Some(Self::Shadow),
            "on" => Some(Self::On),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Shadow => "shadow",
            Self::On => "on",
        }
    }
}

/// Per-update gating decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriageVerdict {
    /// Evaluate on the normal prediction lane.
    Forward,
    /// Park on the low-priority lane; evaluated when the Predictor idles.
    Defer,
    /// Skip prediction for this update.
    Drop,
}

/// A triage verdict plus the anomaly score that produced it (also the
/// optional `sketch_score` feature column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriageDecision {
    pub verdict: TriageVerdict,
    pub score: f64,
}

impl TriageDecision {
    /// The no-op decision (stage off / flow creations).
    pub const fn forward() -> Self {
        Self {
            verdict: TriageVerdict::Forward,
            score: 0.0,
        }
    }
}

/// Triage tuning. Every sizing knob is rounded up to a power of two so
/// the hot path indexes with masks, never division.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TriageConfig {
    /// EMA weight for the per-flow length/inter-arrival baselines.
    pub ema_alpha: f64,
    /// Updates of every flow that always forward (smoothing warm-up:
    /// keep this ≥ the aggregator's window so first verdicts and
    /// detection latency are unchanged by gating).
    pub warmup_updates: u64,
    /// After warm-up, suspicious flows forward 1 update in `stride`
    /// (the rest drop) — the predictor sees a decimated sample of a
    /// flood flow instead of its entire update firehose.
    pub forward_stride: u64,
    /// Score at or above which an update is suspicious (Forward lane,
    /// decimated).
    pub forward_threshold: f64,
    /// Under an active aggregate alarm, scores below this drop instead
    /// of deferring. Keep ≤ `forward_threshold`; scores between the two
    /// defer even mid-flood.
    pub drop_threshold: f64,
    /// Benign operating envelope: typical packet length, bytes.
    pub benign_len: f64,
    /// Benign operating envelope: typical per-flow inter-arrival, s.
    pub benign_iat_s: f64,
    /// Per-flow window count above which the heavy-hitter term starts
    /// contributing meaningfully.
    pub heavy_norm: f64,
    /// Score weights: length deviation, inter-arrival deviation,
    /// heavy-hitter term.
    pub w_len: f64,
    pub w_iat: f64,
    pub w_heavy: f64,
    /// Direct-mapped per-flow baseline cells (rounded up to a power of
    /// two). Collisions evict: triage baselines are advisory, not
    /// bookkeeping.
    pub flow_cells: usize,
    /// Count-min sketch width per row (rounded up to a power of two).
    pub cm_width: usize,
    /// Count-min sketch rows.
    pub cm_depth: usize,
    /// Entropy sketch buckets (rounded up to a power of two).
    pub entropy_buckets: usize,
    /// Aggregate window length (event-native clock, ns). Each rollover
    /// evaluates the alarm and halves every sketch counter.
    pub window_ns: u64,
    /// Windows with fewer events than this never alarm (absolute floor).
    pub alarm_min_events: u64,
    /// Alarm when a window's event count exceeds this multiple of the
    /// calm-rate EMA …
    pub alarm_rate_ratio: f64,
    /// … or when src entropy jumps (or dst entropy collapses) by this
    /// many nats against its calm baseline.
    pub alarm_entropy_jump: f64,
}

impl Default for TriageConfig {
    fn default() -> Self {
        Self {
            ema_alpha: 0.3,
            warmup_updates: 3,
            forward_stride: 8,
            forward_threshold: 1.25,
            drop_threshold: 1.25,
            benign_len: 800.0,
            benign_iat_s: 1e-3,
            heavy_norm: 64.0,
            w_len: 0.5,
            w_iat: 0.5,
            w_heavy: 0.35,
            flow_cells: 4096,
            cm_width: 1024,
            cm_depth: 4,
            entropy_buckets: 256,
            window_ns: 250_000_000,
            alarm_min_events: 512,
            alarm_rate_ratio: 4.0,
            alarm_entropy_jump: 0.7,
        }
    }
}

/// EMA weight for the calm-window baselines (rate, entropies).
const ALPHA_SLOW: f64 = 0.25;

/// SplitMix64 finalizer: cheap, panic-free avalanche for sketch indexing.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A count-min sketch whose counters halve at every window rollover —
/// a cheap exponential decay that can never underflow (`u64 >> 1`).
///
/// Windowed halving keeps ~one window of history in the estimate, so a
/// flow that just went quiet does not instantly look cold; a caller that
/// wants hard epochs instead calls [`WindowedCountMin::clear`]. Width is
/// a power of two: hot-path indexing is mask-and-add.
#[derive(Debug, Clone)]
pub struct WindowedCountMin {
    width_mask: usize,
    depth: usize,
    /// `depth` rows of `width` counters, flattened row-major.
    counters: Vec<u64>,
}

/// Per-row hash seeds (mixed into the key before the row's mask).
const ROW_SEEDS: [u64; 8] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
    0x4528_21E6_38D0_1377,
    0xBE54_66CF_34E9_0C6C,
    0xC0AC_29B7_C97C_50DD,
    0x3F84_D5B5_B547_0917,
];

impl WindowedCountMin {
    /// Width is rounded up to a power of two; depth is capped at
    /// [`ROW_SEEDS`]'s length.
    pub fn new(width: usize, depth: usize) -> Self {
        let width = width.max(2).next_power_of_two();
        let depth = depth.clamp(1, ROW_SEEDS.len());
        Self {
            width_mask: width - 1,
            depth,
            counters: vec![0; width * depth],
        }
    }

    /// Count one occurrence of `key`; returns the new (over-)estimate.
    // amlint: allow(R8) -- row*width + (hash & width_mask) < depth*width = counters.len()
    #[inline]
    pub fn observe(&mut self, key: u64) -> u64 {
        let mut est = u64::MAX;
        let width = self.width_mask + 1;
        for (row, seed) in ROW_SEEDS.iter().take(self.depth).enumerate() {
            let h = mix64(key ^ seed);
            let slot = row * width + (h as usize & self.width_mask);
            let c = self.counters[slot].saturating_add(1);
            self.counters[slot] = c;
            est = est.min(c);
        }
        est
    }

    /// Point estimate: minimum over rows (never under the true decayed
    /// count).
    // amlint: allow(R8) -- row*width + (hash & width_mask) < depth*width = counters.len()
    #[inline]
    pub fn estimate(&self, key: u64) -> u64 {
        let mut est = u64::MAX;
        let width = self.width_mask + 1;
        for (row, seed) in ROW_SEEDS.iter().take(self.depth).enumerate() {
            let h = mix64(key ^ seed);
            est = est.min(self.counters[row * width + (h as usize & self.width_mask)]);
        }
        if est == u64::MAX {
            0
        } else {
            est
        }
    }

    /// Halve every counter — window rollover decay. Right-shifting an
    /// unsigned counter can never underflow: 0 stays 0.
    #[inline]
    pub fn decay(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
    }

    /// Zero every counter — a hard epoch boundary.
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }
}

/// A bucketed entropy estimator with the same halving decay.
///
/// Symbols hash into a fixed power-of-two bucket array; Shannon entropy
/// is computed over bucket frequencies. Colliding symbols merge buckets,
/// and merging can only lose entropy — the estimate never exceeds the
/// exact entropy of the underlying stream (grouping property), and
/// equals it when every symbol owns its own bucket.
#[derive(Debug, Clone)]
pub struct EntropySketch {
    mask: usize,
    buckets: Vec<u64>,
    total: u64,
}

impl EntropySketch {
    pub fn new(buckets: usize) -> Self {
        let n = buckets.max(2).next_power_of_two();
        Self {
            mask: n - 1,
            buckets: vec![0; n],
            total: 0,
        }
    }

    /// The bucket a symbol hash lands in (exposed so tests can build
    /// collision-free universes).
    #[inline]
    pub fn bucket_of(&self, symbol: u64) -> usize {
        mix64(symbol) as usize & self.mask
    }

    /// Count one occurrence of `symbol`.
    // amlint: allow(R8) -- bucket_of() masks into the fixed bucket array
    #[inline]
    pub fn observe(&mut self, symbol: u64) {
        let b = self.bucket_of(symbol);
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.total = self.total.saturating_add(1);
    }

    /// Shannon entropy (nats) over the bucket distribution.
    #[inline]
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        let mut acc = 0.0;
        for &b in &self.buckets {
            if b > 0 {
                let p = b as f64 / total;
                acc -= p * p.ln();
            }
        }
        acc
    }

    /// Events counted since the last full decay-to-zero.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Halve every bucket (and recompute the total from the halved
    /// buckets, so `total == Σ buckets` stays an invariant).
    #[inline]
    pub fn decay(&mut self) {
        let mut total = 0u64;
        for b in &mut self.buckets {
            *b >>= 1;
            total += *b;
        }
        self.total = total;
    }
}

/// One direct-mapped per-flow baseline cell. Tag 0 means empty; a tag
/// mismatch (hash collision or fresh flow) reinitializes the cell.
#[derive(Debug, Clone, Copy, Default)]
struct FlowCell {
    tag: u64,
    ema_len: f64,
    ema_iat_s: f64,
    /// Suspicious updates since this flow last forwarded (decimation).
    since_forward: u32,
}

/// Would-be verdict tallies — what gating *decided*, independent of
/// whether the mode actually applied it (shadow mode's measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TriageCounters {
    /// Flow updates scored (creations are sketched but never gated).
    pub scored: u64,
    pub forward: u64,
    pub defer: u64,
    pub drop: u64,
    /// Aggregate windows closed.
    pub windows: u64,
    /// Windows closed in flood posture.
    pub alarm_windows: u64,
}

impl TriageCounters {
    /// Fold another stage's tallies in (shard aggregation).
    pub fn merge(&mut self, other: &TriageCounters) {
        self.scored += other.scored;
        self.forward += other.forward;
        self.defer += other.defer;
        self.drop += other.drop;
        self.windows += other.windows;
        self.alarm_windows += other.alarm_windows;
    }
}

/// The triage stage: per-flow EMA baselines + windowed aggregate
/// sketches + the alarm state machine. One per processor shard; all
/// state is allocated in [`TriageStage::new`] and the per-update
/// [`TriageStage::assess`] path is allocation- and panic-free.
#[derive(Debug)]
pub struct TriageStage {
    cfg: TriageConfig,
    hasher: FnvBuildHasher,
    cells: Vec<FlowCell>,
    cell_mask: usize,
    cm: WindowedCountMin,
    src_entropy: EntropySketch,
    dst_entropy: EntropySketch,
    /// Event-native time at which the current aggregate window closes.
    window_end_ns: u64,
    /// Events (creations + updates) seen in the current window.
    window_events: u64,
    /// Calm-window baselines (only non-alarm windows update them, so a
    /// sustained flood cannot talk its way into the "new normal").
    rate_ema: f64,
    src_h_ema: f64,
    dst_h_ema: f64,
    baseline_set: bool,
    alarm_active: bool,
    counters: TriageCounters,
}

impl TriageStage {
    pub fn new(cfg: TriageConfig) -> Self {
        let cells = cfg.flow_cells.max(2).next_power_of_two();
        Self {
            cfg,
            hasher: FnvBuildHasher::default(),
            cells: vec![FlowCell::default(); cells],
            cell_mask: cells - 1,
            cm: WindowedCountMin::new(cfg.cm_width, cfg.cm_depth),
            src_entropy: EntropySketch::new(cfg.entropy_buckets),
            dst_entropy: EntropySketch::new(cfg.entropy_buckets),
            window_end_ns: 0,
            window_events: 0,
            rate_ema: 0.0,
            src_h_ema: 0.0,
            dst_h_ema: 0.0,
            baseline_set: false,
            alarm_active: false,
            counters: TriageCounters::default(),
        }
    }

    /// Grade one applied flow update. Call for *every* event — creations
    /// feed the sketches (a spoofed flood is mostly creations) but are
    /// never gated (§III-3 skips them before triage even runs); their
    /// decision is always Forward.
    // amlint: hot
    pub fn assess(&mut self, update: &FlowUpdate, rec: &FlowRecord) -> TriageDecision {
        if update.now_ns >= self.window_end_ns {
            self.roll_window(update.now_ns);
        }
        self.window_events += 1;

        // Aggregate context: every event counts, whichever lane it ends
        // up on — the alarm must see the creation firehose of a spoofed
        // flood even though none of those packets reach prediction.
        let src = u64::from(u32::from(update.flow.src_ip));
        let dst = u64::from(u32::from(update.flow.dst_ip));
        self.src_entropy.observe(src);
        self.dst_entropy.observe(dst.wrapping_add(0x9E37_79B9));
        let flow_hash = self.hasher.hash_one(update.flow);
        let heavy_est = self.cm.observe(flow_hash);

        // Per-flow baseline cell (direct-mapped, collision-evicting).
        let tag = if flow_hash == 0 { 1 } else { flow_hash };
        let len = rec.last_packet_len as f64;
        let iat = rec.last_inter_arrival_s;
        let idx = flow_hash as usize & self.cell_mask;
        // amlint: allow(R8) -- masked power-of-two index into the fixed cell array
        let cell = &mut self.cells[idx];
        if cell.tag != tag {
            *cell = FlowCell {
                tag,
                ema_len: len.max(1.0),
                ema_iat_s: if iat > 0.0 {
                    iat
                } else {
                    self.cfg.benign_iat_s
                },
                since_forward: 0,
            };
        } else {
            let a = self.cfg.ema_alpha;
            cell.ema_len += a * (len - cell.ema_len);
            if iat > 0.0 {
                cell.ema_iat_s += a * (iat - cell.ema_iat_s);
            }
        }

        // Log-space distance from the benign envelope: symmetric, so
        // tiny/fast flood packets and huge/slow slowloris trickles both
        // score high, plus the heavy-hitter term.
        let len_dev = (cell.ema_len.max(1.0) / self.cfg.benign_len).ln().abs();
        let iat_dev = (cell.ema_iat_s.max(1e-9) / self.cfg.benign_iat_s)
            .ln()
            .abs();
        let heavy = (1.0 + heavy_est as f64 / self.cfg.heavy_norm).ln();
        let score = self.cfg.w_len * len_dev + self.cfg.w_iat * iat_dev + self.cfg.w_heavy * heavy;

        let verdict = if rec.update_seq == 0 {
            // Creation: sketched above, never forwarded downstream anyway.
            TriageVerdict::Forward
        } else if rec.update_seq <= self.cfg.warmup_updates {
            cell.since_forward = 0;
            TriageVerdict::Forward
        } else if score >= self.cfg.forward_threshold {
            // Suspicious flow: decimated forwarding. The predictor keeps
            // seeing a 1-in-stride sample, enough to hold the smoothing
            // window at Attack without evaluating the whole firehose.
            cell.since_forward += 1;
            if u64::from(cell.since_forward) >= self.cfg.forward_stride {
                cell.since_forward = 0;
                TriageVerdict::Forward
            } else {
                TriageVerdict::Drop
            }
        } else if self.alarm_active && score < self.cfg.drop_threshold {
            TriageVerdict::Drop
        } else {
            TriageVerdict::Defer
        };

        if rec.update_seq > 0 {
            self.counters.scored += 1;
            match verdict {
                TriageVerdict::Forward => self.counters.forward += 1,
                TriageVerdict::Defer => self.counters.defer += 1,
                TriageVerdict::Drop => self.counters.drop += 1,
            }
        }
        TriageDecision { verdict, score }
    }

    /// Close the current aggregate window: evaluate the alarm, update
    /// the calm baselines, and halve every sketch. Reached from the hot
    /// path once per window — must stay allocation- and panic-free.
    fn roll_window(&mut self, now_ns: u64) {
        if self.window_end_ns > 0 {
            self.counters.windows += 1;
            let count = self.window_events as f64;
            let src_h = self.src_entropy.entropy();
            let dst_h = self.dst_entropy.entropy();
            let over_floor = self.window_events >= self.cfg.alarm_min_events;
            let rate_alarm = over_floor
                && self.baseline_set
                && count > self.cfg.alarm_rate_ratio * self.rate_ema.max(1.0);
            let entropy_alarm = over_floor
                && self.baseline_set
                && (src_h - self.src_h_ema > self.cfg.alarm_entropy_jump
                    || self.dst_h_ema - dst_h > self.cfg.alarm_entropy_jump);
            self.alarm_active = rate_alarm || entropy_alarm;
            if self.alarm_active {
                self.counters.alarm_windows += 1;
            } else if self.baseline_set {
                self.rate_ema += ALPHA_SLOW * (count - self.rate_ema);
                self.src_h_ema += ALPHA_SLOW * (src_h - self.src_h_ema);
                self.dst_h_ema += ALPHA_SLOW * (dst_h - self.dst_h_ema);
            } else if self.window_events > 0 {
                self.rate_ema = count;
                self.src_h_ema = src_h;
                self.dst_h_ema = dst_h;
                self.baseline_set = true;
            }
            self.cm.decay();
            self.src_entropy.decay();
            self.dst_entropy.decay();
        }
        self.window_events = 0;
        self.window_end_ns = now_ns.saturating_add(self.cfg.window_ns);
    }

    /// Is the stage currently in flood posture?
    pub fn alarm_active(&self) -> bool {
        self.alarm_active
    }

    /// Would-be verdict tallies so far.
    pub fn counters(&self) -> TriageCounters {
        self.counters
    }

    pub fn config(&self) -> &TriageConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{FlowTable, FlowTableConfig};
    use amlight_net::{FlowKey, Protocol};
    use std::net::Ipv4Addr;

    fn key(src_last: u8, src_port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(198, 18, 0, src_last),
            Ipv4Addr::new(10, 0, 0, 2),
            src_port,
            80,
            Protocol::Tcp,
        )
    }

    fn update(flow: FlowKey, now_ns: u64, len: u16) -> FlowUpdate {
        FlowUpdate {
            flow,
            now_ns,
            len,
            stamp32: None,
            observed_ns: Some(now_ns),
            queue_occupancy: None,
        }
    }

    /// Drive a real flow table so `assess` sees the same records the
    /// Processor would hand it.
    struct Rig {
        table: FlowTable,
        stage: TriageStage,
    }

    impl Rig {
        fn new(cfg: TriageConfig) -> Self {
            Self {
                table: FlowTable::new(FlowTableConfig::default()),
                stage: TriageStage::new(cfg),
            }
        }

        fn feed(&mut self, u: FlowUpdate) -> TriageDecision {
            let (_, rec) = self.table.apply(&u);
            self.stage.assess(&u, rec)
        }
    }

    fn quiet_cfg() -> TriageConfig {
        TriageConfig {
            // Effectively never alarms; windows still roll.
            alarm_min_events: u64::MAX,
            ..TriageConfig::default()
        }
    }

    #[test]
    fn benign_envelope_flow_defers_after_warmup() {
        let mut rig = Rig::new(quiet_cfg());
        let f = key(1, 40000);
        let mut verdicts = Vec::new();
        for i in 0..12u64 {
            // 800-byte packets at 1 ms: dead centre of the envelope.
            let d = rig.feed(update(f, i * 1_000_000, 800));
            assert!(d.score < 1.25, "benign score stays low, got {}", d.score);
            verdicts.push(d.verdict);
        }
        // Creation + warm-up forwards, then steady Defer.
        assert_eq!(verdicts[0], TriageVerdict::Forward, "creation");
        for v in &verdicts[1..4] {
            assert_eq!(*v, TriageVerdict::Forward, "warm-up");
        }
        for v in &verdicts[4..] {
            assert_eq!(*v, TriageVerdict::Defer, "steady benign defers");
        }
        let c = rig.stage.counters();
        assert_eq!(c.scored, 11);
        assert_eq!(c.forward, 3);
        assert_eq!(c.defer, 8);
        assert_eq!(c.drop, 0);
    }

    #[test]
    fn flood_flow_is_decimated_not_silenced() {
        let cfg = quiet_cfg();
        let stride = cfg.forward_stride;
        let mut rig = Rig::new(cfg);
        let f = key(2, 50000);
        let mut forwards = 0u64;
        let mut drops = 0u64;
        let n = 200u64;
        for i in 0..n {
            // 40-byte SYNs at 20 µs — far outside the envelope.
            let d = rig.feed(update(f, i * 20_000, 40));
            if i == 0 {
                continue; // creation
            }
            assert!(d.score >= 1.25, "flood must look suspicious: {}", d.score);
            match d.verdict {
                TriageVerdict::Forward => forwards += 1,
                TriageVerdict::Drop => drops += 1,
                TriageVerdict::Defer => panic!("suspicious flows never defer"),
            }
        }
        // Warm-up plus roughly 1-in-stride afterwards.
        let after_warmup = n - 1 - cfg.warmup_updates;
        assert_eq!(forwards, cfg.warmup_updates + after_warmup / stride);
        assert_eq!(drops, after_warmup - after_warmup / stride);
    }

    #[test]
    fn rate_surge_trips_the_alarm_and_quiet_flows_drop() {
        let cfg = TriageConfig {
            window_ns: 1_000_000,
            alarm_min_events: 64,
            alarm_rate_ratio: 4.0,
            ..TriageConfig::default()
        };
        let mut rig = Rig::new(cfg);
        // Calm baseline: ~10 events per window from one benign flow.
        let benign = key(3, 41000);
        let mut t = 0u64;
        for _ in 0..50 {
            rig.feed(update(benign, t, 800));
            t += 100_000; // 10 per 1 ms window
        }
        assert!(!rig.stage.alarm_active());
        // Surge: hundreds of creations per window (spoofed flood shape).
        for i in 0..600u32 {
            let f = key((10 + (i % 200)) as u8, 42000 + (i / 200) as u16);
            rig.feed(update(f, t, 40));
            t += 2_000; // 500 per window
        }
        assert!(rig.stage.alarm_active(), "surge must flip flood posture");
        // The benign flow's in-envelope updates now drop, not defer.
        let d = rig.feed(update(benign, t, 800));
        assert_eq!(d.verdict, TriageVerdict::Drop);
        assert!(rig.stage.counters().alarm_windows > 0);
    }

    #[test]
    fn alarm_clears_when_the_surge_ends() {
        let cfg = TriageConfig {
            window_ns: 1_000_000,
            alarm_min_events: 64,
            ..TriageConfig::default()
        };
        let mut rig = Rig::new(cfg);
        let benign = key(4, 43000);
        let mut t = 0u64;
        for _ in 0..50 {
            rig.feed(update(benign, t, 800));
            t += 100_000;
        }
        for i in 0..600u32 {
            let f = key((10 + (i % 200)) as u8, 44000);
            rig.feed(update(f, t, 40));
            t += 2_000;
        }
        assert!(rig.stage.alarm_active());
        // Back to the calm cadence for several windows.
        for _ in 0..50 {
            rig.feed(update(benign, t, 800));
            t += 100_000;
        }
        assert!(!rig.stage.alarm_active(), "alarm must clear after surge");
    }

    #[test]
    fn creations_are_sketched_but_never_gated() {
        let mut rig = Rig::new(quiet_cfg());
        for i in 0..20u16 {
            let d = rig.feed(update(key(5, 45000 + i), i as u64 * 1_000, 40));
            assert_eq!(d.verdict, TriageVerdict::Forward);
        }
        let c = rig.stage.counters();
        assert_eq!(c.scored, 0, "creations are not verdict-counted");
        // But they did feed the aggregate sketches.
        assert!(rig.stage.src_entropy.total() == 20);
    }

    #[test]
    fn cell_collision_evicts_and_reseeds() {
        let cfg = TriageConfig {
            flow_cells: 2, // force collisions
            ..quiet_cfg()
        };
        let mut rig = Rig::new(cfg);
        // Interleave many distinct flows: every assess may hit a stale
        // cell; the stage must keep working (scores finite, no panic).
        for i in 0..200u16 {
            let d = rig.feed(update(
                key((i % 50) as u8, 46000 + i),
                i as u64 * 1_000,
                800,
            ));
            assert!(d.score.is_finite());
        }
    }

    #[test]
    fn count_min_estimate_never_underestimates() {
        let mut cm = WindowedCountMin::new(64, 4);
        for k in 0..500u64 {
            for _ in 0..(k % 7) + 1 {
                cm.observe(k);
            }
        }
        for k in 0..500u64 {
            assert!(cm.estimate(k) > k % 7, "key {k}");
        }
    }

    #[test]
    fn count_min_decay_halves_and_never_underflows() {
        let mut cm = WindowedCountMin::new(128, 4);
        for _ in 0..100 {
            cm.observe(42);
        }
        let before = cm.estimate(42);
        cm.decay();
        let after = cm.estimate(42);
        assert!(after <= before);
        assert!(after >= before / 2, "halving, not clearing");
        for _ in 0..200 {
            cm.decay(); // decaying an empty/near-empty sketch is safe
        }
        assert_eq!(cm.estimate(42), 0);
        assert_eq!(cm.estimate(7), 0);
    }

    #[test]
    fn entropy_matches_exact_on_collision_free_universe() {
        let mut sk = EntropySketch::new(256);
        // Three symbols with distinct buckets, counts 1/2/4.
        let mut symbols = Vec::new();
        let mut used = std::collections::HashSet::new();
        let mut candidate = 0u64;
        while symbols.len() < 3 {
            if used.insert(sk.bucket_of(candidate)) {
                symbols.push(candidate);
            }
            candidate += 1;
        }
        let counts = [1u64, 2, 4];
        for (s, &c) in symbols.iter().zip(&counts) {
            for _ in 0..c {
                sk.observe(*s);
            }
        }
        let total: u64 = counts.iter().sum();
        let exact: f64 = counts
            .iter()
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.ln()
            })
            .sum();
        assert!((sk.entropy() - exact).abs() < 1e-12);
    }

    #[test]
    fn entropy_decay_keeps_total_consistent() {
        let mut sk = EntropySketch::new(16);
        for i in 0..1000u64 {
            sk.observe(i);
        }
        for _ in 0..70 {
            sk.decay();
            assert!(sk.entropy() >= 0.0);
        }
        assert_eq!(sk.total(), 0, "enough halvings empty the sketch");
        assert_eq!(sk.entropy(), 0.0);
    }

    #[test]
    fn prefilter_mode_parses() {
        assert_eq!(PrefilterMode::parse("off"), Some(PrefilterMode::Off));
        assert_eq!(PrefilterMode::parse("shadow"), Some(PrefilterMode::Shadow));
        assert_eq!(PrefilterMode::parse("on"), Some(PrefilterMode::On));
        assert_eq!(PrefilterMode::parse("auto"), None);
        assert_eq!(PrefilterMode::On.name(), "on");
        assert_eq!(PrefilterMode::default(), PrefilterMode::Off);
    }
}
