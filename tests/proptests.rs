//! Property-based tests on the workspace's core data structures and
//! invariants, spanning crates.

use amlight::core::event::Telemetry;
use amlight::core::verdict::{SmoothingWindow, Verdict};
use amlight::features::{
    FeatureId, FeatureVector, FlowRecord, FlowTable, FlowTableConfig, FlowUpdate, UpdateKind,
};
use amlight::int::{HopMetadata, InstructionSet, TelemetryReport};
use amlight::ml::{ConfusionMatrix, Dataset, StandardScaler};
use amlight::net::{Decode, Encode, FlowKey, Packet, PacketBuilder, Protocol, TcpFlags};
use amlight::sim::clock::TelemetryClock;
use proptest::prelude::*;
use std::collections::HashMap;

/// One column's accumulator as the 240-byte record kept it: its own
/// count, a running sum, and Welford mean/M2.
#[derive(Debug, Default)]
struct OracleStats {
    n: u64,
    sum: f64,
    mean: f64,
    m2: f64,
}

impl OracleStats {
    fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0).sqrt()
        }
    }
}

/// The flow record's update rule before it was packed into 144 bytes:
/// a packet counter beside the length stats' own count, `Option` clocks,
/// three full accumulators. Kept only as an oracle for `FlowRecord`.
#[derive(Debug, Default)]
struct OracleRecord {
    last_seen_ns: u64,
    update_seq: u64,
    last_packet_len: u16,
    last_inter_arrival_s: f64,
    last_queue_occ: u32,
    last_stamp32: Option<u32>,
    last_observed_ns: Option<u64>,
    packet_count: u64,
    byte_count: u64,
    len: OracleStats,
    iat: OracleStats,
    qocc: OracleStats,
}

impl OracleRecord {
    fn observe(&mut self, u: &FlowUpdate) {
        let iat_s = match (
            u.stamp32,
            self.last_stamp32,
            u.observed_ns,
            self.last_observed_ns,
        ) {
            (Some(s), Some(prev), _, _) => Some(f64::from(s.wrapping_sub(prev)) / 1e9),
            (_, _, Some(o), Some(prev)) => Some(o.saturating_sub(prev) as f64 / 1e9),
            _ => None,
        };
        self.last_stamp32 = u.stamp32.or(self.last_stamp32);
        self.last_observed_ns = u.observed_ns.or(self.last_observed_ns);
        self.last_seen_ns = u.now_ns;
        self.last_packet_len = u.len;
        self.packet_count += 1;
        self.byte_count += u64::from(u.len);
        self.len.push(f64::from(u.len));
        if let Some(iat) = iat_s {
            self.last_inter_arrival_s = iat;
            self.iat.push(iat);
        }
        if let Some(q) = u.queue_occupancy {
            self.last_queue_occ = q;
            self.qocc.push(f64::from(q));
        }
    }

    fn features(&self, protocol: Protocol) -> FeatureVector {
        let mut v = FeatureVector::default();
        v.set(FeatureId::Protocol, f64::from(protocol.number()));
        v.set(FeatureId::PacketLen, f64::from(self.last_packet_len));
        v.set(FeatureId::PacketLenCum, self.byte_count as f64);
        v.set(FeatureId::PacketLenAvg, self.len.mean());
        v.set(FeatureId::PacketLenStd, self.len.std());
        v.set(FeatureId::InterArrival, self.last_inter_arrival_s);
        v.set(FeatureId::InterArrivalCum, self.iat.sum);
        v.set(FeatureId::InterArrivalAvg, self.iat.mean());
        v.set(FeatureId::InterArrivalStd, self.iat.std());
        v.set(FeatureId::QueueOcc, f64::from(self.last_queue_occ));
        v.set(FeatureId::QueueOccAvg, self.qocc.mean());
        v.set(FeatureId::QueueOccStd, self.qocc.std());
        v.set(FeatureId::PacketCount, self.packet_count as f64);
        if self.iat.sum > 0.0 {
            v.set(
                FeatureId::PacketsPerSec,
                self.packet_count as f64 / self.iat.sum,
            );
            v.set(
                FeatureId::BytesPerSec,
                self.byte_count as f64 / self.iat.sum,
            );
        }
        v
    }
}

/// Bit-level agreement of a live record with the oracle's.
fn same_record(rec: &FlowRecord, o: &OracleRecord) -> bool {
    let (got, want) = (rec.features(), o.features(rec.key.protocol));
    FeatureId::ALL
        .iter()
        .all(|&id| got.get(id).to_bits() == want.get(id).to_bits())
        && rec.update_seq == o.update_seq
        && rec.packet_count() == o.packet_count
        && rec.byte_count == o.byte_count
        && rec.last_seen_ns == o.last_seen_ns
        && rec.last_packet_len == o.last_packet_len
        && rec.last_inter_arrival_s.to_bits() == o.last_inter_arrival_s.to_bits()
        && rec.last_queue_occ == o.last_queue_occ
        && rec.duration_s().to_bits() == o.iat.sum.to_bits()
}

fn arb_flow_key() -> impl Strategy<Value = FlowKey> {
    (
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(Protocol::Tcp), Just(Protocol::Udp)],
    )
        .prop_map(|(s, d, sp, dp, proto)| FlowKey::new(s.into(), d.into(), sp, dp, proto))
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_flow_key(),
        any::<u16>(),
        0u16..1400,
        any::<u32>(),
        0u8..64,
    )
        .prop_map(|(key, id, payload, seq, flags)| {
            let builder = PacketBuilder::new(key.src_ip, key.dst_ip).identification(id);
            match key.protocol {
                Protocol::Tcp => builder.tcp(
                    key.src_port,
                    key.dst_port,
                    TcpFlags(flags & 0x3f),
                    seq,
                    seq / 2,
                    payload,
                ),
                Protocol::Udp => builder.udp(key.src_port, key.dst_port, payload),
            }
        })
}

proptest! {
    #[test]
    fn flow_key_bytes_roundtrip(key in arb_flow_key()) {
        prop_assert_eq!(FlowKey::from_bytes(&key.to_bytes()), Some(key));
    }

    #[test]
    fn packet_wire_roundtrip(pkt in arb_packet()) {
        let mut cursor = pkt.encode_to_bytes().freeze();
        let back = Packet::decode(&mut cursor).unwrap();
        prop_assert_eq!(back, pkt);
        prop_assert!(cursor.is_empty());
    }

    #[test]
    fn packet_flow_key_is_reverse_of_reverse(pkt in arb_packet()) {
        let key = pkt.flow_key();
        prop_assert_eq!(key.reversed().reversed(), key);
    }

    #[test]
    fn telemetry_report_roundtrip(
        key in arb_flow_key(),
        len in 20u16..1500,
        hops in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), 0u32..10_000),
            0..8,
        ),
        export in any::<u64>(),
    ) {
        let report = TelemetryReport {
            flow: key,
            ip_len: len,
            tcp_flags: match key.protocol {
                Protocol::Tcp => Some(0x12),
                Protocol::Udp => None,
            },
            instructions: InstructionSet::amlight(),
            hops: hops
                .into_iter()
                .map(|(sw, ing, eg, q)| HopMetadata {
                    switch_id: sw,
                    ingress_tstamp: ing,
                    egress_tstamp: eg,
                    hop_latency: 0,
                    queue_occupancy: q,
                })
                .collect(),
            export_ns: export,
        };
        let mut cursor = report.encode_to_bytes().freeze();
        prop_assert_eq!(TelemetryReport::decode(&mut cursor).unwrap(), report);
    }

    /// The record's streaming mean/std columns agree with a two-pass
    /// computation over the packet lengths and inter-arrival times one
    /// sFlow-clocked flow was fed.
    #[test]
    fn welford_matches_two_pass_reference(
        packets in proptest::collection::vec((0u64..2_000_000_000, 20u16..1500), 1..200),
    ) {
        let mut table = FlowTable::new(FlowTableConfig::default());
        let flow = FlowKey::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 1234, 80, Protocol::Udp);
        let mut clock = 0u64;
        let mut lens = Vec::new();
        let mut iats = Vec::new();
        for (i, &(gap, len)) in packets.iter().enumerate() {
            if i > 0 {
                clock += gap;
                iats.push(gap as f64 / 1e9);
            }
            lens.push(f64::from(len));
            table.apply(&FlowUpdate {
                flow,
                now_ns: clock,
                len,
                stamp32: None,
                observed_ns: Some(clock),
                queue_occupancy: None,
            });
        }
        let v = table.get(&flow).unwrap().features();
        let two_pass = |xs: &[f64]| {
            if xs.is_empty() {
                return (0.0, 0.0);
            }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            (mean, (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt())
        };
        for (xs, avg, std) in [
            (&lens, FeatureId::PacketLenAvg, FeatureId::PacketLenStd),
            (&iats, FeatureId::InterArrivalAvg, FeatureId::InterArrivalStd),
        ] {
            let (mean, sd) = two_pass(xs);
            prop_assert!((v.get(avg) - mean).abs() < 1e-9 * (1.0 + mean.abs()), "{:?}", avg);
            prop_assert!((v.get(std) - sd).abs() < 1e-6 * (1.0 + sd), "{:?}", std);
            prop_assert!(v.get(std) >= 0.0);
        }
    }

    /// `FlowRecord` against a test-local copy of its earlier 240-byte
    /// update rule ([`OracleRecord`]): every feature column, bit for bit,
    /// and every public field, after every update. The slab/hashmap
    /// proptest below cannot see a change to the record itself — both its
    /// tables share `FlowRecord`. Streams mix INT stamps (random `u32`s,
    /// so about half the gaps wrap), reordered sFlow clocks, both clocks
    /// or neither, with and without queue occupancy, over flows of one,
    /// two and many packets.
    #[test]
    fn flow_record_matches_the_240_byte_update_rule(
        mode in 0u8..3,
        universe in 1u16..64,
        ops in proptest::collection::vec(
            (any::<u16>(), 20u16..1500, 0u8..8, any::<u32>(), 0u64..4_000_000_000),
            1..200,
        ),
    ) {
        let mut table = FlowTable::new(FlowTableConfig::default());
        let mut oracle: HashMap<FlowKey, OracleRecord> = HashMap::new();
        for (i, &(k, len, kind, stamp, observed)) in ops.iter().enumerate() {
            // mode 0: INT only; 1: sFlow only; 2: any clock mix.
            let clocks = match mode {
                0 => 0,
                1 => 1,
                _ => kind & 3,
            };
            let update = FlowUpdate {
                flow: FlowKey::new(
                    [10, 0, 0, 1].into(),
                    [10, 0, 0, 2].into(),
                    k % universe,
                    443,
                    if k & 1 == 0 { Protocol::Tcp } else { Protocol::Udp },
                ),
                now_ns: (i as u64 + 1) * 1_000,
                len,
                stamp32: (clocks == 0 || clocks == 2).then_some(stamp),
                observed_ns: (clocks == 1 || clocks == 2).then_some(observed),
                queue_occupancy: (mode != 1 && kind & 4 == 0).then_some(stamp % 50_000),
            };
            let (applied, rec) = table.apply(&update);
            let expect = oracle.entry(update.flow).or_default();
            if applied == UpdateKind::Updated {
                expect.update_seq += 1;
            } else {
                prop_assert_eq!(expect.packet_count, 0);
            }
            expect.observe(&update);
            prop_assert!(same_record(rec, expect), "diverged at op {}: {:?}", i, rec);
        }
        prop_assert_eq!(table.len(), oracle.len());
        for (key, expect) in &oracle {
            prop_assert!(same_record(table.get(key).unwrap(), expect), "final {:?}", key);
        }
    }

    #[test]
    fn stamp_delta_correct_below_one_wrap(start in any::<u64>(), gap in 0u64..4_294_967_295) {
        let t0 = start;
        let t1 = start.wrapping_add(gap);
        let d = TelemetryClock::stamp_delta(
            TelemetryClock::truncate(t0),
            TelemetryClock::truncate(t1),
        );
        prop_assert_eq!(u64::from(d), gap);
    }

    #[test]
    fn smoothing_window_verdict_matches_majority(
        votes in proptest::collection::vec(any::<bool>(), 1..50),
        window in 1usize..7,
    ) {
        let mut w = SmoothingWindow::new(window);
        let mut last = Verdict::Pending;
        for &v in &votes {
            last = w.push(v);
        }
        if votes.len() < window {
            prop_assert_eq!(last, Verdict::Pending);
        } else {
            let tail = &votes[votes.len() - window..];
            let ones = tail.iter().filter(|&&v| v).count();
            let expect = if ones * 2 > window { Verdict::Attack } else { Verdict::Normal };
            prop_assert_eq!(last, expect);
        }
    }

    #[test]
    fn scaler_transform_then_inverse_is_identity(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e5f64..1e5, 4),
            2..50,
        ),
    ) {
        let mut d = Dataset::new(4);
        for r in &rows {
            d.push(r, false);
        }
        let scaler = StandardScaler::fit(&d);
        for r in &rows {
            let mut x = r.clone();
            scaler.transform_row(&mut x);
            scaler.inverse_transform_row(&mut x);
            for (a, b) in x.iter().zip(r) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn confusion_matrix_metrics_bounded(
        truth in proptest::collection::vec(any::<bool>(), 1..100),
        flips in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let n = truth.len().min(flips.len());
        let pred: Vec<bool> =
            truth[..n].iter().zip(&flips[..n]).map(|(t, f)| t ^ f).collect();
        let m = ConfusionMatrix::from_predictions(&truth[..n], &pred);
        prop_assert_eq!(m.total() as usize, n);
        for v in [m.accuracy(), m.precision(), m.recall(), m.f1()] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        prop_assert_eq!(m.misclassified() as usize,
            truth[..n].iter().zip(&pred).filter(|(t, p)| t != p).count());
    }

    /// The slab/open-addressing [`FlowTable`] is bit-identical to the
    /// hashmap reference implementation under arbitrary interleavings of
    /// INT ingest, sFlow ingest, and idle eviction. The clock is strictly
    /// increasing so every record's `last_seen_ns` is unique — the
    /// oldest-idle eviction fallback then has one well-defined victim in
    /// both tables, making the comparison exact rather than modulo ties.
    #[test]
    fn slab_flow_table_matches_hashmap_reference(
        ops in proptest::collection::vec(
            (0u8..8, 0u16..12, 40u16..1500, any::<u32>()),
            1..400,
        ),
    ) {
        use amlight::features::reference::HashFlowTable;
        use amlight::sflow::FlowSample;

        let cfg = FlowTableConfig {
            idle_timeout_ns: 50_000,
            max_flows: 8, // below the 12-key universe: eviction fires
        };
        let mut slab = FlowTable::new(cfg);
        let mut reference = HashFlowTable::new(cfg);
        let flow = |port: u16| FlowKey::new(
            [10, 0, 0, 1].into(),
            [10, 0, 0, 2].into(),
            5000 + port,
            443,
            Protocol::Tcp,
        );

        for (i, &(op, k, len, stamp)) in ops.iter().enumerate() {
            let now = (i as u64 + 1) * 10_000;
            match op {
                0..=3 => {
                    let report = TelemetryReport {
                        flow: flow(k),
                        ip_len: len,
                        tcp_flags: Some(0x02),
                        instructions: InstructionSet::amlight(),
                        hops: vec![HopMetadata {
                            switch_id: 1,
                            ingress_tstamp: stamp.wrapping_sub(400),
                            egress_tstamp: stamp,
                            hop_latency: 0,
                            queue_occupancy: stamp % 32,
                        }].into(),
                        export_ns: now,
                    };
                    let (k1, r1) = slab.apply(&report.flow_update());
                    let (f1, seq1, pkts1) = (r1.features(), r1.update_seq, r1.packet_count());
                    let (k2, r2) = reference.apply(&report.flow_update());
                    prop_assert_eq!(k1, k2);
                    prop_assert_eq!(seq1, r2.update_seq);
                    prop_assert_eq!(pkts1, r2.packet_count());
                    prop_assert_eq!(f1, r2.features());
                }
                4..=6 => {
                    let sample = FlowSample {
                        flow: flow(k),
                        ip_len: len,
                        tcp_flags: Some(0x10),
                        observed_ns: now,
                        sampling_period: 4096,
                    };
                    let (k1, r1) = slab.apply(&sample.flow_update());
                    let (f1, seq1) = (r1.features(), r1.update_seq);
                    let (k2, r2) = reference.apply(&sample.flow_update());
                    prop_assert_eq!(k1, k2);
                    prop_assert_eq!(seq1, r2.update_seq);
                    prop_assert_eq!(f1, r2.features());
                }
                _ => {
                    prop_assert_eq!(slab.evict_idle(now), reference.evict_idle(now));
                }
            }
        }

        prop_assert_eq!(slab.len(), reference.len());
        prop_assert_eq!(slab.created(), reference.created());
        prop_assert_eq!(slab.updated(), reference.updated());
        prop_assert_eq!(slab.evicted(), reference.evicted());
        for port in 0..12u16 {
            match (slab.get(&flow(port)), reference.get(&flow(port))) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.features(), b.features());
                    prop_assert_eq!(a.packet_count(), b.packet_count());
                    prop_assert_eq!(a.last_seen_ns, b.last_seen_ns);
                }
                (None, None) => {}
                (a, b) => prop_assert!(
                    false,
                    "presence diverged for port {}: slab={} ref={}",
                    port, a.is_some(), b.is_some()
                ),
            }
        }
    }

    #[test]
    fn flow_table_count_conservation(
        keys in proptest::collection::vec(0u16..20, 1..300),
    ) {
        // Ingest a random key sequence; created + updated == total and
        // the table holds exactly the distinct keys.
        let mut table = FlowTable::new(FlowTableConfig::default());
        for (i, &k) in keys.iter().enumerate() {
            let report = TelemetryReport {
                flow: FlowKey::new(
                    [10, 0, 0, 1].into(),
                    [10, 0, 0, 2].into(),
                    1000 + k,
                    80,
                    Protocol::Tcp,
                ),
                ip_len: 40,
                tcp_flags: Some(2),
                instructions: InstructionSet::amlight(),
                hops: vec![HopMetadata::default()].into(),
                export_ns: i as u64,
            };
            table.apply(&report.flow_update());
        }
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        prop_assert_eq!(table.len(), distinct.len());
        prop_assert_eq!(table.created() as usize, distinct.len());
        prop_assert_eq!(
            (table.created() + table.updated()) as usize,
            keys.len()
        );
        // Per-flow packet counts sum to the total ingested.
        let total: u64 = table.records().map(|r| r.packet_count()).sum();
        prop_assert_eq!(total as usize, keys.len());
    }
}
