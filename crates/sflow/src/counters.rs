//! Counter-polling baseline: OpenFlow/NetFlow-style periodic flow stats.
//!
//! The paper's related work (its ref \[17\], Aslam et al.) builds DDoS
//! detection on OpenFlow counters, and the paper notes "the number of
//! features that can be derived from this method may be somewhat
//! limited". This module makes that third telemetry style concrete so
//! the limitation can be measured (`repro baselines`): a poller reads
//! per-flow packet/byte counters every `interval_ns` and emits one
//! record per active flow per interval — no per-packet sizes, no
//! inter-arrival times, no queue depths; only interval deltas.

use amlight_net::flow::FnvHashMap;
use amlight_net::{FlowKey, Packet};
use serde::{Deserialize, Serialize};

/// One flow's counters over one polling interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterRecord {
    pub flow: FlowKey,
    /// Interval start, ns.
    pub interval_start_ns: u64,
    /// Packets observed this interval.
    pub packets: u64,
    /// IP bytes observed this interval.
    pub bytes: u64,
    /// Cumulative packets since the flow appeared.
    pub total_packets: u64,
    /// Cumulative bytes since the flow appeared.
    pub total_bytes: u64,
    /// Number of intervals (including this one) the flow has been seen in.
    pub intervals_active: u32,
}

impl CounterRecord {
    /// The feature vector this telemetry style can support — interval
    /// deltas and their cumulative sums. 8 features, vs INT's 15.
    pub fn features(&self, interval_s: f64) -> [f64; 8] {
        let pkts = self.packets as f64;
        let bytes = self.bytes as f64;
        [
            f64::from(self.flow.protocol.number()),
            pkts,
            bytes,
            if pkts > 0.0 { bytes / pkts } else { 0.0 }, // mean pkt size
            pkts / interval_s,                           // pps
            bytes / interval_s,                          // Bps
            self.total_packets as f64,
            f64::from(self.intervals_active),
        ]
    }

    pub const FEATURE_COUNT: usize = 8;
}

#[derive(Debug, Clone, Copy, Default)]
struct FlowCounters {
    interval_packets: u64,
    interval_bytes: u64,
    total_packets: u64,
    total_bytes: u64,
    intervals_active: u32,
    touched_this_interval: bool,
}

/// Periodic flow-counter poller.
#[derive(Debug)]
pub struct FlowCounterPoller {
    interval_ns: u64,
    epoch_start_ns: u64,
    flows: FnvHashMap<FlowKey, FlowCounters>,
    emitted: Vec<CounterRecord>,
}

impl FlowCounterPoller {
    pub fn new(interval_ns: u64) -> Self {
        assert!(interval_ns > 0, "polling interval must be positive");
        Self {
            interval_ns,
            epoch_start_ns: 0,
            flows: FnvHashMap::default(),
            emitted: Vec::new(),
        }
    }

    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Observe one packet at `ts_ns` (non-decreasing order).
    pub fn observe(&mut self, ts_ns: u64, packet: &Packet) {
        while ts_ns >= self.epoch_start_ns + self.interval_ns {
            self.flush_interval();
            self.epoch_start_ns += self.interval_ns;
        }
        let c = self.flows.entry(packet.flow_key()).or_default();
        c.interval_packets += 1;
        c.interval_bytes += u64::from(packet.ip_len());
        c.total_packets += 1;
        c.total_bytes += u64::from(packet.ip_len());
        if !c.touched_this_interval {
            c.touched_this_interval = true;
            c.intervals_active += 1;
        }
    }

    fn flush_interval(&mut self) {
        let start = self.epoch_start_ns;
        for (flow, c) in self.flows.iter_mut() {
            if c.touched_this_interval {
                // amlint: cold -- per-interval flush into a drained buffer, not per-packet
                self.emitted.push(CounterRecord {
                    flow: *flow,
                    interval_start_ns: start,
                    packets: c.interval_packets,
                    bytes: c.interval_bytes,
                    total_packets: c.total_packets,
                    total_bytes: c.total_bytes,
                    intervals_active: c.intervals_active,
                });
                c.interval_packets = 0;
                c.interval_bytes = 0;
                c.touched_this_interval = false;
            }
        }
    }

    /// Close the current interval and return every record emitted.
    pub fn finish(mut self) -> Vec<CounterRecord> {
        self.flush_interval();
        let mut out = self.emitted;
        out.sort_by_key(|r| (r.interval_start_ns, r.flow.src_port, r.flow.dst_port));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_net::PacketBuilder;
    use std::net::Ipv4Addr;

    fn pkt(src_port: u16, payload: u16) -> Packet {
        PacketBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)).tcp(
            src_port,
            80,
            amlight_net::TcpFlags::ACK,
            0,
            0,
            payload,
        )
    }

    #[test]
    fn one_record_per_flow_per_active_interval() {
        let mut p = FlowCounterPoller::new(1_000_000_000); // 1 s
                                                           // Flow A active in intervals 0 and 2; flow B only in interval 1.
        p.observe(100, &pkt(1, 100));
        p.observe(200, &pkt(1, 100));
        p.observe(1_500_000_000, &pkt(2, 50));
        p.observe(2_500_000_000, &pkt(1, 100));
        let records = p.finish();
        assert_eq!(records.len(), 3);
        let a0 = &records[0];
        assert_eq!(a0.packets, 2);
        assert_eq!(a0.interval_start_ns, 0);
        let b1 = &records[1];
        assert_eq!(b1.flow.src_port, 2);
        let a2 = &records[2];
        assert_eq!(a2.packets, 1);
        assert_eq!(a2.total_packets, 3, "cumulative counters persist");
        assert_eq!(a2.intervals_active, 2);
    }

    #[test]
    fn idle_intervals_emit_nothing() {
        let mut p = FlowCounterPoller::new(1_000_000_000);
        p.observe(0, &pkt(1, 10));
        // 100 silent intervals.
        p.observe(100_000_000_000, &pkt(1, 10));
        let records = p.finish();
        assert_eq!(records.len(), 2, "no empty-interval records");
    }

    #[test]
    fn bytes_accumulate_ip_lengths() {
        let mut p = FlowCounterPoller::new(1_000_000_000);
        p.observe(0, &pkt(1, 100)); // ip_len = 40 + 100
        p.observe(1, &pkt(1, 60));
        let records = p.finish();
        assert_eq!(records[0].bytes, 140 + 100);
    }

    #[test]
    fn features_are_finite_and_dimensioned() {
        let mut p = FlowCounterPoller::new(1_000_000_000);
        p.observe(0, &pkt(1, 100));
        let records = p.finish();
        let f = records[0].features(1.0);
        assert_eq!(f.len(), CounterRecord::FEATURE_COUNT);
        assert!(f.iter().all(|v| v.is_finite()));
        assert_eq!(f[0], 6.0); // TCP
        assert_eq!(f[1], 1.0); // one packet
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        FlowCounterPoller::new(0);
    }
}
