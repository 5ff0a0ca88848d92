//! Failure injection and adversarial-input robustness, spanning crates.

use amlight::core::event::Telemetry;
use amlight::core::pipeline::{DetectionPipeline, PipelineConfig};
use amlight::core::testbed::{Testbed, TestbedConfig};
use amlight::core::trainer::{dataset_from_events, train_bundle, TrainerConfig};
use amlight::features::{FeatureSet, WindowedCountMin};
use amlight::int::{HopMetadata, InstructionSet, IntCollector, TelemetryReport};
use amlight::ml::MlpConfig;
use amlight::net::{Decode, FlowKey, Packet, Protocol, TrafficClass};
use amlight::sflow::SflowDatagram;
use amlight::traffic::ReplayLibrary;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn sample_report(tag: u32) -> TelemetryReport {
    TelemetryReport {
        flow: FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            (1000 + tag % 10_000) as u16,
            80,
            Protocol::Tcp,
        ),
        ip_len: 40 + (tag % 100) as u16,
        tcp_flags: Some(0x02),
        instructions: InstructionSet::amlight(),
        hops: vec![HopMetadata {
            switch_id: tag,
            ingress_tstamp: tag.wrapping_mul(997),
            egress_tstamp: tag.wrapping_mul(997).wrapping_add(400),
            hop_latency: 0,
            queue_occupancy: tag % 8,
        }]
        .into(),
        export_ns: u64::from(tag) * 1_000,
    }
}

proptest! {
    /// Arbitrary bytes must never panic the INT collector, and the
    /// collector must never buffer unboundedly on garbage.
    #[test]
    fn int_collector_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut c = IntCollector::new();
        let _ = c.ingest(&bytes);
        // Whatever happened, stats are consistent.
        let s = c.stats();
        prop_assert!(s.bytes_consumed as usize + c.pending_bytes() <= bytes.len() + 64);
    }

    /// A corrupted byte inside a valid stream loses at most a bounded
    /// prefix of reports — the collector resynchronizes.
    #[test]
    fn int_collector_resyncs_after_corruption(
        flip_at in 0usize..500,
        flip_with in 1u8..255,
    ) {
        let reports: Vec<TelemetryReport> = (0..20).map(sample_report).collect();
        let mut stream = IntCollector::encode_stream(&reports);
        let pos = flip_at % stream.len();
        stream[pos] ^= flip_with;

        let mut c = IntCollector::new();
        let decoded = c.ingest(&stream);
        // One flipped byte damages a bounded neighborhood: the worst case
        // is a corrupted hop-count field, which swallows up to
        // 255 × 16 B ≈ 9 reports of following stream as phantom hop
        // metadata before the resync scan realigns. Everything outside
        // that window must survive.
        prop_assert!(decoded.len() >= reports.len() - 10,
            "lost too much: {} of {}", decoded.len(), reports.len());
    }

    /// sFlow datagram decode must never panic on arbitrary bytes.
    #[test]
    fn sflow_decode_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut cursor = &bytes[..];
        let _ = SflowDatagram::decode(&mut cursor);
    }

    /// Packet decode must never panic on arbitrary bytes.
    #[test]
    fn packet_decode_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut cursor = &bytes[..];
        let _ = Packet::decode(&mut cursor);
    }

    /// Count-min estimates never underestimate, under any workload, and
    /// `clear` — the flood guard's epoch boundary — forgets everything.
    #[test]
    fn count_min_never_underestimates(
        keys in proptest::collection::vec(0u64..64, 1..500),
    ) {
        let mut sketch = WindowedCountMin::new(128, 4);
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            sketch.observe(k);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for (&k, &n) in &truth {
            prop_assert!(sketch.estimate(k) >= n);
        }
        sketch.clear();
        for &k in truth.keys() {
            prop_assert_eq!(sketch.estimate(k), 0);
        }
    }
}

/// Duplicated and slightly out-of-order telemetry must not panic the
/// pipeline or corrupt its accounting.
#[test]
fn pipeline_tolerates_disordered_duplicated_telemetry() {
    let lab = Testbed::new(TestbedConfig::default());
    let library = ReplayLibrary::build(300, 5);
    let mut training = Vec::new();
    for class in TrafficClass::ALL {
        if class != TrafficClass::SlowLoris {
            training.extend(lab.replay_class(&library, class));
        }
    }
    let raw = dataset_from_events(&training, FeatureSet::full());
    let bundle = train_bundle(
        &raw,
        FeatureSet::full(),
        &TrainerConfig {
            mlp: MlpConfig {
                epochs: 3,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        },
    );

    let mut labeled = lab.replay_class(&ReplayLibrary::build(300, 6), TrafficClass::Benign);
    // Duplicate every 10th report (collector-port mirroring glitches) and
    // swap adjacent pairs (reordering in the export path).
    let dups: Vec<_> = labeled.iter().step_by(10).cloned().collect();
    labeled.extend(dups);
    for i in (0..labeled.len() - 1).step_by(7) {
        labeled.swap(i, i + 1);
    }

    let mut pipe = DetectionPipeline::new(bundle, PipelineConfig::rust_pace());
    let report = pipe.run_sync(&labeled);
    assert_eq!(report.total_reports as usize, labeled.len());
    assert!(!report.timeline.is_empty());
    // Monotone virtual time: predictions never precede registrations.
    for p in &report.timeline {
        assert!(p.predicted_ns >= p.registered_ns);
    }
}

/// The collector handles a stream chopped at every possible boundary.
#[test]
fn collector_chunking_is_boundary_agnostic() {
    let reports: Vec<TelemetryReport> = (0..5).map(sample_report).collect();
    let stream = IntCollector::encode_stream(&reports);
    for chunk in 1..stream.len().min(64) {
        let mut c = IntCollector::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            decoded.extend(c.ingest(piece));
        }
        assert_eq!(decoded, reports, "chunk size {chunk}");
    }
}

/// Flow-table capacity pressure: a flood of distinct flows must not grow
/// the table beyond its configured bound (plus slack for in-flight keys).
#[test]
fn flow_table_is_bounded_under_flow_explosion() {
    use amlight::features::{FlowTable, FlowTableConfig};
    let mut table = FlowTable::new(FlowTableConfig {
        idle_timeout_ns: 50_000_000,
        max_flows: 1_000,
    });
    for i in 0..50_000u64 {
        let mut r = sample_report(i as u32);
        r.flow.src_port = (i % 40_000) as u16;
        r.flow.src_ip = Ipv4Addr::from((i as u32).wrapping_mul(2654435761));
        r.export_ns = i * 10_000; // 10 µs apart
        table.apply(&r.flow_update());
    }
    assert!(
        table.len() <= 1_001,
        "table must stay bounded, got {}",
        table.len()
    );
    assert!(table.evicted() > 0);
}
