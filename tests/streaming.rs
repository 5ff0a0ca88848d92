//! Integration: the streaming threaded runtime — telemetry event
//! sources (every registered backend), the start/drain/stop lifecycle,
//! label threading, and shard-count invariance of the detection output.

use amlight::core::event::{pint_view, sample_reports, Telemetry};
use amlight::core::runtime::ThreadedPipeline;
use amlight::core::source::{ChannelSource, CollectorSource, ReplaySource};
use amlight::core::trainer::{dataset_from_events, train_bundle, ModelBundle, TrainerConfig};
use amlight::features::{
    FeatureId, FeatureSet, FlowTable, FlowTableConfig, FlowUpdate, UpdateKind,
};
use amlight::int::{IntCollector, TelemetryReport};
use amlight::ml::MlpConfig;
use amlight::net::{FlowKey, Protocol, TrafficClass};
use amlight::pint::{PintField, PintReport};
use amlight::sflow::{FlowSample, SamplingMode, SflowAgent};
use std::net::Ipv4Addr;

fn report(src: u8, port: u16, t_ns: u64, len: u16, qocc: u32) -> TelemetryReport {
    use amlight::int::{HopMetadata, InstructionSet};
    TelemetryReport {
        flow: FlowKey::new(
            Ipv4Addr::new(10, 9, 0, src),
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

/// 12 benign flows at 1 ms cadence + 6 attack flows at 3 µs cadence.
fn capture(n: usize) -> Vec<(TelemetryReport, TrafficClass)> {
    let mut v = Vec::new();
    for i in 0..n as u64 {
        v.push((
            report(1, 1000 + (i % 12) as u16, i * 1_000_000, 800, 0),
            TrafficClass::Benign,
        ));
        v.push((
            report(2, 2000 + (i % 6) as u16, i * 3_000, 40, 20),
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
                epochs: 6,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        },
    )
}

/// The tentpole invariant: the number of processor shards is observable
/// only as throughput. Per-flow verdict sequences — and the created-flow
/// count — are bit-identical across 1, 2, and 8 shards, because a flow
/// always routes to the same shard and shard-local processing preserves
/// arrival order. 800 events, so that collection's 256-event batches
/// leave full with one shard and partial, at end of stream, with eight.
#[test]
fn shard_count_is_invisible_to_verdicts() {
    let b = bundle();
    let reports: Vec<TelemetryReport> = capture(400).into_iter().map(|(r, _)| r).collect();

    let mut baseline = None;
    for shards in [1usize, 2, 8] {
        let pipe = ThreadedPipeline::new(b.clone()).with_shards(shards);
        let stats = pipe
            .run(reports.clone())
            .expect("no module thread panicked");
        assert_eq!(stats.flows_created, 18, "{shards} shards");
        assert_eq!(
            stats.predictions,
            reports.len() as u64 - 18,
            "{shards} shards"
        );
        let seqs = pipe.database().verdict_sequences();
        match &baseline {
            None => baseline = Some(seqs),
            Some(expected) => {
                assert_eq!(
                    &seqs, expected,
                    "per-flow verdict sequences changed at {shards} shards"
                );
            }
        }
    }
}

/// Shadow mode never gates: across the whole shard matrix, a
/// `--prefilter shadow` run produces per-flow verdict sequences
/// bit-identical to `--prefilter off` — the scorer runs (and tallies
/// would-be verdicts) without touching what the Predictor sees.
#[test]
fn prefilter_shadow_verdicts_are_bit_identical_to_off_across_shards() {
    use amlight::features::PrefilterMode;
    let b = bundle();
    let reports: Vec<TelemetryReport> = capture(120).into_iter().map(|(r, _)| r).collect();
    let n = reports.len() as u64;

    for shards in [1usize, 2, 8] {
        let off = ThreadedPipeline::new(b.clone()).with_shards(shards);
        let off_stats = off.run(reports.clone()).expect("no module thread panicked");

        let shadow = ThreadedPipeline::new(b.clone())
            .with_shards(shards)
            .with_prefilter(PrefilterMode::Shadow);
        let shadow_stats = shadow
            .run(reports.clone())
            .expect("no module thread panicked");

        assert_eq!(off_stats.predictions, shadow_stats.predictions);
        assert_eq!(
            off.database().verdict_sequences(),
            shadow.database().verdict_sequences(),
            "shadow changed a verdict sequence at {shards} shards"
        );
        // The scorer really ran: every update was graded, nothing gated.
        let t = shadow_stats.triage;
        assert_eq!(t.would.scored, n - 18, "{shards} shards");
        assert_eq!((t.deferred, t.dropped, t.shed), (0, 0, 0));
        assert_eq!(t.forwarded, shadow_stats.predictions);
    }
}

/// The streaming acceptance path: a channel-backed source with 2 shards
/// must satisfy the same invariants as the in-memory batch run.
#[test]
fn channel_source_with_shards_processes_everything() {
    let pipe = ThreadedPipeline::new(bundle()).with_shards(2);
    let reports: Vec<TelemetryReport> = capture(100).into_iter().map(|(r, _)| r).collect();
    let n = reports.len() as u64;

    let (tx, source) = ChannelSource::bounded(128);
    let handle = pipe.start(source);
    let feeder = std::thread::spawn(move || {
        for r in reports {
            if tx.send(r.into()).is_err() {
                break;
            }
        }
    });
    feeder.join().expect("feeder finished");
    let stats = handle.join().expect("no module thread panicked");

    assert_eq!(stats.events_in, n);
    assert_eq!(stats.flows_created, 18);
    assert_eq!(stats.predictions, n - 18);
    assert_eq!(
        stats.attack_verdicts + stats.normal_verdicts + stats.pending_verdicts,
        stats.predictions
    );
    assert_eq!(
        pipe.database().predictions().len() as u64,
        stats.predictions
    );
    // Wall-clock stamps are real on the streaming path too.
    for p in pipe.database().predictions() {
        assert!(p.predicted_ns > 0);
    }
}

/// drain() waits for in-flight reports; stop() ends an endless source.
#[test]
fn lifecycle_drain_observes_quiescence_and_stop_ends_run() {
    let pipe = ThreadedPipeline::new(bundle()).with_shards(2);
    let (tx, source) = ChannelSource::bounded(128);
    let handle = pipe.start(source);

    let reports: Vec<TelemetryReport> = capture(40).into_iter().map(|(r, _)| r).collect();
    let n = reports.len() as u64;
    for r in reports {
        tx.send(r.into()).expect("pipeline is live");
    }
    handle.drain();
    // Quiescent: every sent report reached the database (18 creations,
    // the rest predictions).
    assert_eq!(pipe.database().prediction_count() as u64, n - 18);
    assert_eq!(pipe.database().created_count(), 18);

    handle.stop(); // sender is still alive — only stop() ends this run
    let stats = handle.join().expect("no module thread panicked");
    assert_eq!(stats.events_in, n);
    drop(tx);
}

/// The amlight_int collector adapter: raw sink bytes in, verdicts out —
/// even with the stream shredded into awkward chunk sizes.
#[test]
fn collector_source_feeds_pipeline_from_raw_bytes() {
    let reports: Vec<TelemetryReport> = capture(60).into_iter().map(|(r, _)| r).collect();
    let stream = IntCollector::encode_stream(&reports);
    let n = reports.len() as u64;
    let chunks: Vec<Vec<u8>> = stream.chunks(97).map(<[u8]>::to_vec).collect();
    let pipe = ThreadedPipeline::new(bundle()).with_shards(2);
    let stats = pipe
        .start(CollectorSource::new(chunks.into_iter()))
        .join()
        .expect("no module thread panicked");

    assert_eq!(stats.events_in, n);
    assert_eq!(stats.flows_created, 18);
    assert_eq!(stats.predictions, n - 18);
}

/// ReplaySource restores export order and threads labels through the
/// channels, so a labeled capture drives the threaded runtime directly
/// *and* the run reports recall without a side-channel lookup.
#[test]
fn replay_source_runs_labeled_captures_and_reports_recall() {
    let labeled = capture(50);
    let n = labeled.len() as u64;
    let pipe = ThreadedPipeline::new(bundle());
    let stats = pipe
        .start(ReplaySource::new(labeled.iter().cloned()))
        .join()
        .expect("no module thread panicked");
    assert_eq!(stats.events_in, n);
    assert_eq!(stats.flows_created, 18);
    // Every prediction came from a labeled event, so the recall tallies
    // must cover all of them — and this trained contrast detects the
    // flood.
    assert_eq!(stats.labeled.labeled_updates(), stats.predictions);
    assert!(stats.labeled.attack_updates > 0);
    // Pending verdicts count against recall, and a 50-update capture
    // spends a visible fraction of each flow inside the warm-up — so the
    // bar is "clearly detecting", not "near-perfect".
    assert!(
        stats.labeled.recall() > 0.6,
        "recall {}",
        stats.labeled.recall()
    );
    assert!(
        stats.labeled.false_alarm_rate() < 0.2,
        "far {}",
        stats.labeled.false_alarm_rate()
    );
}

/// Unlabeled sources (plain report vectors) leave the recall tallies
/// untouched.
#[test]
fn unlabeled_runs_have_empty_recall_tallies() {
    let pipe = ThreadedPipeline::new(bundle());
    let reports: Vec<TelemetryReport> = capture(30).into_iter().map(|(r, _)| r).collect();
    let stats = pipe.run(reports).expect("no module thread panicked");
    assert!(stats.predictions > 0);
    assert_eq!(stats.labeled.labeled_updates(), 0);
}

fn sample(src: u8, port: u16, t_ns: u64, len: u16) -> FlowSample {
    FlowSample {
        flow: FlowKey::new(
            Ipv4Addr::new(10, 9, 0, src),
            Ipv4Addr::new(10, 0, 0, 2),
            port,
            80,
            Protocol::Tcp,
        ),
        ip_len: len,
        tcp_flags: Some(0x02),
        observed_ns: t_ns,
        sampling_period: 4096,
    }
}

fn pint_report(src: u8, port: u16, t_ns: u64, len: u16) -> PintReport {
    PintReport {
        flow: FlowKey::new(
            Ipv4Addr::new(10, 9, 0, src),
            Ipv4Addr::new(10, 0, 0, 2),
            port,
            80,
            Protocol::Tcp,
        ),
        ip_len: len,
        tcp_flags: Some(0x02),
        export_ns: t_ns,
        hop: 0,
        field: PintField::QueueOccupancy,
        digest: 0,
        bits: 8,
        queue_occupancy: Some(0),
    }
}

/// Satellite invariant: the flow table's housekeeping (creation,
/// budget-driven eviction, idle-timeout eviction) is telemetry-blind.
/// The same (flow, timestamp) stream produces the identical per-step
/// `UpdateKind` sequence and final counters whether it arrives as INT
/// reports, sFlow samples, or PINT digest reports — shared cases swept
/// over table configs, rstest-style.
#[test]
fn three_way_table_housekeeping_parity() {
    let cases = [
        ("default", FlowTableConfig::default()),
        (
            "tight-budget",
            FlowTableConfig {
                max_flows: 4,
                ..FlowTableConfig::default()
            },
        ),
        (
            "short-idle",
            FlowTableConfig {
                idle_timeout_ns: 500_000, // 0.5 ms — benign cadence is 1 ms
                ..FlowTableConfig::default()
            },
        ),
        (
            "tight-and-short",
            FlowTableConfig {
                max_flows: 3,
                idle_timeout_ns: 2_000_000,
            },
        ),
    ];
    // 18 flows, interleaved cadences — enough churn to trip both the
    // budget and the idle timeout in the tight cases.
    let stream: Vec<(u8, u16, u64, u16)> = capture(40)
        .into_iter()
        .map(|(r, _)| {
            (
                r.flow.src_ip.octets()[3],
                r.flow.src_port,
                r.export_ns,
                r.ip_len,
            )
        })
        .collect();

    for (name, cfg) in cases {
        let mut int_table = FlowTable::new(cfg);
        let mut sflow_table = FlowTable::new(cfg);
        let mut pint_table = FlowTable::new(cfg);
        for &(src, port, t_ns, len) in &stream {
            let (int_kind, _) = int_table.apply(&report(src, port, t_ns, len, 0).flow_update());
            let (sflow_kind, _) = sflow_table.apply(&sample(src, port, t_ns, len).flow_update());
            let (pint_kind, _) = pint_table.apply(&pint_report(src, port, t_ns, len).flow_update());
            assert_eq!(int_kind, sflow_kind, "case `{name}` diverged at t={t_ns}");
            assert_eq!(
                int_kind, pint_kind,
                "case `{name}` pint diverged at t={t_ns}"
            );
            assert!(matches!(
                int_kind,
                UpdateKind::Created | UpdateKind::Updated
            ));
        }
        assert_eq!(int_table.len(), sflow_table.len(), "case `{name}` len");
        assert_eq!(int_table.len(), pint_table.len(), "case `{name}` pint len");
        assert_eq!(
            int_table.created(),
            sflow_table.created(),
            "case `{name}` created"
        );
        assert_eq!(
            int_table.created(),
            pint_table.created(),
            "case `{name}` pint created"
        );
        assert_eq!(
            int_table.evicted(),
            sflow_table.evicted(),
            "case `{name}` evicted"
        );
        assert_eq!(
            int_table.evicted(),
            pint_table.evicted(),
            "case `{name}` pint evicted"
        );
        if name == "tight-budget" {
            assert!(int_table.len() <= 4, "budget must bind");
            assert!(int_table.evicted() > 0, "budget case must actually evict");
        }
    }
}

/// The shard-invariance tentpole holds for the sFlow backend too: a
/// sampled stream routed by the same 5-tuple hash produces bit-identical
/// per-flow verdict sequences at 1, 2, and 8 shards.
#[test]
fn sflow_shard_count_is_invisible_to_verdicts() {
    // Derive the sampled view of a labeled INT capture (1-in-4 so the
    // test has enough updates), then train an sFlow-features bundle on
    // half and replay the other half.
    let mut agent = SflowAgent::new(
        SamplingMode::Deterministic {
            period: 4,
            phase: 0,
        },
        9,
    );
    let samples = sample_reports(&capture(400), &mut agent);
    let (train, test) = samples.split_at(samples.len() / 2);
    let raw = dataset_from_events(train, FeatureSet::full().without(&FeatureId::QUEUE_COLUMNS));
    let b = train_bundle(
        &raw,
        FeatureSet::full().without(&FeatureId::QUEUE_COLUMNS),
        &TrainerConfig {
            mlp: MlpConfig {
                epochs: 6,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        },
    );
    let test_samples: Vec<FlowSample> = test.iter().map(|(s, _)| *s).collect();

    let mut baseline = None;
    for shards in [1usize, 2, 8] {
        let pipe = ThreadedPipeline::new(b.clone()).with_shards(shards);
        let stats = pipe
            .run(test_samples.clone())
            .expect("no module thread panicked");
        assert_eq!(
            stats.events_in,
            test_samples.len() as u64,
            "{shards} shards"
        );
        let seqs = pipe.database().verdict_sequences();
        match &baseline {
            None => baseline = Some(seqs),
            Some(expected) => {
                assert_eq!(
                    &seqs, expected,
                    "sFlow per-flow verdict sequences changed at {shards} shards"
                );
            }
        }
    }
}

/// The shard-invariance tentpole holds for the PINT backend too: the
/// digest-derived view routed by the same 5-tuple hash produces
/// bit-identical per-flow verdict sequences at 1, 2, and 8 shards.
#[test]
fn pint_shard_count_is_invisible_to_verdicts() {
    let view = pint_view(&capture(400), 8);
    let (train, test) = view.split_at(view.len() / 2);
    let b = train_bundle(
        &dataset_from_events(train, FeatureSet::full()),
        FeatureSet::full(),
        &TrainerConfig {
            mlp: MlpConfig {
                epochs: 6,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        },
    );
    let test_reports: Vec<PintReport> = test.iter().map(|(r, _)| *r).collect();

    let mut baseline = None;
    for shards in [1usize, 2, 8] {
        let pipe = ThreadedPipeline::new(b.clone()).with_shards(shards);
        let stats = pipe
            .start(ReplaySource::new(test_reports.clone()))
            .join()
            .expect("no module thread panicked");
        assert_eq!(
            stats.events_in,
            test_reports.len() as u64,
            "{shards} shards"
        );
        let seqs = pipe.database().verdict_sequences();
        match &baseline {
            None => baseline = Some(seqs),
            Some(expected) => {
                assert_eq!(
                    &seqs, expected,
                    "PINT per-flow verdict sequences changed at {shards} shards"
                );
            }
        }
    }
}

/// `apply(FlowUpdate)` is exactly the old backend-specific ingest: the
/// lowering in `Telemetry::flow_update` carries the same fields the
/// removed `update_int`/`update_sflow` entry points consumed (wrapped
/// sink stamp + sink queue depth for INT; full-width agent clock and no
/// queue for sFlow), so records built through `apply` are bit-identical
/// to the direct per-field construction.
#[test]
fn apply_reproduces_backend_specific_ingest_bit_identically() {
    let stream = capture(60);

    let mut via_trait = FlowTable::new(FlowTableConfig::default());
    let mut direct = FlowTable::new(FlowTableConfig::default());
    for (r, _) in &stream {
        let lowered = r.flow_update();
        // The exact lowering `update_int` hardcoded.
        let by_hand = FlowUpdate {
            flow: r.flow,
            now_ns: r.export_ns,
            len: r.ip_len,
            stamp32: r.hops.last().map(|h| h.egress_tstamp),
            observed_ns: None,
            queue_occupancy: r.hops.last().map(|h| h.queue_occupancy),
        };
        assert_eq!(lowered, by_hand, "INT lowering drifted");
        let (k1, rec1) = via_trait.apply(&lowered);
        let (k2, rec2) = direct.apply(&by_hand);
        assert_eq!(k1, k2);
        assert_eq!(rec1.features(), rec2.features());
    }

    let mut agent = SflowAgent::new(
        SamplingMode::Deterministic {
            period: 2,
            phase: 0,
        },
        5,
    );
    let samples = sample_reports(&stream, &mut agent);
    let mut via_trait = FlowTable::new(FlowTableConfig::default());
    let mut direct = FlowTable::new(FlowTableConfig::default());
    for (s, _) in &samples {
        let lowered = s.flow_update();
        // The exact lowering `update_sflow` hardcoded.
        let by_hand = FlowUpdate {
            flow: s.flow,
            now_ns: s.observed_ns,
            len: s.ip_len,
            stamp32: None,
            observed_ns: Some(s.observed_ns),
            queue_occupancy: None,
        };
        assert_eq!(lowered, by_hand, "sFlow lowering drifted");
        let (k1, rec1) = via_trait.apply(&lowered);
        let (k2, rec2) = direct.apply(&by_hand);
        assert_eq!(k1, k2);
        assert_eq!(rec1.features(), rec2.features());
    }
}
