//! Online adaptation under distribution drift: the epoch-published model
//! state end to end.
//!
//! The paper's benign traffic is explicitly diurnal (§IV-A), so a model
//! frozen at deployment time meets a different distribution every day.
//! This bench simulates that as a **co-drift** stream over several
//! "days" (segments): benign packet sizes drift upward away from their
//! training range while the attack softens toward where benign traffic
//! *used to* live — larger packets, slower pacing, shallower queues. The
//! day-0 decision boundary therefore decays: late-day attacks look like
//! early-day benign. A retrained boundary keeps the classes apart
//! because *current* benign has moved elsewhere.
//!
//! Two identical streaming runs through [`ThreadedPipeline`]:
//!
//! * **frozen** — the day-0 bundle, never swapped (adaptation off);
//! * **adaptive** — same bundle, `with_adaptation`: the aggregator feeds
//!   labeled rows to the shadow trainer, Page–Hinkley watches the benign
//!   distribution, and each drift flag retrains and atomically publishes
//!   a fresh epoch into the live run.
//!
//! Each segment is one `start(...) + join()` episode over the *same*
//! pipeline (shared flow database, shared epoch handle), so a retrain
//! triggered mid-segment is guaranteed published before the next segment
//! streams — the per-day retraining cadence a production deployment
//! would run.
//!
//! Alongside recall, the bench measures the publication layer itself:
//! writer-side swap latency, wait-free reader load latency with a
//! [`stats_alloc`] proof that the reader path allocates nothing, and a
//! concurrent torn-read audit (readers assert `epoch == meta.epoch`, an
//! invariant that only holds if every load observes a fully-published
//! bundle) while a writer publishes in a storm.
//!
//! A full run writes `BENCH_drift.json` at the repo root (a `--fast`
//! smoke run only into an explicitly set `AMLIGHT_RESULTS_DIR`).
//! `--check` turns the acceptance gates into process failures: adaptive
//! recall ≥ frozen recall, ≥1 retrain actually published, zero dropped
//! events in both runs, zero torn reads, zero reader-path allocations.
//!
//! Usage: `repro drift [--fast] [--seed N] [--check]`

use amlight_bench::util::{banner, write_json};
use amlight_core::epoch::EpochHandle;
use amlight_core::runtime::{AdaptConfig, ThreadedPipeline};
use amlight_core::source::ReplaySource;
use amlight_core::trainer::{dataset_from_events, train_bundle, ModelBundle, TrainerConfig};
use amlight_core::verdict::RecallCounts;
use amlight_core::DriftConfig;
use amlight_features::FeatureSet;
use amlight_int::{HopMetadata, InstructionSet, TelemetryReport};
use amlight_ml::{MlpConfig, RandomForestConfig};
use amlight_net::{FlowKey, Protocol, TrafficClass};
use serde::Serialize;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct RunRecord {
    adaptive: bool,
    events_in: u64,
    flows_created: u64,
    predictions: u64,
    /// events_in == flows_created + predictions, exactly — no event was
    /// dropped anywhere in the pipeline (including across hot swaps).
    accounted: bool,
    attack_updates: u64,
    attack_hits: u64,
    recall: f64,
    false_alarm_rate: f64,
    /// Per-segment recall, to show *where* the frozen boundary decays.
    segment_recall: Vec<f64>,
    drift_events: u64,
    retrains: u64,
    final_epoch: u64,
    wall_ms: f64,
}

#[derive(Serialize)]
struct SwapLatency {
    publishes: u64,
    publish_mean_ns: f64,
    publish_max_ns: u64,
    reader_loads: u64,
    reader_mean_ns: f64,
    /// Allocations across all reader loads (must be 0: the load path is
    /// one atomic Acquire and a stack guard).
    reader_allocs: u64,
}

#[derive(Serialize)]
struct TornReadAudit {
    loads: u64,
    publishes: u64,
    /// Loads where `epoch != bundle.meta.epoch` — an invariant stamped
    /// at publish time, so any mismatch means a torn observation.
    torn: u64,
}

#[derive(Serialize)]
struct DriftBenchReport {
    seed: u64,
    fast: bool,
    host_cpus: usize,
    segments: usize,
    events_per_segment: usize,
    frozen: RunRecord,
    adaptive: RunRecord,
    /// adaptive recall − frozen recall.
    recall_gain: f64,
    /// The headline invariant: retraining never loses recall.
    adaptation_wins: bool,
    swap: SwapLatency,
    torn_audit: TornReadAudit,
}

fn report(port: u16, t_ns: u64, len: u16, qocc: u32) -> TelemetryReport {
    TelemetryReport {
        flow: FlowKey::new(
            Ipv4Addr::new(8, 8, 8, 8),
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

/// Deterministic jitter in [-0.5, 0.5) — a SplitMix64-style finalizer,
/// so consecutive indices decorrelate (a weaker mix produces sawtooth
/// ramps the drift statistic would flag on its own) and the benign
/// baseline is honestly stationary apart from the modeled drift.
fn noise(i: u64) -> f64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 10_000) as f64 / 10_000.0 - 0.5
}

/// Benign observables at drift position `t ∈ [0, 1]`: starts at the
/// training distribution (800-byte packets, quiet queues, 1 ms pacing)
/// and drifts *up and away* to ~1400 bytes.
fn benign_at(t: f64, i: u64) -> (u16, u32, u64) {
    let len = 800.0 + 600.0 * t + 60.0 * noise(i);
    (len as u16, 0, 1_000_000)
}

/// Attack observables at drift position `t`: starts as a classic flood
/// (40-byte packets, deep queues, µs pacing) and *softens toward where
/// benign used to live* — ~700 bytes, near-ms pacing, shallow queues.
/// By the last segment it sits almost exactly on the day-0 benign
/// distribution, which is what breaks the frozen boundary.
fn attack_at(t: f64, i: u64) -> (u16, u32, u64) {
    let len = 40.0 + 660.0 * t + 40.0 * noise(i ^ 0x5A5A);
    let qocc = (20.0 - 18.0 * t).max(0.0) as u32;
    let gap = (3_000.0 + 900_000.0 * t) as u64;
    (len as u16, qocc, gap)
}

/// One co-drifting segment ("day"). `t` advances continuously across
/// the whole stream — so the drift detector sees motion *within* each
/// segment, not just a step at the boundary. Flow ports are per-segment
/// so each day starts fresh flows under the drifted distribution.
fn segment(seg: usize, segments: usize, pairs: usize) -> Vec<(TelemetryReport, TrafficClass)> {
    let total = (segments * pairs) as f64;
    let base = (seg * pairs) as u64;
    let port_base = (seg as u16) * 16;
    let mut v = Vec::with_capacity(pairs * 2);
    let mut attack_t = 0u64;
    for k in 0..pairs as u64 {
        let g = base + k;
        let t = g as f64 / total;
        let (blen, bqocc, bgap) = benign_at(t, g);
        v.push((
            report(1000 + port_base + (k % 5) as u16, k * bgap, blen, bqocc),
            TrafficClass::Benign,
        ));
        let (alen, aqocc, agap) = attack_at(t, g);
        attack_t += agap;
        v.push((
            report(2000 + port_base + (k % 3) as u16, attack_t, alen, aqocc),
            TrafficClass::SynFlood,
        ));
    }
    v.sort_by_key(|(r, _)| r.export_ns);
    v
}

fn trainer_config(fast: bool) -> TrainerConfig {
    TrainerConfig {
        mlp: MlpConfig {
            epochs: if fast { 3 } else { 6 },
            ..MlpConfig::paper_mlp()
        },
        forest: RandomForestConfig {
            n_trees: if fast { 8 } else { 16 },
            ..RandomForestConfig::fast()
        },
        ..Default::default()
    }
}

fn adapt_config(fast: bool) -> AdaptConfig {
    AdaptConfig {
        drift: DriftConfig {
            delta: 0.05,
            lambda: 20.0,
            min_samples: 256,
        },
        trainer: trainer_config(fast),
        max_buffer_rows: 6_000,
        min_train_rows: 512,
        queue_capacity: 4_096,
    }
}

fn fold(acc: &mut RecallCounts, s: &RecallCounts) {
    acc.attack_updates += s.attack_updates;
    acc.attack_hits += s.attack_hits;
    acc.attack_pending += s.attack_pending;
    acc.benign_updates += s.benign_updates;
    acc.benign_false_alarms += s.benign_false_alarms;
    acc.benign_pending += s.benign_pending;
}

/// Stream every segment through one pipeline, one start/join episode per
/// segment — the per-day cadence that lets a mid-segment retrain publish
/// before the next day arrives.
fn run_pipeline(
    bundle: ModelBundle,
    adapt: Option<AdaptConfig>,
    days: &[Vec<(TelemetryReport, TrafficClass)>],
) -> Result<RunRecord, String> {
    let adaptive = adapt.is_some();
    let mut pipe = ThreadedPipeline::new(bundle).with_shards(2);
    if let Some(cfg) = adapt {
        pipe = pipe.with_adaptation(cfg);
    }
    let mut events_in = 0u64;
    let mut flows_created = 0u64;
    let mut predictions = 0u64;
    let mut labeled = RecallCounts::default();
    let mut segment_recall = Vec::with_capacity(days.len());
    let mut drift_events = 0u64;
    let mut retrains = 0u64;
    let start = Instant::now();
    for day in days {
        let stats = pipe
            .start(ReplaySource::new(day.iter().cloned()))
            .join()
            .map_err(|e| format!("streaming run failed: {e}"))?;
        events_in += stats.events_in;
        flows_created += stats.flows_created;
        predictions += stats.predictions;
        fold(&mut labeled, &stats.labeled);
        segment_recall.push(stats.labeled.recall());
        drift_events += stats.adapt.drift_events;
        retrains += stats.adapt.retrains;
    }
    let wall = start.elapsed().as_secs_f64();
    Ok(RunRecord {
        adaptive,
        events_in,
        flows_created,
        predictions,
        accounted: events_in == flows_created + predictions,
        attack_updates: labeled.attack_updates,
        attack_hits: labeled.attack_hits,
        recall: labeled.recall(),
        false_alarm_rate: labeled.false_alarm_rate(),
        segment_recall,
        drift_events,
        retrains,
        final_epoch: pipe.model_handle().current_epoch(),
        wall_ms: wall * 1e3,
    })
}

/// Writer-side swap latency and reader-side load latency, with the
/// stats_alloc proof that the wait-free reader path allocates nothing.
fn measure_swap(bundle: &ModelBundle, publishes: u64, reader_loads: u64) -> SwapLatency {
    let handle = EpochHandle::new(bundle.clone());
    // Clones prepared outside the measured region — publish() consumes
    // the bundle, and cloning it is training-cadence work, not swap work.
    let fresh: Vec<ModelBundle> = (0..publishes).map(|_| bundle.clone()).collect();
    let mut total_ns = 0u64;
    let mut max_ns = 0u64;
    for b in fresh {
        let t0 = Instant::now();
        handle.publish(b).expect("same feature set");
        let ns = t0.elapsed().as_nanos() as u64;
        total_ns += ns;
        max_ns = max_ns.max(ns);
    }

    let region = stats_alloc::Region::new();
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..reader_loads {
        acc = acc.wrapping_add(handle.load().epoch());
    }
    let read_ns = t0.elapsed().as_nanos() as u64;
    let reader_allocs = region.change().acquisitions();
    std::hint::black_box(acc);

    SwapLatency {
        publishes,
        publish_mean_ns: total_ns as f64 / publishes.max(1) as f64,
        publish_max_ns: max_ns,
        reader_loads,
        reader_mean_ns: read_ns as f64 / reader_loads.max(1) as f64,
        reader_allocs,
    }
}

/// Concurrent torn-read audit: readers hammer `load()` asserting the
/// publish-stamped invariant `epoch == bundle.meta.epoch` while a writer
/// publishes continuously. A single mismatch would mean a reader saw a
/// half-published bundle.
fn torn_read_audit(bundle: &ModelBundle, window: Duration) -> TornReadAudit {
    let handle = EpochHandle::new(bundle.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let loads = Arc::new(AtomicU64::new(0));
    let torn = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let loads = Arc::clone(&loads);
            let torn = Arc::clone(&torn);
            std::thread::spawn(move || {
                let mut n = 0u64;
                let mut bad = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = handle.load();
                    if guard.epoch() != guard.bundle().meta.epoch {
                        bad += 1;
                    }
                    n += 1;
                }
                loads.fetch_add(n, Ordering::Relaxed);
                torn.fetch_add(bad, Ordering::Relaxed);
            })
        })
        .collect();

    let mut publishes = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < window {
        handle.publish(bundle.clone()).expect("same feature set");
        publishes += 1;
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let _ = r.join();
    }
    TornReadAudit {
        loads: loads.load(Ordering::Relaxed),
        publishes,
        torn: torn.load(Ordering::Relaxed),
    }
}

pub fn run(fast: bool, seed: u64, check: bool) -> Result<(), String> {
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let segments = if fast { 3 } else { 4 };
    let pairs = if fast { 1_500 } else { 4_000 };

    banner(&format!(
        "model drift: {segments} co-drifting days × {} events, {host_cpus} cpu(s)",
        pairs * 2
    ));

    // Day-0 training capture: the stationary start of the very same
    // distribution the stream then drifts away from.
    let train = segment(0, segments, pairs);
    let bundle = train_bundle(
        &dataset_from_events(&train, FeatureSet::full()),
        FeatureSet::full(),
        &trainer_config(fast),
    );

    let days: Vec<_> = (0..segments).map(|s| segment(s, segments, pairs)).collect();

    let frozen = run_pipeline(bundle.clone(), None, &days)?;
    let adaptive = run_pipeline(bundle.clone(), Some(adapt_config(fast)), &days)?;

    println!(
        "{:>9} {:>8} {:>8} {:>9} {:>7} {:>9} {:>9}",
        "run", "events", "recall", "far", "drifts", "retrains", "epoch"
    );
    for r in [&frozen, &adaptive] {
        println!(
            "{:>9} {:>8} {:>8.4} {:>9.4} {:>7} {:>9} {:>9}",
            if r.adaptive { "adaptive" } else { "frozen" },
            r.events_in,
            r.recall,
            r.false_alarm_rate,
            r.drift_events,
            r.retrains,
            r.final_epoch,
        );
    }
    println!("per-segment recall (frozen → adaptive):");
    for (i, (f, a)) in frozen
        .segment_recall
        .iter()
        .zip(&adaptive.segment_recall)
        .enumerate()
    {
        println!("  day {i}: {f:.4} → {a:.4}");
    }

    let swap = measure_swap(&bundle, 32, 200_000);
    println!(
        "swap: publish mean {:.0} ns (max {} ns); reader load mean {:.1} ns, {} alloc(s) over {} loads",
        swap.publish_mean_ns, swap.publish_max_ns, swap.reader_mean_ns, swap.reader_allocs, swap.reader_loads,
    );
    let torn_audit = torn_read_audit(&bundle, Duration::from_millis(if fast { 150 } else { 400 }));
    println!(
        "torn-read audit: {} loads across {} publishes, {} torn",
        torn_audit.loads, torn_audit.publishes, torn_audit.torn
    );

    let recall_gain = adaptive.recall - frozen.recall;
    let adaptation_wins = adaptive.recall >= frozen.recall;
    println!(
        "\nrecall: frozen {:.4} vs adaptive {:.4} → {}",
        frozen.recall,
        adaptive.recall,
        if adaptation_wins {
            "retraining tracks the drift"
        } else {
            "UNEXPECTED: adaptation lost recall"
        }
    );

    let report = DriftBenchReport {
        seed,
        fast,
        host_cpus,
        segments,
        events_per_segment: pairs * 2,
        frozen,
        adaptive,
        recall_gain,
        adaptation_wins,
        swap,
        torn_audit,
    };
    write_json("BENCH_drift.json", &report, fast);

    if check {
        let mut failed = false;
        if !report.adaptation_wins {
            eprintln!(
                "GATE FAIL: adaptive recall {:.4} below frozen {:.4}",
                report.adaptive.recall, report.frozen.recall
            );
            failed = true;
        }
        if report.adaptive.retrains == 0 {
            eprintln!("GATE FAIL: drift never retrained — no epoch was published");
            failed = true;
        }
        if report.adaptive.final_epoch == 0 {
            eprintln!("GATE FAIL: adaptive run ended on the offline epoch");
            failed = true;
        }
        for r in [&report.frozen, &report.adaptive] {
            if !r.accounted {
                eprintln!(
                    "GATE FAIL: {} run dropped events ({} in ≠ {} flows + {} predictions)",
                    if r.adaptive { "adaptive" } else { "frozen" },
                    r.events_in,
                    r.flows_created,
                    r.predictions
                );
                failed = true;
            }
        }
        if report.torn_audit.torn > 0 {
            eprintln!(
                "GATE FAIL: {} torn reads observed under the publish storm",
                report.torn_audit.torn
            );
            failed = true;
        }
        if report.swap.reader_allocs > 0 {
            eprintln!(
                "GATE FAIL: reader load path allocated {} times (expected 0)",
                report.swap.reader_allocs
            );
            failed = true;
        }
        if failed {
            return Err("drift gates failed".into());
        }
        println!("check: all drift gates passed ✓");
    }
    Ok(())
}
