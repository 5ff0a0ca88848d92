//! Streaming runtime throughput: the threaded pipeline over a live,
//! channel-fed [`amlight_core::EventSource`], swept across processor shard
//! counts.
//!
//! A feeder thread replays a labeled capture into a bounded channel —
//! the same shape as a production INT collector socket loop — while the
//! pipeline fans ingest across N processor shards and fans back in at
//! the single prediction thread. For each shard count we report
//! end-to-end wall time, reports/second, and the wall-clock prediction
//! latency distribution the aggregator measured. Writes
//! `results/streaming.json`.
//!
//! It also benchmarks the ingest *stage* in isolation — INT byte-stream
//! decode → flow-table update → feature projection — comparing the
//! allocating baseline (per-chunk `ingest`, hashmap flow table, fresh
//! projection vectors) against the pooled hot path (`ingest_into`
//! scratch, slab flow table, reused row buffer), with a counting global
//! allocator reporting allocations per event. Writes the comparison to
//! `BENCH_hotpath.json` at the repo root; `--check-allocs` exits
//! non-zero if the pooled path allocates in steady state (the CI
//! alloc-regression gate).
//!
//! Usage: `bench_streaming [--fast] [--seed N] [--check-allocs]`

use amlight_bench::util::{arg_seed, banner, flag_fast, write_json};
use amlight_core::event::Telemetry;
use amlight_core::runtime::ThreadedPipeline;
use amlight_core::source::ChannelSource;
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{dataset_from_events, train_bundle, TrainerConfig};
use amlight_features::reference::HashFlowTable;
use amlight_features::{FeatureSet, FlowTable, FlowTableConfig};
use amlight_int::{IntCollector, TelemetryReport};
use amlight_ml::{MlpConfig, RandomForestConfig};
use amlight_net::TrafficClass;
use amlight_traffic::ReplayLibrary;
use serde::Serialize;
use std::time::Instant;

/// Counting allocator: lets the ingest-stage bench report allocations
/// per event and gate the zero-steady-state-allocation invariant.
#[global_allocator]
static ALLOC: stats_alloc::StatsAlloc = stats_alloc::StatsAlloc;

#[derive(Serialize)]
struct ShardRecord {
    shards: usize,
    reports: u64,
    predictions: u64,
    wall_ms: f64,
    reports_per_s: f64,
    mean_latency_us: f64,
    max_latency_us: f64,
}

#[derive(Serialize)]
struct StreamingReport {
    seed: u64,
    fast: bool,
    records: Vec<ShardRecord>,
}

/// One side of the ingest-stage comparison.
#[derive(Serialize, Clone, Copy)]
struct IngestSide {
    events_per_s: f64,
    allocs_per_event: f64,
    /// Per-chunk ingest latency percentiles (µs) over the measured pass.
    p50_chunk_us: f64,
    p99_chunk_us: f64,
}

#[derive(Serialize)]
struct IngestStageReport {
    seed: u64,
    events: u64,
    chunk_bytes: usize,
    /// Allocating path: per-chunk `ingest` + hashmap table + fresh rows.
    baseline: IngestSide,
    /// Pooled path: `ingest_into` + slab table + reused row buffer.
    optimized: IngestSide,
    /// optimized ÷ baseline events/s.
    speedup: f64,
}

/// Bytes handed to the collector per call — the shape of a socket read.
const INGEST_CHUNK: usize = 4096;

/// Allocating ingest stage: fresh report vector per chunk, hashmap flow
/// table, fresh projected row per event. This is the pre-optimization
/// shape of the hot path, kept as the comparison baseline.
fn baseline_pass(stream: &[u8], table: &mut HashFlowTable, set: FeatureSet) -> u64 {
    let mut collector = IntCollector::new();
    let mut n = 0u64;
    for chunk in stream.chunks(INGEST_CHUNK) {
        for r in collector.ingest(chunk) {
            let (_, rec) = table.apply(&r.flow_update());
            std::hint::black_box(rec.features().project(set));
            n += 1;
        }
    }
    n
}

/// Pooled ingest stage: reusable decode scratch, slab flow table,
/// reused projection row. Steady state performs zero allocations.
fn optimized_pass(
    stream: &[u8],
    table: &mut FlowTable,
    set: FeatureSet,
    collector: &mut IntCollector,
    scratch: &mut Vec<TelemetryReport>,
    row: &mut Vec<f64>,
) -> u64 {
    let mut n = 0u64;
    for chunk in stream.chunks(INGEST_CHUNK) {
        scratch.clear();
        collector.ingest_into(chunk, scratch);
        for r in scratch.iter() {
            let (_, rec) = table.apply(&r.flow_update());
            row.clear();
            rec.features().project_into(set, row);
            std::hint::black_box(&row);
            n += 1;
        }
    }
    n
}

/// Percentile (µs) of a sorted latency sample.
fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] * 1e6
}

/// Benchmark the isolated ingest stage over an encoded INT stream and
/// return the before/after comparison. `check_allocs` turns a non-zero
/// steady-state allocation count on the pooled path into a process
/// failure (exit 1).
fn bench_ingest_stage(
    reports: &[TelemetryReport],
    seed: u64,
    check_allocs: bool,
) -> IngestStageReport {
    let stream = IntCollector::encode_stream(reports);
    let set = FeatureSet::full();
    let cfg = FlowTableConfig::default();
    let n_chunks = stream.len().div_ceil(INGEST_CHUNK);

    banner(&format!(
        "ingest stage: {} reports, {} KiB stream, {}-byte chunks",
        reports.len(),
        stream.len() / 1024,
        INGEST_CHUNK
    ));

    // --- baseline: allocating path over the hashmap reference table ---
    let mut base_table = HashFlowTable::new(cfg);
    baseline_pass(&stream, &mut base_table, set); // warmup (flow creation)
    let region = stats_alloc::Region::new();
    let t0 = Instant::now();
    let base_events = baseline_pass(&stream, &mut base_table, set);
    let base_secs = t0.elapsed().as_secs_f64();
    let base_allocs = region.change().acquisitions() as f64 / base_events as f64;
    let mut base_lat = Vec::with_capacity(n_chunks);
    {
        let mut collector = IntCollector::new();
        for chunk in stream.chunks(INGEST_CHUNK) {
            let t = Instant::now();
            for r in collector.ingest(chunk) {
                let (_, rec) = base_table.apply(&r.flow_update());
                std::hint::black_box(rec.features().project(set));
            }
            base_lat.push(t.elapsed().as_secs_f64());
        }
    }
    base_lat.sort_by(f64::total_cmp);

    // --- optimized: pooled path over the slab table ---
    let mut opt_table = FlowTable::new(cfg);
    let mut collector = IntCollector::new();
    let mut scratch = Vec::new();
    let mut row = Vec::new();
    // Two warmup passes: the first creates every flow and grows all
    // scratch to its high-water mark; the second settles the
    // collector's reassembly buffer into its periodic steady-state
    // trajectory (a pass that starts from the residual read offset
    // peaks slightly higher than one that starts from an empty
    // buffer). The measured pass is then pure steady state.
    for _ in 0..2 {
        optimized_pass(
            &stream,
            &mut opt_table,
            set,
            &mut collector,
            &mut scratch,
            &mut row,
        );
    }
    let region = stats_alloc::Region::new();
    let t0 = Instant::now();
    let opt_events = optimized_pass(
        &stream,
        &mut opt_table,
        set,
        &mut collector,
        &mut scratch,
        &mut row,
    );
    let opt_secs = t0.elapsed().as_secs_f64();
    let opt_acquisitions = region.change().acquisitions();
    let opt_allocs = opt_acquisitions as f64 / opt_events as f64;
    let mut opt_lat = Vec::with_capacity(n_chunks);
    for chunk in stream.chunks(INGEST_CHUNK) {
        let t = Instant::now();
        scratch.clear();
        collector.ingest_into(chunk, &mut scratch);
        for r in scratch.iter() {
            let (_, rec) = opt_table.apply(&r.flow_update());
            row.clear();
            rec.features().project_into(set, &mut row);
            std::hint::black_box(&row);
        }
        opt_lat.push(t.elapsed().as_secs_f64());
    }
    opt_lat.sort_by(f64::total_cmp);

    let baseline = IngestSide {
        events_per_s: base_events as f64 / base_secs.max(1e-9),
        allocs_per_event: base_allocs,
        p50_chunk_us: percentile_us(&base_lat, 0.50),
        p99_chunk_us: percentile_us(&base_lat, 0.99),
    };
    let optimized = IngestSide {
        events_per_s: opt_events as f64 / opt_secs.max(1e-9),
        allocs_per_event: opt_allocs,
        p50_chunk_us: percentile_us(&opt_lat, 0.50),
        p99_chunk_us: percentile_us(&opt_lat, 0.99),
    };
    let speedup = optimized.events_per_s / baseline.events_per_s.max(1e-9);

    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12}",
        "path", "events/s", "allocs/event", "p50 µs", "p99 µs"
    );
    for (name, side) in [("baseline", baseline), ("pooled", optimized)] {
        println!(
            "{:<10} {:>14.0} {:>14.3} {:>12.1} {:>12.1}",
            name, side.events_per_s, side.allocs_per_event, side.p50_chunk_us, side.p99_chunk_us
        );
    }
    println!("ingest speedup: {speedup:.2}x");

    if check_allocs && opt_acquisitions > 0 {
        eprintln!(
            "ALLOC REGRESSION: pooled ingest path performed {opt_acquisitions} \
             allocations in steady state (expected 0)"
        );
        std::process::exit(1);
    }
    if check_allocs {
        println!("check-allocs: pooled steady state allocated nothing ✓");
    }

    IngestStageReport {
        seed,
        events: opt_events,
        chunk_bytes: INGEST_CHUNK,
        baseline,
        optimized,
        speedup,
    }
}

fn main() {
    let fast = flag_fast();
    let check_allocs = std::env::args().any(|a| a == "--check-allocs");
    let seed = arg_seed(616);
    let lab = Testbed::new(TestbedConfig::default());

    // Offline phase: a quick but real bundle.
    let library = ReplayLibrary::build(if fast { 200 } else { 600 }, seed);
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
                epochs: if fast { 4 } else { 10 },
                ..MlpConfig::paper_mlp()
            },
            forest: RandomForestConfig {
                n_trees: if fast { 10 } else { 30 },
                ..RandomForestConfig::fast()
            },
            ..Default::default()
        },
    );

    // Online phase: one shared replay, streamed once per shard count.
    let replay = ReplayLibrary::build(if fast { 300 } else { 1200 }, seed ^ 0xA11CE);
    let mut reports: Vec<TelemetryReport> = Vec::new();
    for class in TrafficClass::ALL {
        reports.extend(lab.replay_class(&replay, class).into_iter().map(|(r, _)| r));
    }
    reports.sort_by_key(|r| r.export_ns);

    // Isolated ingest stage: decode → table → features, before vs after
    // the allocation-free rework.
    let ingest = bench_ingest_stage(&reports, seed, check_allocs);
    match serde_json::to_string_pretty(&ingest) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_hotpath.json", json) {
                eprintln!("warn: cannot write BENCH_hotpath.json: {e}");
            } else {
                eprintln!("(wrote BENCH_hotpath.json)");
            }
        }
        Err(e) => eprintln!("warn: cannot serialize ingest report: {e}"),
    }

    banner(&format!(
        "streaming runtime: {} reports, shard sweep",
        reports.len()
    ));
    println!(
        "{:>7} {:>10} {:>12} {:>12} {:>14} {:>14}",
        "shards", "wall ms", "reports/s", "predictions", "mean lat µs", "max lat µs"
    );

    let mut records = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let pipe = ThreadedPipeline::new(bundle.clone()).with_shards(shards);
        let (tx, source) = ChannelSource::bounded(1024);
        let stream = reports.clone();
        let start = Instant::now();
        let handle = pipe.start(source);
        let feeder = std::thread::spawn(move || {
            for r in stream {
                if tx.send(r.into()).is_err() {
                    break;
                }
            }
        });
        let _ = feeder.join();
        let stats = match handle.join() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{shards}-shard run failed: {e}");
                continue;
            }
        };
        let wall = start.elapsed().as_secs_f64();
        let rec = ShardRecord {
            shards,
            reports: stats.events_in,
            predictions: stats.predictions,
            wall_ms: wall * 1e3,
            reports_per_s: stats.events_in as f64 / wall.max(1e-9),
            mean_latency_us: stats.mean_latency_us,
            max_latency_us: stats.max_latency_us,
        };
        println!(
            "{:>7} {:>10.2} {:>12.0} {:>12} {:>14.1} {:>14.1}",
            rec.shards,
            rec.wall_ms,
            rec.reports_per_s,
            rec.predictions,
            rec.mean_latency_us,
            rec.max_latency_us
        );
        records.push(rec);
    }

    write_json(
        "streaming",
        &StreamingReport {
            seed,
            fast,
            records,
        },
    );
}
