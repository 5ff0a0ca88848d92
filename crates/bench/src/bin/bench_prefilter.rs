//! Triage pre-filter payoff: what the sketch-based gate in
//! `features::triage` buys the Predictor under the paper's Table I
//! flood episodes.
//!
//! Three runs of the threaded pipeline over the same labeled capture —
//! `--prefilter off`, `shadow`, and `on` — twice:
//!
//! 1. **Flood replay**: the capture restricted to the Table I SYN-flood
//!    episode windows (benign background included), the regime the
//!    pre-filter exists for. This is where the acceptance gates bind:
//!    `on` must cut predictor-evaluated updates ≥5× versus `off` while
//!    flow-level attack recall (ground-truth attack flows that receive
//!    a final Attack verdict) stays within 0.005.
//! 2. **Day replay**: the full two-day capture, for context — scans,
//!    SlowLoris, and long benign stretches where the gate should stay
//!    out of the way.
//!
//! A final audit replays the flood updates through a bare
//! `FlowTable::apply` + `TriageStage::assess` loop inside a
//! [`stats_alloc::Region`]: after warm-up the triage path must not
//! allocate at all (the R6 static-allocation invariant, measured).
//!
//! Quality only: what the gate costs or saves in wall-clock time is
//! `bench_e2e`'s `day_triage` against `day`, measured on the real
//! wire-to-verdict path.
//!
//! A full run writes `BENCH_prefilter.json` at the repo root; a `--fast`
//! smoke run prints and gates but writes nothing, so it can never
//! become, or clobber, the committed artifact. `--check` turns the three
//! gates into process failures.
//!
//! Usage: `bench_prefilter [--fast] [--seed N] [--check]`

use amlight_bench::util::{arg_seed, banner, flag_fast, write_bench_artifact};
use amlight_core::event::Telemetry;
use amlight_core::runtime::ThreadedPipeline;
use amlight_core::source::ReplaySource;
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{dataset_from_events, train_bundle, ModelBundle, TrainerConfig};
use amlight_features::{
    FeatureSet, FlowTable, FlowTableConfig, PrefilterMode, TriageConfig, TriageStage,
};
use amlight_int::TelemetryReport;
use amlight_ml::{MlpConfig, RandomForestConfig};
use amlight_net::{FlowKey, TrafficClass};
use amlight_traffic::{AttackKind, TrafficMix, TrafficMixConfig};
use serde::Serialize;
use std::collections::HashSet;

/// Counting allocator for the zero-steady-state-allocation gate.
#[global_allocator]
static ALLOC: stats_alloc::StatsAlloc = stats_alloc::StatsAlloc;

/// One pipeline run of one labeled replay at one pre-filter mode.
#[derive(Serialize, Clone, Copy)]
struct ModeRecord {
    mode: &'static str,
    events_in: u64,
    flows_created: u64,
    /// Predictor-evaluated flow updates — the quantity the gate cuts.
    predictions: u64,
    forwarded: u64,
    deferred: u64,
    dropped: u64,
    shed: u64,
    /// Updates the triage scorer graded (0 when the stage is off).
    scored: u64,
    alarm_windows: u64,
    /// Per-update recall over the updates the Predictor evaluated.
    update_recall: f64,
    false_alarm_rate: f64,
    /// Flow-level detection: ground-truth attack flows seen / flagged.
    attack_flows: u64,
    attack_flows_flagged: u64,
    flow_recall: f64,
}

#[derive(Serialize)]
struct AllocRecord {
    /// Updates assessed during the measured steady-state pass.
    events: u64,
    acquisitions: u64,
    allocs_per_event: f64,
}

#[derive(Serialize)]
struct PrefilterBenchReport {
    seed: u64,
    fast: bool,
    /// Capture restricted to Table I SYN-flood episode windows.
    flood: Vec<ModeRecord>,
    /// The full two-day Table I capture.
    day: Vec<ModeRecord>,
    /// flood off ÷ flood on predictor-evaluated updates.
    reduction_under_flood: f64,
    /// Flow-level attack recall on the flood replay, off vs on.
    recall_off: f64,
    recall_on: f64,
    recall_delta: f64,
    alloc: AllocRecord,
}

/// Run one labeled replay through the threaded pipeline at `mode` and
/// score it against the capture's ground-truth attack flows.
fn run_mode(
    bundle: &ModelBundle,
    labeled: &[(TelemetryReport, TrafficClass)],
    attack_flows: &HashSet<FlowKey>,
    mode: PrefilterMode,
) -> ModeRecord {
    let pipe = ThreadedPipeline::new(bundle.clone())
        .with_shards(1)
        .with_prefilter(mode);
    let stats = pipe
        .start(ReplaySource::new(labeled.iter().cloned()))
        .join()
        .expect("no module thread panicked");

    let seqs = pipe.database().verdict_sequences();
    let flagged = attack_flows
        .iter()
        .filter(|key| seqs.get(key).is_some_and(|seq| seq.contains(&Some(true))))
        .count() as u64;
    let t = stats.triage;
    ModeRecord {
        mode: mode.name(),
        events_in: stats.events_in,
        flows_created: stats.flows_created,
        predictions: stats.predictions,
        forwarded: t.forwarded,
        deferred: t.deferred,
        dropped: t.dropped,
        shed: t.shed,
        scored: t.would.scored,
        alarm_windows: t.would.alarm_windows,
        update_recall: stats.labeled.recall(),
        false_alarm_rate: stats.labeled.false_alarm_rate(),
        attack_flows: attack_flows.len() as u64,
        attack_flows_flagged: flagged,
        flow_recall: if attack_flows.is_empty() {
            0.0
        } else {
            flagged as f64 / attack_flows.len() as f64
        },
    }
}

fn print_record(r: &ModeRecord) {
    println!(
        "{:<8} {:>9} {:>11} {:>9} {:>9} {:>9} {:>7} {:>8.3} {:>8.3}",
        r.mode,
        r.events_in,
        r.predictions,
        r.forwarded,
        r.deferred,
        r.dropped,
        r.shed,
        r.update_recall,
        r.flow_recall,
    );
}

fn run_replay(
    name: &str,
    bundle: &ModelBundle,
    labeled: &[(TelemetryReport, TrafficClass)],
) -> Vec<ModeRecord> {
    let attack_flows: HashSet<FlowKey> = labeled
        .iter()
        .filter(|(_, c)| *c != TrafficClass::Benign)
        .map(|(r, _)| r.flow)
        .collect();
    let attack_events = labeled
        .iter()
        .filter(|(_, c)| *c != TrafficClass::Benign)
        .count();
    banner(&format!(
        "{name}: {} events ({} attack, {} attack flows)",
        labeled.len(),
        attack_events,
        attack_flows.len()
    ));
    println!(
        "{:<8} {:>9} {:>11} {:>9} {:>9} {:>9} {:>7} {:>8} {:>8}",
        "mode", "events", "predicted", "forward", "defer", "drop", "shed", "recall", "flows",
    );
    [PrefilterMode::Off, PrefilterMode::Shadow, PrefilterMode::On]
        .iter()
        .map(|&mode| {
            let r = run_mode(bundle, labeled, &attack_flows, mode);
            print_record(&r);
            r
        })
        .collect()
}

/// Steady-state allocation audit of the bare triage path: flow-table
/// update + triage assessment per event, nothing else. The first pass
/// creates every flow and settles the sketches; the measured second
/// pass must allocate exactly nothing.
fn alloc_audit(labeled: &[(TelemetryReport, TrafficClass)]) -> AllocRecord {
    let updates: Vec<_> = labeled.iter().map(|(r, _)| r.flow_update()).collect();
    let mut table = FlowTable::new(FlowTableConfig::default());
    let mut stage = TriageStage::new(TriageConfig::default());
    for u in &updates {
        let (_, rec) = table.apply(u);
        std::hint::black_box(stage.assess(u, rec));
    }
    let region = stats_alloc::Region::new();
    for u in &updates {
        let (_, rec) = table.apply(u);
        std::hint::black_box(stage.assess(u, rec));
    }
    let acquisitions = region.change().acquisitions();
    AllocRecord {
        events: updates.len() as u64,
        acquisitions,
        allocs_per_event: acquisitions as f64 / (updates.len().max(1)) as f64,
    }
}

fn main() {
    let fast = flag_fast();
    let check = std::env::args().any(|a| a == "--check");
    let seed = arg_seed(20825);
    let day_len = if fast { 4 } else { 10 };
    let lab = Testbed::new(TestbedConfig::default());

    // Offline phase: train on one Table I capture, replay a fresh one.
    let train_labeled = lab
        .run_labeled(&TrafficMix::new(TrafficMixConfig::paper_capture(day_len, seed)).generate());
    let bundle = train_bundle(
        &dataset_from_events(&train_labeled, FeatureSet::full()),
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

    let test_mix = TrafficMix::new(TrafficMixConfig::paper_capture(day_len, seed ^ 0x5F10));
    let day_labeled = lab.run_labeled(&test_mix.generate());
    // The flood replay: only events inside a SYN-flood episode window —
    // flood packets plus whatever benign background overlaps them.
    let flood_labeled: Vec<(TelemetryReport, TrafficClass)> = day_labeled
        .iter()
        .filter(|(r, _)| test_mix.schedule().active_at(r.export_ns) == Some(AttackKind::SynFlood))
        .cloned()
        .collect();

    let flood = run_replay("flood episodes", &bundle, &flood_labeled);
    let day = run_replay("full day", &bundle, &day_labeled);

    let (off, on) = (flood[0], flood[2]);
    let reduction = off.predictions as f64 / (on.predictions.max(1)) as f64;
    let recall_delta = (off.flow_recall - on.flow_recall).abs();
    println!(
        "\nflood: {} → {} predictor-evaluated updates ({reduction:.2}x cut), \
         flow recall {:.4} → {:.4} (Δ {recall_delta:.4})",
        off.predictions, on.predictions, off.flow_recall, on.flow_recall
    );

    let alloc = alloc_audit(&flood_labeled);
    println!(
        "triage steady state: {} allocations over {} updates ({:.4}/update)",
        alloc.acquisitions, alloc.events, alloc.allocs_per_event
    );

    let report = PrefilterBenchReport {
        seed,
        fast,
        flood,
        day,
        reduction_under_flood: reduction,
        recall_off: off.flow_recall,
        recall_on: on.flow_recall,
        recall_delta,
        alloc,
    };
    write_bench_artifact("prefilter", &report, fast);

    if check {
        let mut failed = false;
        if report.reduction_under_flood < 5.0 {
            eprintln!(
                "GATE FAIL: pre-filter cut predictor load only {:.2}x under flood (need ≥5x)",
                report.reduction_under_flood
            );
            failed = true;
        }
        if report.recall_delta > 0.005 {
            eprintln!(
                "GATE FAIL: gating moved flow-level attack recall by {:.4} (allowed ≤0.005)",
                report.recall_delta
            );
            failed = true;
        }
        if report.alloc.acquisitions > 0 {
            eprintln!(
                "GATE FAIL: triage path allocated {} times in steady state (expected 0)",
                report.alloc.acquisitions
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check: all pre-filter gates passed ✓");
    }
}
