//! Telemetry backends head to head through the *shared* streaming
//! pipeline: the same Fig. 2 module threads fed every backend in the
//! registry's view of the identical SlowLoris-bearing capture — INT
//! reports, sFlow samples, and PINT digest reports at several per-packet
//! bit budgets.
//!
//! This is the paper's central comparison (Fig. 5) run end to end
//! instead of classifier-only, widened into an overhead–recall
//! frontier: each point prices its backend in bits per packet
//! ([`TelemetryBackend::bits_per_packet`]) and scores streaming-run
//! recall, with warm-up (`Pending`) verdicts counted as misses.
//! Sampling starves sFlow of per-flow updates (SlowLoris especially),
//! so its flows rarely leave the smoothing warm-up; PINT keeps
//! per-packet coverage for a few bits per packet, so it sits between
//! sFlow and INT on recall at a tiny fraction of INT's overhead. The
//! machine-checked invariant is the frontier ordering
//! `INT ≥ PINT@k ≥ sFlow` (non-strict) for every PINT budget.
//!
//! Writes `results/telemetry.json`.
//!
//! Usage: `repro telemetry [--fast] [--seed N] [--period N] [--check]`
//!
//! `--check` re-reads the committed `results/telemetry.json` and
//! validates its schema and the frontier ordering without running
//! anything — the CI drift gate. It refuses a file a `--fast` run wrote.

use amlight_bench::util::{
    artifact_path, banner, require_full_run, streaming_trainer_config, write_json,
};
use amlight_core::event::{TelemetryBackend, ViewOptions};
use amlight_core::runtime::ThreadedPipeline;
use amlight_core::source::{EventSource, ReplaySource};
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{dataset_from_labeled, train_bundle, ModelBundle};
use amlight_net::TrafficClass;
use amlight_traffic::{TrafficMix, TrafficMixConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The PINT per-packet budgets swept into the frontier.
const PINT_BITS: [u8; 3] = [5, 8, 12];

/// Recall comparisons tolerate this much jitter — the gate is a
/// non-strict ordering, not a measurement-noise trap.
const RECALL_EPS: f64 = 1e-9;

/// One point on the overhead–recall frontier.
#[derive(Debug, Serialize, Deserialize)]
struct FrontierPoint {
    /// Display label: `int`, `pint@5`, …, `sflow`.
    label: String,
    /// Registry name ([`TelemetryBackend::name`]).
    backend: String,
    /// PINT digest budget, when this point is a PINT sweep member.
    pint_bits: Option<u8>,
    /// Telemetry overhead at the capture's hop count, bits per packet.
    bits_per_packet: f64,
    /// Telemetry events the pipeline ingested (the sampling loss shows
    /// up right here).
    events_in: u64,
    predictions: u64,
    attack_updates: u64,
    attack_hits: u64,
    attack_pending: u64,
    recall: f64,
    false_alarm_rate: f64,
    wall_ms: f64,
    events_per_s: f64,
    mean_latency_us: f64,
    /// Labeled events offered to this backend, per traffic class.
    coverage: Vec<ClassCoverage>,
}

#[derive(Debug, Serialize, Deserialize)]
struct ClassCoverage {
    class: String,
    events: u64,
}

/// The headline artifact: the paper's qualitative Fig. 5 result as a
/// machine-checkable invariant, widened across the registry.
#[derive(Debug, Serialize, Deserialize)]
struct RecallGap {
    int_recall: f64,
    sflow_recall: f64,
    /// Worst PINT recall across the bit sweep.
    pint_min_recall: f64,
    /// Best PINT recall across the bit sweep.
    pint_max_recall: f64,
    /// `INT ≥ PINT@k ≥ sFlow` (non-strict) for every swept budget.
    holds: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct TelemetryReportJson {
    seed: u64,
    fast: bool,
    /// sFlow sampling period (1-in-N).
    sample_period: u32,
    /// PINT budgets swept.
    pint_bits: Vec<u8>,
    /// Switch path length the bits-per-packet pricing assumed.
    hops: usize,
    frontier: Vec<FrontierPoint>,
    gap: RecallGap,
}

/// The frontier ordering gate, shared between the live run's printout
/// and `--check`.
fn gate(report: &TelemetryReportJson) -> Result<(), String> {
    let point = |label: &str| {
        report
            .frontier
            .iter()
            .find(|p| p.label == label)
            .ok_or_else(|| format!("point `{label}` missing from the frontier"))
    };
    let int = point("int")?;
    let sflow = point("sflow")?;
    let pints: Vec<&FrontierPoint> = report
        .frontier
        .iter()
        .filter(|p| p.backend == "pint")
        .collect();
    if pints.len() < 3 {
        return Err(format!(
            "frontier has {} PINT points, need at least 3 bit budgets",
            pints.len()
        ));
    }
    for p in report.frontier.iter() {
        if p.events_in == 0 {
            return Err(format!("point `{}` ingested nothing", p.label));
        }
        if p.coverage.is_empty() {
            return Err(format!("point `{}` has no per-class coverage", p.label));
        }
        if !(p.recall.is_finite() && (0.0..=1.0).contains(&p.recall)) {
            return Err(format!(
                "point `{}` recall {} out of range",
                p.label, p.recall
            ));
        }
        if !(p.bits_per_packet.is_finite() && p.bits_per_packet > 0.0) {
            return Err(format!(
                "point `{}` bits/packet {} out of range",
                p.label, p.bits_per_packet
            ));
        }
    }
    for p in &pints {
        if p.recall > int.recall + RECALL_EPS {
            return Err(format!(
                "frontier inverted: {} recall {:.4} above INT {:.4}",
                p.label, p.recall, int.recall
            ));
        }
        if p.recall + RECALL_EPS < sflow.recall {
            return Err(format!(
                "frontier inverted: {} recall {:.4} below sFlow {:.4}",
                p.label, p.recall, sflow.recall
            ));
        }
        if p.bits_per_packet >= int.bits_per_packet {
            return Err(format!(
                "{} costs {:.1} bits/packet, not below INT's {:.1}",
                p.label, p.bits_per_packet, int.bits_per_packet
            ));
        }
    }
    if sflow.recall > int.recall + RECALL_EPS {
        return Err(format!(
            "recall gap inverted: INT {} vs sFlow {}",
            int.recall, sflow.recall
        ));
    }
    Ok(())
}

/// `--check`: validate the committed artifact instead of running.
fn check_committed() -> Result<(), String> {
    let path = artifact_path("results/telemetry.json");
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    require_full_run(&json).map_err(|e| format!("{}: {e}", path.display()))?;
    let report: TelemetryReportJson = serde_json::from_str(&json)
        .map_err(|e| format!("schema drift in {}: {e}", path.display()))?;
    gate(&report)?;
    if !report.gap.holds {
        return Err("gap.holds is false in the committed artifact".to_string());
    }
    println!(
        "telemetry.json ok: INT {:.4} ≥ PINT [{:.4}, {:.4}] ≥ sFlow {:.4} (period {}, bits {:?})",
        report.gap.int_recall,
        report.gap.pint_min_recall,
        report.gap.pint_max_recall,
        report.gap.sflow_recall,
        report.sample_period,
        report.pint_bits,
    );
    Ok(())
}

fn run_point<S, L>(
    label: &str,
    backend: TelemetryBackend,
    pint_bits: Option<u8>,
    bits_per_packet: f64,
    bundle: ModelBundle,
    source: S,
    labeled_events: L,
) -> Result<FrontierPoint, String>
where
    S: EventSource + 'static,
    L: Iterator<Item = TrafficClass>,
{
    let mut per_class = vec![0u64; TrafficClass::ALL.len()];
    for class in labeled_events {
        per_class[class as usize] += 1;
    }
    let pipe = ThreadedPipeline::new(bundle).with_shards(2);
    let start = Instant::now();
    let stats = pipe
        .start(source)
        .join()
        .map_err(|e| format!("{label} run failed: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    Ok(FrontierPoint {
        label: label.to_string(),
        backend: backend.name().to_string(),
        pint_bits,
        bits_per_packet,
        events_in: stats.events_in,
        predictions: stats.predictions,
        attack_updates: stats.labeled.attack_updates,
        attack_hits: stats.labeled.attack_hits,
        attack_pending: stats.labeled.attack_pending,
        recall: stats.labeled.recall(),
        false_alarm_rate: stats.labeled.false_alarm_rate(),
        wall_ms: wall * 1e3,
        events_per_s: stats.events_in as f64 / wall.max(1e-9),
        mean_latency_us: stats.mean_latency_us,
        coverage: TrafficClass::ALL
            .into_iter()
            .map(|c| ClassCoverage {
                class: c.name().to_string(),
                events: per_class[c as usize],
            })
            .collect(),
    })
}

pub fn run(fast: bool, seed: u64, period: Option<u32>, check: bool) -> Result<(), String> {
    if check {
        return check_committed();
    }
    let period = period.unwrap_or(if fast { 64 } else { 256 });
    let day_len = if fast { 4 } else { 10 };
    let lab = Testbed::new(TestbedConfig::default());

    // One SlowLoris-bearing mix for training, a fresh one for replay.
    let train_trace = TrafficMix::new(TrafficMixConfig::paper_capture(day_len, seed)).generate();
    let test_trace =
        TrafficMix::new(TrafficMixConfig::paper_capture(day_len, seed ^ 0x5F10)).generate();
    let train_labeled = lab.run_labeled(&train_trace);
    let test_labeled = lab.run_labeled(&test_trace);
    let hops = train_labeled
        .first()
        .map(|(r, _)| r.hops.len())
        .unwrap_or(1);

    banner(&format!(
        "telemetry frontier through the shared pipeline (sFlow 1-in-{period}, PINT {PINT_BITS:?} bits)"
    ));
    println!(
        "capture: {} train / {} test INT reports over {hops} hop(s)",
        train_labeled.len(),
        test_labeled.len()
    );

    // The sweep: every registry backend, PINT at several bit budgets.
    // Each point derives its own training view and its own test view of
    // the same two captures — the paper's deployment reality, not a
    // handicap.
    let mut sweep: Vec<(String, TelemetryBackend, Option<u8>)> = Vec::new();
    for backend in TelemetryBackend::ALL {
        match backend {
            TelemetryBackend::Pint => {
                for bits in PINT_BITS {
                    sweep.push((format!("pint@{bits}"), backend, Some(bits)));
                }
            }
            _ => sweep.push((backend.name().to_string(), backend, None)),
        }
    }

    let mut frontier = Vec::new();
    for (label, backend, bits) in sweep {
        let opts = ViewOptions {
            sample_period: period,
            pint_bits: bits.unwrap_or(8),
            seed,
        };
        let train_view = backend.derive_view(&train_labeled, &opts);
        let test_opts = ViewOptions {
            seed: seed ^ 0x5F10,
            ..opts
        };
        let test_view = backend.derive_view(&test_labeled, &test_opts);
        let bundle = train_bundle(
            &dataset_from_labeled(&train_view, backend.feature_set()),
            backend.feature_set(),
            &streaming_trainer_config(fast),
        );
        let truths: Vec<TrafficClass> = test_view.iter().filter_map(|e| e.truth).collect();
        frontier.push(run_point(
            &label,
            backend,
            bits,
            backend.bits_per_packet(hops, &opts),
            bundle,
            ReplaySource::new(test_view),
            truths.into_iter(),
        )?);
    }

    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>9} {:>9} {:>12}",
        "point", "bits/pkt", "events", "predictions", "recall", "far", "events/s"
    );
    for rec in &frontier {
        println!(
            "{:>8} {:>12.2} {:>10} {:>12} {:>9.4} {:>9.4} {:>12.0}",
            rec.label,
            rec.bits_per_packet,
            rec.events_in,
            rec.predictions,
            rec.recall,
            rec.false_alarm_rate,
            rec.events_per_s
        );
    }
    println!("\ncoverage per class (labeled events offered):");
    for (i, c) in frontier[0].coverage.iter().enumerate() {
        print!("  {:<10}", c.class);
        for rec in &frontier {
            print!(" {}={:>8}", rec.label, rec.coverage[i].events);
        }
        println!();
    }

    let recall_of = |label: &str| {
        frontier
            .iter()
            .find(|p| p.label == label)
            .map(|p| p.recall)
            .unwrap_or(f64::NAN)
    };
    let pint_recalls: Vec<f64> = frontier
        .iter()
        .filter(|p| p.backend == "pint")
        .map(|p| p.recall)
        .collect();
    let mut report = TelemetryReportJson {
        seed,
        fast,
        sample_period: period,
        pint_bits: PINT_BITS.to_vec(),
        hops,
        gap: RecallGap {
            int_recall: recall_of("int"),
            sflow_recall: recall_of("sflow"),
            pint_min_recall: pint_recalls.iter().copied().fold(f64::INFINITY, f64::min),
            pint_max_recall: pint_recalls
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
            holds: false, // stamped below, from the shared gate
        },
        frontier,
    };
    let verdict = gate(&report);
    report.gap.holds = verdict.is_ok();
    match &verdict {
        Ok(()) => println!(
            "\nfrontier holds: INT {:.4} ≥ PINT [{:.4}, {:.4}] ≥ sFlow {:.4} \
             (telemetry budget buys recall back — paper Fig. 5, priced)",
            report.gap.int_recall,
            report.gap.pint_min_recall,
            report.gap.pint_max_recall,
            report.gap.sflow_recall,
        ),
        Err(e) => println!("\nUNEXPECTED: frontier ordering failed on this seed: {e}"),
    }

    write_json("results/telemetry.json", &report, fast);
    verdict
}
