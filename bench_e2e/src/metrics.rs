//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` is rendered from
//! these tables (`--benchmark-json`) and a test holds the committed file
//! to them.

use crate::setup::WORKLOADS;

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 24;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("events_per_s", "1/s", true, 0.25),
    e2e("cpu_s_per_mev", "s/Mev", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.12),
    e2e("delivered_share", "ratio", true, 0.02),
    e2e("update_recall", "ratio", true, 0.02),
    e2e("flow_recall", "ratio", true, 0.05),
    e2e("benign_pass_share", "ratio", true, 0.005),
];

/// (name, unit, higher is better) of every per-layer metric, grouped by
/// the module it measures.
pub const PER_LAYER: [(&str, &str, bool); 77] = [
    // int
    ("int.decode_ns_per_event", "ns", false),
    ("int.decode_allocs_per_event", "count", false),
    // ingest, core::mailbox (day_wire only)
    ("ingest.datagrams", "count", true),
    ("ingest.events_decoded", "count", true),
    ("ingest.decode_errors", "count", false),
    ("ingest.kernel_lost_events", "count", false),
    ("ingest.mailbox_dropped_events", "count", false),
    ("ingest.events_per_batch", "count", true),
    ("mailbox.pending_batches_p50", "count", false),
    ("mailbox.pending_batches_max", "count", false),
    // core::event
    ("event.lower_ns_per_event", "ns", false),
    // features::table
    ("table.apply_ns_per_event", "ns", false),
    ("table.features_ns_per_event", "ns", false),
    ("table.created", "count", false),
    ("table.updated", "count", false),
    ("table.evicted", "count", false),
    ("table.live_flows_end", "count", false),
    // features::triage
    ("triage.assess_ns_per_event", "ns", false),
    ("triage.forwarded", "count", false),
    ("triage.deferred", "count", false),
    ("triage.dropped", "count", true),
    ("triage.shed", "count", false),
    ("triage.cut_ratio", "ratio", true),
    // features::vector
    ("vector.project_ns_per_row", "ns", false),
    // core::db
    ("db.record_created_ns", "ns", false),
    ("db.record_updated_ns", "ns", false),
    ("db.store_prediction_ns", "ns", false),
    ("db.flows_end", "count", false),
    ("db.log_len_end", "count", false),
    ("db.predictions_end", "count", false),
    // core::modules
    ("processor.ingest_ns_per_event", "ns", false),
    ("aggregator.aggregate_ns_per_row", "ns", false),
    // ml, through Predictor
    ("predictor.predict_ns_per_row", "ns", false),
    ("predictor.rows", "count", false),
    ("ml.scaler_ns_per_row", "ns", false),
    ("ml.mlp_ns_per_row", "ns", false),
    ("ml.forest_ns_per_row", "ns", false),
    ("ml.gnb_ns_per_row", "ns", false),
    // the single-thread baseline
    ("inline.ns_per_event", "ns", false),
    ("inline.eps", "1/s", true),
    // core::runtime
    ("runtime.overhead_ns_per_event", "ns", false),
    ("runtime.busy.collection", "ratio", false),
    ("runtime.busy.processor", "ratio", false),
    ("runtime.busy.prediction", "ratio", false),
    ("runtime.busy.aggregator", "ratio", false),
    ("runtime.ctx_switches_per_kev", "count", false),
    ("runtime.sys_cpu_share", "ratio", false),
    ("runtime.laps", "count", true),
    ("runtime.lap_eps_q1", "1/s", true),
    ("runtime.lap_eps_q3", "1/s", true),
    ("runtime.backlog_latency_p50_ms", "ms", false),
    ("runtime.backlog_latency_p99_ms", "ms", false),
    // the paper's prediction latency, paced segment only: moved here from
    // the end-to-end list because single runs do not stay within a tenth
    // of their median (README.md, "Rule for bounds")
    ("verdict_latency_p50_ms", "ms", false),
    ("verdict_latency_p99_ms", "ms", false),
    // the harness itself
    ("quality.attack_updates", "count", true),
    ("quality.attack_flows", "count", true),
    ("quality.attack_flows_updated", "count", true),
    ("quality.benign_updates", "count", true),
    ("quality.scored_updates", "count", true),
    ("quality.flow_recall_all", "ratio", true),
    ("latency.samples", "count", true),
    ("gen.lag_p99_ms", "ms", false),
    ("gen.lag_max_ms", "ms", false),
    ("gen.late_share", "ratio", false),
    ("gen.catch_up_share", "ratio", false),
    ("setup.capture_s", "s", false),
    ("setup.train_s", "s", false),
    ("setup.encode_s", "s", false),
    ("trace.overhead_share", "ratio", false),
    ("trace.spans", "count", false),
    ("trace.waterfall_gap_share", "ratio", false),
    // the machine, and the timings before they were put in reference time
    ("host.cpus", "count", true),
    ("host.speed", "ratio", true),
    ("host.steal_share", "ratio", false),
    ("raw.events_per_s", "1/s", true),
    ("raw.cpu_s_per_mev", "s/Mev", false),
    ("raw.setup_s", "s", false),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"bench_e2e/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"bench_e2e\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why = w.why;
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{why}\"}}{comma}\n",
            w.name
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            if m.higher_is_better { "higher" } else { "lower" },
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, higher)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            if *higher { "higher" } else { "lower" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --benchmark-json"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for name in &names {
            assert!(ok(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
