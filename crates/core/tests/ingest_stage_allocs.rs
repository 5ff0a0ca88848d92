//! The pooled ingest stage — INT byte-stream decode → flow-table update →
//! feature projection — performs zero heap acquisitions in steady state.
//!
//! One `#[test]` per binary: [`stats_alloc`] counts process-wide, so a
//! sibling test running on another thread would be counted too.

use amlight_core::event::Telemetry;
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_features::{FeatureSet, FlowTable, FlowTableConfig};
use amlight_int::{IntCollector, TelemetryReport};
use amlight_net::TrafficClass;
use amlight_traffic::ReplayLibrary;

#[global_allocator]
static ALLOC: stats_alloc::StatsAlloc = stats_alloc::StatsAlloc;

#[test]
fn pooled_ingest_stage_allocates_nothing_in_steady_state() {
    let lab = Testbed::new(TestbedConfig::default());
    let replay = ReplayLibrary::build(300, 616);
    let mut reports: Vec<TelemetryReport> = Vec::new();
    for class in TrafficClass::ALL {
        reports.extend(lab.replay_class(&replay, class).into_iter().map(|(r, _)| r));
    }
    reports.sort_by_key(|r| r.export_ns);
    let stream = IntCollector::encode_stream(&reports);

    let set = FeatureSet::full();
    let mut table = FlowTable::new(FlowTableConfig::default());
    let mut collector = IntCollector::new();
    let mut scratch = Vec::new();
    let mut row = Vec::new();
    let mut pass = || {
        let mut events = 0usize;
        // 4 KiB per call: the shape of a socket read.
        for chunk in stream.chunks(4096) {
            scratch.clear();
            collector.ingest_into(chunk, &mut scratch);
            for r in &scratch {
                let (_, rec) = table.apply(&r.flow_update());
                row.clear();
                rec.features().project_into(set, &mut row);
                std::hint::black_box(&row);
                events += 1;
            }
        }
        events
    };

    // Two warm-up passes: the first creates every flow and grows all
    // scratch to its high-water mark; the second settles the collector's
    // reassembly buffer (a pass that starts from the residual read offset
    // peaks slightly higher than one that starts from an empty buffer).
    pass();
    pass();
    let region = stats_alloc::Region::new();
    let events = pass();
    let acquisitions = region.change().acquisitions();

    assert_eq!(events, reports.len());
    assert_eq!(
        acquisitions, 0,
        "pooled ingest path allocated in steady state over {events} events"
    );
}
