//! Set-up: everything a run needs before the program under test sees a
//! byte. The capture comes from `--seed` alone; the pipeline receives
//! only the encoded wire datagrams and the trained bundle.

use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{dataset_from_events, train_bundle, TrainerConfig};
use amlight_core::EpochHandle;
use amlight_features::{FeatureSet, PrefilterMode};
use amlight_int::{IntCollector, TelemetryReport};
use amlight_ml::{MlpConfig, RandomForestConfig};
use amlight_net::flow::FnvHashMap;
use amlight_net::{FlowKey, TrafficClass};
use amlight_traffic::{
    AttackConfig, AttackKind, BenignConfig, Episode, EpisodeSchedule, SynFloodConfig, TrafficMix,
    TrafficMixConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// Whole reports per wire datagram (the sink's export batch; what
/// `bench_ingest` and the CLI `replay` use). Every workload is fed these
/// same datagram-sized chunks, over a socket or not.
pub const REPORTS_PER_DATAGRAM: usize = 8;

/// Length of one compressed Table I "day", seconds: two days of this
/// length give ≈ 0.85 M events, a closed lap of ≈ 1 s on the 2-core box
/// this was calibrated on, so that a dozen laps fit in a run even when
/// the box has a slow half hour.
const DAY_LEN_S: u64 = 120;
/// The training capture is a much shorter rendition of the same schedule
/// (≈ 20 k rows): training cost is set-up, not the thing measured.
const TRAIN_DAY_LEN_S: u64 = 3;
const SMOKE_DAY_LEN_S: u64 = 30;

/// Spoofed flood: packets per second of capture time, and how long it
/// lasts (the window less a thirtieth at each end). 10 k/s for 48.5 s stays
/// under both flow-table limits (1 M flows, 60 s idle), so every flood
/// packet is an insert and none is an evict; and the ≈ 487 k flows it
/// makes sit 6 % clear of the sizes at which the database's map (458 752)
/// and the flow table's slab (524 288) next double, so no seed lands a
/// 100 ms rehash on one side of the line and the next seed on the other.
const FLOOD_PPS: f64 = 10_000.0;
const FLOOD_WINDOW_S: u64 = 52;
const SMOKE_FLOOD_WINDOW_S: u64 = 12;

/// Which capture a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// The Table I two-day schedule over benign background.
    Day,
    /// One long per-packet-spoofed SYN flood over benign background.
    SpoofFlood,
}

/// How a workload drives the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Closed laps at full speed, then one paced in-process tail.
    InProcess,
    /// Paced UDP datagrams over loopback for the whole run.
    Wire,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the `why` of `BENCHMARK.json`.
    pub why: &'static str,
    pub traffic: Traffic,
    pub prefilter: PrefilterMode,
    pub drive: Drive,
    /// Open-loop offered rate of the paced segment, events per second.
    pub paced_rate: u64,
    /// Whether every lap must produce the same verdicts (no triage shed,
    /// no socket loss): the oracle compares digests only where true.
    pub lossless: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "day",
        why: "Table I two-day capture, prefilter off: every update is predicted, so ml, core::db, the aggregator and the runtime hops work; triage and sockets idle",
        traffic: Traffic::Day,
        prefilter: PrefilterMode::Off,
        drive: Drive::InProcess,
        paced_rate: 200_000,
        lossless: true,
    },
    Workload {
        name: "day_triage",
        why: "the same bytes with the triage prefilter on: features::triage works and the predictor sees about 5x fewer rows, so a predictor gain barely moves it and a triage gain moves only it",
        traffic: Traffic::Day,
        prefilter: PrefilterMode::On,
        drive: Drive::InProcess,
        paced_rate: 200_000,
        lossless: false,
    },
    Workload {
        name: "spoof_flood",
        why: "per-packet spoofed SYN flood over benign background: nearly every event creates a flow, so FlowTable inserts and FlowDatabase::record_created work, the predictor idles, memory is the attacker's",
        traffic: Traffic::SpoofFlood,
        prefilter: PrefilterMode::Off,
        drive: Drive::InProcess,
        paced_rate: 100_000,
        lossless: true,
    },
    Workload {
        name: "day_wire",
        why: "the day as INT-UDP datagrams from one sender at a fixed 200k events/s over loopback into IngestServer: the only workload where ingest, netio and core::mailbox work",
        traffic: Traffic::Day,
        prefilter: PrefilterMode::Off,
        drive: Drive::Wire,
        paced_rate: 200_000,
        lossless: false,
    },
];

/// Dense ids for the capture's flows and the ground truth of each.
pub struct FlowIndex {
    ids: FnvHashMap<FlowKey, u32>,
    attack: Vec<bool>,
}

impl FlowIndex {
    pub fn id(&self, key: &FlowKey) -> Option<u32> {
        self.ids.get(key).copied()
    }

    pub fn is_attack(&self, id: u32) -> bool {
        self.attack[id as usize]
    }

    pub fn len(&self) -> usize {
        self.attack.len()
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub capture_s: f64,
    pub train_s: f64,
    pub encode_s: f64,
}

/// One run's inputs.
pub struct Inputs {
    /// The capture as INT wire bytes, one datagram per element.
    pub wire: Arc<Vec<Vec<u8>>>,
    pub events: usize,
    pub flows: FlowIndex,
    /// Flow id of every event, in wire order.
    pub event_flow: Vec<u32>,
    pub model: EpochHandle,
    /// FNV-1a over the wire bytes and the ground truth.
    pub digest: u64,
    pub timing: SetupTiming,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix_config(traffic: Traffic, seed: u64, smoke: bool) -> TrafficMixConfig {
    match traffic {
        Traffic::Day => {
            TrafficMixConfig::paper_capture(if smoke { SMOKE_DAY_LEN_S } else { DAY_LEN_S }, seed)
        }
        Traffic::SpoofFlood => {
            let window_ns = if smoke {
                SMOKE_FLOOD_WINDOW_S
            } else {
                FLOOD_WINDOW_S
            } * 1_000_000_000;
            TrafficMixConfig {
                benign: BenignConfig::default(),
                attacks: AttackConfig {
                    syn_flood: SynFloodConfig {
                        rate_pps: FLOOD_PPS,
                        spoof_sources: true,
                        socket_pool: None,
                    },
                    ..AttackConfig::default()
                },
                // Background alone for the first and last thirtieth, so
                // benign flows exist before the flood starts.
                schedule: EpisodeSchedule {
                    episodes: vec![Episode {
                        kind: AttackKind::SynFlood,
                        start_ns: window_ns / 30,
                        end_ns: window_ns - window_ns / 30,
                        day: 0,
                    }],
                    window_ns,
                    days: 1,
                },
                seed,
            }
        }
    }
}

/// Generate the capture for `seed`, train the bundle on a different seed
/// derived from it, encode, index. Deterministic in its arguments.
pub fn build(workload: &Workload, seed: u64, smoke: bool) -> Inputs {
    let lab = Testbed::new(TestbedConfig::default());

    let t = Instant::now();
    let labeled =
        lab.run_labeled(&TrafficMix::new(mix_config(workload.traffic, seed, smoke)).generate());
    let capture_s = t.elapsed().as_secs_f64();

    // The deployed artifact is always trained on the Table I mix, whatever
    // the workload replays: a detector is not retrained for each attack.
    let t = Instant::now();
    let train_seed = splitmix(seed ^ 0x0074_7261_696E);
    let train = lab.replay_capture(TRAIN_DAY_LEN_S, train_seed);
    let bundle = train_bundle(
        &dataset_from_events(&train, FeatureSet::full()),
        FeatureSet::full(),
        &TrainerConfig {
            mlp: MlpConfig {
                epochs: 10,
                ..MlpConfig::paper_mlp()
            },
            forest: RandomForestConfig {
                n_trees: 30,
                ..RandomForestConfig::fast()
            },
            ..TrainerConfig::default()
        },
    );
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut ids: FnvHashMap<FlowKey, u32> = FnvHashMap::default();
    let mut attack = Vec::new();
    let mut event_flow = Vec::with_capacity(labeled.len());
    let mut digest = FNV_OFFSET;
    for (report, class) in &labeled {
        let next = attack.len() as u32;
        let id = *ids.entry(report.flow).or_insert(next);
        if id == next {
            attack.push(*class != TrafficClass::Benign);
        }
        event_flow.push(id);
        digest = fnv1a(digest, &[class.label() as u8]);
    }
    let reports: Vec<TelemetryReport> = labeled.into_iter().map(|(r, _)| r).collect();
    let wire: Vec<Vec<u8>> = reports
        .chunks(REPORTS_PER_DATAGRAM)
        .map(|chunk| IntCollector::encode_stream(chunk).to_vec())
        .collect();
    for datagram in &wire {
        digest = fnv1a(digest, datagram);
    }
    let encode_s = t.elapsed().as_secs_f64();

    Inputs {
        wire: Arc::new(wire),
        events: reports.len(),
        flows: FlowIndex { ids, attack },
        event_flow,
        model: EpochHandle::new(bundle),
        digest,
        timing: SetupTiming {
            capture_s,
            train_s,
            encode_s,
        },
    }
}

/// What the capture offers the detector: the denominators of the quality
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Offered {
    pub events: u64,
    /// Events on an attack flow after that flow's first.
    pub attack_updates: u64,
    pub benign_updates: u64,
    pub attack_flows: u64,
    /// Attack flows with at least one update: the ones the updates-only
    /// forwarding rule (§III-3) can ever judge.
    pub attack_flows_updated: u64,
}

pub fn offered(inputs: &Inputs) -> Offered {
    let mut seen = vec![0u32; inputs.flows.len()];
    let mut o = Offered {
        events: inputs.events as u64,
        ..Offered::default()
    };
    for &id in &inputs.event_flow {
        let attack = inputs.flows.is_attack(id);
        match seen[id as usize] {
            0 => o.attack_flows += u64::from(attack),
            n => {
                if attack {
                    o.attack_updates += 1;
                    o.attack_flows_updated += u64::from(n == 1);
                } else {
                    o.benign_updates += 1;
                }
            }
        }
        seen[id as usize] = seen[id as usize].saturating_add(1);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_separates_neighbouring_seeds() {
        assert_ne!(splitmix(1), splitmix(2));
        assert_ne!(splitmix(1), 1);
    }

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        // FNV-1a 64 of "a" is af63dc4c8601ec8c.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
