//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Sampling-rate sweep** — how the sFlow period drives the
//!    probability of missing low-rate attack episodes entirely (the
//!    mechanism behind the paper's Fig. 5 SlowLoris blind spot).
//! 2. **Ensemble vs single models** — §IV-C.4's 2-of-3 vote on the
//!    zero-day attack.
//! 3. **Smoothing-window sweep** — the 3-prediction wait vs raw verdicts.
//! 4. **Flood flow structure** — spoofed-per-packet floods vs a fixed
//!    socket pool: why single-packet flows are invisible to a per-update
//!    prediction pipeline.
//! 5. **Congested testbed** — a 20 Mb/s bottleneck makes queue occupancy
//!    informative, recovering the paper's Table V importance ranking
//!    that a clean 100 Gb/s testbed cannot show (its §V admits this).
//!
//! Usage: `repro ablations [--fast] [--seed N]`

use amlight_bench::capture::{ExperimentCapture, ExperimentConfig};
use amlight_bench::tables::table5_importance;
use amlight_bench::util::{banner, write_json};
use amlight_core::pipeline::{DetectionPipeline, PipelineConfig};
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{dataset_from_events, train_bundle, TrainerConfig};
use amlight_features::FeatureSet;
use amlight_ml::model::BinaryClassifier;
use amlight_ml::{GbtConfig, GradientBoost, MlpConfig, StandardScaler};
use amlight_net::TrafficClass;
use amlight_sflow::{SamplingMode, SflowAgent};
use amlight_traffic::attacks::SynFloodConfig;
use amlight_traffic::{AttackConfig, AttackKind, ReplayLibrary};
use serde_json::json;

pub fn run(fast: bool, seed: u64) {
    sampling_sweep(fast, seed);
    let (bundle, test_lib, lab) = trained(fast, seed);
    ensemble_ablation(&bundle, &test_lib, &lab, fast);
    smoothing_sweep(&bundle, &test_lib, &lab, fast);
    flood_structure(&bundle, &lab, fast, seed);
    congested_importance(fast, seed);
}

/// Ablation 1: probability that an attack episode leaves zero samples,
/// per sampling period.
fn sampling_sweep(fast: bool, seed: u64) {
    banner("Ablation 1 — sFlow sampling period vs episode visibility");
    let trials: u64 = if fast { 5 } else { 20 };
    let attacks = AttackConfig::default();
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>14} {:>22}",
        "period", "slowloris pkts", "episodes fully missed"
    );
    for period in [64u32, 256, 1024, 4096, 16384] {
        let mut missed = 0u64;
        let mut sampled_total = 0u64;
        for t in 0..trials {
            // A 60 s SlowLoris episode, sampled 1-in-period.
            let episode =
                attacks.generate(AttackKind::SlowLoris, 0, 60_000_000_000, seed ^ (t * 7919));
            let mut agent = SflowAgent::new(SamplingMode::RandomSkip { period }, seed ^ t);
            let samples = episode
                .iter()
                .filter(|r| agent.observe(r.ts_ns, &r.packet).is_some())
                .count() as u64;
            sampled_total += samples;
            if samples == 0 {
                missed += 1;
            }
        }
        println!(
            "1/{:<8} {:>14.1} {:>18}/{}",
            period,
            sampled_total as f64 / trials as f64,
            missed,
            trials
        );
        rows.push(json!({
            "period": period,
            "mean_samples": sampled_total as f64 / trials as f64,
            "missed_episodes": missed,
            "trials": trials,
        }));
    }
    println!("(at the production 1/4096 rate, a 60 s SlowLoris episode is usually invisible)");
    write_json("results/ablation_sampling.json", &rows, fast);
}

type Trained = (amlight_core::trainer::ModelBundle, ReplayLibrary, Testbed);

fn trained(fast: bool, seed: u64) -> Trained {
    let lab = Testbed::new(TestbedConfig::default());
    let n = if fast { 400 } else { 2500 };
    let train_lib = ReplayLibrary::build(n * 2, seed ^ 0x77);
    let mut training = Vec::new();
    for class in TrafficClass::ALL {
        if class != TrafficClass::SlowLoris {
            training.extend(lab.replay_class(&train_lib, class));
        }
    }
    let raw = dataset_from_events(&training, FeatureSet::full());
    let bundle = train_bundle(
        &raw,
        FeatureSet::full(),
        &TrainerConfig {
            mlp: MlpConfig {
                epochs: if fast { 6 } else { 20 },
                batch_size: 256,
                ..MlpConfig::paper_mlp()
            },
            ..Default::default()
        },
    );
    (bundle, ReplayLibrary::build(n, seed ^ 0x6), lab)
}

/// Ablation 2: 2-of-3 ensemble vs each member on zero-day SlowLoris.
///
/// Also resolves the paper's GB/GNB ambiguity (§IV-C.3 says Gaussian
/// Naive Bayes; the Table VI note says "GB") by training a gradient-
/// boosted model and comparing both ensemble compositions.
fn ensemble_ablation(
    bundle: &amlight_core::trainer::ModelBundle,
    test_lib: &ReplayLibrary,
    lab: &Testbed,
    fast: bool,
) {
    banner("Ablation 2 — ensemble vote vs single models (zero-day SlowLoris)");
    let labeled = lab.replay_class(test_lib, TrafficClass::SlowLoris);
    let raw = dataset_from_events(&labeled, FeatureSet::full());
    let mut scaled = raw.clone();
    bundle.scaler.transform(&mut scaled);

    // The GB candidate, trained on the same (scaled) data the bundle saw.
    // Refit the scaler path: bundle models were trained on scaled rows.
    let train_lib = ReplayLibrary::build(raw.len().max(800) * 2, 0xA317 ^ 0x77);
    let mut train_labeled = Vec::new();
    for class in TrafficClass::ALL {
        if class != TrafficClass::SlowLoris {
            train_labeled.extend(lab.replay_class(&train_lib, class));
        }
    }
    let train_raw = dataset_from_events(&train_labeled, FeatureSet::full());
    let mut train_scaled = train_raw.clone();
    let scaler = StandardScaler::fit(&train_raw);
    scaler.transform(&mut train_scaled);
    let gb = GradientBoost::fit(&train_scaled, &GbtConfig::default(), 0xA317);
    let mut scaled_for_gb = raw.clone();
    scaler.transform(&mut scaled_for_gb);

    let mut results = Vec::new();
    for (name, acc) in [
        ("MLP", bundle.mlp.evaluate(&scaled).accuracy()),
        ("RF", bundle.forest.evaluate(&scaled).accuracy()),
        ("GNB", bundle.gnb.evaluate(&scaled).accuracy()),
        ("GB", gb.evaluate(&scaled_for_gb).accuracy()),
    ] {
        println!("  {:<10} accuracy {:.4}", name, acc);
        results.push(json!({ "model": name, "accuracy": acc }));
    }
    let vote3 = |a: bool, b: bool, c: bool| (u8::from(a) + u8::from(b) + u8::from(c)) >= 2;
    let mut gnb_ens_ok = 0usize;
    let mut gb_ens_ok = 0usize;
    for i in 0..raw.len() {
        let votes = bundle.votes(raw.row(i));
        if vote3(votes[0], votes[1], votes[2]) {
            gnb_ens_ok += 1;
        }
        if vote3(votes[0], votes[1], gb.predict_one(scaled_for_gb.row(i))) {
            gb_ens_ok += 1;
        }
    }
    let gnb_ens = gnb_ens_ok as f64 / raw.len() as f64;
    let gb_ens = gb_ens_ok as f64 / raw.len() as f64;
    println!(
        "  {:<10} accuracy {:.4}  (MLP+RF+GNB, 2-of-3)",
        "Ens/GNB", gnb_ens
    );
    println!(
        "  {:<10} accuracy {:.4}  (MLP+RF+GB,  2-of-3)",
        "Ens/GB", gb_ens
    );
    println!("  (either reading of the paper's \"GB\" yields a working ensemble)");
    results.push(json!({ "model": "Ensemble(MLP,RF,GNB)", "accuracy": gnb_ens }));
    results.push(json!({ "model": "Ensemble(MLP,RF,GB)", "accuracy": gb_ens }));
    write_json("results/ablation_ensemble.json", &results, fast);
}

/// Ablation 3: smoothing window sweep on SlowLoris and benign replays.
fn smoothing_sweep(
    bundle: &amlight_core::trainer::ModelBundle,
    test_lib: &ReplayLibrary,
    lab: &Testbed,
    fast: bool,
) {
    banner("Ablation 3 — smoothing window (paper uses 3)");
    println!(
        "{:<8} {:>18} {:>18} {:>14}",
        "window", "slowloris acc", "benign acc", "pending frac"
    );
    let mut rows = Vec::new();
    for window in [1usize, 3, 5, 7] {
        let cfg = PipelineConfig {
            smoothing_window: window,
            ..PipelineConfig::rust_pace()
        };
        let mut accs = Vec::new();
        let mut pend_frac = 0.0;
        for class in [TrafficClass::SlowLoris, TrafficClass::Benign] {
            let labeled = lab.replay_class(test_lib, class);
            let mut pipe = DetectionPipeline::new(bundle.clone(), cfg);
            let report = pipe.run_sync(&labeled);
            let s = report.class_summary(class);
            accs.push(s.accuracy());
            pend_frac = s.pending as f64 / (s.pending + s.predicted).max(1) as f64;
        }
        println!(
            "{:<8} {:>18.4} {:>18.4} {:>14.3}",
            window, accs[0], accs[1], pend_frac
        );
        rows.push(json!({
            "window": window,
            "slowloris_accuracy": accs[0],
            "benign_accuracy": accs[1],
        }));
    }
    write_json("results/ablation_smoothing.json", &rows, fast);
}

/// Ablation 4: spoofed flood vs socket-pool flood through the pipeline.
fn flood_structure(
    bundle: &amlight_core::trainer::ModelBundle,
    lab: &Testbed,
    fast: bool,
    seed: u64,
) {
    banner(
        "Ablation 4 — flood flow structure (per-update pipelines cannot see single-packet flows)",
    );
    let n: u64 = if fast { 2_000 } else { 10_000 };
    let mut rows = Vec::new();
    for (name, pool) in [
        ("socket-pool-16", Some(16usize)),
        ("spoofed-per-packet", None),
    ] {
        let attacks = AttackConfig {
            syn_flood: SynFloodConfig {
                rate_pps: 5_000.0,
                spoof_sources: pool.is_none(),
                socket_pool: pool,
            },
            ..Default::default()
        };
        let trace = attacks.generate(AttackKind::SynFlood, 0, n * 200_000, seed ^ 0x4);
        let labeled = lab.run_labeled(&trace);
        let mut pipe = DetectionPipeline::new(bundle.clone(), PipelineConfig::rust_pace());
        let report = pipe.run_sync(&labeled);
        let s = report.class_summary(TrafficClass::SynFlood);
        println!(
            "  {:<20} {:>7} packets → {:>6} ML predictions (accuracy {:.4}), {:>3} guard alerts",
            name,
            labeled.len(),
            s.predicted + s.pending,
            s.accuracy(),
            report.flood_alerts.len(),
        );
        rows.push(json!({
            "flood": name,
            "packets": labeled.len(),
            "predictions": s.predicted + s.pending,
            "final_accuracy": s.accuracy(),
            "guard_alerts": report.flood_alerts.len(),
        }));
    }
    println!("  (a fully spoofed flood is every-packet-a-new-flow: the ML path sees zero updates,");
    println!("   but the new-flow-rate guard raises alerts on exactly that signature)");
    write_json("results/ablation_flood_structure.json", &rows, fast);
}

/// Ablation 5: congested bottleneck — queue occupancy becomes a top
/// feature, as in the paper's Table V.
fn congested_importance(fast: bool, seed: u64) {
    banner("Ablation 5 — queue occupancy importance, clean vs congested testbed");
    for (name, mut cfg) in [
        ("clean 100 Gb/s", ExperimentConfig::default()),
        ("congested 20 Mb/s", ExperimentConfig::congested()),
    ] {
        if fast {
            cfg.day_len_s = 4;
        }
        cfg.seed = seed;
        let cap = ExperimentCapture::generate(cfg);
        let rows = table5_importance(&cap, fast);
        let rf = &rows[0];
        let queue_rank = rf
            .top
            .iter()
            .position(|(n, _)| n.contains("Queue"))
            .map(|p| format!("#{}", p + 1))
            .unwrap_or_else(|| "not in top-5".into());
        println!(
            "  {:<20} RF top-5: {:?}",
            name,
            rf.top.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        println!("  {:<20} queue-occupancy rank: {}", "", queue_rank);
        write_json(
            &format!(
                "results/ablation_congestion_{}.json",
                if name.starts_with("clean") {
                    "clean"
                } else {
                    "congested"
                }
            ),
            &rows,
            fast,
        );
    }
    println!("  (the paper's §V admits its 100 Gb/s testbed rarely moved queue occupancy;");
    println!("   under a real bottleneck the feature earns its Table V ranking)");
}
