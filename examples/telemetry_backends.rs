//! Every registered telemetry backend, head to head — the paper's
//! central INT-vs-sFlow comparison (Fig. 5), generalized to one code
//! path over [`TelemetryBackend::ALL`].
//!
//! Generates one two-day capture, then for each backend in the
//! registry: derives that backend's view of the identical packet
//! stream (`derive_view`), trains a bundle on its own view of a
//! *different* day, and replays the shared capture through the shared
//! streaming runtime. Labels ride the channels, so every run reports
//! recall straight from the aggregation stage. Look at the SlowLoris
//! row: sFlow usually has a handful of samples (or none) where INT has
//! thousands of reports — and its recall collapses with them — while
//! PINT keeps per-packet coverage at a few bits per packet.
//!
//! Adding a backend to the registry adds a row here; nothing in this
//! file names a concrete backend.
//!
//! ```sh
//! cargo run --release --example telemetry_backends
//! ```

use amlight::core::runtime::ThreadedPipeline;
use amlight::core::trainer::dataset_from_labeled;
use amlight::net::TrafficClass;
use amlight::prelude::*;
use amlight::traffic::{TrafficMix, TrafficMixConfig};

fn main() {
    // One capture, N observers.
    let opts = ViewOptions {
        sample_period: 64,
        pint_bits: 8,
        seed: 99,
    };
    let mix = TrafficMix::new(TrafficMixConfig::paper_capture(10, 7));
    let trace = mix.generate();
    let stats = trace.stats();
    println!(
        "capture: {} packets, {} flows over {:.1} s",
        stats.packets,
        stats.flows,
        stats.duration_ns as f64 / 1e9
    );

    let lab = Testbed::new(TestbedConfig::default());
    let labeled = lab.run_labeled(&trace);
    let views: Vec<_> = TelemetryBackend::ALL
        .iter()
        .map(|b| (b, b.derive_view(&labeled, &opts)))
        .collect();

    println!(
        "\ncoverage per class (events per backend; sFlow samples 1-in-{}, PINT digests {} bits):",
        opts.sample_period, opts.pint_bits
    );
    print!("  {:<10}", "class");
    for (b, _) in &views {
        print!(" {:>9}", b.name());
    }
    println!();
    for class in TrafficClass::ALL {
        print!("  {:<10}", class.name());
        for (_, view) in &views {
            let n = view.iter().filter(|e| e.truth == Some(class)).count();
            print!(" {n:>9}");
        }
        println!();
    }

    // Train each backend on its own view of a *different* day...
    let train_trace = TrafficMix::new(TrafficMixConfig::paper_capture(10, 7 ^ 0xBEEF)).generate();
    let train_labeled = lab.run_labeled(&train_trace);

    // ...then replay the shared capture through the shared pipeline.
    for (backend, view) in views {
        let train_view = backend.derive_view(&train_labeled, &opts);
        let bundle = train_bundle(
            &dataset_from_labeled(&train_view, backend.feature_set()),
            backend.feature_set(),
            &TrainerConfig::default(),
        );
        let pipe = ThreadedPipeline::new(bundle).with_shards(2);
        let handle = pipe.start(ReplaySource::new(view));
        let stats = match handle.join() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{} replay aborted: {e}", backend.name());
                continue;
            }
        };
        println!(
            "\n{} through the shared pipeline ({:.0} bits/packet at 3 hops): \
             {} events → {} predictions",
            backend.name(),
            backend.bits_per_packet(3, &opts),
            stats.events_in,
            stats.predictions
        );
        println!(
            "  recall {:.4} ({} of {} attack updates; {} still pending)  false-alarm rate {:.4}",
            stats.labeled.recall(),
            stats.labeled.attack_hits,
            stats.labeled.attack_updates,
            stats.labeled.attack_pending,
            stats.labeled.false_alarm_rate(),
        );
    }

    println!(
        "\nEvery detector scores well on what it sees — but sFlow only sees\n\
         1-in-N packets, so short or low-rate episodes can vanish entirely\n\
         (the paper's Fig. 5 shows exactly this for SlowLoris), while PINT\n\
         buys per-packet coverage back for a few bits per packet."
    );
}
