//! `repro`: one entry point for every experiment — the paper's tables
//! and figures, the ablations and studies, the gated benches and the
//! detection microbenchmark.
//!
//! Usage: `repro <target>... [--fast] [--seed N] [--check] [--period N] [--rust-pace]`
//!
//! An unknown target or flag is a usage error that prints the target
//! list (exit 2); a failed gate exits 1.

mod ablations;
mod args;
mod baselines;
mod detection;
mod drift;
mod overhead;
mod paper;
mod prefilter;
mod telemetry;
mod variance;

use amlight_bench::capture::{ExperimentCapture, ExperimentConfig};
use amlight_bench::tables::{table6_automated, Table6Row};
use amlight_core::pipeline::{PipelineConfig, PipelineReport};
use args::{Args, Target};

/// Counting allocator for the prefilter and drift zero-allocation gates.
#[global_allocator]
static ALLOC: stats_alloc::StatsAlloc = stats_alloc::StatsAlloc;

/// Default seed of the ablations and the overhead study, which build
/// their own workloads rather than reading the paper capture.
const STUDY_SEED: u64 = 0xA317;

/// What the targets of one invocation share: the flags, and the
/// workloads more than one target reads, each built the first time a
/// target asks for it.
pub struct Ctx {
    pub args: Args,
    capture: Option<ExperimentCapture>,
    table6: Option<(Vec<Table6Row>, Vec<PipelineReport>)>,
}

impl Ctx {
    /// The paper capture's configuration: smoke-sized under `--fast`,
    /// and `--seed` in place of its default seed.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = if self.args.fast {
            ExperimentConfig::smoke()
        } else {
            ExperimentConfig::default()
        };
        cfg.seed = self.args.seed.unwrap_or(cfg.seed);
        cfg
    }

    /// The two-day capture Tables III–V, Figs. 3–5 and the variance and
    /// baselines studies evaluate.
    pub fn capture(&mut self) -> &ExperimentCapture {
        let cfg = self.config();
        self.capture.get_or_insert_with(|| {
            eprintln!(
                "\ngenerating capture (day_len={}s, seed={})...",
                cfg.day_len_s, cfg.seed
            );
            let cap = ExperimentCapture::generate(cfg);
            eprintln!(
                "capture: {} packets, {} flows → {} INT reports, {} sFlow samples",
                cap.trace_packets,
                cap.trace_flows,
                cap.int.len(),
                cap.sflow.len()
            );
            cap
        })
    }

    /// Table VI's rows and the per-class pipeline runs behind them, in
    /// `TrafficClass::ALL` order (Fig. 7 plots two of the runs).
    pub fn table6(&mut self) -> &(Vec<Table6Row>, Vec<PipelineReport>) {
        let (fast, seed) = (self.args.fast, self.config().seed);
        let pace = if self.args.rust_pace {
            PipelineConfig::rust_pace()
        } else {
            PipelineConfig::paper_pace()
        };
        self.table6.get_or_insert_with(|| {
            table6_automated(if fast { 300 } else { 2500 }, pace, fast, seed)
        })
    }

    fn seed_or(&self, default: u64) -> u64 {
        self.args.seed.unwrap_or(default)
    }

    /// Run one target; `Err` when one of its gates failed.
    fn run(&mut self, target: Target) -> Result<(), String> {
        let (fast, check) = (self.args.fast, self.args.check);
        match target {
            Target::Telemetry => {
                return telemetry::run(fast, self.seed_or(20824), self.args.period, check)
            }
            Target::Prefilter => return prefilter::run(fast, self.seed_or(20825), check),
            Target::Drift => return drift::run(fast, self.seed_or(20826), check),
            Target::Table1 => paper::table1(self),
            Target::Table2 => paper::table2(self),
            Target::Table3 => paper::table3(self),
            Target::Table4 => paper::table4(self),
            Target::Table5 => paper::table5(self),
            Target::Table6 => paper::table6(self),
            Target::Fig3_4 => paper::fig3_4(self),
            Target::Fig5 => paper::fig5(self),
            Target::Fig7 => paper::fig7(self),
            Target::Ablations => ablations::run(fast, self.seed_or(STUDY_SEED)),
            Target::Overhead => overhead::run(fast, self.seed_or(STUDY_SEED)),
            Target::Variance => variance::run(self),
            Target::Baselines => baselines::run(self),
            Target::Detection => detection::run(),
        }
        Ok(())
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repro: {e}\n\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    let targets = args.targets.clone();
    let mut ctx = Ctx {
        args,
        capture: None,
        table6: None,
    };
    for target in targets {
        if let Err(e) = ctx.run(target) {
            eprintln!("repro {}: FAILED: {e}", target.name());
            std::process::exit(1);
        }
    }
}
