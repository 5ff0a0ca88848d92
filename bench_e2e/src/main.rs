//! `bench_e2e`: wire bytes → INT decode → flow table → triage → database
//! → ensemble → aggregator → stored verdict, through the real
//! `ThreadedPipeline` (and, on `day_wire`, the real `IngestServer` over
//! loopback UDP). See README.md for what is measured and why.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file.tsv>] [--smoke]
//! bench_e2e --aa [--workload <name>[,<name>…]] [--seed <n>] [--seconds <s>]
//! bench_e2e --benchmark-json
//! ```

mod calib;
mod inline;
mod lap;
mod metrics;
mod pacing;
mod procfs;
mod run;
mod score;
mod setup;
mod stats;
mod trace;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{Options, Report};
use setup::{Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Counts allocations for the traced pass's spans. It is registered in
/// every run, traced or not, so both kinds of run execute the same
/// program.
#[global_allocator]
static ALLOC: stats_alloc::StatsAlloc = stats_alloc::StatsAlloc;

/// `--smoke` measures for at most this long.
const SMOKE_SECONDS: f64 = 4.0;

/// glibc's switch from heap to `mmap` for large blocks, pinned at its
/// start value. Left alone it climbs to 32 MiB as blocks are freed, the
/// big buffers of one lap then stay in the heap after it, and the next lap
/// runs on memory it never had to ask the kernel for: laps stop being
/// independent, and resident set size moves in 50 MiB steps from run to
/// run (README.md, "Memory").
const MALLOC_PIN: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

/// The allocator reads its settings when the process starts, so the
/// benchmark runs in a child that is started with them. `None` when this
/// process already is that child (or the setting is the caller's own).
fn rerun_with_pinned_allocator() -> Option<ExitCode> {
    if std::env::var_os(MALLOC_PIN.0).is_some() {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(MALLOC_PIN.0, MALLOC_PIN.1)
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(2, |c| c as u8)))
}

struct Args {
    workloads: Vec<&'static Workload>,
    options: Options,
    aa: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut names: Option<String> = None;
    let mut options = Options {
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut aa = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => names = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                options.seed = v.parse().map_err(|_| format!("--seed {v}: not a number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                options.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0)
                    .ok_or(format!("--seconds {v}: not a number of at least 1"))?;
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                };
            }
            "--trace-out" => options.trace_out = Some(value("a file name")?),
            "--smoke" => options.smoke = true,
            "--aa" => aa = true,
            "--benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if options.smoke {
        options.seconds = options.seconds.min(SMOKE_SECONDS);
    }
    let workloads = match names.as_deref() {
        None if aa => WORKLOADS.iter().collect(),
        None => return Err("--workload is required".to_string()),
        Some(list) => list
            .split(',')
            .map(|name| {
                WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload {name}"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    if !aa && workloads.len() != 1 {
        return Err("one workload per run (several only with --aa)".to_string());
    }
    Ok(Some(Args {
        workloads,
        options,
        aa,
    }))
}

fn print_metrics(title: &str, values: &BTreeMap<&'static str, f64>, units: &[(&str, &str)]) {
    if values.is_empty() {
        return;
    }
    println!("{title}");
    for (name, unit) in units {
        if let Some(v) = values.get(name) {
            println!("  {name:<34} {v:>16.6} {unit}");
        }
    }
}

/// (name, unit) of the end-to-end metrics, or of the per-layer ones.
fn units(per_layer: bool) -> Vec<(&'static str, &'static str)> {
    if per_layer {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn json_line(report: &Report, traced: bool) -> String {
    let values = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics: Vec<String> = units(traced)
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn report_run(report: &Report) {
    print_metrics("per-layer metrics:", &report.per_layer, &units(true));
    print_metrics("end-to-end metrics:", &report.end_to_end, &units(false));
    println!(
        "attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
}

/// Two runs of each selected workload back to back with identical
/// settings; per metric both values, the gap and the bound.
fn run_aa(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut table = Vec::new();
    for workload in &args.workloads {
        let a = run::run(workload, &args.options)?;
        let b = run::run(workload, &args.options)?;
        all_ok &= a.correct && b.correct;
        for m in &END_TO_END {
            let (va, vb) = (a.end_to_end[m.name], b.end_to_end[m.name]);
            // Worsening of the second run against the first, as the
            // driver reckons it: relative to the first.
            let worse = if m.higher_is_better { va - vb } else { vb - va } / va.abs().max(1e-12);
            let gap = stats::relative_gap(va, vb);
            let over = if gap > m.bound { "OVER" } else { "" };
            all_ok &= gap <= m.bound;
            table.push(format!(
                "{:<12} {:<24} {:>14.6} {:>14.6} {:>8.4} {:>+8.4} {:>6.3} {over}",
                workload.name, m.name, va, vb, gap, worse, m.bound
            ));
        }
    }
    println!(
        "\nA/A: {:<7} {:<24} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "run 1", "run 2", "gap", "worse", "bound"
    );
    for row in table {
        println!("{row}");
    }
    println!("\"claim\": null");
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = rerun_with_pinned_allocator() {
        return code;
    }
    if args.aa {
        return match run_aa(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run::run(args.workloads[0], &args.options) {
        Ok(report) => {
            report_run(&report);
            if args.options.smoke {
                println!("SMOKE, not results");
            }
            println!("\"claim\": null");
            println!("{}", json_line(&report, args.options.trace));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
