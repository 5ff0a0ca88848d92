//! One run of one workload: set-up, the inline oracle, warm-up and
//! measured laps, the paced segment, the checks, and the metrics that come
//! out of them.
//!
//! Every timed interval is bracketed by two calibrations (`calib`), and
//! every time is reported in reference seconds: wall seconds times the
//! machine's speed over that interval. The raw values are per-layer
//! metrics (`raw.*`, `host.speed`).

use crate::calib::{self, Calibrator};
use crate::inline::{self, PlainPass, TracedPass};
use crate::lap::{self, Lap, STAGES};
use crate::pacing::LagLog;
use crate::procfs;
use crate::score::{quality, Quality};
use crate::setup::{self, Drive, Inputs, Offered, Workload};
use crate::stats::{lap_median, median, quartiles, tail_percentile};
use crate::trace::{self, waterfall};
use amlight_features::PrefilterMode;
use std::collections::BTreeMap;
use std::time::Instant;

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Share of the run given to the paced tail of an in-process workload.
const PACED_SHARE: f64 = 0.2;
/// A wire workload warms up on this many seconds of traffic.
const WIRE_WARMUP_S: f64 = 1.0;
/// A paced segment whose generator woke late more often than this has no
/// latency worth reading: the numbers are printed with a warning.
const MAX_LATE_SHARE: f64 = 0.01;
/// A lap during which the hypervisor gave away more than this share of
/// the machine's CPU measures the neighbours, not the program: it is
/// printed and run again, not counted. A quiet host shows 0.0005-0.002;
/// laps that lost 0.02-0.08 were no slower than their clean neighbours
/// here, laps that lost 0.13 and 0.5 were, so the line is drawn at a tenth.
const MAX_STEAL_SHARE: f64 = 0.10;
/// How long a run may go on beyond `--seconds` running such laps again.
const MAX_EXTRA_S: f64 = 30.0;
/// Largest share by which the waterfall may miss the traced pass's wall.
const MAX_WATERFALL_GAP: f64 = 0.05;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub smoke: bool,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Empty unless the run was traced.
    pub per_layer: BTreeMap<&'static str, f64>,
}

/// Collects failed checks; a run is correct when there are none.
#[derive(Default)]
struct Checks {
    breaches: usize,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            println!("CHECK FAILED: {}", what());
            self.breaches += 1;
        }
    }
}

/// The calibrator plus its latest reading: consecutive intervals share
/// the calibration between them.
struct Pace {
    calibrator: Calibrator,
    last_s: f64,
}

impl Pace {
    fn new() -> Self {
        let mut calibrator = Calibrator::new();
        // The first reading pays for faulting the table in; discard it.
        calibrator.run();
        let last_s = calibrator.run();
        Self { calibrator, last_s }
    }

    /// Run `work`; returns its result and the machine's speed while it
    /// ran (1.0 on the reference box, below 1 on a slower one).
    fn timed<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.last_s;
        let out = work();
        self.last_s = self.calibrator.run();
        (out, calib::speed(before, self.last_s))
    }
}

struct SetupOutcome {
    inputs: Inputs,
    /// Median set-up time, reference seconds.
    setup_s: f64,
    raw_setup_s: f64,
}

/// Set up [`SETUP_REPEATS`] times: the seed twice (the digests must
/// repeat) and a neighbouring seed once (its digest must differ). All
/// three cost the same, so all three are set-up timings.
fn set_up(
    workload: &Workload,
    opts: &Options,
    pace: &mut Pace,
    checks: &mut Checks,
) -> SetupOutcome {
    let repeats = if opts.smoke { 2 } else { SETUP_REPEATS };
    let mut reference = Vec::new();
    let mut raw = Vec::new();
    let mut kept: Option<Inputs> = None;
    for i in 0..repeats {
        let other = i + 1 == repeats;
        let seed = if other { opts.seed ^ 1 } else { opts.seed };
        let ((inputs, wall_s), speed) = pace.timed(|| {
            let t = Instant::now();
            let inputs = setup::build(workload, seed, opts.smoke);
            (inputs, t.elapsed().as_secs_f64())
        });
        raw.push(wall_s);
        reference.push(wall_s * speed);
        println!(
            "setup {}: seed {seed} digest {:016x} {} events, capture {:.3} s train {:.3} s encode {:.3} s, machine speed {speed:.3}",
            i + 1,
            inputs.digest,
            inputs.events,
            inputs.timing.capture_s,
            inputs.timing.train_s,
            inputs.timing.encode_s
        );
        match &kept {
            None => kept = Some(inputs),
            Some(first) if other => checks.require(first.digest != inputs.digest, || {
                format!("seeds {} and {seed} gave the same input digest", opts.seed)
            }),
            Some(first) => checks.require(first.digest == inputs.digest, || {
                format!("seed {seed} gave two different input digests")
            }),
        }
    }
    SetupOutcome {
        inputs: kept.expect("at least one set-up"),
        setup_s: median(&reference),
        raw_setup_s: median(&raw),
    }
}

fn print_lap(kind: &str, n: usize, lap: &Lap) {
    println!(
        "{kind} lap {n:>2}: {:>8} events {:>7.3} s {:>9.0} ev/s cpu {:.2} s speed {:.3} steal {:.3} rss {:.0} MiB created {} predicted {} dropped {} shed {} failed {}",
        lap.run.events_in,
        lap.wall_s,
        lap.run.events_in as f64 / lap.wall_s,
        lap.cpu.total_s(),
        lap.speed,
        lap.steal_share,
        lap.peak_rss_mb,
        lap.run.flows_created,
        lap.run.predictions,
        lap.run.triage.dropped,
        lap.run.triage.shed,
        lap.failed(),
    );
}

struct Measured {
    /// Every throughput lap in order: the warm-up lap first, then the
    /// measured ones.
    laps: Vec<Lap>,
    /// The in-process paced tail. On the wire every lap is paced, and the
    /// measured laps are the paced segment.
    paced: Option<Lap>,
}

impl Measured {
    fn measured(&self) -> &[Lap] {
        &self.laps[1..]
    }

    fn paced_laps(&self) -> Vec<&Lap> {
        match &self.paced {
            Some(lap) => vec![lap],
            None => self.measured().iter().collect(),
        }
    }

    /// Measured laps and the paced tail: what `attempted` counts.
    fn counted(&self) -> impl Iterator<Item = &Lap> {
        self.measured().iter().chain(&self.paced)
    }
}

fn check_lap(lap: &Lap, what: &str, checks: &mut Checks) {
    checks.require(lap.conservation_shortfall() == 0, || {
        let t = &lap.run.triage;
        format!(
            "{what}: events_in {} != created {} + predictions {} + dropped {} + shed {}",
            lap.run.events_in, lap.run.flows_created, lap.run.predictions, t.dropped, t.shed
        )
    });
    checks.require(lap.score.unknown_flows == 0, || {
        format!(
            "{what}: {} verdicts for flows not in the capture",
            lap.score.unknown_flows
        )
    });
}

/// Run one lap between two calibrations, check it, print it.
fn one_lap(
    kind: &str,
    n: usize,
    pace: &mut Pace,
    checks: &mut Checks,
    lap: impl FnOnce() -> Result<Lap, String>,
) -> Result<Lap, String> {
    let steal0 = procfs::host_steal_s();
    let t = Instant::now();
    let (lap, speed) = pace.timed(lap);
    let mut lap = lap?;
    lap.speed = speed;
    lap.steal_share =
        (procfs::host_steal_s() - steal0) / (t.elapsed().as_secs_f64() * host_cpus() as f64);
    print_lap(kind, n, &lap);
    check_lap(&lap, kind, checks);
    Ok(lap)
}

fn measure(
    inputs: &Inputs,
    workload: &Workload,
    opts: &Options,
    pace: &mut Pace,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let budget = Instant::now();
    let all = inputs.events as u64;
    let rate = workload.paced_rate as f64;
    let paced_s = opts.seconds * PACED_SHARE;
    // What a throughput lap is called, how long they may go on, how much
    // the warm-up lap replays, and the least a measured lap can cost.
    let (kind, budget_s, warm_events, least_cost) = match workload.drive {
        Drive::InProcess => ("closed", opts.seconds - paced_s, all, 0.0),
        Drive::Wire => (
            "wire",
            opts.seconds,
            ((rate * WIRE_WARMUP_S) as u64).min(all),
            all as f64 / rate,
        ),
    };
    let lap = |sample: bool, events: u64| match workload.drive {
        Drive::InProcess => lap::closed_lap(inputs, workload, sample),
        Drive::Wire => lap::wire_lap(inputs, workload, sample, events),
    };
    let mut laps = vec![one_lap("warm-up", 0, pace, checks, || {
        lap(false, warm_events)
    })?];
    // A lap costs its wall time plus the scoring after it; stop when the
    // next one would not fit. A lap the hypervisor disturbed is run again
    // on borrowed time, while there is any left to borrow.
    let mut lap_cost = budget.elapsed().as_secs_f64().max(least_cost);
    let mut extra_s = 0.0;
    while laps.len() < 2 || budget.elapsed().as_secs_f64() + lap_cost <= budget_s + extra_s {
        let t = Instant::now();
        let lap = one_lap(kind, laps.len(), pace, checks, || lap(opts.trace, all))?;
        lap_cost = t.elapsed().as_secs_f64();
        if disturbed(&lap, &mut extra_s, lap_cost) {
            continue;
        }
        laps.push(lap);
    }
    let paced = match workload.drive {
        Drive::InProcess => {
            let events = ((rate * paced_s) as u64).min(all);
            loop {
                let t = Instant::now();
                let lap = one_lap("paced", 1, pace, checks, || {
                    lap::paced_lap(inputs, workload, events)
                })?;
                if !disturbed(&lap, &mut extra_s, t.elapsed().as_secs_f64()) {
                    break Some(lap);
                }
            }
        }
        Drive::Wire => None,
    };
    Ok(Measured { laps, paced })
}

/// Whether to run this lap again instead of counting it: the hypervisor
/// took too much of the machine while it ran, and the run can still
/// borrow the time.
fn disturbed(lap: &Lap, extra_s: &mut f64, lap_cost: f64) -> bool {
    let again = lap.steal_share > MAX_STEAL_SHARE && *extra_s + lap_cost <= MAX_EXTRA_S;
    if again {
        *extra_s += lap_cost;
        println!(
            "not counted: the host stole {:.3} of the CPU during that lap (more than {MAX_STEAL_SHARE}); running it again",
            lap.steal_share
        );
    }
    again
}

fn per_lap(laps: &[Lap], f: impl Fn(&Lap) -> f64) -> Vec<f64> {
    laps.iter().map(f).collect()
}

/// (p50 ms, p99 ms) of the paced segment: the median over its laps of
/// each lap's percentile. Wall-clock milliseconds — at a quarter of
/// capacity latency is wake-ups more than work, and putting it in
/// reference time made it repeat worse, not better. `None` when a lap has
/// too few samples beyond its p99.
fn paced_latency_ms(laps: &[&Lap]) -> Option<(f64, f64)> {
    let at = |p: f64| -> Option<f64> {
        let per_lap: Option<Vec<f64>> = laps
            .iter()
            .map(|l| tail_percentile(&l.latencies_ns, p).map(|ns| ns as f64 / 1e6))
            .collect();
        per_lap.filter(|v| !v.is_empty()).map(|v| median(&v))
    };
    Some((at(50.0)?, at(99.0)?))
}

pub fn run(workload: &Workload, opts: &Options) -> Result<Report, String> {
    let mut checks = Checks::default();
    println!(
        "== {} seed {} seconds {} trace {} cpus {}{}",
        workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host_cpus(),
        if opts.smoke {
            " SMOKE, not results"
        } else {
            ""
        }
    );
    let mut pace = Pace::new();

    let SetupOutcome {
        inputs,
        setup_s,
        raw_setup_s,
    } = set_up(workload, opts, &mut pace, &mut checks);
    let offered = setup::offered(&inputs);
    println!(
        "offered: {} events, {} flows, {} attack updates on {} attack flows ({} with an update), {} benign updates",
        offered.events,
        inputs.flows.len(),
        offered.attack_updates,
        offered.attack_flows,
        offered.attack_flows_updated,
        offered.benign_updates
    );

    let (plain, plain_speed) = pace.timed(|| inline::plain_pass(&inputs, workload));
    println!(
        "inline pass: {} events {:.3} s, {:.0} ns/event at speed {plain_speed:.3}, verdict digest {:016x}",
        plain.events,
        plain.wall_ns as f64 / 1e9,
        plain.wall_ns as f64 / plain.events.max(1) as f64,
        plain.score.verdict_digest
    );
    checks.require(plain.events == inputs.events as u64, || {
        format!(
            "inline pass decoded {} of {} events",
            plain.events, inputs.events
        )
    });
    let traced = opts
        .trace
        .then(|| pace.timed(|| inline::traced_pass(&inputs, workload)));

    let steal0 = procfs::host_steal_s();
    let measuring = Instant::now();
    let m = measure(&inputs, workload, opts, &mut pace, &mut checks)?;
    // A noisy neighbour shows here: CPU time the hypervisor gave away
    // while this machine wanted it, as a share of what it had.
    let steal_share = (procfs::host_steal_s() - steal0)
        / (measuring.elapsed().as_secs_f64() * host_cpus() as f64);

    // The oracle: where nothing may be lost, every lap stores the verdicts
    // the single-thread pass stored.
    if workload.lossless {
        for (i, lap) in m.laps.iter().enumerate() {
            checks.require(lap.score == plain.score, || {
                format!(
                    "lap {i}: stored verdicts differ from the inline pass: {:?} != {:?}",
                    lap.score, plain.score
                )
            });
        }
    }
    let mut lag = LagLog::default();
    let mut samples = 0;
    for lap in m.paced_laps() {
        lag.merge(lap.lag.clone());
        samples += lap.latencies_ns.len();
    }
    let lag = lag.summary();
    // Lateness voids the latency numbers, not the run: it is the host
    // taking the CPU away (steal of 4-6 % gave 0.013-0.05 here), says
    // nothing about the program's outputs, and the latency metrics carry
    // no bound.
    if lag.late_share > MAX_LATE_SHARE {
        println!(
            "LATENCY VOID: the generator woke late for {:.4} of its ticks (more than {MAX_LATE_SHARE})",
            lag.late_share
        );
    }
    let latency = paced_latency_ms(&m.paced_laps());
    checks.require(latency.is_some(), || {
        format!("{samples} latency samples are too few for a p99")
    });
    let (p50_ms, p99_ms) = latency.unwrap_or((0.0, 0.0));

    let attempted: u64 = m.counted().map(|l| l.offered).sum();
    let failed: u64 = m.counted().map(Lap::failed).sum();
    let delivered: u64 = m
        .counted()
        .map(|l| l.run.events_in - l.run.triage.shed)
        .sum();
    let qualities: Vec<Quality> = m.laps.iter().map(|l| quality(&l.score, &offered)).collect();
    let raw_eps = per_lap(&m.laps, |l| l.run.events_in as f64 / l.wall_s);
    // A paced lap's rate is set by the generator's clock, not by how fast
    // the machine is: it stays in wall seconds.
    let eps = match workload.drive {
        Drive::InProcess => per_lap(&m.laps, Lap::events_per_s),
        Drive::Wire => raw_eps.clone(),
    };
    let cpu_per_mev = per_lap(&m.laps, Lap::cpu_s_per_mev);
    let (eps_q1, eps_q3) = quartiles(&eps[1..]).unwrap_or((eps[1], eps[1]));

    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("setup_s", setup_s);
    e2e.insert("events_per_s", lap_median(&eps));
    e2e.insert("cpu_s_per_mev", lap_median(&cpu_per_mev));
    e2e.insert(
        "peak_rss_mb",
        lap_median(&per_lap(&m.laps, |l| l.peak_rss_mb)),
    );
    e2e.insert(
        "delivered_share",
        delivered as f64 / attempted.max(1) as f64,
    );
    let q = |f: fn(&Quality) -> f64| lap_median(&qualities.iter().map(f).collect::<Vec<_>>());
    e2e.insert("update_recall", q(|q| q.update_recall));
    e2e.insert("flow_recall", q(|q| q.flow_recall));
    e2e.insert("benign_pass_share", q(|q| q.benign_pass_share));

    let mut per_layer = BTreeMap::new();
    if let Some((traced, traced_speed)) = &traced {
        checks.require(
            traced.events == plain.events && traced.rows == plain.rows,
            || {
                format!(
                    "traced pass saw {} events and {} rows, the plain pass {} and {}",
                    traced.events, traced.rows, plain.events, plain.rows
                )
            },
        );
        checks.require(traced.score == plain.score, || {
            format!(
                "traced pass stored different verdicts from the plain pass: {:?} != {:?}",
                traced.score, plain.score
            )
        });
        per_layer = layer_metrics(
            workload,
            &offered,
            (&plain, plain_speed),
            (traced, *traced_speed),
            &m,
            &mut checks,
        );
        per_layer.insert("runtime.lap_eps_q1", eps_q1);
        per_layer.insert("runtime.lap_eps_q3", eps_q3);
        per_layer.insert(
            "runtime.overhead_ns_per_event",
            lap_median(&cpu_per_mev) * 1e3
                - plain.wall_ns as f64 * plain_speed / plain.events.max(1) as f64,
        );
        per_layer.insert("raw.events_per_s", lap_median(&raw_eps));
        per_layer.insert(
            "raw.cpu_s_per_mev",
            lap_median(&per_lap(&m.laps, |l| l.cpu_s_per_mev() / l.speed)),
        );
        per_layer.insert("raw.setup_s", raw_setup_s);
        per_layer.insert("host.speed", lap_median(&per_lap(&m.laps, |l| l.speed)));
        per_layer.insert("host.steal_share", steal_share);
        per_layer.insert("host.cpus", host_cpus() as f64);
        per_layer.insert("quality.flow_recall_all", q(|q| q.flow_recall_all));
        per_layer.insert("verdict_latency_p50_ms", p50_ms);
        per_layer.insert("verdict_latency_p99_ms", p99_ms);
        per_layer.insert("latency.samples", samples as f64);
        per_layer.insert("gen.lag_p99_ms", lag.p99_ms);
        per_layer.insert("gen.lag_max_ms", lag.max_ms);
        per_layer.insert("gen.late_share", lag.late_share);
        per_layer.insert("gen.catch_up_share", lag.catch_up_share);
        per_layer.insert("setup.capture_s", inputs.timing.capture_s);
        per_layer.insert("setup.train_s", inputs.timing.train_s);
        per_layer.insert("setup.encode_s", inputs.timing.encode_s);
        if let Some(path) = &opts.trace_out {
            trace::write_tsv(path, &traced.spans).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {} spans to {path}", traced.spans.len());
        }
    }

    println!(
        "paced segment: {samples} latency samples, verdict latency p50 {p50_ms:.3} ms p99 {p99_ms:.3} ms; generator lag p99 {:.3} ms max {:.3} ms, late {:.5} catch-up {:.5}; host steal {steal_share:.4} of CPU",
        lag.p99_ms, lag.max_ms, lag.late_share, lag.catch_up_share
    );
    let measured = m.measured().len();
    println!(
        "{measured} measured laps: events per reference second q1 {eps_q1:.0} median {:.0} q3 {eps_q3:.0}; raw median {:.0}; machine speed {:.3}",
        lap_median(&eps),
        lap_median(&raw_eps),
        lap_median(&per_lap(&m.laps, |l| l.speed))
    );
    if measured < 10 && workload.drive == Drive::InProcess && !opts.smoke {
        println!("WARNING: only {measured} measured laps; medians want at least 10");
    }
    Ok(Report {
        correct: checks.breaches == 0,
        attempted,
        failed,
        end_to_end: e2e,
        per_layer,
    })
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The per-layer metrics that come from the two inline passes and from
/// the threaded laps' counters.
fn layer_metrics(
    workload: &Workload,
    offered: &Offered,
    (plain, plain_speed): (&PlainPass, f64),
    (traced, traced_speed): (&TracedPass, f64),
    m: &Measured,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let events = plain.events.max(1) as f64;
    let rows = plain.rows.max(1) as f64;

    // The waterfall: self time by layer, with what the brackets themselves
    // cost shown as its own line instead of inflating the cheap layers.
    let mark_ns = inline::mark_cost_ns();
    let lines = waterfall(&traced.spans);
    let total_self: u64 = lines.iter().map(|l| l.self_ns).sum();
    let gap = (total_self as f64 - traced.wall_ns as f64).abs() / traced.wall_ns.max(1) as f64;
    checks.require(gap <= MAX_WATERFALL_GAP, || {
        format!(
            "waterfall sums to {total_self} ns, the traced pass took {} ns",
            traced.wall_ns
        )
    });
    let leaf = |name: &str| lines.iter().find(|l| l.name == name);
    let net_ns = |name: &str| {
        leaf(name).map_or(0.0, |l| {
            let is_leaf = inline::LAYERS.contains(&l.name);
            let timer = if is_leaf {
                l.calls as f64 * mark_ns
            } else {
                0.0
            };
            (l.self_ns as f64 - timer).max(0.0)
        })
    };
    // Reference nanoseconds per call of a traced layer.
    let per_call = |name: &str| {
        leaf(name).map_or(0.0, |l| net_ns(name) * traced_speed / l.calls.max(1) as f64)
    };
    let timer_ns: f64 = lines
        .iter()
        .filter(|l| inline::LAYERS.contains(&l.name))
        .map(|l| l.self_ns as f64 - net_ns(l.name))
        .sum();
    println!(
        "\ntraced inline pass: {:.3} s over {} events ({:.0} ns/event at speed {traced_speed:.3}; untraced {:.0} at {plain_speed:.3}), one bracket costs {mark_ns:.0} ns",
        traced.wall_ns as f64 / 1e9,
        traced.events,
        traced.wall_ns as f64 / traced.events.max(1) as f64,
        plain.wall_ns as f64 / events,
    );
    println!(
        "{:<24} {:>12} {:>7} {:>11} {:>10}",
        "self time", "ms", "share", "calls", "allocs"
    );
    let wall = traced.wall_ns.max(1) as f64;
    for l in &lines {
        println!(
            "{:<24} {:>12.3} {:>6.1}% {:>11} {:>10}",
            l.name,
            net_ns(l.name) / 1e6,
            100.0 * net_ns(l.name) / wall,
            l.calls,
            l.allocs
        );
    }
    println!(
        "{:<24} {:>12.3} {:>6.1}%",
        "trace.timer",
        timer_ns / 1e6,
        100.0 * timer_ns / wall
    );
    println!(
        "{:<24} {:>12.3} {:>6.1}%  (pass wall {:.3} ms)\n",
        "sum",
        total_self as f64 / 1e6,
        100.0 * total_self as f64 / wall,
        wall / 1e6
    );

    let plain_ns = |ns: u64, per: f64| ns as f64 * plain_speed / per;
    out.insert(
        "int.decode_ns_per_event",
        plain_ns(plain.stages.decode, events),
    );
    out.insert(
        "int.decode_allocs_per_event",
        leaf("int.decode").map_or(0.0, |l| l.allocs as f64) / traced.events.max(1) as f64,
    );
    out.insert("event.lower_ns_per_event", per_call("event.lower"));
    out.insert("table.apply_ns_per_event", per_call("table.apply"));
    out.insert("table.features_ns_per_event", per_call("table.features"));
    out.insert("table.created", traced.counts.table_created as f64);
    out.insert("table.updated", traced.counts.table_updated as f64);
    out.insert("table.evicted", traced.counts.table_evicted as f64);
    out.insert(
        "table.live_flows_end",
        traced.counts.table_live_flows as f64,
    );
    out.insert("triage.assess_ns_per_event", per_call("triage.assess"));
    out.insert("vector.project_ns_per_row", per_call("vector.project"));
    out.insert("db.record_created_ns", per_call("db.record_created"));
    out.insert("db.record_updated_ns", per_call("db.record_updated"));
    let sampled = |ns: u64| ns as f64 * traced_speed / traced.sampled.rows.max(1) as f64;
    out.insert(
        "db.store_prediction_ns",
        sampled(traced.sampled.store_prediction_ns),
    );
    out.insert("ml.scaler_ns_per_row", sampled(traced.sampled.scaler_ns));
    out.insert("ml.mlp_ns_per_row", sampled(traced.sampled.mlp_ns));
    out.insert("ml.forest_ns_per_row", sampled(traced.sampled.forest_ns));
    out.insert("ml.gnb_ns_per_row", sampled(traced.sampled.gnb_ns));
    out.insert(
        "processor.ingest_ns_per_event",
        plain_ns(plain.stages.processor, events),
    );
    out.insert(
        "aggregator.aggregate_ns_per_row",
        plain_ns(plain.stages.aggregator, rows),
    );
    out.insert(
        "predictor.predict_ns_per_row",
        plain_ns(plain.stages.predictor, rows),
    );
    let inline_ns = plain_ns(plain.wall_ns, events);
    out.insert("inline.ns_per_event", inline_ns);
    out.insert("inline.eps", 1e9 / inline_ns);
    out.insert(
        "trace.overhead_share",
        (traced.wall_ns as f64 * traced_speed) / (plain.wall_ns.max(1) as f64 * plain_speed) - 1.0,
    );
    out.insert("trace.spans", traced.spans.len() as f64);
    out.insert("trace.waterfall_gap_share", gap);

    // The threaded laps.
    let laps = &m.laps;
    let med = |f: &dyn Fn(&Lap) -> f64| lap_median(&per_lap(laps, f));
    out.insert("predictor.rows", med(&|l| l.run.predictions as f64));
    out.insert("triage.forwarded", med(&|l| l.run.triage.forwarded as f64));
    out.insert("triage.deferred", med(&|l| l.run.triage.deferred as f64));
    out.insert("triage.dropped", med(&|l| l.run.triage.dropped as f64));
    out.insert("triage.shed", med(&|l| l.run.triage.shed as f64));
    out.insert(
        "triage.cut_ratio",
        med(&|l| {
            let updates = l.run.events_in - l.run.flows_created;
            if workload.prefilter == PrefilterMode::On && l.run.predictions > 0 {
                updates as f64 / l.run.predictions as f64
            } else {
                1.0
            }
        }),
    );
    if let Some(last) = laps.last() {
        out.insert("db.flows_end", last.db_sizes.0 as f64);
        out.insert("db.log_len_end", last.db_sizes.1 as f64);
        out.insert("db.predictions_end", last.db_sizes.2 as f64);
    }
    for (i, stage) in STAGES.iter().enumerate() {
        let name: &'static str = match *stage {
            "collection" => "runtime.busy.collection",
            "processor" => "runtime.busy.processor",
            "prediction" => "runtime.busy.prediction",
            _ => "runtime.busy.aggregator",
        };
        out.insert(
            name,
            med(&|l| {
                l.usage
                    .as_ref()
                    .and_then(|u| u.stages.get(i))
                    .map_or(0.0, |(cpu_s, _)| cpu_s / l.wall_s)
            }),
        );
    }
    out.insert(
        "runtime.ctx_switches_per_kev",
        med(&|l| {
            let switches: u64 = l
                .usage
                .as_ref()
                .map_or(0, |u| u.stages.iter().map(|(_, s)| s).sum());
            switches as f64 / (l.run.events_in.max(1) as f64 / 1e3)
        }),
    );
    out.insert(
        "runtime.sys_cpu_share",
        med(&|l| l.cpu.sys_s / l.cpu.total_s().max(1e-9)),
    );
    out.insert("runtime.laps", m.measured().len() as f64);
    if workload.drive == Drive::InProcess {
        out.insert("runtime.backlog_latency_p50_ms", med(&|l| l.backlog_ms.0));
        out.insert("runtime.backlog_latency_p99_ms", med(&|l| l.backlog_ms.1));
    } else {
        // Wire laps are paced: there is no closed-loop backlog to report.
        out.insert("runtime.backlog_latency_p50_ms", 0.0);
        out.insert("runtime.backlog_latency_p99_ms", 0.0);
    }

    // Sockets and mailboxes: zero off the wire.
    let ingest = |f: &dyn Fn(&amlight_ingest::IngestStats) -> f64| {
        med(&|l| l.ingest.as_ref().map_or(0.0, f))
    };
    out.insert("ingest.datagrams", ingest(&|s| s.datagrams as f64));
    out.insert(
        "ingest.events_decoded",
        ingest(&|s| s.events_decoded as f64),
    );
    out.insert("ingest.decode_errors", ingest(&|s| s.decode_errors as f64));
    out.insert(
        "ingest.mailbox_dropped_events",
        ingest(&|s| s.events_dropped as f64),
    );
    out.insert(
        "ingest.events_per_batch",
        ingest(&|s| s.events_published as f64 / s.batches_published.max(1) as f64),
    );
    out.insert(
        "ingest.kernel_lost_events",
        med(&|l| {
            l.ingest
                .as_ref()
                .map_or(0.0, |s| l.offered.saturating_sub(s.events_decoded) as f64)
        }),
    );
    let mut pending: Vec<u64> = m
        .measured()
        .iter()
        .filter_map(|l| l.usage.as_ref())
        .flat_map(|u| u.mailbox_pending.iter().copied())
        .collect();
    pending.sort_unstable();
    out.insert(
        "mailbox.pending_batches_p50",
        tail_percentile(&pending, 50.0).unwrap_or(0) as f64,
    );
    out.insert(
        "mailbox.pending_batches_max",
        pending.last().copied().unwrap_or(0) as f64,
    );

    out.insert("quality.attack_updates", offered.attack_updates as f64);
    out.insert("quality.attack_flows", offered.attack_flows as f64);
    out.insert(
        "quality.attack_flows_updated",
        offered.attack_flows_updated as f64,
    );
    out.insert("quality.benign_updates", offered.benign_updates as f64);
    out.insert(
        "quality.scored_updates",
        med(&|l| l.score.predictions as f64),
    );
    out
}
