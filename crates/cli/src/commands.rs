//! The subcommand implementations.

use crate::args::{Args, Command, USAGE};
use amlight_core::event::{
    pint_view, sample_reports, TelemetryBackend, TelemetryEvent, ViewOptions,
};
use amlight_core::pipeline::{DetectionPipeline, PipelineConfig};
use amlight_core::runtime::{AdaptConfig, ThreadedPipeline};
use amlight_core::source::ReplaySource;
use amlight_core::testbed::{Testbed, TestbedConfig};
use amlight_core::trainer::{
    dataset_from_events, dataset_from_labeled, train_bundle, ModelBundle, TrainerConfig,
};
use amlight_features::{FeatureSet, PrefilterMode};
use amlight_ingest::{IngestServer, ListenerConfig, WireProtocol};
use amlight_int::microburst::detect_from_reports;
use amlight_int::{IntCollector, MicroburstConfig, TelemetryReport};
use amlight_net::TrafficClass;
use amlight_sflow::{batch_into_datagrams, FlowSample, SamplingMode, SflowAgent};
use amlight_traffic::{TrafficMix, TrafficMixConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Anything a subcommand can fail with.
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Io(std::io::Error),
    Format(serde_json::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Format(e) => write!(f, "format error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Format(e)
    }
}

/// On-disk capture: labeled telemetry plus generation metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaptureFile {
    pub seed: u64,
    pub day_len_s: u64,
    pub hops: usize,
    pub reports: Vec<(TelemetryReport, TrafficClass)>,
}

impl CaptureFile {
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CliError> {
        let json = serde_json::to_string(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    pub fn load(path: impl AsRef<Path>) -> Result<Self, CliError> {
        let json = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }

    /// Generate a fresh capture in memory.
    pub fn generate(day_len_s: u64, seed: u64, hops: usize) -> Self {
        let lab = Testbed::new(TestbedConfig {
            hops,
            ..Default::default()
        });
        let mix = TrafficMix::new(TrafficMixConfig::paper_capture(day_len_s, seed));
        let reports = lab.run_labeled(&mix.generate());
        Self {
            seed,
            day_len_s,
            hops,
            reports,
        }
    }

    pub fn class_counts(&self) -> Vec<(TrafficClass, usize)> {
        TrafficClass::ALL
            .into_iter()
            .map(|c| (c, self.reports.iter().filter(|(_, k)| *k == c).count()))
            .collect()
    }
}

/// Dispatch a parsed command line; writes human output to `out`.
pub fn run(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    match args.command {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Capture => cmd_capture(args, out),
        Command::Train => cmd_train(args, out),
        Command::Detect => cmd_detect(args, out),
        Command::Replay => cmd_replay(args, out),
        Command::Microburst => cmd_microburst(args, out),
        Command::Demo => cmd_demo(args, out),
    }
}

fn bad(e: impl fmt::Display) -> CliError {
    CliError::Usage(e.to_string())
}

/// Parse `--telemetry` (default `int`) against the backend registry —
/// adding a backend to [`TelemetryBackend::ALL`] is all it takes to
/// surface it here.
fn telemetry_backend(args: &Args) -> Result<TelemetryBackend, CliError> {
    let name = args.get("telemetry", "int");
    TelemetryBackend::parse(name).ok_or_else(|| {
        let known: Vec<&str> = TelemetryBackend::ALL.iter().map(|b| b.name()).collect();
        CliError::Usage(format!(
            "--telemetry expects one of `{}`, got `{name}`",
            known.join("`, `"),
        ))
    })
}

/// Collect the per-backend view knobs (`--sample-period`,
/// `--pint-bits`) into one [`ViewOptions`]; backends ignore the knobs
/// that are not theirs.
fn view_options(args: &Args, seed: u64) -> Result<ViewOptions, CliError> {
    let period = args.get_u64("sample-period", 256).map_err(bad)? as u32;
    let bits = args.get_u64("pint-bits", 8).map_err(bad)?;
    if bits == 0 || bits > 32 {
        return Err(CliError::Usage(format!(
            "--pint-bits expects 1..=32, got {bits}"
        )));
    }
    Ok(ViewOptions {
        sample_period: period.max(1),
        pint_bits: bits as u8,
        seed,
    })
}

/// Parse `--prefilter` (default `off`) into a triage mode.
fn prefilter_mode(args: &Args) -> Result<PrefilterMode, CliError> {
    let name = args.get("prefilter", "off");
    PrefilterMode::parse(name).ok_or_else(|| {
        CliError::Usage(format!(
            "--prefilter expects `off`, `shadow`, or `on`, got `{name}`"
        ))
    })
}

/// The load-time model gate: schema version, feature width, feature set
/// and every member's shape must all fit the requested telemetry backend
/// before any event is scored — stale, mismatched or damaged artifacts
/// fail loudly, not with a stage-thread panic or silent mispredictions.
fn validate_bundle(bundle: &ModelBundle, backend: TelemetryBackend) -> Result<(), CliError> {
    bundle.validate_for(backend.feature_set()).map_err(|e| {
        CliError::Usage(format!(
            "bundle does not fit --telemetry {}: {e}; \
             retrain with `amlight train --telemetry {}`",
            backend.name(),
            backend.name(),
        ))
    })
}

/// Re-observe an INT capture through a seeded sFlow sampling agent:
/// each report is one packet at the observation point, so the agent's
/// 1-in-N decision produces the sampled view of the same traffic.
fn sflow_view(capture: &CaptureFile, period: u32) -> Vec<(FlowSample, TrafficClass)> {
    let mut agent = SflowAgent::new(
        SamplingMode::RandomSkip {
            period: period.max(1),
        },
        capture.seed,
    );
    sample_reports(&capture.reports, &mut agent)
}

fn cmd_capture(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.get("out", "capture.json").to_string();
    let day_len = args.get_u64("day-len", 10).map_err(bad)?;
    let seed = args.get_u64("seed", 41751).map_err(bad)?;
    let hops = args.get_u64("hops", 1).map_err(bad)? as usize;

    writeln!(
        out,
        "generating capture: 2 × {day_len}s days, seed {seed}, {hops} hop(s)…"
    )?;
    let capture = CaptureFile::generate(day_len, seed, hops.max(1));
    for (class, n) in capture.class_counts() {
        writeln!(out, "  {:<10} {:>8} reports", class.name(), n)?;
    }
    capture.save(&path)?;
    writeln!(out, "wrote {} reports to {path}", capture.reports.len())?;
    Ok(())
}

fn training_config(fast: bool) -> TrainerConfig {
    if fast {
        TrainerConfig {
            mlp: amlight_ml::MlpConfig {
                epochs: 5,
                batch_size: 256,
                ..amlight_ml::MlpConfig::paper_mlp()
            },
            forest: amlight_ml::RandomForestConfig {
                n_trees: 10,
                ..amlight_ml::RandomForestConfig::fast()
            },
            ..Default::default()
        }
    } else {
        TrainerConfig::default()
    }
}

fn cmd_train(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let capture_path = args.get("capture", "capture.json").to_string();
    let bundle_path = args.get("out", "bundle.json").to_string();
    let include_slowloris = args.has("include-slowloris");
    let backend = telemetry_backend(args)?;

    let capture = CaptureFile::load(&capture_path)?;
    let opts = view_options(args, capture.seed)?;
    let training: Vec<_> = capture
        .reports
        .iter()
        .filter(|(_, c)| include_slowloris || *c != TrafficClass::SlowLoris)
        .cloned()
        .collect();
    writeln!(
        out,
        "training on {} of {} reports ({} view){}…",
        training.len(),
        capture.reports.len(),
        backend.name(),
        if include_slowloris {
            ""
        } else {
            " (SlowLoris held out as zero-day)"
        }
    )?;
    // Training-window bounds (telemetry-clock ns) for the bundle's
    // metadata stamp: the capture range this model is valid for.
    let (window_start, window_end) = training.iter().fold((u64::MAX, 0u64), |(lo, hi), (r, _)| {
        (lo.min(r.export_ns), hi.max(r.export_ns))
    });
    let view = backend.derive_view(&training, &opts);
    if view.len() != training.len() {
        writeln!(
            out,
            "{} view kept {} of {} reports",
            backend.name(),
            view.len(),
            training.len()
        )?;
    }
    let raw = dataset_from_labeled(&view, backend.feature_set());
    let bundle = train_bundle(
        &raw,
        backend.feature_set(),
        &training_config(args.has("fast")),
    )
    .with_train_window(window_start.min(window_end), window_end);
    bundle.save(&bundle_path)?;
    writeln!(
        out,
        "wrote bundle to {bundle_path} ({} forest trees, MLP {:?}, scaler over {} features)",
        bundle.forest.n_trees(),
        bundle.mlp.hidden_sizes(),
        bundle.scaler.n_features(),
    )?;
    if args.has("emit-meta") {
        writeln!(out, "bundle meta: {}", serde_json::to_string(&bundle.meta)?)?;
    }
    Ok(())
}

fn cmd_detect(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    if !args.get("listen", "").is_empty() {
        return cmd_detect_listen(args, out);
    }
    let backend = telemetry_backend(args)?;
    let capture = CaptureFile::load(args.get("capture", "capture.json"))?;
    let opts = view_options(args, capture.seed)?;
    let bundle = ModelBundle::load(args.get("bundle", "bundle.json"))?;
    validate_bundle(&bundle, backend)?;

    let view = backend.derive_view(&capture.reports, &opts);
    if view.len() != capture.reports.len() {
        writeln!(
            out,
            "{} view kept {} of {} reports",
            backend.name(),
            view.len(),
            capture.reports.len()
        )?;
    }

    let adapt = args.has("adapt");
    let prefilter = prefilter_mode(args)?;
    if args.has("threaded") || adapt || prefilter != PrefilterMode::Off {
        let shards = args.get_u64("shards", 1).map_err(bad)? as usize;
        let n_trees = bundle.forest.n_trees();
        let mut pipeline = ThreadedPipeline::new(bundle)
            .with_shards(shards.max(1))
            .with_prefilter(prefilter);
        if adapt {
            pipeline = pipeline.with_adaptation(AdaptConfig::default());
        }
        let handle = pipeline.start(ReplaySource::new(view));
        let stats = handle.join().map_err(bad)?;
        print_threaded(&stats, backend, n_trees, out)?;
        if adapt {
            let a = stats.adapt;
            writeln!(
                out,
                "adaptation: {} drift event(s), {} retrain(s) published; \
                 {} labeled sample(s) fed, {} shed; final epoch {}",
                a.drift_events, a.retrains, a.samples_fed, a.samples_shed, a.final_epoch,
            )?;
        }
        return Ok(());
    }

    let pace = if args.has("paper-pace") {
        PipelineConfig::paper_pace()
    } else {
        PipelineConfig::rust_pace()
    };

    let mut pipeline = DetectionPipeline::new(bundle, pace);
    let pairs: Vec<(TelemetryEvent, TrafficClass)> = view
        .into_iter()
        .map(|e| {
            let truth = e.truth.unwrap_or(TrafficClass::Benign);
            (e.event, truth)
        })
        .collect();
    let report = pipeline.run_sync(&pairs);
    print_detection(&report, out)
}

/// Split `udp://host:port` / `tcp://host:port` into (is_tcp, addr).
fn parse_endpoint(url: &str) -> Result<(bool, std::net::SocketAddr), CliError> {
    let usage = || {
        CliError::Usage(format!(
            "expected udp://host:port or tcp://host:port, got `{url}`"
        ))
    };
    let (scheme, rest) = url.split_once("://").ok_or_else(usage)?;
    let tcp = match scheme {
        "udp" => false,
        "tcp" => true,
        _ => return Err(usage()),
    };
    use std::net::ToSocketAddrs;
    let addr = rest
        .to_socket_addrs()
        .map_err(|_| usage())?
        .find(|a| a.is_ipv4())
        .ok_or_else(usage)?;
    Ok((tcp, addr))
}

/// Map `--telemetry` × URL scheme onto a wire framing. The registry
/// names the framing ([`TelemetryBackend::wire_name`]) and the ingest
/// crate parses the same name, so the two ends cannot drift apart.
fn wire_protocol(backend: TelemetryBackend, tcp: bool) -> Result<WireProtocol, CliError> {
    let name = backend.wire_name(tcp).ok_or_else(|| {
        CliError::Usage(format!(
            "{} telemetry is UDP-only; use udp://host:port",
            backend.name(),
        ))
    })?;
    WireProtocol::parse(name)
        .ok_or_else(|| CliError::Usage(format!("ingest does not speak `{name}`")))
}

/// `detect --listen`: run as a live collector daemon. Binds a sharded
/// `SO_REUSEPORT` listener group, streams whatever arrives through the
/// threaded pipeline, and stops after `--duration-ms` (or sooner once
/// `--max-events` have been decoded).
fn cmd_detect_listen(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let backend = telemetry_backend(args)?;
    let (tcp, addr) = parse_endpoint(args.get("listen", ""))?;
    let protocol = wire_protocol(backend, tcp)?;
    let listeners = args.get_u64("listeners", 1).map_err(bad)? as usize;
    let duration_ms = args.get_u64("duration-ms", 10_000).map_err(bad)?;
    let max_events = args.get_u64("max-events", 0).map_err(bad)?;
    let shards = args.get_u64("shards", 1).map_err(bad)? as usize;

    let prefilter = prefilter_mode(args)?;
    let bundle = ModelBundle::load(args.get("bundle", "bundle.json"))?;
    validate_bundle(&bundle, backend)?;
    let n_trees = bundle.forest.n_trees();

    let server = IngestServer::bind(ListenerConfig::new(addr, protocol).listeners(listeners))
        .map_err(CliError::Io)?;
    let local = server.local_addr();
    let port_file = args.get("port-file", "");
    if !port_file.is_empty() {
        std::fs::write(port_file, local.port().to_string())?;
    }
    writeln!(
        out,
        "listening on {}://{local} — {} listener thread(s), {} framing",
        if tcp { "tcp" } else { "udp" },
        listeners.max(1),
        protocol.name(),
    )?;

    let pipeline = ThreadedPipeline::new(bundle)
        .with_shards(shards.max(1))
        .with_prefilter(prefilter);
    let handle = pipeline.start(server.source());
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(duration_ms);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if max_events > 0 && server.stats().events_decoded >= max_events {
            break;
        }
        if std::time::Instant::now() >= deadline {
            break;
        }
    }
    let ingest = server.shutdown();
    let stats = handle.join().map_err(bad)?;
    let predictions = stats.predictions;
    writeln!(
        out,
        "ingest: {} datagrams, {} bytes, {} events decoded, {} decode errors, {} events shed",
        ingest.datagrams,
        ingest.bytes,
        ingest.events_decoded,
        ingest.decode_errors,
        ingest.events_dropped,
    )?;
    print_threaded(&stats, backend, n_trees, out)?;
    if args.has("require-clean") {
        if ingest.events_decoded == 0 || ingest.decode_errors > 0 || predictions == 0 {
            return Err(CliError::Usage(format!(
                "run was not clean: {} events decoded, {} decode errors, {} predictions",
                ingest.events_decoded, ingest.decode_errors, predictions,
            )));
        }
        writeln!(out, "clean run: decoded events, zero decode errors")?;
    }
    Ok(())
}

/// `replay`: push a capture's telemetry at a listening daemon over the
/// wire — the sender half of the loopback smoke test.
fn cmd_replay(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let backend = telemetry_backend(args)?;
    let url = args.get("to", "");
    if url.is_empty() {
        return Err(CliError::Usage(
            "replay needs --to udp://host:port or tcp://host:port".to_string(),
        ));
    }
    let (tcp, addr) = parse_endpoint(url)?;
    let protocol = wire_protocol(backend, tcp)?;
    let period = args.get_u64("sample-period", 256).map_err(bad)? as u32;
    let per_datagram = args.get_u64("per-datagram", 4).map_err(bad)?.max(1) as usize;
    let capture = CaptureFile::load(args.get("capture", "capture.json"))?;

    match protocol {
        WireProtocol::IntTcp => {
            let reports: Vec<TelemetryReport> =
                capture.reports.iter().map(|(r, _)| r.clone()).collect();
            let bytes = IntCollector::encode_stream(&reports);
            let mut stream = std::net::TcpStream::connect(addr)?;
            stream.write_all(&bytes)?;
            writeln!(
                out,
                "sent {} reports ({} bytes) over tcp to {addr}",
                reports.len(),
                bytes.len(),
            )?;
        }
        WireProtocol::IntUdp => {
            let sock = std::net::UdpSocket::bind("0.0.0.0:0")?;
            let mut datagrams = 0u64;
            let mut reports = 0u64;
            let mut scratch = Vec::with_capacity(per_datagram);
            for chunk in capture.reports.chunks(per_datagram) {
                scratch.clear();
                scratch.extend(chunk.iter().map(|(r, _)| r.clone()));
                let dgram = IntCollector::encode_stream(&scratch);
                sock.send_to(&dgram, addr)?;
                datagrams += 1;
                reports += scratch.len() as u64;
            }
            writeln!(
                out,
                "sent {reports} reports in {datagrams} udp datagrams to {addr}",
            )?;
        }
        WireProtocol::SflowUdp => {
            let samples: Vec<FlowSample> = sflow_view(&capture, period)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            let grams =
                batch_into_datagrams(std::net::Ipv4Addr::LOCALHOST, &samples, per_datagram.max(1));
            let sock = std::net::UdpSocket::bind("0.0.0.0:0")?;
            for g in &grams {
                sock.send_to(g, addr)?;
            }
            writeln!(
                out,
                "sent {} sFlow samples (1-in-{period}) in {} udp datagrams to {addr}",
                samples.len(),
                grams.len(),
            )?;
        }
        WireProtocol::PintUdp => {
            let bits = view_options(args, capture.seed)?.pint_bits;
            let reports: Vec<amlight_pint::PintReport> = pint_view(&capture.reports, bits)
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            let grams = amlight_pint::batch_into_datagrams(
                std::net::Ipv4Addr::LOCALHOST,
                &reports,
                per_datagram.max(1),
            );
            let sock = std::net::UdpSocket::bind("0.0.0.0:0")?;
            for g in &grams {
                sock.send_to(g, addr)?;
            }
            writeln!(
                out,
                "sent {} pint reports ({bits}-bit digests) in {} udp datagrams to {addr}",
                reports.len(),
                grams.len(),
            )?;
        }
    }
    Ok(())
}

/// Streaming-path summary: every backend replays through the same
/// threaded runtime, so the printout is backend-tagged but identical in
/// shape. Labels rode through the channels, so recall needs no
/// side-channel lookup.
fn print_threaded(
    stats: &amlight_core::runtime::ThreadedRunStats,
    backend: TelemetryBackend,
    n_trees: usize,
    out: &mut impl Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "threaded {} replay: {} events → {} flows, {} predictions",
        backend.name(),
        stats.events_in,
        stats.flows_created,
        stats.predictions
    )?;
    writeln!(
        out,
        "verdicts: {} attack / {} normal / {} pending",
        stats.attack_verdicts, stats.normal_verdicts, stats.pending_verdicts
    )?;
    writeln!(
        out,
        "ensemble: {} rows, {} escalated to MLP ({:.1} %), forest walked {:.1} of {n_trees} trees per row",
        stats.rows_scored,
        stats.rows_escalated,
        100.0 * stats.rows_escalated as f64 / stats.rows_scored.max(1) as f64,
        stats.trees_walked as f64 / stats.rows_scored.max(1) as f64,
    )?;
    if stats.labeled.labeled_updates() > 0 {
        writeln!(
            out,
            "labeled recall: {:.4} ({} of {} attack updates; false-alarm rate {:.4})",
            stats.labeled.recall(),
            stats.labeled.attack_hits,
            stats.labeled.attack_updates,
            stats.labeled.false_alarm_rate(),
        )?;
    }
    match stats.triage.mode {
        PrefilterMode::Off => {}
        PrefilterMode::Shadow => {
            let w = stats.triage.would;
            writeln!(
                out,
                "triage shadow: {} scored → would forward {} / defer {} / drop {} \
                 ({} windows, {} alarmed)",
                w.scored, w.forward, w.defer, w.drop, w.windows, w.alarm_windows,
            )?;
        }
        PrefilterMode::On => {
            let t = stats.triage;
            writeln!(
                out,
                "triage on: forwarded {} / deferred {} / dropped {} / shed {} \
                 ({} evaluated by the predictor)",
                t.forwarded,
                t.deferred,
                t.dropped,
                t.shed,
                t.evaluated(),
            )?;
        }
    }
    writeln!(
        out,
        "wall-clock prediction latency: mean {:.1} µs, max {:.1} µs",
        stats.mean_latency_us, stats.max_latency_us
    )?;
    Ok(())
}

fn print_detection(
    report: &amlight_core::pipeline::PipelineReport,
    out: &mut impl Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<10} {:>8} {:>10} {:>8} {:>12} {:>12}",
        "class", "acc", "predicted", "pending", "avg lat (s)", "max lat (s)"
    )?;
    for class in report.classes() {
        let s = report.class_summary(class);
        let acc = if s.predicted == 0 {
            "   -    ".to_string() // nothing cleared the smoothing window
        } else {
            format!("{:>8.4}", s.accuracy())
        };
        writeln!(
            out,
            "{:<10} {acc} {:>10} {:>8} {:>12.4} {:>12.4}",
            class.name(),
            s.predicted,
            s.pending,
            s.avg_latency_s,
            s.max_latency_s,
        )?;
    }
    writeln!(out, "overall accuracy: {:.4}", report.overall_accuracy())?;
    if report.flood_alerts.is_empty() {
        writeln!(out, "new-flow-rate guard: quiet")?;
    } else {
        for a in &report.flood_alerts {
            writeln!(
                out,
                "GUARD ALERT: {} created {} flows in the epoch at t={:.1}s (baseline {:.1})",
                a.dst,
                a.new_flows,
                a.epoch_start_ns as f64 / 1e9,
                a.baseline,
            )?;
        }
    }
    Ok(())
}

fn cmd_microburst(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let capture = CaptureFile::load(args.get("capture", "capture.json"))?;
    let bursts = detect_from_reports(
        capture.reports.iter().map(|(r, _)| r),
        MicroburstConfig::default(),
    );
    if bursts.is_empty() {
        writeln!(
            out,
            "no microbursts detected in {} reports",
            capture.reports.len()
        )?;
    } else {
        writeln!(out, "{} microburst(s) detected:", bursts.len())?;
        for b in &bursts {
            writeln!(
                out,
                "  t = {:.6}–{:.6} s, duration {:.1} µs, peak depth {}",
                b.start_ns as f64 / 1e9,
                b.end_ns as f64 / 1e9,
                b.duration_ns() as f64 / 1e3,
                b.peak_depth,
            )?;
        }
    }
    Ok(())
}

fn cmd_demo(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let seed = args.get_u64("seed", 41751).map_err(bad)?;
    writeln!(
        out,
        "== amlight demo: capture → train → detect (seed {seed}) =="
    )?;

    let train_capture = CaptureFile::generate(5, seed, 1);
    writeln!(
        out,
        "training capture: {} reports",
        train_capture.reports.len()
    )?;
    let training: Vec<_> = train_capture
        .reports
        .iter()
        .filter(|(_, c)| *c != TrafficClass::SlowLoris)
        .cloned()
        .collect();
    let raw = dataset_from_events(&training, FeatureSet::full());
    let bundle = train_bundle(&raw, FeatureSet::full(), &training_config(true));

    let test_capture = CaptureFile::generate(5, seed ^ 0xD37EC7, 1);
    writeln!(
        out,
        "test capture: {} reports (fresh seed)",
        test_capture.reports.len()
    )?;
    let mut pipeline = DetectionPipeline::new(bundle, PipelineConfig::rust_pace());
    let report = pipeline.run_sync(&test_capture.reports);
    print_detection(&report, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("amlight-cli-{}-{name}", std::process::id()))
    }

    fn run_tokens(tokens: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(tokens.iter().copied()).expect("parse");
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let text = run_tokens(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("microburst"));
    }

    #[test]
    fn capture_train_detect_roundtrip() {
        let cap = tmp("cap.json");
        let bun = tmp("bun.json");
        let cap_s = cap.to_str().unwrap();
        let bun_s = bun.to_str().unwrap();

        let text =
            run_tokens(&["capture", "--out", cap_s, "--day-len", "3", "--seed", "7"]).unwrap();
        assert!(text.contains("wrote"), "{text}");

        let text = run_tokens(&["train", "--capture", cap_s, "--out", bun_s, "--fast"]).unwrap();
        assert!(text.contains("SlowLoris held out"), "{text}");

        let text = run_tokens(&["detect", "--capture", cap_s, "--bundle", bun_s]).unwrap();
        assert!(text.contains("overall accuracy"), "{text}");
        assert!(text.contains("SlowLoris") || text.contains("Benign"));

        let text = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--threaded",
            "--shards",
            "4",
        ])
        .unwrap();
        assert!(text.contains("threaded int replay"), "{text}");
        assert!(
            text.contains("ensemble: ") && text.contains(" escalated to MLP ("),
            "{text}"
        );
        // The --fast forest has 10 trees; a row walks at least the 5 it
        // takes to fix a vote, at most all 10.
        let walked: f64 = text
            .split("forest walked ")
            .nth(1)
            .and_then(|rest| rest.split(" of 10 trees per row").next())
            .and_then(|n| n.parse().ok())
            .expect("trees-walked figure");
        assert!((5.0..=10.0).contains(&walked), "{text}");
        assert!(text.contains("labeled recall"), "{text}");
        assert!(text.contains("wall-clock prediction latency"), "{text}");

        let text = run_tokens(&["microburst", "--capture", cap_s]).unwrap();
        assert!(text.contains("microburst"), "{text}");

        // A hand-edited leaf probability past 1 is a usage error naming
        // the leaf, before any event is scored.
        let json = std::fs::read_to_string(&bun).unwrap();
        let leaf = "{\"Leaf\":{\"proba\":";
        let at = json.find(leaf).unwrap() + leaf.len();
        let end = at + json[at..].find('}').unwrap();
        std::fs::write(&bun, format!("{}7.0{}", &json[..at], &json[end..])).unwrap();
        let err = run_tokens(&["detect", "--capture", cap_s, "--bundle", bun_s]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("tree 0 node"), "{err}");
        assert!(err.to_string().contains("probability 7"), "{err}");

        std::fs::remove_file(&cap).ok();
        std::fs::remove_file(&bun).ok();
    }

    #[test]
    fn detect_refuses_an_mlp_without_layers_naming_the_member() {
        let cap = tmp("mlp-cap.json");
        let bun = tmp("mlp-bun.json");
        let cap_s = cap.to_str().unwrap();
        let bun_s = bun.to_str().unwrap();
        run_tokens(&["capture", "--out", cap_s, "--day-len", "1", "--seed", "7"]).unwrap();
        run_tokens(&["train", "--capture", cap_s, "--out", bun_s, "--fast"]).unwrap();

        // Hand-edit `"layers": [...]` to `[]`: the bundle still loads,
        // and used to panic in the forward pass (the prediction thread,
        // under --threaded).
        let json = std::fs::read_to_string(&bun).unwrap();
        let at = json.find("\"mlp\":{\"layers\":").unwrap() + "\"mlp\":{\"layers\":".len();
        let end = at + json[at..].find(",\"config\":{\"hidden\"").unwrap();
        std::fs::write(&bun, format!("{}[]{}", &json[..at], &json[end..])).unwrap();
        for threaded in [false, true] {
            let mut tokens = vec!["detect", "--capture", cap_s, "--bundle", bun_s];
            if threaded {
                tokens.push("--threaded");
            }
            let err = run_tokens(&tokens).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            assert!(err.to_string().contains("the MLP has no layers"), "{err}");
        }

        std::fs::remove_file(&cap).ok();
        std::fs::remove_file(&bun).ok();
    }

    #[test]
    fn sflow_train_detect_roundtrip() {
        let cap = tmp("sflow-cap.json");
        let bun = tmp("sflow-bun.json");
        let cap_s = cap.to_str().unwrap();
        let bun_s = bun.to_str().unwrap();

        run_tokens(&["capture", "--out", cap_s, "--day-len", "3", "--seed", "11"]).unwrap();
        // A tight period keeps enough samples to train on a tiny capture.
        let text = run_tokens(&[
            "train",
            "--capture",
            cap_s,
            "--out",
            bun_s,
            "--fast",
            "--telemetry",
            "sflow",
            "--sample-period",
            "8",
        ])
        .unwrap();
        assert!(text.contains("sflow view"), "{text}");
        assert!(text.contains("sflow view kept"), "{text}");

        // An INT-features bundle must be rejected for an sFlow replay
        // (and vice versa) before any work happens.
        let text = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--telemetry",
            "sflow",
            "--sample-period",
            "8",
        ])
        .unwrap();
        assert!(text.contains("overall accuracy"), "{text}");

        let err = run_tokens(&["detect", "--capture", cap_s, "--bundle", bun_s]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--telemetry"), "{err}");

        let text = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--telemetry",
            "sflow",
            "--sample-period",
            "8",
            "--threaded",
            "--shards",
            "2",
        ])
        .unwrap();
        assert!(text.contains("threaded sflow replay"), "{text}");

        std::fs::remove_file(&cap).ok();
        std::fs::remove_file(&bun).ok();
    }

    #[test]
    fn listen_then_replay_loopback_roundtrip() {
        let cap = tmp("listen-cap.json");
        let bun = tmp("listen-bun.json");
        let port_file = tmp("listen-port.txt");
        let cap_s = cap.to_str().unwrap().to_string();
        let bun_s = bun.to_str().unwrap().to_string();
        let port_s = port_file.to_str().unwrap().to_string();

        run_tokens(&["capture", "--out", &cap_s, "--day-len", "2", "--seed", "13"]).unwrap();
        run_tokens(&["train", "--capture", &cap_s, "--out", &bun_s, "--fast"]).unwrap();
        std::fs::remove_file(&port_file).ok();

        // Daemon in a thread: ephemeral port, stop after 1000 events
        // (or the 10s safety window).
        let daemon = {
            let bun_s = bun_s.clone();
            let port_s = port_s.clone();
            std::thread::spawn(move || {
                run_tokens(&[
                    "detect",
                    "--listen",
                    "udp://127.0.0.1:0",
                    "--bundle",
                    &bun_s,
                    "--port-file",
                    &port_s,
                    "--listeners",
                    "2",
                    "--max-events",
                    "1000",
                    "--duration-ms",
                    "10000",
                    "--require-clean",
                ])
            })
        };

        // Wait for the daemon to publish its port.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let port = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = s.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never wrote its port"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let to = format!("udp://127.0.0.1:{port}");
        let text = run_tokens(&["replay", "--capture", &cap_s, "--to", &to]).unwrap();
        assert!(text.contains("udp datagrams"), "{text}");

        let text = daemon.join().unwrap().unwrap();
        assert!(text.contains("listening on udp://"), "{text}");
        assert!(text.contains("events decoded"), "{text}");
        assert!(text.contains("clean run"), "{text}");

        std::fs::remove_file(&cap).ok();
        std::fs::remove_file(&bun).ok();
        std::fs::remove_file(&port_file).ok();
    }

    #[test]
    fn pint_train_detect_roundtrip() {
        let cap = tmp("pint-cap.json");
        let bun = tmp("pint-bun.json");
        let cap_s = cap.to_str().unwrap();
        let bun_s = bun.to_str().unwrap();

        run_tokens(&["capture", "--out", cap_s, "--day-len", "3", "--seed", "17"]).unwrap();
        let text = run_tokens(&[
            "train",
            "--capture",
            cap_s,
            "--out",
            bun_s,
            "--fast",
            "--telemetry",
            "pint",
            "--pint-bits",
            "8",
        ])
        .unwrap();
        assert!(text.contains("pint view"), "{text}");

        let text = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--telemetry",
            "pint",
        ])
        .unwrap();
        assert!(text.contains("overall accuracy"), "{text}");

        let text = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--telemetry",
            "pint",
            "--threaded",
            "--shards",
            "2",
        ])
        .unwrap();
        assert!(text.contains("threaded pint replay"), "{text}");

        let err = run_tokens(&[
            "train",
            "--capture",
            cap_s,
            "--telemetry",
            "pint",
            "--pint-bits",
            "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--pint-bits"), "{err}");

        std::fs::remove_file(&cap).ok();
        std::fs::remove_file(&bun).ok();
    }

    #[test]
    fn sflow_over_tcp_is_a_usage_error() {
        for backend in ["sflow", "pint"] {
            let err = run_tokens(&[
                "detect",
                "--listen",
                "tcp://127.0.0.1:0",
                "--telemetry",
                backend,
            ])
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            assert!(err.to_string().contains("UDP-only"), "{err}");
        }

        let err = run_tokens(&["replay", "--to", "ftp://127.0.0.1:1"]).unwrap_err();
        assert!(err.to_string().contains("udp://"), "{err}");

        let err = run_tokens(&["replay"]).unwrap_err();
        assert!(err.to_string().contains("--to"), "{err}");
    }

    #[test]
    fn emit_meta_prints_the_stamp_and_adapt_runs_threaded() {
        let cap = tmp("adapt-cap.json");
        let bun = tmp("adapt-bun.json");
        let cap_s = cap.to_str().unwrap();
        let bun_s = bun.to_str().unwrap();

        run_tokens(&["capture", "--out", cap_s, "--day-len", "3", "--seed", "23"]).unwrap();
        let text = run_tokens(&[
            "train",
            "--capture",
            cap_s,
            "--out",
            bun_s,
            "--fast",
            "--emit-meta",
        ])
        .unwrap();
        assert!(text.contains("bundle meta:"), "{text}");
        assert!(text.contains("\"schema_version\":3"), "{text}");
        assert!(text.contains("\"epoch\":0"), "{text}");
        assert!(text.contains("train_window_end_ns"), "{text}");

        // --adapt implies --threaded and reports the adaptation tallies.
        let text =
            run_tokens(&["detect", "--capture", cap_s, "--bundle", bun_s, "--adapt"]).unwrap();
        assert!(text.contains("threaded int replay"), "{text}");
        assert!(text.contains("adaptation:"), "{text}");
        assert!(text.contains("final epoch"), "{text}");

        std::fs::remove_file(&cap).ok();
        std::fs::remove_file(&bun).ok();
    }

    #[test]
    fn prefilter_modes_run_threaded_and_report_triage() {
        let cap = tmp("prefilter-cap.json");
        let bun = tmp("prefilter-bun.json");
        let cap_s = cap.to_str().unwrap();
        let bun_s = bun.to_str().unwrap();

        run_tokens(&["capture", "--out", cap_s, "--day-len", "3", "--seed", "29"]).unwrap();
        run_tokens(&["train", "--capture", cap_s, "--out", bun_s, "--fast"]).unwrap();

        // --prefilter shadow implies --threaded and prints the would-be
        // verdict tallies without changing the prediction count.
        let text = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--prefilter",
            "shadow",
        ])
        .unwrap();
        assert!(text.contains("threaded int replay"), "{text}");
        assert!(text.contains("triage shadow:"), "{text}");
        assert!(text.contains("would forward"), "{text}");

        let text = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--prefilter",
            "on",
            "--shards",
            "2",
        ])
        .unwrap();
        assert!(text.contains("triage on:"), "{text}");
        assert!(text.contains("evaluated by the predictor"), "{text}");

        // And off stays silent about triage.
        let text = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--threaded",
        ])
        .unwrap();
        assert!(!text.contains("triage"), "{text}");

        let err = run_tokens(&[
            "detect",
            "--capture",
            cap_s,
            "--bundle",
            bun_s,
            "--prefilter",
            "sometimes",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--prefilter"), "{err}");

        std::fs::remove_file(&cap).ok();
        std::fs::remove_file(&bun).ok();
    }

    #[test]
    fn bad_telemetry_value_is_a_usage_error() {
        let err = run_tokens(&["detect", "--telemetry", "netflow"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("netflow"), "{err}");
    }

    #[test]
    fn detect_with_missing_files_errors() {
        let err = run_tokens(&["detect", "--capture", "/nonexistent/x.json"]).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn capture_file_roundtrip() {
        let capture = CaptureFile::generate(2, 3, 1);
        let path = tmp("roundtrip.json");
        capture.save(&path).unwrap();
        let back = CaptureFile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.reports.len(), capture.reports.len());
        assert_eq!(back.seed, 3);
        assert_eq!(back.class_counts(), capture.class_counts());
    }
}
