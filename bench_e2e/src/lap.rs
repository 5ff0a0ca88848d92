//! One lap: a fresh pipeline fed the capture once, three ways — closed
//! (as fast as the pipeline takes it), paced in-process, and paced over a
//! loopback socket — each timed from outside and scored afterwards.

use crate::pacing::{wait_until, LagLog, PacedSource, Schedule, LATE_NS, TICK_EVENTS};
use crate::procfs::{self, Cpu};
use crate::score::{score, Score};
use crate::setup::{Inputs, Workload, REPORTS_PER_DATAGRAM};
use crate::stats::tail_percentile;
use amlight_core::runtime::ThreadedRunStats;
use amlight_core::{CollectorSource, EventMailbox, EventSource, ThreadedPipeline};
use amlight_ingest::{IngestServer, IngestStats, ListenerConfig, WireProtocol};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest wait for datagrams still in the kernel after the sender ends.
const QUIESCE: Duration = Duration::from_secs(2);
/// Every datagram read and nothing decoded for this long: none is coming.
/// Longer than the listener's 20 ms read timeout, so its last partial batch
/// is out.
const QUIET: Duration = Duration::from_millis(30);
/// The sender holds a tick while the listener's mailbox holds more batches
/// than this: half of `ListenerConfig`'s default 64, so the datagrams
/// already on their way cannot push the oldest batch out.
const MAILBOX_HOLD: u64 = 32;
/// How often a held tick looks again, and when it stops waiting and sends
/// whatever happens to the datagrams (a listener that has died must not
/// hang the run).
const HOLD_POLL: Duration = Duration::from_micros(100);
const MAX_HOLD: Duration = Duration::from_secs(2);
/// How often the traced run samples thread counters and mailbox depth.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// The pipeline's threads in `ThreadedPipeline::start`'s spawn order
/// with one shard.
pub const STAGES: [&str; 4] = ["collection", "processor", "prediction", "aggregator"];

/// CPU and context switches of the pipeline's own threads over a lap,
/// as last seen before they exited (traced runs only).
#[derive(Debug, Clone, Default)]
pub struct ThreadUsage {
    /// (CPU seconds, context switches) per stage, [`STAGES`] order.
    pub stages: Vec<(f64, u64)>,
    /// Pending mailbox batches at each sample (wire laps).
    pub mailbox_pending: Vec<u64>,
}

/// Everything measured about one lap.
pub struct Lap {
    /// Events the generator offered.
    pub offered: u64,
    pub wall_s: f64,
    /// The machine's speed over the lap (`calib::speed`); the caller, who
    /// calibrates around the lap, fills it in.
    pub speed: f64,
    /// Share of the machine's CPU the hypervisor gave to someone else
    /// during the lap; filled in by the caller like `speed`.
    pub steal_share: f64,
    /// Process CPU over the timed window, generator thread excluded.
    pub cpu: Cpu,
    pub peak_rss_mb: f64,
    pub run: ThreadedRunStats,
    pub score: Score,
    /// `PredictionRecord::latency_ns` of every stored verdict, ascending;
    /// kept for paced laps only (a closed lap's backlog latency is
    /// summarised in `backlog_ms` and dropped).
    pub latencies_ns: Vec<u64>,
    /// (p50, p99) of the lap's latencies, ms.
    pub backlog_ms: (f64, f64),
    pub lag: LagLog,
    pub ingest: Option<IngestStats>,
    pub usage: Option<ThreadUsage>,
    /// Database sizes when the lap ended: flows, change log, predictions.
    pub db_sizes: (usize, usize, usize),
}

impl Lap {
    /// Events per reference second.
    pub fn events_per_s(&self) -> f64 {
        self.run.events_in as f64 / (self.wall_s * self.speed)
    }

    /// Reference CPU seconds per million events.
    pub fn cpu_s_per_mev(&self) -> f64 {
        self.cpu.total_s() * self.speed / (self.run.events_in.max(1) as f64 / 1e6)
    }

    /// Events the pipeline counted in but never accounted for as a
    /// creation, a stored verdict, a triage drop or a shed.
    pub fn conservation_shortfall(&self) -> u64 {
        let t = &self.run.triage;
        let accounted = self.run.flows_created + self.run.predictions + t.dropped + t.shed;
        self.run.events_in.abs_diff(accounted)
    }

    /// Offered events that failed: never reached the pipeline (decode
    /// error, kernel loss, mailbox overflow), vanished inside it, or were
    /// stored against a flow the capture does not contain. Triage shed is
    /// policy, not failure.
    pub fn failed(&self) -> u64 {
        self.offered.saturating_sub(self.run.events_in)
            + self.conservation_shortfall()
            + self.score.unknown_flows
    }
}

/// Hands out clones of the shared wire datagrams: `CollectorSource` wants
/// owned chunks, and cloning lazily keeps a lap's resident set free of a
/// second copy of the capture.
struct WireChunks {
    wire: Arc<Vec<Vec<u8>>>,
    next: usize,
}

impl Iterator for WireChunks {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        let chunk = self.wire.get(self.next)?.clone();
        self.next += 1;
        Some(chunk)
    }
}

fn pipeline(inputs: &Inputs, workload: &Workload) -> ThreadedPipeline {
    ThreadedPipeline::shared(inputs.model.clone())
        .with_shards(1)
        .with_prefilter(workload.prefilter)
}

/// Background sampler of the pipeline threads' `/proc` counters.
struct Sampler {
    stop: Arc<AtomicBool>,
    worker: JoinHandle<ThreadUsage>,
}

impl Sampler {
    /// `known` is the thread list from just before the pipeline started:
    /// every thread not on it is one of the pipeline's, in spawn order.
    fn start(known: &[u32], mailboxes: Vec<Arc<EventMailbox>>) -> Sampler {
        let tids: Vec<u32> = procfs::task_ids()
            .into_iter()
            .filter(|t| !known.contains(t))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let mut usage = ThreadUsage {
                stages: vec![(0.0, 0); tids.len()],
                mailbox_pending: Vec::new(),
            };
            loop {
                let last = flag.load(Ordering::Acquire);
                for (slot, &tid) in usage.stages.iter_mut().zip(&tids) {
                    if let Some((cpu, switches)) = procfs::task_sample(tid) {
                        *slot = (cpu.total_s(), switches);
                    }
                }
                if !mailboxes.is_empty() {
                    let pending = mailboxes.iter().map(|m| m.pending_batches() as u64).sum();
                    usage.mailbox_pending.push(pending);
                }
                if last {
                    return usage;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        Sampler { stop, worker }
    }

    fn finish(self) -> Option<ThreadUsage> {
        self.stop.store(true, Ordering::Release);
        self.worker.join().ok()
    }
}

impl Lap {
    fn new(offered: u64, wall_s: f64, cpu: Cpu, run: ThreadedRunStats) -> Lap {
        Lap {
            offered,
            wall_s,
            speed: 1.0,
            steal_share: 0.0,
            cpu,
            peak_rss_mb: procfs::peak_rss_mb(),
            run,
            score: Score::default(),
            latencies_ns: Vec::new(),
            backlog_ms: (0.0, 0.0),
            lag: LagLog::default(),
            ingest: None,
            usage: None,
            db_sizes: (0, 0, 0),
        }
    }

    /// Score what the pipeline stored, after the clock has stopped.
    fn score_database(
        mut self,
        pipe: &ThreadedPipeline,
        inputs: &Inputs,
        keep_latencies: bool,
    ) -> Lap {
        let db = pipe.database();
        let predictions = db.predictions();
        let mut latencies_ns: Vec<u64> = predictions.iter().map(|p| p.latency_ns).collect();
        latencies_ns.sort_unstable();
        let ms = |p| tail_percentile(&latencies_ns, p).unwrap_or(0) as f64 / 1e6;
        self.backlog_ms = (ms(50.0), ms(99.0));
        if keep_latencies {
            self.latencies_ns = latencies_ns;
        }
        self.score = score(&predictions, &inputs.flows);
        self.db_sizes = (db.flow_count(), db.update_count(), predictions.len());
        self
    }
}

/// A closed lap: `CollectorSource` decodes the whole capture as fast as
/// the pipeline pulls it; timed from `start()` to `join()`.
pub fn closed_lap(inputs: &Inputs, workload: &Workload, sample: bool) -> Result<Lap, String> {
    run_in_process(
        inputs,
        workload,
        sample,
        inputs.events as u64,
        CollectorSource::new(WireChunks {
            wire: Arc::clone(&inputs.wire),
            next: 0,
        }),
        None,
    )
}

/// A paced lap: the first `events` events on the workload's open-loop
/// schedule, through the same in-process path.
pub fn paced_lap(inputs: &Inputs, workload: &Workload, events: u64) -> Result<Lap, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    let source = PacedSource::new(
        Arc::clone(&inputs.wire),
        events,
        Schedule {
            events_per_s: workload.paced_rate,
        },
        tx,
    );
    run_in_process(inputs, workload, false, events, source, Some(rx))
}

fn run_in_process<S: EventSource + 'static>(
    inputs: &Inputs,
    workload: &Workload,
    sample: bool,
    offered: u64,
    source: S,
    lag_rx: Option<std::sync::mpsc::Receiver<LagLog>>,
) -> Result<Lap, String> {
    let pipe = pipeline(inputs, workload);
    procfs::reset_peak_rss();
    let known = if sample {
        procfs::task_ids()
    } else {
        Vec::new()
    };
    let cpu0 = procfs::process_cpu();
    let t0 = Instant::now();
    let handle = pipe.start(source);
    let sampler = sample.then(|| Sampler::start(&known, Vec::new()));
    let run = handle.join().map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = procfs::process_cpu().since(&cpu0);
    let mut lap = Lap::new(offered, wall_s, cpu, run);
    lap.usage = sampler.and_then(Sampler::finish);
    let paced = lag_rx.is_some();
    // The source sends its log when the collection thread drops it, which
    // `join` has already waited for.
    lap.lag = lag_rx.and_then(|rx| rx.try_recv().ok()).unwrap_or_default();
    Ok(lap.score_database(&pipe, inputs, paced))
}

/// Datagrams of `datagram_len` bytes the sender lets a socket with
/// `rmem_bytes` of receive buffer hold unread: half of what fits. The
/// kernel charges a queued datagram its buffer (payload, headers and the
/// 320-byte shared info, rounded up to a power of two) plus the 256-byte
/// `sk_buff`; the stock 212992 bytes held 166 datagrams of 500 bytes and
/// 92 of 700 here.
pub fn socket_window(rmem_bytes: u64, datagram_len: usize) -> u64 {
    let charged = (datagram_len as u64 + 384).next_power_of_two() + 256;
    (rmem_bytes / charged / 2).max(1)
}

/// Whether the listener has room for `more` datagrams after `sent`: its
/// socket buffer is under the window and its mailbox under the hold line.
fn has_room(server: &IngestServer, window: u64, sent: u64, more: u64) -> bool {
    let stats = server.stats();
    let unread = sent.saturating_sub(stats.datagrams);
    (unread == 0 || unread + more <= window) && stats.batches_pending <= MAILBOX_HOLD
}

/// What the sender thread reports back.
struct Sent {
    /// Datagrams the kernel took.
    datagrams: u64,
    lag: LagLog,
    cpu: Cpu,
}

/// One sender thread, one connected socket: a tick's datagrams go out in
/// one `sendmmsg` when the tick is due and `room(sent, more)` says the
/// listener can take them.
fn send_paced(
    wire: &[Vec<u8>],
    datagrams: usize,
    sock: &UdpSocket,
    schedule: Schedule,
    room: impl Fn(u64, u64) -> bool,
) -> Sent {
    let cpu0 = procfs::thread_cpu();
    let per_tick = TICK_EVENTS as usize / REPORTS_PER_DATAGRAM;
    let refs: Vec<&[u8]> = wire[..datagrams].iter().map(Vec::as_slice).collect();
    let mut lag = LagLog::default();
    let mut total = 0u64;
    let start = Instant::now();
    // When the sender oversleeps it does not burst to catch up — a burst
    // is the generator's artefact, and overflows a socket buffer no sink
    // would have overflowed. The schedule slips by the overslept time.
    let mut slip_ns = 0u64;
    for (tick, batch) in refs.chunks(per_tick).enumerate() {
        let due_ns = schedule.due_ns(tick as u64 * TICK_EVENTS) + slip_ns;
        let mut waited = false;
        let slept = loop {
            match wait_until(start, due_ns) {
                Some(slept) => break slept,
                None => waited = true,
            }
        };
        // A listener that has fallen behind is the system's backpressure,
        // as in process: the tick is held, not thrown at a full buffer, and
        // counts as catch-up when that makes it overdue.
        let held_at = Instant::now();
        let mut held = false;
        while !room(total, batch.len() as u64) && held_at.elapsed() < MAX_HOLD {
            held = true;
            std::thread::sleep(HOLD_POLL);
        }
        let now_ns = start.elapsed().as_nanos() as u64;
        lag.record(now_ns, due_ns, (waited || slept) && !held);
        if now_ns.saturating_sub(due_ns) > LATE_NS {
            slip_ns += now_ns - due_ns;
        }
        // A datagram the kernel refuses here is lost like one it drops
        // at the receiving socket: offered, never decoded.
        let mut sent = 0;
        while sent < batch.len() {
            match netio::send_batch(sock, &batch[sent..]) {
                Ok(n) if n > 0 => sent += n,
                _ => break,
            }
        }
        total += sent as u64;
    }
    Sent {
        datagrams: total,
        lag,
        cpu: procfs::thread_cpu().since(&cpu0),
    }
}

/// A wire lap: the first `events` events as INT-UDP datagrams over
/// loopback into a one-listener `IngestServer`, whose `SocketSource`
/// feeds the pipeline.
pub fn wire_lap(
    inputs: &Inputs,
    workload: &Workload,
    sample: bool,
    events: u64,
) -> Result<Lap, String> {
    let datagrams = (events as usize).div_ceil(REPORTS_PER_DATAGRAM);
    let offered = (datagrams * REPORTS_PER_DATAGRAM).min(inputs.events) as u64;
    let pipe = pipeline(inputs, workload);
    procfs::reset_peak_rss();
    let addr = "127.0.0.1:0".parse().map_err(|e| format!("addr: {e}"))?;
    let server = IngestServer::bind(ListenerConfig::new(addr, WireProtocol::IntUdp).listeners(1))
        .map_err(|e| format!("bind ingest server: {e}"))?;
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind sender: {e}"))?;
    sock.connect(server.local_addr())
        .map_err(|e| format!("connect sender: {e}"))?;

    let known = if sample {
        procfs::task_ids()
    } else {
        Vec::new()
    };
    let cpu0 = procfs::process_cpu();
    let t0 = Instant::now();
    let handle = pipe.start(server.source());
    let sampler = sample.then(|| Sampler::start(&known, server.mailboxes().to_vec()));
    let schedule = Schedule {
        events_per_s: workload.paced_rate,
    };
    let longest = inputs.wire[..datagrams].iter().map(Vec::len).max();
    let window = socket_window(procfs::rmem_default(), longest.unwrap_or(0));
    let sent = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                send_paced(&inputs.wire, datagrams, &sock, schedule, |sent, more| {
                    has_room(&server, window, sent, more)
                })
            })
            .join()
    })
    .map_err(|_| "sender thread panicked".to_string())?;

    // Datagrams still in the socket buffer or mid-decode are not lost:
    // wait until the listener has read every one the kernel took and has
    // been quiet for longer than its read timeout, then let the pipeline
    // finish what it holds. The lap ends when the listener last made
    // progress, not when the waiting did.
    let mut seen = server.stats();
    let mut progress_at = t0.elapsed();
    let waited = Instant::now();
    while seen.events_decoded < offered && waited.elapsed() < QUIESCE {
        std::thread::sleep(Duration::from_millis(1));
        let now = server.stats();
        if now.events_decoded != seen.events_decoded {
            progress_at = t0.elapsed();
        } else if now.datagrams >= sent.datagrams && t0.elapsed() - progress_at > QUIET {
            break;
        }
        seen = now;
    }
    handle.drain();
    let wall_s = progress_at.as_secs_f64();
    let mut cpu = procfs::process_cpu().since(&cpu0);
    cpu.user_s -= sent.cpu.user_s;
    cpu.sys_s -= sent.cpu.sys_s;
    let usage = sampler.and_then(Sampler::finish);
    let ingest = server.shutdown();
    let run = handle.join().map_err(|e| e.to_string())?;
    let mut lap = Lap::new(offered, wall_s, cpu, run);
    lap.usage = usage;
    lap.lag = sent.lag;
    lap.ingest = Some(ingest);
    Ok(lap.score_database(&pipe, inputs, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_window_is_half_of_what_the_buffer_was_seen_to_hold() {
        assert_eq!(socket_window(212_992, 500), 83);
        assert_eq!(socket_window(212_992, 700), 46);
        assert_eq!(socket_window(4_096, 1_400), 1, "never below one datagram");
    }

    #[test]
    fn a_held_tick_is_catch_up_and_every_datagram_still_goes_out() {
        let receiver = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        sender.connect(receiver.local_addr().unwrap()).unwrap();
        let wire = vec![vec![7u8; 32]; 3 * TICK_EVENTS as usize / REPORTS_PER_DATAGRAM];
        let asked = std::cell::Cell::new(0u32);
        let schedule = Schedule {
            events_per_s: 1_000_000,
        };
        // No room the first thirty times it asks: 3 ms at least, so the
        // first tick goes out overdue.
        let sent = send_paced(&wire, wire.len(), &sender, schedule, |_, _| {
            asked.set(asked.get() + 1);
            asked.get() > 30
        });
        assert_eq!(sent.datagrams, wire.len() as u64);
        assert_eq!(sent.lag.lags_ns.len(), 3);
        assert_eq!(sent.lag.late, 0);
        assert!(sent.lag.catch_up >= 1);
    }
}
