//! The open-loop generator: events (or datagrams) are due on a fixed
//! schedule whatever the pipeline does, and every hand-out records how
//! late it was against that schedule.

use amlight_core::{EventSource, SourcePoll};
use amlight_int::{IntCollector, TelemetryReport};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events released together. A generator that woke for every event would
/// spin a core on a 2-core box; one that sleeps between ticks of 128
/// events (640 µs at 200 k ev/s) costs next to nothing and is still far
/// finer than any latency reported.
pub const TICK_EVENTS: u64 = 128;

/// A hand-out this much after its due time counts as late.
pub const LATE_NS: u64 = 1_000_000;

/// Longest a poll waits before handing control back to its caller.
const MAX_WAIT: Duration = Duration::from_millis(1);

/// Fixed-rate schedule in ticks of [`TICK_EVENTS`].
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub events_per_s: u64,
}

impl Schedule {
    /// Nanoseconds after the start at which event `index` is due: the
    /// start of its tick.
    pub fn due_ns(&self, index: u64) -> u64 {
        let tick = index / TICK_EVENTS;
        (u128::from(tick * TICK_EVENTS) * 1_000_000_000 / u128::from(self.events_per_s)) as u64
    }
}

/// Hand-out lag of every tick of one paced segment.
///
/// A tick is *late* when the generator slept for it and its own wake-up
/// came more than [`LATE_NS`] after the due time: the generator's fault
/// (or its host's). A tick is *catch-up* when it was already that overdue
/// when the generator got to it: an earlier stall is being made up, the
/// generator's own or — in process, where the pipeline pulls — the
/// pipeline's, which did not ask in time (backpressure).
#[derive(Debug, Default, Clone)]
pub struct LagLog {
    pub lags_ns: Vec<u64>,
    pub late: u64,
    pub catch_up: u64,
}

/// What [`LagLog::summary`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LagSummary {
    pub p99_ms: f64,
    pub max_ms: f64,
    pub late_share: f64,
    pub catch_up_share: f64,
}

impl LagLog {
    /// Record one tick handed out at `now_ns`; `waited` says whether the
    /// generator had to sleep for it.
    pub fn record(&mut self, now_ns: u64, due_ns: u64, waited: bool) {
        let lag = now_ns.saturating_sub(due_ns);
        self.lags_ns.push(lag);
        if lag > LATE_NS {
            if waited {
                self.late += 1;
            } else {
                self.catch_up += 1;
            }
        }
    }

    pub fn merge(&mut self, other: LagLog) {
        self.lags_ns.extend(other.lags_ns);
        self.late += other.late;
        self.catch_up += other.catch_up;
    }

    pub fn summary(&self) -> LagSummary {
        if self.lags_ns.is_empty() {
            return LagSummary::default();
        }
        let mut sorted = self.lags_ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = (n * 99).div_ceil(100).max(1);
        LagSummary {
            p99_ms: sorted[rank - 1] as f64 / 1e6,
            max_ms: sorted[n - 1] as f64 / 1e6,
            late_share: self.late as f64 / n as f64,
            catch_up_share: self.catch_up as f64 / n as f64,
        }
    }
}

/// Sleep towards `due_ns` after `start`, at most [`MAX_WAIT`] at a time.
/// `Some(slept)` once the due time has passed, saying whether any sleep
/// was needed; `None` when it is still ahead.
pub fn wait_until(start: Instant, due_ns: u64) -> Option<bool> {
    let now_ns = start.elapsed().as_nanos() as u64;
    if now_ns >= due_ns {
        return Some(false);
    }
    let wait = Duration::from_nanos(due_ns - now_ns);
    std::thread::sleep(wait.min(MAX_WAIT));
    (wait <= MAX_WAIT).then_some(true)
}

/// The in-process paced source: the same wire datagrams a closed lap
/// decodes, released tick by tick. Runs on the pipeline's collection
/// thread, like any [`EventSource`].
pub struct PacedSource {
    wire: Arc<Vec<Vec<u8>>>,
    next_datagram: usize,
    collector: IntCollector,
    decoded: VecDeque<TelemetryReport>,
    scratch: Vec<TelemetryReport>,
    schedule: Schedule,
    /// Events to hand out in all.
    limit: u64,
    handed: u64,
    start: Option<Instant>,
    /// Whether a poll has already slept towards the tick now due.
    slept: bool,
    lag: LagLog,
    report: Sender<LagLog>,
}

impl PacedSource {
    pub fn new(
        wire: Arc<Vec<Vec<u8>>>,
        limit: u64,
        schedule: Schedule,
        report: Sender<LagLog>,
    ) -> Self {
        Self {
            wire,
            next_datagram: 0,
            collector: IntCollector::new(),
            decoded: VecDeque::new(),
            scratch: Vec::new(),
            schedule,
            limit,
            handed: 0,
            start: None,
            slept: false,
            lag: LagLog::default(),
            report,
        }
    }
}

impl EventSource for PacedSource {
    fn poll_event(&mut self) -> SourcePoll {
        if self.handed >= self.limit {
            return SourcePoll::End;
        }
        let start = *self.start.get_or_insert_with(Instant::now);
        if self.handed.is_multiple_of(TICK_EVENTS) {
            let due_ns = self.schedule.due_ns(self.handed);
            let Some(slept) = wait_until(start, due_ns) else {
                self.slept = true;
                return SourcePoll::Idle;
            };
            let waited = std::mem::take(&mut self.slept) || slept;
            self.lag
                .record(start.elapsed().as_nanos() as u64, due_ns, waited);
        }
        while self.decoded.is_empty() {
            let Some(datagram) = self.wire.get(self.next_datagram) else {
                return SourcePoll::End;
            };
            self.next_datagram += 1;
            self.scratch.clear();
            self.collector.ingest_into(datagram, &mut self.scratch);
            self.decoded.extend(self.scratch.drain(..));
        }
        match self.decoded.pop_front() {
            Some(report) => {
                self.handed += 1;
                SourcePoll::Event(Box::new(report.into()))
            }
            None => SourcePoll::End,
        }
    }
}

impl Drop for PacedSource {
    fn drop(&mut self) {
        // The receiver outlives the pipeline; if it is gone the run is
        // already being torn down.
        let _ = self.report.send(std::mem::take(&mut self.lag));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_advance_by_whole_ticks() {
        let s = Schedule {
            events_per_s: 200_000,
        };
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(TICK_EVENTS - 1), 0);
        assert_eq!(s.due_ns(TICK_EVENTS), 640_000);
        assert_eq!(s.due_ns(2 * TICK_EVENTS + 5), 1_280_000);
        // One second's worth of events is due at one second.
        assert_eq!(s.due_ns(200_000 - 200_000 % TICK_EVENTS), 999_680_000);
        // No overflow over a long run.
        assert_eq!(s.due_ns(200_000 * 3600) / 1_000_000_000, 3600);
    }

    #[test]
    fn lag_summary_tells_late_from_catch_up() {
        let mut log = LagLog::default();
        for i in 0..97 {
            log.record(1_000 + i, 1_000, true); // on time
        }
        log.record(5_000_000, 2_000_000, true); // woke 3 ms late
        log.record(4_000_000, 2_000_000, false); // found 2 ms overdue
        log.record(1_000, 2_000, true); // early: no lag
        let s = log.summary();
        assert_eq!(s.max_ms, 3.0);
        assert_eq!(s.p99_ms, 2.0, "the 99th of 100 ticks is the catch-up one");
        assert!((s.late_share - 0.01).abs() < 1e-12);
        assert!((s.catch_up_share - 0.01).abs() < 1e-12);
        assert_eq!(LagLog::default().summary(), LagSummary::default());
    }

    #[test]
    fn paced_source_hands_out_exactly_the_limit() {
        use amlight_int::{HopMetadata, InstructionSet};
        use amlight_net::{FlowKey, Protocol};
        let reports: Vec<TelemetryReport> = (0..20u16)
            .map(|i| TelemetryReport {
                flow: FlowKey::new(
                    [10, 0, 0, 1].into(),
                    [10, 0, 0, 2].into(),
                    1000 + i,
                    80,
                    Protocol::Tcp,
                ),
                ip_len: 60,
                tcp_flags: Some(2),
                instructions: InstructionSet::amlight(),
                hops: vec![HopMetadata::default()].into(),
                export_ns: u64::from(i),
            })
            .collect();
        let wire: Vec<Vec<u8>> = reports
            .chunks(8)
            .map(|c| IntCollector::encode_stream(c).to_vec())
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut src = PacedSource::new(
            Arc::new(wire),
            10,
            Schedule {
                events_per_s: 1_000_000,
            },
            tx,
        );
        let mut got = 0;
        loop {
            match src.poll_event() {
                SourcePoll::Event(_) => got += 1,
                SourcePoll::Idle => {}
                SourcePoll::End => break,
            }
        }
        assert_eq!(got, 10);
        drop(src);
        assert_eq!(rx.recv().unwrap().lags_ns.len(), 1, "one tick was due");
    }
}
