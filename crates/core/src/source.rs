//! Streaming event sources for the threaded runtime.
//!
//! The paper's INT Data Collection module is an always-on reader of the
//! collector port; a production detector therefore cannot demand a fully
//! materialized event vector up front. [`EventSource`] is the pull
//! interface the runtime's collection stage drains instead — generic
//! over the telemetry backend, because every source yields
//! [`LabeledEvent`]s (an INT report *or* an sFlow sample, with optional
//! ground truth riding along for evaluation runs):
//!
//! * [`IterSource`] — any in-memory iterator, in the order given (a
//!   `Vec` of any backend's events is `IterSource::from(vec)`);
//! * [`ChannelSource`] — a bounded crossbeam channel fed by external
//!   producers; the stream ends when every sender is dropped;
//! * [`ReplaySource`] — a capture replayed in native-timestamp order,
//!   labels preserved: INT reports, sFlow samples, PINT digests (bare or
//!   paired with their ground truth) or the already-erased events
//!   [`crate::event::TelemetryBackend::derive_view`] hands back — the
//!   shape the experiment binaries and the CLI feed the runtime;
//! * [`CollectorSource`] — an [`amlight_int::IntCollector`] adapter that
//!   decodes a raw sink byte stream chunk by chunk, tolerating split and
//!   malformed reports exactly like the standalone collector.
//!
//! Sources are *polled*, not blocked on: `Idle` lets the collection stage
//! stay responsive to `stop()` while a live source has nothing to hand
//! over yet. The runtime drains a source a batch at a time through
//! [`EventSource::poll_batch`], which every source here overrides so
//! that events move by value into the caller's buffer; [`EventSource::poll_event`] is the one method a new
//! source has to write.

use crate::event::{LabeledEvent, Telemetry};
use crate::mailbox::EventMailbox;
use amlight_int::{IntCollector, TelemetryReport};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// One poll of an [`EventSource`].
///
/// The event payload is boxed: a [`LabeledEvent`] is large (the INT
/// hop stack is inline, not heap-spilled), and an oversized enum variant
/// is copied at every move. The box is the price of the one-event
/// interface; [`EventSource::poll_batch`] is the allocation-free one.
#[derive(Debug, Clone, PartialEq)]
pub enum SourcePoll {
    /// An event is ready.
    Event(Box<LabeledEvent>),
    /// Nothing right now, but the stream is still open — poll again.
    Idle,
    /// The stream has ended; no further events will ever arrive.
    End,
}

/// How an [`EventSource::poll_batch`] call ended. Events may have been
/// appended whichever it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPoll {
    /// The buffer reached the size asked for; more may be ready already.
    More,
    /// Nothing further right now, but the stream is still open: hand on
    /// what has been gathered, then poll again.
    Idle,
    /// The stream has ended; no further events will ever arrive.
    End,
}

/// A pull-based stream of telemetry events from either backend.
///
/// `Send + 'static` because the runtime's collection stage owns the
/// source on its own thread.
pub trait EventSource: Send {
    /// Fetch the next event, or report idleness / end of stream. May
    /// block briefly (sub-millisecond) but must not block indefinitely:
    /// the collection stage checks its stop flag between polls.
    fn poll_event(&mut self) -> SourcePoll;

    /// Append ready events to `out`, in stream order, until it holds
    /// `max` (a source may overshoot by one of its own units: a decoded
    /// chunk, a mailbox batch). The flattened sequence of events and
    /// `Idle` / `End` reports is the one repeated [`poll_event`] calls
    /// would give.
    ///
    /// The default loops `poll_event` and so inherits its brief waits. A
    /// source that waits for arrivals should override this to wait only
    /// while `out` is empty: events already in `out` are held back — and
    /// unseen by [`crate::runtime::RunHandle::drain`] — until the call
    /// returns.
    ///
    /// [`poll_event`]: EventSource::poll_event
    fn poll_batch(&mut self, out: &mut Vec<LabeledEvent>, max: usize) -> BatchPoll {
        while out.len() < max {
            match self.poll_event() {
                SourcePoll::Event(event) => out.push(*event),
                SourcePoll::Idle => return BatchPoll::Idle,
                SourcePoll::End => return BatchPoll::End,
            }
        }
        BatchPoll::More
    }
}

/// `poll_event` over an in-memory iterator: yield or end, never idle.
fn next_boxed(iter: &mut impl Iterator<Item = LabeledEvent>) -> SourcePoll {
    match iter.next() {
        Some(e) => SourcePoll::Event(Box::new(e)),
        None => SourcePoll::End,
    }
}

/// `poll_batch` over an in-memory iterator: top `out` up to `max`.
fn fill(
    iter: &mut impl Iterator<Item = LabeledEvent>,
    out: &mut Vec<LabeledEvent>,
    max: usize,
) -> BatchPoll {
    out.extend(iter.take(max.saturating_sub(out.len())));
    if out.len() < max {
        BatchPoll::End
    } else {
        BatchPoll::More
    }
}

/// An in-memory iterator source. Never idles: it either yields or ends.
#[derive(Debug)]
pub struct IterSource<I> {
    iter: I,
}

impl<I> IterSource<I>
where
    I: Iterator<Item = LabeledEvent> + Send,
{
    pub fn new(iter: I) -> Self {
        Self { iter }
    }
}

/// A `Vec` of any backend's events, streamed in the order given.
impl<E: Into<LabeledEvent>> From<Vec<E>> for IterSource<std::vec::IntoIter<LabeledEvent>> {
    fn from(events: Vec<E>) -> Self {
        let events: Vec<LabeledEvent> = events.into_iter().map(Into::into).collect();
        Self::new(events.into_iter())
    }
}

impl<I> EventSource for IterSource<I>
where
    I: Iterator<Item = LabeledEvent> + Send,
{
    fn poll_event(&mut self) -> SourcePoll {
        next_boxed(&mut self.iter)
    }

    fn poll_batch(&mut self, out: &mut Vec<LabeledEvent>, max: usize) -> BatchPoll {
        fill(&mut self.iter, out, max)
    }
}

/// How long a [`ChannelSource`] poll waits before reporting `Idle`.
const CHANNEL_POLL: Duration = Duration::from_micros(200);

/// A live, channel-fed source: producers hold the [`Sender`] half and
/// the pipeline drains the receiver. Ends when every sender is dropped.
/// Producers send [`LabeledEvent`]s — `report.into()` / `sample.into()`
/// for unlabeled live feeds.
#[derive(Debug)]
pub struct ChannelSource {
    rx: Receiver<LabeledEvent>,
}

impl ChannelSource {
    /// A bounded feed; hand the sender to the producer (collector socket
    /// loop, traffic generator, test harness, …).
    pub fn bounded(capacity: usize) -> (Sender<LabeledEvent>, Self) {
        let (tx, rx) = bounded(capacity.max(1));
        (tx, Self { rx })
    }
}

impl EventSource for ChannelSource {
    fn poll_event(&mut self) -> SourcePoll {
        // Fast path: drain whatever is already queued — and, crucially,
        // notice a disconnect *immediately*. Only an empty-but-open
        // channel pays the bounded recv_timeout wait; a source whose
        // senders are all gone reports `End` on this very poll instead
        // of spinning timeout-by-timeout.
        match self.rx.try_recv() {
            Ok(e) => return SourcePoll::Event(Box::new(e)),
            Err(TryRecvError::Disconnected) => return SourcePoll::End,
            Err(TryRecvError::Empty) => {}
        }
        match self.rx.recv_timeout(CHANNEL_POLL) {
            Ok(e) => SourcePoll::Event(Box::new(e)),
            Err(RecvTimeoutError::Timeout) => SourcePoll::Idle,
            Err(RecvTimeoutError::Disconnected) => SourcePoll::End,
        }
    }

    fn poll_batch(&mut self, out: &mut Vec<LabeledEvent>, max: usize) -> BatchPoll {
        while out.len() < max {
            match self.rx.try_recv() {
                Ok(e) => out.push(e),
                Err(TryRecvError::Disconnected) => return BatchPoll::End,
                // Wait only with nothing in hand: an event already in
                // `out` must not sit behind a blocking receive.
                Err(TryRecvError::Empty) if !out.is_empty() => return BatchPoll::Idle,
                Err(TryRecvError::Empty) => match self.rx.recv_timeout(CHANNEL_POLL) {
                    Ok(e) => out.push(e),
                    Err(RecvTimeoutError::Timeout) => return BatchPoll::Idle,
                    Err(RecvTimeoutError::Disconnected) => return BatchPoll::End,
                },
            }
        }
        BatchPoll::More
    }
}

/// An in-memory capture replay: events from any backend — bare
/// (`TelemetryReport`, `FlowSample`, `PintReport`), paired with their
/// ground truth (`(event, TrafficClass)`, the experiment binaries' and
/// CLI's capture format), or already erased to [`LabeledEvent`] — are
/// restored to native-timestamp order (the order the collector would
/// have emitted them; ties keep their input order) and streamed once.
/// Labels survive the trip, so a streaming run can report recall
/// directly.
#[derive(Debug)]
pub struct ReplaySource {
    events: std::vec::IntoIter<LabeledEvent>,
}

impl ReplaySource {
    pub fn new<E: Into<LabeledEvent>>(events: impl IntoIterator<Item = E>) -> Self {
        let mut events: Vec<LabeledEvent> = events.into_iter().map(Into::into).collect();
        events.sort_by_key(|e| e.event.event_ns());
        Self {
            events: events.into_iter(),
        }
    }
}

impl EventSource for ReplaySource {
    fn poll_event(&mut self) -> SourcePoll {
        next_boxed(&mut self.events)
    }

    fn poll_batch(&mut self, out: &mut Vec<LabeledEvent>, max: usize) -> BatchPoll {
        fill(&mut self.events, out, max)
    }
}

/// The INT collector adapter: pulls raw byte chunks from the sink and
/// streams every report the [`IntCollector`] decodes out of them.
///
/// A chunk that completes no report (split delivery, garbage awaiting
/// resync) yields [`SourcePoll::Idle`], not `End` — exactly the
/// collector's own "more bytes coming" semantics.
pub struct CollectorSource<B> {
    chunks: B,
    collector: IntCollector,
    decoded: VecDeque<TelemetryReport>,
    scratch: Vec<TelemetryReport>,
}

impl<B> CollectorSource<B>
where
    B: Iterator<Item = Vec<u8>> + Send,
{
    pub fn new(chunks: B) -> Self {
        Self {
            chunks,
            collector: IntCollector::new(),
            decoded: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// Decoder statistics (resyncs, malformed reports, bytes consumed).
    pub fn stats(&self) -> amlight_int::CollectorStats {
        self.collector.stats()
    }
}

impl<B> EventSource for CollectorSource<B>
where
    B: Iterator<Item = Vec<u8>> + Send,
{
    fn poll_event(&mut self) -> SourcePoll {
        if let Some(r) = self.decoded.pop_front() {
            return SourcePoll::Event(Box::new(r.into()));
        }
        match self.chunks.next() {
            Some(chunk) => {
                self.scratch.clear();
                self.collector.ingest_into(&chunk, &mut self.scratch);
                self.decoded.extend(self.scratch.drain(..));
                match self.decoded.pop_front() {
                    Some(r) => SourcePoll::Event(Box::new(r.into())),
                    None => SourcePoll::Idle, // partial report buffered
                }
            }
            None => SourcePoll::End,
        }
    }

    fn poll_batch(&mut self, out: &mut Vec<LabeledEvent>, max: usize) -> BatchPoll {
        // Whatever `poll_event` left of its last chunk goes first.
        out.extend(self.decoded.drain(..).map(LabeledEvent::from));
        while out.len() < max {
            let Some(chunk) = self.chunks.next() else {
                return BatchPoll::End;
            };
            self.scratch.clear();
            self.collector.ingest_into(&chunk, &mut self.scratch);
            if self.scratch.is_empty() {
                return BatchPoll::Idle; // partial report buffered
            }
            out.extend(self.scratch.drain(..).map(LabeledEvent::from));
        }
        BatchPoll::More
    }
}

/// How long a [`SocketSource`] poll sleeps before reporting `Idle` when
/// every mailbox is momentarily empty — long enough to stay off the
/// listener threads' mutexes, short enough that a fresh batch is picked
/// up promptly.
const SOCKET_IDLE_WAIT: Duration = Duration::from_micros(100);

/// The listener-group fan-in: one [`EventSource`] over the per-listener
/// [`EventMailbox`]es of a network ingest server
/// (`amlight_ingest::IngestServer`).
///
/// Each listener thread owns exactly one mailbox (no producer-side
/// contention) and publishes event *batches*; this source drains the
/// mailboxes round-robin, copies whole batches out to the collection
/// stage, and recycles every drained batch shell back to the mailbox it
/// came from so the listener's steady state allocates nothing.
///
/// The stream ends when every mailbox is closed *and* empty — i.e. all
/// listener threads exited and everything they published was consumed.
pub struct SocketSource {
    mailboxes: Vec<Arc<EventMailbox>>,
    /// Events pulled for `poll_event` and not yet handed out, reversed so
    /// `pop()` yields them in published order without shifting.
    staged: Vec<LabeledEvent>,
    /// Round-robin scan cursor.
    next: usize,
    /// Events handed to the pipeline so far.
    consumed: u64,
}

impl SocketSource {
    /// Fan in `mailboxes` (one per listener thread).
    pub fn new(mailboxes: Vec<Arc<EventMailbox>>) -> Self {
        Self {
            mailboxes,
            staged: Vec::new(),
            next: 0,
            consumed: 0,
        }
    }

    /// Events this source has handed to the pipeline.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Pop the next ready batch (in published order), round-robin across
    /// the mailboxes, with the mailbox it came from.
    fn next_batch(&mut self) -> Option<(&EventMailbox, Vec<LabeledEvent>)> {
        let n = self.mailboxes.len();
        for i in 0..n {
            let idx = (self.next + i) % n;
            let Some(mailbox) = self.mailboxes.get(idx) else {
                continue;
            };
            if let Some(batch) = mailbox.pop() {
                self.next = (idx + 1) % n;
                return Some((mailbox, batch));
            }
        }
        None
    }

    /// Append whole mailbox batches to `out` until it holds `max`, sending
    /// each drained shell straight home.
    fn pull(&mut self, out: &mut Vec<LabeledEvent>, max: usize) -> BatchPoll {
        while out.len() < max {
            let Some((mailbox, mut batch)) = self.next_batch() else {
                if self.mailboxes.iter().all(|m| m.is_finished()) {
                    return BatchPoll::End;
                }
                // Every mailbox empty but at least one producer is still
                // alive. With nothing in hand, nap briefly so this poll
                // loop doesn't hammer the mailbox mutexes; either way let
                // the collection stage get its stop-flag check in.
                if out.is_empty() {
                    std::thread::sleep(SOCKET_IDLE_WAIT);
                }
                return BatchPoll::Idle;
            };
            out.append(&mut batch);
            mailbox.recycle(batch);
        }
        BatchPoll::More
    }
}

impl EventSource for SocketSource {
    fn poll_event(&mut self) -> SourcePoll {
        let mut poll = BatchPoll::More;
        if self.staged.is_empty() {
            let mut staged = std::mem::take(&mut self.staged);
            poll = self.pull(&mut staged, 1);
            staged.reverse();
            self.staged = staged;
        }
        match (self.staged.pop(), poll) {
            (Some(event), _) => {
                self.consumed += 1;
                SourcePoll::Event(Box::new(event))
            }
            (None, BatchPoll::End) => SourcePoll::End,
            (None, _) => SourcePoll::Idle,
        }
    }

    fn poll_batch(&mut self, out: &mut Vec<LabeledEvent>, max: usize) -> BatchPoll {
        let before = out.len();
        // Whatever `poll_event` left staged goes first.
        out.extend(self.staged.drain(..).rev());
        let poll = self.pull(out, max);
        self.consumed += (out.len() - before) as u64;
        poll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;
    use amlight_int::{HopMetadata, InstructionSet};
    use amlight_net::{FlowKey, Protocol, TrafficClass};
    use amlight_sflow::FlowSample;
    use std::net::Ipv4Addr;

    fn report(tag: u32) -> TelemetryReport {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                (2000 + tag) as u16,
                80,
                Protocol::Tcp,
            ),
            ip_len: 60,
            tcp_flags: Some(0x02),
            instructions: InstructionSet::amlight(),
            hops: vec![HopMetadata {
                switch_id: tag,
                ..Default::default()
            }]
            .into(),
            export_ns: u64::from(tag) * 500,
        }
    }

    fn sample(tag: u32) -> FlowSample {
        FlowSample {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                (3000 + tag) as u16,
                80,
                Protocol::Tcp,
            ),
            ip_len: 60,
            tcp_flags: Some(0x02),
            observed_ns: u64::from(tag) * 700,
            sampling_period: 64,
        }
    }

    fn drain(source: &mut impl EventSource) -> Vec<LabeledEvent> {
        let mut out = Vec::new();
        loop {
            match source.poll_event() {
                SourcePoll::Event(e) => out.push(*e),
                SourcePoll::Idle => continue,
                SourcePoll::End => return out,
            }
        }
    }

    /// Poll event by event up to and including the next `Idle` or `End`:
    /// one stretch of the source's flattened poll sequence.
    fn until_pause(source: &mut impl EventSource) -> Vec<SourcePoll> {
        let mut steps = Vec::new();
        loop {
            steps.push(source.poll_event());
            if !matches!(steps.last(), Some(SourcePoll::Event(_))) {
                return steps;
            }
        }
    }

    /// The same stretch of the stream through `poll_batch`, `max` events
    /// at a time.
    fn until_pause_batched(source: &mut impl EventSource, max: usize) -> Vec<SourcePoll> {
        let mut steps = Vec::new();
        let mut out = Vec::new();
        loop {
            let poll = source.poll_batch(&mut out, max);
            steps.extend(out.drain(..).map(|e| SourcePoll::Event(Box::new(e))));
            match poll {
                BatchPoll::More => continue,
                BatchPoll::Idle => steps.push(SourcePoll::Idle),
                BatchPoll::End => steps.push(SourcePoll::End),
            }
            return steps;
        }
    }

    /// Two identical sources, one polled each way, all the way to `End`:
    /// same events, same order, every `Idle` in the same place.
    fn assert_batch_matches_events(mut a: impl EventSource, mut b: impl EventSource, max: usize) {
        loop {
            let expected = until_pause(&mut a);
            assert!(!expected.is_empty());
            assert_eq!(until_pause_batched(&mut b, max), expected, "max {max}");
            if expected.last() == Some(&SourcePoll::End) {
                return;
            }
        }
    }

    fn int_events(events: &[LabeledEvent]) -> Vec<TelemetryReport> {
        events
            .iter()
            .map(|e| match &e.event {
                TelemetryEvent::Int(r) => r.clone(),
                other => panic!("expected INT event, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn iter_source_yields_then_ends() {
        let reports: Vec<_> = (0..5).map(report).collect();
        let mut src = IterSource::from(reports.clone());
        assert_eq!(int_events(&drain(&mut src)), reports);
        assert_eq!(src.poll_event(), SourcePoll::End, "End is sticky");
    }

    #[test]
    fn iter_source_takes_sflow_samples_too() {
        let samples: Vec<_> = (0..3).map(sample).collect();
        let mut src = IterSource::from(samples.clone());
        let got = drain(&mut src);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].event, TelemetryEvent::Sflow(samples[0]));
        assert_eq!(got[0].truth, None);
    }

    #[test]
    fn channel_source_idles_then_ends() {
        let (tx, mut src) = ChannelSource::bounded(4);
        assert_eq!(src.poll_event(), SourcePoll::Idle);
        tx.send(report(1).into()).unwrap();
        assert_eq!(
            src.poll_event(),
            SourcePoll::Event(Box::new(report(1).into()))
        );
        drop(tx);
        assert_eq!(src.poll_event(), SourcePoll::End);
    }

    /// One input through the single constructor: native-timestamp order,
    /// every label still on its event, and both poll methods agreeing.
    fn assert_replays<E: Into<LabeledEvent> + Clone>(input: &[E], name: &str) {
        let mut expected: Vec<LabeledEvent> = input.iter().cloned().map(Into::into).collect();
        expected.sort_by_key(|e| e.event.event_ns());
        let got = drain(&mut ReplaySource::new(input.iter().cloned()));
        assert_eq!(got, expected, "{name}");
        let times: Vec<u64> = got.iter().map(|e| e.event.event_ns()).collect();
        assert!(times.is_sorted(), "{name}: {times:?}");
        // 3 leaves a remainder, 7 ends exactly on a batch boundary.
        for max in [1, 3, 7, 64] {
            assert_batch_matches_events(
                ReplaySource::new(input.iter().cloned()),
                ReplaySource::new(input.iter().cloned()),
                max,
            );
        }
    }

    #[test]
    fn replay_source_orders_labels_and_batches_every_backend() {
        // Shuffled tags, one class per tag so a label that left its event
        // shows up in the comparison.
        let tags = [3u32, 6, 1, 0, 5, 2, 4];
        let class = |tag: u32| TrafficClass::ALL[tag as usize % TrafficClass::ALL.len()];
        let reports: Vec<_> = tags.iter().map(|&t| report(t)).collect();
        let samples: Vec<_> = tags.iter().map(|&t| sample(t)).collect();
        let labeled_reports: Vec<_> = tags.iter().map(|&t| (report(t), class(t))).collect();
        let labeled_samples: Vec<_> = tags.iter().map(|&t| (sample(t), class(t))).collect();
        let labeled_digests = crate::event::pint_view(&labeled_reports, 8);
        let digests: Vec<_> = labeled_digests.iter().map(|(d, _)| *d).collect();
        let erased: Vec<LabeledEvent> = labeled_samples.iter().cloned().map(Into::into).collect();

        assert_replays(&reports, "INT");
        assert_replays(&labeled_reports, "INT labeled");
        assert_replays(&samples, "sFlow");
        assert_replays(&labeled_samples, "sFlow labeled");
        assert_replays(&digests, "PINT");
        assert_replays(&labeled_digests, "PINT labeled");
        assert_replays(&erased, "erased");

        // The absolute order and labels, spelled out once per backend.
        let got = drain(&mut ReplaySource::new(labeled_reports));
        assert_eq!(got[0].event, TelemetryEvent::Int(report(0)));
        assert_eq!(got[6].event, TelemetryEvent::Int(report(6)));
        assert_eq!(got[1].truth, Some(class(1)));
        let got = drain(&mut ReplaySource::new(labeled_samples));
        let times: Vec<u64> = got.iter().map(|e| e.event.event_ns()).collect();
        assert_eq!(times, vec![0, 700, 1400, 2100, 2800, 3500, 4200]);
        assert_eq!(got[5].truth, Some(class(5)));
        let got = drain(&mut ReplaySource::new(samples));
        assert!(got.iter().all(|e| e.truth.is_none()));
        let got = drain(&mut ReplaySource::new(labeled_digests));
        assert!(matches!(got[0].event, TelemetryEvent::Pint(_)));
        assert_eq!(got[4].truth, Some(class(4)));
    }

    #[test]
    fn collector_source_decodes_split_chunks() {
        let reports: Vec<_> = (0..6).map(report).collect();
        let stream = IntCollector::encode_stream(&reports);
        let chunks: Vec<Vec<u8>> = stream.chunks(7).map(<[u8]>::to_vec).collect();
        let mut src = CollectorSource::new(chunks.into_iter());
        assert_eq!(int_events(&drain(&mut src)), reports);
        assert_eq!(src.stats().reports_decoded, 6);
    }

    #[test]
    fn collector_source_survives_garbage() {
        let good = report(9);
        let mut bytes = vec![0xde, 0xad, 0xbe, 0xef];
        bytes.extend_from_slice(&IntCollector::encode_stream(std::slice::from_ref(&good)));
        let mut src = CollectorSource::new(vec![bytes].into_iter());
        assert_eq!(int_events(&drain(&mut src)), vec![good]);
        assert!(src.stats().resyncs >= 1);
    }

    #[test]
    fn channel_source_ends_immediately_on_disconnect() {
        let (tx, mut src) = ChannelSource::bounded(8);
        // Buffered events survive the disconnect and drain first…
        tx.send(report(1).into()).unwrap();
        tx.send(report(2).into()).unwrap();
        drop(tx);
        assert_eq!(
            src.poll_event(),
            SourcePoll::Event(Box::new(report(1).into()))
        );
        assert_eq!(
            src.poll_event(),
            SourcePoll::Event(Box::new(report(2).into()))
        );
        // …then the very next poll is End, via the non-blocking
        // disconnect check — not an Idle after a timeout wait.
        let t0 = std::time::Instant::now();
        assert_eq!(src.poll_event(), SourcePoll::End);
        assert!(
            t0.elapsed() < CHANNEL_POLL * 50,
            "disconnect must not wait out recv_timeout"
        );
        // End is sticky.
        assert_eq!(src.poll_event(), SourcePoll::End);
    }

    #[test]
    fn socket_source_fans_in_round_robin_and_recycles() {
        let mb_a = Arc::new(EventMailbox::new(4));
        let mb_b = Arc::new(EventMailbox::new(4));
        mb_a.publish((0..3).map(|i| LabeledEvent::from(report(i))).collect());
        mb_b.publish((10..12).map(|i| LabeledEvent::from(report(i))).collect());
        let mut src = SocketSource::new(vec![Arc::clone(&mb_a), Arc::clone(&mb_b)]);

        // Batch A first (round-robin starts at 0), in published order.
        let mut tags = Vec::new();
        for _ in 0..5 {
            match src.poll_event() {
                SourcePoll::Event(e) => match &e.event {
                    TelemetryEvent::Int(r) => tags.push(r.hops[0].switch_id),
                    other => panic!("unexpected event {other:?}"),
                },
                other => panic!("expected event, got {other:?}"),
            }
        }
        assert_eq!(tags, vec![0, 1, 2, 10, 11]);
        assert_eq!(src.consumed(), 5);

        // Open mailboxes, nothing pending: Idle, not End.
        assert_eq!(src.poll_event(), SourcePoll::Idle);
        mb_a.close();
        mb_b.close();
        assert_eq!(src.poll_event(), SourcePoll::End);

        // Drained shells went home: the next acquire reuses them.
        let recycled = mb_a.acquire();
        assert!(recycled.capacity() >= 3, "shell returned to its mailbox");
    }

    #[test]
    fn socket_source_end_waits_for_pending_batches() {
        let mb = Arc::new(EventMailbox::new(4));
        mb.publish(vec![LabeledEvent::from(report(7))]);
        mb.close(); // producer exits with a batch still queued
        let mut src = SocketSource::new(vec![Arc::clone(&mb)]);
        assert!(matches!(src.poll_event(), SourcePoll::Event(_)));
        assert_eq!(src.poll_event(), SourcePoll::End);
    }

    #[test]
    fn poll_batch_matches_poll_event_for_the_iterator_source() {
        let reports: Vec<_> = (0..7).map(report).collect();
        // 3 leaves a remainder, 7 ends exactly on a batch boundary.
        for max in [1, 3, 7, 64] {
            assert_batch_matches_events(
                IterSource::from(reports.clone()),
                IterSource::from(reports.clone()),
                max,
            );
        }
    }

    #[test]
    fn poll_batch_matches_poll_event_for_the_collector() {
        let reports: Vec<_> = (0..6).map(report).collect();
        let stream = IntCollector::encode_stream(&reports);
        // 7-byte chunks: most complete no report (Idle); whole-stream
        // chunks: several reports per chunk, none split.
        for chunk_len in [7, stream.len()] {
            let source = || {
                let chunks: Vec<Vec<u8>> = stream.chunks(chunk_len).map(<[u8]>::to_vec).collect();
                CollectorSource::new(chunks.into_iter())
            };
            for max in [1, 4, 64] {
                assert_batch_matches_events(source(), source(), max);
            }
        }
        // A batch poll picks up where an event poll stopped: the first
        // event leaves five decoded reports waiting.
        let mut mixed = CollectorSource::new(vec![stream.to_vec()].into_iter());
        assert!(matches!(mixed.poll_event(), SourcePoll::Event(_)));
        let mut out = Vec::new();
        assert_eq!(mixed.poll_batch(&mut out, 64), BatchPoll::End);
        assert_eq!(int_events(&out), reports[1..]);
    }

    #[test]
    fn poll_batch_matches_poll_event_for_live_sources() {
        // Channel: queued events, an Idle while it stays open, then End.
        let feed = || {
            let (tx, src) = ChannelSource::bounded(8);
            for i in 0..5 {
                tx.send(report(i).into()).unwrap();
            }
            (tx, src)
        };
        for max in [2, 5, 64] {
            let ((tx_a, mut a), (tx_b, mut b)) = (feed(), feed());
            let expected = until_pause(&mut a);
            assert_eq!(expected.len(), 6);
            assert_eq!(expected[5], SourcePoll::Idle);
            assert_eq!(until_pause_batched(&mut b, max), expected);
            drop((tx_a, tx_b));
            assert_eq!(until_pause(&mut a), vec![SourcePoll::End]);
            assert_eq!(until_pause_batched(&mut b, max), vec![SourcePoll::End]);
        }

        // Socket: two mailboxes round-robin, Idle while open, End once
        // closed — and a batch poll after an event poll keeps the order.
        let serve = || {
            let mb_a = Arc::new(EventMailbox::new(4));
            let mb_b = Arc::new(EventMailbox::new(4));
            mb_a.publish((0..3).map(|i| LabeledEvent::from(report(i))).collect());
            mb_b.publish((10..12).map(|i| LabeledEvent::from(report(i))).collect());
            mb_a.publish((3..5).map(|i| LabeledEvent::from(report(i))).collect());
            let src = SocketSource::new(vec![Arc::clone(&mb_a), Arc::clone(&mb_b)]);
            ([mb_a, mb_b], src)
        };
        for max in [1, 4, 64] {
            let ((boxes_a, mut a), (boxes_b, mut b)) = (serve(), serve());
            let expected = until_pause(&mut a);
            assert_eq!(expected.len(), 8);
            assert_eq!(until_pause_batched(&mut b, max), expected);
            assert_eq!(b.consumed(), 7);
            for mailbox in boxes_a.iter().chain(&boxes_b) {
                mailbox.close();
            }
            assert_eq!(until_pause(&mut a), vec![SourcePoll::End]);
            assert_eq!(until_pause_batched(&mut b, max), vec![SourcePoll::End]);
        }
        let (boxes, mut mixed) = serve();
        let all = until_pause(&mut serve().1);
        assert!(matches!(mixed.poll_event(), SourcePoll::Event(_)));
        assert_eq!(until_pause_batched(&mut mixed, 64), all[1..]);
        assert_eq!(mixed.consumed(), 7);
        // Every drained shell went home, the half-drained one included.
        assert!(boxes[0].acquire().capacity() >= 2);
    }
}
