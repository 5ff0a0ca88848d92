//! The network-facing collector daemon: sharded socket listeners
//! feeding the zero-alloc decode path.
//!
//! The paper's production deployment runs the INT collector as a
//! network service: sinks export report streams and sFlow agents fire
//! datagrams at a well-known port, and the detection pipeline consumes
//! whatever arrives. This crate is that front end. [`IngestServer`]
//! binds a group of `SO_REUSEPORT` sockets to one port — N listener
//! threads, each owning its own socket, with the kernel's flow hash
//! spreading traffic across the group (so one hot flow cannot starve
//! the others, and no userspace dispatch lock exists at all) — and
//! drains each socket in syscall batches via [`netio::recv_batch`].
//!
//! Every listener thread owns its entire hot path: a fixed
//! [`netio::Frame`] array receives datagrams, the backend decoder
//! ([`amlight_int::IntCollector`] / [`amlight_sflow::SflowCollector`])
//! appends into long-lived scratch, and decoded events accumulate into
//! a pooled batch published to that listener's own
//! [`amlight_core::EventMailbox`]. Nothing is shared between listeners
//! but atomic counters, and the steady-state loop performs zero heap
//! allocations — frames, decoder scratch, and batch shells are all
//! reused.
//!
//! Downstream, [`IngestServer::source`] hands out a
//! [`amlight_core::SocketSource`] that fans the per-listener mailboxes
//! into the pipeline's collection thread, round-robin. Backpressure is
//! explicit: each mailbox holds a bounded number of batches and sheds
//! its oldest when the consumer lags, with counters making every
//! dropped event visible — at any quiet point
//! `events_decoded == consumed + dropped + pending`.
//!
//! Three wire protocols, selected per [`ListenerConfig`]:
//!
//! * [`WireProtocol::SflowUdp`] — one sFlow v5 datagram per UDP
//!   datagram (the standard transport).
//! * [`WireProtocol::IntUdp`] — whole INT reports packed in a UDP
//!   datagram; a report split across datagrams is a decode error, never
//!   reassembled (UDP guarantees neither order nor adjacency).
//! * [`WireProtocol::IntTcp`] — the sink's byte stream over TCP with
//!   cross-read reassembly, one decoder per connection. Listener
//!   threads form a `SO_REUSEPORT` *accept* group; each accepted
//!   connection gets its own handler thread publishing into the
//!   accepting listener's mailbox.
//! * [`WireProtocol::PintUdp`] — PINT probabilistic digests packed in
//!   UDP datagrams; each listener owns a [`amlight_pint::PintCollector`]
//!   whose sketch reconstructs queue state across that listener's
//!   digest stream.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use amlight_core::{EventMailbox, LabeledEvent, SocketSource};
use amlight_int::{IntCollector, TelemetryReport};
use amlight_pint::PintCollector;
use amlight_sflow::SflowCollector;
use netio::{Frame, MAX_BATCH};
use serde::{Deserialize, Serialize};

/// Which telemetry framing a listener group speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireProtocol {
    /// sFlow v5 datagrams over UDP.
    SflowUdp,
    /// Whole INT reports per UDP datagram.
    IntUdp,
    /// The INT sink's report byte stream over TCP.
    IntTcp,
    /// PINT probabilistic per-packet digests over UDP.
    PintUdp,
}

impl WireProtocol {
    pub fn name(self) -> &'static str {
        match self {
            WireProtocol::SflowUdp => "sflow-udp",
            WireProtocol::IntUdp => "int-udp",
            WireProtocol::IntTcp => "int-tcp",
            WireProtocol::PintUdp => "pint-udp",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sflow-udp" => Some(WireProtocol::SflowUdp),
            "int-udp" => Some(WireProtocol::IntUdp),
            "int-tcp" => Some(WireProtocol::IntTcp),
            "pint-udp" => Some(WireProtocol::PintUdp),
            _ => None,
        }
    }

    pub fn is_tcp(self) -> bool {
        matches!(self, WireProtocol::IntTcp)
    }
}

/// How an [`IngestServer`] binds and paces its listener group.
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// Address every group member binds (port 0 picks one shared port).
    pub addr: SocketAddr,
    pub protocol: WireProtocol,
    /// Listener threads, each with its own `SO_REUSEPORT` socket and
    /// mailbox.
    pub listeners: usize,
    /// Bounded mailbox depth, in batches, per listener.
    pub mailbox_batches: usize,
    /// Events per published batch (the mailbox transfer unit).
    pub batch_events: usize,
    /// Socket read timeout: bounds how long a quiet listener blocks
    /// before checking its stop flag and flushing a partial batch.
    pub read_timeout: Duration,
}

impl ListenerConfig {
    pub fn new(addr: SocketAddr, protocol: WireProtocol) -> Self {
        Self {
            addr,
            protocol,
            listeners: 1,
            mailbox_batches: 64,
            batch_events: 256,
            read_timeout: Duration::from_millis(20),
        }
    }

    pub fn listeners(mut self, n: usize) -> Self {
        self.listeners = n.max(1);
        self
    }

    pub fn batch_events(mut self, n: usize) -> Self {
        self.batch_events = n.max(1);
        self
    }

    pub fn mailbox_batches(mut self, n: usize) -> Self {
        self.mailbox_batches = n.max(1);
        self
    }

    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t.max(Duration::from_millis(1));
        self
    }
}

/// Monotonic listener-side counters, shared across all threads of one
/// server. Mailbox-side counters (published/dropped/pending) live on
/// the mailboxes themselves; [`IngestServer::stats`] merges both views.
#[derive(Debug, Default)]
struct Counters {
    /// UDP datagrams received (TCP bytes arrive as a stream and show up
    /// in `bytes` only).
    datagrams: AtomicU64,
    bytes: AtomicU64,
    events_decoded: AtomicU64,
    decode_errors: AtomicU64,
    recv_errors: AtomicU64,
    connections: AtomicU64,
}

/// A point-in-time snapshot of everything an [`IngestServer`] has done.
///
/// At any quiet point (no datagram mid-decode), every decoded event is
/// in exactly one bucket: consumed downstream, shed
/// (`events_dropped`), or still pending in a mailbox — so
/// `events_decoded == consumed + events_dropped + pending_events`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct IngestStats {
    pub datagrams: u64,
    pub bytes: u64,
    pub events_decoded: u64,
    pub decode_errors: u64,
    pub recv_errors: u64,
    pub connections: u64,
    pub events_published: u64,
    pub events_dropped: u64,
    pub batches_published: u64,
    pub batches_dropped: u64,
    pub batches_pending: u64,
}

/// A running listener group bound to one port. Dropping the server (or
/// calling [`IngestServer::shutdown`]) stops every listener, joins the
/// threads, and closes the mailboxes so the downstream [`SocketSource`]
/// drains cleanly to `End`.
pub struct IngestServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    mailboxes: Vec<Arc<EventMailbox>>,
    counters: Arc<Counters>,
}

impl IngestServer {
    /// Bind the listener group and start its threads.
    pub fn bind(cfg: ListenerConfig) -> std::io::Result<IngestServer> {
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let listeners = cfg.listeners.max(1);
        let mut mailboxes = Vec::with_capacity(listeners);
        let mut threads = Vec::with_capacity(listeners);
        let spawn_ctx = |mailbox: &Arc<EventMailbox>| ListenerCtx {
            mailbox: Arc::clone(mailbox),
            counters: Arc::clone(&counters),
            stop: Arc::clone(&stop),
            cfg: cfg.clone(),
        };

        let local_addr;
        if cfg.protocol.is_tcp() {
            let first = netio::bind_tcp_reuseport(cfg.addr, 64)?;
            local_addr = first.local_addr()?;
            let mut socks = vec![first];
            for _ in 1..listeners {
                // The portable fallback cannot double-bind; degrade to
                // sharing the first listener's accept queue.
                let sock = match netio::bind_tcp_reuseport(local_addr, 64) {
                    Ok(s) => s,
                    Err(_) => socks[0].try_clone()?,
                };
                socks.push(sock);
            }
            for (i, sock) in socks.into_iter().enumerate() {
                let mailbox = Arc::new(EventMailbox::new(cfg.mailbox_batches));
                let ctx = spawn_ctx(&mailbox);
                mailboxes.push(mailbox);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("ingest-tcp-{i}"))
                        .spawn(move || run_tcp_listener(sock, ctx))?,
                );
            }
        } else {
            let first = netio::bind_udp_reuseport(cfg.addr)?;
            local_addr = first.local_addr()?;
            let mut socks = vec![first];
            for _ in 1..listeners {
                // Same portable-fallback degradation as TCP: share one
                // socket when the platform can't bind a reuseport group.
                let sock = match netio::bind_udp_reuseport(local_addr) {
                    Ok(s) => s,
                    Err(_) => socks[0].try_clone()?,
                };
                socks.push(sock);
            }
            for (i, sock) in socks.into_iter().enumerate() {
                sock.set_read_timeout(Some(cfg.read_timeout))?;
                let mailbox = Arc::new(EventMailbox::new(cfg.mailbox_batches));
                let ctx = spawn_ctx(&mailbox);
                mailboxes.push(mailbox);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("ingest-udp-{i}"))
                        .spawn(move || run_udp_listener(sock, ctx))?,
                );
            }
        }
        Ok(IngestServer {
            local_addr,
            stop,
            threads,
            mailboxes,
            counters,
        })
    }

    /// The port the whole group shares (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A fan-in source over this server's mailboxes, for
    /// `ThreadedPipeline` or direct draining. One consumer at a time is
    /// the intended shape — concurrent sources would race for batches.
    pub fn source(&self) -> SocketSource {
        SocketSource::new(self.mailboxes.clone())
    }

    /// Direct mailbox access for consumers that want batch granularity
    /// (the loopback bench drains these without boxing events).
    pub fn mailboxes(&self) -> &[Arc<EventMailbox>] {
        &self.mailboxes
    }

    /// Merged listener + mailbox counters.
    pub fn stats(&self) -> IngestStats {
        let c = &self.counters;
        let mut s = IngestStats {
            datagrams: c.datagrams.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            events_decoded: c.events_decoded.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            recv_errors: c.recv_errors.load(Ordering::Relaxed),
            connections: c.connections.load(Ordering::Relaxed),
            ..IngestStats::default()
        };
        for mb in &self.mailboxes {
            s.events_published += mb.published_events();
            s.events_dropped += mb.dropped_events();
            s.batches_published += mb.published_batches();
            s.batches_dropped += mb.dropped_batches();
            s.batches_pending += mb.pending_batches() as u64;
        }
        s
    }

    /// Stop listeners, join threads, close mailboxes. Pending batches
    /// stay poppable; a [`SocketSource`] then drains them and reports
    /// `End`.
    pub fn shutdown(mut self) -> IngestStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Listener threads close their own mailbox on exit; closing
        // again here is an idempotent safety net (a panicked thread
        // must not leave the consumer spinning forever).
        for mb in &self.mailboxes {
            mb.close();
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for IngestServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestServer")
            .field("local_addr", &self.local_addr)
            .field("listeners", &self.mailboxes.len())
            .finish()
    }
}

/// Everything one listener thread owns besides its socket.
struct ListenerCtx {
    mailbox: Arc<EventMailbox>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    cfg: ListenerConfig,
}

/// Publish `batch` and hand back a recycled (or fresh-from-pool) shell.
/// Empty batches skip the mailbox entirely: idle flushes are free.
// amlint: hot
fn flush(mailbox: &EventMailbox, batch: Vec<LabeledEvent>) -> Vec<LabeledEvent> {
    if batch.is_empty() {
        return batch;
    }
    mailbox.publish(batch);
    mailbox.acquire()
}

/// The UDP hot loop: one `recvmmsg` batch per iteration, decoded into
/// per-thread scratch, events appended to the pooled outgoing batch.
/// Zero steady-state allocations — frames, decoder scratch, and batch
/// shells are all reused.
// amlint: hot
fn run_udp_listener(sock: UdpSocket, ctx: ListenerCtx) {
    // amlint: cold -- one-time listener setup before the loop
    let mut frames = vec![Frame::new(); MAX_BATCH];
    let mut sflow = SflowCollector::new();
    // amlint: cold -- one-time listener setup before the loop
    let mut pint = PintCollector::new(amlight_pint::SketchConfig::default());
    // amlint: cold -- one-time listener setup before the loop
    let mut reports: Vec<TelemetryReport> = Vec::with_capacity(ctx.cfg.batch_events.min(1024));
    let mut batch = ctx.mailbox.acquire();
    let mut sflow_errors = 0u64;
    let mut pint_errors = 0u64;

    while !ctx.stop.load(Ordering::Relaxed) {
        let got = match netio::recv_batch(&sock, &mut frames) {
            Ok(n) => n,
            Err(_) => {
                ctx.counters.recv_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        if got == 0 {
            // Quiet interval: bound latency by flushing what we have.
            batch = flush(&ctx.mailbox, batch);
            continue;
        }
        ctx.counters
            .datagrams
            .fetch_add(got as u64, Ordering::Relaxed);
        let mut bytes = 0u64;
        let mut decoded = 0u64;
        let mut errors = 0u64;
        for frame in frames.iter().take(got) {
            let payload = frame.payload();
            bytes += payload.len() as u64;
            match ctx.cfg.protocol {
                WireProtocol::SflowUdp => {
                    if sflow.ingest(payload).is_err() {
                        // The collector classifies the reject in its own
                        // stats; mirror the delta outward.
                        errors += sflow.decode_errors() - sflow_errors;
                        sflow_errors = sflow.decode_errors();
                    }
                    for s in sflow.samples() {
                        // amlint: cold -- pooled batch shell from mailbox.acquire()
                        batch.push(LabeledEvent::new((*s).into()));
                    }
                    decoded += sflow.samples().len() as u64;
                    sflow.clear_samples();
                }
                WireProtocol::IntUdp => {
                    let outcome = IntCollector::decode_datagram_into(payload, &mut reports);
                    errors += u64::from(outcome.decode_errors);
                    decoded += reports.len() as u64;
                    for r in reports.drain(..) {
                        // amlint: cold -- pooled batch shell from mailbox.acquire()
                        batch.push(LabeledEvent::new(r.into()));
                    }
                }
                WireProtocol::PintUdp => {
                    if pint.ingest(payload).is_err() {
                        // The collector classifies the reject in its own
                        // stats; mirror the delta outward.
                        errors += pint.decode_errors() - pint_errors;
                        pint_errors = pint.decode_errors();
                    }
                    for r in pint.reports() {
                        // amlint: cold -- pooled batch shell from mailbox.acquire()
                        batch.push(LabeledEvent::new((*r).into()));
                    }
                    decoded += pint.reports().len() as u64;
                    // Keeps the allocation and the sketch; only the
                    // drained digests go.
                    pint.clear_reports();
                }
                // TCP traffic never reaches the UDP loop.
                WireProtocol::IntTcp => {}
            }
            if batch.len() >= ctx.cfg.batch_events {
                batch = flush(&ctx.mailbox, batch);
            }
        }
        ctx.counters.bytes.fetch_add(bytes, Ordering::Relaxed);
        ctx.counters
            .events_decoded
            .fetch_add(decoded, Ordering::Relaxed);
        if errors > 0 {
            ctx.counters
                .decode_errors
                .fetch_add(errors, Ordering::Relaxed);
        }
    }
    let batch = flush(&ctx.mailbox, batch);
    ctx.mailbox.recycle(batch);
    ctx.mailbox.close();
}

/// The TCP accept loop: nonblocking accept on this thread's reuseport
/// listening socket, one handler thread per connection. Handlers
/// publish into the accepting listener's mailbox; the mailbox closes
/// only after every handler has drained its final batch.
fn run_tcp_listener(listener: TcpListener, ctx: ListenerCtx) {
    if listener.set_nonblocking(true).is_err() {
        ctx.mailbox.close();
        return;
    }
    let accept_pause = ctx.cfg.read_timeout.min(Duration::from_millis(5));
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !ctx.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                ctx.counters.connections.fetch_add(1, Ordering::Relaxed);
                let conn = ConnCtx {
                    mailbox: Arc::clone(&ctx.mailbox),
                    counters: Arc::clone(&ctx.counters),
                    stop: Arc::clone(&ctx.stop),
                    batch_events: ctx.cfg.batch_events,
                    read_timeout: ctx.cfg.read_timeout,
                };
                match std::thread::Builder::new()
                    .name("ingest-conn".to_string())
                    .spawn(move || run_tcp_conn(stream, conn))
                {
                    Ok(h) => handlers.push(h),
                    Err(_) => {
                        ctx.counters.recv_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Reap finished handlers so a long-lived server doesn't
                // accumulate join handles.
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(accept_pause);
            }
            Err(_) => {
                ctx.counters.recv_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(accept_pause);
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    ctx.mailbox.close();
}

struct ConnCtx {
    mailbox: Arc<EventMailbox>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    batch_events: usize,
    read_timeout: Duration,
}

/// One TCP connection: the sink's byte stream through a per-connection
/// streaming [`IntCollector`] (cross-read reassembly), batching into
/// the accepting listener's mailbox.
// amlint: hot
fn run_tcp_conn(stream: TcpStream, ctx: ConnCtx) {
    if stream.set_read_timeout(Some(ctx.read_timeout)).is_err() {
        return;
    }
    let mut stream = stream;
    let mut buf = [0u8; 8192];
    let mut collector = IntCollector::new();
    // amlint: cold -- one-time per-connection setup before the loop
    let mut reports: Vec<TelemetryReport> = Vec::with_capacity(ctx.batch_events.min(1024));
    let mut batch = ctx.mailbox.acquire();
    let mut seen_errors = 0u64;

    while !ctx.stop.load(Ordering::Relaxed) {
        match stream.read(&mut buf) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                ctx.counters.bytes.fetch_add(n as u64, Ordering::Relaxed);
                collector.ingest_into(&buf[..n], &mut reports);
                let stats = collector.stats();
                if stats.decode_errors > seen_errors {
                    ctx.counters
                        .decode_errors
                        .fetch_add(stats.decode_errors - seen_errors, Ordering::Relaxed);
                    seen_errors = stats.decode_errors;
                }
                ctx.counters
                    .events_decoded
                    .fetch_add(reports.len() as u64, Ordering::Relaxed);
                for r in reports.drain(..) {
                    // amlint: cold -- pooled batch shell from mailbox.acquire()
                    batch.push(LabeledEvent::new(r.into()));
                    if batch.len() >= ctx.batch_events {
                        batch = flush(&ctx.mailbox, batch);
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Quiet connection: flush what we have, stay subscribed.
                batch = flush(&ctx.mailbox, batch);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                ctx.counters.recv_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    let batch = flush(&ctx.mailbox, batch);
    ctx.mailbox.recycle(batch);
    // A report truncated by the connection dying can never complete.
    if collector.pending_bytes() > 0 {
        ctx.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_core::{EventSource, SourcePoll, Telemetry};
    use amlight_int::{HopMetadata, InstructionSet};
    use amlight_net::{FlowKey, Protocol};
    use amlight_sflow::{batch_into_datagrams, FlowSample};
    use std::io::Write;
    use std::net::Ipv4Addr;

    fn cfg(protocol: WireProtocol) -> ListenerConfig {
        ListenerConfig::new("127.0.0.1:0".parse().unwrap(), protocol)
            .read_timeout(Duration::from_millis(10))
            .batch_events(32)
    }

    fn int_report(tag: u32) -> TelemetryReport {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                (1000 + (tag % 60000)) as u16,
                80,
                Protocol::Tcp,
            ),
            ip_len: 120,
            tcp_flags: Some(0x02),
            instructions: InstructionSet::amlight(),
            hops: vec![HopMetadata {
                switch_id: tag,
                ..Default::default()
            }]
            .into(),
            export_ns: u64::from(tag) * 100,
        }
    }

    fn sflow_sample(tag: u16) -> FlowSample {
        FlowSample {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 3),
                Ipv4Addr::new(10, 0, 0, 4),
                2000 + tag,
                443,
                Protocol::Udp,
            ),
            ip_len: 90,
            tcp_flags: None,
            observed_ns: u64::from(tag) * 1000,
            sampling_period: 64,
        }
    }

    /// Drain a server's source until `want` events arrive, End, or a
    /// deadline.
    fn drain_events(source: &mut SocketSource, want: usize) -> Vec<LabeledEvent> {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut out = Vec::new();
        while out.len() < want && std::time::Instant::now() < deadline {
            match source.poll_event() {
                SourcePoll::Event(e) => out.push(*e),
                SourcePoll::Idle => std::thread::sleep(Duration::from_millis(1)),
                SourcePoll::End => break,
            }
        }
        out
    }

    #[test]
    fn sflow_udp_roundtrip_through_the_server() {
        let server = IngestServer::bind(cfg(WireProtocol::SflowUdp)).unwrap();
        let addr = server.local_addr();
        let samples: Vec<FlowSample> = (0..40).map(sflow_sample).collect();
        let grams = batch_into_datagrams(Ipv4Addr::new(9, 9, 9, 9), &samples, 8);
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        for g in &grams {
            tx.send_to(g, addr).unwrap();
        }
        let mut source = server.source();
        let got = drain_events(&mut source, samples.len());
        assert_eq!(got.len(), samples.len());
        let stats = server.shutdown();
        assert_eq!(stats.events_decoded, 40);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.datagrams as usize, grams.len());
        // Source reports End once the closed mailboxes are dry.
        assert!(matches!(source.poll_event(), SourcePoll::End));
    }

    #[test]
    fn int_udp_roundtrip_preserves_flow_keys() {
        let server = IngestServer::bind(cfg(WireProtocol::IntUdp)).unwrap();
        let addr = server.local_addr();
        let reports: Vec<TelemetryReport> = (0..30).map(int_report).collect();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        // 3 reports per datagram.
        for chunk in reports.chunks(3) {
            let dgram = IntCollector::encode_stream(chunk);
            tx.send_to(&dgram, addr).unwrap();
        }
        let mut source = server.source();
        let got = drain_events(&mut source, reports.len());
        assert_eq!(got.len(), reports.len());
        let mut want_flows: Vec<FlowKey> = reports.iter().map(|r| r.flow).collect();
        let mut got_flows: Vec<FlowKey> = got.iter().map(|e| e.event.flow()).collect();
        want_flows.sort_unstable_by_key(|f| f.src_port);
        got_flows.sort_unstable_by_key(|f| f.src_port);
        assert_eq!(got_flows, want_flows);
        let stats = server.shutdown();
        assert_eq!(stats.events_decoded, 30);
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn int_tcp_stream_reassembles_across_reads() {
        let server = IngestServer::bind(cfg(WireProtocol::IntTcp)).unwrap();
        let addr = server.local_addr();
        let reports: Vec<TelemetryReport> = (0..25).map(int_report).collect();
        let stream_bytes = IntCollector::encode_stream(&reports);
        let mut tx = std::net::TcpStream::connect(addr).unwrap();
        // Dribble in 11-byte writes to force cross-read reassembly.
        for chunk in stream_bytes.chunks(11) {
            tx.write_all(chunk).unwrap();
            tx.flush().unwrap();
        }
        drop(tx);
        let mut source = server.source();
        let got = drain_events(&mut source, reports.len());
        assert_eq!(got.len(), reports.len());
        let stats = server.shutdown();
        assert_eq!(stats.events_decoded, 25);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn malformed_datagrams_are_counted_never_fatal() {
        let server = IngestServer::bind(cfg(WireProtocol::IntUdp)).unwrap();
        let addr = server.local_addr();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        // Garbage, then a truncated report, then a good one.
        tx.send_to(&[0xde, 0xad, 0xbe, 0xef, 0x00], addr).unwrap();
        let good = IntCollector::encode_stream(&[int_report(7)]);
        tx.send_to(&good[..good.len() / 2], addr).unwrap();
        tx.send_to(&good, addr).unwrap();
        let mut source = server.source();
        let got = drain_events(&mut source, 1);
        assert_eq!(got.len(), 1);
        let stats = server.shutdown();
        assert_eq!(stats.events_decoded, 1);
        assert!(stats.decode_errors >= 2, "garbage + truncated both counted");
        assert_eq!(stats.datagrams, 3);
    }

    #[test]
    fn slow_consumer_accounting_is_exact() {
        // Tiny mailbox + no consumer while sending: most
        // events shed, and decoded == drained + dropped exactly.
        let server =
            IngestServer::bind(cfg(WireProtocol::IntUdp).mailbox_batches(2).batch_events(4))
                .unwrap();
        let addr = server.local_addr();
        let mut source = server.source();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        for i in 0..200u32 {
            let dgram = IntCollector::encode_stream(&[int_report(i)]);
            tx.send_to(&dgram, addr).unwrap();
        }
        // Give listeners time to drain the socket and shed.
        std::thread::sleep(Duration::from_millis(300));
        let stats = server.shutdown();
        assert!(stats.events_dropped > 0, "tiny mailbox must shed");
        // Drain what survived; every decoded event is now accounted for.
        let drained = drain_events(&mut source, usize::MAX).len() as u64;
        assert_eq!(drained + stats.events_dropped, stats.events_decoded);
    }

    #[test]
    fn listener_group_binds_n_sockets_on_one_port() {
        let server = IngestServer::bind(cfg(WireProtocol::SflowUdp).listeners(4)).unwrap();
        assert_eq!(server.mailboxes().len(), 4);
        let addr = server.local_addr();
        // Many source ports spread across the group; all must arrive.
        let samples = [sflow_sample(1)];
        let grams = batch_into_datagrams(Ipv4Addr::new(9, 9, 9, 9), &samples, 8);
        for _ in 0..32 {
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            tx.send_to(&grams[0], addr).unwrap();
        }
        let mut source = server.source();
        let got = drain_events(&mut source, 32);
        assert_eq!(got.len(), 32);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent_under_drop() {
        let server = IngestServer::bind(cfg(WireProtocol::IntTcp).listeners(2)).unwrap();
        let t0 = std::time::Instant::now();
        drop(server); // Drop path: stop + join + close.
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn pint_udp_roundtrip_annotates_queue_state() {
        let server = IngestServer::bind(cfg(WireProtocol::PintUdp)).unwrap();
        let addr = server.local_addr();
        // Digest a synthetic packet stream: every event for one flow so
        // the listener-side sketch sees queue digests before latency
        // digests and can annotate the latter.
        let enc = amlight_pint::PintEncoder::new(8);
        let reports: Vec<amlight_pint::PintReport> = (0..40u32)
            .map(|i| {
                let r = int_report(1); // one flow, consecutive export times
                enc.encode(
                    r.flow,
                    r.ip_len,
                    r.tcp_flags,
                    u64::from(i) * 100,
                    &[(12, 500)],
                )
            })
            .collect();
        let grams = amlight_pint::batch_into_datagrams(Ipv4Addr::new(9, 9, 9, 9), &reports, 8);
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        for g in &grams {
            tx.send_to(g, addr).unwrap();
        }
        let mut source = server.source();
        let got = drain_events(&mut source, reports.len());
        assert_eq!(got.len(), reports.len());
        for e in &got {
            assert_eq!(e.event.flow(), int_report(1).flow);
        }
        let stats = server.shutdown();
        assert_eq!(stats.events_decoded, 40);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.datagrams as usize, grams.len());
    }

    #[test]
    fn pint_udp_garbage_is_counted_never_fatal() {
        let server = IngestServer::bind(cfg(WireProtocol::PintUdp)).unwrap();
        let addr = server.local_addr();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(&[0x91, 0x4f, 0x00], addr).unwrap(); // truncated header
        let r = int_report(3);
        let enc = amlight_pint::PintEncoder::new(8);
        let good = amlight_pint::batch_into_datagrams(
            Ipv4Addr::new(9, 9, 9, 9),
            &[enc.encode(r.flow, r.ip_len, r.tcp_flags, r.export_ns, &[(3, 700)])],
            4,
        );
        tx.send_to(&good[0], addr).unwrap();
        let mut source = server.source();
        let got = drain_events(&mut source, 1);
        assert_eq!(got.len(), 1);
        let stats = server.shutdown();
        assert_eq!(stats.events_decoded, 1);
        assert!(stats.decode_errors >= 1, "garbage datagram counted");
    }

    #[test]
    fn wire_protocol_parse_roundtrips() {
        for p in [
            WireProtocol::SflowUdp,
            WireProtocol::IntUdp,
            WireProtocol::IntTcp,
            WireProtocol::PintUdp,
        ] {
            assert_eq!(WireProtocol::parse(p.name()), Some(p));
        }
        assert_eq!(WireProtocol::parse("netconf"), None);
    }
}
