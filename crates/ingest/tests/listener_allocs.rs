//! The `IngestServer` listener loop and its mailbox hand-off perform zero
//! heap acquisitions in steady state while real loopback datagrams flow.
//!
//! One `#[test]` per binary: [`stats_alloc`] counts process-wide — sender,
//! four listeners and consumer here, and any sibling test there was.

use amlight_core::{EventMailbox, LabeledEvent};
use amlight_ingest::{IngestServer, ListenerConfig, WireProtocol};
use amlight_int::{HopMetadata, InstructionSet, IntCollector, TelemetryReport};
use amlight_net::{FlowKey, Protocol};
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: stats_alloc::StatsAlloc = stats_alloc::StatsAlloc;

const REPORTS_PER_DATAGRAM: u32 = 8;

fn report(tag: u32) -> TelemetryReport {
    let src = Ipv4Addr::new(10, (tag >> 8) as u8, tag as u8, 1);
    let dst = Ipv4Addr::new(10, 99, 99, 2);
    TelemetryReport {
        flow: FlowKey::new(src, dst, (1024 + tag % 32768) as u16, 80, Protocol::Tcp),
        ip_len: 120,
        tcp_flags: Some(0x02),
        instructions: InstructionSet::amlight(),
        hops: vec![HopMetadata::default()].into(),
        export_ns: u64::from(tag) * 800,
    }
}

/// `sendmmsg` the pre-chunked corpus for `window`, rotating sockets.
/// Allocates nothing; returns datagrams sent.
fn blast(socks: &[UdpSocket], chunks: &[&[&[u8]]], window: Duration) -> u64 {
    let (mut sent, t0) = (0u64, Instant::now());
    for i in (0..).take_while(|_| t0.elapsed() < window) {
        match netio::send_batch(&socks[i % socks.len()], chunks[i % chunks.len()]) {
            Ok(n) => sent += n as u64,
            Err(_) => std::thread::yield_now(), // loopback under pressure (ENOBUFS)
        }
    }
    sent
}

#[test]
fn listener_loop_and_mailbox_handoff_allocate_nothing_in_steady_state() {
    let cfg = ListenerConfig::new("127.0.0.1:0".parse().unwrap(), WireProtocol::IntUdp)
        .listeners(4)
        .mailbox_batches(256)
        .read_timeout(Duration::from_millis(5));
    // A full batch plus one receive batch of overshoot; one shell per
    // mailbox slot plus the one its listener is filling.
    let shell_len = cfg.batch_events + netio::MAX_BATCH * REPORTS_PER_DATAGRAM as usize;
    let shells_per_mailbox = cfg.mailbox_batches + 1;
    let server = IngestServer::bind(cfg).unwrap();

    // The consumer drains at batch granularity and sends every shell home.
    let stop = Arc::new(AtomicBool::new(false));
    let mailboxes: Vec<Arc<EventMailbox>> = server.mailboxes().to_vec();
    let consumer = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let mut drained = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let before = drained;
                for mb in &mailboxes {
                    if let Some(batch) = mb.pop() {
                        drained += batch.len() as u64;
                        mb.recycle(batch);
                    }
                }
                if drained == before {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            drained
        }
    });

    // Prefill every mailbox's free list to its bound, so no shell grows
    // however the scheduler interleaves the threads.
    for mb in server.mailboxes() {
        let shells: Vec<Vec<LabeledEvent>> =
            (0..shells_per_mailbox).map(|_| mb.acquire()).collect();
        for mut shell in shells {
            shell.reserve(shell_len);
            mb.recycle(shell);
        }
    }

    // Every sender-side buffer exists before the measured region; 16
    // source ports, so the kernel's reuseport hash reaches every listener.
    let datagram = |d: u32| {
        let tags = (0..REPORTS_PER_DATAGRAM).map(|i| d.wrapping_mul(2_654_435_761) ^ i);
        IntCollector::encode_stream(&tags.map(report).collect::<Vec<_>>()).to_vec()
    };
    let corpus: Vec<Vec<u8>> = (0..256).map(datagram).collect();
    let refs: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let chunks: Vec<&[&[u8]]> = refs.chunks(netio::MAX_BATCH).collect();
    let socks: Vec<UdpSocket> = (0..16)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .inspect(|sock| sock.connect(server.local_addr()).unwrap())
        .collect();

    // Warm-up: every listener's decoder scratch reaches its high water.
    blast(&socks, &chunks, Duration::from_millis(80));
    std::thread::sleep(Duration::from_millis(30));

    let before = server.stats();
    let region = stats_alloc::Region::new();
    let sent = blast(&socks, &chunks, Duration::from_millis(200));
    let acquisitions = region.change().acquisitions();
    let after = server.stats();

    stop.store(true, Ordering::Relaxed);
    let drained = consumer.join().unwrap();
    server.shutdown();

    let datagrams = after.datagrams - before.datagrams;
    assert!(sent > 0 && datagrams > 0 && drained > 0, "nothing flowed");
    assert_eq!(after.decode_errors, 0);
    assert_eq!(
        acquisitions, 0,
        "listener hot loop allocated in steady state over {datagrams} datagrams"
    );
}
