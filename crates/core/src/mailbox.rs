//! Bounded event mailboxes: the backpressure boundary between network
//! listener threads and the pipeline's collection stage.
//!
//! A live collector cannot block its listener threads on a slow
//! consumer — a stalled `recvmmsg` loop turns into kernel-side socket
//! buffer overflow, which drops datagrams invisibly. Instead each
//! listener publishes [`LabeledEvent`] *batches* into an
//! [`EventMailbox`] with a hard capacity; when the consumer falls
//! behind, a full mailbox evicts its oldest queued batch to make room
//! for the new one — the consumer sees the freshest traffic, which is
//! what a detector wants (stale telemetry ages out of the flow windows
//! anyway) — and sheds that load measurably (per-mailbox drop counters)
//! instead of unboundedly (heap growth) or invisibly (kernel drops).
//!
//! Batches, not events, are the unit of transfer: one mutex
//! acquisition moves up to a whole receive batch across the thread
//! boundary, and drained batch shells recycle through a free list so
//! the steady-state listener hot loop allocates nothing.

use crate::event::LabeledEvent;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Queue + free list, behind one mutex. Shells move between the two
/// sides but are never freed in steady state.
struct Inner {
    ready: VecDeque<Vec<LabeledEvent>>,
    free: Vec<Vec<LabeledEvent>>,
}

/// A bounded, drop-oldest queue of event batches. One producer
/// (a listener thread) and one consumer (the collection stage's
/// [`crate::source::SocketSource`]) in the intended topology, though
/// nothing breaks with more of either.
pub struct EventMailbox {
    inner: Mutex<Inner>,
    /// Most `ready` batches held at once.
    capacity: usize,
    closed: AtomicBool,
    published_batches: AtomicU64,
    published_events: AtomicU64,
    dropped_batches: AtomicU64,
    dropped_events: AtomicU64,
}

impl EventMailbox {
    /// A mailbox holding at most `capacity` pending batches (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            // Both sides at their bounds up front (`free` admits one
            // shell past `capacity`), so `publish` and `recycle` never
            // grow them at a new queue-depth high-water mark.
            inner: Mutex::new(Inner {
                ready: VecDeque::with_capacity(capacity),
                free: Vec::with_capacity(capacity + 1),
            }),
            capacity,
            closed: AtomicBool::new(false),
            published_batches: AtomicU64::new(0),
            published_events: AtomicU64::new(0),
            dropped_batches: AtomicU64::new(0),
            dropped_events: AtomicU64::new(0),
        }
    }

    /// Take an empty batch shell to fill — recycled when available,
    /// fresh otherwise. The steady state never allocates: every shell
    /// the consumer recycles comes back through here.
    // amlint: hot
    pub fn acquire(&self) -> Vec<LabeledEvent> {
        self.inner.lock().free.pop().unwrap_or_default()
    }

    /// Publish a filled batch. Returns how many *events* of the oldest
    /// queued batch were shed to honor the capacity bound (0 = stored
    /// cleanly). Empty batches are recycled without occupying a slot.
    // amlint: hot
    pub fn publish(&self, batch: Vec<LabeledEvent>) -> usize {
        if batch.is_empty() {
            self.recycle(batch);
            return 0;
        }
        let incoming = batch.len();
        let mut shed = 0usize;
        let mut guard = self.inner.lock();
        if guard.ready.len() >= self.capacity {
            if let Some(mut oldest) = guard.ready.pop_front() {
                shed = oldest.len();
                oldest.clear();
                if guard.free.len() <= self.capacity {
                    // amlint: cold -- capacity-bounded free list of recycled shells
                    guard.free.push(oldest);
                }
            }
        }
        // amlint: cold -- below `capacity`, or in the slot pop_front just vacated
        guard.ready.push_back(batch);
        drop(guard);
        if shed > 0 {
            self.dropped_batches.fetch_add(1, Ordering::Relaxed);
            self.dropped_events
                .fetch_add(shed as u64, Ordering::Relaxed);
        }
        self.published_batches.fetch_add(1, Ordering::Relaxed);
        self.published_events
            .fetch_add(incoming as u64, Ordering::Relaxed);
        shed
    }

    /// Take the oldest pending batch, if any.
    // amlint: hot
    pub fn pop(&self) -> Option<Vec<LabeledEvent>> {
        self.inner.lock().ready.pop_front()
    }

    /// Return a drained shell to the free list (capacity-bounded so a
    /// burst can't permanently hoard memory).
    // amlint: hot
    pub fn recycle(&self, mut batch: Vec<LabeledEvent>) {
        batch.clear();
        let mut guard = self.inner.lock();
        if guard.free.len() <= self.capacity {
            // amlint: cold -- capacity-bounded free list of recycled shells
            guard.free.push(batch);
        }
    }

    /// Mark the producer gone. Pending batches stay poppable; a closed
    /// *and* empty mailbox is end-of-stream.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closed and nothing left to pop: this mailbox will never yield
    /// another event.
    pub fn is_finished(&self) -> bool {
        self.is_closed() && self.inner.lock().ready.is_empty()
    }

    /// Pending (published, not yet popped) batches.
    pub fn pending_batches(&self) -> usize {
        self.inner.lock().ready.len()
    }

    /// Batches accepted into the queue so far.
    pub fn published_batches(&self) -> u64 {
        self.published_batches.load(Ordering::Relaxed)
    }

    /// Events accepted into the queue so far.
    pub fn published_events(&self) -> u64 {
        self.published_events.load(Ordering::Relaxed)
    }

    /// Batches shed on overflow.
    pub fn dropped_batches(&self) -> u64 {
        self.dropped_batches.load(Ordering::Relaxed)
    }

    /// Events shed on overflow. Together with the consumer's
    /// tally this accounts for every published event:
    /// `published_events == consumed + dropped_events + pending`.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for EventMailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventMailbox")
            .field("capacity", &self.capacity)
            .field("pending", &self.pending_batches())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_int::{HopMetadata, InstructionSet, TelemetryReport};
    use amlight_net::{FlowKey, Protocol};
    use std::net::Ipv4Addr;

    fn event(tag: u32) -> LabeledEvent {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                (1000 + tag) as u16,
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
            export_ns: u64::from(tag),
        }
        .into()
    }

    fn batch(tags: std::ops::Range<u32>) -> Vec<LabeledEvent> {
        tags.map(event).collect()
    }

    #[test]
    fn publish_pop_roundtrip_in_order() {
        let mb = EventMailbox::new(4);
        assert_eq!(mb.publish(batch(0..3)), 0);
        assert_eq!(mb.publish(batch(3..5)), 0);
        assert_eq!(mb.pop().map(|b| b.len()), Some(3));
        assert_eq!(mb.pop().map(|b| b.len()), Some(2));
        assert!(mb.pop().is_none());
        assert_eq!(mb.published_events(), 5);
        assert_eq!(mb.dropped_events(), 0);
    }

    #[test]
    fn drop_oldest_sheds_the_front() {
        let mb = EventMailbox::new(2);
        mb.publish(batch(0..1)); // oldest
        mb.publish(batch(1..3));
        assert_eq!(mb.publish(batch(3..6)), 1, "one event shed from front");
        // The survivor queue is the two newest batches.
        assert_eq!(mb.pop().map(|b| b.len()), Some(2));
        assert_eq!(mb.pop().map(|b| b.len()), Some(3));
        assert_eq!(mb.dropped_batches(), 1);
        assert_eq!(mb.dropped_events(), 1);
        // All three published batches counted; accounting stays exact:
        // published == consumed + dropped.
        assert_eq!(mb.published_events(), 6);
        assert_eq!(mb.published_events(), 5 + mb.dropped_events());
    }

    #[test]
    fn shells_recycle_through_the_free_list() {
        let mb = EventMailbox::new(4);
        let mut shell = mb.acquire();
        let baseline_ptr = {
            shell.extend(batch(0..4));
            shell.as_ptr() as usize
        };
        mb.publish(shell);
        let popped = mb.pop().expect("one pending batch");
        mb.recycle(popped);
        let again = mb.acquire();
        assert!(again.capacity() >= 4, "capacity survives recycling");
        assert_eq!(again.as_ptr() as usize, baseline_ptr, "same allocation");
        assert!(again.is_empty());
    }

    #[test]
    fn queue_and_free_list_never_regrow_up_to_capacity() {
        let mb = EventMailbox::new(8);
        let capacities = || {
            let inner = mb.inner.lock();
            (inner.ready.capacity(), inner.free.capacity())
        };
        let at_rest = capacities();
        // Fill past the bound (the overflow sheds into `free`), drain
        // everything, and send every shell home — twice, so the
        // second lap runs on recycled shells.
        for _ in 0..2 {
            for tag in 0..10 {
                let mut shell = mb.acquire();
                shell.push(event(tag));
                mb.publish(shell);
                assert_eq!(capacities(), at_rest, "publish {tag}");
            }
            assert_eq!(mb.pending_batches(), 8);
            let popped: Vec<_> = std::iter::from_fn(|| mb.pop()).collect();
            for shell in popped {
                mb.recycle(shell);
                assert_eq!(capacities(), at_rest, "recycle");
            }
        }
    }

    #[test]
    fn close_then_drain_then_finished() {
        let mb = EventMailbox::new(4);
        mb.publish(batch(0..2));
        mb.close();
        assert!(mb.is_closed());
        assert!(!mb.is_finished(), "pending batches still poppable");
        assert_eq!(mb.pop().map(|b| b.len()), Some(2));
        assert!(mb.is_finished());
    }

    #[test]
    fn empty_batches_do_not_occupy_slots() {
        let mb = EventMailbox::new(1);
        mb.publish(Vec::new());
        assert_eq!(mb.pending_batches(), 0);
        assert_eq!(mb.publish(batch(0..1)), 0, "slot still free");
    }
}
