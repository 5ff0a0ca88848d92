//! Flow-hash shard routing — the "faster processing capabilities" the
//! paper's §V calls for before production deployment.
//!
//! The flow table is an associative map keyed by the five-tuple, so it
//! shards perfectly: hash each event's flow key to a shard, give every
//! shard its own [`crate::FlowTable`] on its own thread, and no lock is
//! ever contended. Per-flow update order is preserved because a flow
//! always lands in the same shard and shard-local processing is
//! sequential.

use amlight_net::flow::FnvBuildHasher;
use amlight_net::FlowKey;
use std::hash::BuildHasher;

/// Routes flow keys to shards with a bitmask over the FNV hash.
///
/// The shard count is always a power of two (requests are rounded up),
/// so routing is `hash & mask` instead of an integer modulo — the
/// division would otherwise sit in the per-report hot path of every
/// sharded consumer. The threaded runtime's collection→shard fan-out
/// (`ThreadedPipeline::with_shards`) routes with it.
#[derive(Debug, Clone, Default)]
pub struct ShardRouter {
    hasher: FnvBuildHasher,
    mask: u64,
}

impl ShardRouter {
    /// Router for at least `min_shards` shards, rounded up to the next
    /// power of two.
    pub fn new(min_shards: usize) -> Self {
        assert!(min_shards >= 1, "need at least one shard");
        Self {
            hasher: FnvBuildHasher::default(),
            mask: min_shards.next_power_of_two() as u64 - 1,
        }
    }

    /// The actual (power-of-two) shard count.
    pub fn shard_count(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Shard index for a flow key.
    #[inline]
    pub fn route(&self, flow: FlowKey) -> usize {
        (self.hasher.hash_one(flow) & self.mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_net::Protocol;
    use std::net::Ipv4Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            port,
            80,
            Protocol::Tcp,
        )
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardRouter::new(0);
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        for (requested, actual) in [(1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16)] {
            assert_eq!(
                ShardRouter::new(requested).shard_count(),
                actual,
                "requested {requested}"
            );
        }
    }

    #[test]
    fn router_mask_matches_modulo_for_pow2() {
        // With a power-of-two shard count, `hash & mask` must equal
        // `hash % count` — the routing change is pure strength reduction.
        let router = ShardRouter::new(8);
        let hasher = FnvBuildHasher::default();
        for i in 0..200u16 {
            let key = key(1000 + i % 64);
            let h = hasher.hash_one(key);
            assert_eq!(router.route(key), (h % 8) as usize);
        }
    }
}
