//! Flow identification: the five-tuple *Flow ID* and a fast hasher for
//! hot-path flow-table lookups.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

/// Transport protocol carried by a packet.
///
/// The paper's feature set encodes protocol as a feature (paper Table II);
/// the numeric value used there is the IANA protocol number, which
/// [`Protocol::number`] exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Protocol {
    Tcp,
    Udp,
}

impl Protocol {
    /// IANA protocol number (TCP = 6, UDP = 17).
    #[inline]
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }

    /// Inverse of [`Protocol::number`]. Returns `None` for protocols the
    /// reproduction does not model (the paper's pipeline only ingests TCP
    /// and UDP).
    #[inline]
    pub const fn from_number(n: u8) -> Option<Self> {
        match n {
            6 => Some(Protocol::Tcp),
            17 => Some(Protocol::Udp),
            _ => None,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "TCP"),
            Protocol::Udp => write!(f, "UDP"),
        }
    }
}

/// The five-tuple flow identifier ("*Flow ID*", paper §III-2):
/// source IP, destination IP, source port, destination port, protocol.
///
/// `FlowKey` is `Copy`, 13 bytes of payload packed into 16, and hashes
/// quickly under [`FnvHasher`]; the flow table performs one lookup per
/// telemetry report so this is the hottest key type in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    pub src_ip: Ipv4Addr,
    pub dst_ip: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub protocol: Protocol,
}

impl FlowKey {
    pub fn new(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        protocol: Protocol,
    ) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol,
        }
    }

    /// The key of the reverse direction (server → client) of this flow.
    pub fn reversed(&self) -> Self {
        Self {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// Canonical byte encoding used for hashing and for embedding the key
    /// in telemetry reports: `src_ip ‖ dst_ip ‖ src_port ‖ dst_port ‖ proto`.
    pub fn to_bytes(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src_ip.octets());
        b[4..8].copy_from_slice(&self.dst_ip.octets());
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b[12] = self.protocol.number();
        b
    }

    /// Inverse of [`FlowKey::to_bytes`].
    pub fn from_bytes(b: &[u8; 13]) -> Option<Self> {
        Some(Self {
            src_ip: Ipv4Addr::new(b[0], b[1], b[2], b[3]),
            dst_ip: Ipv4Addr::new(b[4], b[5], b[6], b[7]),
            src_port: u16::from_be_bytes([b[8], b[9]]),
            dst_port: u16::from_be_bytes([b[10], b[11]]),
            protocol: Protocol::from_number(b[12])?,
        })
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.protocol, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// 64-bit FNV-1a hasher.
///
/// The flow table is keyed by [`FlowKey`]; SipHash (the std default) costs
/// noticeably more per lookup for such short keys. FNV-1a is the classic
/// fast-small-key choice and keeps the crate dependency-free. It is
/// unkeyed, which is an exposure: a live `detect --listen` daemon hashes
/// 5-tuples the sender chooses into the flow table's linear-probing index
/// and routes them to shards by the same hash. Anyone who knows FNV-1a can
/// pick keys that share a bucket run or a shard (HashDoS), lengthening
/// every probe or loading one processor. ROADMAP item 2 lists it open;
/// replacing the hasher needs its own throughput measurement.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`], for use with `HashMap::with_hasher`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// Convenience alias: a `HashMap` keyed for flow-table duty.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn key() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 1, 200),
            44211,
            80,
            Protocol::Tcp,
        )
    }

    #[test]
    fn protocol_numbers_match_iana() {
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::Udp.number(), 17);
        assert_eq!(Protocol::from_number(6), Some(Protocol::Tcp));
        assert_eq!(Protocol::from_number(17), Some(Protocol::Udp));
        assert_eq!(Protocol::from_number(1), None); // ICMP not modeled
    }

    #[test]
    fn flow_key_byte_roundtrip() {
        let k = key();
        assert_eq!(FlowKey::from_bytes(&k.to_bytes()), Some(k));
    }

    #[test]
    fn flow_key_bytes_reject_unknown_protocol() {
        let mut b = key().to_bytes();
        b[12] = 47; // GRE
        assert_eq!(FlowKey::from_bytes(&b), None);
    }

    #[test]
    fn reversed_swaps_endpoints_and_is_involutive() {
        let k = key();
        let r = k.reversed();
        assert_eq!(r.src_ip, k.dst_ip);
        assert_eq!(r.dst_port, k.src_port);
        assert_eq!(r.protocol, k.protocol);
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn fnv_distinguishes_near_identical_keys() {
        let build = FnvBuildHasher::default();
        let a = key();
        let mut bkey = key();
        bkey.src_port += 1;
        assert_ne!(build.hash_one(a), build.hash_one(bkey));
    }

    #[test]
    fn fnv_is_deterministic() {
        let build = FnvBuildHasher::default();
        assert_eq!(build.hash_one(key()), build.hash_one(key()));
    }

    #[test]
    fn fnv_empty_input_is_offset_basis() {
        let h = FnvHasher::default();
        assert_eq!(h.finish(), FNV_OFFSET);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn display_is_human_readable() {
        let s = key().to_string();
        assert!(s.contains("TCP"));
        assert!(s.contains("10.0.0.1:44211"));
        assert!(s.contains("192.168.1.200:80"));
    }
}
