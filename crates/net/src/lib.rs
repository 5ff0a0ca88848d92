//! Packet model, wire codecs, and flow identification.
//!
//! This crate is the bottom layer of the AmLight INT DDoS reproduction:
//! everything above it (the dataplane simulator, INT, sFlow, the traffic
//! generators, the feature extractor) speaks in terms of the types defined
//! here.
//!
//! The packet model is deliberately faithful to what the paper's pipeline
//! consumes: Ethernet / IPv4 / {TCP, UDP} headers, a payload length, and a
//! five-tuple [`FlowKey`] ("*Flow ID*" in the paper) composed of source and
//! destination IP address, source and destination port, and protocol.
//!
//! Wire encode/decode is implemented over [`bytes`] buffers so the INT and
//! sFlow crates can embed real byte-level headers in their datagrams, and
//! property tests can round-trip arbitrary packets.

pub mod codec;
pub mod flow;
pub mod headers;
pub mod packet;
pub mod trace;

pub use codec::{CodecError, Decode, Encode};
pub use flow::{FlowKey, FnvBuildHasher, FnvHasher, Protocol};
pub use headers::MacAddr;
pub use headers::{EthernetHeader, Ipv4Header, TcpFlags, TcpHeader, UdpHeader};
pub use packet::{Packet, PacketBuilder, Transport};
pub use trace::{PacketRecord, Trace, TraceStats, TrafficClass};
