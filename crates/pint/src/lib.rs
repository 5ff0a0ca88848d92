//! PINT-style probabilistic telemetry — the middle of the
//! overhead-recall frontier between full INT and 1-in-N sFlow.
//!
//! Modeled on PINT (Ben Basat et al., "PINT: Probabilistic In-band
//! Network Telemetry"): instead of every hop's full metadata on every
//! packet (INT) or full headers on 1-in-4096 packets (sFlow), **every**
//! packet carries a fixed `k`-bit digest. The switch side
//! ([`PintEncoder`]) hash-samples one (hop, field) choice per packet and
//! quantizes its value into the budget; the collector side
//! ([`PintSketch`] inside [`PintCollector`]) folds the digest stream
//! back into per-flow hop aggregates with **bounded staleness** — old
//! reconstructions expire instead of being served forever.
//!
//! The crate mirrors its siblings `amlight-int` and `amlight-sflow`:
//! same zero-alloc rollback decode discipline, same saturating-count
//! datagram framing, same collector counters — it is backend N+1 proving
//! the registry holds.

pub mod datagram;
pub mod report;
pub mod sketch;

pub use datagram::{batch_into_datagrams, PintCollector, PintDatagram, DATAGRAM_MAGIC};
pub use report::{
    dequantize, quantize, PintEncoder, PintField, PintReport, MAX_DIGEST_BITS, MIN_DIGEST_BITS,
};
pub use sketch::{PintSketch, SketchConfig};
