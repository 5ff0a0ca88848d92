//! Traffic generation: a benign web-server workload model plus the four
//! attack generators of the paper's Table I (TCP SYN scan, UDP scan, TCP
//! SYN flood, SlowLoris).
//!
//! The paper captures production traffic to an AmLight web server
//! (June 6–11 2024) and injects attacks with `hping3` and a Python
//! SlowLoris script. We cannot have the capture, so this crate builds the
//! closest synthetic equivalent (see DESIGN.md §2): heavy-tailed benign
//! flows against a web server, and attack generators whose packet-level
//! signatures match the tools the paper used:
//!
//! * **SYN scan** — one SYN per destination port from one prober: each
//!   packet is its own single-packet flow of minimum size.
//! * **UDP scan** — same sweep shape with small UDP probes.
//! * **SYN flood** — line-rate minimum-size SYNs from randomized spoofed
//!   sources: an avalanche of single-packet flows that *builds queue
//!   occupancy*.
//! * **SlowLoris** — a few hundred long-lived connections trickling tiny
//!   partial-header packets: low-rate, low-footprint, the hard case.
//!
//! All generators are deterministic given a seed.

pub mod attacks;
pub mod benign;
pub mod mix;
pub mod schedule;

pub use attacks::{AttackConfig, SlowLorisConfig, SynFloodConfig};
pub use benign::{BenignConfig, BenignGenerator};
pub use mix::{ReplayLibrary, TrafficMix, TrafficMixConfig};
pub use schedule::{AttackKind, Episode, EpisodeSchedule};
