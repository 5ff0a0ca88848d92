//! Discrete-event P4-style programmable dataplane simulator.
//!
//! The paper runs on Tofino-based Edgecore Wedge switches in the AmLight
//! production network and on a physical testbed (paper Fig. 6). We cannot
//! have that hardware, so this crate provides the substitute substrate:
//! switches with match-action forwarding and per-port FIFO egress queues,
//! connected by rate/delay links, driven by a discrete-event engine.
//!
//! What matters for the reproduction is that the simulator produces the
//! *same telemetry* a Tofino INT pipeline would export per hop:
//!
//! * ingress timestamp (ns) — when the packet enters the switch,
//! * egress timestamp (ns) — when the packet leaves the egress queue,
//! * queue occupancy — queue depth **when the packet is removed from the
//!   queue** (the paper's wording, matching Tofino's `deq_qdepth`).
//!
//! Timestamps are carried as `u64` internally; the INT layer truncates to
//! 32 bits on export, reproducing the 4.294967296 s wraparound the paper
//! discusses in §V.

pub mod clock;
pub mod engine;
pub mod queue;
pub mod switch;
pub mod topology;

pub use clock::TelemetryClock;
pub use engine::{DropRecord, HopRecord, NetworkSim, PacketJourney, SimReport};
pub use queue::{EgressQueue, QueueConfig};
pub use switch::{Switch, SwitchConfig, SwitchId};
pub use topology::{HostId, LinkParams, PortId, Topology};
