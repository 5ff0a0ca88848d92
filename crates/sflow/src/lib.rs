//! sFlow-style sampled monitoring — the industry baseline the paper
//! compares INT against.
//!
//! sFlow's defining property for this comparison is **sampling**: in the
//! AmLight deployment it observes 1 out of every 4,096 packets. Short or
//! low-rate attack episodes (SlowLoris!) can fall entirely between
//! samples, which is exactly the failure mode the paper's Fig. 5 shows.
//!
//! Components mirror the sFlow architecture (paper §II-A.1): an
//! [`SflowAgent`] on the switch performs the sampling and batches samples
//! into datagrams; an [`SflowCollector`] receives and decodes them.

pub mod agent;
pub mod counters;
pub mod datagram;

pub use agent::{SamplingMode, SflowAgent, AMLIGHT_SAMPLING_RATE};
pub use counters::{CounterRecord, FlowCounterPoller};
pub use datagram::{batch_into_datagrams, FlowSample, SflowCollector, SflowDatagram};
