//! In-band Network Telemetry (INT) — headers, source/transit/sink roles,
//! telemetry reports, and the collector.
//!
//! The model follows the INT-MD (eMbedded Data) mode the paper deploys:
//! the **source** switch inserts an INT header carrying an instruction
//! bitmap; each **transit** switch pushes a per-hop metadata stack entry
//! answering those instructions; the **sink** switch strips the stack and
//! exports a telemetry report to the collector (paper Fig. 1).
//!
//! Two deliberate fidelity points:
//!
//! * Per-hop timestamps are truncated to **32 bits of nanoseconds** at
//!   export, as on Tofino — they wrap every 4.295 s (paper §V). The
//!   full-width times stay inside the simulator only.
//! * Queue occupancy is the depth **at dequeue** (`deq_qdepth`).

pub mod budget;
pub mod collector;
pub mod header;
pub mod hops;
pub mod metadata;
pub mod microburst;
pub mod pipeline;
pub mod report;

pub use budget::{BudgetedTelemetry, OverheadStats, TelemetryBudget};
pub use collector::{CollectorStats, DatagramOutcome, IntCollector};
pub use header::{Instruction, InstructionSet, IntHeader};
pub use hops::{HopStack, MAX_INLINE_HOPS};
pub use metadata::HopMetadata;
pub use microburst::{Microburst, MicroburstConfig, MicroburstDetector};
pub use pipeline::{IntInstrumenter, IntRole};
pub use report::TelemetryReport;
