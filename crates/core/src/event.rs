//! The telemetry registry: N backends behind one event layer.
//!
//! The paper's headline result is *comparative* — INT's per-packet
//! reports against sFlow's 1-in-4,096 sampling (Fig. 5) — and the PINT
//! backend fills in the frontier between those endpoints. So the
//! pipeline must run **any** backend through the *same* Fig. 2 stages.
//! [`TelemetryEvent`] is the unified currency; [`TelemetryBackend`] is
//! the registry that maps each backend to its name, feature descriptor,
//! wire protocol, and capture-derived view. The [`Telemetry`] trait is
//! the zero-cost static face of the same dispatch: every event kind
//! lowers itself into a normalized [`FlowUpdate`] and the flow table has
//! exactly one ingest path, so drivers stay monomorphic over one
//! backend (the virtual-time replay) or mix them behind the enum (the
//! streaming runtime).
//!
//! **This module is the only place backend-specific dispatch lives.**
//! Adding backend N+2 means: a variant here, a [`Telemetry`] impl here,
//! and a row in each registry method — features, ml, cli, and bench all
//! consume the registry and never match on a backend again.
//!
//! All event kinds carry the same [`FlowKey`] 5-tuple, so shard routing
//! ([`amlight_features::ShardRouter`]) hashes identically for every
//! backend — a flow lands on the same shard no matter which telemetry
//! system observed it.

use amlight_features::{FeatureId, FeatureSet, FlowUpdate};
use amlight_int::TelemetryReport;
use amlight_net::{FlowKey, TrafficClass};
use amlight_pint::{PintEncoder, PintReport, PintSketch, SketchConfig};
use amlight_sflow::{FlowSample, SamplingMode, SflowAgent};
use serde::{Deserialize, Serialize};

/// Which telemetry system produced a stream — the CLI/bench selector.
/// (JSON outputs use [`TelemetryBackend::name`] for the lowercase form;
/// the serde shim has no field-attribute support.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryBackend {
    /// Per-packet in-band telemetry reports.
    Int,
    /// Sampled sFlow observation.
    Sflow,
    /// Probabilistic k-bit digests (PINT).
    Pint,
}

impl TelemetryBackend {
    /// Every registered backend, in overhead order (heaviest first).
    pub const ALL: [TelemetryBackend; 3] = [
        TelemetryBackend::Int,
        TelemetryBackend::Pint,
        TelemetryBackend::Sflow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TelemetryBackend::Int => "int",
            TelemetryBackend::Sflow => "sflow",
            TelemetryBackend::Pint => "pint",
        }
    }

    /// The feature projection this backend's events can populate.
    ///
    /// sFlow never sees queue state, so its descriptor drops the three
    /// queue columns (paper Table II); PINT reconstructs queue depth
    /// from digests, so it keeps the full width — the *fidelity* of
    /// those columns, not their presence, is what the bit budget buys.
    pub fn feature_set(self) -> FeatureSet {
        match self {
            TelemetryBackend::Int | TelemetryBackend::Pint => FeatureSet::full(),
            TelemetryBackend::Sflow => FeatureSet::full().without(&FeatureId::QUEUE_COLUMNS),
        }
    }

    /// Parse a `--telemetry` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == s)
    }

    /// The ingest wire-protocol name for this backend over the given
    /// transport, if the backend speaks it (`amlight-ingest` parses the
    /// same names).
    pub fn wire_name(self, tcp: bool) -> Option<&'static str> {
        match (self, tcp) {
            (TelemetryBackend::Int, false) => Some("int-udp"),
            (TelemetryBackend::Int, true) => Some("int-tcp"),
            (TelemetryBackend::Sflow, false) => Some("sflow-udp"),
            (TelemetryBackend::Pint, false) => Some("pint-udp"),
            _ => None,
        }
    }

    /// Derive this backend's view of an INT capture, labels riding
    /// along. INT is the identity view; sFlow re-observes the reports
    /// through a seeded sampling agent; PINT digests every report down
    /// to `opts.pint_bits` and reconstructs through the sketch — each
    /// deterministic given `opts`, so captures replay bit-identically.
    pub fn derive_view(
        self,
        labeled: &[(TelemetryReport, TrafficClass)],
        opts: &ViewOptions,
    ) -> Vec<LabeledEvent> {
        match self {
            TelemetryBackend::Int => labeled.iter().cloned().map(LabeledEvent::from).collect(),
            TelemetryBackend::Sflow => {
                let mut agent = SflowAgent::new(
                    SamplingMode::RandomSkip {
                        period: opts.sample_period.max(1),
                    },
                    opts.seed,
                );
                sample_reports(labeled, &mut agent)
                    .into_iter()
                    .map(LabeledEvent::from)
                    .collect()
            }
            TelemetryBackend::Pint => pint_view(labeled, opts.pint_bits)
                .into_iter()
                .map(LabeledEvent::from)
                .collect(),
        }
    }

    /// Average telemetry overhead in bits per forwarded packet, for a
    /// path of `hops` switches — the x-axis of the overhead-recall
    /// frontier. INT pays the full per-hop stack on every packet; sFlow
    /// amortizes a full sampled header over its period; PINT pays its
    /// fixed digest budget on every packet.
    pub fn bits_per_packet(self, hops: usize, opts: &ViewOptions) -> f64 {
        match self {
            TelemetryBackend::Int => {
                // 5 × u32 per hop metadata entry (the AmLight bitmap).
                (hops.max(1) * 20 * 8) as f64
            }
            TelemetryBackend::Sflow => {
                (FlowSample::WIRE_LEN * 8) as f64 / f64::from(opts.sample_period.max(1))
            }
            TelemetryBackend::Pint => f64::from(opts.pint_bits),
        }
    }
}

/// Knobs for deriving a backend view from an INT capture — one struct
/// so registry consumers never match on a backend to know which knob
/// applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViewOptions {
    /// sFlow 1-in-N sampling period.
    pub sample_period: u32,
    /// PINT per-packet digest budget, bits.
    pub pint_bits: u8,
    /// Seed for the sFlow agent's skip schedule.
    pub seed: u64,
}

impl Default for ViewOptions {
    fn default() -> Self {
        Self {
            sample_period: 256,
            pint_bits: 8,
            seed: 0,
        }
    }
}

/// One telemetry observation from any registered backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    Int(TelemetryReport),
    Sflow(FlowSample),
    Pint(PintReport),
}

// PR 6 boxed `SourcePoll::Event` because the INT hop stack dominates the
// enum's size; the PINT variant must not regress channel payloads past
// that established bound. (The INT variant is the biggest by far — a
// PINT digest report is a few dozen bytes.)
const _: () = assert!(
    std::mem::size_of::<PintReport>() <= std::mem::size_of::<TelemetryReport>(),
    "PINT variant may not grow TelemetryEvent beyond the INT variant"
);

impl TelemetryEvent {
    pub fn backend(&self) -> TelemetryBackend {
        match self {
            TelemetryEvent::Int(_) => TelemetryBackend::Int,
            TelemetryEvent::Sflow(_) => TelemetryBackend::Sflow,
            TelemetryEvent::Pint(_) => TelemetryBackend::Pint,
        }
    }
}

impl From<TelemetryReport> for TelemetryEvent {
    fn from(r: TelemetryReport) -> Self {
        TelemetryEvent::Int(r)
    }
}

impl From<FlowSample> for TelemetryEvent {
    fn from(s: FlowSample) -> Self {
        TelemetryEvent::Sflow(s)
    }
}

impl From<PintReport> for TelemetryEvent {
    fn from(r: PintReport) -> Self {
        TelemetryEvent::Pint(r)
    }
}

/// What the shared Fig. 2 stages need from a telemetry observation:
/// a flow identity for routing, a native timestamp for the clock, and
/// the normalized [`FlowUpdate`] its table ingest lowers into.
///
/// Implemented for every backend's event type and for the dynamic
/// [`TelemetryEvent`], so drivers can stay monomorphic over one backend
/// (the virtual-time replay) or mix them behind the enum (the streaming
/// runtime). With the lowering in place, nothing backend-specific is
/// left to do against the flow table.
pub trait Telemetry {
    /// The 5-tuple the event belongs to — every backend carries the
    /// full key, which is what makes shard routing backend-agnostic.
    fn flow(&self) -> FlowKey;

    /// The event's native clock, ns (INT/PINT export time, sFlow
    /// observation time). Feeds [`crate::modules::Clock::register_ns`].
    fn event_ns(&self) -> u64;

    /// The feature projection this event's table update can populate.
    fn feature_set(&self) -> FeatureSet;

    /// Lower this event into the normalized flow-table update — the
    /// single place a backend's semantics (which clock, which optional
    /// columns) are encoded.
    fn flow_update(&self) -> FlowUpdate;
}

impl Telemetry for TelemetryReport {
    #[inline]
    fn flow(&self) -> FlowKey {
        self.flow
    }

    #[inline]
    fn event_ns(&self) -> u64 {
        self.export_ns
    }

    #[inline]
    fn feature_set(&self) -> FeatureSet {
        TelemetryBackend::Int.feature_set()
    }

    /// INT: wrapped 32-bit sink egress stamp (inherits the paper's §V
    /// aliasing artifact) plus the sink hop's queue depth.
    #[inline]
    fn flow_update(&self) -> FlowUpdate {
        FlowUpdate {
            flow: self.flow,
            now_ns: self.export_ns,
            len: self.ip_len,
            stamp32: self.sink_hop().map(|h| h.egress_tstamp),
            observed_ns: None,
            queue_occupancy: self.sink_hop().map(|h| h.queue_occupancy),
        }
    }
}

impl Telemetry for FlowSample {
    #[inline]
    fn flow(&self) -> FlowKey {
        self.flow
    }

    #[inline]
    fn event_ns(&self) -> u64 {
        self.observed_ns
    }

    #[inline]
    fn feature_set(&self) -> FeatureSet {
        TelemetryBackend::Sflow.feature_set()
    }

    /// sFlow: full-width agent clock (saturating IAT — samples reorder
    /// over UDP), no queue telemetry at all.
    #[inline]
    fn flow_update(&self) -> FlowUpdate {
        FlowUpdate {
            flow: self.flow,
            now_ns: self.observed_ns,
            len: self.ip_len,
            stamp32: None,
            observed_ns: Some(self.observed_ns),
            queue_occupancy: None,
        }
    }
}

impl Telemetry for PintReport {
    #[inline]
    fn flow(&self) -> FlowKey {
        self.flow
    }

    #[inline]
    fn event_ns(&self) -> u64 {
        self.export_ns
    }

    #[inline]
    fn feature_set(&self) -> FeatureSet {
        TelemetryBackend::Pint.feature_set()
    }

    /// PINT: full-width collector clock plus whatever queue
    /// reconstruction the sketch attached — `None` rows impute exactly
    /// like sFlow until a queue digest lands for the flow.
    #[inline]
    fn flow_update(&self) -> FlowUpdate {
        FlowUpdate {
            flow: self.flow,
            now_ns: self.export_ns,
            len: self.ip_len,
            stamp32: None,
            observed_ns: Some(self.export_ns),
            queue_occupancy: self.queue_occupancy,
        }
    }
}

impl Telemetry for TelemetryEvent {
    #[inline]
    fn flow(&self) -> FlowKey {
        match self {
            TelemetryEvent::Int(r) => r.flow,
            TelemetryEvent::Sflow(s) => s.flow,
            TelemetryEvent::Pint(p) => p.flow,
        }
    }

    #[inline]
    fn event_ns(&self) -> u64 {
        match self {
            TelemetryEvent::Int(r) => r.event_ns(),
            TelemetryEvent::Sflow(s) => s.event_ns(),
            TelemetryEvent::Pint(p) => p.event_ns(),
        }
    }

    #[inline]
    fn feature_set(&self) -> FeatureSet {
        self.backend().feature_set()
    }

    #[inline]
    fn flow_update(&self) -> FlowUpdate {
        match self {
            TelemetryEvent::Int(r) => r.flow_update(),
            TelemetryEvent::Sflow(s) => s.flow_update(),
            TelemetryEvent::Pint(p) => p.flow_update(),
        }
    }
}

/// A [`TelemetryEvent`] with optional ground truth riding along.
///
/// This is what streaming sources hand the runtime: labels from a
/// replayed capture flow through collection → shard → prediction →
/// aggregation so a run can report recall directly
/// ([`crate::verdict::RecallCounts`]) instead of reconstructing it from
/// a side-channel lookup table. Live sources leave `truth` as `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledEvent {
    pub event: TelemetryEvent,
    pub truth: Option<TrafficClass>,
}

impl LabeledEvent {
    pub fn new(event: TelemetryEvent) -> Self {
        Self { event, truth: None }
    }

    pub fn with_truth(event: TelemetryEvent, truth: TrafficClass) -> Self {
        Self {
            event,
            truth: Some(truth),
        }
    }
}

/// An unlabeled event, any backend (or the erased enum itself).
impl<E: Into<TelemetryEvent>> From<E> for LabeledEvent {
    fn from(event: E) -> Self {
        Self::new(event.into())
    }
}

/// A labeled capture row, any backend: the event with its ground truth.
impl<E: Into<TelemetryEvent>> From<(E, TrafficClass)> for LabeledEvent {
    fn from((event, truth): (E, TrafficClass)) -> Self {
        Self::with_truth(event.into(), truth)
    }
}

/// Re-observe an INT capture through an sFlow agent: each report is one
/// packet through the switch, so running the sampling state machine
/// over the report stream yields exactly the [`FlowSample`]s a
/// co-located sFlow agent would have exported for the same traffic.
/// Labels ride along. This is how the CLI derives the sFlow view of an
/// on-disk capture (whose packets are long gone).
pub fn sample_reports(
    labeled: &[(TelemetryReport, TrafficClass)],
    agent: &mut SflowAgent,
) -> Vec<(FlowSample, TrafficClass)> {
    let mut out = Vec::new();
    for (report, class) in labeled {
        if let Some(sample) = agent.observe_headers(
            report.export_ns,
            report.flow,
            report.ip_len,
            report.tcp_flags,
        ) {
            out.push((sample, *class));
        }
    }
    out
}

/// Re-observe an INT capture through a PINT encoder + sketch: every
/// report is one packet, digested down to `bits` and reconstructed in
/// arrival order — exactly what a PINT-instrumented path plus collector
/// would have produced for the same traffic. The PINT sibling of
/// [`sample_reports`], feeding [`crate::source::ReplaySource`] and the
/// CLI.
pub fn pint_view(
    labeled: &[(TelemetryReport, TrafficClass)],
    bits: u8,
) -> Vec<(PintReport, TrafficClass)> {
    let encoder = PintEncoder::new(bits);
    let mut sketch = PintSketch::new(SketchConfig::default());
    let mut hops: Vec<(u32, u32)> = Vec::new();
    labeled
        .iter()
        .map(|(report, class)| {
            hops.clear();
            hops.extend(
                report
                    .hops
                    .iter()
                    .map(|h| (h.queue_occupancy, h.derived_latency_ns())),
            );
            let mut digest = encoder.encode(
                report.flow,
                report.ip_len,
                report.tcp_flags,
                report.export_ns,
                &hops,
            );
            sketch.annotate(&mut digest);
            (digest, *class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amlight_int::{HopMetadata, InstructionSet};
    use amlight_net::Protocol;
    use amlight_sflow::SamplingMode;
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

    fn report(port: u16, t_ns: u64) -> TelemetryReport {
        TelemetryReport {
            flow: key(port),
            ip_len: 200,
            tcp_flags: Some(0x02),
            instructions: InstructionSet::amlight(),
            hops: vec![HopMetadata {
                switch_id: 0,
                ingress_tstamp: t_ns as u32,
                egress_tstamp: (t_ns as u32).wrapping_add(250),
                hop_latency: 0,
                queue_occupancy: 3,
            }]
            .into(),
            export_ns: t_ns,
        }
    }

    fn sample(port: u16, t_ns: u64) -> FlowSample {
        FlowSample {
            flow: key(port),
            ip_len: 200,
            tcp_flags: Some(0x02),
            observed_ns: t_ns,
            sampling_period: 64,
        }
    }

    fn pint(port: u16, t_ns: u64) -> PintReport {
        pint_view(&[(report(port, t_ns), TrafficClass::Benign)], 8)[0].0
    }

    #[test]
    fn event_accessors_cover_every_backend() {
        let int: TelemetryEvent = report(1, 500).into();
        let sf: TelemetryEvent = sample(2, 900).into();
        let pi: TelemetryEvent = pint(3, 700).into();
        assert_eq!(int.flow(), key(1));
        assert_eq!(sf.flow(), key(2));
        assert_eq!(pi.flow(), key(3));
        assert_eq!(int.event_ns(), 500);
        assert_eq!(sf.event_ns(), 900);
        assert_eq!(pi.event_ns(), 700);
        assert_eq!(int.feature_set(), FeatureSet::full());
        assert!(pi.feature_set().is_full());
        assert!(!sf.feature_set().is_full());
        assert_eq!(int.backend().name(), "int");
        assert_eq!(sf.backend().name(), "sflow");
        assert_eq!(pi.backend().name(), "pint");
    }

    #[test]
    fn backend_registry_roundtrips() {
        for b in TelemetryBackend::ALL {
            assert_eq!(TelemetryBackend::parse(b.name()), Some(b));
            assert!(b.feature_set().dim() >= 12);
        }
        assert_eq!(TelemetryBackend::parse("netflow"), None);
        assert_eq!(TelemetryBackend::Sflow.feature_set().dim(), 12);
        assert_eq!(TelemetryBackend::Pint.feature_set(), FeatureSet::full());
        assert_eq!(TelemetryBackend::Int.wire_name(true), Some("int-tcp"));
        assert_eq!(TelemetryBackend::Pint.wire_name(false), Some("pint-udp"));
        assert_eq!(TelemetryBackend::Pint.wire_name(true), None);
    }

    #[test]
    fn overhead_ordering_matches_the_frontier() {
        let opts = ViewOptions::default();
        let int = TelemetryBackend::Int.bits_per_packet(5, &opts);
        let pint = TelemetryBackend::Pint.bits_per_packet(5, &opts);
        let sflow = TelemetryBackend::Sflow.bits_per_packet(5, &opts);
        assert!(int > pint, "INT pays the full stack");
        assert!(pint > sflow, "PINT pays k bits; sFlow amortizes 1-in-N");
    }

    #[test]
    fn labeled_event_from_any_backend() {
        let le: LabeledEvent = report(4, 0).into();
        assert_eq!(le.truth, None);
        let le = LabeledEvent::with_truth(sample(4, 0).into(), TrafficClass::SlowLoris);
        assert_eq!(le.truth, Some(TrafficClass::SlowLoris));
        let le: LabeledEvent = pint(4, 0).into();
        assert_eq!(le.event.backend(), TelemetryBackend::Pint);
    }

    #[test]
    fn sample_reports_mirrors_agent_over_packets() {
        // 1-in-4 deterministic sampling over 40 reports → 10 samples,
        // each carrying the report's header fields and label.
        let labeled: Vec<(TelemetryReport, TrafficClass)> = (0..40u64)
            .map(|i| (report((i % 4) as u16, i * 10), TrafficClass::SynFlood))
            .collect();
        let mut agent = SflowAgent::new(
            SamplingMode::Deterministic {
                period: 4,
                phase: 0,
            },
            0,
        );
        let sampled = sample_reports(&labeled, &mut agent);
        assert_eq!(sampled.len(), 10);
        assert_eq!(agent.observed(), 40);
        for (s, class) in &sampled {
            assert_eq!(*class, TrafficClass::SynFlood);
            assert_eq!(s.ip_len, 200);
            assert_eq!(s.tcp_flags, Some(0x02));
        }
        assert_eq!(sampled[0].0.observed_ns, 0);
        assert_eq!(sampled[1].0.observed_ns, 40);
    }

    #[test]
    fn pint_view_is_per_packet_and_deterministic() {
        let labeled: Vec<(TelemetryReport, TrafficClass)> = (0..40u64)
            .map(|i| (report((i % 4) as u16, i * 10), TrafficClass::SynFlood))
            .collect();
        let a = pint_view(&labeled, 8);
        let b = pint_view(&labeled, 8);
        assert_eq!(a, b, "same capture, same digests");
        assert_eq!(a.len(), labeled.len(), "every packet carries a digest");
        // The sketch eventually reconstructs queue state for each flow.
        assert!(a.iter().any(|(r, _)| r.queue_occupancy.is_some()));
        // Reconstructions never overestimate the true depth (3).
        for (r, _) in &a {
            if let Some(q) = r.queue_occupancy {
                assert!(q <= 3);
            }
        }
    }

    #[test]
    fn derive_view_covers_every_backend() {
        let labeled: Vec<(TelemetryReport, TrafficClass)> = (0..64u64)
            .map(|i| (report((i % 4) as u16, i * 10), TrafficClass::Benign))
            .collect();
        let opts = ViewOptions {
            sample_period: 4,
            pint_bits: 8,
            seed: 7,
        };
        let int = TelemetryBackend::Int.derive_view(&labeled, &opts);
        assert_eq!(int.len(), 64, "INT view is the identity");
        let pint = TelemetryBackend::Pint.derive_view(&labeled, &opts);
        assert_eq!(pint.len(), 64, "PINT digests every packet");
        let sflow = TelemetryBackend::Sflow.derive_view(&labeled, &opts);
        assert!(
            !sflow.is_empty() && sflow.len() < 64,
            "sFlow samples a strict subset"
        );
        for view in [&int, &pint, &sflow] {
            for e in view.iter() {
                assert_eq!(e.truth, Some(TrafficClass::Benign));
            }
        }
        assert_eq!(int[0].event.backend(), TelemetryBackend::Int);
        assert_eq!(pint[0].event.backend(), TelemetryBackend::Pint);
        assert_eq!(sflow[0].event.backend(), TelemetryBackend::Sflow);
    }

    #[test]
    fn pint_event_variant_stays_small() {
        // Satellite of the PR-6 size audit: the new variant must not be
        // the one that grows channel payloads.
        assert!(
            std::mem::size_of::<PintReport>() <= std::mem::size_of::<TelemetryEvent>(),
            "enum must fit its variants"
        );
        assert!(
            std::mem::size_of::<PintReport>() <= 64,
            "a digest report is a few dozen bytes, not a hop stack"
        );
    }
}
