//! Telemetry-budget reduction: probabilistic and spatial INT sampling.
//!
//! The paper's future work leans on PINT (Ben Basat et al., SIGCOMM'20
//! — its ref \[30\]) and spatial sampling (Polverini et al. — its ref
//! \[31\]) to cut INT's per-packet overhead before production deployment.
//! This module implements both reduction modes over our telemetry
//! stream so the cost/accuracy trade-off can be measured
//! (`repro overhead` in the bench crate):
//!
//! * **Probabilistic** — each packet carries the per-hop metadata stack
//!   with probability *p* (PINT's per-packet value sampling, the
//!   decoder side of its sketch simplified to presence/absence);
//! * **Spatial** — only every *k*-th hop of the path contributes
//!   metadata (a static spatial sampling pattern).
//!
//! Reduced reports still carry the five-tuple and packet length (those
//! ride the packet header, not the INT stack), so flow accounting keeps
//! working; what degrades is timestamp/queue coverage.

use crate::report::TelemetryReport;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How to spend the telemetry budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TelemetryBudget {
    /// Classic INT: every packet, every hop.
    Full,
    /// Each packet carries its metadata stack with probability `p`.
    Probabilistic { p: f64 },
    /// Keep one hop in every `stride` along the path (always including
    /// the sink hop, whose stamps drive inter-arrival features).
    Spatial { stride: usize },
}

/// Byte accounting for a (possibly reduced) telemetry stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OverheadStats {
    /// Packets observed.
    pub packets: u64,
    /// Metadata bytes a full-INT deployment would have carried.
    pub full_bytes: u64,
    /// Metadata bytes actually carried under the budget.
    pub carried_bytes: u64,
}

impl OverheadStats {
    /// Fraction of full-INT metadata bytes actually spent.
    pub fn cost_fraction(&self) -> f64 {
        if self.full_bytes == 0 {
            0.0
        } else {
            self.carried_bytes as f64 / self.full_bytes as f64
        }
    }

    /// Bytes saved relative to full INT.
    pub fn saved_bytes(&self) -> u64 {
        self.full_bytes - self.carried_bytes
    }
}

/// Applies a [`TelemetryBudget`] to a report stream.
#[derive(Debug, Clone)]
pub struct BudgetedTelemetry {
    budget: TelemetryBudget,
    rng: SmallRng,
    stats: OverheadStats,
}

impl BudgetedTelemetry {
    pub fn new(budget: TelemetryBudget, seed: u64) -> Self {
        if let TelemetryBudget::Probabilistic { p } = budget {
            assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        }
        if let TelemetryBudget::Spatial { stride } = budget {
            assert!(stride >= 1, "stride must be at least 1");
        }
        Self {
            budget,
            rng: SmallRng::seed_from_u64(seed),
            stats: OverheadStats::default(),
        }
    }

    pub fn budget(&self) -> TelemetryBudget {
        self.budget
    }

    pub fn stats(&self) -> OverheadStats {
        self.stats
    }

    /// Reduce one report in place per the budget; returns whether any
    /// metadata survived.
    pub fn apply(&mut self, report: &mut TelemetryReport) -> bool {
        let per_hop = report.instructions.hop_metadata_len() as u64;
        let full = per_hop * report.hops.len() as u64;
        self.stats.packets += 1;
        self.stats.full_bytes += full;

        match self.budget {
            TelemetryBudget::Full => {
                self.stats.carried_bytes += full;
                true
            }
            TelemetryBudget::Probabilistic { p } => {
                if self.rng.random::<f64>() < p {
                    self.stats.carried_bytes += full;
                    true
                } else {
                    report.hops.clear();
                    false
                }
            }
            TelemetryBudget::Spatial { stride } => {
                let n = report.hops.len();
                if n == 0 {
                    return false;
                }
                // Keep hops at indices ≡ 0 (mod stride) plus the sink.
                let mut kept = 0usize;
                let mut idx = 0usize;
                report.hops.retain(|_| {
                    let keep = idx.is_multiple_of(stride) || idx == n - 1;
                    idx += 1;
                    if keep {
                        kept += 1;
                    }
                    keep
                });
                self.stats.carried_bytes += per_hop * kept as u64;
                kept > 0
            }
        }
    }

    /// Reduce a whole labeled stream (convenience for the harness).
    pub fn apply_stream<L: Clone>(
        &mut self,
        labeled: &[(TelemetryReport, L)],
    ) -> Vec<(TelemetryReport, L)> {
        labeled
            .iter()
            .map(|(r, l)| {
                let mut r = r.clone();
                self.apply(&mut r);
                (r, l.clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::InstructionSet;
    use crate::metadata::HopMetadata;
    use amlight_net::{FlowKey, Protocol};
    use std::net::Ipv4Addr;

    fn report(hops: usize) -> TelemetryReport {
        TelemetryReport {
            flow: FlowKey::new(
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                1,
                2,
                Protocol::Udp,
            ),
            ip_len: 100,
            tcp_flags: None,
            instructions: InstructionSet::amlight(),
            hops: (0..hops)
                .map(|i| HopMetadata {
                    switch_id: i as u32,
                    ..Default::default()
                })
                .collect(),
            export_ns: 0,
        }
    }

    #[test]
    fn full_budget_keeps_everything() {
        let mut b = BudgetedTelemetry::new(TelemetryBudget::Full, 1);
        let mut r = report(3);
        assert!(b.apply(&mut r));
        assert_eq!(r.hops.len(), 3);
        assert_eq!(b.stats().cost_fraction(), 1.0);
        assert_eq!(b.stats().saved_bytes(), 0);
    }

    #[test]
    fn zero_probability_strips_all_metadata() {
        let mut b = BudgetedTelemetry::new(TelemetryBudget::Probabilistic { p: 0.0 }, 1);
        let mut r = report(2);
        assert!(!b.apply(&mut r));
        assert!(r.hops.is_empty());
        assert_eq!(b.stats().cost_fraction(), 0.0);
        // Header-borne fields survive.
        assert_eq!(r.ip_len, 100);
    }

    #[test]
    fn probability_hits_expected_cost() {
        let mut b = BudgetedTelemetry::new(TelemetryBudget::Probabilistic { p: 0.25 }, 7);
        for _ in 0..4_000 {
            let mut r = report(1);
            b.apply(&mut r);
        }
        let frac = b.stats().cost_fraction();
        assert!((frac - 0.25).abs() < 0.03, "cost fraction {frac}");
    }

    #[test]
    fn spatial_keeps_sink_and_strided_hops() {
        let mut b = BudgetedTelemetry::new(TelemetryBudget::Spatial { stride: 2 }, 1);
        let mut r = report(5); // hops 0..4
        assert!(b.apply(&mut r));
        let ids: Vec<u32> = r.hops.iter().map(|h| h.switch_id).collect();
        assert_eq!(ids, vec![0, 2, 4], "indices 0,2 strided plus sink 4");
        // Cost: 3 of 5 hops.
        assert!((b.stats().cost_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn spatial_stride_one_is_full() {
        let mut b = BudgetedTelemetry::new(TelemetryBudget::Spatial { stride: 1 }, 1);
        let mut r = report(4);
        b.apply(&mut r);
        assert_eq!(r.hops.len(), 4);
        assert_eq!(b.stats().cost_fraction(), 1.0);
    }

    #[test]
    fn spatial_always_preserves_the_sink_hop() {
        let mut b = BudgetedTelemetry::new(TelemetryBudget::Spatial { stride: 100 }, 1);
        let mut r = report(6);
        assert!(b.apply(&mut r));
        let ids: Vec<u32> = r.hops.iter().map(|h| h.switch_id).collect();
        assert_eq!(ids, vec![0, 5], "source (stride) + sink always kept");
    }

    #[test]
    fn stream_application_is_label_preserving() {
        let mut b = BudgetedTelemetry::new(TelemetryBudget::Probabilistic { p: 0.5 }, 3);
        let labeled: Vec<(TelemetryReport, &str)> = (0..10).map(|_| (report(1), "tag")).collect();
        let out = b.apply_stream(&labeled);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|(_, l)| *l == "tag"));
        assert_eq!(b.stats().packets, 10);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        BudgetedTelemetry::new(TelemetryBudget::Probabilistic { p: 1.5 }, 1);
    }
}
