//! The new-flow-rate guard: catching what per-update prediction cannot.
//!
//! Ablation 4 (`repro_ablations`) shows a structural blind spot of the
//! paper's mechanism: a fully spoofed SYN flood makes every packet its
//! own flow, the CentralServer skips brand-new flows, and the ML path
//! produces **zero** predictions. The telemetry still screams, though —
//! as a *flow-creation rate* anomaly at the victim address.
//!
//! This module adds that complementary detector: a count-min sketch
//! (the workspace's one sketch, [`WindowedCountMin`], cleared at every
//! epoch) tallies flow creations per destination per epoch; an EWMA
//! baseline per alerting destination turns "this epoch created 400× the
//! usual number of flows toward 10.0.0.2" into an alert. Sketching keeps
//! the state O(width × depth) regardless of how many addresses a spoofed
//! flood touches — the same reason production scrubbers sketch.
//!
//! The alarm itself is deliberately *not* folded into
//! [`amlight_features::TriageStage`]'s aggregate alarm: that one seeds its
//! calm baseline from the first window it sees, so ablation 4's
//! flood-from-t=0 would read as calm and raise nothing, where this guard
//! (baseline 0, absolute floor) alerts. Merging the two is a behaviour
//! change and belongs with ROADMAP item 2's gate verdicts.

use amlight_features::WindowedCountMin;
use amlight_net::flow::FnvHashMap;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One flood alert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FloodAlert {
    pub dst: Ipv4Addr,
    pub epoch_start_ns: u64,
    /// New flows created toward `dst` this epoch (sketch estimate).
    pub new_flows: u32,
    /// EWMA baseline at alert time.
    pub baseline: f64,
}

/// Guard tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Epoch length, ns.
    pub epoch_ns: u64,
    /// EWMA weight for the per-destination baseline.
    pub alpha: f64,
    /// Alert when epoch count > factor × baseline …
    pub factor: f64,
    /// … and also above this absolute floor (spares tiny services).
    pub min_flows: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            epoch_ns: 1_000_000_000, // 1 s epochs
            alpha: 0.2,
            factor: 8.0,
            min_flows: 50,
        }
    }
}

/// Epoch-based new-flow-rate anomaly detector.
#[derive(Debug)]
pub struct NewFlowGuard {
    cfg: GuardConfig,
    sketch: WindowedCountMin,
    epoch_start_ns: u64,
    /// Destinations that created flows this epoch (bounded: one entry per
    /// *victim*, not per spoofed source).
    active_dsts: FnvHashMap<Ipv4Addr, ()>,
    baselines: FnvHashMap<Ipv4Addr, f64>,
    alerts: Vec<FloodAlert>,
}

impl NewFlowGuard {
    pub fn new(cfg: GuardConfig) -> Self {
        Self {
            cfg,
            // ~1% overestimate at 99.9% confidence for typical epoch
            // volumes.
            sketch: WindowedCountMin::new(2048, 4),
            epoch_start_ns: 0,
            active_dsts: FnvHashMap::default(),
            baselines: FnvHashMap::default(),
            alerts: Vec::new(),
        }
    }

    fn key(dst: Ipv4Addr) -> u64 {
        u64::from(u32::from(dst))
    }

    /// Record one flow creation toward `dst` at time `now_ns`.
    pub fn observe_new_flow(&mut self, dst: Ipv4Addr, now_ns: u64) {
        // Roll epochs forward (possibly through empty ones).
        while now_ns >= self.epoch_start_ns + self.cfg.epoch_ns {
            self.close_epoch();
            self.epoch_start_ns += self.cfg.epoch_ns;
        }
        self.sketch.observe(Self::key(dst));
        self.active_dsts.entry(dst).or_insert(());
    }

    fn close_epoch(&mut self) {
        let dsts: Vec<Ipv4Addr> = self.active_dsts.keys().copied().collect();
        for dst in dsts {
            let estimate = self.sketch.estimate(Self::key(dst));
            let count = u32::try_from(estimate).unwrap_or(u32::MAX);
            let baseline = self.baselines.entry(dst).or_insert(0.0);
            let threshold = (*baseline * self.cfg.factor).max(f64::from(self.cfg.min_flows));
            if f64::from(count) > threshold {
                self.alerts.push(FloodAlert {
                    dst,
                    epoch_start_ns: self.epoch_start_ns,
                    new_flows: count,
                    baseline: *baseline,
                });
                // Alerted epochs feed the baseline at strongly reduced
                // weight: an attacker must sustain a flood for minutes
                // before it becomes the "new normal".
                *baseline += self.cfg.alpha * 0.02 * (f64::from(count) - *baseline);
            } else {
                *baseline += self.cfg.alpha * (f64::from(count) - *baseline);
            }
        }
        self.sketch.clear();
        self.active_dsts.clear();
    }

    /// Flush the current partial epoch and return all alerts.
    pub fn finish(mut self) -> Vec<FloodAlert> {
        self.close_epoch();
        self.alerts
    }

    pub fn alerts(&self) -> &[FloodAlert] {
        &self.alerts
    }

    pub fn baseline(&self, dst: Ipv4Addr) -> f64 {
        self.baselines.get(&dst).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dst() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }

    #[test]
    fn steady_rate_never_alerts() {
        let mut g = NewFlowGuard::new(GuardConfig::default());
        // 20 new flows/s for 30 s — under the 50-flow floor.
        for s in 0..30u64 {
            for i in 0..20u64 {
                g.observe_new_flow(dst(), s * 1_000_000_000 + i * 1_000_000);
            }
        }
        assert!(g.finish().is_empty());
    }

    #[test]
    fn flood_epoch_alerts_with_baseline_context() {
        let mut g = NewFlowGuard::new(GuardConfig::default());
        // 5 s of calm (20 flows/s), then a 5,000-flow second.
        for s in 0..5u64 {
            for i in 0..20u64 {
                g.observe_new_flow(dst(), s * 1_000_000_000 + i * 1_000_000);
            }
        }
        for i in 0..5_000u64 {
            g.observe_new_flow(dst(), 5_000_000_000 + i * 100_000);
        }
        let alerts = g.finish();
        assert_eq!(alerts.len(), 1, "exactly the flood epoch");
        let a = alerts[0];
        assert_eq!(a.dst, dst());
        assert!(a.new_flows >= 5_000);
        assert!(
            a.baseline > 10.0 && a.baseline < 30.0,
            "baseline {}",
            a.baseline
        );
        assert_eq!(a.epoch_start_ns, 5_000_000_000);
    }

    #[test]
    fn burst_to_unpopular_dst_still_needs_floor() {
        let mut g = NewFlowGuard::new(GuardConfig {
            min_flows: 100,
            ..Default::default()
        });
        // 60 flows in one epoch to a never-seen dst: over 8× baseline(0)
        // but under the floor.
        for i in 0..60u64 {
            g.observe_new_flow(dst(), i * 1_000_000);
        }
        assert!(g.finish().is_empty());
    }

    #[test]
    fn per_destination_isolation() {
        let mut g = NewFlowGuard::new(GuardConfig::default());
        let quiet = Ipv4Addr::new(10, 0, 0, 3);
        for s in 0..3u64 {
            for i in 0..10u64 {
                g.observe_new_flow(quiet, s * 1_000_000_000 + i * 1_000_000);
            }
        }
        // Flood a different address.
        for i in 0..2_000u64 {
            g.observe_new_flow(dst(), 3_000_000_000 + i * 100_000);
        }
        let alerts = g.finish();
        assert!(alerts.iter().all(|a| a.dst == dst()));
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn sustained_flood_keeps_alerting() {
        let mut g = NewFlowGuard::new(GuardConfig::default());
        for s in 0..2u64 {
            for i in 0..20u64 {
                g.observe_new_flow(dst(), s * 1_000_000_000 + i * 1_000_000);
            }
        }
        // Ten straight flood seconds.
        for s in 2..12u64 {
            for i in 0..3_000u64 {
                g.observe_new_flow(dst(), s * 1_000_000_000 + i * 300_000);
            }
        }
        let alerts = g.finish();
        assert!(
            alerts.len() >= 8,
            "the slow-adapting baseline must keep the alarm up, got {}",
            alerts.len()
        );
    }

    #[test]
    fn empty_epochs_roll_silently() {
        let mut g = NewFlowGuard::new(GuardConfig::default());
        g.observe_new_flow(dst(), 100);
        // Next event 1000 epochs later.
        g.observe_new_flow(dst(), 1_000 * 1_000_000_000 + 5);
        assert!(g.finish().is_empty());
    }
}
