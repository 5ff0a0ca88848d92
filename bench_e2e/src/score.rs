//! The harness's own scoring of what the pipeline stored: stored
//! predictions against the flow→class map, and a digest of every flow's
//! verdict sequence for the inline-versus-threaded oracle.

use crate::setup::{fnv1a, FlowIndex, Offered, FNV_OFFSET};
use amlight_core::{FlowDatabase, PredictionRecord};

/// What one lap's stored predictions amount to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Score {
    /// Order-independent across flows, order-dependent within a flow:
    /// exactly the invariant the runtime promises (one shard owns a flow).
    pub verdict_digest: u64,
    pub predictions: u64,
    /// Attack verdicts stored for attack flows.
    pub attack_hits: u64,
    /// Attack verdicts stored for benign flows.
    pub benign_alarms: u64,
    /// Attack flows with at least one Attack verdict.
    pub attack_flows_flagged: u64,
    /// Predictions whose flow the capture never contained.
    pub unknown_flows: u64,
}

pub fn score(predictions: &[PredictionRecord], flows: &FlowIndex) -> Score {
    let mut sequence = vec![FNV_OFFSET; flows.len()];
    let mut flagged = vec![false; flows.len()];
    let mut s = Score {
        predictions: predictions.len() as u64,
        ..Score::default()
    };
    for p in predictions {
        let Some(id) = flows.id(&p.key) else {
            s.unknown_flows += 1;
            continue;
        };
        let code = match p.label {
            None => 0u8,
            Some(false) => 1,
            Some(true) => 2,
        };
        let slot = id as usize;
        sequence[slot] = fnv1a(sequence[slot], &[code]);
        if p.label == Some(true) {
            if flows.is_attack(id) {
                s.attack_hits += 1;
                if !flagged[slot] {
                    flagged[slot] = true;
                    s.attack_flows_flagged += 1;
                }
            } else {
                s.benign_alarms += 1;
            }
        }
    }
    for (id, seq) in sequence.iter().enumerate() {
        if *seq != FNV_OFFSET {
            let id = (id as u32).to_le_bytes();
            s.verdict_digest = s.verdict_digest.wrapping_add(fnv1a(*seq, &id));
        }
    }
    s
}

pub fn score_db(db: &FlowDatabase, flows: &FlowIndex) -> Score {
    score(&db.predictions(), flows)
}

/// The three quality ratios. A ratio with nothing in its denominator
/// reports 1.0: nothing was offered, so nothing was missed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Attack verdicts on attack flows ÷ attack updates offered; updates
    /// that triage dropped, the defer lane shed or a socket lost are
    /// misses.
    pub update_recall: f64,
    /// Flagged attack flows ÷ attack flows that had an update to judge.
    pub flow_recall: f64,
    /// The same numerator over every attack flow offered, single-packet
    /// flows included (which §III-3 never forwards).
    pub flow_recall_all: f64,
    /// 1 − Attack verdicts on benign flows ÷ benign updates offered.
    pub benign_pass_share: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

pub fn quality(score: &Score, offered: &Offered) -> Quality {
    Quality {
        update_recall: ratio(score.attack_hits, offered.attack_updates),
        flow_recall: ratio(score.attack_flows_flagged, offered.attack_flows_updated),
        flow_recall_all: ratio(score.attack_flows_flagged, offered.attack_flows),
        benign_pass_share: 1.0
            - if offered.benign_updates == 0 {
                0.0
            } else {
                score.benign_alarms as f64 / offered.benign_updates as f64
            },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_denominators_report_one() {
        let q = quality(&Score::default(), &Offered::default());
        assert_eq!(q.update_recall, 1.0);
        assert_eq!(q.flow_recall, 1.0);
        assert_eq!(q.flow_recall_all, 1.0);
        assert_eq!(q.benign_pass_share, 1.0);
    }

    #[test]
    fn ratios_use_offered_denominators() {
        let s = Score {
            attack_hits: 30,
            benign_alarms: 5,
            attack_flows_flagged: 2,
            ..Score::default()
        };
        let o = Offered {
            events: 200,
            attack_updates: 40,
            benign_updates: 100,
            attack_flows: 10,
            attack_flows_updated: 4,
        };
        let q = quality(&s, &o);
        assert_eq!(q.update_recall, 0.75);
        assert_eq!(q.flow_recall, 0.5);
        assert_eq!(q.flow_recall_all, 0.2);
        assert_eq!(q.benign_pass_share, 0.95);
    }
}
