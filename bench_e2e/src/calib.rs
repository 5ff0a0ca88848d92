//! A fixed piece of work that belongs to the harness, timed beside every
//! lap, so that a run can say how fast the machine was while it measured.
//!
//! The boxes this runs on are small virtual machines whose speed drifts by
//! 10–30 % for minutes at a time (a busy neighbour; see README.md, "Why
//! times are in reference seconds"). A timing taken in such a period says
//! more about the neighbour than about the program. The kernel below is
//! half dependent loads through a table larger than the L2 cache and half
//! dense floating-point arithmetic — the two things the pipeline's hot
//! path is made of — and uses no code of the program under test, so no
//! change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Table entries of the pointer chase: 4 Mi × 4 B = 16 MiB.
const TABLE: usize = 1 << 22;
/// Dependent loads per calibration.
const CHASE_STEPS: usize = 150_000;
/// Side of the dense matrix and how often it is applied.
const DIM: usize = 64;
const MATVEC_ROUNDS: usize = 6_000;

/// What one calibration takes on the quiet reference box, seconds. Times
/// are reported as if the machine always ran at this speed.
pub const REFERENCE_S: f64 = 0.045;

pub struct Calibrator {
    next: Vec<u32>,
    weights: Vec<f64>,
    at: u32,
}

impl Calibrator {
    pub fn new() -> Self {
        // Sattolo's algorithm: a random permutation that is one cycle, so
        // the chase never falls into a short loop.
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..TABLE).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((state >> 33) as usize) % i;
            next.swap(i, j);
        }
        let weights = (0..DIM * DIM)
            .map(|i| ((i * 7919 % 1000) as f64 - 500.0) / 16_000.0)
            .collect();
        Self {
            next,
            weights,
            at: 0,
        }
    }

    /// Do the fixed work once; seconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        let mut x = [1.0f64; DIM];
        for _ in 0..MATVEC_ROUNDS {
            let mut y = [0.0f64; DIM];
            for (row, out) in self.weights.chunks_exact(DIM).zip(y.iter_mut()) {
                *out = row.iter().zip(&x).map(|(w, v)| w * v).sum::<f64>();
            }
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = 0.5 * *xi + yi.clamp(-1.0, 1.0);
            }
        }
        black_box(x);
        t.elapsed().as_secs_f64()
    }
}

/// How many reference seconds one wall second was worth, given the
/// calibrations taken just before and just after the interval.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_does_its_work_and_takes_time() {
        let mut c = Calibrator::new();
        let a = c.run();
        let b = c.run();
        assert!(a > 0.0 && b > 0.0);
        assert_ne!(c.at, 0, "the chase moved");
    }

    #[test]
    fn a_slow_machine_has_speed_below_one() {
        assert_eq!(speed(REFERENCE_S, REFERENCE_S), 1.0);
        assert!((speed(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
        assert!(speed(0.5 * REFERENCE_S, 0.5 * REFERENCE_S) > 1.9);
    }
}
