//! Calibration: a fixed CPU kernel timed around every measured interval.
//!
//! The box this benchmark runs on moves between machine states for seconds
//! at a time (see README.md, "Why calibrate"). A fixed amount of
//! single-threaded work is timed immediately before and after every
//! interval; the interval is then multiplied by `cal_ref / cal_measured`,
//! so every reported time reads as real time on the reference state the
//! constant `cal_ref` was recorded on.
//!
//! The kernel has two phases and its time is their geometric mean. Phase
//! one is throughput-bound: a vectorised f32 multiply-add over L1-resident
//! arrays. Phase two is latency-bound: a dependent pointer chase through an
//! L2-resident permutation. A frequency change or stolen time slows both
//! alike; a busy sibling hardware thread slows the first by a quarter and
//! the second hardly at all. The workloads, a mix of both kinds of code,
//! slow down by about the geometric mean in either case (README.md has the
//! measurements), which neither phase alone tracks.

use std::hint::black_box;
use std::time::Instant;

/// 8 KiB of `f32` per array: both arrays stay L1-resident.
const LANES: usize = 2048;
/// Passes over the arrays in phase one; about 5 ms.
const PASSES: u32 = 32_000;
/// 512 KiB of `u32`: the permutation stays L2-resident.
const CHASE_SLOTS: usize = 128 * 1024;
/// Dependent loads in phase two; about 5 ms.
const CHASE_STEPS: u32 = 750_000;

/// Throughput-bound phase: wall nanoseconds of the multiply-add passes.
fn multiply_add_ns() -> f64 {
    let mut y = [0.5f32; LANES];
    let mut x = [0.0f32; LANES];
    for (i, v) in x.iter_mut().enumerate() {
        *v = (i % 7) as f32 * 1e-3;
    }
    let start = Instant::now();
    for _ in 0..PASSES {
        for (a, &b) in y.iter_mut().zip(&x) {
            *a = *a * 0.999 + b;
        }
        // Keeps the passes from being collapsed into one.
        black_box(&mut y);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(y[0]);
    ns
}

/// One cycle through all `CHASE_SLOTS` slots in a fixed pseudo-random order:
/// `next[i]` is the slot visited after slot `i`.
fn chase_cycle() -> Vec<u32> {
    let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..CHASE_SLOTS).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let mut next = vec![0u32; CHASE_SLOTS];
    for (i, &slot) in order.iter().enumerate() {
        next[slot as usize] = order[(i + 1) % CHASE_SLOTS];
    }
    next
}

/// Latency-bound phase: wall nanoseconds of the dependent loads.
fn chase_ns(next: &[u32]) -> f64 {
    // The measured interval evicted the table; read it back in first so the
    // phase times the L2, not the refill.
    black_box(next.iter().fold(0u32, |acc, &v| acc ^ v));
    let start = Instant::now();
    let mut slot = 0u32;
    for _ in 0..CHASE_STEPS {
        slot = next[slot as usize];
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(slot);
    ns
}

/// The factor an interval bracketed by two probes is multiplied with.
pub fn factor(cal_ref_ns: f64, before_ns: f64, after_ns: f64) -> f64 {
    cal_ref_ns / ((before_ns + after_ns) / 2.0)
}

/// One bracketed interval: its raw wall time and the calibration factor.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// `cal_ref / cal_measured` of the two probes around the interval.
    pub factor: f64,
}

impl Timed {
    /// Seconds on the reference machine state.
    pub fn cal_s(&self) -> f64 {
        self.raw_s * self.factor
    }
}

/// Brackets intervals with probes. The probe that closes one interval
/// opens the next, so back-to-back rounds pay one probe each.
pub struct Calibrator {
    cal_ref_ns: f64,
    chase: Vec<u32>,
    last_probe_ns: f64,
}

impl std::fmt::Debug for Calibrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calibrator").field("cal_ref_ns", &self.cal_ref_ns).finish_non_exhaustive()
    }
}

impl Calibrator {
    /// Builds the chase table and runs the opening probe.
    pub fn new(cal_ref_ns: f64) -> Self {
        let mut cal = Calibrator { cal_ref_ns, chase: chase_cycle(), last_probe_ns: 0.0 };
        cal.reopen();
        cal
    }

    /// Runs the kernel once: the geometric mean of its two phases' wall
    /// nanoseconds.
    pub fn probe_ns(&self) -> f64 {
        (multiply_add_ns() * chase_ns(&self.chase)).sqrt()
    }

    /// Re-runs the opening probe (after untimed work since the last
    /// interval).
    pub fn reopen(&mut self) {
        self.last_probe_ns = self.probe_ns();
    }

    /// Times `f` between the previous probe and a fresh one.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.probe_ns();
        let timed = Timed { raw_s, factor: factor(self.cal_ref_ns, self.last_probe_ns, after) };
        self.last_probe_ns = after;
        (out, timed)
    }
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 25 % slowdown that hits both the kernel and the round leaves the
    /// calibrated value where it was; the raw value moves by the full 25 %.
    #[test]
    fn uniform_slowdown_cancels() {
        let cal_ref = 10.0e6;
        let (probe, round_s) = (11.0e6, 0.200);
        let base = Timed { raw_s: round_s, factor: factor(cal_ref, probe, probe) };
        let slow =
            Timed { raw_s: round_s * 1.25, factor: factor(cal_ref, probe * 1.25, probe * 1.25) };
        assert!((slow.raw_s / base.raw_s - 1.25).abs() < 1e-12);
        assert!((slow.cal_s() / base.cal_s() - 1.0).abs() < 0.02);
    }

    /// A state flip in the middle of a round (probe before fast, probe
    /// after slow, half the round in each) is corrected by the mean probe.
    #[test]
    fn mid_round_flip_is_averaged() {
        let cal_ref = 10.0e6;
        let base = Timed { raw_s: 0.2, factor: factor(cal_ref, 10.0e6, 10.0e6) };
        let flipped = Timed { raw_s: 0.1 + 0.1 * 1.25, factor: factor(cal_ref, 10.0e6, 12.5e6) };
        assert!((flipped.cal_s() / base.cal_s() - 1.0).abs() < 0.02);
    }

    #[test]
    fn chase_table_is_one_cycle_through_every_slot() {
        let next = chase_cycle();
        let (mut slot, mut steps) = (0u32, 0usize);
        loop {
            slot = next[slot as usize];
            steps += 1;
            if slot == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_SLOTS);
    }

    #[test]
    fn calibrator_shares_probes_between_rounds() {
        let mut cal = Calibrator::new(1.0e7);
        let ((), a) = cal.time(|| ());
        let ((), b) = cal.time(|| ());
        assert!(a.factor > 0.0 && b.factor > 0.0);
        assert!(a.raw_s < 0.01 && b.raw_s < 0.01);
    }

    #[test]
    fn percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }
}
