//! Latency summaries and failure accounting.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count: a p99 over 200 samples rests on two values and is noise.

/// Samples a reported tail percentile must have strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Median plus the best-supported tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle values for even counts).
    pub p50: f64,
    /// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`]
    /// samples beyond it; `None` when even p75 is not supported.
    pub tail: Option<Percentile>,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of already sorted, non-empty samples.
fn rank(sorted: &[f64], pct: f64) -> Percentile {
    let n = sorted.len();
    // The epsilon keeps float error from pushing an exact rank up by one.
    let idx = ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n) - 1;
    Percentile { pct, value: sorted[idx], beyond: n - 1 - idx }
}

/// Median of the samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median plus the highest percentile with at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let tail = if s.is_empty() {
        None
    } else {
        LADDER.iter().map(|&p| rank(&s, p)).find(|p| p.beyond >= MIN_BEYOND)
    };
    Summary { n: s.len(), p50: median(samples), tail }
}

/// Operations attempted and failed. A failed operation is a non-200
/// response, a connection error or a response whose scores differ from
/// the reference in any bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
        let s = summarize(&ramp(1000));
        let t = s.tail.unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);

        // 10_000 samples support p99.9.
        assert_eq!(summarize(&ramp(10_000)).tail.unwrap().pct, 99.9);
        // 999 samples: p99 has 9 beyond, so p95 (49 beyond) is reported.
        let t = summarize(&ramp(999)).tail.unwrap();
        assert_eq!((t.pct, t.beyond), (95.0, 49));
        // 100 samples: p90 has exactly 10 beyond.
        let t = summarize(&ramp(100)).tail.unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 39 samples: p75 has 9 beyond, so no tail is supported.
        assert_eq!(summarize(&ramp(39)).tail, None);
        assert_eq!(summarize(&[]).tail, None);
    }

    #[test]
    fn fail_ratio_counts_every_failure_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        for i in 0..8 {
            t.record(i % 4 != 0);
        }
        assert_eq!((t.attempted, t.failed), (8, 2));
        assert_eq!(t.fail_ratio(), 0.25);
    }
}
