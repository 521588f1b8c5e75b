//! The harness's own arithmetic: percentiles under the ten-beyond rule,
//! summaries of sample sets, and failure accounting.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the sample cannot support it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted` samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The smallest sample count at which `percentile(_, q)` is defined.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= MIN_BEYOND
        })
        .expect("some sample count supports every q < 1")
}

/// Median of unsorted samples (mean of the middle pair for even counts);
/// `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A sample set that keeps its values and sorts lazily.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The `q`-percentile; panics when the run was too short to support
    /// it, which the workloads rule out by running long enough.
    pub fn pct(&self, q: f64, what: &str) -> f64 {
        percentile(&self.sorted(), q).unwrap_or_else(|| {
            panic!(
                "{what}: {} samples cannot support p{} (need {})",
                self.len(),
                q * 100.0,
                min_samples_for(q)
            )
        })
    }

    /// Like [`Samples::pct`], but `0.0` for an empty set (a phase that
    /// never ran in this workload).
    pub fn pct_or_zero(&self, q: f64, what: &str) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.pct(q, what)
        }
    }

    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }
}

/// What happened to one attempted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// A non-2xx HTTP status or a session error.
    Status,
    /// A socket error or timeout.
    Transport,
    /// An answer that differs from the interpreter's.
    Mismatch,
}

/// Counts of attempted and failed operations.  Every failure kind counts
/// once against `attempted`; `error_rate` is failed ÷ attempted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub status: u64,
    pub transport: u64,
    pub mismatch: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Status => self.status += 1,
            Outcome::Transport => self.transport += 1,
            Outcome::Mismatch => self.mismatch += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.status += other.status;
        self.transport += other.transport;
        self.mismatch += other.mismatch;
    }

    pub fn failed(&self) -> u64 {
        self.status + self.transport + self.mismatch
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for(0.99), 1_000);
        // 1 000 samples: rank 990, ten beyond
        assert_eq!(percentile(&ramp(1_000), 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(2_000), 0.99), Some(1_980.0));
    }

    #[test]
    fn p50_is_the_nearest_rank_median() {
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn samples_sort_before_selecting() {
        let mut s = Samples::default();
        for v in (1..=40).rev() {
            s.push(v as f64);
        }
        assert_eq!(s.pct(0.5, "test"), 20.0);
        assert_eq!(Samples::default().pct_or_zero(0.5, "empty"), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn error_rate_counts_every_failure_kind_once() {
        let mut t = Tally::default();
        for outcome in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Status,
            Outcome::Transport,
            Outcome::Mismatch,
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Ok,
        ] {
            t.record(outcome);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.error_rate(), 3.0 / 8.0);
        let mut total = Tally::default();
        total.merge(t);
        total.merge(t);
        assert_eq!((total.attempted, total.failed()), (16, 6));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
