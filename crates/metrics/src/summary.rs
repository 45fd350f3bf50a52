//! Latency summary: a log-linear histogram for quantiles beside an exact
//! sum and maximum.

use crate::Histogram;

/// Latency samples (recorded in ns): bucketed in whole µs for the
/// quantiles, summed and maximized in ns so the mean and maximum are
/// exact.
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    hist_us: Histogram,
    sum_ns: u64,
    max_ns: u64,
}

impl LatencySummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample of `lat_ns` nanoseconds.
    #[inline]
    pub fn add(&mut self, lat_ns: u64) {
        self.hist_us.record(lat_ns / 1_000);
        self.sum_ns += lat_ns;
        self.max_ns = self.max_ns.max(lat_ns);
    }

    fn count(&self) -> u64 {
        self.hist_us.count()
    }

    /// Arithmetic mean in µs (0 if empty).
    pub fn mean_us(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum_ns as f64 / n as f64 / 1e3,
        }
    }

    /// Largest sample in µs (0 if empty).
    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1e3
    }

    /// 99th percentile in whole µs (bucket resolution; 0 if empty).
    pub fn p99_us(&self) -> u64 {
        self.hist_us.p99()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_benign() {
        let s = LatencySummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.max_us(), 0.0);
        assert_eq!(s.p99_us(), 0);
    }

    #[test]
    fn known_values() {
        let mut s = LatencySummary::new();
        for ns in [2_000, 4_000, 4_000, 4_000, 5_000, 5_000, 7_000, 9_500] {
            s.add(ns);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean_us() - 5.0625).abs() < 1e-12);
        assert_eq!(s.max_us(), 9.5, "the maximum keeps sub-µs precision");
        assert_eq!(s.p99_us(), 9, "quantiles bucket whole µs");
    }

    proptest! {
        /// Mean lies between min and max.
        #[test]
        fn prop_mean_bounded(xs in proptest::collection::vec(0u64..1_000_000_000, 1..100)) {
            let mut s = LatencySummary::new();
            for &x in &xs { s.add(x); }
            let min = *xs.iter().min().unwrap() as f64 / 1e3;
            prop_assert!(s.mean_us() >= min - 1e-6);
            prop_assert!(s.mean_us() <= s.max_us() + 1e-6);
        }
    }
}
