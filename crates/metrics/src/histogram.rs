//! Log-linear histograms for latency distributions.
//!
//! An HDR-style histogram over `u64` values (we record nanoseconds): values
//! are bucketed into a power-of-two *major* tier subdivided into a fixed
//! number of linear *minor* buckets, giving a bounded relative error
//! (~1/`SUBBUCKETS`) over the full 64-bit range. Buckets grow to the
//! highest value recorded: an empty histogram owns no bucket storage, and
//! one of microsecond latencies under 10 ms holds at most ~300 counters,
//! not the 1920 the full range would need.

const SUBBUCKET_BITS: u32 = 5;
const SUBBUCKETS: u64 = 1 << SUBBUCKET_BITS; // 32 per tier => <= ~3% relative error

/// A log-linear histogram of `u64` samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Counts per bucket, up to the highest bucket recorded so far; every
    /// bucket past the end holds zero.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_index(value: u64) -> usize {
    // Values below SUBBUCKETS map linearly; above, each power-of-two tier is
    // split into SUBBUCKETS linear sub-buckets.
    if value < SUBBUCKETS {
        return value as usize;
    }
    let tier = 63 - value.leading_zeros() as u64; // floor(log2(value)), >= SUBBUCKET_BITS
    let tier_off = tier - SUBBUCKET_BITS as u64;
    let sub = (value >> tier_off) - SUBBUCKETS; // 0..SUBBUCKETS
    ((tier_off + 1) * SUBBUCKETS + sub) as usize
}

/// Upper bound (inclusive representative) of a bucket — used to report
/// percentiles.
#[inline]
fn bucket_high(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBBUCKETS {
        return index;
    }
    let tier_off = index / SUBBUCKETS - 1;
    let sub = index % SUBBUCKETS;
    // The top bucket's exclusive edge is 2^64, which shifts out to 0:
    // wrapping back by one gives its inclusive bound, u64::MAX.
    ((SUBBUCKETS + sub + 1) << tier_off).wrapping_sub(1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let i = bucket_index(value);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, with bucket resolution.
    ///
    /// Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket resolution).
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th percentile (bucket resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert!((h.mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_ordered() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1000);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // Within bucket resolution (~3%) of the true quantile.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.05, "{p50}");
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.05, "{p99}");
    }

    #[test]
    fn empty_quantiles_are_zero_at_every_q() {
        let h = Histogram::new();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.median(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        // The representative is capped at the recorded max, so even a
        // value deep in a wide bucket comes back exactly.
        for v in [0u64, 1, 31, 32, 1_234_567] {
            let mut h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "v={v} q={q}");
            }
            assert_eq!(h.max(), v);
        }
    }

    #[test]
    fn linear_to_log_boundary_values_are_exact() {
        // 0..32 map linearly; 32..64 sit in the first power-of-two tier
        // with one value per sub-bucket — all exact. The first lossy
        // bucket starts at 64.
        for v in [31u64, 32, 33, 63] {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(1.0), v, "v={v}");
        }
        // 64 and 65 share a bucket whose representative is 65: quantiles
        // overestimate within the documented ~3% bucket resolution.
        let mut h = Histogram::new();
        h.record(64);
        h.record(65);
        assert_eq!(h.quantile(0.0), 65);
        assert_eq!(h.quantile(1.0), 65);
    }

    #[test]
    fn top_bucket_reports_its_samples() {
        // The last bucket ends at u64::MAX; quantiles there stay capped at
        // the recorded max instead of overflowing.
        assert_eq!(bucket_high(bucket_index(u64::MAX)), u64::MAX);
        let mut h = Histogram::new();
        h.record(u64::MAX - 1);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.0), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantile_rank_edges_pick_first_and_last_sample() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(10);
        h.record(20);
        // q=0 clamps to rank 1 (the smallest sample's bucket); q=1 must
        // reach the largest.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 20);
        // Out-of-range q is clamped, not an error.
        assert_eq!(h.quantile(-1.0), 1);
        assert_eq!(h.quantile(2.0), 20);
    }

    #[test]
    fn bucket_index_is_monotone_at_boundaries() {
        let mut prev = 0;
        for exp in 0..63 {
            for delta in [0u64, 1] {
                let v = (1u64 << exp) + delta;
                let idx = bucket_index(v);
                assert!(idx >= prev, "v={v} idx={idx} prev={prev}");
                prev = idx;
            }
        }
    }

    /// The storage layout before buckets grew on demand: every bucket of
    /// the 64-bit range allocated up front.
    fn presized() -> Histogram {
        Histogram {
            buckets: vec![0; bucket_index(u64::MAX) + 1],
            ..Histogram::new()
        }
    }

    /// Every observable of `lazy` equals that of the pre-sized `full`.
    fn assert_same(lazy: &Histogram, full: &Histogram) {
        assert_eq!(lazy.count(), full.count());
        assert_eq!(lazy.sum, full.sum);
        assert_eq!(lazy.max(), full.max());
        assert_eq!(lazy.mean().to_bits(), full.mean().to_bits());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(lazy.quantile(q), full.quantile(q), "q={q}");
        }
        assert!(lazy.buckets.len() <= full.buckets.len());
    }

    /// Spread a raw draw across the whole range, with extra weight on
    /// small values (short bucket vectors) and on values next to
    /// `u64::MAX` (the last bucket).
    fn spread((kind, raw): (u8, u64)) -> u64 {
        match kind {
            0 => raw % 64,
            1 => raw % 1_000_000,
            2 => u64::MAX - raw % 1_000,
            _ => raw,
        }
    }

    proptest! {
        /// Every value's bucket upper bound is >= the value's bucket lower
        /// neighbour and the relative error of the representative is bounded.
        #[test]
        fn prop_bucket_relative_error(v in 1u64..u64::MAX / 2) {
            let idx = bucket_index(v);
            let hi = bucket_high(idx);
            prop_assert!(hi >= v, "hi={hi} v={v}");
            // hi overestimates by at most one sub-bucket width ~ v/32 + 1.
            prop_assert!(hi - v <= v / 16 + 1, "hi={hi} v={v}");
        }

        /// bucket_index is monotone.
        #[test]
        fn prop_bucket_index_monotone(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
        }

        /// Buckets grown on demand answer exactly like buckets allocated
        /// up front, for short and for range-spanning bucket vectors.
        #[test]
        fn prop_lazy_buckets_match_presized(
            small in proptest::collection::vec(0u64..10_000, 0..40),
            wide in proptest::collection::vec((0u8..4, any::<u64>()), 0..40),
        ) {
            let wide: Vec<u64> = wide.into_iter().map(spread).collect();
            let (mut ls, mut fs) = (Histogram::new(), presized());
            let (mut lw, mut fw) = (Histogram::new(), presized());
            for &v in &small {
                ls.record(v);
                fs.record(v);
            }
            for &v in &wide {
                lw.record(v);
                fw.record(v);
            }
            assert_same(&ls, &fs);
            assert_same(&lw, &fw);
        }

        /// max/count survive arbitrary sequences.
        #[test]
        fn prop_extrema(values in proptest::collection::vec(any::<u64>(), 1..100)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        }
    }
}
