//! Streaming mean and maximum (Welford's running-mean update).

/// Streaming mean / maximum accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    max: f64,
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.max = self.max.max(x);
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn known_values() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.max(), 9.0);
    }

    proptest! {
        /// Mean lies between min and max.
        #[test]
        fn prop_mean_bounded(xs in proptest::collection::vec(-1e9f64..1e9, 1..100)) {
            let mut s = Summary::new();
            for &x in &xs { s.add(x); }
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!(s.mean() >= min - 1e-6);
            prop_assert!(s.mean() <= s.max() + 1e-6);
        }
    }
}
