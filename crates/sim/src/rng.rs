//! Seedable simulation PRNG.
//!
//! A self-contained xoshiro256++ implementation (public-domain algorithm by
//! Blackman & Vigna), seeded through SplitMix64. We carry our own rather than
//! pulling `rand` into every simulation crate so that (a) the stream is
//! stable across dependency upgrades — experiment outputs are supposed to be
//! reproducible bit-for-bit from a seed — and (b) the hot path stays four
//! xor/rotate instructions.

/// A deterministic pseudo-random number generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator (for per-component streams).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub(crate) fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for open-loop arrival processes (e.g. httperf request
    /// interarrivals).
    #[inline]
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        // 1 - U in (0, 1] so ln() is finite.
        let u = 1.0 - self.gen_f64();
        -mean * u.ln()
    }

    /// Pick a uniformly random element index, or `None` if empty.
    #[inline]
    pub fn choose_index(&mut self, len: usize) -> Option<usize> {
        if len == 0 {
            None
        } else {
            Some(self.gen_range(len as u64) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SimRng::new(7);
        let mut child = parent.fork();
        // Child stream differs from the parent's continuation.
        let same = (0..100)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(same < 2);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SimRng::new(0);
        let vals: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_probability_is_roughly_right() {
        let mut r = SimRng::new(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn gen_exp_mean_is_roughly_right() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen_exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn choose_index_handles_empty() {
        let mut r = SimRng::new(19);
        assert_eq!(r.choose_index(0), None);
        assert_eq!(r.choose_index(1), Some(0));
    }

    proptest! {
        /// gen_range never exceeds its bound and covers the range.
        #[test]
        fn prop_gen_range_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut r = SimRng::new(seed);
            for _ in 0..100 {
                prop_assert!(r.gen_range(bound) < bound);
            }
        }

        /// Small bounds are hit uniformly enough that every value appears.
        #[test]
        fn prop_gen_range_covers_small_bounds(seed in any::<u64>()) {
            let mut r = SimRng::new(seed);
            let mut seen = [false; 8];
            for _ in 0..1000 {
                seen[r.gen_range(8) as usize] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
