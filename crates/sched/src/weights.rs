//! Nice-to-weight mapping (Linux `sched_prio_to_weight`).
//!
//! Each nice step changes CPU share by ~25%; nice 0 is 1024. The paper's
//! experiments run "lowest-priority CPU burn scripts" (nice 19, weight 15)
//! inside every VM so vCPU threads are always runnable without distorting
//! the I/O threads' share.

/// The weight of a nice-0 task.
pub(crate) const NICE_0_WEIGHT: u32 = 1024;

/// Linux's `sched_prio_to_weight[40]`, indexed by `nice + 20`.
const PRIO_TO_WEIGHT: [u32; 40] = [
    88761, 71755, 56483, 46273, 36291, // -20 .. -16
    29154, 23254, 18705, 14949, 11916, // -15 .. -11
    9548, 7620, 6100, 4904, 3906, // -10 .. -6
    3121, 2501, 1991, 1586, 1277, // -5 .. -1
    1024, 820, 655, 526, 423, // 0 .. 4
    335, 272, 215, 172, 137, // 5 .. 9
    110, 87, 70, 56, 45, // 10 .. 14
    36, 29, 23, 18, 15, // 15 .. 19
];

/// Map a nice value (clamped to `[-20, 19]`) to its CFS load weight.
pub(crate) fn nice_to_weight(nice: i8) -> u32 {
    let n = nice.clamp(-20, 19) as i32 + 20;
    PRIO_TO_WEIGHT[n as usize]
}

/// Scale a wall-clock execution delta (ns) into vruntime ns for a weight.
///
/// `delta_vruntime = delta_exec * NICE_0_WEIGHT / weight`, the CFS
/// `calc_delta_fair` rule (nice-0 tasks age 1:1).
///
/// Exact for every input: nice-0 returns `delta_ns` unchanged, a product
/// that fits in `u64` divides in `u64`, and only a longer delta pays the
/// `u128` divide (a library call on x86-64).
#[inline]
pub(crate) fn scale_delta(delta_ns: u64, weight: u32) -> u64 {
    if weight == NICE_0_WEIGHT {
        return delta_ns;
    }
    match delta_ns.checked_mul(u64::from(NICE_0_WEIGHT)) {
        Some(product) => product / u64::from(weight),
        None => scale_delta_wide(delta_ns, weight),
    }
}

/// `scale_delta` in `u128`, for products past `u64`.
fn scale_delta_wide(delta_ns: u64, weight: u32) -> u64 {
    ((u128::from(delta_ns) * u128::from(NICE_0_WEIGHT)) / u128::from(weight)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nice_zero_is_1024() {
        assert_eq!(nice_to_weight(0), 1024);
    }

    #[test]
    fn extremes_match_linux_table() {
        assert_eq!(nice_to_weight(-20), 88761);
        assert_eq!(nice_to_weight(19), 15);
    }

    #[test]
    fn clamps_out_of_range() {
        assert_eq!(nice_to_weight(-100), 88761);
        assert_eq!(nice_to_weight(100), 15);
    }

    #[test]
    fn each_step_changes_share_about_25_percent() {
        for nice in -20..19i8 {
            let a = nice_to_weight(nice) as f64;
            let b = nice_to_weight(nice + 1) as f64;
            let ratio = a / b;
            assert!((1.17..1.35).contains(&ratio), "nice {nice}: ratio {ratio}");
        }
    }

    #[test]
    fn nice0_vruntime_is_wall_clock() {
        assert_eq!(scale_delta(1_000_000, NICE_0_WEIGHT), 1_000_000);
    }

    #[test]
    fn heavy_thread_ages_slower() {
        // nice -5 (weight 3121) accrues vruntime ~3x slower than nice 0.
        let d = scale_delta(3_121_000, nice_to_weight(-5));
        assert_eq!(d, 1_024_000);
    }

    proptest! {
        /// Scaling is monotone in delta and anti-monotone in weight.
        #[test]
        fn prop_scale_monotone(d1 in 0u64..1u64 << 40, d2 in 0u64..1u64 << 40, n in -20i8..=19) {
            let w = nice_to_weight(n);
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(scale_delta(lo, w) <= scale_delta(hi, w));
            // Heavier weight => less vruntime for the same delta.
            prop_assert!(scale_delta(lo, 88761) <= scale_delta(lo, 15));
        }

        /// The nice-0 and `u64` fast paths give exactly the `u128`
        /// formula, at every table weight and at deltas on both sides of
        /// the `u64` product limit.
        #[test]
        fn prop_fast_paths_match_the_wide_formula(
            d in any::<u64>(),
            short in 0u64..1u64 << 54,
            n in -20i8..=19,
        ) {
            let w = nice_to_weight(n);
            for delta in [d, short, d >> 10, (d >> 10) + 1] {
                prop_assert_eq!(scale_delta(delta, w), scale_delta_wide(delta, w));
            }
            prop_assert_eq!(scale_delta(d, NICE_0_WEIGHT), d);
        }
    }
}
