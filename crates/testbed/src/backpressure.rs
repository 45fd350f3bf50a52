//! Per-VM kick throttling: a deterministic token bucket (GCRA form).
//!
//! The throttle decides, in integer nanoseconds of sim time, whether a
//! guest kick is admitted to the vhost worker immediately or deferred to
//! a later (exactly computed) instant. The GCRA formulation keeps the
//! whole decision in two `u64`s — a theoretical-arrival-time cursor plus
//! constants — so it is trivially deterministic and allocation-free:
//!
//! * `increment` `T = 1e9 / rate` — nanoseconds earned per kick,
//! * `tolerance` `τ = burst · T` — how far ahead of schedule a burst may
//!   run before deferral starts.
//!
//! A kick arriving at `t` conforms iff the cursor (TAT) is at most
//! `t + τ`; it then advances the cursor by `T`. A non-conforming kick is
//! deferred to `TAT − τ` — the first instant it would conform — and
//! charged there. Deferred kicks coalesce: the virtqueue's kick is
//! level-triggered, so delivering one late wake at the conforming instant
//! serves every kick the storm produced in between.

use crate::params::BackpressureParams;

/// Outcome of one admission test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admission {
    /// The kick conforms: deliver it now.
    Pass,
    /// The kick is over-rate: deliver one coalesced wake at this sim-time
    /// (nanoseconds) instead.
    DeferUntil(u64),
}

/// GCRA state for one VM's kick stream.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KickBucket {
    /// Theoretical arrival time of the next conforming kick (ns).
    tat: u64,
    /// Nanoseconds per kick at the sustained rate.
    increment: u64,
    /// Burst allowance in nanoseconds.
    tolerance: u64,
}

impl KickBucket {
    /// A bucket from the run parameters; starts full (a burst passes
    /// immediately).
    pub(crate) fn new(p: &BackpressureParams) -> Self {
        let increment = (1e9 / p.kick_rate).max(1.0) as u64;
        KickBucket {
            tat: 0,
            increment,
            tolerance: increment.saturating_mul(p.kick_burst as u64),
        }
    }

    /// Admission-test a kick arriving at sim-time `now_ns`.
    pub(crate) fn admit(&mut self, now_ns: u64) -> Admission {
        let conforming_at = self.conforming_at();
        if now_ns >= conforming_at {
            self.tat = self.tat.max(now_ns) + self.increment;
            Admission::Pass
        } else {
            // Do not advance the cursor: the deferred wake re-enters
            // `admit` when it fires and is charged then. Intermediate
            // kicks coalesce onto the same instant.
            Admission::DeferUntil(conforming_at)
        }
    }

    /// The earliest instant a kick would currently conform.
    fn conforming_at(&self) -> u64 {
        self.tat.saturating_sub(self.tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_sim::SimDuration;

    fn bucket(rate: f64, burst: u32) -> KickBucket {
        KickBucket::new(&BackpressureParams {
            kick_rate: rate,
            kick_burst: burst,
            service_budget: 4096,
            budget_window: SimDuration::from_millis(1),
        })
    }

    #[test]
    fn burst_passes_then_defers() {
        // 1 kHz, burst 4: T = 1 ms, τ = 4 ms.
        let mut b = bucket(1000.0, 4);
        for i in 0..5 {
            assert_eq!(b.admit(0), Admission::Pass, "kick {i} within burst");
        }
        // Sixth same-instant kick: TAT = 5 ms, conforming at 1 ms.
        assert_eq!(b.admit(0), Admission::DeferUntil(1_000_000));
    }

    #[test]
    fn deferred_instant_conforms() {
        let mut b = bucket(1000.0, 4);
        for _ in 0..5 {
            b.admit(0);
        }
        let Admission::DeferUntil(at) = b.admit(0) else {
            panic!("expected deferral");
        };
        assert_eq!(b.admit(at), Admission::Pass, "deferred wake must pass");
    }

    #[test]
    fn paced_stream_never_defers() {
        // Kicks exactly at the sustained rate conform forever.
        let mut b = bucket(1_000_000.0, 1); // T = 1 µs
        for i in 0..10_000u64 {
            assert_eq!(b.admit(i * 1_000), Admission::Pass, "kick {i}");
        }
    }

    #[test]
    fn idle_time_refills_the_burst_allowance() {
        let mut b = bucket(1000.0, 4);
        for _ in 0..5 {
            assert_eq!(b.admit(0), Admission::Pass);
        }
        assert!(matches!(b.admit(0), Admission::DeferUntil(_)));
        // 5 ms of silence pays the debt back in full.
        let later = 5_000_000;
        for i in 0..5 {
            assert_eq!(b.admit(later), Admission::Pass, "post-idle kick {i}");
        }
    }

    #[test]
    fn storm_coalesces_onto_one_instant() {
        let mut b = bucket(1000.0, 1);
        assert_eq!(b.admit(0), Admission::Pass);
        assert_eq!(b.admit(0), Admission::Pass, "burst of one more");
        let first = match b.admit(0) {
            Admission::DeferUntil(at) => at,
            other => panic!("expected deferral, got {other:?}"),
        };
        // Every further same-instant kick lands on the same wake.
        for _ in 0..100 {
            assert_eq!(b.admit(0), Admission::DeferUntil(first));
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_time() {
        // Two buckets fed the same arrival times make the same decisions
        // (the determinism contract).
        let arrivals = [0u64, 10, 10, 500_000, 500_000, 500_000, 2_000_000];
        let mut a = bucket(1000.0, 2);
        let mut b = bucket(1000.0, 2);
        for &t in &arrivals {
            assert_eq!(a.admit(t), b.admit(t));
        }
    }
}
