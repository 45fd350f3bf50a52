//! Time-in-guest (TIG) accounting.
//!
//! The paper (§VI-C): *"The key to virtualization performance is that a CPU
//! core spends more time in guest mode running the guest code, not in the
//! host handling VM exits. Accordingly, we use the time in guest (TIG)
//! percentage as a measurement indicator. It is calculated by summing up the
//! time of each VM entry and exit, and then dividing the result by the total
//! elapsed time."*
//!
//! [`GuestTime`] integrates the guest-mode intervals of one VM's vCPUs
//! against a measurement window its owner keeps: the testbed's per-VM
//! ledger calls [`GuestTime::enter`] / [`GuestTime::leave`] on VM entries,
//! exits and context switches, and passes the window's start in.

use es2_sim::{SimDuration, SimTime};

/// Guest-mode time integrator for the vCPUs of one VM.
#[derive(Clone, Debug)]
pub struct GuestTime {
    /// Per vCPU: start of the guest-mode interval in progress.
    since: Vec<Option<SimTime>>,
    /// Per vCPU: guest-mode time inside the window.
    in_window: Vec<SimDuration>,
}

impl GuestTime {
    /// `vcpus` vCPUs, all outside guest mode.
    pub fn new(vcpus: usize) -> Self {
        GuestTime {
            since: vec![None; vcpus],
            in_window: vec![SimDuration::ZERO; vcpus],
        }
    }

    /// VM entry: vCPU `idx` starts running guest code at `now`.
    ///
    /// Idempotent: entering with an interval already in progress keeps
    /// the earlier start.
    pub fn enter(&mut self, idx: usize, now: SimTime) {
        self.since[idx].get_or_insert(now);
    }

    /// VM exit (or the vCPU thread is descheduled) at `now`. The part of
    /// the interval after `window` (the open window's start, `None` when
    /// no window is open) counts. Returns the interval's start, or `None`
    /// when none was in progress.
    pub fn leave(&mut self, idx: usize, now: SimTime, window: Option<SimTime>) -> Option<SimTime> {
        let since = self.since[idx].take()?;
        if let Some(open) = window {
            self.in_window[idx] += now.saturating_since(since.max(open));
        }
        Some(since)
    }

    /// The window opened at `open` closes at `now`: intervals in progress
    /// count up to `now` and stay in progress.
    pub fn close_window(&mut self, open: SimTime, now: SimTime) {
        for (since, ns) in self.since.iter().zip(&mut self.in_window) {
            if let Some(since) = *since {
                *ns += now.saturating_since(since.max(open));
            }
        }
    }

    /// Starts of the intervals still in progress.
    pub fn in_progress(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.since.iter().flatten().copied()
    }

    /// Mean TIG percentage across the vCPUs over a closed window of
    /// length `window`, in `[0, 100]` (0 for an empty window).
    pub fn percent(&self, window: SimDuration) -> f64 {
        let sum: f64 = self
            .in_window
            .iter()
            .map(|g| {
                if window.is_zero() {
                    0.0
                } else {
                    100.0 * g.as_secs_f64() / window.as_secs_f64()
                }
            })
            .sum();
        sum / self.in_window.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn us(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn full_guest_time_is_100_percent() {
        let mut g = GuestTime::new(1);
        g.enter(0, t(0));
        g.leave(0, t(1000), Some(t(0)));
        g.close_window(t(0), t(1000));
        assert!((g.percent(us(1000)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn alternating_guest_host() {
        let mut g = GuestTime::new(2);
        // vCPU 0: 3 x (70us guest + 30us host); vCPU 1 always in guest.
        g.enter(1, t(0));
        for i in 0..3 {
            g.enter(0, t(i * 100));
            g.leave(0, t(i * 100 + 70), Some(t(0)));
        }
        g.close_window(t(0), t(300));
        assert!((g.percent(us(300)) - 85.0).abs() < 1e-9, "mean over vCPUs");
    }

    #[test]
    fn warmup_is_excluded() {
        let mut g = GuestTime::new(1);
        g.enter(0, t(0));
        g.leave(0, t(100), None); // before the window
        g.enter(0, t(100));
        g.leave(0, t(150), Some(t(100)));
        g.close_window(t(100), t(200));
        assert!((g.percent(us(100)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn window_opening_mid_guest_interval_truncates() {
        let mut g = GuestTime::new(1);
        g.enter(0, t(0));
        assert_eq!(g.leave(0, t(100), Some(t(50))), Some(t(0)));
        g.close_window(t(50), t(150));
        // Only 50us of the guest interval falls inside the window.
        assert!((g.percent(us(100)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn close_window_flushes_open_interval() {
        let mut g = GuestTime::new(1);
        g.enter(0, t(0));
        g.close_window(t(0), t(80));
        assert!((g.percent(us(80)) - 100.0).abs() < 1e-9);
        assert_eq!(g.in_progress().collect::<Vec<_>>(), vec![t(0)]);
        // Still in guest mode afterwards; time after the close is not
        // charged to the closed window.
        assert_eq!(g.leave(0, t(100), None), Some(t(0)));
        assert!((g.percent(us(80)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn double_enter_is_idempotent() {
        let mut g = GuestTime::new(1);
        g.enter(0, t(0));
        g.enter(0, t(10)); // ignored
        assert_eq!(g.leave(0, t(20), Some(t(0))), Some(t(0)));
        g.close_window(t(0), t(20));
        assert!((g.percent(us(20)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn leave_without_enter_is_noop() {
        let mut g = GuestTime::new(1);
        assert_eq!(g.leave(0, t(10), Some(t(0))), None);
        g.close_window(t(0), t(10));
        assert_eq!(g.percent(us(10)), 0.0);
        assert_eq!(g.in_progress().count(), 0);
    }
}
