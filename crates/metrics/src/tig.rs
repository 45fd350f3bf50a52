//! Time-in-guest (TIG) accounting.
//!
//! The paper (§VI-C): *"The key to virtualization performance is that a CPU
//! core spends more time in guest mode running the guest code, not in the
//! host handling VM exits. Accordingly, we use the time in guest (TIG)
//! percentage as a measurement indicator. It is calculated by summing up the
//! time of each VM entry and exit, and then dividing the result by the total
//! elapsed time."*
//!
//! [`TigAccount`] integrates guest-mode intervals for a vCPU against a
//! measurement window; the testbed calls [`TigAccount::enter_guest`] /
//! [`TigAccount::leave_guest`] on VM entries/exits and on context switches.

use es2_sim::{SimDuration, SimTime};

/// Per-vCPU guest-mode time integrator.
#[derive(Clone, Debug)]
pub struct TigAccount {
    in_guest_since: Option<SimTime>,
    window_open: Option<SimTime>,
    window_guest: SimDuration,
    window_len: SimDuration,
}

impl Default for TigAccount {
    fn default() -> Self {
        Self::new()
    }
}

impl TigAccount {
    /// A fresh account outside guest mode with no open window.
    pub fn new() -> Self {
        TigAccount {
            in_guest_since: None,
            window_open: None,
            window_guest: SimDuration::ZERO,
            window_len: SimDuration::ZERO,
        }
    }

    /// Open the measurement window at `now` (after warm-up).
    pub fn open_window(&mut self, now: SimTime) {
        self.window_open = Some(now);
        self.window_guest = SimDuration::ZERO;
        // If currently in guest mode, only the part after `now` counts.
        if let Some(since) = self.in_guest_since {
            if since < now {
                self.in_guest_since = Some(now);
            }
        }
    }

    /// Close the measurement window at `now`.
    pub fn close_window(&mut self, now: SimTime) {
        if self.in_guest_since.is_some() {
            // Flush the open interval up to `now` into the window; the
            // vCPU stays in guest mode.
            self.leave_guest(now);
            self.enter_guest(now);
        }
        if let Some(open) = self.window_open.take() {
            self.window_len = now.since(open);
        }
    }

    /// VM entry: the vCPU starts running guest code at `now`.
    ///
    /// Idempotent: entering while already in guest mode is a no-op (can
    /// happen when a context switch and an entry coincide).
    pub fn enter_guest(&mut self, now: SimTime) {
        if self.in_guest_since.is_none() {
            self.in_guest_since = Some(now);
        }
    }

    /// VM exit (or the vCPU thread is descheduled) at `now`.
    pub fn leave_guest(&mut self, now: SimTime) {
        if let Some(since) = self.in_guest_since.take() {
            if self.window_open.is_some() {
                self.window_guest += now.saturating_since(since);
            }
        }
    }

    /// TIG percentage within the (closed) window, in `[0, 100]`.
    pub fn tig_percent(&self) -> f64 {
        if self.window_len.is_zero() {
            0.0
        } else {
            100.0 * self.window_guest.as_secs_f64() / self.window_len.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn full_guest_time_is_100_percent() {
        let mut a = TigAccount::new();
        a.open_window(t(0));
        a.enter_guest(t(0));
        a.leave_guest(t(1000));
        a.close_window(t(1000));
        assert!((a.tig_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn alternating_guest_host() {
        let mut a = TigAccount::new();
        a.open_window(t(0));
        // 3 x (70us guest + 30us host)
        for i in 0..3 {
            a.enter_guest(t(i * 100));
            a.leave_guest(t(i * 100 + 70));
        }
        a.close_window(t(300));
        assert!((a.tig_percent() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_is_excluded() {
        let mut a = TigAccount::new();
        a.enter_guest(t(0));
        a.leave_guest(t(100)); // before window
        a.open_window(t(100));
        a.enter_guest(t(100));
        a.leave_guest(t(150));
        a.close_window(t(200));
        assert!((a.tig_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn window_opening_mid_guest_interval_truncates() {
        let mut a = TigAccount::new();
        a.enter_guest(t(0));
        a.open_window(t(50));
        a.leave_guest(t(100));
        a.close_window(t(150));
        // Only 50us of the guest interval falls inside the window.
        assert!((a.tig_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn close_window_flushes_open_interval() {
        let mut a = TigAccount::new();
        a.open_window(t(0));
        a.enter_guest(t(0));
        a.close_window(t(80));
        assert!((a.tig_percent() - 100.0).abs() < 1e-9);
        // Still in guest mode afterwards; time after the close is not
        // charged to the closed window.
        a.leave_guest(t(100));
        assert!((a.tig_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn double_enter_is_idempotent() {
        let mut a = TigAccount::new();
        a.open_window(t(0));
        a.enter_guest(t(0));
        a.enter_guest(t(10)); // ignored
        a.leave_guest(t(20));
        a.close_window(t(20));
        assert!((a.tig_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn leave_without_enter_is_noop() {
        let mut a = TigAccount::new();
        a.open_window(t(0));
        a.leave_guest(t(10));
        a.close_window(t(10));
        assert_eq!(a.tig_percent(), 0.0);
    }
}
