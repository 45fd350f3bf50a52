//! Per-VM overload-control ledger.
//!
//! The hostile-guest hardening layer throttles two things per VM: guest
//! kicks (a token-bucket rate limit on I/O-instruction exits reaching the
//! vhost worker) and vhost service (a per-window request budget in the
//! hybrid poll loop). Work that is shed or deferred by either mechanism is
//! reported here so experiments can show *where* an overloaded VM's
//! excess load went — it must land on the misbehaving VM itself, never on
//! its neighbors. The testbed counts each event once, in the VM's own
//! ledger, and builds this value from it at the end of a run.

/// Counters for one VM's backpressure interactions (all zero when the
/// throttles are disabled or never triggered).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackpressureStats {
    /// Guest kicks deferred by the token-bucket throttle (delivered late,
    /// coalesced with the rescheduled wake).
    pub throttled_kicks: u64,
    /// Poll-loop turns ended early because the VM's service budget ran
    /// out (the deferred queue work waited for the next window).
    pub budget_deferrals: u64,
    /// Spurious kicks observed while the handler was already polling
    /// (kick storms; ignored, but they are what charges the throttle).
    pub spurious_kicks: u64,
    /// Spurious EOI writes (EOI storms) absorbed by the interrupt path.
    pub spurious_eois: u64,
    /// Ring-validation violations that quarantined one of this VM's
    /// queues.
    pub quarantines: u64,
    /// Queue resets the guest performed to leave quarantine.
    pub resets: u64,
    /// Exposed-but-unprocessed buffers discarded at quarantine time.
    pub quarantine_dropped: u64,
}

impl BackpressureStats {
    /// Sum of every shed/deferred/absorbed event (a quick "was this VM
    /// throttled at all" test).
    pub fn total(&self) -> u64 {
        self.throttled_kicks
            + self.budget_deferrals
            + self.spurious_kicks
            + self.spurious_eois
            + self.quarantines
            + self.resets
            + self.quarantine_dropped
    }

    /// Merge another ledger into this one (per-VM → per-run aggregation).
    pub fn merge(&mut self, other: &BackpressureStats) {
        self.throttled_kicks += other.throttled_kicks;
        self.budget_deferrals += other.budget_deferrals;
        self.spurious_kicks += other.spurious_kicks;
        self.spurious_eois += other.spurious_eois;
        self.quarantines += other.quarantines;
        self.resets += other.resets;
        self.quarantine_dropped += other.quarantine_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = BackpressureStats::default();
        assert_eq!(s.total(), 0);
        assert_eq!(s, BackpressureStats::default());
    }

    #[test]
    fn total_and_merge_cover_every_field() {
        let a = BackpressureStats {
            throttled_kicks: 1,
            budget_deferrals: 2,
            spurious_kicks: 3,
            spurious_eois: 4,
            quarantines: 5,
            resets: 6,
            quarantine_dropped: 7,
        };
        assert_eq!(a.total(), 28);
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.total(), 56);
        assert_eq!(b.throttled_kicks, 2);
        assert_eq!(b.quarantine_dropped, 14);
    }
}
