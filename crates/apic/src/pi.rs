//! Posted-Interrupt machinery (§III, Fig. 2).
//!
//! The five steps of PI processing map onto this module as follows:
//!
//! 1. the hypervisor *posts* the interrupt in the target vCPU's
//!    [`PiDescriptor`] ([`PiDescriptor::post`] sets the PIR bit and
//!    test-and-sets the ON — "outstanding notification" — bit),
//! 2. if ON was newly set and the vCPU is running in guest mode, it sends
//!    the special notification IPI (the caller's job; the descriptor reports
//!    whether one is needed),
//! 3. the notification IPI makes the *hardware* synchronize PIR into the
//!    vAPIC page's virtual IRR ([`VApicPage::sync_from`]),
//! 4. the vAPIC page delivers the highest pending vector to the running
//!    vCPU without a VM exit ([`VApicPage::ack`]),
//! 5. the guest's EOI write updates the virtual registers, again without a
//!    VM exit ([`VApicPage::eoi`]).
//!
//! When the target vCPU is *not* in guest mode, no notification is sent;
//! pending PIR bits are synchronized at the next VM entry — which is exactly
//! the vCPU-scheduling latency that ES2's intelligent interrupt redirection
//! attacks (§III-B).

use crate::regs::IrrIsr256;
use crate::vectors::Vector;

/// The 64-byte posted-interrupt descriptor (PIR + control bits).
#[derive(Clone, Debug, Default)]
pub struct PiDescriptor {
    pir: IrrIsr256,
    /// Outstanding-notification bit: a notification IPI is in flight or the
    /// PIR has bits the CPU has not yet synchronized.
    on: bool,
    /// Suppress-notification bit (SN): set by the hypervisor while the vCPU
    /// is not in guest mode so that posting does not fire useless IPIs.
    sn: bool,
}

/// What the poster must do after posting an interrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostOutcome {
    /// ON was newly set and SN is clear: send the notification IPI to the
    /// core running the vCPU.
    SendNotification,
    /// A notification is already outstanding, or SN suppresses it: nothing
    /// to send; the pending bit will be picked up by the in-flight
    /// notification or at the next VM entry.
    NoNotification,
}

impl PiDescriptor {
    /// A cleared descriptor (SN set: vCPU starts outside guest mode).
    pub fn new() -> Self {
        PiDescriptor {
            sn: true,
            ..Default::default()
        }
    }

    /// Post `vector` (step 1 of Fig. 2). Returns whether the poster must
    /// send a notification IPI.
    pub fn post(&mut self, vector: Vector) -> PostOutcome {
        self.pir.set(vector);
        if self.on || self.sn {
            PostOutcome::NoNotification
        } else {
            self.on = true;
            PostOutcome::SendNotification
        }
    }

    /// The hypervisor sets SN when the vCPU leaves guest mode (vmexit or
    /// deschedule) and clears it right before VM entry.
    pub fn set_suppress(&mut self, sn: bool) {
        self.sn = sn;
    }

    /// Suppress-notification bit state.
    pub fn suppressed(&self) -> bool {
        self.sn
    }

    /// True if any interrupt is posted but not yet synchronized.
    pub fn has_pending(&self) -> bool {
        !self.pir.is_empty()
    }

    /// Withdraw a posted-but-unsynchronized vector (ES2's re-redirection:
    /// the interrupt moves to a vCPU that came online sooner). Returns
    /// `false` if the vector was already synchronized/delivered — the
    /// caller must not double-deliver.
    pub fn rescind(&mut self, vector: Vector) -> bool {
        self.pir.clear(vector)
    }

    /// Hardware PIR→vIRR synchronization (steps 3 / VM-entry sync): drains
    /// the PIR into the vAPIC page and clears ON. Returns how many vectors
    /// moved.
    pub fn sync_into(&mut self, vapic: &mut VApicPage) -> u32 {
        self.on = false;
        self.pir.drain_into(&mut vapic.virr)
    }

    /// Drain every posted-but-unsynchronized vector out of the PIR,
    /// clearing ON. Used by the PI→emulated degradation path: when
    /// posted-interrupt hardware becomes unavailable mid-run, pending PIR
    /// state must migrate into the emulated LAPIC's IRR so nothing is
    /// lost. Ascending vector order.
    pub fn take_pending(&mut self) -> Vec<Vector> {
        let vs: Vec<Vector> = self.pir.iter_set().collect();
        self.pir.clear_all();
        self.on = false;
        vs
    }
}

/// The hardware virtual-APIC page: virtual IRR/ISR with exit-less EOI.
#[derive(Clone, Debug, Default)]
pub struct VApicPage {
    virr: IrrIsr256,
    visr: IrrIsr256,
}

impl VApicPage {
    /// A cleared vAPIC page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Synchronize from a descriptor (convenience wrapper; see
    /// [`PiDescriptor::sync_into`]).
    pub fn sync_from(&mut self, desc: &mut PiDescriptor) -> u32 {
        desc.sync_into(self)
    }

    /// Virtual-interrupt delivery (step 4): deliver the highest pending
    /// vector without a VM exit. Same arbitration rule as the physical
    /// APIC.
    pub fn ack(&mut self) -> Option<Vector> {
        let v = self.virr.highest()?;
        let in_service_class = self.visr.highest().map_or(0, |x| x & 0xf0);
        if (v & 0xf0) <= in_service_class {
            return None;
        }
        self.virr.clear(v);
        self.visr.set(v);
        Some(v)
    }

    /// Exit-less EOI (step 5). Returns the retired vector and whether more
    /// interrupts are immediately deliverable.
    pub fn eoi(&mut self) -> (Option<Vector>, bool) {
        let retired = self.visr.highest();
        if let Some(v) = retired {
            self.visr.clear(v);
        }
        (retired, self.virr.highest().is_some())
    }

    /// True if a vector is pending in the virtual IRR.
    pub fn has_pending(&self) -> bool {
        !self.virr.is_empty()
    }

    /// Drain pending-but-undelivered vectors from the virtual IRR
    /// (PI→emulated degradation). In-service vectors are *not* touched:
    /// a handler that entered service exit-lessly retires through the
    /// vAPIC ISR even after the fallback, which is what prevents its
    /// re-delivery. Ascending vector order.
    pub fn take_pending(&mut self) -> Vec<Vector> {
        let vs: Vec<Vector> = self.virr.iter_set().collect();
        self.virr.clear_all();
        vs
    }

    /// True if a handler is in service.
    pub fn in_service(&self) -> bool {
        !self.visr.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn post_to_running_vcpu_requests_notification_once() {
        let mut d = PiDescriptor::new();
        d.set_suppress(false); // vCPU in guest mode
        assert_eq!(d.post(0x41), PostOutcome::SendNotification);
        // Second post while notification outstanding: coalesced.
        assert_eq!(d.post(0x42), PostOutcome::NoNotification);
        assert_eq!(d.take_pending(), [0x41, 0x42]);
    }

    #[test]
    fn post_to_descheduled_vcpu_is_suppressed() {
        let mut d = PiDescriptor::new(); // SN set by default
        assert_eq!(d.post(0x41), PostOutcome::NoNotification);
        assert!(d.has_pending());
    }

    #[test]
    fn sync_moves_pir_to_virr_and_clears_on() {
        let mut d = PiDescriptor::new();
        d.set_suppress(false);
        d.post(0x41);
        d.post(0x91);
        let mut v = VApicPage::new();
        assert_eq!(v.sync_from(&mut d), 2);
        assert!(!d.has_pending());
        assert_eq!(v.take_pending(), [0x41, 0x91]);
        // After sync, a new post requests a fresh notification.
        assert_eq!(d.post(0x43), PostOutcome::SendNotification);
    }

    #[test]
    fn exitless_delivery_and_eoi() {
        let mut d = PiDescriptor::new();
        d.set_suppress(false);
        d.post(0x41);
        let mut v = VApicPage::new();
        v.sync_from(&mut d);
        assert_eq!(v.ack(), Some(0x41));
        assert!(v.in_service());
        let (retired, more) = v.eoi();
        assert_eq!(retired, Some(0x41));
        assert!(!more);
    }

    #[test]
    fn priority_arbitration_matches_physical_apic() {
        let mut v = VApicPage::new();
        let mut d = PiDescriptor::new();
        d.post(0x45);
        d.post(0x95);
        v.sync_from(&mut d);
        assert_eq!(v.ack(), Some(0x95));
        assert_eq!(v.ack(), None, "same/lower class masked");
        let (_, more) = v.eoi();
        assert!(more);
        assert_eq!(v.ack(), Some(0x45));
    }

    #[test]
    fn duplicate_posts_coalesce_in_pir() {
        let mut d = PiDescriptor::new();
        d.post(0x41);
        d.post(0x41);
        assert_eq!(d.take_pending(), [0x41]);
    }

    proptest! {
        /// No interrupt is ever lost across arbitrary interleavings of
        /// post / suppress-toggle / sync: everything posted is eventually
        /// deliverable from the vAPIC page.
        #[test]
        fn prop_no_lost_interrupts(
            ops in proptest::collection::vec((0x31u8..0xeb, 0u8..3), 1..100)
        ) {
            let mut d = PiDescriptor::new();
            let mut v = VApicPage::new();
            let mut posted = std::collections::BTreeSet::new();
            let mut handled = std::collections::BTreeSet::new();
            for (vec, op) in ops {
                match op {
                    0 => {
                        d.post(vec);
                        posted.insert(vec);
                    }
                    1 => {
                        d.set_suppress(!d.suppressed());
                    }
                    _ => {
                        v.sync_from(&mut d);
                        while let Some(x) = v.ack() {
                            handled.insert(x);
                            v.eoi();
                        }
                    }
                }
            }
            // Final drain.
            v.sync_from(&mut d);
            while let Some(x) = v.ack() {
                handled.insert(x);
                v.eoi();
            }
            prop_assert_eq!(handled, posted);
            prop_assert!(!d.has_pending());
            prop_assert!(!v.has_pending());
        }
    }
}
