//! The per-vCPU interrupt state machine across both delivery paths.
//!
//! One [`Vcpu`] owns an emulated LAPIC *and* posted-interrupt state; the
//! configured [`InterruptPath`] decides which one the hypervisor uses:
//!
//! * **Emulated** (Baseline): `deliver()` records the vector in the
//!   emulated IRR. If the target is executing guest code, the hypervisor
//!   must kick it with an IPI (→ `External Interrupt` exit) and inject at
//!   the next VM entry; the guest's EOI write is an `APIC Access` exit.
//!   This is Fig. 1 of the paper.
//! * **Posted** (PI/ES2): `deliver()` posts into the PI descriptor. If the
//!   target is in guest mode a notification IPI triggers the hardware
//!   PIR→vIRR sync and exit-less delivery; otherwise the pending bits are
//!   synchronized at the next VM entry. EOI is exit-less. This is Fig. 2.
//!
//! The *scheduling* dimension (vCPU descheduled ⇒ delivery waits, §III-B)
//! is visible here as `runnable_on_core` — the testbed keeps it in sync
//! with the CFS scheduler's context-switch notifications.

use es2_apic::pi::PostOutcome;
use es2_apic::{EmulatedLapic, PiDescriptor, VApicPage, Vector};

/// Which interrupt-delivery machinery serves this vCPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterruptPath {
    /// Software-emulated LAPIC (Baseline configuration).
    Emulated,
    /// Hardware posted interrupts (PI / PI+H / PI+H+R configurations).
    Posted,
}

/// What the hypervisor must do after `deliver()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Emulated path, target in guest mode: send a kick IPI — the target
    /// core takes an `External Interrupt` VM exit, then injection happens
    /// at the following VM entry.
    EmulatedKick,
    /// Emulated path, target in root mode or descheduled: the vector waits
    /// in the IRR and is injected at the next VM entry (no extra exit).
    EmulatedPendingEntry,
    /// Posted path, target in guest mode: send the PI notification IPI —
    /// the hardware syncs and delivers with **no** VM exit.
    PiNotify,
    /// Posted path, target not in guest mode: stays posted in the PIR;
    /// synchronized at the next VM entry. If the vCPU is descheduled this
    /// is where scheduling latency enters the event path.
    PiPosted,
}

/// Per-vCPU state.
#[derive(Clone, Debug)]
pub struct Vcpu {
    /// Delivery machinery in use.
    pub path: InterruptPath,
    /// Emulated LAPIC (always present; unused state under `Posted`).
    pub lapic: EmulatedLapic,
    /// Posted-interrupt descriptor.
    pub pi_desc: PiDescriptor,
    /// Hardware vAPIC page.
    pub vapic: VApicPage,
    /// True while executing guest code (between VM entry and VM exit).
    pub in_guest: bool,
    /// True while scheduled on a physical core (online in ES2 terms).
    pub running: bool,
}

impl Vcpu {
    /// A new vCPU, descheduled and in root mode.
    pub fn new(path: InterruptPath) -> Self {
        Vcpu {
            path,
            lapic: EmulatedLapic::new(),
            pi_desc: PiDescriptor::new(),
            vapic: VApicPage::new(),
            in_guest: false,
            running: false,
        }
    }

    /// Deliver a virtual interrupt to this vCPU; the caller performs the
    /// returned action.
    pub fn deliver(&mut self, vector: Vector) -> DeliveryOutcome {
        match self.path {
            InterruptPath::Emulated => {
                self.lapic.set_irr(vector);
                if self.in_guest {
                    DeliveryOutcome::EmulatedKick
                } else {
                    DeliveryOutcome::EmulatedPendingEntry
                }
            }
            InterruptPath::Posted => match self.pi_desc.post(vector) {
                PostOutcome::SendNotification if self.in_guest => DeliveryOutcome::PiNotify,
                _ => DeliveryOutcome::PiPosted,
            },
        }
    }

    /// VM entry: transition to guest mode. Under `Posted`, the hardware
    /// synchronizes pending posted interrupts; under `Emulated`, the
    /// hypervisor injects the highest-priority pending vector (one event
    /// per entry). Returns the injected vector, if any.
    #[inline]
    pub fn vm_entry(&mut self) -> Option<Vector> {
        debug_assert!(!self.in_guest, "double VM entry");
        self.in_guest = true;
        match self.path {
            InterruptPath::Posted => {
                self.pi_desc.set_suppress(false);
                self.pi_desc.sync_into(&mut self.vapic);
                None // delivery happens exit-lessly via take_interrupt()
            }
            InterruptPath::Emulated => {
                if self.vapic.in_service() {
                    // A posted-path handler is still in service after a
                    // mid-run PI→emulated degradation: hold injection
                    // until its EOI, as the hardware PPR would.
                    None
                } else {
                    self.lapic.ack()
                }
            }
        }
    }

    /// VM exit: transition to root mode.
    #[inline]
    pub fn vm_exit(&mut self) {
        debug_assert!(self.in_guest, "VM exit while in root mode");
        self.in_guest = false;
    }

    /// The vCPU thread was switched in (kvm_sched_in).
    #[inline]
    pub fn sched_in(&mut self) {
        self.running = true;
    }

    /// The vCPU thread was switched out (kvm_sched_out). KVM sets SN so
    /// that posting to a preempted vCPU does not fire pointless IPIs.
    #[inline]
    pub fn sched_out(&mut self) {
        self.running = false;
        if self.path == InterruptPath::Posted {
            self.pi_desc.set_suppress(true);
        }
    }

    /// Guest-mode interrupt acknowledge: the next vector the guest's IDT
    /// dispatch takes, if any. Under `Posted` this is the exit-less vAPIC
    /// delivery (after an entry sync or a notification); under `Emulated`
    /// vectors arrive only via [`Vcpu::vm_entry`] injection, so this
    /// consults the in-service state the entry set up — callers use the
    /// vector returned from `vm_entry` instead.
    pub fn take_posted_interrupt(&mut self) -> Option<Vector> {
        debug_assert!(self.in_guest);
        if self.path != InterruptPath::Posted {
            return None;
        }
        self.vapic.ack()
    }

    /// Synchronize the PI descriptor into the vAPIC page (the hardware
    /// response to a notification IPI arriving in guest mode).
    pub fn pi_notification_sync(&mut self) -> u32 {
        debug_assert!(self.in_guest);
        self.pi_desc.sync_into(&mut self.vapic)
    }

    /// Guest EOI. Under `Emulated` this is the `APIC Access` exit the
    /// caller charges; under `Posted` it is exit-less. Returns `true` if
    /// more interrupts are immediately deliverable.
    pub fn eoi(&mut self) -> bool {
        match self.path {
            InterruptPath::Emulated => {
                if self.vapic.in_service() {
                    // The handler entered service exit-lessly before a
                    // mid-run PI→emulated degradation: retire it where
                    // delivery happened so it is never re-delivered.
                    let more = self.vapic.eoi().1;
                    more || self.lapic.next_deliverable().is_some()
                } else {
                    self.lapic.eoi().1
                }
            }
            InterruptPath::Posted => self.vapic.eoi().1,
        }
    }

    /// Posted-interrupt hardware became unavailable: degrade this vCPU to
    /// the emulated-LAPIC path, migrating every pending-but-undelivered
    /// vector (PIR and virtual IRR) into the emulated IRR so nothing is
    /// lost and nothing is delivered twice. In-service state stays in the
    /// vAPIC ISR and retires through [`Vcpu::eoi`]. Returns the number of
    /// vectors migrated; idempotent on an already-emulated vCPU.
    pub fn degrade_to_emulated(&mut self) -> u32 {
        if self.path == InterruptPath::Emulated {
            return 0;
        }
        let mut moved = 0;
        for v in self.pi_desc.take_pending() {
            if self.lapic.set_irr(v) {
                moved += 1;
            }
        }
        for v in self.vapic.take_pending() {
            if self.lapic.set_irr(v) {
                moved += 1;
            }
        }
        self.path = InterruptPath::Emulated;
        moved
    }

    /// Withdraw a pending, not-yet-delivered vector so it can be
    /// re-delivered to a different vCPU (ES2's re-redirection of parked
    /// interrupts). Returns `false` if the vector is no longer pending
    /// here (already delivered or synchronized) — the caller must leave
    /// it alone.
    pub fn rescind(&mut self, vector: Vector) -> bool {
        match self.path {
            InterruptPath::Posted => self.pi_desc.rescind(vector),
            InterruptPath::Emulated => {
                if self.lapic.irr_contains(vector) {
                    // Modeled via a fresh LAPIC op: clear IRR bit.
                    // (EmulatedLapic has no public clear; ack+eoi would
                    // side-effect ISR, so expose through set/clear below.)
                    self.lapic.clear_irr(vector)
                } else {
                    false
                }
            }
        }
    }

    /// True if an interrupt could be delivered to the guest right now
    /// (pending and not masked by an in-service one).
    pub fn has_deliverable(&self) -> bool {
        match self.path {
            InterruptPath::Emulated => self.lapic.next_deliverable().is_some(),
            InterruptPath::Posted => self.vapic.has_pending() || self.pi_desc.has_pending(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vcpu(path: InterruptPath) -> Vcpu {
        Vcpu::new(path)
    }

    #[test]
    fn emulated_delivery_to_running_guest_kicks() {
        let mut v = vcpu(InterruptPath::Emulated);
        v.sched_in();
        v.vm_entry();
        assert_eq!(v.deliver(0x41), DeliveryOutcome::EmulatedKick);
        // Kick: target exits, then re-enters with injection.
        v.vm_exit();
        assert_eq!(v.vm_entry(), Some(0x41));
        // EOI completes the cycle: nothing in service or pending.
        assert!(!v.eoi());
        assert!(!v.lapic.in_service());
        assert!(!v.has_deliverable());
    }

    #[test]
    fn emulated_delivery_to_root_mode_waits_for_entry() {
        let mut v = vcpu(InterruptPath::Emulated);
        v.sched_in(); // running but handling an exit (root mode)
        assert_eq!(v.deliver(0x41), DeliveryOutcome::EmulatedPendingEntry);
        assert_eq!(v.vm_entry(), Some(0x41), "injected at next entry, no kick");
    }

    #[test]
    fn emulated_one_injection_per_entry() {
        let mut v = vcpu(InterruptPath::Emulated);
        v.deliver(0x41);
        v.deliver(0x42);
        assert_eq!(v.vm_entry(), Some(0x42), "higher vector first");
        // 0x41 same class: masked until EOI; EOI reports more pending.
        assert!(v.eoi());
        v.vm_exit();
        assert_eq!(v.vm_entry(), Some(0x41));
    }

    #[test]
    fn posted_delivery_to_guest_mode_notifies() {
        let mut v = vcpu(InterruptPath::Posted);
        v.sched_in();
        v.vm_entry();
        assert_eq!(v.deliver(0x41), DeliveryOutcome::PiNotify);
        // Hardware: sync + exit-less delivery.
        assert_eq!(v.pi_notification_sync(), 1);
        assert_eq!(v.take_posted_interrupt(), Some(0x41));
        assert!(v.vapic.in_service());
        assert!(!v.eoi(), "exit-less EOI");
        assert!(!v.vapic.in_service());
        assert!(!v.has_deliverable());
    }

    #[test]
    fn posted_delivery_to_descheduled_vcpu_stays_posted() {
        let mut v = vcpu(InterruptPath::Posted);
        v.sched_out();
        assert_eq!(v.deliver(0x41), DeliveryOutcome::PiPosted);
        assert!(v.has_deliverable());
        // Scheduled back in: entry syncs, guest takes it with no exit.
        v.sched_in();
        assert_eq!(v.vm_entry(), None);
        assert_eq!(v.take_posted_interrupt(), Some(0x41));
    }

    #[test]
    fn posted_coalesces_notifications() {
        let mut v = vcpu(InterruptPath::Posted);
        v.sched_in();
        v.vm_entry();
        assert_eq!(v.deliver(0x41), DeliveryOutcome::PiNotify);
        assert_eq!(v.deliver(0x42), DeliveryOutcome::PiPosted, "ON bit set");
        v.pi_notification_sync();
        assert_eq!(v.take_posted_interrupt(), Some(0x42));
        v.eoi();
        assert_eq!(v.take_posted_interrupt(), Some(0x41));
    }

    #[test]
    fn posted_while_in_root_mode_waits_for_entry_sync() {
        let mut v = vcpu(InterruptPath::Posted);
        v.sched_in(); // running, root mode (e.g. handling an unrelated exit)
        assert_eq!(v.deliver(0x41), DeliveryOutcome::PiPosted);
        v.vm_entry();
        assert_eq!(v.take_posted_interrupt(), Some(0x41));
    }

    #[test]
    fn sched_out_sets_suppress() {
        let mut v = vcpu(InterruptPath::Posted);
        v.sched_in();
        v.sched_out();
        assert!(v.pi_desc.suppressed());
        // Posts while descheduled never request notifications.
        assert_eq!(v.deliver(0x41), DeliveryOutcome::PiPosted);
    }

    #[test]
    fn emulated_eoi_retires_each_injected_interrupt() {
        let mut v = vcpu(InterruptPath::Emulated);
        for vec in [0x41u8, 0x51, 0x61] {
            v.deliver(vec);
            assert_eq!(v.vm_entry(), Some(vec));
            assert!(v.lapic.in_service());
            assert!(!v.eoi(), "nothing else pending");
            assert!(!v.lapic.in_service());
            v.vm_exit();
        }
        assert!(!v.has_deliverable());
    }

    #[test]
    fn degradation_migrates_pending_vectors() {
        let mut v = vcpu(InterruptPath::Posted);
        v.sched_out();
        v.deliver(0x41); // parked in the PIR
        v.sched_in();
        v.vm_entry();
        v.deliver(0x51); // synced+posted: ends up pending
        v.pi_notification_sync();
        v.vm_exit();
        assert_eq!(v.degrade_to_emulated(), 2);
        assert_eq!(v.path, InterruptPath::Emulated);
        assert!(!v.pi_desc.has_pending());
        assert!(!v.vapic.has_pending());
        // Both vectors now deliver through the emulated path, once each.
        assert_eq!(v.vm_entry(), Some(0x51));
        assert!(v.eoi(), "0x41 still pending");
        v.vm_exit();
        assert_eq!(v.vm_entry(), Some(0x41));
        assert!(!v.eoi());
        assert_eq!(v.degrade_to_emulated(), 0, "idempotent");
    }

    #[test]
    fn degradation_preserves_in_service_handler() {
        // A handler is between exit-less delivery and EOI when PI fails:
        // it must retire exactly once, via the vAPIC ISR.
        let mut v = vcpu(InterruptPath::Posted);
        v.sched_in();
        v.vm_entry();
        v.deliver(0x41);
        v.pi_notification_sync();
        assert_eq!(v.take_posted_interrupt(), Some(0x41));
        v.deliver(0x61); // pending behind the in-service handler
        v.vm_exit();
        v.degrade_to_emulated();
        assert!(v.vapic.in_service());
        // No injection while the posted-path handler is in service.
        assert_eq!(v.vm_entry(), None);
        // Emulated EOI retires the posted-path handler and reports the
        // migrated vector deliverable.
        assert!(v.eoi());
        assert!(!v.vapic.in_service());
        v.vm_exit();
        assert_eq!(v.vm_entry(), Some(0x61));
    }

    #[test]
    fn degraded_vcpu_delivers_via_kick() {
        let mut v = vcpu(InterruptPath::Posted);
        v.sched_in();
        v.vm_entry();
        v.degrade_to_emulated();
        assert_eq!(
            v.deliver(0x41),
            DeliveryOutcome::EmulatedKick,
            "post-degradation deliveries take the kick-IPI path"
        );
    }
}
