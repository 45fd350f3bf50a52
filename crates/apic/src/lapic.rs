//! The software-emulated per-vCPU Local-APIC of stock KVM.
//!
//! §II-A: *"a Local-APIC has a series of registers to maintain the interrupt
//! state, such as Interrupt Request Register (IRR) and End Of Interrupt
//! (EOI) register. The IRR is responsible for recording pending interrupts.
//! When the Local-APIC delivers a pending interrupt to the CPU core, the
//! corresponding bit in the IRR is cleared. [...] Once the handler finishes,
//! it writes the EOI register [...] This action automatically triggers the
//! Local-APIC to deliver the next pending interrupt in the IRR."*
//!
//! This model is the *baseline* interrupt path: because it is software
//! emulated, delivering to a running vCPU requires a kick IPI (an
//! `External Interrupt` VM exit) followed by event injection at VM entry,
//! and every guest EOI write is an `APIC Access` VM exit. Those exits are
//! charged by the hypervisor crate, not here — this type models only the
//! architectural register state.

use crate::regs::IrrIsr256;
use crate::vectors::Vector;

/// Architectural state of one emulated Local-APIC.
#[derive(Clone, Debug, Default)]
pub struct EmulatedLapic {
    irr: IrrIsr256,
    isr: IrrIsr256,
}

impl EmulatedLapic {
    /// A reset APIC: no pending or in-service interrupts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `vector` pending in the IRR. Returns `true` if newly pending
    /// (level-triggered duplicates coalesce in hardware exactly like this).
    pub fn set_irr(&mut self, vector: Vector) -> bool {
        self.irr.set(vector)
    }

    /// True if `vector` is pending.
    pub fn irr_contains(&self, vector: Vector) -> bool {
        self.irr.get(vector)
    }

    /// Withdraw a pending vector before delivery (interrupt migration).
    /// Returns `true` if it was pending.
    pub fn clear_irr(&mut self, vector: Vector) -> bool {
        self.irr.clear(vector)
    }

    /// Processor Priority Register: the class the CPU is currently working
    /// at — the highest in-service vector's class. The Task Priority
    /// Register is not modelled: Linux guests on x86-64 leave it at 0.
    fn ppr(&self) -> u8 {
        self.isr.highest().map_or(0, |v| v & 0xf0)
    }

    /// The pending vector that would be delivered next, if it out-prioritizes
    /// the PPR (hardware's INTA arbitration rule).
    pub fn next_deliverable(&self) -> Option<Vector> {
        let v = self.irr.highest()?;
        if (v & 0xf0) > self.ppr() {
            Some(v)
        } else {
            None
        }
    }

    /// Deliver the highest-priority pending interrupt: clears its IRR bit
    /// and sets its ISR bit (interrupt acknowledge). Returns the vector, or
    /// `None` if nothing is deliverable at the current priority.
    pub fn ack(&mut self) -> Option<Vector> {
        let v = self.next_deliverable()?;
        self.irr.clear(v);
        self.isr.set(v);
        Some(v)
    }

    /// Guest EOI write: retire the highest in-service vector. Returns the
    /// retired vector and whether another interrupt is now deliverable
    /// (which in hardware triggers the next INTA cycle immediately).
    pub fn eoi(&mut self) -> (Option<Vector>, bool) {
        let retired = self.isr.highest();
        if let Some(v) = retired {
            self.isr.clear(v);
        }
        (retired, self.next_deliverable().is_some())
    }

    /// True if any interrupt is in service (handler running, EOI not yet
    /// written). ELI-style physical-APIC sharing breaks exactly when a vCPU
    /// is descheduled in this state (§II-C).
    pub fn in_service(&self) -> bool {
        !self.isr.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deliver_then_eoi_round_trip() {
        let mut apic = EmulatedLapic::new();
        assert!(apic.set_irr(0x41));
        assert_eq!(apic.ack(), Some(0x41));
        assert!(apic.in_service());
        assert!(!apic.irr_contains(0x41));
        let (retired, more) = apic.eoi();
        assert_eq!(retired, Some(0x41));
        assert!(!more);
        assert!(!apic.in_service());
    }

    #[test]
    fn duplicate_pending_coalesces() {
        let mut apic = EmulatedLapic::new();
        assert!(apic.set_irr(0x41));
        assert!(!apic.set_irr(0x41));
        assert_eq!(apic.ack(), Some(0x41));
        apic.eoi();
        assert_eq!(apic.ack(), None, "one pending bit, one delivery");
    }

    #[test]
    fn higher_vector_delivered_first() {
        let mut apic = EmulatedLapic::new();
        apic.set_irr(0x41);
        apic.set_irr(0x91);
        assert_eq!(apic.ack(), Some(0x91));
        // 0x41's class (0x40) does not exceed PPR class (0x90) — masked
        // until EOI.
        assert_eq!(apic.ack(), None);
        let (_, more) = apic.eoi();
        assert!(more, "EOI unmasks the lower-priority pending interrupt");
        assert_eq!(apic.ack(), Some(0x41));
    }

    #[test]
    fn same_class_interrupt_masked_until_eoi() {
        let mut apic = EmulatedLapic::new();
        apic.set_irr(0x45);
        assert_eq!(apic.ack(), Some(0x45));
        apic.set_irr(0x44); // same 0x40 class
        assert_eq!(apic.ack(), None, "same class cannot nest");
        apic.eoi();
        assert_eq!(apic.ack(), Some(0x44));
    }

    #[test]
    fn eoi_with_nothing_in_service_is_spurious() {
        let mut apic = EmulatedLapic::new();
        let (retired, more) = apic.eoi();
        assert_eq!(retired, None);
        assert!(!more);
    }

    #[test]
    fn nested_higher_priority_interrupt() {
        let mut apic = EmulatedLapic::new();
        apic.set_irr(0x41);
        assert_eq!(apic.ack(), Some(0x41));
        // A higher class arrives while 0x41 is in service: it nests.
        apic.set_irr(0x91);
        assert_eq!(apic.ack(), Some(0x91));
        // EOI retires the *highest* in-service vector first (0x91).
        let (retired, _) = apic.eoi();
        assert_eq!(retired, Some(0x91));
        let (retired, _) = apic.eoi();
        assert_eq!(retired, Some(0x41));
    }

    proptest! {
        /// Every delivered interrupt is eventually retired by exactly one
        /// EOI, and the APIC never loses or duplicates interrupts (model:
        /// multiset of vectors, deduped while pending).
        #[test]
        fn prop_conservation(vectors in proptest::collection::vec(0x31u8..0xeb, 1..60)) {
            let mut apic = EmulatedLapic::new();
            let mut injected = std::collections::BTreeSet::new();
            for &v in &vectors {
                if apic.set_irr(v) {
                    injected.insert(v);
                }
            }
            // Drain: ack everything, EOIing as we go.
            let mut handled = Vec::new();
            while let Some(v) = apic.ack() {
                handled.push(v);
                apic.eoi();
            }
            handled.sort_unstable();
            let want: Vec<u8> = injected.into_iter().collect();
            prop_assert_eq!(handled, want);
            prop_assert!(!apic.in_service());
            prop_assert!(apic.irr.is_empty());
        }
    }
}
