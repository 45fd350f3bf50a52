//! Why not ELI/DID? — a model of physical-APIC sharing hazards (§II-C).
//!
//! ELI and DID eliminate interrupt-related VM exits by letting the guest
//! manipulate the **physical** Local-APIC (EIE cleared, EOI register
//! exposed). The paper's §II-C argues this "compromises some important
//! virtualization features": once a vCPU's interrupt state lives in the
//! physical APIC of the core it happens to run on, descheduling or
//! migrating that vCPU corrupts the state another vCPU will observe:
//!
//! * *"If vCPU A is descheduled while handling an interrupt without having
//!   written the EOI register yet, the next running vCPU B may lose
//!   interruptibility since the Local-APIC believes a certain interrupt is
//!   still in service."*
//! * *"If vCPU A is descheduled with some pending interrupts in the IRR,
//!   the Local-APIC may misdeliver these interrupts to the next running
//!   vCPU B."*
//!
//! [`EliSharedApic`] makes those hazards concrete and countable: it is a
//! physical LAPIC whose in-service/pending state follows the *core*, driven
//! by the same scheduler switch events ES2 consumes. Its unit tests
//! demonstrate exactly the two corruption modes above — which is the
//! quantitative justification for building ES2 on hardware-posted
//! interrupts instead.

use es2_apic::{EmulatedLapic, Vector};

/// Outcome of running one vCPU interval on an ELI-style shared physical
/// APIC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EliHazards {
    /// Interrupts delivered to a vCPU they were not destined for (the IRR
    /// carried over across a context switch).
    pub misdelivered: u64,
    /// Intervals during which a vCPU could not receive its interrupts
    /// because a *previous* vCPU's unfinished handler left the ISR
    /// non-empty (lost interruptibility).
    pub blocked_intervals: u64,
}

/// A physical Local-APIC exposed directly to whichever vCPU runs on the
/// core — the ELI/DID model.
#[derive(Clone, Debug)]
pub struct EliSharedApic {
    apic: EmulatedLapic,
    /// vCPU currently owning the core (None = idle).
    current: Option<u32>,
    /// Which vCPU each pending IRR vector was destined for.
    pending_owner: Vec<(Vector, u32)>,
    /// vCPU whose handler is in service (set at delivery, cleared at EOI).
    in_service_owner: Option<u32>,
    hazards: EliHazards,
}

impl Default for EliSharedApic {
    fn default() -> Self {
        Self::new()
    }
}

impl EliSharedApic {
    /// A fresh shared APIC on an idle core.
    pub fn new() -> Self {
        EliSharedApic {
            apic: EmulatedLapic::new(),
            current: None,
            pending_owner: Vec::new(),
            in_service_owner: None,
            hazards: EliHazards::default(),
        }
    }

    /// The scheduler switches the core to `vcpu`.
    ///
    /// With ELI, the interrupt state does *not* switch with it — that is
    /// the whole point of this model. Pending vectors destined for the
    /// previous owner are now exposed to the new one.
    pub fn sched_switch(&mut self, vcpu: u32) {
        self.current = Some(vcpu);
        if let Some(owner) = self.in_service_owner {
            if owner != vcpu && self.apic.in_service() {
                // The new vCPU inherits a masked priority class it knows
                // nothing about: lost interruptibility.
                self.hazards.blocked_intervals += 1;
            }
        }
    }

    /// A device interrupt destined for `vcpu` arrives at the core.
    pub fn interrupt_for(&mut self, vcpu: u32, vector: Vector) {
        self.apic.set_irr(vector);
        self.pending_owner.push((vector, vcpu));
    }

    /// The running vCPU takes the next interrupt the physical APIC offers
    /// (guest IDT dispatch without hypervisor mediation — exit-less, but
    /// unchecked). Returns the vector and whether it was a misdelivery.
    pub fn guest_take(&mut self) -> Option<(Vector, bool)> {
        let cur = self.current?;
        let v = self.apic.ack()?;
        self.in_service_owner = Some(cur);
        let idx = self.pending_owner.iter().position(|&(vec, _)| vec == v);
        let misdelivered = match idx {
            Some(i) => {
                let (_, owner) = self.pending_owner.swap_remove(i);
                owner != cur
            }
            None => false,
        };
        if misdelivered {
            self.hazards.misdelivered += 1;
        }
        Some((v, misdelivered))
    }

    /// The running vCPU writes the (exposed, physical) EOI register.
    pub fn guest_eoi(&mut self) {
        self.apic.eoi();
        if !self.apic.in_service() {
            self.in_service_owner = None;
        }
    }

    /// True if the physical ISR is masking delivery right now.
    pub fn interruptibility_lost_for(&self, vcpu: u32) -> bool {
        self.apic.in_service() && self.in_service_owner != Some(vcpu)
    }

    /// Accumulated hazard counts.
    pub fn hazards(&self) -> EliHazards {
        self.hazards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV_A: Vector = 0x41;
    const DEV_B: Vector = 0x45; // same priority class as DEV_A

    #[test]
    fn clean_single_vcpu_operation_has_no_hazards() {
        let mut apic = EliSharedApic::new();
        apic.sched_switch(0);
        apic.interrupt_for(0, DEV_A);
        let (v, mis) = apic.guest_take().unwrap();
        assert_eq!((v, mis), (DEV_A, false));
        apic.guest_eoi();
        assert_eq!(apic.hazards(), EliHazards::default());
    }

    #[test]
    fn pending_interrupt_misdelivers_to_the_next_vcpu() {
        // §II-C hazard 2: vCPU A is descheduled with a pending interrupt;
        // the physical APIC hands it to vCPU B.
        let mut apic = EliSharedApic::new();
        apic.sched_switch(0);
        apic.interrupt_for(0, DEV_A);
        // A is descheduled before taking it; B runs.
        apic.sched_switch(1);
        let (v, mis) = apic.guest_take().unwrap();
        assert_eq!(v, DEV_A);
        assert!(mis, "vector destined for vCPU 0 delivered to vCPU 1");
        assert_eq!(apic.hazards().misdelivered, 1);
    }

    #[test]
    fn unfinished_handler_blocks_the_next_vcpu() {
        // §II-C hazard 1: vCPU A descheduled mid-handler (no EOI yet); the
        // next vCPU loses interruptibility for that priority class.
        let mut apic = EliSharedApic::new();
        apic.sched_switch(0);
        apic.interrupt_for(0, DEV_A);
        apic.guest_take().unwrap();
        // Descheduled before EOI.
        apic.sched_switch(1);
        assert_eq!(apic.hazards().blocked_intervals, 1);
        assert!(apic.interruptibility_lost_for(1));
        // vCPU 1's own same-class interrupt cannot be delivered.
        apic.interrupt_for(1, DEV_B);
        assert_eq!(apic.guest_take(), None, "masked by A's in-service vector");
    }

    #[test]
    fn eoi_from_the_wrong_vcpu_unblocks_but_corrupts_ordering() {
        let mut apic = EliSharedApic::new();
        apic.sched_switch(0);
        apic.interrupt_for(0, DEV_A);
        apic.guest_take().unwrap();
        apic.sched_switch(1);
        // vCPU 1 happens to EOI (e.g. for its own timer): it retires
        // vCPU 0's in-service vector.
        apic.guest_eoi();
        assert!(!apic.interruptibility_lost_for(1));
        // vCPU 0's handler state is now silently gone — this is why ELI
        // must pin vCPUs to dedicated cores.
    }

    #[test]
    fn dedicated_core_discipline_avoids_all_hazards() {
        // The ELI deployment model: one vCPU per core, never descheduled.
        let mut apic = EliSharedApic::new();
        apic.sched_switch(7);
        for i in 0..100 {
            let v = 0x31 + (i % 8) as u8;
            apic.interrupt_for(7, v);
            while let Some((_, mis)) = apic.guest_take() {
                assert!(!mis);
                apic.guest_eoi();
            }
        }
        assert_eq!(apic.hazards(), EliHazards::default());
    }

    #[test]
    fn multiplexing_two_vcpus_accumulates_hazards() {
        // Statistical version: random-ish interleaving of two vCPUs on one
        // core accumulates both hazard kinds — the §II-C argument for why
        // PI (state in per-vCPU hardware pages) is the right substrate.
        let mut apic = EliSharedApic::new();
        for round in 0..50u32 {
            // vCPU 0 receives an interrupt but is descheduled before (odd
            // rounds) or during (even rounds) its handler.
            apic.sched_switch(0);
            apic.interrupt_for(0, 0x41);
            if round % 2 == 0 {
                apic.guest_take(); // in service, no EOI yet
            }
            // vCPU 1 runs next and drains whatever the physical APIC holds.
            apic.sched_switch(1);
            while apic.guest_take().is_some() {
                apic.guest_eoi();
            }
            apic.guest_eoi(); // clears any leftover in-service state
        }
        let h = apic.hazards();
        assert!(h.misdelivered >= 25, "pending IRR carried across: {h:?}");
        assert!(h.blocked_intervals >= 25, "unfinished handlers: {h:?}");
    }
}
