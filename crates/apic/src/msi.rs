//! Message-Signaled Interrupts (MSI/MSI-X).
//!
//! §V-C: *"Guest devices in KVM are implemented as standard PCI devices with
//! the Message Signaled Interrupt (MSI) architecture or its extension MSI-X.
//! The destination vCPU ID of a virtual interrupt is specified in the
//! MSI/MSI-X address, determined by the guest's interrupt affinity setting.
//! ES2 does not reprogram the interrupt configuration at the sources [...]
//! Instead, ES2 intercepts MSI/MSI-X type virtual interrupts in a key
//! function called `kvm_set_msi_irq`, and modifies the destination vCPU to
//! the selected target."*
//!
//! [`MsiMessage`] holds the fields real KVM decodes from the Intel SDM
//! address/data layout: destination, destination mode and delivery mode.

use crate::vectors::Vector;

/// MSI delivery mode (address/data bits 10:8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// Deliver to the CPU(s) named by the destination field.
    Fixed,
    /// Deliver to the lowest-priority CPU among the destination set —
    /// Linux's default for `apic_flat`/`apic_default` with ≤ 8 CPUs (§V-C),
    /// which is what makes redirection architecturally valid.
    LowestPriority,
}

/// MSI destination mode (address bit 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DestMode {
    /// Destination field is a physical APIC ID.
    Physical,
    /// Destination field is a logical mask.
    Logical,
}

/// A decoded MSI/MSI-X message as seen by `kvm_set_msi_irq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MsiMessage {
    /// Destination APIC ID (interpreted per `dest_mode`). For the guest's
    /// virtio queues this encodes the interrupt-affinity vCPU.
    pub dest_id: u8,
    /// Physical vs logical addressing.
    pub dest_mode: DestMode,
    /// Fixed vs lowest-priority arbitration.
    pub delivery_mode: DeliveryMode,
    /// The interrupt vector the guest programmed for this queue.
    pub vector: Vector,
}

impl MsiMessage {
    /// A fixed-mode, physically addressed message — the common shape for a
    /// virtio queue interrupt bound to one vCPU.
    pub fn fixed(dest_id: u8, vector: Vector) -> Self {
        MsiMessage {
            dest_id,
            dest_mode: DestMode::Physical,
            delivery_mode: DeliveryMode::Fixed,
            vector,
        }
    }

    /// A lowest-priority, logically addressed message — what Linux programs
    /// with the `apic_flat` driver (§V-C).
    pub fn lowest_priority(dest_mask: u8, vector: Vector) -> Self {
        MsiMessage {
            dest_id: dest_mask,
            dest_mode: DestMode::Logical,
            delivery_mode: DeliveryMode::LowestPriority,
            vector,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_message_shape() {
        let m = MsiMessage::fixed(2, 0x41);
        assert_eq!(m.dest_id, 2);
        assert_eq!(m.delivery_mode, DeliveryMode::Fixed);
        assert_eq!(m.dest_mode, DestMode::Physical);
    }

    #[test]
    fn lowest_priority_sets_mode_bits() {
        let m = MsiMessage::lowest_priority(0b1111, 0x61);
        assert_eq!(m.dest_mode, DestMode::Logical);
        assert_eq!(m.delivery_mode, DeliveryMode::LowestPriority);
        assert_eq!((m.dest_id, m.vector), (0b1111, 0x61));
    }
}
