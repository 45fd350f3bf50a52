//! Linux x86 interrupt-vector allocation map.
//!
//! §V-C of the paper: *"Linux adopts a strict interrupt vector allocation
//! strategy. By taking advantage of the vector range distribution, ES2 can
//! distinguish device interrupts from the others and perform the correct
//! redirection."* Redirecting a per-vCPU vector (e.g. the local timer) to a
//! different vCPU would crash the guest, so the redirection engine consults
//! [`is_redirectable_device_vector`] before touching an interrupt.
//!
//! The constants mirror `arch/x86/include/asm/irq_vectors.h` of the 4.x
//! kernels the paper used.

/// An x86 interrupt vector number.
pub type Vector = u8;

/// First vector usable by external (device) interrupts; 0x00–0x1f are
/// exceptions.
pub const FIRST_EXTERNAL_VECTOR: Vector = 0x20;
/// IRQ0 (the PIT / legacy timer) lands here under the identity mapping.
pub const ISA_IRQ_VECTOR_BASE: Vector = 0x30;
/// First vector handed out by the dynamic allocator for MSI/MSI-X devices.
pub const FIRST_DEVICE_VECTOR: Vector = 0x31;
/// Local APIC timer.
pub const LOCAL_TIMER_VECTOR: Vector = 0xec;
/// First of the system-reserved high vectors (reschedule/IPIs/…).
pub const FIRST_SYSTEM_VECTOR: Vector = 0xec;
/// Reschedule IPI.
pub const RESCHEDULE_VECTOR: Vector = 0xfd;
/// Function-call IPI.
pub const CALL_FUNCTION_VECTOR: Vector = 0xfb;
/// Spurious interrupt vector.
pub const SPURIOUS_APIC_VECTOR: Vector = 0xff;
/// The posted-interrupt notification vector the host programs (KVM's
/// `POSTED_INTR_VECTOR`, 0xf2 on the kernels in question).
pub const POSTED_INTR_NOTIFICATION_VECTOR: Vector = 0xf2;

/// True if ES2 may redirect this vector to a different vCPU (§V-C): only
/// the dynamically allocated MSI/MSI-X device range `0x31–0xeb` qualifies.
/// Exceptions (`0x00–0x1f`), the legacy/ISA range (`0x20–0x30`, with the
/// legacy timer IRQ0) and the system vectors (`0xec–0xff`: local timer,
/// IPIs, spurious) are generated for a *specific* vCPU.
#[inline]
pub fn is_redirectable_device_vector(v: Vector) -> bool {
    (FIRST_DEVICE_VECTOR..FIRST_SYSTEM_VECTOR).contains(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn well_known_vectors_classify_correctly() {
        assert!(!is_redirectable_device_vector(0x0e)); // page fault
        assert!(!is_redirectable_device_vector(0x20)); // legacy
        assert!(!is_redirectable_device_vector(ISA_IRQ_VECTOR_BASE));
        assert!(is_redirectable_device_vector(FIRST_DEVICE_VECTOR));
        assert!(is_redirectable_device_vector(0xa5));
        assert!(!is_redirectable_device_vector(SPURIOUS_APIC_VECTOR));
        assert!(!is_redirectable_device_vector(
            POSTED_INTR_NOTIFICATION_VECTOR
        ));
    }

    #[test]
    fn timer_is_not_redirectable() {
        assert!(!is_redirectable_device_vector(LOCAL_TIMER_VECTOR));
        assert!(!is_redirectable_device_vector(RESCHEDULE_VECTOR));
        assert!(is_redirectable_device_vector(0x41));
    }

    proptest! {
        /// Exactly the device range `0x31–0xeb` is redirectable.
        #[test]
        fn prop_classification_total(v in any::<u8>()) {
            prop_assert_eq!(
                is_redirectable_device_vector(v),
                matches!(v, 0x31..=0xeb)
            );
        }
    }
}
