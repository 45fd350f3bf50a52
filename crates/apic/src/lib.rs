//! Interrupt-controller models for the ES2 reproduction.
//!
//! The virtual I/O event path of the paper hinges on *where interrupt state
//! lives* and *which operations on it are privileged*:
//!
//! * [`lapic::EmulatedLapic`] — the per-vCPU software-emulated Local-APIC of
//!   stock KVM (§II-A/B): IRR/ISR registers, priority arbitration, and an
//!   EOI that the hypervisor must emulate (an `APIC Access` VM exit).
//! * [`pi::PiDescriptor`] + [`pi::VApicPage`] — the hardware Posted-Interrupt
//!   machinery (§III): interrupts are *posted* into the PI descriptor's PIR,
//!   a notification IPI makes the CPU synchronize PIR into the virtual IRR of
//!   the vAPIC page, and delivery/EOI proceed without VM exits.
//! * [`msi::MsiMessage`] — Message-Signaled-Interrupt routing, the form in
//!   which KVM's `kvm_set_msi_irq` sees a virtual device interrupt and the
//!   point where ES2 intercepts and redirects (§V-C).
//! * [`vectors`] — the vector layout of Linux's interrupt map, which ES2
//!   uses to distinguish redirectable device vectors from per-vCPU vectors
//!   such as the timer.
//! * `regs` — the underlying 256-bit pending/in-service register file
//!   shared by both APIC models.
//! * [`corr::VectorCorrMap`] — observational correlation-ID sidecar that
//!   pairs pending vectors with flight-recorder spans.

pub mod corr;
pub mod lapic;
pub mod msi;
pub mod pi;
mod regs;
pub mod vectors;

pub use corr::VectorCorrMap;
pub use lapic::EmulatedLapic;
pub use msi::{DeliveryMode, DestMode, MsiMessage};
pub use pi::{PiDescriptor, VApicPage};
pub use vectors::Vector;
