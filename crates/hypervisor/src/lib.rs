//! KVM-like hypervisor substrate: VM exits, event injection and posted
//! interrupts.
//!
//! §II-B of the paper identifies the three privileged operations of the
//! virtual I/O event path, each of which costs a VM exit under
//! trap-and-emulate:
//!
//! 1. the guest's **I/O request** (the virtqueue kick) — an
//!    `I/O Instruction` exit,
//! 2. **interrupt delivery** — a kick IPI forcing an `External Interrupt`
//!    exit on the target core, followed by event injection at VM entry,
//! 3. **interrupt completion** — the guest's EOI write, an `APIC Access`
//!    exit.
//!
//! This crate models that machinery:
//!
//! * [`exit`] — exit reasons, per-reason statistics (the `perf-kvm`
//!   breakdown of Table I / Fig. 5) and the calibrated cost model,
//! * [`vcpu`] — the per-vCPU interrupt state machine over both delivery
//!   paths: the emulated-LAPIC path (kick IPI + injection + EOI exits) and
//!   the posted-interrupt path (exit-less, §III).
//!
//! MSI routing, the `kvm_set_msi_irq` step, is one call in the testbed:
//! stock KVM delivers to the guest's affinity vCPU, and ES2 asks its
//! redirection engine (`es2_core::RedirectionEngine`) instead, the way the
//! real patch hooks that single function (§V-C).
//!
//! Timing is owned by the discrete-event testbed: this crate reports *what
//! happens* (which exits, which IPIs); the testbed charges the costs from
//! [`exit::exit_cost`], [`exit::IPI_SEND`] and [`exit::PI_NOTIFICATION`].

pub mod exit;
pub mod vcpu;

pub use exit::{exit_cost, ExitReason, ExitStats, IPI_SEND, PI_NOTIFICATION};
pub use vcpu::{DeliveryOutcome, InterruptPath, Vcpu};
