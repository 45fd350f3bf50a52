//! MSI routing — the `kvm_set_msi_irq` hook point.
//!
//! Every virtual device interrupt reaches the hypervisor as an MSI message
//! whose destination encodes the guest's affinity setting. The router
//! decides which vCPU actually receives it. Stock KVM honors the message
//! ([`AffinityRouter`]); ES2 replaces the router with its intelligent
//! redirection engine (in `es2-core`), exactly mirroring where the paper's
//! patch intercepts: *"ES2 intercepts MSI/MSI-X type virtual interrupts in
//! a key function called kvm_set_msi_irq, and modifies the destination vCPU
//! to the selected target"* (§V-C).

use es2_apic::MsiMessage;

use crate::vcpu::{VcpuId, VmId};

/// The VM a delivery targets, supplied by the caller per delivery. A
/// router that follows scheduling status keeps its own view of it, fed by
/// [`MsiRouter::on_sched_change`].
#[derive(Clone, Copy, Debug)]
pub struct RouteCtx {
    /// Target VM.
    pub vm: VmId,
    /// Number of vCPUs in the VM.
    pub num_vcpus: u32,
}

/// Decides the destination vCPU for a device MSI.
pub trait MsiRouter {
    /// Route `msg` for `ctx.vm`; returns the destination vCPU.
    fn route(&mut self, msg: &MsiMessage, ctx: &RouteCtx) -> VcpuId;

    /// Notification that a vCPU changed scheduling state (for stateful
    /// routers; default no-op).
    fn on_sched_change(&mut self, _vcpu: VcpuId, _online: bool) {}
}

/// Stock KVM behaviour: follow the guest's affinity setting in the MSI
/// destination field, "without awareness of the vCPU scheduling status"
/// (§III-B).
#[derive(Clone, Copy, Debug, Default)]
pub struct AffinityRouter;

impl MsiRouter for AffinityRouter {
    fn route(&mut self, msg: &MsiMessage, ctx: &RouteCtx) -> VcpuId {
        // Physical destination: the APIC id is the vCPU index. Logical
        // (lowest-priority) destinations pick the first vCPU in the mask —
        // KVM's arbitration for an all-CPUs mask favors low ids.
        let idx = match msg.dest_mode {
            es2_apic::DestMode::Physical => u32::from(msg.dest_id),
            es2_apic::DestMode::Logical => msg.dest_id.trailing_zeros(),
        };
        VcpuId {
            vm: ctx.vm,
            idx: idx.min(ctx.num_vcpus.saturating_sub(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(num_vcpus: u32) -> RouteCtx {
        RouteCtx {
            vm: VmId(3),
            num_vcpus,
        }
    }

    #[test]
    fn physical_destination_is_honored() {
        // Stock routing never looks at scheduling status: vCPU 1 gets
        // the MSI whether or not it is on a core.
        let mut r = AffinityRouter;
        let got = r.route(&MsiMessage::fixed(1, 0x41), &ctx(4));
        assert_eq!(got, VcpuId::new(3, 1), "affinity followed even if offline");
    }

    #[test]
    fn logical_mask_picks_lowest_set_bit() {
        let mut r = AffinityRouter;
        let got = r.route(&MsiMessage::lowest_priority(0b1100, 0x41), &ctx(4));
        assert_eq!(got.idx, 2);
    }

    #[test]
    fn destination_clamped_to_vm_size() {
        let mut r = AffinityRouter;
        let got = r.route(&MsiMessage::fixed(9, 0x41), &ctx(2));
        assert_eq!(got.idx, 1);
    }
}
