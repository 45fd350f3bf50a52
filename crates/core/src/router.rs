//! The ES2 MSI router — the `kvm_set_msi_irq` interception (§V-C).
//!
//! Wraps the stock affinity resolution with the redirection engine: the
//! affinity destination is computed first (what stock KVM would do), then
//! the engine may override it for device vectors based on real-time
//! scheduling status.

use es2_hypervisor::{AffinityRouter, MsiRouter, RouteCtx, VcpuId};

use crate::redirect::RedirectionEngine;

/// ES2's drop-in replacement for KVM's MSI routing.
///
/// One router instance exists **per host**: the engine's online/offline
/// lists are rebuilt from that host's own scheduler notifier feed, so they
/// are host-local state, never datacenter-global. The `host` tag makes
/// that explicit in every explained route — a migrated VM's stale MSI
/// replayed on the target host visibly resolves against the *target*'s
/// lists.
#[derive(Clone, Debug)]
pub struct Es2Router {
    engine: RedirectionEngine,
    affinity: AffinityRouter,
    host: u32,
}

impl Es2Router {
    /// A router over a fresh [`RedirectionEngine`] on host 0 (the
    /// single-host topology).
    pub fn new(engine: RedirectionEngine) -> Self {
        Es2Router::on_host(engine, 0)
    }

    /// A router serving one host of a multi-host cell.
    pub(crate) fn on_host(engine: RedirectionEngine, host: u32) -> Self {
        Es2Router {
            engine,
            affinity: AffinityRouter,
            host,
        }
    }

    /// Re-tag an existing router with its host id (used when a machine
    /// built standalone is enrolled into a multi-host cell).
    pub fn set_host(&mut self, host: u32) {
        self.host = host;
    }

    /// Access the engine (scheduler notifier feed, statistics).
    pub fn engine(&self) -> &RedirectionEngine {
        &self.engine
    }

    /// Mutable access (scheduler notifier feed).
    pub fn engine_mut(&mut self) -> &mut RedirectionEngine {
        &mut self.engine
    }

    /// Route `msg` and report *how* the decision was made — the flight
    /// recorder's view of the redirection step. The trait's
    /// [`MsiRouter::route`] delegates here, so traced and untraced runs
    /// execute the identical computation (same engine state mutations).
    pub fn route_explained(
        &mut self,
        msg: &es2_apic::MsiMessage,
        ctx: &RouteCtx,
    ) -> RoutedMsi {
        let affinity = self.affinity.route(msg, ctx);
        let chosen = self
            .engine
            .select_target(ctx.vm.0 as usize, msg.vector, affinity.idx);
        RoutedMsi {
            target: VcpuId {
                vm: ctx.vm,
                idx: chosen,
            },
            affinity,
            redirected: chosen != affinity.idx,
            host: self.host,
        }
    }
}

/// An MSI routing decision with its provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutedMsi {
    /// Where the interrupt actually goes.
    pub target: VcpuId,
    /// Where stock affinity routing would have sent it.
    pub affinity: VcpuId,
    /// True iff the redirection engine overrode the affinity choice.
    pub redirected: bool,
    /// The host whose online/offline lists produced this decision.
    pub host: u32,
}

impl MsiRouter for Es2Router {
    fn route(&mut self, msg: &es2_apic::MsiMessage, ctx: &RouteCtx) -> VcpuId {
        self.route_explained(msg, ctx).target
    }

    fn on_sched_change(&mut self, vcpu: VcpuId, online: bool) {
        if online {
            self.engine.sched_in(vcpu.vm.0 as usize, vcpu.idx);
        } else {
            self.engine.sched_out(vcpu.vm.0 as usize, vcpu.idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_apic::vectors::LOCAL_TIMER_VECTOR;
    use es2_apic::MsiMessage;
    use es2_hypervisor::VmId;

    fn ctx(num_vcpus: u32) -> RouteCtx {
        RouteCtx {
            vm: VmId(0),
            num_vcpus,
        }
    }

    #[test]
    fn device_msi_redirected_to_online_vcpu() {
        let mut r = Es2Router::new(RedirectionEngine::new(1, 4));
        r.on_sched_change(VcpuId::new(0, 2), true);
        let dst = r.route(&MsiMessage::fixed(0, 0x41), &ctx(4));
        assert_eq!(dst, VcpuId::new(0, 2));
        assert_eq!(r.engine().redirection_count(), 1);
    }

    #[test]
    fn timer_msi_passes_through() {
        let mut r = Es2Router::new(RedirectionEngine::new(1, 4));
        r.on_sched_change(VcpuId::new(0, 2), true);
        let dst = r.route(&MsiMessage::fixed(0, LOCAL_TIMER_VECTOR), &ctx(4));
        assert_eq!(dst, VcpuId::new(0, 0), "affinity respected");
    }

    #[test]
    fn route_explained_reports_provenance() {
        let mut r = Es2Router::new(RedirectionEngine::new(1, 4));
        r.on_sched_change(VcpuId::new(0, 2), true);
        let routed = r.route_explained(&MsiMessage::fixed(0, 0x41), &ctx(4));
        assert_eq!(routed.target, VcpuId::new(0, 2));
        assert_eq!(routed.affinity, VcpuId::new(0, 0));
        assert!(routed.redirected);

        let timer = r.route_explained(&MsiMessage::fixed(0, LOCAL_TIMER_VECTOR), &ctx(4));
        assert_eq!(timer.target, timer.affinity);
        assert!(!timer.redirected);
    }

    #[test]
    fn routers_on_distinct_hosts_keep_independent_lists() {
        // Regression for a latent single-host assumption: the engine's
        // online/offline lists must be per-host, so the same VM index
        // going online on host A is invisible to host B's router, and
        // each decision is stamped with the host that made it.
        let mut a = Es2Router::on_host(RedirectionEngine::new(1, 4), 0);
        let mut b = Es2Router::on_host(RedirectionEngine::new(1, 4), 1);
        a.on_sched_change(VcpuId::new(0, 2), true);

        let on_a = a.route_explained(&MsiMessage::fixed(0, 0x41), &ctx(4));
        assert_eq!(on_a.host, 0);
        assert_eq!(on_a.target.idx, 2, "A's online vCPU wins");
        assert!(on_a.redirected);
        let on_b = b.route_explained(&MsiMessage::fixed(0, 0x41), &ctx(4));
        assert_eq!(on_b.host, 1);
        assert_eq!(on_b.target.idx, 0, "B predicts from its own offline list");
    }

    #[test]
    fn sched_notifications_flow_into_engine() {
        // Observed through routing, which reads only the engine's lists.
        let mut r = Es2Router::new(RedirectionEngine::new(1, 2));
        let msi = MsiMessage::fixed(0, 0x41);
        r.on_sched_change(VcpuId::new(0, 1), true);
        let routed = r.route_explained(&msi, &ctx(2));
        assert_eq!(routed.target.idx, 1, "sched-in put vCPU 1 online");
        r.on_sched_change(VcpuId::new(0, 1), false);
        let routed = r.route_explained(&msi, &ctx(2));
        assert_eq!(routed.target.idx, 0, "sched-out cleared the sticky target");
    }
}
