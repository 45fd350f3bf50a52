//! Intelligent interrupt redirection — §IV-C of the paper.
//!
//! *"ES2 establishes an information channel to the vCPU scheduler to acquire
//! the real-time scheduling status of all vCPUs. The status of a vCPU is
//! defined as online if it is currently running on a core, and defined as
//! offline if not. ES2 maintains online/offline vCPU lists for each VM."*
//!
//! Target selection:
//!
//! * multiple online candidates → pick the one with the lightest interrupt
//!   load ("ES2 records the number of processed interrupts for each vCPU,
//!   and selects a vCPU with the lightest workload"), then keep redirecting
//!   to it **until it is descheduled** (cache affinity / stickiness);
//! * no online vCPU → predict: "the longer the time interval a vCPU remains
//!   offline, the higher the probability it has to become online again" —
//!   each descheduled vCPU goes to the **tail** of the offline list, so the
//!   **head** is the vCPU offline longest, and ES2 returns the head.
//!
//! Only device vectors may be redirected (§V-C); per-vCPU vectors (timer,
//! IPIs) pass through untouched — redirecting those "may cause the guest OS
//! to crash".
//!
//! [`TargetPolicy`] / [`OfflinePolicy`] expose the paper's choices as the
//! defaults plus the alternatives `repro ablations` compares them with.

use std::collections::VecDeque;

use es2_apic::vectors::is_redirectable_device_vector;
use es2_apic::Vector;
use es2_sim::SimRng;

/// How to choose among multiple online vCPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetPolicy {
    /// Paper behaviour: fewest processed interrupts, sticky until
    /// descheduled.
    LeastLoadedSticky,
    /// Ablation: least loaded, re-evaluated on every interrupt (no
    /// stickiness ⇒ no cache affinity).
    LeastLoadedNoSticky,
    /// Ablation: uniformly random online vCPU.
    Random,
    /// Ablation: always the lowest-indexed online vCPU.
    FirstOnline,
}

/// How to choose when no vCPU is online.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfflinePolicy {
    /// Paper behaviour: head of the offline list (descheduled earliest ⇒
    /// predicted to be scheduled soonest).
    Head,
    /// Ablation: tail of the list (descheduled most recently — the
    /// pessimal prediction).
    Tail,
    /// Ablation: keep the guest's affinity destination.
    KeepAffinity,
}

#[derive(Clone, Debug)]
struct VmLists {
    online: Vec<u32>,
    /// Offline vCPUs in deschedule order: head = offline longest.
    offline: VecDeque<u32>,
    /// Current sticky target (online selection), cleared on its deschedule.
    sticky: Option<u32>,
    /// Interrupts routed to each vCPU (the paper's per-vCPU load record).
    irq_count: Vec<u64>,
}

/// Per-host redirection state across all VMs.
#[derive(Clone, Debug)]
pub struct RedirectionEngine {
    vms: Vec<VmLists>,
    target_policy: TargetPolicy,
    offline_policy: OfflinePolicy,
    rng: SimRng,
    // statistics
    redirections: u64,
    offline_predictions: u64,
}

impl RedirectionEngine {
    /// Engine for `num_vms` VMs of `vcpus_per_vm` vCPUs each, all initially
    /// offline (in index order), with the paper's policies.
    pub fn new(num_vms: usize, vcpus_per_vm: u32) -> Self {
        Self::with_policies(
            num_vms,
            vcpus_per_vm,
            TargetPolicy::LeastLoadedSticky,
            OfflinePolicy::Head,
            0,
        )
    }

    /// Engine with explicit (ablation) policies.
    pub fn with_policies(
        num_vms: usize,
        vcpus_per_vm: u32,
        target_policy: TargetPolicy,
        offline_policy: OfflinePolicy,
        seed: u64,
    ) -> Self {
        RedirectionEngine {
            vms: (0..num_vms)
                .map(|_| VmLists {
                    online: Vec::new(),
                    offline: (0..vcpus_per_vm).collect(),
                    sticky: None,
                    irq_count: vec![0; vcpus_per_vm as usize],
                })
                .collect(),
            target_policy,
            offline_policy,
            rng: SimRng::new(seed),
            redirections: 0,
            offline_predictions: 0,
        }
    }

    /// `kvm_sched_in` notifier: `vcpu` of `vm` started running.
    pub fn sched_in(&mut self, vm: usize, vcpu: u32) {
        let lists = &mut self.vms[vm];
        if let Some(pos) = lists.offline.iter().position(|&v| v == vcpu) {
            lists.offline.remove(pos);
        }
        if !lists.online.contains(&vcpu) {
            lists.online.push(vcpu);
        }
    }

    /// `kvm_sched_out` notifier: `vcpu` of `vm` was descheduled. It joins
    /// the **tail** of the offline list, encoding the deschedule sequence.
    pub fn sched_out(&mut self, vm: usize, vcpu: u32) {
        let lists = &mut self.vms[vm];
        lists.online.retain(|&v| v != vcpu);
        if !lists.offline.contains(&vcpu) {
            lists.offline.push_back(vcpu);
        }
        if lists.sticky == Some(vcpu) {
            lists.sticky = None;
        }
    }

    /// Select the destination vCPU for an interrupt with `vector` whose
    /// affinity destination is `default`.
    pub fn select_target(&mut self, vm: usize, vector: Vector, default: u32) -> u32 {
        // §V-C: never redirect non-device vectors.
        if !is_redirectable_device_vector(vector) {
            return default;
        }
        let chosen = self.select_device_target(vm, default);
        if chosen != default {
            self.redirections += 1;
        }
        self.vms[vm].irq_count[chosen as usize] += 1;
        chosen
    }

    fn select_device_target(&mut self, vm: usize, default: u32) -> u32 {
        let use_sticky = self.target_policy == TargetPolicy::LeastLoadedSticky;
        let lists = &mut self.vms[vm];
        if !lists.online.is_empty() {
            if use_sticky {
                if let Some(s) = lists.sticky {
                    debug_assert!(lists.online.contains(&s), "sticky must be online");
                    return s;
                }
            }
            let chosen = match self.target_policy {
                TargetPolicy::LeastLoadedSticky | TargetPolicy::LeastLoadedNoSticky => *lists
                    .online
                    .iter()
                    .min_by_key(|&&v| (lists.irq_count[v as usize], v))
                    .expect("nonempty online list"),
                TargetPolicy::Random => {
                    let i = self.rng.choose_index(lists.online.len()).expect("nonempty");
                    lists.online[i]
                }
                TargetPolicy::FirstOnline => *lists.online.iter().min().expect("nonempty"),
            };
            if use_sticky {
                lists.sticky = Some(chosen);
            }
            return chosen;
        }
        // Whole VM descheduled: predict the next-online vCPU.
        self.offline_predictions += 1;
        match self.offline_policy {
            OfflinePolicy::Head => lists.offline.front().copied().unwrap_or(default),
            OfflinePolicy::Tail => lists.offline.back().copied().unwrap_or(default),
            OfflinePolicy::KeepAffinity => default,
        }
    }

    /// Interrupts whose destination was changed.
    pub fn redirection_count(&self) -> u64 {
        self.redirections
    }

    /// Selections that had to fall back to the offline prediction.
    pub fn offline_prediction_count(&self) -> u64 {
        self.offline_predictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_apic::vectors::LOCAL_TIMER_VECTOR;
    use proptest::prelude::*;

    const DEV: Vector = 0x41;

    fn engine() -> RedirectionEngine {
        RedirectionEngine::new(1, 4)
    }

    #[test]
    fn timer_vector_is_never_redirected() {
        let mut e = engine();
        e.sched_in(0, 2);
        assert_eq!(e.select_target(0, LOCAL_TIMER_VECTOR, 0), 0);
        assert_eq!(e.redirection_count(), 0);
        assert_eq!(e.vms[0].irq_count, [0; 4], "not charged to any vCPU's load");
    }

    #[test]
    fn online_vcpu_is_preferred_over_offline_affinity() {
        let mut e = engine();
        e.sched_in(0, 2); // only vCPU 2 online; affinity says 0 (offline)
        assert_eq!(e.select_target(0, DEV, 0), 2);
        assert_eq!(e.redirection_count(), 1);
        assert_eq!(e.offline_prediction_count(), 0);
    }

    #[test]
    fn least_loaded_online_vcpu_wins() {
        let mut e = engine();
        e.sched_in(0, 1);
        e.sched_in(0, 3);
        // Load vCPU 1 with interrupts, then deschedule+reschedule it to
        // clear stickiness.
        for _ in 0..5 {
            assert_eq!(e.select_target(0, DEV, 0), 1, "sticky on first pick");
        }
        e.sched_out(0, 1);
        e.sched_in(0, 1);
        // vCPU 3 has zero interrupts — lighter than vCPU 1's five.
        assert_eq!(e.select_target(0, DEV, 0), 3);
    }

    #[test]
    fn sticky_until_descheduled() {
        let mut e = engine();
        e.sched_in(0, 1);
        e.sched_in(0, 2);
        let first = e.select_target(0, DEV, 0);
        for _ in 0..10 {
            assert_eq!(e.select_target(0, DEV, 0), first, "sticky target");
        }
        e.sched_out(0, first);
        let second = e.select_target(0, DEV, 0);
        assert_ne!(second, first, "stickiness cleared on deschedule");
    }

    #[test]
    fn offline_head_is_longest_descheduled() {
        let mut e = engine();
        // All four start offline in index order; reshuffle by scheduling
        // everything in and out in a known order: 2, 0, 3, 1.
        for v in [2u32, 0, 3, 1] {
            e.sched_in(0, v);
        }
        for v in [2u32, 0, 3, 1] {
            e.sched_out(0, v);
        }
        // Offline order is now [2, 0, 3, 1]; head (longest offline) is 2.
        assert_eq!(e.select_target(0, DEV, 1), 2);
        assert_eq!(e.offline_prediction_count(), 1);
    }

    #[test]
    fn offline_tail_policy_is_pessimal_choice() {
        let mut e = RedirectionEngine::with_policies(
            1,
            4,
            TargetPolicy::LeastLoadedSticky,
            OfflinePolicy::Tail,
            0,
        );
        for v in [2u32, 0, 3, 1] {
            e.sched_in(0, v);
            e.sched_out(0, v);
        }
        assert_eq!(e.select_target(0, DEV, 0), 1, "tail = most recently out");
    }

    #[test]
    fn keep_affinity_policy_never_redirects_when_all_offline() {
        let mut e = RedirectionEngine::with_policies(
            1,
            4,
            TargetPolicy::LeastLoadedSticky,
            OfflinePolicy::KeepAffinity,
            0,
        );
        assert_eq!(e.select_target(0, DEV, 3), 3);
        assert_eq!(e.redirection_count(), 0);
    }

    #[test]
    fn random_policy_picks_only_online_vcpus() {
        let mut e =
            RedirectionEngine::with_policies(1, 4, TargetPolicy::Random, OfflinePolicy::Head, 7);
        e.sched_in(0, 1);
        e.sched_in(0, 3);
        for _ in 0..100 {
            let t = e.select_target(0, DEV, 0);
            assert!(t == 1 || t == 3, "picked offline vCPU {t}");
        }
    }

    #[test]
    fn vms_are_isolated() {
        let mut e = RedirectionEngine::new(2, 2);
        e.sched_in(0, 1);
        // VM 1 has nobody online; its affinity target stays via prediction
        // (offline head = vCPU 0).
        assert_eq!(e.select_target(1, DEV, 1), 0);
        assert_eq!(e.select_target(0, DEV, 0), 1);
        assert_eq!(e.vms[0].irq_count, [0, 1]);
        assert_eq!(e.vms[1].irq_count, [1, 0]);
    }

    #[test]
    fn double_sched_in_is_idempotent() {
        let mut e = engine();
        e.sched_in(0, 1);
        e.sched_in(0, 1);
        assert_eq!(e.vms[0].online, [1]);
        e.sched_out(0, 1);
        e.sched_out(0, 1);
        assert!(e.vms[0].online.is_empty());
        assert_eq!(e.vms[0].offline.iter().filter(|&&v| v == 1).count(), 1);
    }

    proptest! {
        /// Invariant: online and offline lists partition the vCPU set
        /// after any sequence of notifier events.
        #[test]
        fn prop_lists_partition_vcpus(
            events in proptest::collection::vec((0u32..4, any::<bool>()), 0..200)
        ) {
            let mut e = engine();
            for (v, inn) in events {
                if inn {
                    e.sched_in(0, v);
                } else {
                    e.sched_out(0, v);
                }
                let mut all: Vec<u32> = e.vms[0].online.clone();
                all.extend(e.vms[0].offline.iter());
                all.sort_unstable();
                prop_assert_eq!(all, vec![0, 1, 2, 3]);
            }
        }

        /// The selected target is always a valid vCPU and device interrupts
        /// are never dropped from accounting.
        #[test]
        fn prop_target_valid_and_counted(
            events in proptest::collection::vec((0u32..4, any::<bool>()), 0..50),
            n_irqs in 1u32..50,
        ) {
            let mut e = engine();
            for (v, inn) in events {
                if inn { e.sched_in(0, v); } else { e.sched_out(0, v); }
            }
            for _ in 0..n_irqs {
                let t = e.select_target(0, DEV, 0);
                prop_assert!(t < 4);
            }
            let total: u64 = e.vms[0].irq_count.iter().sum();
            prop_assert_eq!(total, n_irqs as u64);
            prop_assert!(e.redirection_count() <= n_irqs as u64);
        }

        /// When at least one vCPU is online, the chosen target is online.
        #[test]
        fn prop_online_target_when_available(online_set in proptest::collection::btree_set(0u32..4, 1..4)) {
            let mut e = engine();
            for &v in &online_set {
                e.sched_in(0, v);
            }
            let t = e.select_target(0, DEV, 0);
            prop_assert!(online_set.contains(&t), "target {} not online", t);
        }
    }
}
