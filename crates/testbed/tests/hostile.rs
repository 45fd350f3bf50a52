//! Hostile-guest isolation suite.
//!
//! A guest owns its virtio rings and can publish anything it likes into
//! them; these tests drive the full machine with a guest that does
//! exactly that — out-of-range descriptors, avail-index jumps, chain
//! loops, doorbell storms, spurious EOI writes — and assert the paper's
//! multiplexing story survives: the hostile VM's queue is quarantined
//! and later reset, the hostile VM pays for its own storms, and the
//! *other* VMs keep full service (liveness-clean, bounded latency shift).

use es2_core::EventPathConfig;
use es2_hypervisor::ExitReason;
use es2_sim::{FaultPlan, RingCorruptionKind};
use es2_testbed::experiments::{self, hostile_plan, RunSpec};
use es2_testbed::{Machine, Params, RunResult, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

fn fast() -> Params {
    Params::fast_test()
}

/// Fast params with the per-queue kick throttle switched on.
fn fast_bp() -> Params {
    Params {
        backpressure: true,
        ..Params::fast_test()
    }
}

fn tcp_send() -> WorkloadSpec {
    WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024))
}

/// Run one hostile machine through the liveness checker; panics on any
/// invariant violation (including on the hostile VM itself — quarantine
/// must degrade service, never corrupt machine state).
fn run_checked(
    cfg: EventPathConfig,
    topo: Topology,
    specs: Vec<WorkloadSpec>,
    params: Params,
    seed: u64,
    plan: FaultPlan,
) -> RunResult {
    let (r, report) =
        Machine::with_specs_faulted(cfg, topo, specs, params, seed, plan).run_checked();
    report.assert_ok(&(cfg, seed));
    r
}

fn fingerprint(r: &RunResult) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.events_simulated,
        r.goodput_gbps.to_bits(),
        r.kicks_total,
        r.rx_interrupts_total,
        r.fault_stats.total(),
        r.backpressure.total(),
        r.quarantines_total + r.queue_resets_total,
    )
}

#[test]
fn every_corruption_kind_is_quarantined_and_survived() {
    // Each ring-corruption class in turn, single VM: validation must
    // catch the poisoned ring at the vhost boundary (no panic, no bogus
    // work), quarantine it, and the guest's reset must restore service.
    let kinds = [
        RingCorruptionKind::DescOutOfRange,
        RingCorruptionKind::AvailIdxJump,
        RingCorruptionKind::AvailIdxRegress,
        RingCorruptionKind::DescLoop,
        RingCorruptionKind::ChainOverLength,
        RingCorruptionKind::UsedOverflow,
    ];
    for kind in kinds {
        let plan = FaultPlan {
            hostile_vm: 0,
            ring_corrupt_at_kick: 10,
            ring_corruption: kind,
            ..FaultPlan::none()
        };
        let r = run_checked(
            EventPathConfig::pi(),
            Topology::micro(),
            vec![tcp_send()],
            fast(),
            17,
            plan,
        );
        assert_eq!(
            r.fault_stats.ring_corruptions, 1,
            "{kind:?}: corruption never published"
        );
        assert!(
            r.quarantines_total >= 1,
            "{kind:?}: corrupted ring was never quarantined: {r:?}"
        );
        assert!(
            r.queue_resets_total >= 1,
            "{kind:?}: guest never reset the quarantined queue: {r:?}"
        );
        assert!(
            r.goodput_gbps > 0.0,
            "{kind:?}: service never recovered after quarantine: {r:?}"
        );
    }
}

#[test]
fn quarantine_recovery_restores_most_of_clean_goodput() {
    // One early corruption + reset must cost a blip, not the run: the
    // post-reset queue carries the rest of the window at full rate.
    let clean = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        vec![tcp_send()],
        fast(),
        23,
        FaultPlan::none(),
    );
    let plan = FaultPlan {
        hostile_vm: 0,
        ring_corrupt_at_kick: 10,
        ring_corruption: RingCorruptionKind::DescOutOfRange,
        ..FaultPlan::none()
    };
    let hostile = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        vec![tcp_send()],
        fast(),
        23,
        plan,
    );
    assert!(clean.goodput_gbps > 0.0);
    assert!(
        hostile.goodput_gbps > 0.5 * clean.goodput_gbps,
        "single quarantine cost more than half the window: clean {} vs hostile {}",
        clean.goodput_gbps,
        hostile.goodput_gbps
    );
    assert_eq!(hostile.backpressure.quarantines, hostile.quarantines_total);
    assert_eq!(hostile.backpressure.resets, hostile.queue_resets_total);
}

#[test]
fn kick_storms_throttle_only_the_hostile_vm() {
    // Every hostile kick exit spawns an 8-deep doorbell storm; the GCRA
    // bucket must shed the excess onto the hostile VM's own timeline
    // while the neighbor VM's ledger stays untouched.
    let topo = Topology {
        num_vms: 2,
        vcpus_per_vm: 1,
    };
    let plan = FaultPlan {
        hostile_vm: 1,
        kick_storm_p: 1.0,
        kick_storm_burst: 8,
        ..FaultPlan::none()
    };
    let r = run_checked(
        EventPathConfig::pi(),
        topo,
        vec![tcp_send(), tcp_send()],
        fast_bp(),
        31,
        plan,
    );
    assert!(r.fault_stats.storm_kicks > 0, "no storm ever drawn: {r:?}");
    let hostile = &r.backpressure_per_vm[1];
    assert!(
        hostile.spurious_kicks > 0,
        "hostile VM never paid its storm exits: {hostile:?}"
    );
    assert!(
        hostile.throttled_kicks > 0,
        "storm never hit the kick throttle: {hostile:?}"
    );
    let victim = &r.backpressure_per_vm[0];
    assert_eq!(
        victim.spurious_kicks, 0,
        "storm leaked onto the neighbor: {victim:?}"
    );
    assert_eq!(victim.quarantines, 0);
    assert!(
        r.goodput_gbps > 0.0,
        "neighbor VM 0 lost service to VM 1's storm: {r:?}"
    );
}

#[test]
fn eoi_storms_cost_exits_only_on_the_emulated_path() {
    // Spurious EOI writes are ApicAccess exits on the emulated path but
    // are absorbed exit-free by the virtualized APIC page: the hostile
    // guest hurts itself under Baseline and achieves nothing under PI.
    let plan = FaultPlan {
        hostile_vm: 0,
        eoi_storm_p: 1.0,
        eoi_storm_burst: 4,
        ..FaultPlan::none()
    };
    let emulated = run_checked(
        EventPathConfig::baseline(),
        Topology::micro(),
        vec![tcp_send()],
        fast(),
        41,
        plan,
    );
    assert!(emulated.fault_stats.storm_eois > 0, "no EOI storm drawn");
    assert!(
        emulated.backpressure.spurious_eois > 0,
        "spurious EOIs not accounted: {:?}",
        emulated.backpressure
    );
    assert!(emulated.goodput_gbps > 0.0);

    let clean = run_checked(
        EventPathConfig::baseline(),
        Topology::micro(),
        vec![tcp_send()],
        fast(),
        41,
        FaultPlan::none(),
    );
    assert!(
        emulated.exits.total(ExitReason::ApicAccess) > clean.exits.total(ExitReason::ApicAccess),
        "EOI storm paid no ApicAccess exits: storm {} vs clean {}",
        emulated.exits.total(ExitReason::ApicAccess),
        clean.exits.total(ExitReason::ApicAccess)
    );

    let vapic = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        vec![tcp_send()],
        fast(),
        41,
        plan,
    );
    assert!(vapic.backpressure.spurious_eois > 0);
    assert_eq!(
        vapic.exits.total(ExitReason::ApicAccess),
        0,
        "vAPIC path should absorb spurious EOIs without exits"
    );
}

#[test]
fn full_hostile_plan_has_bounded_blast_radius() {
    // The flagship claim: VM 1 runs the whole hostile family (corruption
    // + both storms + descriptor loops) against a backpressured host;
    // the tested VM 0 keeps its goodput and its tail latency.
    let topo = Topology::multiplexed();
    let specs = || {
        vec![
            tcp_send(),
            tcp_send(),
            WorkloadSpec::Idle,
            WorkloadSpec::Idle,
        ]
    };
    let clean = run_checked(
        EventPathConfig::pi_h(4),
        topo,
        specs(),
        fast_bp(),
        7,
        FaultPlan::none(),
    );
    let hostile = run_checked(
        EventPathConfig::pi_h(4),
        topo,
        specs(),
        fast_bp(),
        7,
        hostile_plan(1),
    );

    assert!(hostile.fault_stats.ring_corruptions >= 1);
    assert!(hostile.quarantines_total >= 1);
    // Containment: every hostile-side counter lands on VM 1 alone.
    for (vm, bp) in hostile.backpressure_per_vm.iter().enumerate() {
        if vm == 1 {
            continue;
        }
        assert_eq!(bp.spurious_kicks, 0, "vm{vm} absorbed storm kicks: {bp:?}");
        assert_eq!(bp.spurious_eois, 0, "vm{vm} absorbed storm EOIs: {bp:?}");
        assert_eq!(bp.quarantines, 0, "vm{vm} queue quarantined: {bp:?}");
        assert_eq!(bp.resets, 0, "vm{vm} queue reset: {bp:?}");
    }
    // Bounded degradation for the victim: most of the clean goodput and
    // a tail-latency shift that stays within a small constant factor.
    assert!(clean.goodput_gbps > 0.0);
    assert!(
        hostile.goodput_gbps > 0.5 * clean.goodput_gbps,
        "hostile neighbor halved VM 0 goodput: clean {} vs hostile {}",
        clean.goodput_gbps,
        hostile.goodput_gbps
    );
    let clean_p99 = clean.rx_p99_us_per_vm[0].max(1);
    let hostile_p99 = hostile.rx_p99_us_per_vm[0].max(1);
    assert!(
        hostile_p99 <= 4 * clean_p99,
        "VM 0 rx p99 blew past the blast-radius bound: clean {clean_p99} µs vs hostile \
         {hostile_p99} µs"
    );
}

#[test]
fn hostile_sweep_is_identical_at_any_thread_count() {
    let specs: Vec<RunSpec> = (0..4)
        .map(|i| RunSpec {
            cfg: EventPathConfig::pi_h(4),
            topo: Topology::multiplexed(),
            spec: tcp_send(),
            params: fast_bp(),
            seed: 900 + i,
            faults: hostile_plan(0),
            fill: WorkloadSpec::Idle,
        })
        .collect();

    let serial: Vec<RunResult> = specs.iter().map(RunSpec::run).collect();
    let parallel = experiments::run_specs(&specs);

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(fingerprint(s), fingerprint(p), "parallel diverged");
        assert_eq!(s.fault_stats, p.fault_stats);
        assert_eq!(s.backpressure, p.backpressure);
        assert_eq!(s.backpressure_per_vm, p.backpressure_per_vm);
    }
}

#[test]
fn same_seed_reproduces_the_same_hostile_run() {
    let a = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        vec![tcp_send()],
        fast_bp(),
        55,
        hostile_plan(0),
    );
    let b = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        vec![tcp_send()],
        fast_bp(),
        55,
        hostile_plan(0),
    );
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.backpressure, b.backpressure);
}

#[test]
fn non_hostile_plans_draw_nothing_from_the_hostile_streams() {
    // The pre-existing chaos plan has every hostile field at zero: the
    // hostile machinery must stay inert (zero draws, zero quarantines)
    // and the default (throttle off) leaves the whole ledger empty.
    let r = run_checked(
        EventPathConfig::pi_h(4),
        Topology::micro(),
        vec![tcp_send()],
        fast(),
        11,
        experiments::chaos_plan(),
    );
    assert!(r.fault_stats.total() > 0, "chaos plan injected nothing");
    assert_eq!(r.fault_stats.ring_corruptions, 0);
    assert_eq!(r.fault_stats.storm_kicks, 0);
    assert_eq!(r.fault_stats.storm_eois, 0);
    assert_eq!(r.quarantines_total, 0);
    assert_eq!(r.queue_resets_total, 0);
    assert_eq!(r.backpressure.total(), 0, "{:?}", r.backpressure);
}
