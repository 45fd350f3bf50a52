//! Multi-queue virtio suite: per-queue MSI steering, sharded vhost
//! workers, and per-queue quarantine containment.
//!
//! The tentpole contract: with `queues_per_vm > 1` every TX/RX pair has
//! its own MSI vectors steered at its owning vCPU (pair `q` → vCPU
//! `q % N`), its own vhost handler identities, and its own quarantine
//! blast radius — a hostile guest corrupting queue `k` loses `(vm, k)`
//! alone while neighbors *and the same VM's other queues* keep service.

use es2_core::EventPathConfig;
use es2_sim::{FaultPlan, RingCorruptionKind};
use es2_testbed::experiments::{self, RunSpec};
use es2_testbed::{Machine, Params, RunResult, ShardPolicy, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

/// Fast params with `queues` TX/RX pairs per VM and `workers` sharded
/// vhost workers.
fn mq_params(queues: u32, workers: u32, policy: ShardPolicy) -> Params {
    Params {
        queues_per_vm: queues,
        vhost_workers: workers,
        shard_policy: policy,
        ..Params::fast_test()
    }
}

fn duo() -> Topology {
    Topology {
        num_vms: 1,
        vcpus_per_vm: 2,
    }
}

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
    report.assert_ok();
    r
}

fn fingerprint(r: &RunResult) -> (u64, u64, u64, u64, u64, u64) {
    (
        r.events_simulated,
        r.goodput_gbps.to_bits(),
        r.kicks_total,
        r.rx_interrupts_total,
        r.backpressure.total(),
        r.quarantines_total + r.queue_resets_total,
    )
}

#[test]
fn queue_interrupts_land_on_their_owning_vcpu() {
    // Without redirection the device MSI goes straight to the pair's
    // affinity vCPU. Two queues on two vCPUs: RSS spreads ingress across
    // both pairs, so both vCPUs must handle device interrupts. The same
    // machine with one queue steers every device vector at vCPU 0.
    let recv = WorkloadSpec::Netperf(NetperfSpec::udp_receive(1024));
    let two_q = run_checked(
        EventPathConfig::pi_h(4),
        duo(),
        vec![recv],
        mq_params(2, 2, ShardPolicy::Affine),
        71,
        FaultPlan::none(),
    );
    assert!(two_q.goodput_gbps > 0.0);
    assert!(
        two_q.device_irqs_per_vcpu[0] > 0,
        "queue 0's vCPU never handled a device interrupt: {:?}",
        two_q.device_irqs_per_vcpu
    );
    assert!(
        two_q.device_irqs_per_vcpu[1] > 0,
        "queue 1's MSIs never reached its owning vCPU 1: {:?}",
        two_q.device_irqs_per_vcpu
    );

    let one_q = run_checked(
        EventPathConfig::pi_h(4),
        duo(),
        vec![recv],
        mq_params(1, 1, ShardPolicy::Mux),
        71,
        FaultPlan::none(),
    );
    assert!(one_q.device_irqs_per_vcpu[0] > 0);
    assert_eq!(
        one_q.device_irqs_per_vcpu[1], 0,
        "single-queue MSIs must all steer at vCPU 0: {:?}",
        one_q.device_irqs_per_vcpu
    );
}

#[test]
fn steering_survives_redirection_and_vcpu_migration() {
    // Redirection + multi-queue: per-queue vectors must retarget through
    // the same online/offline machinery as the single-queue path —
    // parked interrupts, sibling migration, watchdog re-raises — and the
    // run must stay liveness-clean with service intact.
    let topo = Topology::multiplexed();
    let specs = vec![
        WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024).with_threads(4)),
        WorkloadSpec::Netperf(NetperfSpec::udp_receive(1024)),
        WorkloadSpec::Netperf(NetperfSpec::tcp_send(512)),
        WorkloadSpec::Idle,
    ];
    let r = run_checked(
        EventPathConfig::pi_h_r(4),
        topo,
        specs,
        mq_params(4, 2, ShardPolicy::Affine),
        83,
        FaultPlan::none(),
    );
    assert!(r.goodput_gbps > 0.0, "no service under redirection: {r:?}");
    assert!(
        r.device_irqs_per_vcpu.iter().sum::<u64>() > 0,
        "no device interrupts delivered at all: {r:?}"
    );
    // The time-shared cores force vCPUs offline; redirection must have
    // engaged (else the config silently degraded to plain PI+H).
    assert!(
        r.redirections + r.offline_predictions > 0,
        "redirection never engaged on a contended multi-queue box: {r:?}"
    );
}

#[test]
fn hostile_queue_quarantines_only_that_queue() {
    // VM 1 corrupts one ring; exactly one (vm, queue) pays. The tested
    // VM 0 keeps goodput, VM 1's *other* queues keep completing work
    // (the reset handshake restores the broken one).
    let topo = Topology {
        num_vms: 2,
        vcpus_per_vm: 2,
    };
    let plan = FaultPlan {
        hostile_vm: 1,
        ring_corrupt_at_kick: 10,
        ring_corruption: RingCorruptionKind::DescOutOfRange,
        ..FaultPlan::none()
    };
    let specs = vec![
        WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
        WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
    ];
    let r = run_checked(
        EventPathConfig::pi_h(4),
        topo,
        specs,
        mq_params(2, 2, ShardPolicy::Affine),
        97,
        plan,
    );
    assert_eq!(r.fault_stats.ring_corruptions, 1);
    assert_eq!(
        r.quarantines_total, 1,
        "exactly one queue must be quarantined, not the whole VM: {r:?}"
    );
    assert!(r.queue_resets_total >= 1, "broken queue never reset: {r:?}");
    let victim = &r.backpressure_per_vm[0];
    assert_eq!(
        victim.quarantines, 0,
        "neighbor queue quarantined: {victim:?}"
    );
    assert_eq!(victim.resets, 0, "neighbor queue reset: {victim:?}");
    assert!(
        r.goodput_gbps > 0.0,
        "neighbor VM lost service to a single hostile queue: {r:?}"
    );
    let hostile = &r.backpressure_per_vm[1];
    assert_eq!(hostile.quarantines, 1, "{hostile:?}");
}

#[test]
fn sharded_runs_are_identical_at_any_thread_count() {
    // Every sharding policy must stay byte-deterministic under the
    // parallel runner — the same discipline `repro selfcheck` enforces
    // for the single-worker path.
    for policy in [ShardPolicy::Affine, ShardPolicy::Passthrough] {
        let specs: Vec<RunSpec> = (0..3)
            .map(|i| RunSpec {
                cfg: EventPathConfig::pi_h(4),
                topo: duo(),
                spec: WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
                params: mq_params(2, 2, policy),
                seed: 700 + i,
                faults: FaultPlan::none(),
                fill: WorkloadSpec::Idle,
            })
            .collect();
        let serial: Vec<RunResult> = specs.iter().map(RunSpec::run).collect();
        let parallel = experiments::run_specs(&specs);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                fingerprint(s),
                fingerprint(p),
                "{policy:?}: parallel diverged"
            );
        }
    }
}

#[test]
fn passthrough_skips_the_dispatch_hop() {
    // Passthrough pins pair q to worker q and skips the shared dispatch
    // segment between turns; the mux pays it on every turn. Same
    // workload, same seed: passthrough must complete the run with
    // service intact and no dispatch-serialization artifacts.
    let spec = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let mux = run_checked(
        EventPathConfig::pi_h(4),
        duo(),
        vec![spec],
        mq_params(2, 1, ShardPolicy::Mux),
        113,
        FaultPlan::none(),
    );
    let pt = run_checked(
        EventPathConfig::pi_h(4),
        duo(),
        vec![spec],
        mq_params(2, 2, ShardPolicy::Passthrough),
        113,
        FaultPlan::none(),
    );
    assert!(mux.goodput_gbps > 0.0);
    assert!(
        pt.goodput_gbps > 0.0,
        "passthrough produced no service: {pt:?}"
    );
}
