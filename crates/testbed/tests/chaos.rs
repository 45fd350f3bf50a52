//! Chaos suite: seeded fault plans across the paper's workload shapes.
//!
//! Every test drives the full machine under an active [`FaultPlan`] and
//! asserts *bounded degradation*: the run stays live (liveness checker
//! clean), recovery machinery demonstrably fires, results are bitwise
//! reproducible (same seed, any `ES2_THREADS`), and a VM losing
//! posted-interrupt hardware degrades gracefully — alone.

use es2_core::EventPathConfig;
use es2_sim::{FaultPlan, SimDuration};
use es2_testbed::experiments::{self, chaos_plan, RunSpec};
use es2_testbed::{Machine, Params, RunResult, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

fn fast() -> Params {
    Params::fast_test()
}

fn tcp_send() -> WorkloadSpec {
    WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024))
}

/// Run one faulted machine with the liveness checker; panics on any
/// invariant violation.
fn run_checked(
    cfg: EventPathConfig,
    topo: Topology,
    spec: WorkloadSpec,
    seed: u64,
    plan: FaultPlan,
) -> RunResult {
    RunSpec {
        cfg,
        topo,
        spec,
        params: fast(),
        seed,
        faults: plan,
        fill: WorkloadSpec::Idle,
    }
    .run()
}

/// The fields that must be bitwise identical for two runs to count as
/// "the same result".
fn fingerprint(r: &RunResult) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.events_simulated,
        r.goodput_gbps.to_bits(),
        r.kicks_total,
        r.rx_interrupts_total,
        r.fault_stats.total(),
        r.watchdog_rekicks + r.watchdog_reraises + r.guest_rtos,
        r.modes.totals().posted + r.modes.totals().emulated,
    )
}

#[test]
fn acceptance_plan_stays_live_across_workload_shapes() {
    // The acceptance sweep: kick loss + worker stalls + 1 % packet loss +
    // PI-unavailable on VM 0, over the paper's workload shapes.
    let plan = chaos_plan();
    let shapes: Vec<(EventPathConfig, Topology, WorkloadSpec)> = vec![
        (EventPathConfig::pi(), Topology::micro(), tcp_send()),
        (
            EventPathConfig::pi_h(4),
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::udp_send(256)),
        ),
        (
            EventPathConfig::baseline(),
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_receive(1024)),
        ),
        (
            EventPathConfig::pi_h_r(4),
            Topology::multiplexed(),
            WorkloadSpec::Memcached,
        ),
    ];
    for (cfg, topo, spec) in shapes {
        let r = run_checked(cfg, topo, spec, 11, plan);
        assert!(
            r.fault_stats.total() > 0,
            "{} {spec:?}: chaos plan injected nothing",
            cfg.label()
        );
        assert!(
            r.goodput_gbps > 0.0 || r.ops_per_sec > 0.0,
            "{} {spec:?}: no forward progress under faults: {r:?}",
            cfg.label()
        );
    }
}

#[test]
fn faulted_sweep_is_identical_at_any_thread_count() {
    let plan = chaos_plan();
    let specs: Vec<RunSpec> = (0..6)
        .map(|i| {
            RunSpec {
                cfg: EventPathConfig::pi_h(4),
                topo: Topology::micro(),
                spec: tcp_send(),
                params: fast(),
                seed: 100 + i,
                faults: FaultPlan::none(),
                fill: WorkloadSpec::Idle,
            }
            .with_faults(plan)
        })
        .collect();

    let serial: Vec<RunResult> = specs.iter().map(RunSpec::run).collect();
    let parallel = experiments::run_specs(&specs);

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(fingerprint(s), fingerprint(p), "parallel diverged");
        assert_eq!(s.fault_stats, p.fault_stats);
        assert_eq!(s.modes, p.modes);
    }
}

#[test]
fn same_seed_reproduces_the_same_faulted_run() {
    let plan = chaos_plan();
    let a = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        tcp_send(),
        42,
        plan,
    );
    let b = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        tcp_send(),
        42,
        plan,
    );
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.modes, b.modes);

    // A different seed must draw a different fault schedule.
    let c = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        tcp_send(),
        43,
        plan,
    );
    assert_ne!(fingerprint(&a), fingerprint(&c), "seed had no effect");
}

#[test]
fn empty_plan_is_bit_identical_to_the_unfaulted_constructor() {
    // Clean-path identity at system level: embedding the fault layer with
    // the empty plan must not move a single event.
    let a = Machine::new(
        EventPathConfig::pi_h_r(4),
        Topology::micro(),
        tcp_send(),
        fast(),
        7,
    )
    .run();
    let b = run_checked(
        EventPathConfig::pi_h_r(4),
        Topology::micro(),
        tcp_send(),
        7,
        FaultPlan::none(),
    );
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.fault_stats.total(), 0);
    assert_eq!(b.fault_stats.total(), 0);
    assert_eq!(a.exits, b.exits);
}

#[test]
fn watchdog_recovers_dropped_kicks() {
    // Pure kick loss, aggressive rate: without the watchdog the TX ring
    // eventually strands (kick lost while the handler is idle and notify
    // is re-enabled) and goodput collapses to zero.
    let plan = FaultPlan {
        kick_drop_p: 0.3,
        ..FaultPlan::none()
    };
    let r = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        tcp_send(),
        21,
        plan,
    );
    assert!(r.fault_stats.kicks_dropped > 0, "no kicks dropped: {r:?}");
    assert!(r.watchdog_rekicks > 0, "watchdog never re-kicked: {r:?}");
    assert!(r.goodput_gbps > 0.0, "kick loss killed the run: {r:?}");
}

#[test]
fn guest_tcp_rto_restores_liveness_under_packet_loss() {
    let plan = FaultPlan {
        pkt_drop_p: 0.02,
        ..FaultPlan::none()
    };
    let r = run_checked(
        EventPathConfig::pi(),
        Topology::micro(),
        tcp_send(),
        33,
        plan,
    );
    assert!(r.fault_stats.pkts_dropped > 0, "no packets dropped: {r:?}");
    assert!(r.guest_rtos > 0, "guest RTO never fired: {r:?}");
    assert!(r.goodput_gbps > 0.0, "packet loss killed the run: {r:?}");
}

#[test]
fn pi_degradation_is_isolated_to_the_masked_vm() {
    // Multiplexed PI run; only VM 0 loses posted-interrupt hardware.
    let topo = Topology::multiplexed();
    let plan = FaultPlan {
        pi_unavailable_mask: 0b1,
        pi_fail_after: SimDuration::from_millis(100),
        ..FaultPlan::none()
    };
    let r = run_checked(
        EventPathConfig::pi(),
        topo,
        WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024).with_threads(4)),
        5,
        plan,
    );
    assert_eq!(
        r.fault_stats.pi_degradations, topo.vcpus_per_vm as u64,
        "every VM 0 vCPU should degrade exactly once: {:?}",
        r.fault_stats
    );
    let emulated: Vec<usize> = (0..r.modes.per_vm.len())
        .filter(|&vm| r.modes.vm(vm).emulated > 0)
        .collect();
    assert_eq!(
        emulated,
        vec![0],
        "emulated-path deliveries leaked beyond VM 0: {:?}",
        r.modes
    );
    let vm0 = r.modes.vm(0);
    assert!(
        vm0.emulated > 0,
        "VM 0 never used the emulated path: {vm0:?}"
    );
    assert!(
        vm0.posted > 0,
        "VM 0 should have posted before failing: {vm0:?}"
    );
    assert_eq!(vm0.degradations, topo.vcpus_per_vm as u64);
    for vm in 1..topo.num_vms as usize {
        let c = r.modes.vm(vm);
        assert_eq!(c.emulated, 0, "vm{vm} degraded without being masked: {c:?}");
        assert_eq!(c.degradations, 0);
        assert!(c.posted > 0, "vm{vm} saw no deliveries at all: {c:?}");
    }
    assert!(r.goodput_gbps > 0.0, "degradation killed the run: {r:?}");
}

#[test]
fn degradation_is_bounded_under_the_acceptance_plan() {
    // The faulted run must retain a usable fraction of clean goodput:
    // graceful degradation, not collapse.
    let cfg = EventPathConfig::pi_h(4);
    let clean = run_checked(cfg, Topology::micro(), tcp_send(), 9, FaultPlan::none());
    let faulted = run_checked(cfg, Topology::micro(), tcp_send(), 9, chaos_plan());
    assert!(clean.goodput_gbps > 0.0);
    assert!(
        faulted.goodput_gbps > 0.25 * clean.goodput_gbps,
        "degradation unbounded: clean {} Gb/s vs faulted {} Gb/s (faults: {:?})",
        clean.goodput_gbps,
        faulted.goodput_gbps,
        faulted.fault_stats
    );
}

/// The all-active 8-VM consolidation cell under the acceptance plan,
/// on short windows.
fn chaos_scale_spec(params: Params, seed: u64) -> RunSpec {
    let params = Params {
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(100),
        ..params
    };
    experiments::scale_active_spec(8, params, seed).with_faults(chaos_plan())
}

#[test]
fn tracing_does_not_perturb_chaos_results() {
    // Flight-recorder compatibility: a traced run must agree with the
    // untraced run on every simulation-determined field (the trace only
    // *observes*). Compare full Debug renderings with the spans report
    // stripped from the traced run.
    let plain = chaos_scale_spec(Params::default(), 17).run();
    let traced_params = Params {
        trace: true,
        trace_events: 4096,
        ..Params::default()
    };
    let mut traced = chaos_scale_spec(traced_params, 17).run();
    assert!(traced.spans.is_some(), "traced run produced no span report");
    traced.spans = None;
    assert!(plain.spans.is_none());
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "tracing perturbed the simulation"
    );
}

#[test]
fn telemetry_does_not_perturb_chaos_results() {
    // Same contract as the flight recorder: the telemetry hooks only
    // observe. A telemetry-enabled run must agree with the plain run on
    // every simulation-determined field once the report is stripped.
    let plain = chaos_scale_spec(Params::default(), 23).run();
    let telemetry_params = Params {
        telemetry: true,
        ..Params::default()
    };
    let mut instrumented = chaos_scale_spec(telemetry_params, 23).run();
    assert!(instrumented.telemetry.is_some());
    instrumented.telemetry = None;
    assert!(plain.telemetry.is_none());
    assert_eq!(
        format!("{plain:?}"),
        format!("{instrumented:?}"),
        "telemetry hooks perturbed the simulation"
    );
}
