//! Conservation laws and accounting invariants of the full machine.
//!
//! These hold for *every* configuration and workload — they check that the
//! simulation's bookkeeping is self-consistent, independent of whether the
//! numbers match the paper.

use es2_core::EventPathConfig;
use es2_hypervisor::ExitReason;
use es2_metrics::telemetry::WINDOW_NS;
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::{
    experiments, BackpressureParams, Cluster, ClusterSpec, Machine, Params, PlannedMove,
    RunResult, Topology, WorkloadSpec,
};
use es2_workloads::NetperfSpec;

fn fast() -> Params {
    let mut p = Params::fast_test();
    p.warmup = SimDuration::from_millis(100);
    p.measure = SimDuration::from_millis(400);
    p
}

fn all_cases() -> Vec<(EventPathConfig, Topology, WorkloadSpec)> {
    let mut v = Vec::new();
    for cfg in EventPathConfig::all_four(4) {
        v.push((
            cfg,
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
        ));
        v.push((
            cfg,
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::udp_send(256)),
        ));
        v.push((
            cfg,
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_receive(1024)),
        ));
        v.push((cfg, Topology::multiplexed(), WorkloadSpec::Memcached));
    }
    v
}

#[test]
fn tig_is_a_percentage_everywhere() {
    for (cfg, topo, spec) in all_cases() {
        let r = experiments::run_one(cfg, topo, spec, fast(), 5);
        assert!(
            (0.0..=100.0 + 1e-9).contains(&r.tig_percent),
            "{} {:?}: TIG {}",
            cfg.label(),
            spec,
            r.tig_percent
        );
        // `run_one` carries the inert fault plan: hooks compiled in,
        // nothing injected.
        assert_eq!(r.fault_stats.total(), 0, "{} {:?}", cfg.label(), spec);
    }
}

#[test]
fn pi_configurations_never_take_interrupt_exits() {
    for (cfg, topo, spec) in all_cases() {
        if !cfg.use_pi {
            continue;
        }
        let r = experiments::run_one(cfg, topo, spec, fast(), 5);
        assert_eq!(
            r.exits.total(ExitReason::ExternalInterrupt),
            0,
            "{} {:?}",
            cfg.label(),
            spec
        );
        assert_eq!(
            r.exits.total(ExitReason::ApicAccess),
            0,
            "{} {:?}",
            cfg.label(),
            spec
        );
    }
}

#[test]
fn every_kick_decision_becomes_exactly_one_io_exit() {
    // For the sending micro workloads no kick bypasses the exit path
    // (the delayed-ACK flush shortcut only exists on the receive side),
    // so the virtqueue's kick ledger and the vCPU's exit ledger must
    // agree exactly.
    for cfg in EventPathConfig::all_four(4) {
        for spec in [
            WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
            WorkloadSpec::Netperf(NetperfSpec::udp_send(256)),
        ] {
            let r = experiments::run_one(cfg, Topology::micro(), spec, fast(), 5);
            let io_exits = r.exits.total(ExitReason::IoInstruction);
            // A kick decided in the run's final microseconds may not have
            // reached its exit before the simulation stops: allow the
            // boundary straggler.
            assert!(
                r.kicks_total.abs_diff(io_exits) <= 2,
                "{} {:?}: exits {} vs kicks {}",
                cfg.label(),
                spec,
                io_exits,
                r.kicks_total
            );
        }
    }
}

#[test]
fn baseline_never_posts_interrupts() {
    let r = experiments::run_one(
        EventPathConfig::baseline(),
        Topology::micro(),
        WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
        fast(),
        5,
    );
    // Emulated path: every delivered interrupt pays delivery/EOI machinery,
    // so the interrupt exits must be present whenever interrupts flowed.
    if r.rx_interrupts_total > 50 {
        assert!(r.exits.total(ExitReason::ApicAccess) > 0, "{r:?}");
    }
}

#[test]
fn no_redirection_without_the_redirect_feature() {
    for cfg in [
        EventPathConfig::baseline(),
        EventPathConfig::pi(),
        EventPathConfig::pi_h(4),
    ] {
        let r = experiments::run_one(
            cfg,
            Topology::multiplexed(),
            WorkloadSpec::Memcached,
            fast(),
            5,
        );
        assert_eq!(r.redirections, 0, "{}", cfg.label());
        assert_eq!(r.offline_predictions, 0, "{}", cfg.label());
        assert_eq!(r.migrated_irqs, 0, "{}", cfg.label());
    }
}

#[test]
fn sriov_data_path_never_kicks() {
    let mut p = fast();
    p.device = es2_testbed::params::DeviceKind::AssignedVf;
    for cfg in [EventPathConfig::baseline(), EventPathConfig::pi()] {
        let r = experiments::run_one(
            cfg,
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
            p,
            5,
        );
        assert_eq!(
            r.exits.total(ExitReason::IoInstruction),
            0,
            "{}: SR-IOV bypasses the kick",
            cfg.label()
        );
        assert!(r.goodput_gbps > 0.1, "{}: traffic still flows", cfg.label());
    }
}

#[test]
fn sriov_legacy_pays_interrupt_exits_but_vtd_pi_does_not() {
    let mut p = fast();
    p.device = es2_testbed::params::DeviceKind::AssignedVf;
    let spec = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let legacy = experiments::run_one(EventPathConfig::baseline(), Topology::micro(), spec, p, 5);
    let vtd = experiments::run_one(EventPathConfig::pi(), Topology::micro(), spec, p, 5);
    assert!(
        legacy.exits.total(ExitReason::ApicAccess) > 0,
        "legacy assignment still injects through the hypervisor"
    );
    assert_eq!(vtd.total_exit_rate(), 0.0, "VT-d PI is fully exit-less");
    assert!(vtd.tig_percent > 99.0);
}

#[test]
fn measurement_window_excludes_warmup() {
    // Doubling the warm-up must not change windowed *rates* materially
    // (steady state), even though lifetime totals grow.
    let spec = WorkloadSpec::Netperf(NetperfSpec::udp_send(256));
    let mut a = fast();
    a.warmup = SimDuration::from_millis(100);
    let mut b = fast();
    b.warmup = SimDuration::from_millis(300);
    let ra = experiments::run_one(EventPathConfig::baseline(), Topology::micro(), spec, a, 5);
    let rb = experiments::run_one(EventPathConfig::baseline(), Topology::micro(), spec, b, 5);
    let rel = (ra.total_exit_rate() - rb.total_exit_rate()).abs() / ra.total_exit_rate();
    assert!(
        rel < 0.25,
        "steady-state rates: {} vs {}",
        ra.total_exit_rate(),
        rb.total_exit_rate()
    );
}

#[test]
fn all_active_scale_cell_stays_live() {
    // Every tenant serving httperf at once: conservation and forward
    // progress must hold with event work spread across all VMs.
    let params = Params {
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(100),
        ..Params::default()
    };
    let (_, live) = experiments::scale_active_spec(8, params, 7).run_checked();
    assert!(live.ok(), "liveness violations: {:?}", live.violations);
}

/// The per-VM ledger and the telemetry series record the same calls, so
/// for the tested VM (slot 0) the ledger's windowed exits per reason,
/// in-window guest time and rx-latency mean and maximum equal the series
/// summed over the windows inside `[warmup, warmup + measure)`. Warm-up
/// samples in the ledger's rx figures break the equality. In the
/// migration cell slot 0 moves from host 0 to host 1 mid-window: the
/// series splits it across the two hosts, and the ledger travels whole.
#[test]
fn ledger_matches_the_series_inside_the_window() {
    let params = Params {
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(100),
        telemetry: true,
        ..Params::default()
    };
    let tcp = || WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let single = |cfg: EventPathConfig, topo: Topology, spec: WorkloadSpec| -> Vec<RunResult> {
        vec![Machine::new(cfg, topo, spec, params, 3).run()]
    };
    let migrate = || -> Vec<RunResult> {
        let cfg = EventPathConfig::pi_h_r(es2_core::HybridParams::TCP_QUOTA);
        let mut spec = ClusterSpec::new(cfg, 2, vec![tcp(), tcp(), tcp()], 2, 2, params, 11);
        spec.moves = vec![PlannedMove {
            vm: 0,
            to: 1,
            at: SimTime::ZERO + SimDuration::from_millis(60),
        }];
        let r = Cluster::new(spec).run();
        assert_eq!(r.final_host[0], Some(1), "slot 0 did not move");
        r.per_host.into_iter().map(|h| h.result).collect()
    };
    let cells: [(&str, Vec<RunResult>); 3] = [
        (
            "baseline tcp send",
            single(EventPathConfig::baseline(), Topology::micro(), tcp()),
        ),
        (
            "es2 memcached, multiplexed",
            single(
                EventPathConfig::pi_h_r(es2_core::HybridParams::TCP_QUOTA),
                Topology::multiplexed(),
                WorkloadSpec::Memcached,
            ),
        ),
        ("migration", migrate()),
    ];

    let lo = params.warmup.as_nanos() / WINDOW_NS;
    let hi = (params.warmup + params.measure).as_nanos() / WINDOW_NS;
    let window_ns = params.measure.as_nanos() as f64;
    for (name, hosts) in cells {
        let mut ledger_exits = [0u64; ExitReason::COUNT];
        let mut ledger_guest_ns = 0.0;
        let mut ledger_rx = Vec::new();
        let mut series_exits = [0u64; ExitReason::COUNT];
        let (mut series_guest_ns, mut count, mut sum_ns, mut max_ns) = (0u64, 0u64, 0u64, 0u64);
        for r in &hosts {
            for (k, n) in r.exits.windowed.iter().enumerate() {
                ledger_exits[k] += n;
            }
            // One device-IRQ counter per vCPU of the tested VM.
            let vcpus = r.device_irqs_per_vcpu.len() as f64;
            ledger_guest_ns += r.tig_percent / 100.0 * vcpus * window_ns;
            if r.max_rx_latency_us > 0.0 {
                ledger_rx.push((r.mean_rx_latency_us, r.max_rx_latency_us));
            }
            let series = r.telemetry.as_ref().expect("telemetry on");
            for w in series.windows.iter().filter(|w| (lo..hi).contains(&w.idx)) {
                let vm = &w.vms[0];
                for (k, n) in vm.exits.iter().enumerate() {
                    series_exits[k] += n;
                }
                series_guest_ns += vm.guest_ns;
                count += vm.rx_lat_count;
                sum_ns += vm.rx_lat_sum_ns;
                max_ns = max_ns.max(vm.rx_lat_max_ns);
            }
        }
        assert_eq!(ledger_exits, series_exits, "{name}: windowed exits");
        assert!(series_exits.iter().sum::<u64>() > 0, "{name}: no exits");
        assert!(
            (ledger_guest_ns - series_guest_ns as f64).abs() < 1.0,
            "{name}: guest ns {ledger_guest_ns} vs {series_guest_ns}"
        );
        assert!(count > 0, "{name}: no rx samples in the window");
        let series_rx = (sum_ns as f64 / count as f64 / 1e3, max_ns as f64 / 1e3);
        assert_eq!(ledger_rx, vec![series_rx], "{name}: rx (mean, max) µs");
    }
}

/// Each containment and watchdog event is recorded by one probe that
/// feeds both the ledger and the series: on a backpressured hostile
/// cell with lost kicks and MSIs, the ledger's lifetime counts equal the
/// series summed over every window, and every watchdog action of the
/// tested VM is one annotation.
#[test]
fn containment_and_watchdog_counts_match_the_series() {
    let params = Params {
        backpressure: Some(BackpressureParams {
            kick_rate: 20_000.0,
            kick_burst: 8,
            service_budget: 64,
            ..BackpressureParams::default()
        }),
        telemetry: true,
        ..fast()
    };
    let plan = FaultPlan {
        kick_drop_p: 0.02,
        msi_drop_p: 0.02,
        ..experiments::hostile_plan(1)
    };
    let tcp = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let mut specs = vec![WorkloadSpec::Idle; 4];
    specs[0] = tcp;
    specs[1] = tcp;
    let cfg = EventPathConfig::pi_h(4);
    let r = Machine::with_specs_faulted(cfg, Topology::multiplexed(), specs, params, 5, plan).run();
    let series = r.telemetry.as_ref().expect("telemetry on");
    assert_eq!(series.ann_dropped, 0);
    let vms = || series.windows.iter().flat_map(|w| &w.vms);
    let bp = r.backpressure;
    let ledger = [bp.throttled_kicks, bp.budget_deferrals, bp.quarantines, bp.resets];
    let summed = [
        vms().map(|v| v.throttled_kicks).sum::<u64>(),
        vms().map(|v| v.budget_deferrals).sum(),
        vms().map(|v| v.quarantines).sum(),
        vms().map(|v| v.resets).sum(),
    ];
    assert_eq!(ledger, summed, "throttled, deferred, quarantined, reset");
    assert!(ledger.iter().all(|&n| n > 0), "a containment sink saw nothing: {ledger:?}");
    let annotations = |kind: &str| {
        let of_vm0 = series.annotations.iter().filter(|a| a.vm == 0);
        of_vm0.filter(|a| a.kind == kind).count() as u64
    };
    let watchdog = [r.watchdog_rekicks, r.watchdog_reraises];
    assert_eq!(watchdog, [annotations("wd-rekick"), annotations("wd-reraise")]);
    assert!(watchdog.iter().all(|&n| n > 0), "the watchdog never acted: {watchdog:?}");
}
