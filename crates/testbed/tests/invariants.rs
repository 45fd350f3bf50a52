//! Conservation laws and accounting invariants of the full machine.
//!
//! These hold for *every* configuration and workload — they check that the
//! simulation's bookkeeping is self-consistent, independent of whether the
//! numbers match the paper.

use std::sync::OnceLock;

use es2_core::EventPathConfig;
use es2_hypervisor::ExitReason;
use es2_metrics::telemetry::WINDOW_NS;
use es2_sim::exec::sweep;
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::{
    experiments, BackpressureParams, Cluster, ClusterSpec, Machine, Params, PlannedMove, RunResult,
    Topology, WorkloadSpec,
};
use es2_workloads::{NetperfDirection, NetperfProto, NetperfSpec};

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

/// A cell of `all_cases()` with its run.
type Run = ((EventPathConfig, Topology, WorkloadSpec), RunResult);

/// Every `all_cases()` cell run once, at seed 5 with `fast()`, through
/// the sweep executor: the per-run checks below all read these runs.
fn all_runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let cases = all_cases();
        let runs = sweep(&cases, |&(cfg, topo, spec)| {
            experiments::run_one(cfg, topo, spec, fast(), 5)
        });
        cases.into_iter().zip(runs).collect()
    })
}

/// A sending netperf stream: tcp_send or udp_send.
fn sends(spec: &WorkloadSpec) -> bool {
    matches!(
        spec,
        WorkloadSpec::Netperf(NetperfSpec {
            direction: NetperfDirection::Send,
            ..
        })
    )
}

#[test]
fn tig_is_a_percentage_everywhere() {
    for ((cfg, _, spec), r) in all_runs() {
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
    for ((cfg, _, spec), r) in all_runs() {
        if !cfg.use_pi {
            continue;
        }
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
    let sending = all_runs().iter().filter(|((_, _, spec), _)| sends(spec));
    assert_eq!(sending.clone().count(), 8, "four configs × tcp/udp send");
    for ((cfg, _, spec), r) in sending {
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

#[test]
fn baseline_never_posts_interrupts() {
    let (_, r) = all_runs()
        .iter()
        .find(|((cfg, _, spec), _)| {
            *cfg == EventPathConfig::baseline()
                && matches!(
                    spec,
                    WorkloadSpec::Netperf(NetperfSpec {
                        proto: NetperfProto::Tcp,
                        direction: NetperfDirection::Send,
                        ..
                    })
                )
        })
        .expect("baseline tcp send is a cell");
    // Emulated path: every delivered interrupt pays delivery/EOI machinery,
    // so the interrupt exits must be present whenever interrupts flowed.
    if r.rx_interrupts_total > 50 {
        assert!(r.exits.total(ExitReason::ApicAccess) > 0, "{r:?}");
    }
}

#[test]
fn no_redirection_without_the_redirect_feature() {
    let without = [
        EventPathConfig::baseline(),
        EventPathConfig::pi(),
        EventPathConfig::pi_h(4),
    ];
    let memcached = all_runs().iter().filter(|((cfg, _, spec), _)| {
        without.contains(cfg) && matches!(spec, WorkloadSpec::Memcached)
    });
    assert_eq!(memcached.clone().count(), 3);
    for ((cfg, _, _), r) in memcached {
        assert_eq!(r.redirections, 0, "{}", cfg.label());
        assert_eq!(r.offline_predictions, 0, "{}", cfg.label());
        assert_eq!(r.migrated_irqs, 0, "{}", cfg.label());
    }
}

/// The SR-IOV (assigned VF) tcp_send pair, Baseline then PI, run once
/// at seed 5 with `fast()` for the two tests below.
fn sriov_runs() -> &'static [(EventPathConfig, RunResult)] {
    static RUNS: OnceLock<Vec<(EventPathConfig, RunResult)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let p = Params {
            device: es2_testbed::params::DeviceKind::AssignedVf,
            ..fast()
        };
        let spec = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
        let cfgs = [EventPathConfig::baseline(), EventPathConfig::pi()];
        let runs = sweep(&cfgs, |&cfg| {
            experiments::run_one(cfg, Topology::micro(), spec, p, 5)
        });
        cfgs.into_iter().zip(runs).collect()
    })
}

#[test]
fn sriov_data_path_never_kicks() {
    for (cfg, r) in sriov_runs() {
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
    let [(_, legacy), (_, vtd)] = sriov_runs() else {
        unreachable!("two SR-IOV runs")
    };
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
    // `RunSpec::run` panics on any liveness violation.
    experiments::scale_active_spec(8, params, 7).run();
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
                let Some(vm) = w.vm(0) else { continue };
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

/// The series closes at the run's model end, not at whichever event
/// popped first past it. The cell is `repro --telemetry --fast`'s chaos
/// Baseline cell, whose run dispatches events that record at the end
/// instant itself: its series still has one window per millisecond of
/// the run, and the tested vCPU's guest time summed over the windows
/// from the warm-up on equals the ledger's in-window guest time. Run
/// again with the end inside a window, the last partial window holds
/// guest time only up to the end.
#[test]
fn the_series_closes_at_the_model_end() {
    for measure_us in [200_000, 200_500] {
        let params = Params {
            warmup: SimDuration::from_millis(50),
            measure: SimDuration::from_micros(measure_us),
            telemetry: true,
            num_cores: 10,
            ..Params::default()
        };
        let topo = Topology {
            num_vms: 8,
            vcpus_per_vm: 1,
        };
        let mut specs = vec![WorkloadSpec::Idle; 8];
        specs[0] = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
        specs[1] = WorkloadSpec::Netperf(NetperfSpec::tcp_receive(1024));
        let cfg = EventPathConfig::baseline();
        let plan = experiments::chaos_plan();
        let r = Machine::with_specs_faulted(cfg, topo, specs, params, 20170814, plan).run();
        let series = r.telemetry.as_ref().expect("telemetry on");
        let end_ns = (params.warmup + params.measure).as_nanos();
        let windows = end_ns.div_ceil(WINDOW_NS);
        assert_eq!(series.windows.len() as u64, windows, "end {end_ns} ns");
        assert_eq!(series.windows.last().map(|w| w.idx), Some(windows - 1));
        let lo = params.warmup.as_nanos() / WINDOW_NS;
        let series_guest_ns: u64 = series
            .windows
            .iter()
            .filter(|w| w.idx >= lo)
            .filter_map(|w| w.vm(0))
            .map(|v| v.guest_ns)
            .sum();
        // One vCPU.
        let ledger_guest_ns = r.tig_percent / 100.0 * params.measure.as_nanos() as f64;
        assert!(
            (ledger_guest_ns - series_guest_ns as f64).abs() < 1.0,
            "end {end_ns} ns: guest ns {ledger_guest_ns} vs {series_guest_ns}"
        );
    }
}

/// A crashed host's series closes at its crash instant, not at the last
/// event it ran. Host 1 holds two idle VMs whose single vCPUs time-share
/// core 0 under posted interrupts: one of them is in guest mode at every
/// instant, so the last window holds exactly the time from its start to
/// the crash, and no window follows it.
#[test]
fn a_crashed_hosts_series_closes_at_its_crash_instant() {
    let params = Params {
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(100),
        telemetry: true,
        ..Params::default()
    };
    let tcp = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let fleet = vec![tcp, tcp, WorkloadSpec::Idle, WorkloadSpec::Idle];
    let mut spec = ClusterSpec::new(EventPathConfig::pi(), 1, fleet, 3, 2, params, 5);
    let crash = SimDuration::from_micros(60_300);
    spec.plan = FaultPlan {
        host_crash_mask: 0b10,
        host_crash_at: crash,
        ..FaultPlan::none()
    };
    let cluster = Cluster::new(spec);
    assert_eq!(cluster.placement()[2..], [Some(1), Some(1)]);
    let r = cluster.run();
    let host = &r.per_host[1];
    assert_eq!(host.crashed, Some(SimTime::ZERO + crash));
    let series = host.result.telemetry.as_ref().expect("telemetry on");
    let last = series.windows.last().expect("host 1 recorded");
    let crash_ns = crash.as_nanos();
    assert_eq!(last.idx, crash_ns / WINDOW_NS);
    let guest_ns: u64 = last.vms.iter().map(|v| v.guest_ns).sum();
    assert_eq!(guest_ns, crash_ns - last.idx * WINDOW_NS);
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
    let ledger = [
        bp.throttled_kicks,
        bp.budget_deferrals,
        bp.quarantines,
        bp.resets,
    ];
    let summed = [
        vms().map(|v| v.throttled_kicks).sum::<u64>(),
        vms().map(|v| v.budget_deferrals).sum(),
        vms().map(|v| v.quarantines).sum(),
        vms().map(|v| v.resets).sum(),
    ];
    assert_eq!(ledger, summed, "throttled, deferred, quarantined, reset");
    assert!(
        ledger.iter().all(|&n| n > 0),
        "a containment sink saw nothing: {ledger:?}"
    );
    let annotations = |kind: &str| {
        let of_vm0 = series.annotations.iter().filter(|a| a.vm == 0);
        of_vm0.filter(|a| a.kind == kind).count() as u64
    };
    let watchdog = [r.watchdog_rekicks, r.watchdog_reraises];
    assert_eq!(
        watchdog,
        [annotations("wd-rekick"), annotations("wd-reraise")]
    );
    assert!(
        watchdog.iter().all(|&n| n > 0),
        "the watchdog never acted: {watchdog:?}"
    );
}
