//! Conservation laws and accounting invariants of the full machine.
//!
//! These hold for *every* configuration and workload — they check that the
//! simulation's bookkeeping is self-consistent, independent of whether the
//! numbers match the paper.

use es2_core::EventPathConfig;
use es2_hypervisor::ExitReason;
use es2_sim::SimDuration;
use es2_testbed::{experiments, Params, Topology, WorkloadSpec};
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
