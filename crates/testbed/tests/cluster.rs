//! Multi-host cell tests: placement, live migration (state carried,
//! redirection resuming on the target), host-fault injection, and the
//! traced-vs-untraced byte-identity gate.

use es2_core::EventPathConfig;
use es2_metrics::{SpanNotes, Stage};
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::experiments::hostile_plan;
use es2_testbed::{
    ChurnSpec, Cluster, ClusterSpec, Machine, Params, PlannedMove, Topology, WorkloadSpec,
};
use es2_workloads::NetperfSpec;

fn tiny_params() -> Params {
    Params {
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(100),
        ..Params::default()
    }
}

fn cfg() -> EventPathConfig {
    EventPathConfig::pi_h_r(es2_core::HybridParams::TCP_QUOTA)
}

fn tcp() -> WorkloadSpec {
    WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024))
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// A 1-host cell with no moves and no faults is the standalone machine,
/// byte for byte — enrolling a machine into a cluster must not
/// perturb a run that never migrates (the no-neighbor-regression gate).
#[test]
fn one_host_cell_matches_standalone_run() {
    let params = tiny_params();
    let fleet = vec![tcp(), WorkloadSpec::Ping];
    let spec = ClusterSpec::new(cfg(), 1, fleet, 1, 4, params, 42);
    let cell = Cluster::new(spec).run();
    assert!(cell.liveness.ok(), "{}", cell.liveness.diagnostics);

    let topo = Topology {
        num_vms: 2,
        vcpus_per_vm: 1,
    };
    let specs = vec![tcp(), WorkloadSpec::Ping];
    let standalone =
        Machine::with_specs_faulted(cfg(), topo, specs, params, 42, FaultPlan::none()).run();
    assert_eq!(
        format!("{:?}", cell.per_host[0].result),
        format!("{standalone:?}"),
        "cluster enrollment changed a never-migrating run"
    );
}

/// Best-fit admission packs tightly, rejects overflow, and the run
/// completes with full liveness over the partial fleet.
#[test]
fn admission_rejects_overflow_and_runs_clean() {
    let fleet = vec![tcp(), WorkloadSpec::Ping, tcp()];
    let spec = ClusterSpec::new(cfg(), 1, fleet, 2, 1, tiny_params(), 7);
    let c = Cluster::new(spec);
    assert_eq!(c.placement(), &[Some(0), Some(1), None]);
    let r = c.run();
    assert_eq!((r.admitted, r.rejected), (2, 1));
    assert!((r.packing_density() - 1.0).abs() < 1e-9);
    assert_eq!(r.final_host, vec![Some(0), Some(1), None]);
    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
}

/// Scheduling a move for a VM that admission rejected is a plan bug and
/// must fail loudly at construction, not corrupt the run.
#[test]
#[should_panic(expected = "rejected")]
fn moving_a_rejected_vm_panics_at_construction() {
    let fleet = vec![tcp(), tcp(), tcp()];
    let mut spec = ClusterSpec::new(cfg(), 1, fleet, 2, 1, tiny_params(), 7);
    spec.moves = vec![PlannedMove {
        vm: 2,
        to: 0,
        at: at_ms(50),
    }];
    let _ = Cluster::new(spec);
}

/// The tentpole's core claim: a live migration carries the VM's rings,
/// scheduler state, and interrupt machinery to the target, where the
/// workload keeps running and ES2 redirection resumes against the
/// *target's* online/offline lists. In-flight MSIs that chased the VM
/// are re-raised over the reliable path (the retarget ledger).
#[test]
fn migration_preserves_state_and_redirection_resumes_on_target() {
    let mut spec = ClusterSpec::new(cfg(), 2, vec![tcp(), tcp(), tcp()], 2, 2, tiny_params(), 11);
    // VMs 0 and 1 pack onto host 0; VM 2 keeps host 1 busy so the moved
    // VM faces real scheduling contention (and thus redirection) there.
    spec.moves = vec![PlannedMove {
        vm: 0,
        to: 1,
        at: at_ms(60),
    }];
    // MSI delay keeps device interrupts in flight at the pause instant,
    // exercising the stale-MSI retarget path deterministically.
    spec.plan = FaultPlan {
        msi_delay_p: 0.5,
        msi_delay: SimDuration::from_micros(150),
        ..FaultPlan::none()
    };
    let c = Cluster::new(spec);
    assert_eq!(c.placement(), &[Some(0), Some(0), Some(1)]);
    let r = c.run();

    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
    assert_eq!((r.ledger.out, r.ledger.resumed, r.ledger.aborts), (1, 1, 0));
    assert_eq!(r.final_host, vec![Some(1), Some(0), Some(1)]);
    assert_eq!(r.ledger.blackout_ns.len(), 1);
    let blackout = r.ledger.blackout_ns[0];
    assert!(
        blackout >= 150_000,
        "blackout shorter than its cost floor: {blackout}ns"
    );

    // The moved VM made real progress on the target: measured RX latency
    // samples exist there, and the redirection engine worked from the
    // target's own scheduler feed.
    let target = &r.per_host[1].result;
    assert!(
        target.rx_p99_us_per_vm[0] > 0,
        "no measured RX traffic on the target after the move"
    );
    assert!(
        target.redirections + target.offline_predictions > 0,
        "ES2 redirection never engaged on the target"
    );
    assert!(
        r.ledger.retargets > 0,
        "no stale MSI was retargeted across the move"
    );
}

/// An aborted migration (copy fails mid-flight) rolls the VM back onto
/// the source with everything intact — the abort is invisible except
/// for the blackout it cost.
#[test]
fn aborted_migration_rolls_back_to_source() {
    let mut spec = ClusterSpec::new(
        cfg(),
        1,
        vec![tcp(), WorkloadSpec::Ping],
        2,
        2,
        tiny_params(),
        5,
    );
    spec.moves = vec![PlannedMove {
        vm: 0,
        to: 1,
        at: at_ms(50),
    }];
    spec.plan = FaultPlan {
        migration_abort_nth: 1,
        ..FaultPlan::none()
    };
    let r = Cluster::new(spec).run();
    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
    assert_eq!((r.ledger.out, r.ledger.aborts, r.ledger.resumed), (0, 1, 1));
    assert_eq!(
        r.final_host[0],
        Some(0),
        "abort must leave the VM on the source"
    );
    // The rollback still cost a blackout window.
    assert_eq!(r.ledger.blackout_ns.len(), 1);
}

/// Two moves of one VM out of host 0, the first aborted and the second
/// completed: host 0 runs both starts, and each applies its own abort
/// decision, in schedule order. Swapping the decisions would ship the VM
/// at the first start and roll a dormant slot back at the second.
#[test]
fn abort_then_complete_moves_apply_in_schedule_order() {
    let mut spec = ClusterSpec::new(
        cfg(),
        1,
        vec![tcp(), WorkloadSpec::Ping],
        2,
        2,
        tiny_params(),
        5,
    );
    spec.moves = vec![
        PlannedMove {
            vm: 0,
            to: 1,
            at: at_ms(40),
        },
        PlannedMove {
            vm: 0,
            to: 1,
            at: at_ms(80),
        },
    ];
    spec.plan = FaultPlan {
        migration_abort_nth: 1,
        ..FaultPlan::none()
    };
    let r = Cluster::new(spec).run();
    assert!(
        r.liveness.ok(),
        "{:?}\n{}",
        r.liveness.violations,
        r.liveness.diagnostics
    );
    assert_eq!((r.ledger.out, r.ledger.aborts, r.ledger.resumed), (1, 1, 2));
    assert_eq!(r.final_host[0], Some(1));
    assert_eq!(r.ledger.blackout_ns.len(), 2);
    assert!(r.ledger.ctl_errors.is_empty(), "{:?}", r.ledger.ctl_errors);
}

/// A VM can chain migrations A→B→C once each move is spaced past the
/// worst-case blackout; every hop re-runs the full pause/copy/resume
/// machinery against fresh host state.
#[test]
fn double_migration_chains_across_three_hosts() {
    let mut spec = ClusterSpec::new(
        cfg(),
        1,
        vec![tcp(), WorkloadSpec::Ping],
        3,
        2,
        tiny_params(),
        13,
    );
    spec.moves = vec![
        PlannedMove {
            vm: 0,
            to: 1,
            at: at_ms(40),
        },
        PlannedMove {
            vm: 0,
            to: 2,
            at: at_ms(80),
        },
    ];
    let r = Cluster::new(spec).run();
    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
    assert_eq!((r.ledger.out, r.ledger.resumed), (2, 2));
    assert_eq!(r.final_host[0], Some(2));
    assert_eq!(r.ledger.blackout_ns.len(), 2);
    // The last hop's host measured real traffic for the twice-moved VM.
    assert!(r.per_host[2].result.rx_p99_us_per_vm[0] > 0);
}

/// Migrating a VM whose TX queue sits in quarantine (hostile-guest ring
/// corruption, reset pending) carries the quarantine ledger and the
/// pending reset across: the DEVICE_NEEDS_RESET analog fires on the
/// *target*, which then resumes service.
#[test]
fn migrate_while_quarantined_carries_reset_to_target() {
    let mut params = tiny_params();
    // Stretch the reset delay so the quarantine (first kicks, µs scale)
    // is still pending when the move lands at 5 ms.
    params.quarantine_reset_delay = SimDuration::from_millis(20);
    let mut spec = ClusterSpec::new(cfg(), 1, vec![WorkloadSpec::Ping, tcp()], 2, 2, params, 3);
    spec.plan = FaultPlan {
        ring_corrupt_at_kick: 5,
        ..hostile_plan(1)
    };
    spec.moves = vec![PlannedMove {
        vm: 1,
        to: 1,
        at: at_ms(5),
    }];
    let r = Cluster::new(spec).run();
    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
    assert_eq!(r.final_host[1], Some(1));
    assert_eq!(r.ledger.resumed, 1);
    // The quarantine ledger travels with the VM: the corruption happened
    // on the source, but the carried counters — and the re-armed reset —
    // surface on the target.
    let src = &r.per_host[0].result;
    let dst = &r.per_host[1].result;
    assert_eq!(
        src.quarantines_total, 0,
        "quarantine ledger left behind on the source"
    );
    assert!(dst.quarantines_total >= 1, "corruption never quarantined");
    assert!(
        dst.queue_resets_total >= 1,
        "the pending reset did not fire on the target"
    );
}

/// Migrating a vCPU whose posted-interrupt hardware already degraded
/// (PI unavailable mid-run) keeps the emulated delivery path working on
/// the target — mode accounting travels with the VM.
#[test]
fn migrate_pi_degraded_vm_keeps_emulated_path() {
    let mut spec = ClusterSpec::new(cfg(), 2, vec![tcp(), tcp()], 2, 2, tiny_params(), 17);
    spec.plan = FaultPlan {
        pi_unavailable_mask: 0b1,
        pi_fail_after: SimDuration::from_millis(30),
        ..FaultPlan::none()
    };
    spec.moves = vec![PlannedMove {
        vm: 0,
        to: 1,
        at: at_ms(60),
    }];
    let r = Cluster::new(spec).run();
    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
    assert_eq!(r.final_host[0], Some(1));
    let t = r.per_host[1].result.modes.totals();
    assert!(
        t.emulated > 0,
        "PI-degraded VM stopped delivering after the move (no emulated injections on target)"
    );
    assert!(t.degradations > 0, "degradation ledger did not travel");
}

/// A host crash evacuates every resident VM to the least-loaded
/// surviving host via cold restart; the cell ends with all victims
/// relocated and alive.
#[test]
fn host_crash_evacuates_victims_to_survivor() {
    let mut spec = ClusterSpec::new(
        cfg(),
        1,
        vec![tcp(), WorkloadSpec::Ping],
        2,
        2,
        tiny_params(),
        23,
    );
    spec.plan = FaultPlan {
        host_crash_mask: 0b1,
        host_crash_at: SimDuration::from_millis(40),
        ..FaultPlan::none()
    };
    let c = Cluster::new(spec);
    assert_eq!(c.placement(), &[Some(0), Some(0)]);
    let r = c.run();
    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
    assert!(r.per_host[0].crashed.is_some());
    assert!(r.per_host[1].crashed.is_none());
    assert_eq!(r.ledger.restarts, 2);
    assert_eq!(r.final_host, vec![Some(1), Some(1)]);
    // The survivor measured real post-evacuation traffic.
    assert!(r.per_host[1].result.rx_p99_us_per_vm[0] > 0);
}

/// The source host crashing *during* the copy phase does not lose the
/// migrating VM: the snapshot left at pause time, so the VM resumes on
/// the target while the source's other resident is cold-restarted.
#[test]
fn source_crash_during_copy_vm_survives_on_target() {
    let mut spec = ClusterSpec::new(
        cfg(),
        1,
        vec![tcp(), WorkloadSpec::Ping],
        2,
        2,
        tiny_params(),
        29,
    );
    spec.moves = vec![PlannedMove {
        vm: 0,
        to: 1,
        at: at_ms(50),
    }];
    // Crash 50 µs after the pause — inside the copy window (blackout
    // floor is pause+copy+resume ≈ 150 µs).
    spec.plan = FaultPlan {
        host_crash_mask: 0b1,
        host_crash_at: SimDuration::from_micros(50_050),
        ..FaultPlan::none()
    };
    let r = Cluster::new(spec).run();
    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
    assert_eq!(r.ledger.out, 1);
    assert_eq!(r.ledger.resumed, 1, "snapshot died with the source");
    assert_eq!(r.final_host[0], Some(1), "migrating VM lost to the crash");
    assert_eq!(r.ledger.restarts, 1, "co-resident VM not evacuated");
    assert_eq!(r.final_host[1], Some(1));
}

/// A live migration in flight resumes on its target and leaves the
/// cell liveness-clean across seeds and host counts, and the digest is
/// a pure function of the spec.
#[test]
fn migration_cell_resumes_across_seeds_and_host_counts() {
    for seed in [1u64, 2] {
        for hosts in [2u32, 3] {
            let mk = || {
                let mut spec = ClusterSpec::new(
                    cfg(),
                    1,
                    vec![tcp(), WorkloadSpec::Ping, tcp()],
                    hosts,
                    3,
                    tiny_params(),
                    seed,
                );
                spec.moves = vec![PlannedMove {
                    vm: 0,
                    to: hosts - 1,
                    at: at_ms(55),
                }];
                Cluster::new(spec)
            };
            let r = mk().run();
            assert_eq!(r.ledger.resumed, 1, "seed={seed} hosts={hosts}");
            assert_eq!(
                r.final_host[0],
                Some(hosts - 1),
                "seed={seed} hosts={hosts}"
            );
            assert!(
                r.liveness.ok(),
                "seed={seed} hosts={hosts}: {:?}",
                r.liveness.violations
            );
            assert_eq!(r.digest(), mk().run().digest(), "seed={seed} hosts={hosts}");
        }
    }
}

/// The full host-fault family on one cell: a crash (with evacuation)
/// plus an aborted migration both land, deterministically.
#[test]
fn host_crash_and_migration_abort_land_in_one_cell() {
    let mk = || {
        let mut spec = ClusterSpec::new(
            cfg(),
            1,
            vec![tcp(), WorkloadSpec::Ping, tcp(), WorkloadSpec::Ping],
            3,
            2,
            tiny_params(),
            31,
        );
        spec.plan = FaultPlan {
            host_crash_mask: 0b10,
            host_crash_at: SimDuration::from_millis(70),
            migration_abort_nth: 2,
            ..FaultPlan::none()
        };
        spec.moves = vec![
            PlannedMove {
                vm: 0,
                to: 2,
                at: at_ms(40),
            },
            PlannedMove {
                vm: 1,
                to: 2,
                at: at_ms(45),
            },
        ];
        Cluster::new(spec)
    };
    let r = mk().run();
    assert!(r.per_host[1].crashed.is_some());
    assert_eq!(r.ledger.aborts, 1);
    assert_eq!(r.digest(), mk().run().digest());
}

/// The migration span family is observational only: a traced cell run
/// (flight recorder on) produces the identical digest to an untraced
/// one.
#[test]
fn traced_cell_run_is_byte_identical_to_untraced() {
    let mk = |trace: bool| {
        let mut params = tiny_params();
        params.trace = trace;
        params.trace_events = 256;
        let mut spec =
            ClusterSpec::new(cfg(), 1, vec![tcp(), WorkloadSpec::Ping], 2, 2, params, 19);
        spec.moves = vec![PlannedMove {
            vm: 0,
            to: 1,
            at: at_ms(60),
        }];
        Cluster::new(spec)
    };
    let untraced = mk(false).run().digest();
    let traced = mk(true).run().digest();
    assert_eq!(untraced, traced, "tracing perturbed the simulation");
}

/// What the flight recorder sees across every multi-host lifecycle
/// event in one traced cell: a live move, an aborted move, a host crash
/// with evacuation, churn boots and departures, and a hostile VM's ring
/// quarantines. Spans a pause or a
/// slot rebuild strands stay open and count as unclosed; the pinned
/// notes and per-stage sample counts hold each host's recorder to its
/// exact lifecycle accounting.
#[test]
fn traced_lifecycle_cell_pins_each_hosts_span_record() {
    let mut params = tiny_params();
    params.trace = true;
    params.trace_events = 64;
    let mut spec = ClusterSpec::new(
        cfg(),
        2,
        vec![tcp(), WorkloadSpec::Ping, tcp()],
        3,
        3,
        params,
        33,
    );
    spec.plan = FaultPlan {
        host_crash_mask: 0b1,
        host_crash_at: SimDuration::from_millis(70),
        migration_abort_nth: 2,
        ..hostile_plan(0)
    };
    spec.moves = vec![
        PlannedMove {
            vm: 0,
            to: 2,
            at: at_ms(40),
        },
        PlannedMove {
            vm: 2,
            to: 1,
            at: at_ms(45),
        },
    ];
    spec.churn = Some(ChurnSpec {
        arrivals: 4,
        mean_lifetime: SimDuration::from_millis(30),
    });
    let r = Cluster::new(spec).run();
    assert!(r.liveness.ok(), "{}", r.liveness.diagnostics);
    // Every lifecycle event the test names happened.
    let l = &r.ledger;
    assert_eq!((l.out, l.resumed, l.aborts, l.restarts), (1, 2, 1, 2));
    assert_eq!((l.boots, l.departs), (4, 4));
    assert!(r.per_host[0].crashed.is_some());
    assert_eq!(r.per_host[2].result.backpressure.quarantines, 4);

    let want = [
        (
            SpanNotes {
                irqs_opened: 1151,
                irqs_closed: 1150,
                redirected: 95,
                parked: 1,
                migrated: 1,
                coalesced_irqs: 13,
                watchdog_reraises: 14,
                degradations: 0,
                reqs_opened: 1405,
                reqs_closed: 1405,
                coalesced_kicks: 32,
                delayed_kicks: 0,
                watchdog_rekicks: 2,
                unclosed_irqs: 1,
                unclosed_reqs: 0,
            },
            [278, 282, 585, 1897, 729, 729, 729, 730, 730],
        ),
        (
            SpanNotes {
                irqs_opened: 695,
                irqs_closed: 694,
                redirected: 359,
                parked: 3,
                migrated: 0,
                coalesced_irqs: 52,
                watchdog_reraises: 53,
                degradations: 0,
                reqs_opened: 749,
                reqs_closed: 749,
                coalesced_kicks: 0,
                delayed_kicks: 0,
                watchdog_rekicks: 1,
                unclosed_irqs: 1,
                unclosed_reqs: 0,
            },
            [84, 85, 662, 1996, 692, 692, 692, 692, 692],
        ),
        (
            SpanNotes {
                irqs_opened: 1118,
                irqs_closed: 1118,
                redirected: 0,
                parked: 0,
                migrated: 0,
                coalesced_irqs: 2,
                watchdog_reraises: 2,
                degradations: 0,
                reqs_opened: 1257,
                reqs_closed: 1257,
                coalesced_kicks: 47,
                delayed_kicks: 0,
                watchdog_rekicks: 2,
                unclosed_irqs: 0,
                unclosed_reqs: 0,
            },
            [448, 575, 681, 2378, 1117, 1117, 1117, 1117, 1117],
        ),
    ];
    assert_eq!(r.per_host.len(), want.len());
    for (h, (notes, counts)) in r.per_host.iter().zip(want) {
        let s = h.result.spans.as_ref().unwrap();
        assert_eq!(s.notes, notes, "host {} notes", h.host);
        // Samples per stage, in `Stage::ALL` order, summed over VMs.
        let got = Stage::ALL.map(|st| {
            (0..s.vms.len())
                .map(|vm| s.stage(vm, st).count())
                .sum::<u64>()
        });
        assert_eq!(got, counts, "host {} stage counts", h.host);
    }
}
