//! Tenant-churn control-plane tests: lifecycle faults (stuck boots,
//! placement failures, crash-during-admit), the depart/migration race,
//! retry-exhaustion determinism, leak-proof reclamation under the full
//! fault diet, and the churn-off byte-identity gate.

use es2_core::EventPathConfig;
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::{ChurnSpec, Cluster, ClusterSpec, Params, PlannedMove, WorkloadSpec};
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

fn churn_spec(arrivals: u32) -> ChurnSpec {
    ChurnSpec {
        arrivals,
        ..ChurnSpec::default()
    }
}

/// A churn cell used by most tests: 2 hosts, a small static fleet, and
/// an arrival stream.
fn churn_cluster(arrivals: u32, seed: u64, plan: FaultPlan) -> ClusterSpec {
    let fleet = vec![tcp(), WorkloadSpec::Ping];
    let mut spec = ClusterSpec::new(cfg(), 1, fleet, 2, 4, tiny_params(), seed);
    spec.plan = plan;
    spec.churn = Some(churn_spec(arrivals));
    spec
}

/// Enabling the churn machinery with zero arrivals must not perturb the
/// run at all: same slot table, same RNG draws, same digest — the
/// churn-off ≡ legacy byte-identity gate, testable without a golden.
#[test]
fn zero_arrival_churn_is_byte_identical_to_disabled() {
    let mut with = churn_cluster(0, 11, FaultPlan::none());
    with.moves = vec![PlannedMove {
        vm: 0,
        to: 1,
        at: at_ms(40),
    }];
    let mut without = with.clone();
    without.churn = None;

    let d_with = Cluster::new(with).run().digest();
    let d_without = Cluster::new(without).run().digest();
    // The enabled run appends churn ledger lines; everything before
    // them must match the disabled run byte for byte.
    let stripped: String = d_with
        .lines()
        .filter(|l| !l.starts_with("churn"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(stripped, d_without, "zero-arrival churn perturbed the run");
    assert!(d_with.lines().any(|l| l.starts_with("churn arrivals=0")));
}

/// Clean churn: arrivals admit, boot, run, and (those whose lifetime
/// ends in-window) depart — with zero orphaned resources afterwards.
#[test]
fn arrivals_boot_run_and_depart_cleanly() {
    let r = Cluster::new(churn_cluster(6, 3, FaultPlan::none())).run();
    assert!(
        r.liveness.ok(),
        "{:?}\n{}",
        r.liveness.violations,
        r.liveness.diagnostics
    );
    let c = r.churn.as_ref().expect("churn ledger missing");
    assert!(c.arrivals > 0, "no arrivals landed in the window");
    assert_eq!(
        c.place_fail_faults + c.boot_stall_faults,
        0,
        "clean plan drew faults"
    );
    assert!(c.admitted > 0, "nothing admitted: {c:?}");
    assert_eq!(
        r.ledger.boots as u32, c.admitted,
        "boot calls != admissions"
    );
    assert_eq!(
        r.ledger.departs as u32, c.departures,
        "depart calls != departures"
    );
    assert_eq!(r.orphans(), 0);
    // Residents at end of run appear in final_host; departed slots
    // don't (clean plan: nothing is lost to crashes).
    let fleet_n = 2;
    let resident = r.final_host[fleet_n..].iter().flatten().count() as u32;
    assert_eq!(
        resident,
        c.admitted - c.departures,
        "slot residency mismatch"
    );
}

/// A deterministically-stalled boot times out, rolls the partial boot
/// back (reclaiming the slot), and the retry queue re-admits the
/// arrival — the boot-timeout rollback path end to end.
#[test]
fn stuck_boot_times_out_rolls_back_and_retries() {
    let plan = FaultPlan {
        churn_boot_stall_nth: 1,
        ..FaultPlan::none()
    };
    let r = Cluster::new(churn_cluster(4, 5, plan)).run();
    assert!(
        r.liveness.ok(),
        "{:?}\n{}",
        r.liveness.violations,
        r.liveness.diagnostics
    );
    let c = r.churn.as_ref().unwrap();
    assert_eq!(
        c.boot_stall_faults, 1,
        "the pinned stall did not fire: {c:?}"
    );
    assert_eq!(
        r.ledger.boot_timeouts, 1,
        "stall did not roll back via timeout"
    );
    assert!(
        c.retried >= 1 && c.retries >= 1,
        "stalled arrival never retried: {c:?}"
    );
    assert!(
        c.retry_successes >= 1,
        "retry after the rollback never admitted: {c:?}"
    );
    assert_eq!(
        r.orphans(),
        0,
        "rollback leaked: {:?}",
        r.liveness.violations
    );
}

/// With every placement attempt failing, each arrival marches through
/// its full backoff schedule into the permanently-rejected ledger —
/// deterministically, twice over.
#[test]
fn retry_exhaustion_is_deterministic_and_complete() {
    let plan = FaultPlan {
        churn_place_fail_p: 1.0,
        ..FaultPlan::none()
    };
    let run = || Cluster::new(churn_cluster(5, 17, plan)).run();
    let a = run();
    let b = run();
    assert_eq!(a.digest(), b.digest(), "retry exhaustion not deterministic");
    let c = a.churn.as_ref().unwrap();
    assert_eq!(c.admitted, 0, "admission under place_fail_p=1.0: {c:?}");
    assert_eq!(
        c.rejected_final + c.abandoned,
        c.arrivals,
        "every in-window arrival must exhaust or run out of window: {c:?}"
    );
    assert!(c.rejected_final > 0, "nobody exhausted retries: {c:?}");
    assert_eq!(c.retry_success_ratio(), 0.0);
    assert!(a.liveness.ok(), "{:?}", a.liveness.violations);
    assert_eq!(a.orphans(), 0);
}

/// A host crash while an arrival is mid-boot on it: the half-booted
/// tenant is re-placed through the evacuation path onto a survivor and
/// completes its boot there.
#[test]
fn crash_during_admit_replaces_via_evacuation() {
    // Fleet of 3 packs host 0 (best-fit), so the first arrival lands on
    // host 0 too (least free that fits). Crash host 0 at 5.5 ms — right
    // inside arrival 0's boot window (arrival 5 ms + boot delay 1 ms).
    let fleet = vec![tcp(), WorkloadSpec::Ping, tcp()];
    let mut spec = ClusterSpec::new(cfg(), 1, fleet, 2, 4, tiny_params(), 9);
    spec.plan = FaultPlan {
        host_crash_mask: 0b01,
        host_crash_at: SimDuration::from_micros(5_500),
        ..FaultPlan::none()
    };
    spec.churn = Some(churn_spec(3));
    let r = Cluster::new(spec).run();
    assert!(
        r.liveness.ok(),
        "{:?}\n{}",
        r.liveness.violations,
        r.liveness.diagnostics
    );
    let c = r.churn.as_ref().unwrap();
    assert!(
        c.replaced_on_crash >= 1,
        "mid-boot arrival was not re-placed off the crashing host: {c:?}"
    );
    assert!(c.admitted >= 1, "re-placed boot never completed: {c:?}");
    // Everything that stayed resident must be on the surviving host.
    for (g, h) in r.final_host.iter().enumerate() {
        if let Some(h) = h {
            assert_eq!(*h, 1, "slot {g} resident on the crashed host");
        }
    }
    assert_eq!(r.orphans(), 0);
}

/// A departure racing an in-flight migration of the same tenant defers
/// until the copy settles, then tears down on the holding host — no
/// leak, no panic, counted as a destroy race.
///
/// The race is aimed deterministically: the first arrival's boot time
/// is fixed (the control plane's constants land it at 5 ms and boot it
/// 1 ms later, no draw), and its lifetime draw is replayed here on a
/// fresh injector (the churn streams are dedicated, so the first
/// lifetime draw is the first value on that stream) — the move is then
/// planned 2 µs before the known depart instant, squarely inside the
/// migration's blackout window.
#[test]
fn depart_racing_migration_defers_and_reclaims() {
    let churn = ChurnSpec {
        arrivals: 1,
        mean_lifetime: SimDuration::from_millis(20),
    };
    let mut hit = false;
    for seed in 0..8u64 {
        let lifetime = es2_sim::FaultInjector::new(FaultPlan::none(), seed)
            .churn_lifetime(churn.mean_lifetime);
        let boot_at = at_ms(6);
        let depart_at = boot_at + lifetime;
        if depart_at >= at_ms(100) {
            continue; // heavy tail outlived the run; try the next seed
        }
        let fleet = vec![WorkloadSpec::Ping];
        let mut spec = ClusterSpec::new(cfg(), 1, fleet, 2, 6, tiny_params(), seed);
        spec.churn = Some(churn);
        spec.moves = vec![PlannedMove {
            vm: 1,
            to: 1,
            at: depart_at - SimDuration::from_micros(2),
        }];
        let r = Cluster::new(spec).run();
        assert!(
            r.liveness.ok(),
            "seed {seed}: {:?}\n{}",
            r.liveness.violations,
            r.liveness.diagnostics
        );
        assert_eq!(r.orphans(), 0, "seed {seed} leaked");
        let c = r.churn.as_ref().unwrap();
        assert_eq!(c.moves_skipped, 0, "seed {seed}: aimed move was skipped");
        assert_eq!(r.ledger.out, 1, "seed {seed}: migration never started");
        assert_eq!(
            c.destroy_races, 1,
            "seed {seed}: depart did not race the in-flight copy: {c:?}"
        );
        assert_eq!(
            c.departures, 1,
            "seed {seed}: deferred depart never landed: {c:?}"
        );
        // The tenant migrated, then departed on the target: gone.
        assert_eq!(r.final_host[1], None, "seed {seed}: tenant still resident");
        hit = true;
        break;
    }
    assert!(
        hit,
        "every scanned seed drew a lifetime beyond the run window"
    );
}

/// The full fault diet — placement failures, stuck boots, a host crash,
/// migration aborts, destroy races — stays liveness-clean with zero
/// orphaned resources, and its digest is a pure function of the spec.
#[test]
fn full_fault_diet_churn_cell_is_leak_free_and_deterministic() {
    let fleet = vec![tcp(), WorkloadSpec::Ping, tcp(), WorkloadSpec::Ping];
    let build = || {
        let mut spec = ClusterSpec::new(cfg(), 1, fleet.clone(), 4, 3, tiny_params(), 21);
        spec.plan = FaultPlan {
            churn_place_fail_p: 0.25,
            churn_boot_stall_p: 0.25,
            host_crash_mask: 0b1000,
            host_crash_at: SimDuration::from_millis(60),
            migration_abort_nth: 1,
            ..FaultPlan::none()
        };
        spec.moves = vec![PlannedMove {
            vm: 0,
            to: 1,
            at: at_ms(40),
        }];
        spec.churn = Some(ChurnSpec {
            arrivals: 8,
            mean_lifetime: SimDuration::from_millis(15),
        });
        Cluster::new(spec)
    };
    let r = build().run();
    assert!(
        r.liveness.ok(),
        "{:?}\n{}",
        r.liveness.violations,
        r.liveness.diagnostics
    );
    assert_eq!(r.orphans(), 0);
    let c = r.churn.as_ref().unwrap();
    assert!(c.admitted > 0, "fault diet admitted nothing: {c:?}");
    assert_eq!(r.digest(), build().run().digest());
}
