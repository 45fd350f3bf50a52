//! Consolidation / live-migration benchmark (`repro --migrate`).
//!
//! A cell of four hosts admits a fleet of TCP-send VMs spread evenly by
//! the best-fit scheduler, then live-migrates more and more of them onto
//! host 0 mid-run — the classic consolidation sweep. Each packing level
//! reports the cell's packing density, the migration blackout p50/p99,
//! and the consolidated host's worst per-VM receive p99 (the event-path
//! latency price of packing). A recovery section then exercises the
//! host-fault family: a host crash with cold-restart evacuation, and a
//! migration aborted mid-copy with rollback.
//!
//! Everything in the stdout report is simulation-determined, so its
//! bytes must not depend on `ES2_THREADS` — `verify.sh` diffs the
//! serial and default-thread outputs. The JSON (committed as
//! `BENCH_migrate.json` for full windows) carries the same cells.

use es2_core::EventPathConfig;
use es2_metrics::json::Json;
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::{Cluster, ClusterResult, ClusterSpec, Params, PlannedMove, WorkloadSpec};
use es2_workloads::NetperfSpec;

const HOSTS: u32 = 4;
const CAP_VMS_PER_HOST: u32 = 2;
const FLEET: u32 = 8;

fn cfg() -> EventPathConfig {
    EventPathConfig::pi_h_r(es2_core::HybridParams::TCP_QUOTA)
}

fn fleet() -> Vec<WorkloadSpec> {
    (0..FLEET)
        .map(|_| WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)))
        .collect()
}

/// First consolidation move fires a quarter into the measurement window.
fn first_move_at(params: &Params) -> SimTime {
    SimTime::ZERO
        + SimDuration::from_nanos(params.warmup.as_nanos() + params.measure.as_nanos() / 4)
}

fn base_spec(params: Params, seed: u64) -> ClusterSpec {
    ClusterSpec::new(cfg(), 1, fleet(), HOSTS, CAP_VMS_PER_HOST, params, seed)
}

/// One packing level of the sweep: every VM beyond the first
/// `CAP_VMS_PER_HOST` that should end on host 0 is live-migrated there,
/// staggered 2 ms apart so the blackouts do not overlap.
fn consolidation_cell(packed: u32, params: Params, seed: u64) -> ClusterResult {
    let mut spec = base_spec(params, seed);
    let t0 = first_move_at(&params);
    spec.moves = (CAP_VMS_PER_HOST..packed)
        .enumerate()
        .map(|(i, vm)| PlannedMove {
            vm,
            to: 0,
            at: t0 + SimDuration::from_millis(2 * i as u64),
        })
        .collect();
    Cluster::new(spec).run()
}

fn vms_on_host(r: &ClusterResult, host: u32) -> u32 {
    r.final_host.iter().flatten().filter(|&&h| h == host).count() as u32
}

fn host_rx_p99_us(r: &ClusterResult, host: u32) -> u64 {
    r.per_host[host as usize]
        .result
        .rx_p99_us_per_vm
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
}

fn events_total(r: &ClusterResult) -> u64 {
    r.per_host.iter().map(|h| h.result.events_simulated).sum()
}

/// Run the consolidation sweep + recovery cells and return
/// `(deterministic_report, json)`.
pub fn migrate_report(params: Params, seed: u64, fast: bool) -> (String, Json) {
    use es2_metrics::Table;

    let levels: &[u32] = if fast { &[2, 8] } else { &[2, 4, 6, 8] };
    let cells: Vec<(u32, ClusterResult)> = levels
        .iter()
        .map(|&l| (l, consolidation_cell(l, params, seed)))
        .collect();

    let mut t = Table::new(
        format!(
            "Consolidation sweep — {FLEET} TCP-send VMs over {HOSTS} hosts (cap \
             {CAP_VMS_PER_HOST}/host), live-migrating onto host 0 mid-run (seed {seed})"
        ),
        &[
            "VMs@host0",
            "density",
            "migs",
            "blackout p50 us",
            "blackout p99 us",
            "host0 rx p99 us",
            "worst rx p99 us",
            "events",
            "liveness",
        ],
    );
    for (l, r) in &cells {
        t.row(&[
            format!("{}", vms_on_host(r, 0)),
            format!("{:.2}", *l as f64 / CAP_VMS_PER_HOST as f64),
            r.ledger.out.to_string(),
            format!("{:.1}", r.blackout_percentile_us(0.5)),
            format!("{:.1}", r.blackout_percentile_us(0.99)),
            host_rx_p99_us(r, 0).to_string(),
            r.worst_rx_p99_us().to_string(),
            events_total(r).to_string(),
            if r.liveness.ok() { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    let mut report = t.render();
    report.push('\n');

    // --- Recovery cells: host crash + evacuation, and an aborted move. ---
    let mid = SimDuration::from_nanos(params.warmup.as_nanos() + params.measure.as_nanos() / 2);
    let crash = {
        let mut spec = base_spec(params, seed);
        spec.plan = FaultPlan {
            host_crash_mask: 0b10,
            host_crash_at: mid,
            ..FaultPlan::none()
        };
        Cluster::new(spec).run()
    };
    let abort = {
        let mut spec = base_spec(params, seed);
        spec.plan = FaultPlan {
            migration_abort_nth: 1,
            ..FaultPlan::none()
        };
        spec.moves = vec![PlannedMove {
            vm: 2,
            to: 0,
            at: first_move_at(&params),
        }];
        Cluster::new(spec).run()
    };
    report.push_str(&format!(
        "host crash: host 1 dies mid-run -> {} cold restarts, survivors' worst rx p99 {} us, \
         liveness {}\n",
        crash.ledger.restarts,
        crash.worst_rx_p99_us(),
        if crash.liveness.ok() { "PASS" } else { "FAIL" },
    ));
    report.push_str(&format!(
        "aborted migration: {} aborts, VM 2 back on host {} (blackout {:.1} us), liveness {}\n",
        abort.ledger.aborts,
        abort.final_host[2].map_or(-1, |h| h as i64),
        abort.blackout_percentile_us(0.5),
        if abort.liveness.ok() { "PASS" } else { "FAIL" },
    ));

    let consolidation: Json = cells
        .iter()
        .map(|(l, r)| {
            Json::object()
                .with("target_vms_on_host0", *l)
                .with("final_vms_on_host0", vms_on_host(r, 0))
                .with("host0_density", *l as f64 / CAP_VMS_PER_HOST as f64)
                .with("packing_density", r.packing_density())
                .with("migrations", r.ledger.out)
                .with("msi_retargets", r.ledger.retargets)
                .with("blackout_p50_us", r.blackout_percentile_us(0.5))
                .with("blackout_p99_us", r.blackout_percentile_us(0.99))
                .with("host0_rx_p99_us", host_rx_p99_us(r, 0))
                .with("worst_rx_p99_us", r.worst_rx_p99_us())
                .with("events", events_total(r))
                .with("liveness", if r.liveness.ok() { "pass" } else { "fail" })
        })
        .collect();
    let recovery = Json::object()
        .with(
            "host_crash",
            Json::object()
                .with("restarts", crash.ledger.restarts)
                .with("worst_rx_p99_us", crash.worst_rx_p99_us())
                .with(
                    "liveness",
                    if crash.liveness.ok() { "pass" } else { "fail" },
                ),
        )
        .with(
            "aborted_migration",
            Json::object()
                .with("aborts", abort.ledger.aborts)
                .with("vm_back_on_source", abort.final_host[2] == Some(1))
                .with("blackout_us", abort.blackout_percentile_us(0.5))
                .with(
                    "liveness",
                    if abort.liveness.ok() { "pass" } else { "fail" },
                ),
        );
    let json = Json::object()
        .with("harness", "repro --migrate")
        .with("fast", fast)
        .with("seed", seed)
        .with("hosts", HOSTS)
        .with("cap_vms_per_host", CAP_VMS_PER_HOST)
        .with("fleet", FLEET)
        .with("consolidation", consolidation)
        .with("recovery", recovery);
    (report, json)
}
