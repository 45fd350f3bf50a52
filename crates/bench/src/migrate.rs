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
//! bytes must not depend on the thread count — `repro selfcheck`
//! compares the serial and N-thread outputs. The JSON (committed as
//! `BENCH_migrate.json` for full windows) carries the same cells.

use es2_core::EventPathConfig;
use es2_metrics::json::Json;
use es2_sim::{exec, FaultPlan, SimDuration, SimTime};
use es2_testbed::{Cluster, ClusterResult, ClusterSpec, Params, PlannedMove, WorkloadSpec};
use es2_workloads::NetperfSpec;

use crate::cli::Rendered;
use crate::columns::{self, Col, Val};
use crate::events_total;

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
fn consolidation_cell(packed: u32, params: Params, seed: u64) -> ClusterSpec {
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
    spec
}

/// Recovery cell: host 1 crashes halfway through the window and its
/// VMs cold-restart on the survivors.
fn crash_cell(params: Params, seed: u64) -> ClusterSpec {
    let mut spec = base_spec(params, seed);
    spec.plan = FaultPlan {
        host_crash_mask: 0b10,
        host_crash_at: SimDuration::from_nanos(
            params.warmup.as_nanos() + params.measure.as_nanos() / 2,
        ),
        ..FaultPlan::none()
    };
    spec
}

/// Recovery cell: VM 2's move to host 0 aborts mid-copy and rolls back.
fn abort_cell(params: Params, seed: u64) -> ClusterSpec {
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
    spec
}

fn vms_on_host0(r: &ClusterResult) -> usize {
    r.final_host.iter().flatten().filter(|&&h| h == 0).count()
}

fn host0_rx_p99_us(r: &ClusterResult) -> u64 {
    r.per_host[0]
        .result
        .rx_p99_us_per_vm
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
}

/// One packing level of the consolidation sweep and its run.
pub(crate) struct Level {
    /// VMs the level packs onto host 0.
    target: u32,
    result: ClusterResult,
}

type Column = Col<Level>;

/// The consolidation row fields, once for stdout and JSON.
#[rustfmt::skip]
pub(crate) const COLUMNS: &[Column] = &[
    Column::json("target_vms_on_host0", |c| c.target.into()),
    Column::both("final_vms_on_host0", "VMs@host0", |c| vms_on_host0(&c.result).into()),
    Column::both("host0_density", "density", |c| {
        (c.target as f64 / CAP_VMS_PER_HOST as f64).into()
    }).dec(2),
    Column::json("packing_density", |c| c.result.packing_density().into()),
    Column::both("migrations", "migs", |c| c.result.ledger.out.into()),
    Column::json("msi_retargets", |c| c.result.ledger.retargets.into()),
    Column::both("blackout_p50_us", "blackout p50 us", |c| {
        c.result.blackout_percentile_us(0.5).into()
    }).dec(1),
    Column::both("blackout_p99_us", "blackout p99 us", |c| {
        c.result.blackout_percentile_us(0.99).into()
    }).dec(1),
    Column::both("host0_rx_p99_us", "host0 rx p99 us", |c| host0_rx_p99_us(&c.result).into()),
    Column::both("worst_rx_p99_us", "worst rx p99 us", |c| c.result.worst_rx_p99_us().into()),
    Column::both("events", "events", |c| events_total(&c.result).into()),
    Column::both("liveness", "liveness", |c| Val::Verdict(c.result.liveness.ok())),
];

/// Run the consolidation sweep and the recovery cells.
pub fn migrate_report(params: Params, seed: u64, fast: bool) -> Rendered {
    // The packing levels and the two recovery cells are independent
    // cells of one sweep, which returns them in this order whatever the
    // thread count.
    let levels: &[u32] = if fast { &[2, 8] } else { &[2, 4, 6, 8] };
    let mut specs: Vec<ClusterSpec> = levels
        .iter()
        .map(|&l| consolidation_cell(l, params, seed))
        .collect();
    specs.push(crash_cell(params, seed));
    specs.push(abort_cell(params, seed));
    let mut runs = exec::sweep(&specs, |s| Cluster::new(s.clone()).run());
    let abort = runs.pop().expect("abort cell");
    let crash = runs.pop().expect("crash cell");
    let cells: Vec<Level> = levels
        .iter()
        .zip(runs)
        .map(|(&target, result)| Level { target, result })
        .collect();

    let mut report = columns::table(
        format!(
            "Consolidation sweep — {FLEET} TCP-send VMs over {HOSTS} hosts (cap \
             {CAP_VMS_PER_HOST}/host), live-migrating onto host 0 mid-run (seed {seed})"
        ),
        COLUMNS,
        &cells,
    );

    // --- Recovery cells: host crash + evacuation, and an aborted move. ---
    let (crash_ok, abort_ok) = (crash.liveness.ok(), abort.liveness.ok());
    report.push_str(&format!(
        "host crash: host 1 dies mid-run -> {} cold restarts, survivors' worst rx p99 {} us, \
         liveness {}\n",
        crash.ledger.restarts,
        crash.worst_rx_p99_us(),
        columns::verdict(crash_ok),
    ));
    report.push_str(&format!(
        "aborted migration: {} aborts, VM 2 back on host {} (blackout {:.1} us), liveness {}\n",
        abort.ledger.aborts,
        abort.final_host[2].map_or(-1, |h| h as i64),
        abort.blackout_percentile_us(0.5),
        columns::verdict(abort_ok),
    ));

    let recovery = Json::object()
        .with(
            "host_crash",
            Json::object()
                .with("restarts", crash.ledger.restarts)
                .with("worst_rx_p99_us", crash.worst_rx_p99_us())
                .with("liveness", Val::Verdict(crash_ok).json()),
        )
        .with(
            "aborted_migration",
            Json::object()
                .with("aborts", abort.ledger.aborts)
                .with("vm_back_on_source", abort.final_host[2] == Some(1))
                .with("blackout_us", abort.blackout_percentile_us(0.5))
                .with("liveness", Val::Verdict(abort_ok).json()),
        );
    let mut failed: Vec<String> = cells
        .iter()
        .filter(|c| !c.result.liveness.ok())
        .map(|c| format!("{} VMs on host 0", c.target))
        .collect();
    for (cell, ok) in [("host crash", crash_ok), ("aborted migration", abort_ok)] {
        if !ok {
            failed.push(cell.into());
        }
    }
    let json = Json::object()
        .with("hosts", HOSTS)
        .with("cap_vms_per_host", CAP_VMS_PER_HOST)
        .with("fleet", FLEET)
        .with("consolidation", columns::json(COLUMNS, &cells))
        .with("recovery", recovery);
    (report, json, None, failed)
}
