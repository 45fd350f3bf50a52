//! Tenant-churn benchmark (`repro --churn`).
//!
//! A cell of four hosts carries a small static fleet while a
//! heavy-tailed arrival stream admits, boots, runs and departs churn
//! tenants mid-run — under the full control-plane fault diet
//! (probabilistic placement failures, stuck boots rolled back by
//! timeout, a host crash mid-window, and an aborted live migration).
//! Each event-path config (Baseline / PI / full ES2) reports the
//! sustained admission rate, the rejection and retry-success ratios,
//! the boot-wait p99, and the post-churn receive p99 next to a static
//! fleet run of the same shape — the event-path latency price of
//! tenant churn. The conservation invariant (zero orphaned slots,
//! cores, workers or vectors after the full fault diet) is reported
//! per cell and gated fatally by `ci/bench_gate.rs`.
//!
//! Everything in the stdout report is simulation-determined, so its
//! bytes must not depend on the thread count — `repro selfcheck`
//! compares the serial and N-thread outputs. The JSON (committed as
//! `BENCH_churn.json` for full windows) carries the same cells.

use es2_core::EventPathConfig;
use es2_metrics::json::Json;
use es2_sim::{exec, FaultPlan, SimDuration, SimTime};
use es2_testbed::{
    ChurnLedger, ChurnSpec, Cluster, ClusterResult, ClusterSpec, Params, PlannedMove, WorkloadSpec,
};
use es2_workloads::NetperfSpec;

use crate::cli::Rendered;
use crate::columns::{self, Col, Val};
use crate::events_total;

const HOSTS: u32 = 4;
const CAP_VMS_PER_HOST: u32 = 3;
const FLEET: u32 = 6;

/// The three configs the paper headlines, in presentation order.
fn configs() -> [(&'static str, EventPathConfig); 3] {
    [
        ("Baseline", EventPathConfig::baseline()),
        ("PI", EventPathConfig::pi()),
        (
            "ES2",
            EventPathConfig::pi_h_r(es2_core::HybridParams::TCP_QUOTA),
        ),
    ]
}

/// Static fleet: alternating TCP senders and pingers, spread by the
/// best-fit scheduler across the cell.
fn fleet() -> Vec<WorkloadSpec> {
    (0..FLEET)
        .map(|i| {
            if i % 2 == 0 {
                WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024))
            } else {
                WorkloadSpec::Ping
            }
        })
        .collect()
}

fn churn_spec(fast: bool) -> ChurnSpec {
    ChurnSpec {
        arrivals: if fast { 12 } else { 48 },
        mean_lifetime: if fast {
            SimDuration::from_millis(20)
        } else {
            SimDuration::from_millis(40)
        },
    }
}

/// The full control-plane fault diet: placement failures and stuck
/// boots on the dedicated churn streams, a host crash halfway through
/// the measurement window, and the first live migration aborted
/// mid-copy.
fn diet(params: &Params) -> FaultPlan {
    FaultPlan {
        churn_place_fail_p: 0.10,
        churn_boot_stall_p: 0.10,
        host_crash_mask: 0b1000,
        host_crash_at: SimDuration::from_nanos(
            params.warmup.as_nanos() + params.measure.as_nanos() / 2,
        ),
        migration_abort_nth: 1,
        ..FaultPlan::none()
    }
}

/// One churn cell: the static fleet plus the arrival stream under the
/// full fault diet, with one fleet migration planned a quarter into
/// the window (which the diet aborts mid-copy).
fn churn_cell(cfg: EventPathConfig, params: Params, seed: u64, fast: bool) -> ClusterSpec {
    let mut spec = ClusterSpec::new(cfg, 1, fleet(), HOSTS, CAP_VMS_PER_HOST, params, seed);
    spec.plan = diet(&params);
    spec.moves = vec![PlannedMove {
        vm: 0,
        to: 1,
        at: SimTime::ZERO
            + SimDuration::from_nanos(params.warmup.as_nanos() + params.measure.as_nanos() / 4),
    }];
    spec.churn = Some(churn_spec(fast));
    spec
}

/// The static comparison cell: same fleet, same cell, no churn, no
/// faults — the "what the fleet's tail looks like without tenant
/// churn" reference for the post-churn rx p99 column.
fn static_cell(cfg: EventPathConfig, params: Params, seed: u64) -> ClusterSpec {
    ClusterSpec::new(cfg, 1, fleet(), HOSTS, CAP_VMS_PER_HOST, params, seed)
}

/// One config's churn cell and its static comparison cell.
pub(crate) struct ChurnCell {
    config: &'static str,
    churn: ClusterResult,
    fixed: ClusterResult,
    /// Warm-up plus measurement window, in seconds.
    run_secs: f64,
}

impl ChurnCell {
    fn ledger(&self) -> &ChurnLedger {
        self.churn
            .churn
            .as_ref()
            .expect("churn cell lost its ledger")
    }

    fn liveness_ok(&self) -> bool {
        self.churn.liveness.ok() && self.fixed.liveness.ok()
    }
}

type Column = Col<ChurnCell>;

/// The cell fields, once for stdout and JSON. `orphans` is listed
/// twice: the JSON puts it before the two rx p99 keys, stdout after.
#[rustfmt::skip]
pub(crate) const COLUMNS: &[Column] = &[
    Column::both("config", "config", |c| c.config.into()),
    Column::json("arrivals", |c| c.ledger().arrivals.into()),
    Column::both("admitted", "admitted", |c| c.ledger().admitted.into()),
    Column::both("admits_per_sec", "admits/s", |c| {
        (c.ledger().admitted as f64 / c.run_secs).into()
    }).dec(1),
    Column::both("rejection_ratio", "reject", |c| c.ledger().rejection_ratio().into()).dec(3),
    Column::json("rejected_final", |c| c.ledger().rejected_final.into()),
    Column::json("abandoned", |c| c.ledger().abandoned.into()),
    Column::json("retried", |c| c.ledger().retried.into()),
    Column::json("retry_successes", |c| c.ledger().retry_successes.into()),
    Column::both("retry_success_ratio", "retry ok", |c| c.ledger().retry_success_ratio().into())
        .dec(3),
    Column::json("boot_p50_us", |c| c.ledger().boot_wait_percentile_us(0.5).into()),
    Column::both("boot_p99_us", "boot p99 us", |c| c.ledger().boot_wait_percentile_us(0.99).into())
        .dec(1),
    Column::json("place_fail_faults", |c| c.ledger().place_fail_faults.into()),
    Column::json("boot_stall_faults", |c| c.ledger().boot_stall_faults.into()),
    Column::json("boot_timeouts", |c| c.churn.ledger.boot_timeouts.into()),
    Column::json("brownout_deferrals", |c| c.ledger().brownout_deferrals.into()),
    Column::both("destroy_races", "races", |c| c.ledger().destroy_races.into()),
    Column::both("replaced_on_crash", "replaced", |c| c.ledger().replaced_on_crash.into()),
    Column::json("departures", |c| c.ledger().departures.into()),
    Column::both("reclaimed_slots", "reclaimed", |c| {
        c.churn.per_host.iter().map(|h| h.result.reclaimed_slots).sum::<u32>().into()
    }),
    Column::json("ctl_errors", |c| c.churn.ledger.ctl_errors.len().into()),
    Column::json("orphans", |c| c.churn.orphans().into()),
    Column::both("churn_rx_p99_us", "rx p99 us", |c| c.churn.worst_rx_p99_us().into()),
    Column::both("static_rx_p99_us", "static rx p99", |c| c.fixed.worst_rx_p99_us().into()),
    Column::stdout("orphans", |c| c.churn.orphans().into()),
    Column::json("events", |c| events_total(&c.churn).into()),
    Column::both("liveness", "liveness", |c| Val::Verdict(c.liveness_ok())),
];

/// Run the churn sweep over Baseline / PI / ES2.
pub fn churn_report(params: Params, seed: u64, fast: bool) -> Rendered {
    let run_secs = (params.warmup + params.measure).as_secs_f64();
    // Each config's churn and static cells are independent cells of
    // one sweep, which returns them in this order whatever the thread
    // count.
    let specs: Vec<ClusterSpec> = configs()
        .into_iter()
        .flat_map(|(_, cfg)| {
            [
                churn_cell(cfg, params, seed, fast),
                static_cell(cfg, params, seed),
            ]
        })
        .collect();
    let mut runs = exec::sweep(&specs, |s| Cluster::new(s.clone()).run()).into_iter();
    let cells: Vec<ChurnCell> = configs()
        .into_iter()
        .map(|(config, _)| ChurnCell {
            config,
            churn: runs.next().expect("churn cell"),
            fixed: runs.next().expect("static cell"),
            run_secs,
        })
        .collect();

    let arrivals = churn_spec(fast).arrivals;
    let mut report = columns::table(
        format!(
            "Tenant churn — {FLEET} static VMs + {arrivals} heavy-tailed arrivals over {HOSTS} \
             hosts (cap {CAP_VMS_PER_HOST}/host), full control-plane fault diet (seed {seed})"
        ),
        COLUMNS,
        &cells,
    );

    // One control-plane line per config: the lifecycle call counts the
    // hosts actually executed (boots, departs, timeout rollbacks) and
    // the typed control errors (must stay zero).
    for cell in &cells {
        let (c, r) = (cell.ledger(), &cell.churn);
        report.push_str(&format!(
            "{}: arrivals {} -> admitted {} (retried {}, exhausted {}, abandoned {}), boots \
             {}, departs {}, boot timeouts {}, brownout deferrals {}, ctl errors {}\n",
            cell.config,
            c.arrivals,
            c.admitted,
            c.retried,
            c.rejected_final,
            c.abandoned,
            r.ledger.boots,
            r.ledger.departs,
            r.ledger.boot_timeouts,
            c.brownout_deferrals,
            r.ledger.ctl_errors.len(),
        ));
    }

    let json = Json::object()
        .with("hosts", HOSTS)
        .with("cap_vms_per_host", CAP_VMS_PER_HOST)
        .with("fleet", FLEET)
        .with("arrivals", arrivals)
        .with("cells", columns::json(COLUMNS, &cells));
    let failed = cells
        .iter()
        .filter(|c| !c.liveness_ok())
        .map(|c| c.config.to_string())
        .collect();
    (report, json, None, failed)
}
