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
    ChurnSpec, Cluster, ClusterResult, ClusterSpec, Params, PlannedMove, WorkloadSpec,
};
use es2_workloads::NetperfSpec;

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

fn events_total(r: &ClusterResult) -> u64 {
    r.per_host.iter().map(|h| h.result.events_simulated).sum()
}

fn reclaimed_total(r: &ClusterResult) -> u32 {
    r.per_host.iter().map(|h| h.result.reclaimed_slots).sum()
}

/// Run the churn sweep over Baseline / PI / ES2 and return
/// `(deterministic_report, json, None)`.
pub fn churn_report(params: Params, seed: u64, fast: bool) -> (String, Json, Option<Json>) {
    use es2_metrics::Table;

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
    let cells: Vec<(&'static str, ClusterResult, ClusterResult)> = configs()
        .into_iter()
        .map(|(name, _)| {
            let churn = runs.next().expect("churn cell");
            let fixed = runs.next().expect("static cell");
            (name, churn, fixed)
        })
        .collect();

    let arrivals = churn_spec(fast).arrivals;
    let mut t = Table::new(
        format!(
            "Tenant churn — {FLEET} static VMs + {arrivals} heavy-tailed arrivals over {HOSTS} \
             hosts (cap {CAP_VMS_PER_HOST}/host), full control-plane fault diet (seed {seed})"
        ),
        &[
            "config",
            "admitted",
            "admits/s",
            "reject",
            "retry ok",
            "boot p99 us",
            "races",
            "replaced",
            "reclaimed",
            "rx p99 us",
            "static rx p99",
            "orphans",
            "liveness",
        ],
    );
    for (name, r, s) in &cells {
        let c = r.churn.as_ref().expect("churn cell lost its ledger");
        t.row(&[
            name.to_string(),
            c.admitted.to_string(),
            format!("{:.1}", c.admitted as f64 / run_secs),
            format!("{:.3}", c.rejection_ratio()),
            format!("{:.3}", c.retry_success_ratio()),
            format!("{:.1}", c.boot_wait_percentile_us(0.99)),
            c.destroy_races.to_string(),
            c.replaced_on_crash.to_string(),
            reclaimed_total(r).to_string(),
            r.worst_rx_p99_us().to_string(),
            s.worst_rx_p99_us().to_string(),
            r.orphans().to_string(),
            if r.liveness.ok() && s.liveness.ok() {
                "PASS"
            } else {
                "FAIL"
            }
            .to_string(),
        ]);
    }
    let mut report = t.render();
    report.push('\n');

    // One control-plane line per config: the lifecycle call counts the
    // hosts actually executed (boots, departs, timeout rollbacks) and
    // the typed control errors (must stay zero).
    for (name, r, _) in &cells {
        let c = r.churn.as_ref().unwrap();
        report.push_str(&format!(
            "{name}: arrivals {} -> admitted {} (retried {}, exhausted {}, abandoned {}), boots \
             {}, departs {}, boot timeouts {}, brownout deferrals {}, ctl errors {}\n",
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

    let json_cells: Json = cells
        .iter()
        .map(|(name, r, s)| {
            let c = r.churn.as_ref().unwrap();
            Json::object()
                .with("config", *name)
                .with("arrivals", c.arrivals)
                .with("admitted", c.admitted)
                .with("admits_per_sec", c.admitted as f64 / run_secs)
                .with("rejection_ratio", c.rejection_ratio())
                .with("rejected_final", c.rejected_final)
                .with("abandoned", c.abandoned)
                .with("retried", c.retried)
                .with("retry_successes", c.retry_successes)
                .with("retry_success_ratio", c.retry_success_ratio())
                .with("boot_p50_us", c.boot_wait_percentile_us(0.5))
                .with("boot_p99_us", c.boot_wait_percentile_us(0.99))
                .with("place_fail_faults", c.place_fail_faults)
                .with("boot_stall_faults", c.boot_stall_faults)
                .with("boot_timeouts", r.ledger.boot_timeouts)
                .with("brownout_deferrals", c.brownout_deferrals)
                .with("destroy_races", c.destroy_races)
                .with("replaced_on_crash", c.replaced_on_crash)
                .with("departures", c.departures)
                .with("reclaimed_slots", reclaimed_total(r))
                .with("ctl_errors", r.ledger.ctl_errors.len())
                .with("orphans", r.orphans())
                .with("churn_rx_p99_us", r.worst_rx_p99_us())
                .with("static_rx_p99_us", s.worst_rx_p99_us())
                .with("events", events_total(r))
                .with(
                    "liveness",
                    if r.liveness.ok() && s.liveness.ok() {
                        "pass"
                    } else {
                        "fail"
                    },
                )
        })
        .collect();
    let json = Json::object()
        .with("harness", "repro --churn")
        .with("fast", fast)
        .with("seed", seed)
        .with("hosts", HOSTS)
        .with("cap_vms_per_host", CAP_VMS_PER_HOST)
        .with("fleet", FLEET)
        .with("arrivals", arrivals)
        .with("cells", json_cells);
    (report, json, None)
}
