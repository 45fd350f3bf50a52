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
//! bytes must not depend on `ES2_THREADS` — `verify.sh` diffs the
//! serial and default-thread outputs. The JSON (committed as
//! `BENCH_churn.json` for full windows) carries the same cells.

use es2_core::EventPathConfig;
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::{
    ChurnSpec, Cluster, ClusterResult, ClusterSpec, Params, PlannedMove, WorkloadSpec,
};
use es2_workloads::NetperfSpec;

use crate::perf::json_f;

const HOSTS: u32 = 4;
const CAP_VMS_PER_HOST: u32 = 3;
const FLEET: u32 = 6;

/// The three configs the paper headlines, in presentation order.
fn configs() -> [(&'static str, EventPathConfig); 3] {
    [
        ("Baseline", EventPathConfig::baseline()),
        ("PI", EventPathConfig::pi()),
        ("ES2", EventPathConfig::pi_h_r(es2_core::HybridParams::TCP_QUOTA)),
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
        ..ChurnSpec::default()
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
fn churn_cell(cfg: EventPathConfig, params: Params, seed: u64, fast: bool) -> ClusterResult {
    let mut spec = ClusterSpec::new(cfg, 1, fleet(), HOSTS, CAP_VMS_PER_HOST, params, seed);
    spec.plan = diet(&params);
    spec.moves = vec![PlannedMove {
        vm: 0,
        to: 1,
        at: SimTime::ZERO
            + SimDuration::from_nanos(params.warmup.as_nanos() + params.measure.as_nanos() / 4),
    }];
    spec.churn = Some(churn_spec(fast));
    Cluster::new(spec).run()
}

/// The static comparison cell: same fleet, same cell, no churn, no
/// faults — the "what the fleet's tail looks like without tenant
/// churn" reference for the post-churn rx p99 column.
fn static_cell(cfg: EventPathConfig, params: Params, seed: u64) -> ClusterResult {
    let spec = ClusterSpec::new(cfg, 1, fleet(), HOSTS, CAP_VMS_PER_HOST, params, seed);
    Cluster::new(spec).run()
}

fn events_total(r: &ClusterResult) -> u64 {
    r.per_host.iter().map(|h| h.result.events_simulated).sum()
}

fn reclaimed_total(r: &ClusterResult) -> u32 {
    r.per_host.iter().map(|h| h.result.reclaimed_slots).sum()
}

/// Run the churn sweep over Baseline / PI / ES2 and return
/// `(deterministic_report, json)`.
pub fn churn_report(params: Params, seed: u64, fast: bool) -> (String, String) {
    use es2_metrics::Table;

    let run_secs = (params.warmup + params.measure).as_secs_f64();
    let cells: Vec<(&'static str, ClusterResult, ClusterResult)> = configs()
        .into_iter()
        .map(|(name, cfg)| {
            (
                name,
                churn_cell(cfg, params, seed, fast),
                static_cell(cfg, params, seed),
            )
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

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"repro --churn\",\n");
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"hosts\": {HOSTS},\n  \"cap_vms_per_host\": {CAP_VMS_PER_HOST},\n  \"fleet\": \
         {FLEET},\n  \"arrivals\": {arrivals},\n"
    ));
    json.push_str("  \"cells\": [\n");
    for (i, (name, r, s)) in cells.iter().enumerate() {
        let c = r.churn.as_ref().unwrap();
        json.push_str("    {\n");
        json.push_str(&format!("      \"config\": \"{name}\",\n"));
        json.push_str(&format!("      \"arrivals\": {},\n", c.arrivals));
        json.push_str(&format!("      \"admitted\": {},\n", c.admitted));
        json.push_str(&format!(
            "      \"admits_per_sec\": {},\n",
            json_f(c.admitted as f64 / run_secs)
        ));
        json.push_str(&format!(
            "      \"rejection_ratio\": {},\n",
            json_f(c.rejection_ratio())
        ));
        json.push_str(&format!("      \"rejected_final\": {},\n", c.rejected_final));
        json.push_str(&format!("      \"abandoned\": {},\n", c.abandoned));
        json.push_str(&format!("      \"retried\": {},\n", c.retried));
        json.push_str(&format!(
            "      \"retry_successes\": {},\n",
            c.retry_successes
        ));
        json.push_str(&format!(
            "      \"retry_success_ratio\": {},\n",
            json_f(c.retry_success_ratio())
        ));
        json.push_str(&format!(
            "      \"boot_p50_us\": {},\n",
            json_f(c.boot_wait_percentile_us(0.5))
        ));
        json.push_str(&format!(
            "      \"boot_p99_us\": {},\n",
            json_f(c.boot_wait_percentile_us(0.99))
        ));
        json.push_str(&format!(
            "      \"place_fail_faults\": {},\n",
            c.place_fail_faults
        ));
        json.push_str(&format!(
            "      \"boot_stall_faults\": {},\n",
            c.boot_stall_faults
        ));
        json.push_str(&format!(
            "      \"boot_timeouts\": {},\n",
            r.ledger.boot_timeouts
        ));
        json.push_str(&format!(
            "      \"brownout_deferrals\": {},\n",
            c.brownout_deferrals
        ));
        json.push_str(&format!("      \"destroy_races\": {},\n", c.destroy_races));
        json.push_str(&format!(
            "      \"replaced_on_crash\": {},\n",
            c.replaced_on_crash
        ));
        json.push_str(&format!("      \"departures\": {},\n", c.departures));
        json.push_str(&format!(
            "      \"reclaimed_slots\": {},\n",
            reclaimed_total(r)
        ));
        json.push_str(&format!(
            "      \"ctl_errors\": {},\n",
            r.ledger.ctl_errors.len()
        ));
        json.push_str(&format!("      \"orphans\": {},\n", r.orphans()));
        json.push_str(&format!(
            "      \"churn_rx_p99_us\": {},\n",
            r.worst_rx_p99_us()
        ));
        json.push_str(&format!(
            "      \"static_rx_p99_us\": {},\n",
            s.worst_rx_p99_us()
        ));
        json.push_str(&format!("      \"events\": {},\n", events_total(r)));
        json.push_str(&format!(
            "      \"liveness\": \"{}\"\n",
            if r.liveness.ok() && s.liveness.ok() {
                "pass"
            } else {
                "fail"
            }
        ));
        json.push_str(if i + 1 < cells.len() { "    },\n" } else { "    }\n" });
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    (report, json)
}
