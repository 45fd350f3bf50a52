//! Many-VM consolidation sweep (`repro --scale`).
//!
//! One httperf tenant shares two vCPU cores with HLT-idle neighbours at
//! growing VM counts, under Baseline / PI / full ES2. Everything the
//! report and the JSON carry is simulation-determined, so both are
//! byte-identical at any `ES2_THREADS`; host-time performance of this
//! many-VM regime is measured by perfbench's `dense` workload.

use es2_metrics::json::Json;
use es2_testbed::experiments::{self, RunSpec};
use es2_testbed::{Params, RunResult};

/// One (VM count, configuration) cell of the consolidation sweep.
struct ScaleCell {
    vms: u32,
    config: &'static str,
    result: RunResult,
}

/// Run the many-VM consolidation sweep and return
/// `(deterministic_report, json, None)`.
pub fn scale_report(params: Params, seed: u64, fast: bool) -> (String, Json, Option<Json>) {
    use es2_metrics::Table;

    let vm_counts: &[u32] = if fast { &[64] } else { &[32, 64, 128] };
    let rate = experiments::SCALE_HTTPERF_RATE;
    let names = experiments::SCALE_CONFIG_NAMES;

    let flat: Vec<RunSpec> = vm_counts
        .iter()
        .flat_map(|&vms| experiments::scale_specs(vms, params, seed))
        .collect();
    let labels = vm_counts
        .iter()
        .flat_map(|&vms| names.iter().map(move |&config| (vms, config)));
    let cells: Vec<ScaleCell> = labels
        .zip(experiments::run_specs(&flat))
        .map(|((vms, config), result)| ScaleCell {
            vms,
            config,
            result,
        })
        .collect();

    // Liveness-checked run of the densest ES2 cell: timer parking must
    // not break conservation or forward progress.
    let check_vms = *vm_counts.last().unwrap();
    let (_, liveness) = experiments::scale_specs(check_vms, params, seed)[2].run_checked();

    let mut t = Table::new(
        format!(
            "Scale — consolidation sweep (httperf {rate:.0} conn/s tenant among HLT-idle \
             tenants, 2 shared vCPU cores, seed {seed})"
        ),
        &[
            "VMs",
            "config",
            "events",
            "conns",
            "mean conn ms",
            "exits/s",
            "ctx switches",
        ],
    );
    for c in &cells {
        t.row(&[
            c.vms.to_string(),
            c.config.to_string(),
            c.result.events_simulated.to_string(),
            c.result.conns_established.to_string(),
            format!("{:.3}", c.result.mean_conn_time_ms),
            format!("{:.0}", c.result.total_exit_rate()),
            c.result.host_ctx_switches.to_string(),
        ]);
    }
    let mut report = t.render();
    report.push('\n');
    report.push_str(&format!(
        "liveness ({check_vms} VMs, es2): {}\n",
        if liveness.ok() {
            "PASS (0 violations)".to_string()
        } else {
            format!("FAIL\n  {}", liveness.violations.join("\n  "))
        }
    ));

    let json = Json::object()
        .with("harness", "repro --scale")
        .with("fast", fast)
        .with("seed", seed)
        .with("httperf_rate", rate)
        .with("vcpus_per_vm", experiments::SCALE_VCPUS_PER_VM)
        .with(
            "cells",
            cells
                .iter()
                .map(|c| {
                    Json::object()
                        .with("vms", c.vms)
                        .with("config", c.config)
                        .with("events_simulated", c.result.events_simulated)
                        .with("conns_established", c.result.conns_established)
                        .with("mean_conn_time_ms", c.result.mean_conn_time_ms)
                })
                .collect::<Json>(),
        );
    (report, json, None)
}
