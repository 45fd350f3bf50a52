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

use crate::cli::Rendered;
use crate::columns::{self, Col};

/// One (VM count, configuration) cell of the consolidation sweep.
pub(crate) struct ScaleCell {
    vms: u32,
    config: &'static str,
    result: RunResult,
}

type Column = Col<ScaleCell>;

/// The cell fields, once for stdout and JSON.
#[rustfmt::skip]
pub(crate) const COLUMNS: &[Column] = &[
    Column::both("vms", "VMs", |c| c.vms.into()),
    Column::both("config", "config", |c| c.config.into()),
    Column::both("events_simulated", "events", |c| c.result.events_simulated.into()),
    Column::both("conns_established", "conns", |c| c.result.conns_established.into()),
    Column::both("mean_conn_time_ms", "mean conn ms", |c| c.result.mean_conn_time_ms.into()).dec(3),
    Column::stdout("exits/s", |c| c.result.total_exit_rate().into()),
    Column::stdout("ctx switches", |c| c.result.host_ctx_switches.into()),
];

/// Run the many-VM consolidation sweep.
pub fn scale_report(params: Params, seed: u64, fast: bool) -> Rendered {
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
    // `RunSpec::run` checks every cell's liveness (timer parking must not
    // break conservation or forward progress) and panics on a violation,
    // so the verdict line below covers the whole sweep.
    let cells: Vec<ScaleCell> = labels
        .zip(experiments::run_specs(&flat))
        .map(|((vms, config), result)| ScaleCell {
            vms,
            config,
            result,
        })
        .collect();

    let mut report = columns::table(
        format!(
            "Scale — consolidation sweep (httperf {rate:.0} conn/s tenant among HLT-idle \
             tenants, 2 shared vCPU cores, seed {seed})"
        ),
        COLUMNS,
        &cells,
    );
    report.push_str(&format!(
        "liveness (all {} cells checked): PASS (0 violations)\n",
        cells.len()
    ));

    let json = Json::object()
        .with("httperf_rate", rate)
        .with("vcpus_per_vm", experiments::SCALE_VCPUS_PER_VM)
        .with("cells", columns::json(COLUMNS, &cells));
    (report, json, None, Vec::new())
}
