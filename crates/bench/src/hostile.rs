//! Hostile-guest blast-radius benchmark (`repro --hostile`).
//!
//! One VM runs the full hostile family from
//! [`experiments::hostile_plan`] — a ring corruption a few kicks in,
//! doorbell storms, spurious EOI writes, periodic self-referencing
//! descriptors — against a backpressured host, while a well-behaved
//! victim VM shares the cores. The report puts the victim's goodput and
//! receive tail latency under attack next to the clean run, plus the
//! containment ledger proving the damage landed on the hostile VM alone.
//!
//! Everything in the stdout report is simulation-determined, so its
//! bytes must not depend on the thread count — `repro selfcheck`
//! compares the serial and N-thread outputs. The JSON (committed as
//! `BENCH_hostile.json` for full windows) carries the same cells keyed
//! for downstream diffing.

use es2_core::EventPathConfig;
use es2_metrics::json::Json;
use es2_sim::{exec, FaultPlan};
use es2_testbed::experiments::{self};
use es2_testbed::{BackpressureParams, Machine, Params, RunResult, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

/// The VM index that misbehaves (VM 0 is the measured victim).
const HOSTILE_VM: u32 = 1;

/// One configuration's clean-vs-hostile pair.
pub(crate) struct HostileCell {
    pub config: &'static str,
    pub clean: RunResult,
    pub hostile: RunResult,
    pub liveness_ok: bool,
}

impl HostileCell {
    /// Victim goodput retained under attack, in percent.
    pub(crate) fn retained_percent(&self) -> f64 {
        if self.clean.goodput_gbps <= 0.0 {
            return 0.0;
        }
        100.0 * self.hostile.goodput_gbps / self.clean.goodput_gbps
    }

    /// Victim receive p99 under attack over clean, as a ratio.
    pub(crate) fn p99_ratio(&self) -> f64 {
        let c = self.clean.rx_p99_us_per_vm[0].max(1) as f64;
        self.hostile.rx_p99_us_per_vm[0].max(1) as f64 / c
    }
}

/// One run of the victim/hostile pair of VMs under `cfg`, with the
/// hostile plan or without it: the result and whether liveness held.
fn run_one(cfg: EventPathConfig, params: Params, seed: u64, hostile: bool) -> (RunResult, bool) {
    let topo = Topology::multiplexed();
    let mut specs = vec![WorkloadSpec::Idle; topo.num_vms as usize];
    specs[0] = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    specs[HOSTILE_VM as usize] = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let plan = if hostile {
        experiments::hostile_plan(HOSTILE_VM)
    } else {
        FaultPlan::none()
    };
    let (result, live) =
        Machine::with_specs_faulted(cfg, topo, specs, params, seed, plan).run_checked();
    (result, live.ok())
}

/// Run the blast-radius sweep and return `(deterministic_report, json, None)`.
pub fn hostile_report(params: Params, seed: u64, fast: bool) -> (String, Json, Option<Json>) {
    use es2_metrics::Table;

    let params = Params {
        backpressure: Some(BackpressureParams::default()),
        ..params
    };
    let configs: &[EventPathConfig] = if fast {
        &[EventPathConfig::pi_h(4)]
    } else {
        &[
            EventPathConfig::baseline(),
            EventPathConfig::pi(),
            EventPathConfig::pi_h(4),
        ]
    };
    // Every clean and hostile run is an independent cell of one sweep,
    // which returns them in input order.
    let grid: Vec<(EventPathConfig, bool)> = configs
        .iter()
        .flat_map(|&cfg| [(cfg, false), (cfg, true)])
        .collect();
    let mut runs = exec::sweep(&grid, |&(cfg, hostile)| run_one(cfg, params, seed, hostile))
        .into_iter();
    let mut cells: Vec<HostileCell> = Vec::new();
    while let (Some((clean, clean_ok)), Some((hostile, hostile_ok))) = (runs.next(), runs.next()) {
        cells.push(HostileCell {
            config: clean.config,
            clean,
            hostile,
            liveness_ok: clean_ok && hostile_ok,
        });
    }

    let mut t = Table::new(
        format!(
            "Hostile guest — VM {HOSTILE_VM} runs ring corruption + kick/EOI storms + desc \
             loops; VM 0 is the victim (4 VMs time-sharing, seed {seed})"
        ),
        &[
            "config",
            "clean Gb/s",
            "hostile Gb/s",
            "retained %",
            "p99 clean us",
            "p99 hostile us",
            "quarantines",
            "resets",
            "throttled",
            "shed bufs",
        ],
    );
    for c in &cells {
        let bp = &c.hostile.backpressure;
        t.row(&[
            c.config.to_string(),
            format!("{:.3}", c.clean.goodput_gbps),
            format!("{:.3}", c.hostile.goodput_gbps),
            format!("{:.1}", c.retained_percent()),
            c.clean.rx_p99_us_per_vm[0].to_string(),
            c.hostile.rx_p99_us_per_vm[0].to_string(),
            bp.quarantines.to_string(),
            bp.resets.to_string(),
            bp.throttled_kicks.to_string(),
            bp.quarantine_dropped.to_string(),
        ]);
    }
    let mut report = t.render();
    report.push('\n');
    for c in &cells {
        let h = &c.hostile;
        let hostile_bp = &h.backpressure_per_vm[HOSTILE_VM as usize];
        let leaked: u64 = h
            .backpressure_per_vm
            .iter()
            .enumerate()
            .filter(|&(vm, _)| vm != HOSTILE_VM as usize)
            .map(|(_, b)| b.spurious_kicks + b.spurious_eois + b.quarantines + b.resets)
            .sum();
        report.push_str(&format!(
            "{}: corruptions {} storms {}+{} | hostile VM paid: {} spurious kicks, {} spurious \
             EOIs, {} throttled | leaked to neighbors: {} | liveness: {}\n",
            c.config,
            h.fault_stats.ring_corruptions,
            h.fault_stats.storm_kicks,
            h.fault_stats.storm_eois,
            hostile_bp.spurious_kicks,
            hostile_bp.spurious_eois,
            hostile_bp.throttled_kicks,
            leaked,
            if c.liveness_ok { "PASS" } else { "FAIL" },
        ));
    }

    let json_cells: Json = cells
        .iter()
        .map(|c| {
            let bp = &c.hostile.backpressure;
            let per_vm: Json = c
                .hostile
                .backpressure_per_vm
                .iter()
                .zip(&c.hostile.rx_p99_us_per_vm)
                .enumerate()
                .map(|(vm, (b, &rx_p99_us))| {
                    Json::object()
                        .with("vm", vm)
                        .with("spurious_kicks", b.spurious_kicks)
                        .with("spurious_eois", b.spurious_eois)
                        .with("throttled_kicks", b.throttled_kicks)
                        .with("quarantines", b.quarantines)
                        .with("resets", b.resets)
                        .with("rx_p99_us", rx_p99_us)
                })
                .collect();
            Json::object()
                .with("config", c.config)
                .with("victim_goodput_clean_gbps", c.clean.goodput_gbps)
                .with("victim_goodput_hostile_gbps", c.hostile.goodput_gbps)
                .with("victim_goodput_retained_percent", c.retained_percent())
                .with("victim_rx_p99_clean_us", c.clean.rx_p99_us_per_vm[0])
                .with("victim_rx_p99_hostile_us", c.hostile.rx_p99_us_per_vm[0])
                .with("victim_rx_p99_ratio", c.p99_ratio())
                .with("ring_corruptions", c.hostile.fault_stats.ring_corruptions)
                .with("storm_kicks", c.hostile.fault_stats.storm_kicks)
                .with("storm_eois", c.hostile.fault_stats.storm_eois)
                .with("quarantines", bp.quarantines)
                .with("queue_resets", bp.resets)
                .with("throttled_kicks", bp.throttled_kicks)
                .with("budget_deferrals", bp.budget_deferrals)
                .with("quarantine_dropped", bp.quarantine_dropped)
                .with("per_vm", per_vm)
                .with("liveness", if c.liveness_ok { "pass" } else { "fail" })
        })
        .collect();
    let json = Json::object()
        .with("harness", "repro --hostile")
        .with("fast", fast)
        .with("seed", seed)
        .with("hostile_vm", HOSTILE_VM)
        .with("cells", json_cells);
    (report, json, None)
}
