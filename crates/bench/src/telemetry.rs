//! Cluster-wide windowed telemetry pipeline (`repro --telemetry`).
//!
//! Runs the paper's three event paths (Baseline / PI / full ES2) across
//! three topologies — the chaos fault plan on a small fleet, a 3-host
//! migration cell with a crash + abort, and the multi-queue passthrough
//! shape — with `Params::telemetry` on, then drives the SLO engine over
//! every cell: declarative objectives, maximal-breach extraction with
//! causal attribution (each breach names the latest preceding
//! fault/migration/quarantine annotation inside the horizon), and
//! multi-window burn-rate alerts.
//!
//! Stdout is simulation-determined only (no wall-clock): `repro
//! selfcheck` compares it across thread counts, which also proves the telemetry
//! pipeline merges hosts byte-identically. The JSON lands in
//! `BENCH_telemetry.json` (`target/BENCH_telemetry_fast.json` with
//! `--fast`) and carries the per-window fleet series (downsampled to a
//! bounded point count), the annotation stream, and every
//! breach/alert — the regression surface `ci/bench_gate` checks. The
//! Chrome-trace counter track for the ES2 chaos cell (merged with the
//! flight recorder's span track) lands in
//! `target/BENCH_telemetry_chrome.json`.

use es2_core::EventPathConfig;
use es2_metrics::json::Json;
use es2_metrics::telemetry::WINDOW_NS;
use es2_metrics::{Annotation, BurnAlert, SloBreach, SloMetric, SloSpec, Table, TelemetryReport};
use es2_sim::{exec, FaultPlan};
use es2_testbed::{experiments, Cluster, Machine, Params, ShardPolicy, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

use crate::cli::Rendered;
use crate::columns::{self, Col, Val};

/// Attribution horizon: a breach blames the latest annotation at most
/// this far before its onset.
const HORIZON: u64 = 20_000_000;

/// Max series points per cell in the committed JSON (windows are
/// re-aggregated into coarser buckets past this).
const MAX_POINTS: usize = 120;

/// Max annotations listed per cell in the JSON (the full count is
/// always reported).
const MAX_ANNS: usize = 200;

/// One telemetry cell: a (topology, event path) run's report, its
/// liveness verdict, and what the SLO engine found in it.
pub(crate) struct TelCell {
    topology: &'static str,
    config: &'static str,
    report: TelemetryReport,
    /// Span report for the Chrome-trace merge (chaos cells only).
    spans: Option<es2_metrics::SpanReport>,
    liveness_ok: bool,
    /// The fleet series at full resolution.
    series: Vec<SeriesPoint>,
    breaches: Vec<SloBreach>,
    alerts: Vec<BurnAlert>,
}

impl TelCell {
    fn new(
        topology: &'static str,
        config: &'static str,
        report: TelemetryReport,
        spans: Option<es2_metrics::SpanReport>,
        liveness_ok: bool,
    ) -> TelCell {
        let specs = slo_specs();
        TelCell {
            topology,
            config,
            series: fleet_series(&report, usize::MAX),
            breaches: report.evaluate_slos(&specs, HORIZON),
            alerts: specs
                .iter()
                .flat_map(|s| report.burn_alerts(s, 5, 60, 0.02, 10.0))
                .collect(),
            report,
            spans,
            liveness_ok,
        }
    }

    /// The series' largest value of `f`, or 0.
    fn peak(&self, f: fn(&SeriesPoint) -> f64) -> f64 {
        self.series.iter().map(f).fold(0.0, f64::max)
    }
}

type Column = Col<TelCell>;

/// The cell summary fields, once for stdout and JSON. `breaches` is a
/// count on stdout and the list in JSON, so it is two columns.
#[rustfmt::skip]
pub(crate) const COLUMNS: &[Column] = &[
    Column::both("topology", "cell", |c| c.topology.into()),
    Column::both("config", "config", |c| c.config.into()),
    Column::both("windows", "windows", |c| c.report.windows.len().into()),
    Column::stdout("peak tig%", |c| c.peak(|p| p.tig_pct).into()).dec(1),
    Column::stdout("peak exits/s", |c| c.peak(|p| p.exits_per_sec).into()),
    Column::stdout("peak rx p99", |c| c.peak(|p| p.rx_p99_us).into()),
    Column::stdout("peak backlog", |c| {
        c.series.iter().map(|p| p.pending_hwm).max().unwrap_or(0).into()
    }),
    Column::stdout("goodput MB", |c| {
        (c.series.iter().map(|p| p.goodput_bytes).sum::<u64>() as f64 / 1e6).into()
    }).dec(1),
    Column::both("ann_total", "anns", |c| c.report.annotations.len().into()),
    Column::json("ann_dropped", |c| c.report.ann_dropped.into()),
    Column::json("series", |c| Val::Json(series_json(&c.report))),
    Column::json("annotations", |c| {
        Val::Json(c.report.annotations.iter().take(MAX_ANNS).map(annotation).collect())
    }),
    Column::stdout("breaches", |c| c.breaches.len().into()),
    Column::json("breaches", |c| Val::Json(c.breaches.iter().map(breach).collect())),
    Column::stdout("alerts", |c| c.alerts.len().into()),
    Column::json("burn_alerts", |c| Val::Json(c.alerts.iter().map(burn_alert).collect())),
];

fn annotation(a: &Annotation) -> Json {
    Json::object()
        .with("at_ns", a.at_ns)
        .with("vm", a.vm)
        .with("kind", a.kind)
        .with("arg", a.arg)
}

fn breach(b: &SloBreach) -> Json {
    Json::object()
        .with("slo", b.slo)
        .with("start_ns", b.start_ns)
        .with("end_ns", b.end_ns)
        .with("worst", b.worst)
        .with("cause", b.cause.as_ref().map(annotation))
}

fn burn_alert(a: &BurnAlert) -> Json {
    Json::object()
        .with("slo", a.slo)
        .with("at_ns", a.at_ns)
        .with("short_frac", a.short_frac)
        .with("long_frac", a.long_frac)
}

/// The fleet series downsampled to `MAX_POINTS`, one array per field.
fn series_json(rep: &TelemetryReport) -> Json {
    let series = fleet_series(rep, MAX_POINTS);
    let col = |f: fn(&SeriesPoint) -> Json| series.iter().map(f).collect::<Json>();
    Json::object()
        .with("idx", col(|p| p.idx.into()))
        .with("len", col(|p| p.len.into()))
        .with("tig_pct", col(|p| p.tig_pct.into()))
        .with("exits_per_sec", col(|p| p.exits_per_sec.into()))
        .with("rx_p99_us", col(|p| p.rx_p99_us.into()))
        .with("goodput_bytes", col(|p| p.goodput_bytes.into()))
        .with("pending_hwm", col(|p| p.pending_hwm.into()))
        .with("occupancy_pct", col(|p| p.occupancy_pct.into()))
}

/// The declarative objective set evaluated over every cell.
pub(crate) fn slo_specs() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "vm0-rx-p99",
            metric: SloMetric::RxP99Us,
            vm: Some(0),
            threshold: 1_000.0,
            above_is_bad: true,
            windows: 3,
        },
        SloSpec {
            name: "fleet-exits",
            metric: SloMetric::ExitsPerSec,
            vm: None,
            threshold: 400_000.0,
            above_is_bad: true,
            windows: 5,
        },
        SloSpec {
            name: "fleet-tig",
            metric: SloMetric::TigPct,
            vm: None,
            threshold: 1.0,
            above_is_bad: false,
            windows: 20,
        },
        SloSpec {
            name: "fleet-backlog",
            metric: SloMetric::WorkerPendingHwm,
            vm: None,
            threshold: 24.0,
            above_is_bad: true,
            windows: 3,
        },
    ]
}

fn configs() -> [EventPathConfig; 3] {
    [
        EventPathConfig::baseline(),
        EventPathConfig::pi(),
        EventPathConfig::pi_h_r(4),
    ]
}

/// One single-host cell: 8 VMs of `vcpus_per_vm` vCPUs on 10 cores,
/// running `specs` under `plan` with telemetry on.
fn run_host(
    topology: &'static str,
    cfg: EventPathConfig,
    params: Params,
    vcpus_per_vm: u32,
    specs: Vec<WorkloadSpec>,
    seed: u64,
    plan: FaultPlan,
) -> TelCell {
    let params = Params {
        telemetry: true,
        num_cores: 10,
        ..params
    };
    let topo = Topology {
        num_vms: 8,
        vcpus_per_vm,
    };
    let (mut result, live) =
        Machine::with_specs_faulted(cfg, topo, specs, params, seed, plan).run_checked();
    let report = result.telemetry.take().expect("telemetry enabled");
    TelCell::new(
        topology,
        result.config,
        report,
        result.spans.take(),
        live.ok(),
    )
}

/// The chaos topology: an 8-VM fleet under the acceptance fault plan;
/// VM 0 sends TCP, VM 1 receives, the rest idle for density. Spans on
/// for the Chrome-trace merge.
fn run_chaos(cfg: EventPathConfig, base: Params, seed: u64) -> TelCell {
    let mut specs = vec![WorkloadSpec::Idle; 8];
    specs[0] = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    specs[1] = WorkloadSpec::Netperf(NetperfSpec::tcp_receive(1024));
    let params = Params {
        trace: true,
        ..base
    };
    run_host(
        "chaos",
        cfg,
        params,
        1,
        specs,
        seed,
        experiments::chaos_plan(),
    )
}

/// The migration topology: `repro chaos`'s 3-host host-fault cell running
/// one live move, one aborted move, a degraded host and a host crash
/// with evacuation; per-host reports overlay-merge over the shared
/// global slot table.
fn run_migrate(cfg: EventPathConfig, base: Params, seed: u64) -> TelCell {
    let params = Params {
        telemetry: true,
        ..base
    };
    let r = Cluster::new(experiments::host_fault_cell(cfg, params, seed)).run();
    let liveness_ok = r.liveness.ok();
    let mut merged: Option<TelemetryReport> = None;
    let mut config = "";
    for mut h in r.per_host {
        config = h.result.config;
        let rep = h.result.telemetry.take().expect("telemetry enabled");
        match &mut merged {
            Some(m) => m.overlay(rep),
            None => merged = Some(rep),
        }
    }
    TelCell::new(
        "migrate",
        config,
        merged.expect("at least one host"),
        None,
        liveness_ok,
    )
}

/// The multi-queue topology: VM 0 drives 2-flow TCP over 2 queue pairs
/// in queue-passthrough sharding among 8 tenants (per-worker occupancy
/// and backlog rows are the point here).
fn run_mq(cfg: EventPathConfig, base: Params, seed: u64) -> TelCell {
    let params = Params {
        queues_per_vm: 2,
        vhost_workers: 2,
        shard_policy: ShardPolicy::Passthrough,
        ..base
    };
    let mut specs = vec![WorkloadSpec::IdleQuiet; 8];
    specs[0] = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024).with_threads(2));
    run_host("mq", cfg, params, 2, specs, seed, FaultPlan::none())
}

/// One downsampled fleet-series point: fleet aggregates over a bucket
/// of `len` consecutive window indices starting at `idx`.
struct SeriesPoint {
    idx: u64,
    len: u64,
    tig_pct: f64,
    exits_per_sec: f64,
    rx_p99_us: f64,
    goodput_bytes: u64,
    pending_hwm: u64,
    occupancy_pct: f64,
}

/// Downsample the report's occupied index span into at most
/// `max_points` buckets of equal window count (missing windows inside
/// the span count as zero — they are real quiet time).
fn fleet_series(rep: &TelemetryReport, max_points: usize) -> Vec<SeriesPoint> {
    use es2_metrics::telemetry::{RX_BUCKETS, RX_BUCKET_EDGES_US};
    let Some((lo, hi)) = rep.index_span() else {
        return Vec::new();
    };
    let total = hi - lo + 1;
    let stride = total.div_ceil(max_points as u64).max(1);
    let g = rep.geom;
    let mut out = Vec::new();
    let mut start = lo;
    while start <= hi {
        let len = stride.min(hi - start + 1);
        let mut guest = 0u64;
        let mut exits = 0u64;
        let mut buckets = [0u64; RX_BUCKETS];
        let mut lat_count = 0u64;
        let mut lat_max = 0u64;
        let mut bytes = 0u64;
        let mut hwm = 0u64;
        let mut on_core = 0u64;
        for k in start..start + len {
            if let Some(w) = rep.window_at(k) {
                for v in &w.vms {
                    guest += v.guest_ns;
                    exits += v.exits_total();
                    for (b, c) in buckets.iter_mut().zip(v.rx_lat_buckets.iter()) {
                        *b += c;
                    }
                    lat_count += v.rx_lat_count;
                    lat_max = lat_max.max(v.rx_lat_max_ns);
                    bytes += v.rx_bytes + v.tx_bytes;
                }
                for r in &w.workers {
                    hwm = hwm.max(r.pending_hwm);
                    on_core += r.on_core_ns;
                }
            }
        }
        let span_ns = len as f64 * WINDOW_NS as f64;
        // Nearest-rank p99 from the bucket sums (same rule the SLO
        // engine applies).
        let rank = (0.99 * lat_count as f64).ceil().max(1.0) as u64;
        let mut running = buckets.iter().scan(0, |acc, &c| {
            *acc += c;
            Some(*acc)
        });
        let rx_p99_us = match running.position(|acc| acc >= rank) {
            Some(i) if i + 1 < RX_BUCKETS => RX_BUCKET_EDGES_US[i] as f64,
            Some(_) => lat_max as f64 / 1e3,
            None => 0.0,
        };
        out.push(SeriesPoint {
            idx: start,
            len,
            tig_pct: 100.0 * guest as f64 / (g.num_vms as f64 * span_ns),
            exits_per_sec: exits as f64 / (span_ns / 1e9),
            rx_p99_us,
            goodput_bytes: bytes,
            pending_hwm: hwm,
            occupancy_pct: 100.0 * on_core as f64
                / ((g.num_vms * g.workers_per_vm) as f64 * span_ns),
        });
        start += len;
    }
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run every cell.
pub fn telemetry_report(params: Params, seed: u64, _fast: bool) -> Rendered {
    // Nine independent (topology, event path) cells on one sweep; it
    // returns them in this order whatever the thread count.
    type Run = fn(EventPathConfig, Params, u64) -> TelCell;
    let runs: [Run; 3] = [run_chaos, run_migrate, run_mq];
    let grid: Vec<(Run, EventPathConfig)> = runs
        .iter()
        .flat_map(|&run| configs().map(|cfg| (run, cfg)))
        .collect();
    let cells = exec::sweep(&grid, |&(run, cfg)| run(cfg, params, seed));

    let mut report = columns::table(
        format!(
            "Fleet telemetry — {} ms windows, Baseline/PI/ES2 across chaos + migrate + mq \
             (seed {seed})",
            WINDOW_NS as f64 / 1e6
        ),
        COLUMNS,
        &cells,
    );

    // ---- breach table with causal attribution ----
    let mut bt = Table::new(
        format!(
            "SLO breaches (attribution horizon {} ms)",
            HORIZON / 1_000_000
        ),
        &[
            "cell", "config", "slo", "start ms", "end ms", "worst", "cause",
        ],
    );
    for c in &cells {
        for b in &c.breaches {
            let cause = match &b.cause {
                Some(a) => format!("{} vm{} @{:.1}ms arg={}", a.kind, a.vm, ms(a.at_ns), a.arg),
                None => "-".to_string(),
            };
            bt.row(&[
                c.topology.to_string(),
                c.config.to_string(),
                b.slo.to_string(),
                format!("{:.1}", ms(b.start_ns)),
                format!("{:.1}", ms(b.end_ns)),
                format!("{:.1}", b.worst),
                cause,
            ]);
        }
    }
    if cells.iter().any(|c| !c.breaches.is_empty()) {
        report.push_str(&bt.render());
        report.push('\n');
    } else {
        report.push_str("SLO breaches: none\n\n");
    }

    // ---- burn alerts ----
    let mut at = Table::new(
        "Burn-rate alerts (short 5w / long 60w, 2% budget, 10x factor)",
        &["cell", "config", "slo", "at ms", "short", "long"],
    );
    for c in &cells {
        for a in &c.alerts {
            at.row(&[
                c.topology.to_string(),
                c.config.to_string(),
                a.slo.to_string(),
                format!("{:.1}", ms(a.at_ns)),
                format!("{:.2}", a.short_frac),
                format!("{:.2}", a.long_frac),
            ]);
        }
    }
    if cells.iter().any(|c| !c.alerts.is_empty()) {
        report.push_str(&at.render());
        report.push('\n');
    } else {
        report.push_str("burn-rate alerts: none\n\n");
    }

    // ---- one detailed fleet timeline: the ES2 chaos cell ----
    let es2_chaos = &cells[2];
    let mut tt = Table::new(
        format!(
            "Fleet timeline — chaos/{} (downsampled; anns joined per bucket)",
            es2_chaos.config
        ),
        &[
            "win",
            "tig%",
            "exits/s",
            "rx p99 us",
            "goodput KB",
            "backlog",
            "occ%",
            "events",
        ],
    );
    let series = fleet_series(&es2_chaos.report, 16);
    for p in &series {
        let (from_ns, to_ns) = (p.idx * WINDOW_NS, (p.idx + p.len) * WINDOW_NS);
        let mut kinds: Vec<&'static str> = es2_chaos
            .report
            .annotations
            .iter()
            .filter(|a| a.at_ns >= from_ns && a.at_ns < to_ns)
            .map(|a| a.kind)
            .collect();
        kinds.dedup();
        let events = if kinds.is_empty() {
            "-".to_string()
        } else {
            let n = kinds.len();
            kinds.truncate(3);
            let mut s = kinds.join(",");
            if n > 3 {
                s.push('+');
            }
            s
        };
        tt.row(&[
            format!("{}..{}", p.idx, p.idx + p.len),
            format!("{:.1}", p.tig_pct),
            format!("{:.0}", p.exits_per_sec),
            format!("{:.0}", p.rx_p99_us),
            format!("{:.0}", p.goodput_bytes as f64 / 1e3),
            p.pending_hwm.to_string(),
            format!("{:.1}", p.occupancy_pct),
            events,
        ]);
    }
    report.push_str(&tt.render());

    let json = Json::object()
        .with("window_ns", WINDOW_NS)
        .with("horizon_ns", HORIZON)
        .with("cells", columns::json(COLUMNS, &cells));

    let chrome = es2_chaos
        .report
        .merged_chrome_trace(es2_chaos.spans.as_ref());
    let failed = cells
        .iter()
        .filter(|c| !c.liveness_ok)
        .map(|c| format!("{}/{}", c.topology, c.config))
        .collect();
    (report, json, Some(chrome), failed)
}
