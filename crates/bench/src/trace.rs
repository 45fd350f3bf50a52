//! `repro --trace`: the event-path flight-recorder report.
//!
//! Runs two representative scenarios — an interrupt-path one (memcached
//! under core multiplexing, where vCPU scheduling delay dominates and
//! ES2's redirection removes it) and a request-path one (1-vCPU TCP
//! send, where the kick/pickup stages dominate) — under Baseline, PI,
//! and full ES2, with the span tracer on. The stdout report and
//! `BENCH_trace.json` contain only sim-time-derived quantities, so both
//! are byte-identical at any thread count; `repro selfcheck` compares
//! exactly that. A separate ES2 run with a bounded event log produces the
//! Chrome-trace export (`chrome://tracing` / Perfetto).

use es2_core::{EventPathConfig, HybridParams};
use es2_metrics::json::Json;
use es2_metrics::{SpanReport, Stage, Table};
use es2_sim::FaultPlan;
use es2_testbed::experiments::{run_specs, RunSpec};
use es2_testbed::{Params, RunResult, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

/// Event-log capacity for the Chrome-trace export run (bounded so the
/// export stays viewer-sized regardless of window length).
pub const CHROME_EVENT_CAPACITY: u32 = 20_000;

/// The three event-path configurations the trace compares.
fn trace_configs() -> [(&'static str, EventPathConfig); 3] {
    [
        ("baseline", EventPathConfig::baseline()),
        ("pi", EventPathConfig::pi()),
        ("es2", EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA)),
    ]
}

/// The two traced scenarios: `(key, description, topology, workload)`.
fn trace_scenarios() -> [(&'static str, &'static str, Topology, WorkloadSpec); 2] {
    [
        (
            "memcached-mux",
            "memcached, 4 VMs x 4 vCPUs on 4 cores (interrupt path)",
            Topology::multiplexed(),
            WorkloadSpec::Memcached,
        ),
        (
            "tcp-send-micro",
            "netperf TCP send 1024B, 1 vCPU (request path)",
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
        ),
    ]
}

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

/// `p50/p99` cell for one stage of one run, `-` when the stage never
/// fired (e.g. polled pickups under Baseline).
fn stage_cell(rep: &SpanReport, s: Stage) -> String {
    let h = rep.stage(0, s);
    if h.count() == 0 {
        "-".to_string()
    } else {
        format!("{}/{}", us(h.median()), us(h.p99()))
    }
}

/// Run the traced grid and return the deterministic report (stage
/// tables + sched-delay summary), `BENCH_trace.json` and the Chrome
/// trace of the bounded-log ES2 run.
pub fn trace_report(mut params: Params, seed: u64, fast: bool) -> (String, Json, Option<Json>) {
    params.trace = true;
    params.trace_events = 0;

    let configs = trace_configs();
    let scenarios = trace_scenarios();

    let specs: Vec<RunSpec> = scenarios
        .iter()
        .flat_map(|&(_, _, topo, spec)| {
            configs.iter().map(move |&(_, cfg)| RunSpec {
                cfg,
                topo,
                spec,
                params,
                seed,
                faults: FaultPlan::none(),
                fill: WorkloadSpec::Idle,
            })
        })
        .collect();
    let results = run_specs(&specs);

    let mut report = String::new();
    let mut scenarios_json = Vec::new();

    for (si, &(key, desc, ..)) in scenarios.iter().enumerate() {
        let runs: Vec<&RunResult> = results[si * configs.len()..(si + 1) * configs.len()]
            .iter()
            .collect();
        let reps: Vec<&SpanReport> = runs
            .iter()
            .map(|r| r.spans.as_ref().expect("traced run has a span report"))
            .collect();

        // Stage table: one row per stage, p50/p99 µs per configuration,
        // VM 0 (the tested VM) only.
        let mut t = Table::new(
            format!("Trace — {key}: {desc}; per-stage p50/p99 µs, VM 0"),
            &[
                "stage",
                "direction",
                "Baseline",
                "PI",
                "PI+H+R",
                "n (PI+H+R)",
            ],
        );
        for s in Stage::ALL {
            t.row(&[
                s.name().to_string(),
                s.direction().to_string(),
                stage_cell(reps[0], s),
                stage_cell(reps[1], s),
                stage_cell(reps[2], s),
                reps[2].stage(0, s).count().to_string(),
            ]);
        }
        report.push_str(&t.render());

        // The paper's headline decomposition claim: redirection removes
        // the scheduling-delay component of interrupt delivery.
        let base_sd = reps[0].stage(0, Stage::SchedDelay);
        let es2_sd = reps[2].stage(0, Stage::SchedDelay);
        let reduction = if base_sd.mean() > 0.0 {
            (1.0 - es2_sd.mean() / base_sd.mean()) * 100.0
        } else {
            0.0
        };
        report.push_str(&format!(
            "sched-delay ({key}): mean {} -> {} µs, max {} -> {} µs \
             (es2 removes {:.1}% of mean sched-delay)\n",
            Json::from(base_sd.mean() / 1_000.0),
            Json::from(es2_sd.mean() / 1_000.0),
            us(base_sd.max()),
            us(es2_sd.max()),
            reduction,
        ));
        report.push_str(&format!(
            "spans ({key}, es2): {} irqs opened / {} closed ({} parked, {} redirected, \
             {} coalesced), {} reqs opened / {} closed ({} kick-coalesced)\n\n",
            reps[2].notes.irqs_opened,
            reps[2].notes.irqs_closed,
            reps[2].notes.parked,
            reps[2].notes.redirected,
            reps[2].notes.coalesced_irqs,
            reps[2].notes.reqs_opened,
            reps[2].notes.reqs_closed,
            reps[2].notes.coalesced_kicks,
        ));

        let configs_json: Json = configs
            .iter()
            .zip(&runs)
            .zip(&reps)
            .map(|((&(ckey, _), run), rep)| {
                let stages: Json = Stage::ALL
                    .iter()
                    .map(|&s| {
                        let h = rep.stage(0, s);
                        Json::object()
                            .with("stage", s.name())
                            .with("direction", s.direction())
                            .with("count", h.count())
                            .with("p50_ns", h.median())
                            .with("p99_ns", h.p99())
                            .with("mean_ns", h.mean())
                            .with("max_ns", h.max())
                    })
                    .collect();
                let n = rep.notes;
                let notes = Json::object()
                    .with("irqs_opened", n.irqs_opened)
                    .with("irqs_closed", n.irqs_closed)
                    .with("redirected", n.redirected)
                    .with("parked", n.parked)
                    .with("migrated", n.migrated)
                    .with("coalesced_irqs", n.coalesced_irqs)
                    .with("watchdog_reraises", n.watchdog_reraises)
                    .with("degradations", n.degradations)
                    .with("reqs_opened", n.reqs_opened)
                    .with("reqs_closed", n.reqs_closed)
                    .with("coalesced_kicks", n.coalesced_kicks)
                    .with("delayed_kicks", n.delayed_kicks)
                    .with("watchdog_rekicks", n.watchdog_rekicks)
                    .with("unclosed_irqs", n.unclosed_irqs)
                    .with("unclosed_reqs", n.unclosed_reqs);
                Json::object()
                    .with("config", ckey)
                    .with("label", run.config.to_string())
                    .with("stages", stages)
                    .with("notes", notes)
            })
            .collect();
        scenarios_json.push(
            Json::object()
                .with("name", key)
                .with("workload", desc)
                .with("configs", configs_json)
                .with(
                    "sched_delay",
                    Json::object()
                        .with("baseline_mean_ns", base_sd.mean())
                        .with("es2_mean_ns", es2_sd.mean())
                        .with("baseline_p99_ns", base_sd.p99())
                        .with("es2_p99_ns", es2_sd.p99())
                        .with("baseline_max_ns", base_sd.max())
                        .with("es2_max_ns", es2_sd.max())
                        .with("reduction_percent", reduction),
                ),
        );
    }
    let json = Json::object()
        .with("harness", "repro --trace")
        .with("fast", fast)
        .with("seed", seed)
        .with("scenarios", Json::Arr(scenarios_json));

    // Chrome export: one ES2 run of the interrupt-path scenario with the
    // bounded event log on. Kept out of the grid so the grid's reports
    // carry no log-capacity dependence.
    let (_, _, topo, spec) = trace_scenarios()[0];
    let mut cp = params;
    cp.trace_events = CHROME_EVENT_CAPACITY;
    let chrome_run = RunSpec {
        cfg: trace_configs()[2].1,
        topo,
        spec,
        params: cp,
        seed,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::Idle,
    }
    .run();
    let chrome_rep = chrome_run.spans.as_ref().expect("traced run");
    report.push_str(&format!(
        "chrome export: {} events ({} dropped past capacity {})\n",
        chrome_rep.events.len(),
        chrome_rep.events_dropped,
        CHROME_EVENT_CAPACITY,
    ));
    let chrome = chrome_rep.chrome_trace_json();

    (report, json, Some(chrome))
}
