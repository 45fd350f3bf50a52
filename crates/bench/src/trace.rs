//! `repro --trace`: the event-path flight-recorder report.
//!
//! Runs two representative scenarios — an interrupt-path one (memcached
//! under core multiplexing, where vCPU scheduling delay dominates and
//! ES2's redirection removes it) and a request-path one (1-vCPU TCP
//! send, where the kick/pickup stages dominate) — under Baseline, PI,
//! and full ES2, with the span tracer on. The stdout report and
//! `BENCH_trace.json` contain only sim-time-derived quantities, so both
//! are byte-identical at any `ES2_THREADS`; `verify.sh` diffs exactly
//! that. A separate ES2 run with a bounded event log produces the
//! Chrome-trace export (`chrome://tracing` / Perfetto).

use es2_core::{EventPathConfig, HybridParams};
use es2_metrics::{SpanReport, Stage, Table};
use es2_sim::FaultPlan;
use es2_testbed::experiments::{run_specs, RunSpec};
use es2_testbed::{Params, RunResult, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

use crate::json_f;

/// Event-log capacity for the Chrome-trace export run (bounded so the
/// export stays viewer-sized regardless of window length).
pub const CHROME_EVENT_CAPACITY: u32 = 20_000;

/// Everything `repro --trace` produces.
pub struct TraceOutput {
    /// Deterministic stdout report (stage tables + sched-delay summary).
    pub report: String,
    /// `BENCH_trace.json` content (deterministic).
    pub json: String,
    /// Chrome-trace JSON from the bounded-log ES2 run.
    pub chrome: String,
}

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

/// Run the traced grid and render the report, JSON, and Chrome export.
pub fn trace_report(mut params: Params, seed: u64, fast: bool) -> TraceOutput {
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
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"repro --trace\",\n");
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str("  \"scenarios\": [\n");

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
            json_f(base_sd.mean() / 1_000.0),
            json_f(es2_sd.mean() / 1_000.0),
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

        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{key}\",\n"));
        json.push_str(&format!("      \"workload\": \"{desc}\",\n"));
        json.push_str("      \"configs\": [\n");
        for (ci, &(ckey, _)) in configs.iter().enumerate() {
            let rep = reps[ci];
            json.push_str("        {\n");
            json.push_str(&format!("          \"config\": \"{ckey}\",\n"));
            json.push_str(&format!("          \"label\": \"{}\",\n", runs[ci].config));
            json.push_str("          \"stages\": [\n");
            for (i, s) in Stage::ALL.iter().enumerate() {
                let h = rep.stage(0, *s);
                json.push_str(&format!(
                    "            {{\"stage\": \"{}\", \"direction\": \"{}\", \
                     \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                     \"mean_ns\": {}, \"max_ns\": {}}}{}\n",
                    s.name(),
                    s.direction(),
                    h.count(),
                    h.median(),
                    h.p99(),
                    json_f(h.mean()),
                    h.max(),
                    if i + 1 < Stage::COUNT { "," } else { "" }
                ));
            }
            json.push_str("          ],\n");
            let n = rep.notes;
            json.push_str("          \"notes\": {\n");
            let note_fields: [(&str, u64); 15] = [
                ("irqs_opened", n.irqs_opened),
                ("irqs_closed", n.irqs_closed),
                ("redirected", n.redirected),
                ("parked", n.parked),
                ("migrated", n.migrated),
                ("coalesced_irqs", n.coalesced_irqs),
                ("watchdog_reraises", n.watchdog_reraises),
                ("degradations", n.degradations),
                ("reqs_opened", n.reqs_opened),
                ("reqs_closed", n.reqs_closed),
                ("coalesced_kicks", n.coalesced_kicks),
                ("delayed_kicks", n.delayed_kicks),
                ("watchdog_rekicks", n.watchdog_rekicks),
                ("unclosed_irqs", n.unclosed_irqs),
                ("unclosed_reqs", n.unclosed_reqs),
            ];
            for (i, (name, v)) in note_fields.iter().enumerate() {
                json.push_str(&format!(
                    "            \"{name}\": {v}{}\n",
                    if i + 1 < note_fields.len() { "," } else { "" }
                ));
            }
            json.push_str("          }\n");
            json.push_str(if ci + 1 < configs.len() {
                "        },\n"
            } else {
                "        }\n"
            });
        }
        json.push_str("      ],\n");
        json.push_str("      \"sched_delay\": {\n");
        json.push_str(&format!(
            "        \"baseline_mean_ns\": {},\n",
            json_f(base_sd.mean())
        ));
        json.push_str(&format!(
            "        \"es2_mean_ns\": {},\n",
            json_f(es2_sd.mean())
        ));
        json.push_str(&format!(
            "        \"baseline_p99_ns\": {},\n",
            base_sd.p99()
        ));
        json.push_str(&format!("        \"es2_p99_ns\": {},\n", es2_sd.p99()));
        json.push_str(&format!(
            "        \"baseline_max_ns\": {},\n",
            base_sd.max()
        ));
        json.push_str(&format!("        \"es2_max_ns\": {},\n", es2_sd.max()));
        json.push_str(&format!(
            "        \"reduction_percent\": {}\n",
            json_f(reduction)
        ));
        json.push_str("      }\n");
        json.push_str(if si + 1 < scenarios.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

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

    TraceOutput {
        report,
        json,
        chrome,
    }
}
