//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [table1] [fig4] [fig5] [fig6] [fig7] [fig8] [fig9] [sriov] [ablations] [chaos] [all] [--fast] [--traced] [--telemetered]
//! repro --trace [--fast]
//! repro --scale [--fast]
//! repro --hostile [--fast]
//! repro --migrate [--fast]
//! repro --churn [--fast]
//! repro --mq [--fast]
//! repro --telemetry [--fast]
//! ```
//!
//! `--fast` shortens warm-up/measurement windows (for CI smoke runs);
//! absolute rates then drift a little but shapes hold.
//!
//! `--trace` runs the event-path flight recorder over two
//! representative scenarios under Baseline / PI / full ES2 and prints
//! the per-stage latency decomposition (deterministic — `verify.sh`
//! diffs it across `ES2_THREADS`). The full JSON lands in
//! `BENCH_trace.json` (`target/BENCH_trace_fast.json` with `--fast`),
//! the Chrome-trace export in `target/BENCH_trace_chrome.json`.
//!
//! `--traced` turns the flight recorder on for the regular figure runs
//! without printing anything extra: the figures must come out
//! byte-identical to an untraced invocation (the tracer's
//! zero-perturbation contract, also diffed by `verify.sh`).
//!
//! `--telemetry` runs the windowed fleet-telemetry pipeline (1 ms
//! sim-time windows, SLO burn-rate evaluation, causal breach
//! attribution — DESIGN.md §14) over Baseline / PI / full ES2 across
//! the chaos, migrate and mq topologies. JSON lands in
//! `BENCH_telemetry.json` (`target/BENCH_telemetry_fast.json` with
//! `--fast`), the merged counter + span Chrome trace in
//! `target/BENCH_telemetry_chrome.json`. `--telemetered` mirrors
//! `--traced`: telemetry hooks on for the regular figure runs, output
//! byte-identical (cmp-gated in `verify.sh`).
//!
//! `--scale` runs the many-VM consolidation sweep: one httperf tenant
//! among HLT-idle neighbours at growing VM counts. JSON lands in
//! `BENCH_scale.json` (`target/BENCH_scale_fast.json` with `--fast`).
//!
//! `--migrate` runs the multi-host consolidation sweep: a cell of hosts
//! admits a TCP fleet, live-migrates more and more of it onto host 0,
//! and reports packing density, blackout p50/p99 and the consolidated
//! host's event-path p99, plus crash-evacuation and abort-rollback
//! recovery cells. JSON lands in `BENCH_migrate.json`
//! (`target/BENCH_migrate_fast.json` with `--fast`).
//!
//! `--churn` runs the tenant-churn control-plane sweep: a cell of
//! hosts carries a static fleet while a heavy-tailed arrival stream
//! admits, boots and departs churn tenants under the full
//! control-plane fault diet (placement failures, stuck boots, a host
//! crash, an aborted migration); the report compares admission rate,
//! retry-success ratio, boot p99 and the post-churn rx p99 against a
//! static fleet across Baseline / PI / full ES2. JSON lands in
//! `BENCH_churn.json` (`target/BENCH_churn_fast.json` with `--fast`).
//!
//! `--hostile` runs the hostile-guest blast-radius sweep: one VM runs
//! ring corruption + doorbell/EOI storms against a backpressured host
//! while a victim VM shares the cores; the report compares the victim's
//! goodput and rx p99 against the clean run and prints the containment
//! ledger. JSON lands in `BENCH_hostile.json`
//! (`target/BENCH_hostile_fast.json` with `--fast`).
//!
//! `--mq` runs the multi-queue virtio sweep: VM 0 drives a two-flow
//! TCP stream over q TX/RX pairs sharded across w vhost workers
//! (mux / affine / passthrough) at 64 and 128 VMs; the report
//! compares exit rate and rx p99 across the grid, headlining the
//! passthrough-vs-single-worker-mux dispatch hop at the densest cell.
//! JSON lands in `BENCH_mq.json` (`target/BENCH_mq_fast.json` with
//! `--fast`).
//!
//! `chaos` renders the seeded acceptance fault plan swept over the
//! paper's workload shapes. The output contains only deterministic
//! quantities, so `ES2_THREADS=1 repro chaos` and `repro chaos` must be
//! byte-identical — `verify.sh` diffs exactly that.
//!
//! Every report prints only deterministic quantities to stdout, which
//! `verify.sh` diffs between `ES2_THREADS=1` and the default thread
//! count. A `--fast` run writes its JSON under `target/` so it never
//! clobbers the committed full-window `BENCH_*.json`.
//!
//! An argument that is none of the above exits with status 2 before
//! anything runs.

use es2_bench::*;
use es2_sim::SimDuration;
use es2_testbed::Params;

/// With the `ev-profile` feature on, dump the per-event-kind dispatch
/// profile accumulated so far to stderr (stdout stays deterministic).
fn dump_ev_profile() {
    #[cfg(feature = "ev-profile")]
    eprintln!("{}", es2_metrics::ev_profile::render(es2_testbed::EV_KIND_NAMES));
}

/// A report subcommand: runs at `(params, seed, fast)` and returns its
/// deterministic stdout report, its JSON and an optional Chrome trace.
type Report = fn(Params, u64, bool) -> (String, String, Option<String>);

/// The report subcommands: flag, stem of the `BENCH_<stem>.json` they
/// write, and the report they run. The first flag present wins.
const REPORTS: &[(&str, &str, Report)] = &[
    ("--trace", "trace", |p, seed, fast| {
        let out = trace::trace_report(p, seed, fast);
        (out.report, out.json, Some(out.chrome))
    }),
    ("--scale", "scale", |p, seed, fast| {
        let (report, json) = scale::scale_report(p, seed, fast);
        (report, json, None)
    }),
    ("--migrate", "migrate", |p, seed, fast| {
        let (report, json) = migrate::migrate_report(p, seed, fast);
        (report, json, None)
    }),
    ("--churn", "churn", |p, seed, fast| {
        let (report, json) = churn::churn_report(p, seed, fast);
        (report, json, None)
    }),
    ("--telemetry", "telemetry", |p, seed, fast| {
        let (report, json, chrome) = telemetry::telemetry_report(p, seed, fast);
        (report, json, Some(chrome))
    }),
    ("--mq", "mq", |p, seed, fast| {
        let (report, json) = mq::mq_report(p, seed, fast);
        (report, json, None)
    }),
    ("--hostile", "hostile", |p, seed, fast| {
        let (report, json) = hostile::hostile_report(p, seed, fast);
        (report, json, None)
    }),
];

/// The figure experiments, in the order `all` runs them.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "sriov",
    "ablations",
    "chaos",
];

/// Flags that modify a run rather than select one.
const MODIFIERS: &[&str] = &["--fast", "--traced", "--telemetered"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        let known = a == "all"
            || EXPERIMENTS.contains(&a.as_str())
            || MODIFIERS.contains(&a.as_str())
            || REPORTS.iter().any(|(flag, _, _)| flag == a);
        if !known {
            let reports: Vec<&str> = REPORTS.iter().map(|(flag, _, _)| *flag).collect();
            eprintln!("repro: unknown argument: {a}");
            eprintln!("  experiments: {} all", EXPERIMENTS.join(" "));
            eprintln!("  reports:     {}", reports.join(" "));
            eprintln!("  modifiers:   {}", MODIFIERS.join(" "));
            std::process::exit(2);
        }
    }
    let fast = args.iter().any(|a| a == "--fast");
    let traced = args.iter().any(|a| a == "--traced");

    if let Some((_, stem, run)) = REPORTS
        .iter()
        .find(|(flag, _, _)| args.iter().any(|a| a == flag))
    {
        let mut params = Params {
            trace: traced,
            ..Params::default()
        };
        if fast {
            params.warmup = SimDuration::from_millis(50);
            params.measure = SimDuration::from_millis(200);
        }
        let (report, json, chrome) = run(params, SEED, fast);
        print!("{report}");
        let path = if fast {
            format!("target/BENCH_{stem}_fast.json")
        } else {
            format!("BENCH_{stem}.json")
        };
        let chrome = chrome.map(|c| (format!("target/BENCH_{stem}_chrome.json"), c));
        for (p, content) in std::iter::once((path, json)).chain(chrome) {
            match std::fs::write(&p, content) {
                Ok(()) => eprintln!("wrote {p}"),
                Err(e) => eprintln!("could not write {p}: {e}"),
            }
        }
        dump_ev_profile();
        return;
    }

    let mut what: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if what.is_empty() || what.contains(&"all") {
        what = EXPERIMENTS.to_vec();
    }

    // --traced: flight recorder on, output unchanged — the figures must
    // be byte-identical to an untraced run (verify.sh checks).
    // --telemetered: same contract for the windowed telemetry recorder.
    let mut params = Params {
        trace: traced,
        telemetry: args.iter().any(|a| a == "--telemetered"),
        ..Params::default()
    };
    if fast {
        params.warmup = SimDuration::from_millis(100);
        params.measure = SimDuration::from_millis(400);
    }

    for w in what {
        match w {
            "table1" => println!("{}", render_table1(params, SEED)),
            "fig4" => println!("{}", render_fig4(params, SEED)),
            "fig5" => println!("{}", render_fig5(params, SEED)),
            "fig6" => {
                let sizes: &[u32] = if fast {
                    &[256, 1024]
                } else {
                    &[64, 256, 512, 1024, 2048]
                };
                println!("{}", render_fig6(params, SEED, sizes));
            }
            "fig7" => {
                // Ping needs a long run for enough 1 s samples.
                let mut p = params;
                p.measure = if fast {
                    SimDuration::from_secs(10)
                } else {
                    SimDuration::from_secs(30)
                };
                println!("{}", render_fig7(p, SEED));
            }
            "fig8" => println!("{}", render_fig8(params, SEED)),
            "fig9" => {
                let rates: &[f64] = if fast {
                    &[1000.0, 1400.0, 1800.0, 2200.0, 2600.0, 3000.0]
                } else {
                    &[
                        200.0, 600.0, 1000.0, 1400.0, 1600.0, 1800.0, 2000.0, 2200.0, 2400.0,
                        2600.0, 2800.0, 3000.0,
                    ]
                };
                println!("{}", render_fig9(params, SEED, rates));
            }
            "sriov" => println!("{}", render_sriov(params, SEED)),
            "chaos" => {
                let mut p = params;
                if fast {
                    p.warmup = SimDuration::from_millis(50);
                    p.measure = SimDuration::from_millis(300);
                }
                println!("{}", render_chaos(p, SEED));
            }
            "ablations" => {
                let mut p = params;
                p.measure = if fast {
                    SimDuration::from_secs(4)
                } else {
                    SimDuration::from_secs(15)
                };
                println!("{}", render_ablations(p, SEED));
            }
            other => unreachable!("unvalidated experiment {other}"),
        }
    }
}
