//! The `repro` command line: argument parsing, the `--fast` params and
//! the dispatch from a selection to the experiment or report it runs.
//!
//! The `repro` binary and [`crate::selfcheck`] both go through these
//! functions, so a self-check row runs exactly what the same arguments
//! run on the command line.

use std::io::{self, Write};

use es2_metrics::json::Json;
use es2_sim::SimDuration;
use es2_testbed::Params;

use crate::*;

/// A report subcommand: runs at `(params, seed, fast)` and returns its
/// deterministic stdout report, its JSON and an optional Chrome trace.
pub type Report = fn(Params, u64, bool) -> (String, Json, Option<Json>);

/// The report subcommands: flag, stem of the `BENCH_<stem>.json` they
/// write, and the report they run.
pub const REPORTS: &[(&str, &str, Report)] = &[
    ("--trace", "trace", trace::trace_report),
    ("--scale", "scale", scale::scale_report),
    ("--migrate", "migrate", migrate::migrate_report),
    ("--churn", "churn", churn::churn_report),
    ("--telemetry", "telemetry", telemetry::telemetry_report),
    ("--mq", "mq", mq::mq_report),
    ("--hostile", "hostile", hostile::hostile_report),
];

/// The figure experiments, in the order `all` runs them.
pub const EXPERIMENTS: &[&str] = &[
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

/// What one invocation runs.
pub enum Selection {
    /// Figure experiments, printed in the order given.
    Experiments(Vec<&'static str>),
    /// One report subcommand: its [`REPORTS`] entry.
    Report(&'static (&'static str, &'static str, Report)),
}

/// A parsed `repro` command line.
pub enum Command {
    /// Run a selection, with `--fast` windows or the full ones.
    Run { selection: Selection, fast: bool },
    /// Run the [`crate::selfcheck`] table.
    SelfCheck,
}

/// Parse `repro`'s arguments. No argument runs `all`. An unknown
/// argument, or a second selection next to the first (two reports, a
/// report and an experiment, `selfcheck` and anything), is an error
/// naming it.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Command, String> {
    let mut fast = false;
    let mut experiments = Vec::new();
    // The arguments that select a run: reports, `selfcheck`, and the
    // first word of the experiment list (a list is one selection).
    let mut picks: Vec<&'static str> = Vec::new();
    let mut list = None;
    let mut reports = Vec::new();
    for a in args.iter().map(AsRef::as_ref) {
        if a == "--fast" {
            fast = true;
        } else if a == "all" {
            experiments.extend_from_slice(EXPERIMENTS);
            list.get_or_insert("all");
        } else if let Some(&e) = EXPERIMENTS.iter().find(|&&e| e == a) {
            experiments.push(e);
            list.get_or_insert(e);
        } else if let Some(report) = REPORTS.iter().find(|r| r.0 == a) {
            reports.push(report);
            picks.push(report.0);
        } else if a == "selfcheck" {
            picks.push("selfcheck");
        } else {
            return Err(format!("unknown argument: {a}"));
        }
    }
    picks.extend(list);
    let selection = match picks[..] {
        [] => Selection::Experiments(EXPERIMENTS.to_vec()),
        ["selfcheck"] if !fast => return Ok(Command::SelfCheck),
        ["selfcheck"] => return Err("selfcheck takes no other argument".into()),
        [_] if !reports.is_empty() => Selection::Report(reports[0]),
        [_] => Selection::Experiments(experiments),
        [a, b, ..] => {
            return Err(format!(
                "{a} and {b} select two runs: give one report, a list of experiments, \
                 or selfcheck alone"
            ))
        }
    };
    Ok(Command::Run { selection, fast })
}

/// The params a selection runs at: the defaults, with `--fast`
/// shortening the warm-up and measurement windows.
pub fn params(selection: &Selection, fast: bool) -> Params {
    let mut params = Params::default();
    if fast {
        let (warmup, measure) = match selection {
            Selection::Report(_) => (50, 200),
            Selection::Experiments(_) => (100, 400),
        };
        params.warmup = SimDuration::from_millis(warmup);
        params.measure = SimDuration::from_millis(measure);
    }
    params
}

/// Run the figure experiment `name` at `params` and render it.
fn experiment(name: &str, params: Params, fast: bool) -> String {
    match name {
        "table1" => render_table1(params, SEED),
        "fig4" => render_fig4(params, SEED),
        "fig5" => render_fig5(params, SEED),
        "fig6" => {
            let sizes: &[u32] = if fast {
                &[256, 1024]
            } else {
                &[64, 256, 512, 1024, 2048]
            };
            render_fig6(params, SEED, sizes)
        }
        "fig7" => {
            // Ping needs a long run for enough 1 s samples.
            let mut p = params;
            p.measure = SimDuration::from_secs(if fast { 10 } else { 30 });
            render_fig7(p, SEED)
        }
        "fig8" => render_fig8(params, SEED),
        "fig9" => {
            let rates: &[f64] = if fast {
                &[1000.0, 1400.0, 1800.0, 2200.0, 2600.0, 3000.0]
            } else {
                &[
                    200.0, 600.0, 1000.0, 1400.0, 1600.0, 1800.0, 2000.0, 2200.0, 2400.0, 2600.0,
                    2800.0, 3000.0,
                ]
            };
            render_fig9(params, SEED, rates)
        }
        "sriov" => render_sriov(params, SEED),
        "chaos" => {
            let mut p = params;
            if fast {
                p.warmup = SimDuration::from_millis(50);
                p.measure = SimDuration::from_millis(300);
            }
            render_chaos(p, SEED)
        }
        "ablations" => {
            let mut p = params;
            p.measure = SimDuration::from_secs(if fast { 4 } else { 15 });
            render_ablations(p, SEED)
        }
        other => unreachable!("unparsed experiment {other}"),
    }
}

/// A report's artifacts: its JSON and an optional Chrome trace.
pub struct Artifacts {
    /// Stem of the `BENCH_<stem>.json` the JSON lands in.
    stem: &'static str,
    pub(crate) json: Json,
    chrome: Option<Json>,
}

/// Run `selection` at `params`, writing its stdout to `out` as each
/// part finishes. A report also returns its artifacts. `out` is flushed
/// before returning, as `repro` may exit right after.
pub fn run(
    selection: &Selection,
    params: Params,
    fast: bool,
    out: &mut impl Write,
) -> io::Result<Option<Artifacts>> {
    let artifacts = match selection {
        Selection::Experiments(names) => {
            for name in names {
                writeln!(out, "{}", experiment(name, params, fast))?;
            }
            None
        }
        &Selection::Report(&(_, stem, report)) => {
            let (text, json, chrome) = report(params, SEED, fast);
            write!(out, "{text}")?;
            Some(Artifacts { stem, json, chrome })
        }
    };
    out.flush()?;
    Ok(artifacts)
}

impl Artifacts {
    /// Where the JSON lands: the committed `BENCH_<stem>.json`, or
    /// `target/BENCH_<stem>_fast.json` for a `--fast` run so it never
    /// clobbers the full-window file.
    pub fn path(stem: &str, fast: bool) -> String {
        if fast {
            format!("target/BENCH_{stem}_fast.json")
        } else {
            format!("BENCH_{stem}.json")
        }
    }

    /// Write the JSON, and the Chrome trace to
    /// `target/BENCH_<stem>_chrome.json`, naming each file on stderr.
    /// Returns whether every write succeeded.
    pub fn write(&self, fast: bool) -> bool {
        let chrome = self
            .chrome
            .as_ref()
            .map(|c| (format!("target/BENCH_{}_chrome.json", self.stem), c));
        let mut ok = true;
        for (path, doc) in std::iter::once((Self::path(self.stem, fast), &self.json)).chain(chrome)
        {
            match std::fs::write(&path, format!("{doc}\n")) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("could not write {path}: {e}");
                    ok = false;
                }
            }
        }
        ok
    }
}
