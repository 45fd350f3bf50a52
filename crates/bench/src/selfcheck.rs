//! `repro selfcheck`: the repository's end-to-end determinism checks,
//! as one table run in-process.
//!
//! Each `Check` row runs `repro <args> --fast` through the same
//! [`crate::cli`] path as the command line, on one sweep thread, and
//! holds it to what the row asks. The first failure stops the table,
//! naming the row and the first differing line. A report row writes its
//! serial JSON where `repro <flag> --fast` does, and holds it byte for
//! byte to a golden.

use es2_sim::exec;
use es2_testbed::Params;

use crate::cli::{self, Artifacts, Command, Selection};

/// The golden files a row's serial output is held to, each as
/// `(path, contents)`.
pub(crate) struct Golden {
    /// `ci/golden_<stem>_fast.txt`, held to all of stdout.
    stdout: (&'static str, &'static str),
    /// `ci/golden_<stem>_fast.json`, held to the JSON a report row
    /// writes. A row that writes JSON must have one.
    json: Option<(&'static str, &'static str)>,
}

/// One row of the self-check table.
pub(crate) struct Check {
    /// The `repro` arguments the row runs; `--fast` is implied.
    args: &'static [&'static str],
    /// Compare the serial run against N threads (stdout and JSON). The
    /// N-thread run must hand at least two jobs to worker threads.
    threads: bool,
    /// Compare the serial run against runs with `Params::trace` on,
    /// with `Params::telemetry` on, and with both on (stdout and JSON).
    recorders: bool,
    /// Substrings the serial stdout must contain.
    contains: &'static [&'static str],
    /// Substrings no line of the serial stdout may contain.
    excludes: &'static [&'static str],
    golden: Golden,
}

/// The goldens `ci/golden_<stem>_fast.*` of a row: `Exact` holds stdout
/// to the `.txt`; `Report` holds stdout to the `.txt` and the JSON to the
/// `.json`.
macro_rules! golden {
    (@file $stem:literal, $ext:literal) => {
        (
            concat!("ci/golden_", $stem, "_fast.", $ext),
            include_str!(concat!("../../../ci/golden_", $stem, "_fast.", $ext)),
        )
    };
    (Exact, $stem:literal) => {
        Golden { stdout: golden!(@file $stem, "txt"), json: None }
    };
    (Report, $stem:literal) => {
        Golden {
            stdout: golden!(@file $stem, "txt"),
            json: Some(golden!(@file $stem, "json")),
        }
    };
}

/// A row that runs every comparison and holds stdout to `golden`.
const fn row(args: &'static [&'static str], golden: Golden) -> Check {
    Check {
        args,
        threads: true,
        recorders: true,
        contains: &[],
        excludes: &[],
        golden,
    }
}

/// The table `repro selfcheck` runs, in order. `--trace` and
/// `--telemetry` turn one recorder on themselves, so they skip that
/// comparison; `table1 fig4` leaves threads to `parallel_determinism.rs`.
#[rustfmt::skip]
pub(crate) const CHECKS: &[Check] = &[
    Check { contains: &["liveness: PASS", "cell liveness: PASS"],
            ..row(&["chaos"], golden!(Exact, "chaos")) },
    Check { threads: false, ..row(&["table1", "fig4"], golden!(Exact, "table1_fig4")) },
    Check { contains: &["PASS (0 violations)"], ..row(&["--scale"], golden!(Report, "scale")) },
    Check { recorders: false, contains: &["sched-delay"],
            ..row(&["--trace"], golden!(Report, "trace")) },
    Check { contains: &["liveness: PASS", "leaked to neighbors: 0"],
            ..row(&["--hostile"], golden!(Report, "hostile")) },
    Check { contains: &["PASS"], excludes: &["FAIL"],
            ..row(&["--migrate"], golden!(Report, "migrate")) },
    Check { contains: &["PASS"], excludes: &["FAIL"],
            ..row(&["--churn"], golden!(Report, "churn")) },
    Check { contains: &["PASS"], excludes: &["FAIL"], ..row(&["--mq"], golden!(Report, "mq")) },
    Check { recorders: false, contains: &["SLO breaches"],
            ..row(&["--telemetry"], golden!(Report, "telemetry")) },
];

/// A change to the params a run uses on top of the command line's.
pub(crate) type Tweak = fn(Params) -> Params;

/// What a rendered run printed, and a report's artifacts; `Err` when a
/// cell's liveness verdict failed.
pub type Rendering = Result<(String, Option<Artifacts>), String>;

/// Run `repro <args> --fast` in-process on `threads` sweep threads with
/// its params passed through `tweak`.
pub fn render(args: &[&str], threads: usize, tweak: Tweak) -> Rendering {
    let args: Vec<&str> = args.iter().copied().chain(["--fast"]).collect();
    let Ok(Command::Run { selection, fast }) = cli::parse(&args) else {
        panic!("selfcheck row {args:?} is not a repro run");
    };
    render_selection(&selection, fast, threads, tweak)
}

fn render_selection(selection: &Selection, fast: bool, threads: usize, tweak: Tweak) -> Rendering {
    let params = tweak(cli::params(selection, fast));
    exec::set_threads(Some(threads));
    let mut out = Vec::new();
    let (artifacts, verdict) =
        cli::run(selection, params, fast, &mut out).expect("write to memory");
    exec::set_threads(None);
    verdict?;
    Ok((
        String::from_utf8(out).expect("reports are UTF-8"),
        artifacts,
    ))
}

/// `Err` unless a run handed at least two jobs to worker threads: with
/// fewer, comparing it against the serial run shows nothing.
fn parallel_enough(dispatched: usize) -> Result<(), String> {
    if dispatched >= 2 {
        Ok(())
    } else {
        Err(format!(
            "it handed {dispatched} job(s) to worker threads; a thread comparison needs 2"
        ))
    }
}

/// `Err` naming the first line where `got` departs from `want`.
fn same(want_label: &str, want: &str, got_label: &str, got: &str) -> Result<(), String> {
    let (w, g): (Vec<&str>, Vec<&str>) = (want.split('\n').collect(), got.split('\n').collect());
    let Some(i) = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i)) else {
        return Ok(());
    };
    let end = "<end of output>";
    Err(format!(
        "differs at line {}\n  {want_label}: {}\n  {got_label}: {}",
        i + 1,
        w.get(i).unwrap_or(&end),
        g.get(i).unwrap_or(&end)
    ))
}

impl Check {
    /// Run the row; `Err` describes the first failed comparison.
    fn run(&self, threads: usize) -> Result<(), String> {
        let (stdout, artifacts) = render(self.args, 1, |p| p)?;
        if artifacts.as_ref().is_some_and(|a| !a.write(true)) {
            return Err("could not write its JSON".into());
        }
        let json =
            |a: &Option<Artifacts>| a.as_ref().map(|a| a.json.to_string()).unwrap_or_default();
        let serial_json = json(&artifacts);
        let mut others: Vec<(String, usize, Tweak)> = Vec::new();
        if self.threads {
            others.push((format!("{threads} threads"), threads, |p| p));
        }
        if self.recorders {
            others.push(("trace on".into(), 1, |p| Params { trace: true, ..p }));
            others.push(("telemetry on".into(), 1, |p| Params {
                telemetry: true,
                ..p
            }));
            others.push(("trace + telemetry on".into(), 1, |p| Params {
                trace: true,
                telemetry: true,
                ..p
            }));
        }
        for (label, threads, tweak) in others {
            let before = exec::dispatched();
            let (other, other_artifacts) =
                render(self.args, threads, tweak).map_err(|e| format!("{label}: {e}"))?;
            if threads > 1 {
                parallel_enough(exec::dispatched() - before)
                    .map_err(|e| format!("{label}: {e}"))?;
            }
            same("serial", &stdout, &label, &other).map_err(|e| format!("stdout {e}"))?;
            same("serial", &serial_json, &label, &json(&other_artifacts))
                .map_err(|e| format!("JSON {e}"))?;
        }
        if let Some(s) = self.contains.iter().find(|s| !stdout.contains(*s)) {
            return Err(format!("stdout lacks `{s}`"));
        }
        for s in self.excludes {
            if let Some((n, line)) = stdout.lines().enumerate().find(|(_, l)| l.contains(s)) {
                return Err(format!("stdout line {} contains `{s}`: {line}", n + 1));
            }
        }
        let (path, text) = self.golden.stdout;
        same(path, text, "stdout", &stdout).map_err(|e| format!("golden {e}"))?;
        match self.golden.json {
            Some((path, text)) => same(path, text, "JSON", &format!("{serial_json}\n"))
                .map_err(|e| format!("golden {e}")),
            None if artifacts.is_some() => Err("wrote JSON that no golden holds".into()),
            None => Ok(()),
        }
    }
}

/// Run every row of `CHECKS`, printing one line per passing row.
/// `Err` names the first failing row and what failed in it.
pub fn run() -> Result<(), String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2);
    for check in CHECKS {
        let name = check.args.join(" ");
        check
            .run(threads)
            .map_err(|e| format!("row `{name}`: {e}"))?;
        println!("selfcheck {name}: ok");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{Rendered, Report};
    use es2_metrics::json::Json;

    fn stub(failed: &[&str]) -> Rendered {
        let own = Json::object().with("own", 1u32);
        let failed = failed.iter().map(|s| s.to_string()).collect();
        ("stub\n".into(), own, None, failed)
    }

    static PASSING: (&str, &str, Report) = ("--passing", "passing", |_, _, _| stub(&[]));
    static FAILING: (&str, &str, Report) = ("--failing", "failing", |_, _, _| stub(&["cell b"]));

    #[test]
    fn a_failing_verdict_fails_the_run_and_its_selfcheck_render() {
        for (report, failed) in [(&PASSING, false), (&FAILING, true)] {
            let selection = Selection::Report(report);
            let mut out = Vec::new();
            let (artifacts, verdict) =
                cli::run(&selection, Params::default(), true, &mut out).unwrap();
            assert_eq!(out, b"stub\n", "stdout prints whatever the verdict");
            let json = artifacts.expect("a report's artifacts").json.to_string();
            assert_eq!(
                json,
                format!(
                    "{{\n  \"harness\": \"repro {}\",\n  \"fast\": true,\n  \"seed\": {},\n  \"own\": 1\n}}",
                    report.0,
                    crate::SEED
                )
            );
            let want = failed.then(|| "FAIL verdict in cell b".to_string());
            assert_eq!(verdict.err(), want);
            assert_eq!(render_selection(&selection, true, 1, |p| p).err(), want);
        }
    }

    #[test]
    fn a_thread_comparison_that_dispatched_one_job_fails() {
        assert!(parallel_enough(0).is_err());
        assert!(parallel_enough(1).is_err());
        assert!(parallel_enough(2).is_ok());
    }
}
