//! `repro selfcheck`: the repository's end-to-end determinism checks,
//! as one table run in-process.
//!
//! Each `Check` row runs `repro <args> --fast` through the same
//! [`crate::cli`] path as the command line, on one sweep thread, and
//! holds it to what the row asks. The first failure stops the table,
//! naming the row and the first differing line. A report row writes its
//! serial JSON where `repro <flag> --fast` does.

use es2_sim::exec;
use es2_testbed::Params;

use crate::cli::{self, Artifacts, Command};

/// A golden file a row's serial stdout is held to: `(path, contents)`.
pub(crate) enum Golden {
    None,
    /// The file is a prefix of stdout, which may append to it.
    Prefix(&'static str, &'static str),
    /// The file is all of stdout.
    Exact(&'static str, &'static str),
}

/// One row of the self-check table.
pub(crate) struct Check {
    /// The `repro` arguments the row runs; `--fast` is implied.
    args: &'static [&'static str],
    /// Compare the serial run against N threads (stdout and JSON).
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

const CHAOS_GOLDEN: Golden = Golden::Prefix(
    "ci/golden_chaos_fast.txt",
    include_str!("../../../ci/golden_chaos_fast.txt"),
);
const MQ_GOLDEN: Golden = Golden::Exact(
    "ci/golden_mq_fast.txt",
    include_str!("../../../ci/golden_mq_fast.txt"),
);

/// A row that runs every comparison and asks nothing else.
const ROW: Check = Check {
    args: &[],
    threads: true,
    recorders: true,
    contains: &[],
    excludes: &[],
    golden: Golden::None,
};

/// The table `repro selfcheck` runs, in order. `--trace` and
/// `--telemetry` turn one recorder on themselves, so they skip that
/// comparison; `table1 fig4` leaves threads to `parallel_determinism.rs`.
#[rustfmt::skip]
pub(crate) const CHECKS: &[Check] = &[
    Check { args: &["chaos"], contains: &["liveness: PASS", "cell liveness: PASS"],
            golden: CHAOS_GOLDEN, ..ROW },
    Check { args: &["table1", "fig4"], threads: false, ..ROW },
    Check { args: &["--scale"], contains: &["PASS (0 violations)"], ..ROW },
    Check { args: &["--trace"], recorders: false, contains: &["sched-delay"], ..ROW },
    Check { args: &["--hostile"], contains: &["liveness: PASS", "leaked to neighbors: 0"], ..ROW },
    Check { args: &["--migrate"], contains: &["PASS"], excludes: &["FAIL"], ..ROW },
    Check { args: &["--churn"], contains: &["PASS"], excludes: &["FAIL"], ..ROW },
    Check { args: &["--mq"], contains: &["PASS"], excludes: &["FAIL"], golden: MQ_GOLDEN, ..ROW },
    Check { args: &["--telemetry"], recorders: false, contains: &["SLO breaches"], ..ROW },
];

/// A change to the params a run uses on top of the command line's.
pub(crate) type Tweak = fn(Params) -> Params;

/// Run `repro <args> --fast` in-process on `threads` sweep threads with
/// its params passed through `tweak`: its stdout and, for a report, its
/// artifacts.
pub fn render(args: &[&str], threads: usize, tweak: Tweak) -> (String, Option<Artifacts>) {
    let args: Vec<&str> = args.iter().copied().chain(["--fast"]).collect();
    let Ok(Command::Run { selection, fast }) = cli::parse(&args) else {
        panic!("selfcheck row {args:?} is not a repro run");
    };
    let params = tweak(cli::params(&selection, fast));
    exec::set_threads(Some(threads));
    let mut out = Vec::new();
    let artifacts = cli::run(&selection, params, fast, &mut out).expect("write to memory");
    exec::set_threads(None);
    (
        String::from_utf8(out).expect("reports are UTF-8"),
        artifacts,
    )
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
        let (stdout, artifacts) = render(self.args, 1, |p| p);
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
            let (other, other_artifacts) = render(self.args, threads, tweak);
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
        let (path, text, lines) = match self.golden {
            Golden::None => return Ok(()),
            Golden::Prefix(path, text) => (path, text, text.lines().count()),
            Golden::Exact(path, text) => (path, text, usize::MAX),
        };
        let head: String = stdout.split_inclusive('\n').take(lines).collect();
        same(path, text, "stdout", &head).map_err(|e| format!("golden {e}"))
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
