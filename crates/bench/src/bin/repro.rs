//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [table1] [fig4] [fig5] [fig6] [fig7] [fig8] [fig9] [sriov] [ablations] [chaos] [all] [--fast]
//! repro --trace|--scale|--hostile|--migrate|--churn|--mq|--telemetry [--fast]
//! repro selfcheck
//! ```
//!
//! `--fast` shortens warm-up/measurement windows (for CI smoke runs);
//! absolute rates then drift a little but shapes hold.
//!
//! Each report flag runs one sweep, documented in the `es2_bench`
//! module of the same name: `--trace` (event-path stage decomposition),
//! `--scale` (many-VM consolidation), `--migrate` (multi-host live
//! migration), `--churn` (tenant churn under control-plane faults),
//! `--hostile` (hostile-guest blast radius), `--mq` (multi-queue virtio)
//! and `--telemetry` (windowed fleet telemetry and SLOs). A report
//! writes its JSON to `BENCH_<name>.json`, or with `--fast` to
//! `target/BENCH_<name>_fast.json` so it never clobbers the committed
//! full-window file; `--trace` and `--telemetry` also write a Chrome
//! trace to `target/BENCH_<name>_chrome.json`. `chaos` renders the
//! seeded acceptance fault plan swept over the paper's workload shapes.
//! Everything printed to stdout is deterministic.
//!
//! `selfcheck` runs the determinism table of [`es2_bench::selfcheck`]
//! and exits 1 naming the first failing row and line.
//!
//! An argument that is none of the above, or a second selection (two
//! reports, a report and an experiment, `selfcheck` with anything),
//! exits with status 2 before anything runs. A report that cannot write
//! its JSON exits with status 1; with `--fast` a missing `target/` is
//! caught before simulating. A run in which any cell's liveness verdict
//! fails also exits with status 1, after printing and writing
//! everything, and names the failed cells on stderr.

use std::path::Path;

use es2_bench::cli::{self, Artifacts, Command, Selection, EXPERIMENTS, REPORTS};

/// With the `ev-profile` feature on, dump the per-event-kind dispatch
/// profile accumulated so far to stderr (stdout stays deterministic).
fn dump_ev_profile() {
    #[cfg(feature = "ev-profile")]
    eprintln!(
        "{}",
        es2_metrics::ev_profile::render(es2_testbed::EV_KIND_NAMES)
    );
}

/// Exit 1 before simulating when a `--fast` artifact has no `target/`
/// directory to land in.
fn require_target(path: &str) {
    if !Path::new("target").is_dir() {
        eprintln!("repro: cannot write {path}: no target/ directory here");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selection, fast) = match cli::parse(&args) {
        Ok(Command::Run { selection, fast }) => (selection, fast),
        Ok(Command::SelfCheck) => {
            require_target("target/BENCH_*_fast.json");
            if let Err(e) = es2_bench::selfcheck::run() {
                eprintln!("repro selfcheck: FAIL {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            let reports: Vec<&str> = REPORTS.iter().map(|(flag, _, _)| *flag).collect();
            eprintln!("repro: {e}");
            eprintln!("  experiments: {} all", EXPERIMENTS.join(" "));
            eprintln!("  reports:     {}", reports.join(" "));
            eprintln!("  modifiers:   --fast");
            eprintln!("  self-check:  selfcheck");
            std::process::exit(2);
        }
    };
    if let (Selection::Report((_, stem, _)), true) = (&selection, fast) {
        require_target(&Artifacts::path(stem, true));
    }
    let mut out = std::io::stdout().lock();
    let (artifacts, verdict) = cli::run(&selection, cli::params(&selection, fast), fast, &mut out)
        .unwrap_or_else(|e| {
            eprintln!("repro: cannot write stdout: {e}");
            std::process::exit(1);
        });
    let mut ok = true;
    if let Some(artifacts) = artifacts {
        ok = artifacts.write(fast);
        dump_ev_profile();
    }
    if let Err(e) = verdict {
        eprintln!("repro: {e}");
        ok = false;
    }
    std::process::exit(i32::from(!ok));
}
