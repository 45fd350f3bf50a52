//! `perfbench`: host-time benchmark of the ES2 simulator.
//!
//! Runs one workload (see `jobs.rs`) as a fixed batch of simulation jobs,
//! over and over for `--seconds`, at the default executor settings, and
//! checks every job's result against a forced-serial reference computed
//! in the same process before timing starts. Built plain it reports the
//! end-to-end metrics; built with the `ev-profile` feature (the traced
//! build) it reports the per-layer split instead.
//!
//! ```text
//! perfbench --workload <sweep|dense|cell> --seed <n> --seconds <s>
//!           [--spans-out <file>] [--git-rev <rev>]
//!           [--untraced-wall <s>] [--expect-digest <hex>]
//! ```
//!
//! `run.py` next to this package builds both forms and drives them. The
//! last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.

mod jobs;
mod measure;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use es2_sim::exec;
use jobs::{Job, Reference, Tally, Timed, Windows, Workload};
use measure::{cpu_time, median, peak_rss_mib, thread_no, Fnv, Span};

/// A run always measures at least this many batches, however long.
const MIN_BATCHES: usize = 3;

/// Forced-serial batch pairs (telemetry on, off) behind the traced
/// `cell` overhead rows.
const OVERHEAD_PAIRS: usize = 10;

/// The event kinds the traced run reports one by one.
const KINDS: [&str; 11] = [
    "SegDone",
    "ArriveAtExt",
    "ArriveAtHost",
    "PiNotifyIpi",
    "HandlerRequeue",
    "KickIpi",
    "Tick",
    "GuestTimer",
    "VmBoot",
    "VmDepart",
    "MigrateStart",
];

/// The traced run's counts read from the results (all in [`Tally`]).
const COUNTS: [&str; 23] = [
    "testbed.migrations",
    "testbed.boots",
    "testbed.recoveries",
    "testbed.orphans",
    "testbed.liveness_violations",
    "sim.events",
    "sim.faults_injected",
    "metrics.telemetry_windows",
    "sched.ctx_switches",
    "hypervisor.exits",
    "hypervisor.exits.io_instruction",
    "hypervisor.exits.external_interrupt",
    "hypervisor.exits.apic_access",
    "apic.deliveries_posted",
    "apic.deliveries_emulated",
    "apic.degradations",
    "core.redirections",
    "core.polling_entries",
    "core.parked_irqs",
    "virtio.kicks",
    "virtio.quarantines",
    "net.rx_interrupts",
    "net.backlog_drops",
];

const TRACED: bool = cfg!(feature = "ev-profile");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_out: Option<String>,
    git_rev: String,
    untraced_wall: Option<f64>,
    expect_digest: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds) = (None, None, None);
        let mut args = Args {
            workload: Workload::Sweep,
            seed: 0,
            seconds: 0.0,
            spans_out: None,
            git_rev: "unknown".to_string(),
            untraced_wall: None,
            expect_digest: None,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds must be in (0, 3600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--spans-out" => args.spans_out = Some(value),
                "--git-rev" => args.git_rev = value,
                "--untraced-wall" => {
                    args.untraced_wall = Some(value.parse::<f64>().map_err(|_| bad())?)
                }
                "--expect-digest" => args.expect_digest = Some(value),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = seconds.ok_or("--seconds is required")?;
        Ok(args)
    }
}

/// What one timed batch (every job of the workload, once) measured.
struct Batch {
    wall: f64,
    cpu: f64,
    /// Summed time inside the constructors.
    setup: f64,
    /// Summed time inside `run()`.
    run: f64,
    /// Time the executor's workers spent on jobs: the summed job spans
    /// under `exec::sweep`; the process CPU time under the cluster lane
    /// executor, whose workers the benchmark cannot see.
    busy: f64,
    /// Digest checks, after the timed section.
    check: f64,
    /// `(count, nanos)` per event kind (traced build only).
    profile: Vec<(u64, u64)>,
    /// Executions that panicked, differed from the reference, or belong
    /// to a job whose reference found a problem.
    failed: usize,
}

struct Bench {
    workload: Workload,
    jobs: usize,
    workers: usize,
    batches: Vec<Batch>,
    spans: Vec<Span>,
    /// Digest over every job's reference digest, in job order.
    sim_digest: u64,
    tally: Tally,
    /// Traced `cell` only: default-thread wall minus forced-serial wall.
    lane_overhead: f64,
    /// Traced `cell` only: forced-serial wall with telemetry on minus off.
    telemetry_overhead: f64,
    /// Peak resident memory after the forced-serial reference pass, MiB.
    peak_rss: f64,
    /// Anything that makes the run incorrect besides failed jobs.
    errors: Vec<String>,
}

impl Bench {
    fn med(&self, f: impl Fn(&Batch) -> f64) -> f64 {
        median(&self.batches.iter().map(f).collect::<Vec<_>>())
    }

    fn attempted(&self) -> usize {
        self.jobs * self.batches.len()
    }

    fn failed(&self) -> usize {
        self.batches.iter().map(|b| b.failed).sum()
    }
}

fn run_jobs(w: Workload, jobs: &[Job]) -> Vec<Timed> {
    if w.through_sweep() {
        exec::sweep(jobs, jobs::run_timed)
    } else {
        jobs.iter().map(jobs::run_timed).collect()
    }
}

#[cfg(feature = "ev-profile")]
fn profile_reset() {
    es2_metrics::ev_profile::reset();
}

#[cfg(not(feature = "ev-profile"))]
fn profile_reset() {}

/// `(count, nanos)` per kind of `EV_KIND_NAMES`, and the overflow count.
#[cfg(feature = "ev-profile")]
fn profile_snapshot() -> (Vec<(u64, u64)>, u64) {
    use es2_metrics::ev_profile;
    let kinds = es2_testbed::EV_KIND_NAMES.len();
    let snap = ev_profile::snapshot(kinds);
    // Kinds past the profiler's table cannot be attributed: count them
    // as overflow so the completeness check catches them.
    let unnamed = kinds.saturating_sub(snap.len()) as u64;
    (snap, ev_profile::overflow_count() + unnamed)
}

#[cfg(not(feature = "ev-profile"))]
fn profile_snapshot() -> (Vec<(u64, u64)>, u64) {
    (Vec::new(), 0)
}

fn run_batch(
    w: Workload,
    jobs: &[Job],
    refs: &[Result<Reference, String>],
    batch: usize,
    spans: &mut Vec<Span>,
    errors: &mut Vec<String>,
) -> Batch {
    profile_reset();
    let cpu0 = cpu_time();
    let t0 = Instant::now();
    let timed = run_jobs(w, jobs);
    let t1 = Instant::now();
    let cpu = (cpu_time() - cpu0).as_secs_f64();
    let (profile, overflow) = profile_snapshot();
    if overflow > 0 {
        errors.push(format!(
            "batch {batch}: {overflow} events of kinds the profile cannot name"
        ));
    }

    let batch_span = spans.len();
    spans.push(Span {
        batch,
        job: None,
        name: "batch",
        thread: thread_no(),
        start: t0,
        end: t1,
        parent: None,
    });
    let mut setup = 0.0;
    let mut run = 0.0;
    let mut job_spans = Vec::with_capacity(timed.len());
    for (i, t) in timed.iter().enumerate() {
        let job = spans.len();
        job_spans.push(job);
        for (name, (start, end), parent) in [
            ("job", (t.setup.0, t.run.1), Some(batch_span)),
            ("setup", t.setup, Some(job)),
            ("run", t.run, Some(job)),
        ] {
            spans.push(Span {
                batch,
                job: Some(i),
                name,
                thread: t.thread,
                start,
                end,
                parent,
            });
        }
        setup += spans[job + 1].secs();
        run += spans[job + 2].secs();
    }
    let busy = if w.through_sweep() {
        job_spans.iter().map(|&j| spans[j].secs()).sum()
    } else {
        cpu
    };

    // The check runs after the timed section.
    let mut failed = 0;
    let mut check = 0.0;
    for (i, (t, r)) in timed.iter().zip(refs).enumerate() {
        let start = Instant::now();
        let ok = match (&t.output, r) {
            (Ok(out), Ok(r)) => r.problems.is_empty() && jobs::digest(out) == r.digest,
            _ => false,
        };
        let end = Instant::now();
        if let Err(msg) = &t.output {
            errors.push(format!("batch {batch} job {i} panicked: {msg}"));
        }
        failed += usize::from(!ok);
        check += (end - start).as_secs_f64();
        spans.push(Span {
            batch,
            job: Some(i),
            name: "check",
            thread: thread_no(),
            start,
            end,
            parent: Some(job_spans[i]),
        });
    }
    Batch {
        wall: (t1 - t0).as_secs_f64(),
        cpu,
        setup,
        run,
        busy,
        check,
        profile,
        failed,
    }
}

/// Wall time of one batch of `jobs`, outside the timed section.
fn batch_wall(w: Workload, jobs: &[Job], errors: &mut Vec<String>) -> f64 {
    let t0 = Instant::now();
    for t in run_jobs(w, jobs) {
        if let Err(msg) = t.output {
            errors.push(format!("overhead run panicked: {msg}"));
        }
    }
    t0.elapsed().as_secs_f64()
}

fn bench(w: Workload, seed: u64, seconds: f64, win: Windows) -> Bench {
    let jobs = jobs::jobs(w, seed, win);
    let mut errors = Vec::new();

    // The reference: every job once, forced serial, before timing starts.
    exec::set_threads(Some(1));
    let refs: Vec<Result<Reference, String>> = jobs.iter().map(jobs::reference).collect();
    exec::set_threads(None);
    // Peak memory is taken here: run one job at a time, the allocator
    // behaves the same on every run, while under the parallel sweep the
    // peak depends on which allocator arenas the workers land on.
    let peak_rss = peak_rss_mib();
    let mut sim = Fnv::new();
    let mut tally = Tally::new();
    for (i, r) in refs.iter().enumerate() {
        match r {
            Ok(r) => {
                let _ = writeln!(sim, "{:016x}", r.digest);
                for (k, v) in &r.tally {
                    *tally.entry(k).or_insert(0) += v;
                }
                for p in &r.problems {
                    errors.push(format!("job {i}: {p}"));
                }
            }
            Err(msg) => {
                let _ = writeln!(sim, "panic");
                errors.push(format!("job {i} panicked in the reference run: {msg}"));
            }
        }
    }

    let workers = exec::effective_threads(match &jobs[0] {
        Job::Cell(spec) => spec.hosts as usize,
        Job::Host { .. } => jobs.len(),
    });

    let mut spans = Vec::new();
    let mut batches = Vec::new();
    let start = Instant::now();
    while batches.len() < MIN_BATCHES || start.elapsed() < Duration::from_secs_f64(seconds) {
        let b = run_batch(w, &jobs, &refs, batches.len(), &mut spans, &mut errors);
        batches.push(b);
    }

    let mut lane_overhead = 0.0;
    let mut telemetry_overhead = 0.0;
    if TRACED && w == Workload::Cell {
        let default_wall = median(&batches.iter().map(|b| b.wall).collect::<Vec<_>>());
        let quiet: Vec<Job> = jobs::jobs(w, seed, win)
            .into_iter()
            .map(|j| match j {
                Job::Cell(mut spec) => {
                    spec.params.telemetry = false;
                    Job::Cell(spec)
                }
                host => host,
            })
            .collect();
        // Telemetry on and off alternate, so drift in the host's speed
        // falls on both sides of each difference alike.
        exec::set_threads(Some(1));
        let (mut serial, mut telemetry) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_PAIRS {
            let on = batch_wall(w, &jobs, &mut errors);
            serial.push(on);
            telemetry.push(on - batch_wall(w, &quiet, &mut errors));
        }
        exec::set_threads(None);
        lane_overhead = default_wall - median(&serial);
        telemetry_overhead = median(&telemetry);
    }

    if TRACED {
        let events = tally.get("sim.events").copied().unwrap_or(0);
        let pending: u64 = jobs.iter().map(Job::pending_bound).sum();
        for (i, b) in batches.iter().enumerate() {
            let dispatched: u64 = b.profile.iter().map(|&(c, _)| c).sum();
            if let Err(e) = check_profile_complete(dispatched, events, pending) {
                errors.push(format!("batch {i}: {e}"));
            }
        }
    }

    Bench {
        workload: w,
        jobs: jobs.len(),
        workers,
        batches,
        spans,
        sim_digest: sim.finish(),
        tally,
        lane_overhead,
        telemetry_overhead,
        peak_rss,
        errors,
    }
}

/// `sim.events` counts every event pushed; the profile counts every
/// event dispatched. The two differ only by the events still queued when
/// a machine's window closed, at most `pending`. A kind missing from the
/// profile shows as a larger gap.
fn check_profile_complete(dispatched: u64, events: u64, pending: u64) -> Result<(), String> {
    if dispatched > events || events - dispatched > pending {
        return Err(format!(
            "profiled events ({dispatched}) do not add up to sim.events ({events})"
        ));
    }
    Ok(())
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(b: &Bench) -> Vec<Metric> {
    vec![
        metric("wall_s", b.med(|x| x.wall), "s"),
        metric("cpu_s", b.med(|x| x.cpu), "s"),
        metric("setup_s", b.med(|x| x.setup), "s"),
        metric("peak_rss_mb", b.peak_rss, "MiB"),
    ]
}

fn jobs_failed_ratio(b: &Bench) -> Metric {
    metric(
        "jobs_failed_ratio",
        ratio(b.failed() as f64, b.attempted() as f64),
        "ratio",
    )
}

fn per_layer(b: &Bench, untraced_wall: Option<f64>) -> Vec<Metric> {
    let names = es2_testbed::EV_KIND_NAMES;
    let handler = |x: &Batch| x.profile.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / 1e9;
    let wall = b.med(|x| x.wall);
    let mut out = vec![
        metric("testbed.setup_s", b.med(|x| x.setup), "s"),
        metric("testbed.run_s", b.med(|x| x.run), "s"),
        metric("testbed.handler_s", b.med(handler), "s"),
    ];
    for kind in KINDS {
        let i = names
            .iter()
            .position(|n| *n == kind)
            .expect("a kind of EV_KIND_NAMES");
        let at = |x: &Batch| x.profile.get(i).copied().unwrap_or((0, 0));
        let prefix = format!("testbed.ev.{kind}");
        out.push(metric(
            format!("{prefix}.count"),
            b.med(|x| at(x).0 as f64),
            "count",
        ));
        out.push(metric(
            format!("{prefix}.ns_per_event"),
            b.med(|x| ratio(at(x).1 as f64, at(x).0 as f64)),
            "ns",
        ));
        out.push(metric(
            format!("{prefix}.share"),
            b.med(|x| ratio(at(x).1 as f64 / 1e9, handler(x))),
            "ratio",
        ));
    }
    for name in COUNTS {
        out.push(metric(
            name,
            b.tally.get(name).copied().unwrap_or(0) as f64,
            "count",
        ));
    }
    let events = b.tally.get("sim.events").copied().unwrap_or(0) as f64;
    let workers = b.workers as f64;
    out.extend([
        metric("sim.events_per_s", ratio(events, wall), "1/s"),
        metric("sim.loop_s", b.med(|x| x.run - handler(x)), "s"),
        metric("sim.exec.workers", workers, "count"),
        metric("sim.exec.busy_s", b.med(|x| x.busy), "s"),
        metric("sim.exec.idle_s", b.med(|x| workers * x.wall - x.busy), "s"),
        metric("sim.lane.overhead_s", b.lane_overhead, "s"),
        metric("metrics.telemetry_overhead_s", b.telemetry_overhead, "s"),
        metric("bench.check_s", b.med(|x| x.check), "s"),
        metric(
            "trace.overhead_ratio",
            untraced_wall.map_or(0.0, |u| ratio(wall, u)),
            "ratio",
        ),
        jobs_failed_ratio(b),
    ]);
    out
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Finite numbers only: JSON has no NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn provenance(args: &Args, b: &Bench, win: Windows) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{},\"git_rev\":{},\"nproc\":{nproc},\"workers\":{},\
         \"profile\":{},\"traced\":{TRACED},\"jobs\":{},\"batches\":{},\"seconds\":{},\
         \"warmup_ms\":{},\"measure_ms\":{}}}",
        json_str(b.workload.name()),
        args.seed,
        json_str(&args.git_rev),
        b.workers,
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        b.jobs,
        b.batches.len(),
        json_num(args.seconds),
        win.warmup.as_nanos() / 1_000_000,
        win.measure.as_nanos() / 1_000_000,
    )
}

fn write_spans(path: &str, header: &str, b: &Bench) -> std::io::Result<()> {
    use std::io::Write as _;
    let origin = b.spans.iter().map(|s| s.start).min();
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for (id, s) in b.spans.iter().enumerate() {
        let ns = |t: Instant| origin.map_or(0, |o| (t - o).as_nanos());
        writeln!(
            f,
            "{{\"id\":{id},\"workload\":{},\"batch\":{},\"job\":{},\"name\":{},\"thread\":{},\
             \"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            json_str(b.workload.name()),
            s.batch,
            s.job.map_or("null".to_string(), |j| j.to_string()),
            json_str(s.name),
            s.thread,
            ns(s.start),
            ns(s.end),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        )?;
    }
    f.flush()
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep|dense|cell> --seed <n> --seconds <s> [...]"
            );
            std::process::exit(2);
        }
    };
    let win = Windows::bench(args.workload);
    let mut b = bench(args.workload, args.seed, args.seconds, win);

    let digest = format!("{:016x}", b.sim_digest);
    if let Some(expected) = &args.expect_digest {
        if *expected != digest {
            b.errors.push(format!(
                "traced sim_digest {digest} differs from the untraced {expected}"
            ));
        }
    }
    let header = provenance(&args, &b, win);
    println!("provenance {header}");
    println!("sim_digest {} {digest}", b.workload.name());
    if let Some(path) = &args.spans_out {
        if let Err(e) = write_spans(path, &header, &b) {
            b.errors
                .push(format!("could not write spans to {path}: {e}"));
        }
    }

    let metrics = if TRACED {
        per_layer(&b, args.untraced_wall)
    } else {
        end_to_end(&b)
    };
    // The untraced JSON leaves out `jobs_failed_ratio` (0 when all is
    // well), but the run still shows it.
    let shown = (!TRACED).then(|| jobs_failed_ratio(&b));
    for m in metrics.iter().chain(&shown) {
        println!("metric {} {} {}", m.name, json_num(m.value), m.unit);
    }
    for e in &b.errors {
        eprintln!("perfbench: {e}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        b.failed() == 0 && b.errors.is_empty(),
        b.attempted(),
        b.failed(),
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..];
        let end = section[1..]
            .find("\"per_layer\"")
            .map_or(section.len(), |e| e + 1);
        section[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim_start()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// A minimal run of `w`. Runs are serialized: the dispatch profile
    /// and the executor override are process-global.
    fn tiny(w: Workload, seed: u64) -> Bench {
        static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        bench(w, seed, 0.001, Windows::tiny())
    }

    #[test]
    fn tiny_runs_fail_no_job_and_emit_every_declared_metric() {
        let e2e = declared("end_to_end");
        let layer = declared("per_layer");
        assert!(e2e.contains(&"setup_s".to_string()) && layer.contains(&"sim.events".to_string()));
        for w in Workload::ALL {
            let b = tiny(w, 7);
            assert_eq!(
                jobs_failed_ratio(&b).value,
                0.0,
                "{}: {:?}",
                w.name(),
                b.errors
            );
            assert!(b.errors.is_empty(), "{}: {:?}", w.name(), b.errors);
            let emitted: Vec<String> = end_to_end(&b)
                .into_iter()
                .chain(per_layer(&b, Some(1.0)))
                .map(|m| m.name)
                .collect();
            for name in e2e.iter().chain(&layer) {
                assert!(emitted.contains(name), "{} does not emit {name}", w.name());
            }
            for m in end_to_end(&b) {
                assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
            }
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let b = tiny(Workload::Sweep, 7);
        let mut names: Vec<String> = end_to_end(&b)
            .into_iter()
            .chain(per_layer(&b, None))
            .map(|m| m.name)
            .collect();
        for n in &names {
            assert!(
                !n.is_empty()
                    && n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {n}"
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
    }

    #[test]
    fn digest_is_a_pure_function_of_the_seed() {
        let a = tiny(Workload::Sweep, 7).sim_digest;
        assert_eq!(a, tiny(Workload::Sweep, 7).sim_digest);
        assert_ne!(a, tiny(Workload::Sweep, 8).sim_digest);
    }

    #[test]
    fn profile_completeness_tolerates_only_pending_events() {
        assert!(check_profile_complete(990, 1000, 10).is_ok());
        assert!(check_profile_complete(1001, 1000, 10).is_err());
        assert!(check_profile_complete(989, 1000, 10).is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload dense --seed 3 --seconds 2.5").expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds), (Workload::Dense, 3, 2.5));
        assert!(parse("--workload nope --seed 3 --seconds 1").is_err());
        assert!(parse("--workload cell --seconds 1").is_err());
        assert!(parse("--workload cell --seed 1 --seconds 0").is_err());
        assert!(parse("--workload cell --seed 1 --seconds").is_err());
    }
}
