//! The three workloads: which simulation jobs each runs, how one job is
//! built, run and timed, and what of its result is checked and counted.
//!
//! Jobs reach the simulator only through `Machine::with_specs_faulted` +
//! `Machine::run` (`run_checked` for the reference), `Cluster::new` +
//! `Cluster::run`, and `es2_sim::exec`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use es2_core::{EventPathConfig, HybridParams};
use es2_hypervisor::ExitReason;
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::{
    ChurnSpec, Cluster, ClusterResult, ClusterSpec, Machine, Params, PlannedMove, RunResult,
    Topology, WorkloadSpec,
};
use es2_workloads::NetperfSpec;

use crate::measure::{thread_no, Fnv};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's figure grid: 31 small single-host jobs via `exec::sweep`.
    Sweep,
    /// The all-active 128-VM consolidation cell under the four configs.
    Dense,
    /// The multi-host churn cell, one config after another.
    Cell,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Dense, Workload::Cell];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Dense => "dense",
            Workload::Cell => "cell",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `sweep` and `dense` run their jobs through `exec::sweep`; `cell`
    /// runs them one after another, each on the cluster lane executor.
    pub fn through_sweep(self) -> bool {
        self != Workload::Cell
    }
}

/// Simulated warm-up and measurement window of every job in a workload.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub warmup: SimDuration,
    pub measure: SimDuration,
}

impl Windows {
    /// The windows the benchmark measures. `sweep` and `dense` use the
    /// `repro --fast` windows. `cell` is shorter: at the default thread
    /// count its lanes run ~40× slower than serially, and a run must
    /// still hold several batches, while its serial form still takes
    /// tens of milliseconds per batch.
    pub fn bench(w: Workload) -> Windows {
        let (warmup, measure) = match w {
            Workload::Sweep | Workload::Dense => (50, 200),
            Workload::Cell => (20, 80),
        };
        Windows {
            warmup: SimDuration::from_millis(warmup),
            measure: SimDuration::from_millis(measure),
        }
    }

    /// Windows small enough for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny() -> Windows {
        Windows {
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(40),
        }
    }

    fn params(self) -> Params {
        Params {
            warmup: self.warmup,
            measure: self.measure,
            ..Params::default()
        }
    }
}

// A handful of each exist per batch, so variant sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Job {
    Host {
        cfg: EventPathConfig,
        topo: Topology,
        specs: Vec<WorkloadSpec>,
        params: Params,
        seed: u64,
    },
    Cell(ClusterSpec),
}

#[allow(clippy::large_enum_variant)]
pub enum Output {
    Host(RunResult),
    Cell(ClusterResult),
}

/// A single-host job: VM 0 runs `spec`, every other VM burns CPU.
fn host_job(
    cfg: EventPathConfig,
    topo: Topology,
    spec: WorkloadSpec,
    params: Params,
    seed: u64,
) -> Job {
    let mut specs = vec![WorkloadSpec::Idle; topo.num_vms as usize];
    specs[0] = spec;
    Job::Host {
        cfg,
        topo,
        specs,
        params,
        seed,
    }
}

const DENSE_VMS: u32 = 128;
const DENSE_VCPUS: u32 = 2;
const DENSE_RATE: f64 = 200.0;

const CELL_HOSTS: u32 = 4;
const CELL_CAP_VMS_PER_HOST: u32 = 3;
const CELL_FLEET: u32 = 6;
const CELL_ARRIVALS: u32 = 12;

/// Every job of workload `w`, built from `seed` alone.
pub fn jobs(w: Workload, seed: u64, win: Windows) -> Vec<Job> {
    let mut jobs = build(w, win);
    // A distinct seed per job: jobs of one configuration sweep then draw
    // independent traffic, so a batch's total work varies less with
    // `seed` than if every job repeated the same draws.
    for (i, job) in jobs.iter_mut().enumerate() {
        let s = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match job {
            Job::Host { seed, .. } => *seed = s,
            Job::Cell(spec) => spec.seed = s,
        }
    }
    jobs
}

/// The jobs of `w`, all with seed 0 until [`jobs`] seeds them.
fn build(w: Workload, win: Windows) -> Vec<Job> {
    let seed = 0;
    let params = win.params();
    let tcp_quota = HybridParams::TCP_QUOTA;
    match w {
        Workload::Sweep => {
            let udp = WorkloadSpec::Netperf(NetperfSpec::udp_send(256));
            let mut jobs = vec![host_job(
                EventPathConfig::baseline(),
                Topology::micro(),
                udp,
                params,
                seed,
            )];
            for quota in [64, 32, 16, 8, 4, 2] {
                jobs.push(host_job(
                    EventPathConfig::pi_h(quota),
                    Topology::micro(),
                    udp,
                    params,
                    seed,
                ));
            }
            for bytes in [256, 1024, 2048] {
                let spec = WorkloadSpec::Netperf(NetperfSpec::tcp_send(bytes).with_threads(4));
                for cfg in EventPathConfig::all_four(tcp_quota) {
                    jobs.push(host_job(cfg, Topology::multiplexed(), spec, params, seed));
                }
            }
            for rate in [1000.0, 1800.0, 2600.0] {
                for cfg in EventPathConfig::all_four(tcp_quota) {
                    let spec = WorkloadSpec::Httperf { rate };
                    jobs.push(host_job(cfg, Topology::multiplexed(), spec, params, seed));
                }
            }
            jobs
        }
        Workload::Dense => {
            // 2 vCPUs per VM on 2 shared cores, plus one vhost core per VM.
            let params = Params {
                num_cores: DENSE_VCPUS + DENSE_VMS,
                ..params
            };
            let topo = Topology {
                num_vms: DENSE_VMS,
                vcpus_per_vm: DENSE_VCPUS,
            };
            EventPathConfig::all_four(tcp_quota)
                .into_iter()
                .map(|cfg| Job::Host {
                    cfg,
                    topo,
                    specs: vec![WorkloadSpec::Httperf { rate: DENSE_RATE }; DENSE_VMS as usize],
                    params,
                    seed,
                })
                .collect()
        }
        Workload::Cell => {
            let params = Params {
                telemetry: true,
                ..params
            };
            let fleet: Vec<WorkloadSpec> = (0..CELL_FLEET)
                .map(|i| {
                    if i % 2 == 0 {
                        WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024))
                    } else {
                        WorkloadSpec::Ping
                    }
                })
                .collect();
            let into_window = |frac: u64| {
                SimDuration::from_nanos(win.warmup.as_nanos() + win.measure.as_nanos() / frac)
            };
            // Placement failures and stuck boots, a host crash halfway
            // through the window, and the first live migration (planned a
            // quarter in) aborted mid-copy.
            let plan = FaultPlan {
                churn_place_fail_p: 0.10,
                churn_boot_stall_p: 0.10,
                host_crash_mask: 0b1000,
                host_crash_at: into_window(2),
                migration_abort_nth: 1,
                ..FaultPlan::none()
            };
            [
                EventPathConfig::baseline(),
                EventPathConfig::pi(),
                EventPathConfig::pi_h_r(tcp_quota),
            ]
            .into_iter()
            .map(|cfg| {
                let mut spec = ClusterSpec::new(
                    cfg,
                    1,
                    fleet.clone(),
                    CELL_HOSTS,
                    CELL_CAP_VMS_PER_HOST,
                    params,
                    seed,
                );
                spec.plan = plan;
                spec.moves = vec![PlannedMove {
                    vm: 0,
                    to: 1,
                    at: SimTime::ZERO + into_window(4),
                }];
                spec.churn = Some(ChurnSpec {
                    arrivals: CELL_ARRIVALS,
                    mean_lifetime: SimDuration::from_millis(20),
                    ..ChurnSpec::default()
                });
                Job::Cell(spec)
            })
            .collect()
        }
    }
}

impl Job {
    /// An upper bound on the events still queued when the job's window
    /// closes: one per core tick and vCPU timer chain, and a few per VM
    /// for its traffic source and packets in flight.
    pub fn pending_bound(&self) -> u64 {
        let host = |cores: u32, vms: u32, vcpus: u32| u64::from(cores + vms * (vcpus + 8));
        match self {
            Job::Host { topo, params, .. } => {
                host(params.num_cores, topo.num_vms, topo.vcpus_per_vm)
            }
            Job::Cell(spec) => {
                // Every host holds a slot for each fleet VM and arrival.
                let vms = spec.fleet.len() as u32 + spec.churn.map_or(0, |c| c.arrivals);
                let cores = spec.params.num_cores.max(spec.vcpus_per_vm + vms);
                u64::from(spec.hosts) * host(cores, vms, spec.vcpus_per_vm)
            }
        }
    }
}

/// One timed execution of a job.
pub struct Timed {
    /// The result, or the panic message.
    pub output: Result<Output, String>,
    pub thread: u64,
    /// Inside the constructor.
    pub setup: (Instant, Instant),
    /// Inside `run()`.
    pub run: (Instant, Instant),
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Build and run `job`, timing the constructor and `run()` separately.
pub fn run_timed(job: &Job) -> Timed {
    let thread = thread_no();
    let t0 = Instant::now();
    let mut t1 = None;
    let output = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Host {
            cfg,
            topo,
            specs,
            params,
            seed,
        } => {
            let m = Machine::with_specs_faulted(
                *cfg,
                *topo,
                specs.clone(),
                *params,
                *seed,
                FaultPlan::none(),
            );
            t1 = Some(Instant::now());
            Output::Host(m.run())
        }
        Job::Cell(spec) => {
            let c = Cluster::new(spec.clone());
            t1 = Some(Instant::now());
            Output::Cell(c.run())
        }
    }))
    .map_err(panic_message);
    let t2 = Instant::now();
    let t1 = t1.unwrap_or(t2);
    Timed {
        output,
        thread,
        setup: (t0, t1),
        run: (t1, t2),
    }
}

/// What the forced-serial reference run of a job established.
pub struct Reference {
    pub digest: u64,
    /// Liveness violations (orphans among them) plus control-plane
    /// errors; a job with any is failed on every execution.
    pub problems: Vec<String>,
    /// The layer counts of [`tally`].
    pub tally: Tally,
}

/// Run `job` on the calling thread and check its final state. The
/// caller forces the executors serial around this.
pub fn reference(job: &Job) -> Result<Reference, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (output, problems) = match job {
            Job::Host {
                cfg,
                topo,
                specs,
                params,
                seed,
            } => {
                let m = Machine::with_specs_faulted(
                    *cfg,
                    *topo,
                    specs.clone(),
                    *params,
                    *seed,
                    FaultPlan::none(),
                );
                let (r, live) = m.run_checked();
                (Output::Host(r), live.violations)
            }
            Job::Cell(spec) => {
                let r = Cluster::new(spec.clone()).run();
                let mut problems = r.liveness.violations.clone();
                problems.extend(
                    r.ledger
                        .ctl_errors
                        .iter()
                        .map(|e| format!("control plane: {e}")),
                );
                (Output::Cell(r), problems)
            }
        };
        let mut tally = tally(&output);
        if let Output::Host(_) = output {
            tally.insert("testbed.liveness_violations", problems.len() as u64);
        }
        Reference {
            digest: digest(&output),
            tally,
            problems,
        }
    }))
    .map_err(panic_message)
}

/// A 64-bit digest of every simulated result of a job: the `Debug`
/// rendering of each `RunResult` (it holds no hash maps, so it is
/// stable), plus the cell's own digest, ledgers and final placement.
pub fn digest(out: &Output) -> u64 {
    let mut h = Fnv::new();
    match out {
        Output::Host(r) => {
            let _ = write!(h, "{r:?}");
        }
        Output::Cell(c) => {
            let _ = h.write_str(&c.digest());
            for host in &c.per_host {
                let _ = write!(h, "host{} {:?} {:?}", host.host, host.crashed, host.result);
            }
            let _ = write!(
                h,
                "{:?} {:?} {:?} {:?} {}",
                c.ledger,
                c.churn,
                c.final_host,
                c.liveness.violations,
                c.orphans()
            );
        }
    }
    h.finish()
}

/// Deterministic per-layer work counts, keyed by metric name.
pub type Tally = BTreeMap<&'static str, u64>;

fn tally_run(t: &mut Tally, r: &RunResult) {
    let mut add = |k, v: u64| *t.entry(k).or_insert(0) += v;
    add("sim.events", r.events_simulated);
    add("sim.faults_injected", r.fault_stats.total());
    add("sched.ctx_switches", r.host_ctx_switches);
    add(
        "hypervisor.exits",
        ExitReason::all().iter().map(|&e| r.exits.total(e)).sum(),
    );
    add(
        "hypervisor.exits.io_instruction",
        r.exits.total(ExitReason::IoInstruction),
    );
    add(
        "hypervisor.exits.external_interrupt",
        r.exits.total(ExitReason::ExternalInterrupt),
    );
    add(
        "hypervisor.exits.apic_access",
        r.exits.total(ExitReason::ApicAccess),
    );
    let modes = r.modes.totals();
    add("apic.deliveries_posted", modes.posted);
    add("apic.deliveries_emulated", modes.emulated);
    add("apic.degradations", modes.degradations);
    add("core.redirections", r.redirections);
    add("core.polling_entries", r.polling_entries);
    add("core.parked_irqs", r.parked_irqs);
    add("virtio.kicks", r.kicks_total);
    add("virtio.quarantines", r.quarantines_total);
    add("net.rx_interrupts", r.rx_interrupts_total);
    add("net.backlog_drops", r.backlog_drops);
    add(
        "testbed.recoveries",
        r.watchdog_rekicks + r.watchdog_reraises + r.guest_rtos,
    );
    add(
        "metrics.telemetry_windows",
        r.telemetry.as_ref().map_or(0, |t| t.windows.len() as u64),
    );
}

/// The work counts of one job, read from the public result fields.
pub fn tally(out: &Output) -> Tally {
    let mut t = Tally::new();
    match out {
        Output::Host(r) => tally_run(&mut t, r),
        Output::Cell(c) => {
            for h in &c.per_host {
                tally_run(&mut t, &h.result);
            }
            // Departed or aborted mid-copy: every move that started.
            t.insert("testbed.migrations", c.ledger.out + c.ledger.aborts);
            t.insert("testbed.boots", c.ledger.boots);
            // The cell draws host crashes, migration aborts and churn
            // faults itself; the per-host injectors never see them.
            let crashes = c.per_host.iter().filter(|h| h.crashed.is_some()).count() as u64;
            let churn = c
                .churn
                .as_ref()
                .map_or(0, |l| (l.place_fail_faults + l.boot_stall_faults) as u64);
            *t.entry("sim.faults_injected").or_insert(0) += crashes + c.ledger.aborts + churn;
            t.insert("testbed.orphans", c.orphans() as u64);
            t.insert(
                "testbed.liveness_violations",
                c.liveness.violations.len() as u64,
            );
        }
    }
    t
}
