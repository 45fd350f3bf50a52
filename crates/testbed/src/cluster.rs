//! Multi-host cells: N [`Machine`] hosts as conservative event lanes,
//! a best-fit placement scheduler, live migration between hosts, and
//! host-fault injection (crash, degraded host, migration abort).
//!
//! # Topology
//!
//! Every host runs the **same global slot table**: a fleet of `F` VMs
//! means every machine is built with `num_vms = F`, and global VM `g`
//! is slot `g` on whichever host it currently inhabits. Non-resident
//! slots run [`WorkloadSpec::IdleQuiet`] — a HLT-parked guest with an
//! idle peer that generates no events — so a slot costs nothing until
//! a migration installs real state into it. This keeps `FlowId`,
//! `VcpuId` and every per-VM index globally consistent across moves:
//! migration never renumbers anything. Packing capacity
//! ([`ClusterSpec::cap_vms_per_host`]) is an *admission* parameter,
//! deliberately decoupled from the simulated core count.
//!
//! # Placement
//!
//! Admission is best-fit by CPU demand (`best_fit`): each arriving
//! VM lands on the host with the least remaining capacity that still
//! fits (ties to the lowest id), which packs hosts tightly and leaves
//! whole hosts empty for consolidation. VMs that fit nowhere are
//! rejected. Crash evacuation uses the opposite rule — least-loaded
//! alive host — because post-crash the goal is spreading, not packing.
//!
//! # Cross-host traffic and determinism
//!
//! Hosts exchange traffic as timestamped messages: a migrated VM's
//! external peer stays on its home host, so post-move guest↔peer
//! traffic crosses hosts continuously in both directions.
//! [`Cluster::run`] drives every host in one serial min-merge loop —
//! one seeded event loop for the whole cell:
//!
//! * a host's next step is the earlier of its next local event and its
//!   earliest staged arrival, with local events winning time ties (an
//!   arrival at `t` sorts behind already-queued events at `t`, as a
//!   same-instant push would under the `(time, seq)` contract of
//!   [`es2_sim::EventQueue`]);
//! * staged arrivals are ordered by `(at, sender, sender_seq)`;
//! * across hosts the loop takes the minimum `(time, class, host)` step.
//!
//! Every message lands at least `CROSS_LANE_LOOKAHEAD` after the event
//! that sends it, and never targets its sender; the routing code
//! asserts both. Every cluster decision — placement, crash times, abort
//! decisions, blackout lengths, message timestamps — is a pure function
//! of `(spec, seed)`.
//!
//! A crashed host freezes at its crash instant: events at or after the
//! crash time never dispatch, and arrivals at or after it are dropped.
//! In-flight events die with the host — a crash *loses* work (and any
//! external peers it hosted for evacuated VMs); live migration by
//! contrast loses nothing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use es2_core::EventPathConfig;
use es2_sim::{FaultInjector, FaultPlan, SimDuration, SimTime};

use crate::churn::{self, ChurnLedger};
use crate::liveness::{self, LivenessReport};
use crate::machine::{Machine, Topology};
use crate::migrate::{
    CrossOut, MigLedger, VmSnapshot, MIG_COPY_BASE, MIG_COPY_PER_UNIT, MIG_PAUSE, MIG_RESUME,
};
use crate::params::{ChurnSpec, Params, HOST_BACKLOG, RING_SIZE};
use crate::results::RunResult;
use crate::workload::WorkloadSpec;

/// Minimum cross-host latency: the external link's propagation delay
/// (`Link::forty_gbe()` — 1 µs). A packet, stale MSI or snapshot leaving
/// a host at `t` reaches another host no earlier than `t + 1 µs`.
pub(crate) const CROSS_LANE_LOOKAHEAD: SimDuration = SimDuration::from_micros(1);

/// Delay between a host crash and its victims' cold restarts.
pub(crate) const RESTART_DELAY: SimDuration = SimDuration::from_millis(1);

// A positive lookahead keeps every message out of its receiver's past;
// a blackout or restart no shorter than it lands strictly after the
// step that starts it.
const _: () = assert!(!CROSS_LANE_LOOKAHEAD.is_zero());
const _: () = assert!(
    MIG_PAUSE.as_nanos() + MIG_COPY_BASE.as_nanos() + MIG_RESUME.as_nanos()
        >= CROSS_LANE_LOOKAHEAD.as_nanos(),
    "blackout floor must cover the cross-lane lookahead"
);
const _: () = assert!(
    RESTART_DELAY.as_nanos() >= CROSS_LANE_LOOKAHEAD.as_nanos(),
    "restart delay must cover the cross-lane lookahead"
);

/// A requested live migration: pause `vm` at `at` and move it to host
/// `to`. The source is wherever the VM lives at `at`.
#[derive(Clone, Copy, Debug)]
pub struct PlannedMove {
    pub vm: u32,
    pub to: u32,
    pub at: SimTime,
}

/// Full specification of a multi-host cell run.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    pub cfg: EventPathConfig,
    pub vcpus_per_vm: u32,
    /// Global VM fleet in arrival order (admission processes this
    /// in order against `cap_vms_per_host`).
    pub fleet: Vec<WorkloadSpec>,
    pub hosts: u32,
    /// Admission capacity per host, in VMs.
    pub cap_vms_per_host: u32,
    pub params: Params,
    pub seed: u64,
    /// Fault plan. The host family (crash/degraded/abort) is decided at
    /// the cluster level; everything else is applied per host via
    /// [`FaultPlan::for_single_host`].
    pub plan: FaultPlan,
    pub moves: Vec<PlannedMove>,
    /// Tenant-churn control plane (`None`: static fleet only, and the
    /// run is byte-identical to a spec without the field).
    pub churn: Option<ChurnSpec>,
}

impl ClusterSpec {
    /// A minimal spec: `fleet` over `hosts` hosts, no moves, no faults.
    pub fn new(
        cfg: EventPathConfig,
        vcpus_per_vm: u32,
        fleet: Vec<WorkloadSpec>,
        hosts: u32,
        cap_vms_per_host: u32,
        params: Params,
        seed: u64,
    ) -> Self {
        ClusterSpec {
            cfg,
            vcpus_per_vm,
            fleet,
            hosts,
            cap_vms_per_host,
            params,
            seed,
            plan: FaultPlan::none(),
            moves: Vec::new(),
            churn: None,
        }
    }
}

/// Best-fit admission: the host with the least free capacity that still
/// fits `demand` (ties to the lowest id). `None` if nothing fits.
pub(crate) fn best_fit(demand: u32, free: &[u32]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (h, &f) in free.iter().enumerate() {
        if f >= demand && best.is_none_or(|b| f < free[b]) {
            best = Some(h);
        }
    }
    best
}

/// Evacuation placement: the least-loaded alive host (most free; ties
/// to the lowest id), ignoring capacity if the cell is overcommitted —
/// a crash must never strand a victim for lack of headroom.
pub(crate) fn evacuation_target(free: &[u32], alive: &[bool]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (h, &f) in free.iter().enumerate() {
        if alive[h] && best.is_none_or(|b| f > free[b]) {
            best = Some(h);
        }
    }
    best
}

/// Piecewise-constant VM location maps, read by every host to route
/// its cross-host messages. Built entirely at construction time
/// (locations are a deterministic function of the spec), so routing a
/// message is a read-only lookup.
pub(crate) struct Timeline {
    /// Per-VM `(since, host)` guest-location segments, time-ascending.
    guest: Vec<Vec<(SimTime, u32)>>,
    /// Per-VM external-peer location segments (peers move only on
    /// crash evacuation, never on live migration).
    ext: Vec<Vec<(SimTime, u32)>>,
}

impl Timeline {
    pub(crate) fn host_at(segs: &[(SimTime, u32)], at: SimTime) -> u32 {
        debug_assert!(!segs.is_empty(), "location query for an unplaced VM");
        let mut h = segs[0].1;
        for &(t, hh) in segs {
            if t <= at {
                h = hh;
            } else {
                break;
            }
        }
        h
    }

    fn guest_host(&self, vm: u32, at: SimTime) -> u32 {
        Self::host_at(&self.guest[vm as usize], at)
    }

    fn ext_host(&self, vm: u32, at: SimTime) -> u32 {
        Self::host_at(&self.ext[vm as usize], at)
    }
}

/// A message crossing between hosts.
enum HostMsg {
    /// Guest-bound wire packet for slot `vm`.
    Pkt { vm: u32, pkt: es2_net::Packet },
    /// Peer-bound packet for slot `vm`'s external generator.
    ExtPkt { vm: u32, pkt: es2_net::Packet },
    /// A stale MSI chasing its migrated VM.
    StaleMsi { vm: u32, vector: es2_apic::Vector },
    /// A migrating VM's snapshot (arrives when the copy phase ends).
    Snapshot { vm: u32, snap: Box<VmSnapshot> },
}

/// A message in flight to another host, staged at its receiver.
/// Ordered by `(at, src, seq)`: the deterministic tie-break that makes
/// delivery order a pure function of the simulation.
struct Arrival {
    at: SimTime,
    src: u32,
    /// The sender's message count when it sent this one.
    seq: u64,
    msg: HostMsg,
}

impl Arrival {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.src, self.seq)
    }
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    /// Inverted: `BinaryHeap` is a max-heap, the earliest must pop first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Step classes: at equal times a host's local event goes before a
/// staged arrival.
const LOCAL: u8 = 0;
const ARRIVAL: u8 = 1;

/// One host of the cell: its machine plus the arrivals staged for it.
struct HostLane {
    m: Machine,
    host: u32,
    /// The instant this host dies, if the fault plan crashes it. Events
    /// and arrivals at or after this time never execute.
    crash_at: Option<SimTime>,
    done: bool,
    staged: BinaryHeap<Arrival>,
    /// Messages this host has sent (numbers them in send order).
    sent: u64,
}

impl HostLane {
    fn alive_at(&self, at: SimTime) -> bool {
        self.crash_at.is_none_or(|ca| at < ca)
    }

    /// The host's next step: the earlier of its next local event and
    /// its earliest staged arrival, with the class tie-break above.
    /// `None` once both are empty. A host with no local work still
    /// revives when an arrival is staged for it.
    fn next_step(&self) -> Option<(SimTime, u8)> {
        let local = if self.done {
            None
        } else {
            // A crashed host's clock never reaches its crash instant.
            self.m
                .next_event_time()
                .filter(|&t| self.alive_at(t))
                .map(|t| (t, LOCAL))
        };
        let arrival = self.staged.peek().map(|a| (a.at, ARRIVAL));
        match (local, arrival) {
            (Some(l), Some(a)) => Some(l.min(a)),
            (l, a) => l.or(a),
        }
    }

    /// Run the local event at `now` and route what it sent: to this
    /// host directly when the location flipped back here within the
    /// forwarding latency (e.g. a move back home), into `out` as
    /// `(dest, arrival)` otherwise.
    fn step(&mut self, now: SimTime, tl: &Timeline, out: &mut Vec<(usize, Arrival)>) {
        if !self.m.step_one() {
            self.done = true;
        }
        if !self.m.has_cross_out() {
            return;
        }
        for x in self.m.take_cross_out() {
            let (vm, at, msg) = match x {
                CrossOut::GuestPkt { vm, at, pkt } => (vm, at, HostMsg::Pkt { vm, pkt }),
                CrossOut::ExtPkt { vm, at, pkt } => (vm, at, HostMsg::ExtPkt { vm, pkt }),
                CrossOut::StaleMsi { vm, at, vector } => (vm, at, HostMsg::StaleMsi { vm, vector }),
                CrossOut::Snapshot { vm, at, snap } => (vm, at, HostMsg::Snapshot { vm, snap }),
            };
            let dest = match &msg {
                HostMsg::ExtPkt { .. } => tl.ext_host(vm, at),
                _ => tl.guest_host(vm, at),
            };
            if dest == self.host {
                self.deliver(at, msg);
            } else {
                out.push((dest as usize, self.send(now, dest, at, msg)));
            }
        }
    }

    /// Stamp a message sent at `now` to host `dest`, arriving at `at`.
    ///
    /// Panics on a self-send (local delivery needs no staging) and on a
    /// message that lands sooner than the lookahead after `now`.
    fn send(&mut self, now: SimTime, dest: u32, at: SimTime, msg: HostMsg) -> Arrival {
        assert_ne!(dest, self.host, "self-send through the cross-host staging");
        assert!(
            at >= now + CROSS_LANE_LOOKAHEAD,
            "cross-host message violates lookahead: event at {now:?}, message at {at:?}"
        );
        let seq = self.sent;
        self.sent += 1;
        Arrival {
            at,
            src: self.host,
            seq,
            msg,
        }
    }

    /// Hand one message to the machine.
    fn deliver(&mut self, at: SimTime, msg: HostMsg) {
        match msg {
            HostMsg::Pkt { vm, pkt } => self.m.receive_cross(at, vm, pkt),
            HostMsg::ExtPkt { vm, pkt } => self.m.receive_cross_ext(at, vm, pkt),
            HostMsg::StaleMsi { vm, vector } => self.m.receive_cross_msi(at, vm, vector),
            HostMsg::Snapshot { vm, snap } => self.m.receive_snapshot(at, vm, snap),
        }
    }
}

/// SplitMix64 host-seed derivation; host 0 keeps the run seed, so a
/// 1-host cell with no moves is the plain machine's RNG universe.
fn host_seed(seed: u64, host: usize) -> u64 {
    if host == 0 {
        return seed;
    }
    let mut z = seed ^ (host as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One host's final outcome.
pub struct HostOutcome {
    pub host: u32,
    /// `Some(t)`: this host crashed at `t` (its results are partial).
    pub crashed: Option<SimTime>,
    pub result: RunResult,
}

/// Merged outcome of a cell run.
pub struct ClusterResult {
    pub per_host: Vec<HostOutcome>,
    /// Cluster-wide migration/recovery ledger (per-host ledgers merged).
    pub ledger: MigLedger,
    pub admitted: u32,
    pub rejected: u32,
    pub hosts: u32,
    pub cap_vms_per_host: u32,
    /// Final guest location per global slot — fleet VMs first, then
    /// churn slots (`None`: rejected at admission, mid-blackout at end
    /// of run, lost to a crash window, or a churn tenant that departed
    /// or never booted).
    pub final_host: Vec<Option<u32>>,
    /// Liveness over every surviving host, violations prefixed `host{h}`.
    pub liveness: LivenessReport,
    /// Churn control-plane ledger (`None` when churn is disabled).
    pub churn: Option<ChurnLedger>,
}

impl ClusterResult {
    /// Packing density: admitted VMs over total cell capacity.
    pub fn packing_density(&self) -> f64 {
        let cap = (self.hosts * self.cap_vms_per_host) as f64;
        if cap == 0.0 {
            0.0
        } else {
            self.admitted as f64 / cap
        }
    }

    /// Blackout percentile across every completed migration, in µs.
    pub fn blackout_percentile_us(&self, q: f64) -> f64 {
        percentile_ns(&self.ledger.blackout_ns, q) / 1_000.0
    }

    /// Worst per-VM RX p99 across all surviving hosts, in µs (the
    /// consolidation sweep's event-path latency figure). Dormant slots
    /// report 0 and never dominate.
    pub fn worst_rx_p99_us(&self) -> u64 {
        self.per_host
            .iter()
            .filter(|h| h.crashed.is_none())
            .flat_map(|h| h.result.rx_p99_us_per_vm.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// A stable, complete text digest of the run — the byte-identity
    /// surface for the traced-vs-untraced and thread-count gates.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cell hosts={} cap={} admitted={} rejected={} density={:.3}",
            self.hosts,
            self.cap_vms_per_host,
            self.admitted,
            self.rejected,
            self.packing_density()
        );
        for h in &self.per_host {
            let r = &h.result;
            let t = r.modes.totals();
            let _ = writeln!(
                s,
                "host{} crashed={} events={} ctx={} redir={} offline={} \
                 posted={} emul={} deg={} quar={} resets={} rx_p99=[{}]",
                h.host,
                h.crashed
                    .map_or("-".to_string(), |t| t.as_nanos().to_string()),
                r.events_simulated,
                r.host_ctx_switches,
                r.redirections,
                r.offline_predictions,
                t.posted,
                t.emulated,
                t.degradations,
                r.quarantines_total,
                r.queue_resets_total,
                r.rx_p99_us_per_vm
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        let l = &self.ledger;
        let _ = writeln!(
            s,
            "ledger out={} resumed={} aborts={} retargets={} restarts={} blackout_ns={:?}",
            l.out, l.resumed, l.aborts, l.retargets, l.restarts, l.blackout_ns
        );
        let _ = writeln!(
            s,
            "final_host=[{}]",
            self.final_host
                .iter()
                .map(|h| h.map_or("-".to_string(), |v| v.to_string()))
                .collect::<Vec<_>>()
                .join(","),
        );
        // Churn lines exist only when churn is enabled, so churn-off
        // digests keep their legacy bytes (the golden-prefix gates).
        if let Some(c) = &self.churn {
            let _ = writeln!(s, "{}", c.digest_line());
            let l = &self.ledger;
            let _ = writeln!(
                s,
                "churn_rt boots={} departs={} boot_timeouts={} ctl_errors={}",
                l.boots,
                l.departs,
                l.boot_timeouts,
                l.ctl_errors.len()
            );
        }
        s
    }

    /// Orphaned-resource count: conservation-invariant violations (a
    /// reclaimed slot retaining threads, ring entries, vectors, vhost
    /// work, a blackout buffer or a staged snapshot). Zero is the
    /// leak-proof gate.
    pub fn orphans(&self) -> usize {
        self.liveness
            .violations
            .iter()
            .filter(|v| v.contains("orphan"))
            .count()
    }
}

pub(crate) fn percentile_ns(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut v = ns.to_vec();
    v.sort_unstable();
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx.min(v.len() - 1)] as f64
}

/// A constructed multi-host cell, ready to run.
pub struct Cluster {
    lanes: Vec<HostLane>,
    tl: Timeline,
    /// Messages the step in progress sent, drained into their
    /// receivers' staging heaps after it.
    routed: Vec<(usize, Arrival)>,
    /// Each host's [`HostLane::next_step`], refreshed whenever the host
    /// steps or a message is staged for it: nothing else changes it.
    keys: Vec<Option<(SimTime, u8)>>,
    placement: Vec<Option<u32>>,
    admitted: u32,
    hosts: u32,
    cap_vms_per_host: u32,
    /// Fleet slots plus pre-allocated churn slots.
    n_total: usize,
    churn: Option<ChurnLedger>,
}

impl Cluster {
    /// Build the cell: admit the fleet, decide host crashes and abort
    /// decisions, validate and compile the move/evacuation schedule
    /// into per-host machines and the location timeline.
    ///
    /// Panics on schedules the model cannot honor (moves touching a
    /// host that is already dead, moves of one VM spaced closer than
    /// the worst-case blackout): these are plan bugs, not simulated
    /// faults.
    pub fn new(spec: ClusterSpec) -> Self {
        let hosts = spec.hosts as usize;
        let n = spec.fleet.len();
        assert!(hosts >= 1, "a cell needs at least one host");

        // --- Admission: best-fit by vCPU demand, in arrival order. ---
        let demand = spec.vcpus_per_vm;
        let mut free = vec![spec.cap_vms_per_host * demand; hosts];
        let mut placement: Vec<Option<u32>> = Vec::with_capacity(n);
        for _ in 0..n {
            match best_fit(demand, &free) {
                Some(h) => {
                    free[h] -= demand;
                    placement.push(Some(h as u32));
                }
                None => placement.push(None),
            }
        }
        let admitted = placement.iter().flatten().count() as u32;

        // --- Cluster-level fault decisions (host crashes, aborts). ---
        // Same (plan, seed) as the per-host injectors, but this instance
        // decides only the host family (by mask and by count, with no
        // draw) and the churn family on the churn streams, which fork
        // after every per-host stream: a clean plan draws nothing and a
        // cluster plan leaves every per-host stream untouched.
        let mut injector = FaultInjector::new(spec.plan, spec.seed);
        let crash_at: Vec<Option<SimTime>> = (0..hosts)
            .map(|h| injector.on_host_admission(h).map(|d| SimTime::ZERO + d))
            .collect();
        let aborts: Vec<bool> = spec
            .moves
            .iter()
            .map(|_| injector.on_migration_planned())
            .collect();

        // --- Compile the control schedule: moves, crash evacuations,
        //     and (when enabled) the churn lifecycle — chronologically,
        //     into the location timeline and per-host control events. ---
        // The worst blackout any move can produce bounds how close two
        // moves of the same VM may be scheduled.
        let dirty_cap = 4 * RING_SIZE as u64 + HOST_BACKLOG as u64;
        let max_blackout = MIG_PAUSE
            + MIG_COPY_BASE
            + SimDuration::from_nanos(MIG_COPY_PER_UNIT.as_nanos().saturating_mul(dirty_cap))
            + MIG_RESUME;
        let end = SimTime::ZERO + spec.params.warmup + spec.params.measure;

        let compiled = churn::compile(
            &spec,
            &placement,
            &crash_at,
            aborts,
            &mut injector,
            max_blackout,
            end,
        );
        let n_total = compiled.slot_specs.len();

        let tl = Timeline {
            guest: compiled.guest_tl,
            ext: compiled.ext_tl,
        };

        // --- Build the host machines over the global slot table (the
        //     static fleet plus one pre-allocated slot per arrival). ---
        let topo = Topology {
            num_vms: n_total as u32,
            vcpus_per_vm: spec.vcpus_per_vm,
        };
        let mut p = spec.params;
        p.num_cores = p.num_cores.max(spec.vcpus_per_vm + n_total as u32);
        let mut lanes = Vec::with_capacity(hosts);
        for (h, &host_crash_at) in crash_at.iter().enumerate().take(hosts) {
            // Churn slots start dormant everywhere; a boot call installs
            // the real workload on the admitting host mid-run.
            let mut specs_h: Vec<WorkloadSpec> = placement
                .iter()
                .zip(&spec.fleet)
                .map(|(p, w)| {
                    if *p == Some(h as u32) {
                        *w
                    } else {
                        WorkloadSpec::IdleQuiet
                    }
                })
                .collect();
            specs_h.resize(n_total, WorkloadSpec::IdleQuiet);
            let mut m = Machine::with_specs_faulted(
                spec.cfg,
                topo,
                specs_h,
                p,
                host_seed(spec.seed, h),
                spec.plan.for_single_host(h),
            );
            m.enable_cluster(h as u32, compiled.slot_specs.clone());
            for (g, p) in placement.iter().enumerate() {
                match p {
                    Some(home) if *home != h as u32 => m.mark_remote(g as u32),
                    _ => {}
                }
            }
            // Churn slots are non-resident on every host until booted
            // (unlike a placement-None fleet slot, which stays a local
            // dormant VM): residency is established only by VmBoot.
            for g in n..n_total {
                m.mark_remote(g as u32);
            }
            // In emission order, which keeps the `(time, seq)` order of
            // the host's queue a function of the compiled schedule.
            for &(at, ev) in &compiled.events[h] {
                m.q.push(at, ev);
            }
            lanes.push(HostLane {
                m,
                host: h as u32,
                crash_at: host_crash_at,
                done: false,
                staged: BinaryHeap::new(),
                sent: 0,
            });
        }

        Cluster {
            keys: lanes.iter().map(HostLane::next_step).collect(),
            lanes,
            tl,
            routed: Vec::new(),
            placement,
            admitted,
            hosts: spec.hosts,
            cap_vms_per_host: spec.cap_vms_per_host,
            n_total,
            churn: compiled.churn,
        }
    }

    /// Initial placement per fleet VM (`None`: rejected at admission).
    pub fn placement(&self) -> &[Option<u32>] {
        &self.placement
    }

    /// Run every host to completion and merge the outcome.
    pub fn run(mut self) -> ClusterResult {
        while self.step() {}
        self.collect()
    }

    /// Take the cell's next step — the minimum `(time, class, host)`
    /// across hosts — and every later step of the same host that a fresh
    /// scan would pick too, then stage what they sent at the receivers.
    /// `false` once every host is drained. The host index only orders
    /// causally independent steps; any fixed rule would do.
    ///
    /// The scan also keeps the runner-up key, the least key of the other
    /// hosts, and steps the chosen host again while its own next key
    /// stays below it. That is exact: a step changes no other host's key
    /// unless it routes a message there, so until then every other key
    /// is still the one the scan saw. The first step that routes a
    /// message ends the run, and the next call scans every host. The
    /// scan reads the cached `keys`, so only the stepped host and the
    /// hosts it sent to peek their queues again.
    fn step(&mut self) -> bool {
        // A plain loop, not `filter_map(..).min()`: this runs once per
        // run of steps, and the iterator form measured ~9 % slower end
        // to end on the benchmark's `cell` workload.
        let mut next: Option<(SimTime, u8, usize)> = None;
        let mut runner_up: Option<(SimTime, u8, usize)> = None;
        for (h, k) in self.keys.iter().enumerate() {
            if let Some((t, class)) = *k {
                let key = (t, class, h);
                if next.is_none_or(|b| key < b) {
                    runner_up = next;
                    next = Some(key);
                } else if runner_up.is_none_or(|r| key < r) {
                    runner_up = Some(key);
                }
            }
        }
        let Some((mut t, mut class, h)) = next else {
            return false;
        };
        let lane = &mut self.lanes[h];
        loop {
            if class == ARRIVAL {
                let a = lane
                    .staged
                    .pop()
                    .expect("an arrival step has a staged arrival");
                // Arrivals at or after the crash instant are lost with
                // the host.
                if lane.alive_at(a.at) {
                    lane.deliver(a.at, a.msg);
                }
            } else {
                lane.step(t, &self.tl, &mut self.routed);
                if !self.routed.is_empty() {
                    break;
                }
            }
            match lane.next_step() {
                Some((nt, nc)) if runner_up.is_none_or(|r| (nt, nc, h) < r) => {
                    (t, class) = (nt, nc);
                }
                key => {
                    self.keys[h] = key;
                    return true;
                }
            }
        }
        self.keys[h] = lane.next_step();
        for (dest, a) in self.routed.drain(..) {
            let dest_lane = &mut self.lanes[dest];
            dest_lane.staged.push(a);
            self.keys[dest] = dest_lane.next_step();
        }
        true
    }

    fn collect(self) -> ClusterResult {
        let n = self.placement.len();
        // Final locations read off the surviving hosts' residency flags
        // before the machines are consumed. A fleet slot needs its
        // placement guard (a rejected slot is a local dormant VM on
        // every host); a churn slot was marked remote everywhere at
        // build, so its residency flag alone is authoritative.
        let mut final_host: Vec<Option<u32>> = vec![None; self.n_total];
        let mut residency_errors: Vec<String> = Vec::new();
        for lane in &self.lanes {
            if lane.crash_at.is_some() {
                continue;
            }
            let Some(mig) = lane.m.mig.as_ref() else {
                continue;
            };
            for (g, fh) in final_host.iter_mut().enumerate() {
                let resident = if g < n {
                    self.placement[g].is_some() && mig.guest_local[g]
                } else {
                    mig.guest_local[g]
                };
                if resident {
                    if let Some(other) = *fh {
                        residency_errors.push(format!(
                            "VM {g} resident on two hosts ({other} and {})",
                            lane.host
                        ));
                    }
                    *fh = Some(lane.host);
                }
            }
        }

        let mut liveness_merged = LivenessReport::default();
        liveness_merged.violations.extend(residency_errors);
        for lane in &self.lanes {
            if lane.crash_at.is_some() {
                // A crashed host froze mid-flight; its invariants are
                // deliberately not checked (that is the lost work).
                continue;
            }
            let rep = liveness::check(&lane.m);
            liveness_merged.violations.extend(
                rep.violations
                    .into_iter()
                    .map(|v| format!("host{}: {v}", lane.host)),
            );
            if !rep.diagnostics.is_empty() {
                liveness_merged
                    .diagnostics
                    .push_str(&format!("=== host{} ===\n{}", lane.host, rep.diagnostics));
            }
        }

        let mut ledger = MigLedger::default();
        let mut per_host = Vec::with_capacity(self.lanes.len());
        for lane in self.lanes {
            if let Some(l) = lane.m.mig_ledger() {
                ledger.merge(l);
            }
            let end = lane.m.model_end(lane.crash_at);
            per_host.push(HostOutcome {
                host: lane.host,
                crashed: lane.crash_at,
                result: RunResult::collect(lane.m, end),
            });
        }
        // Typed control-plane errors are still failures: promote every
        // one to a liveness violation so nothing fails silently.
        liveness_merged
            .violations
            .extend(ledger.ctl_errors.iter().map(|e| format!("ctl-error: {e}")));

        let rejected = n as u32 - self.admitted;
        ClusterResult {
            per_host,
            ledger,
            admitted: self.admitted,
            rejected,
            hosts: self.hosts,
            cap_vms_per_host: self.cap_vms_per_host,
            final_host,
            liveness: liveness_merged,
            churn: self.churn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_fit_packs_tightest_host_first() {
        // Free capacities: host1 fits snugly (2), host0 loosely (4).
        assert_eq!(best_fit(2, &[4, 2, 8]), Some(1));
        // Ties go to the lowest id.
        assert_eq!(best_fit(2, &[4, 4, 8]), Some(0));
        // Exact fill allowed; nothing fits → None.
        assert_eq!(best_fit(8, &[4, 2, 8]), Some(2));
        assert_eq!(best_fit(9, &[4, 2, 8]), None);
    }

    #[test]
    fn best_fit_admission_fills_then_rejects() {
        // 2 hosts × cap 2 VMs × 1 vCPU: 4 admitted, 5th rejected.
        let mut free = vec![2u32, 2];
        let mut placed = Vec::new();
        for _ in 0..5 {
            match best_fit(1, &free) {
                Some(h) => {
                    free[h] -= 1;
                    placed.push(Some(h));
                }
                None => placed.push(None),
            }
        }
        assert_eq!(
            placed,
            vec![Some(0), Some(0), Some(1), Some(1), None],
            "best-fit packs host 0 full before touching host 1"
        );
    }

    #[test]
    fn evacuation_prefers_least_loaded_alive_host() {
        // Host 0 dead, host 2 has the most headroom.
        assert_eq!(evacuation_target(&[9, 1, 4], &[false, true, true]), Some(2));
        // Overcommit allowed: zero free everywhere still places.
        assert_eq!(evacuation_target(&[0, 0], &[true, true]), Some(0));
        assert_eq!(evacuation_target(&[0, 0], &[false, false]), None);
    }

    #[test]
    fn timeline_lookup_is_piecewise_constant() {
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        let segs = vec![(t(0), 0u32), (t(100), 2), (t(300), 1)];
        assert_eq!(Timeline::host_at(&segs, t(0)), 0);
        assert_eq!(Timeline::host_at(&segs, t(99)), 0);
        assert_eq!(Timeline::host_at(&segs, t(100)), 2);
        assert_eq!(Timeline::host_at(&segs, t(299)), 2);
        assert_eq!(Timeline::host_at(&segs, t(10_000)), 1);
    }

    /// A cell of `hosts` hosts over a short window: one Ping VM admitted
    /// on host 0 (capacity one VM per host), optionally live-migrated to
    /// host 1 at 4 ms.
    fn ping_cell(hosts: u32, move_to_host1: bool) -> Cluster {
        let params = Params {
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(8),
            ..Params::default()
        };
        let fleet = vec![WorkloadSpec::Ping];
        let mut spec = ClusterSpec::new(EventPathConfig::baseline(), 1, fleet, hosts, 1, params, 3);
        if move_to_host1 {
            spec.moves = vec![PlannedMove {
                vm: 0,
                to: 1,
                at: SimTime::ZERO + SimDuration::from_millis(4),
            }];
        }
        Cluster::new(spec)
    }

    fn stale_msi(vector: u8) -> HostMsg {
        HostMsg::StaleMsi { vm: 0, vector }
    }

    #[test]
    fn drained_host_revives_on_a_cross_host_message() {
        let mut c = ping_cell(2, true);
        // Host 1 has no local work at all: only the migrating VM's
        // snapshot can wake it.
        c.lanes[1].m.q = es2_sim::EventQueue::new();
        assert_eq!(c.lanes[1].next_step(), None);
        c.keys[1] = None; // the cached key follows the emptied queue
        let mut waited = false;
        while c.step() {
            let l = &c.lanes[1];
            waited |= l.m.next_event_time().is_none() && l.staged.len() == 1;
        }
        assert!(waited, "host 1 never sat drained with the snapshot staged");
        let r = c.collect();
        // The snapshot was delivered and the resume it scheduled ran.
        assert_eq!(r.ledger.resumed, 1);
        assert_eq!(r.final_host, vec![Some(1)]);
        assert!(r.per_host[1].result.events_simulated > 0);
    }

    #[test]
    fn same_instant_arrivals_deliver_in_at_src_seq_order() {
        let mut c = ping_cell(3, false);
        let (t, class) = c.lanes[1].next_step().expect("host 1 has local work");
        assert_eq!(class, LOCAL);
        let now = SimTime::ZERO;
        let later = t + SimDuration::from_micros(3);
        // Hosts 2 and 0 each send to host 1, interleaved and out of
        // order: two messages at `t`, one later, then two more at `t`.
        let sends = [(2, later), (2, t), (0, t), (0, later), (2, t), (0, t)];
        for (src, at) in sends {
            let a = c.lanes[src].send(now, 1, at, stale_msi(src as u8));
            c.lanes[1].staged.push(a);
        }
        // A local event at `t` goes before every arrival at `t`.
        assert_eq!(c.lanes[1].next_step(), Some((t, LOCAL)));
        let order: Vec<(SimTime, u32, u64)> =
            std::iter::from_fn(|| c.lanes[1].staged.pop().map(|a| a.key())).collect();
        assert_eq!(
            order,
            vec![
                (t, 0, 0),
                (t, 0, 2),
                (t, 2, 1),
                (t, 2, 2),
                (later, 0, 1),
                (later, 2, 0),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn a_message_inside_the_lookahead_panics() {
        let mut c = ping_cell(2, false);
        let now = SimTime::ZERO + SimDuration::from_millis(1);
        let at = now + CROSS_LANE_LOOKAHEAD - SimDuration::from_nanos(1);
        c.lanes[0].send(now, 1, at, stale_msi(0));
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn a_self_send_panics() {
        let mut c = ping_cell(2, false);
        let now = SimTime::ZERO;
        c.lanes[0].send(now, 0, now + CROSS_LANE_LOOKAHEAD, stale_msi(0));
    }
}
