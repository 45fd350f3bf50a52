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
//! Hosts exchange traffic as timestamped [`es2_sim::lane`] messages: a
//! migrated VM's external peer stays on its home host, so post-move
//! guest↔peer traffic crosses hosts continuously in both directions.
//! [`Cluster::run`] drives every host through the serial
//! [`run_lanes`] min-merge — one seeded event loop for the whole cell.
//! Every message lands at least `CROSS_LANE_LOOKAHEAD` after the
//! event that sends it, which the lane [`Outbox`] asserts. Every cluster
//! decision — placement, crash times, abort draws, blackout lengths,
//! message timestamps — is a pure function of `(spec, seed)`.
//!
//! A crashed host freezes at its crash instant: events at or after the
//! crash time never dispatch, and arrivals at or after it are dropped.
//! In-flight events die with the host — a crash *loses* work (and any
//! external peers it hosted for evacuated VMs); live migration by
//! contrast loses nothing.

use std::sync::Arc;

use es2_core::EventPathConfig;
use es2_sim::lane::{run_lanes, LaneSim, Outbox};
use es2_sim::{FaultInjector, FaultPlan, SimDuration, SimTime};

use crate::churn::{self, Call, ChurnLedger};
use crate::liveness::{self, LivenessReport};
use crate::machine::{Machine, Topology};
use crate::migrate::{CrossOut, MigCosts, MigLedger, VmSnapshot};
use crate::params::{ChurnSpec, Params};
use crate::results::RunResult;
use crate::workload::WorkloadSpec;

/// Minimum cross-host latency: the external link's propagation delay
/// (`Link::forty_gbe()` — 1 µs). A packet, stale MSI or snapshot leaving
/// a host at `t` reaches another host no earlier than `t + 1 µs`; every
/// host lane declares it as its lookahead.
pub(crate) const CROSS_LANE_LOOKAHEAD: SimDuration = SimDuration::from_micros(1);

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
    /// Fault plan. The host family (crash/degraded/abort) is drawn at
    /// the cluster level; everything else is applied per host via
    /// [`FaultPlan::for_single_host`].
    pub plan: FaultPlan,
    pub moves: Vec<PlannedMove>,
    pub costs: MigCosts,
    /// Delay between a host crash and its victims' cold restarts.
    pub restart_delay: SimDuration,
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
            costs: MigCosts::default(),
            restart_delay: SimDuration::from_millis(1),
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

/// Piecewise-constant VM location maps, shared by every lane for
/// routing cross-host messages. Built entirely at construction time
/// (locations are a deterministic function of the spec), so routing a
/// message is a read-only lookup — no cross-lane state races.
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

/// One host of the cell as a conservative event lane.
struct HostLane {
    m: Machine,
    host: u32,
    /// The instant this host dies, if the fault plan crashes it. Events
    /// and arrivals at or after this time never execute.
    crash_at: Option<SimTime>,
    done: bool,
    tl: Arc<Timeline>,
}

impl HostLane {
    fn alive_at(&self, at: SimTime) -> bool {
        self.crash_at.is_none_or(|ca| at < ca)
    }

    fn deliver_local(&mut self, at: SimTime, msg: HostMsg) {
        match msg {
            HostMsg::Pkt { vm, pkt } => self.m.receive_cross(at, vm, pkt),
            HostMsg::ExtPkt { vm, pkt } => self.m.receive_cross_ext(at, vm, pkt),
            HostMsg::StaleMsi { vm, vector } => self.m.receive_cross_msi(at, vm, vector),
            HostMsg::Snapshot { vm, snap } => self.m.receive_snapshot(at, vm, snap),
        }
    }
}

impl LaneSim for HostLane {
    type Msg = HostMsg;

    fn next_time(&self) -> Option<SimTime> {
        if self.done {
            return None;
        }
        let t = self.m.next_event_time()?;
        // A crashed host's clock never reaches its crash instant.
        if self.alive_at(t) {
            Some(t)
        } else {
            None
        }
    }

    fn lookahead(&self) -> SimDuration {
        CROSS_LANE_LOOKAHEAD
    }

    fn step(&mut self, outbox: &mut Outbox<HostMsg>) {
        if !self.m.step_one() {
            self.done = true;
        }
        if !self.m.has_cross_out() {
            return;
        }
        for out in self.m.take_cross_out() {
            let (vm, at, msg) = match out {
                CrossOut::GuestPkt { vm, at, pkt } => (vm, at, HostMsg::Pkt { vm, pkt }),
                CrossOut::ExtPkt { vm, at, pkt } => (vm, at, HostMsg::ExtPkt { vm, pkt }),
                CrossOut::StaleMsi { vm, at, vector } => (vm, at, HostMsg::StaleMsi { vm, vector }),
                CrossOut::Snapshot { vm, at, snap } => (vm, at, HostMsg::Snapshot { vm, snap }),
            };
            let dest = match &msg {
                HostMsg::ExtPkt { .. } => self.tl.ext_host(vm, at),
                _ => self.tl.guest_host(vm, at),
            };
            if dest == self.host {
                // The location flipped back to this host within the
                // forwarding latency (e.g. a move back home): deliver
                // locally instead of a self-send.
                self.deliver_local(at, msg);
            } else {
                outbox.send(dest as usize, at, msg);
            }
        }
    }

    fn receive(&mut self, at: SimTime, msg: HostMsg) {
        if !self.alive_at(at) {
            // Arrivals at or after the crash instant are lost with the
            // host.
            return;
        }
        self.deliver_local(at, msg);
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
                h.crashed.map_or("-".to_string(), |t| t.as_nanos().to_string()),
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
    /// work, or staged control state). Zero is the leak-proof gate.
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
    placement: Vec<Option<u32>>,
    admitted: u32,
    hosts: u32,
    cap_vms_per_host: u32,
    /// Fleet slots plus pre-allocated churn slots.
    n_total: usize,
    churn: Option<ChurnLedger>,
}

impl Cluster {
    /// Build the cell: admit the fleet, draw host faults and abort
    /// decisions, validate and compile the move/evacuation schedule
    /// into per-host machines and the shared location timeline.
    ///
    /// Panics on schedules the model cannot honor (moves touching a
    /// host that is already dead, moves of one VM spaced closer than
    /// the worst-case blackout, blackouts shorter than the lookahead):
    /// these are plan bugs, not simulated faults.
    pub fn new(spec: ClusterSpec) -> Self {
        let hosts = spec.hosts as usize;
        let n = spec.fleet.len();
        assert!(hosts >= 1, "a cell needs at least one host");
        assert!(
            spec.costs.pause + spec.costs.copy_base + spec.costs.resume >= CROSS_LANE_LOOKAHEAD,
            "blackout floor must cover the cross-lane lookahead"
        );
        assert!(
            spec.restart_delay >= CROSS_LANE_LOOKAHEAD,
            "restart delay must cover the cross-lane lookahead"
        );

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

        // --- Cluster-level fault draws (host + migration streams). ---
        // Same (plan, seed) as the per-host injectors, but this instance
        // only ever draws the host/migration streams — forked after the
        // seven per-host families, so clean plans draw nothing and
        // host-fault plans leave every per-host stream untouched.
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
        //     into the location timeline and per-host call lists. ---
        // The worst blackout any move can produce bounds how close two
        // moves of the same VM may be scheduled.
        let dirty_cap = 4 * spec.params.ring_size as u64 + spec.params.host_backlog as u64;
        let max_blackout = spec.costs.pause
            + spec.costs.copy_base
            + SimDuration::from_nanos(spec.costs.copy_per_unit.as_nanos().saturating_mul(dirty_cap))
            + spec.costs.resume;
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

        let tl = Arc::new(Timeline {
            guest: compiled.guest_tl,
            ext: compiled.ext_tl,
        });

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
            m.enable_cluster(h as u32, spec.costs);
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
            for call in &compiled.calls[h] {
                match *call {
                    Call::Out { at, vm, abort } => m.schedule_migration_out(at, vm, abort),
                    Call::In { at, vm } => m.schedule_migration_in(at, vm),
                    Call::Restart { at, vm } => {
                        m.schedule_cold_restart(at, vm, compiled.slot_specs[vm as usize])
                    }
                    Call::ExtRetire { at, vm } => m.schedule_ext_retire(at, vm),
                    Call::Boot { at, vm, spec, stuck } => m.schedule_vm_boot(at, vm, spec, stuck),
                    Call::Depart { at, vm } => m.schedule_vm_depart(at, vm),
                    Call::BootTimeout { at, vm } => m.schedule_boot_timeout(at, vm),
                    Call::Note { at, vm, kind, arg } => m.schedule_churn_note(at, vm, kind, arg),
                }
            }
            lanes.push(HostLane {
                m,
                host: h as u32,
                crash_at: host_crash_at,
                done: false,
                tl: Arc::clone(&tl),
            });
        }

        Cluster {
            lanes,
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
        run_lanes(&mut self.lanes);
        self.collect()
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
            per_host.push(HostOutcome {
                host: lane.host,
                crashed: lane.crash_at,
                result: RunResult::collect(lane.m),
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
}
