//! Tenant-churn control plane: a deterministic VM lifecycle engine
//! driving arrival/departure streams into the cluster's best-fit
//! admission path mid-run.
//!
//! # Model
//!
//! A [`ChurnSpec`] pre-allocates one global slot per arrival after the
//! static fleet (every host builds every slot; a slot is a HLT-parked
//! dormant VM until a boot installs real state). Arrival inter-gaps and
//! tenant lifetimes are heavy-tailed (bounded Pareto) draws from the
//! churn RNG streams — forked after the nine existing fault streams, so
//! enabling churn never shifts a draw any other consumer sees, and a
//! disabled churn spec draws nothing at all.
//!
//! # Admission
//!
//! Each placement attempt is overload-aware: a host's free capacity is
//! its admission cap minus booted tenants minus boots still in flight,
//! and a host at its pending-depth limit (or dead) reports zero. The
//! winner is chosen by the same `best_fit` rule as static admission.
//! Rejected arrivals re-enter a bounded exponential-backoff retry queue
//! (`retry_backoff · 2^(attempt-1)` plus deterministic jitter from the
//! churn retry stream), exhausting into a permanently-rejected ledger.
//! A brownout defers the boot by `brownout_hold` when the admission
//! would push the host to `brownout_util` utilization — and lifts
//! deterministically when the deferred boot lands.
//!
//! # Lifecycle state machine
//!
//! ```text
//! Waiting ──place──▶ Booting ──boot_delay──▶ Resident ──lifetime──▶ Departed
//!    ▲                  │  │
//!    │   stall timeout  │  └─host crash──▶ re-placed via evacuation
//!    └──────────────────┘      (fresh boot on the spread target)
//!    │
//!    └─retries exhausted──▶ Rejected (final)
//! ```
//!
//! Every transition compiles to per-host machine calls (boot, depart,
//! timeout rollback, observational note) with times strictly inside the
//! run window, so the runtime side is an ordinary deterministic event
//! diet.
//!
//! # Compilation order
//!
//! The control schedule is a single min-heap over `(time, priority,
//! push-seq)`: at equal times a crash outranks a move (the legacy merge
//! loop's `m.at < tc` rule), moves keep their sorted order, and churn
//! events settle state (boot completions, departures, timeouts) before
//! new placement attempts observe it. With churn disabled the heap
//! degenerates to exactly the old crash/move merge — same asserts, same
//! calls, same timeline, byte-identical cells.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use es2_sim::{FaultInjector, SimDuration, SimTime};

use crate::cluster::{
    best_fit, evacuation_target, percentile_ns, ClusterSpec, PlannedMove, Timeline, CROSS_LANE_LOOKAHEAD,
};
use crate::params::ChurnSpec;
use crate::workload::WorkloadSpec;

/// Everything the churn control plane accounts for over one compile.
/// Entirely construction-time state, surfaced on `ClusterResult` and in
/// the digest.
#[derive(Clone, Debug, Default)]
pub struct ChurnLedger {
    /// Arrivals whose first attempt landed inside the run window.
    pub arrivals: u32,
    /// Arrivals that completed a clean boot (now-or-once resident).
    pub admitted: u32,
    /// Transient rejections: placement faults, capacity/pending-depth
    /// misses, and stall-timeout rollbacks (each re-enters retry).
    pub rejected_transient: u32,
    /// Arrivals that exhausted their retry budget (permanent ledger).
    pub rejected_final: u32,
    /// Retry attempts scheduled.
    pub retries: u32,
    /// Distinct arrivals that entered the retry queue at least once.
    pub retried: u32,
    /// Retried arrivals that eventually admitted.
    pub retry_successes: u32,
    /// Boots deferred by the brownout threshold.
    pub brownout_deferrals: u32,
    /// Injected control-plane placement failures.
    pub place_fail_faults: u32,
    /// Injected mid-handshake boot stalls.
    pub boot_stall_faults: u32,
    /// Mid-boot arrivals re-placed off a crashing host.
    pub replaced_on_crash: u32,
    /// Departures that raced an in-flight migration (teardown deferred
    /// until the copy settled, then cleaned up on the holding host).
    pub destroy_races: u32,
    /// Tenants torn down at end of lifetime.
    pub departures: u32,
    /// Lifecycle steps clipped by the end of the run (late arrivals,
    /// retries or boots past the window; the tenant never lands).
    pub abandoned: u32,
    /// Caller-planned moves of churn slots skipped because the slot was
    /// not cleanly resident at the move instant (lenient, not a panic:
    /// churn residency is a function of the run, not the plan).
    pub moves_skipped: u32,
    /// Admission-to-boot wait per admitted tenant (nanoseconds).
    pub boot_wait_ns: Vec<u64>,
}

impl ChurnLedger {
    /// Share of retried arrivals that eventually admitted (1.0 when
    /// nothing ever needed a retry).
    pub fn retry_success_ratio(&self) -> f64 {
        if self.retried == 0 {
            1.0
        } else {
            self.retry_successes as f64 / self.retried as f64
        }
    }

    /// Share of in-window arrivals that ended permanently rejected.
    pub fn rejection_ratio(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.rejected_final as f64 / self.arrivals as f64
        }
    }

    /// Boot-wait percentile in µs across admitted tenants.
    pub fn boot_wait_percentile_us(&self, q: f64) -> f64 {
        percentile_ns(&self.boot_wait_ns, q) / 1_000.0
    }

    /// One digest line; appended to the cluster digest only when churn
    /// is enabled, so churn-off cells keep their legacy bytes.
    pub(crate) fn digest_line(&self) -> String {
        format!(
            "churn arrivals={} admitted={} transient={} final={} retries={} retried={} \
             retry_ok={} brownout={} place_faults={} stall_faults={} replaced={} races={} \
             departures={} abandoned={} skipped_moves={} boot_wait_ns={:?}",
            self.arrivals,
            self.admitted,
            self.rejected_transient,
            self.rejected_final,
            self.retries,
            self.retried,
            self.retry_successes,
            self.brownout_deferrals,
            self.place_fail_faults,
            self.boot_stall_faults,
            self.replaced_on_crash,
            self.destroy_races,
            self.departures,
            self.abandoned,
            self.moves_skipped,
            self.boot_wait_ns,
        )
    }
}

/// Per-host machine calls compiled from the control schedule, applied
/// to each machine after build (in push order, which is chronological).
pub(crate) enum Call {
    Out { at: SimTime, vm: u32, abort: bool },
    In { at: SimTime, vm: u32 },
    Restart { at: SimTime, vm: u32 },
    ExtRetire { at: SimTime, vm: u32 },
    Boot { at: SimTime, vm: u32, spec: WorkloadSpec, stuck: bool },
    Depart { at: SimTime, vm: u32 },
    BootTimeout { at: SimTime, vm: u32 },
    Note { at: SimTime, vm: u32, kind: &'static str, arg: u64 },
}

/// The compiled control schedule: location timelines, per-host call
/// lists, the full slot-spec table, and the churn ledger (when on).
pub(crate) struct Compiled {
    pub(crate) guest_tl: Vec<Vec<(SimTime, u32)>>,
    pub(crate) ext_tl: Vec<Vec<(SimTime, u32)>>,
    pub(crate) calls: Vec<Vec<Call>>,
    pub(crate) slot_specs: Vec<WorkloadSpec>,
    pub(crate) churn: Option<ChurnLedger>,
}

/// Control events on the compile-time schedule heap.
#[derive(Clone, Copy)]
enum Ctrl {
    Crash { host: usize },
    Move { idx: usize },
    /// Arrival or retry placement attempt for churn slot `fleet_n+ci`.
    Attempt { ci: usize },
    /// A clean boot lands (epoch-checked: crashes invalidate).
    BootDone { ci: usize, epoch: u32 },
    /// A stuck boot's handshake timeout (epoch-checked).
    StallTimeout { ci: usize, epoch: u32 },
    /// End of tenant lifetime.
    Depart { ci: usize },
}

// At equal times: crashes before moves (the legacy merge loop's
// `m.at < tc` rule), then state-settling churn events (capacity frees
// become visible), then fresh placement attempts.
const PRIO_CRASH: u8 = 0;
const PRIO_MOVE: u8 = 1;
const PRIO_BOOT_DONE: u8 = 2;
const PRIO_DEPART: u8 = 3;
const PRIO_TIMEOUT: u8 = 4;
const PRIO_ATTEMPT: u8 = 5;

/// Min-heap over `(time, priority, push-seq)`; seq keeps equal-key
/// events in push order (moves arrive pre-sorted, so sorted order).
struct Sched {
    heap: BinaryHeap<Reverse<(SimTime, u8, u64, usize)>>,
    ctrls: Vec<Ctrl>,
    seq: u64,
}

impl Sched {
    fn new() -> Self {
        Sched {
            heap: BinaryHeap::new(),
            ctrls: Vec::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, prio: u8, c: Ctrl) {
        self.ctrls.push(c);
        self.heap.push(Reverse((at, prio, self.seq, self.ctrls.len() - 1)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, Ctrl)> {
        self.heap.pop().map(|Reverse((at, _, _, i))| (at, self.ctrls[i]))
    }
}

/// A churn slot's lifecycle state (compile-time mirror of the run).
#[derive(Clone, Copy, Debug)]
enum St {
    Waiting,
    Booting { host: usize, boot_at: SimTime },
    Resident { host: usize, since: SimTime },
    Departed,
    Rejected,
}

struct SlotCtl {
    st: St,
    /// Placement attempts so far (first attempt counts).
    attempts: u32,
    /// Bumped on every (re-)placement and crash invalidation; stale
    /// BootDone/StallTimeout controls compare and drop.
    epoch: u32,
    /// Original arrival instant (boot-wait base, survives retries).
    arrival: SimTime,
    lifetime: SimDuration,
}

struct Compiler<'a> {
    hosts: usize,
    fleet_n: usize,
    cap: u32,
    end: SimTime,
    restart_delay: SimDuration,
    max_blackout: SimDuration,
    churn: Option<ChurnSpec>,
    injector: &'a mut FaultInjector,
    /// Planned moves with original index and predrawn abort, sorted by
    /// `(at, index)` exactly like the legacy compiler.
    moves: Vec<(usize, PlannedMove, bool)>,
    guest_tl: Vec<Vec<(SimTime, u32)>>,
    ext_tl: Vec<Vec<(SimTime, u32)>>,
    alive: Vec<bool>,
    last_move_at: Vec<Option<SimTime>>,
    /// Per-slot blackout window of the latest move (destroy-race gate).
    move_until: Vec<Option<SimTime>>,
    calls: Vec<Vec<Call>>,
    /// Incremental per-host occupancy in VM units, for churn admission
    /// and brownout only. Legacy evacuation spreading recomputes
    /// occupancy from the timeline instead — byte-identity with the
    /// pre-churn compiler when churn is off.
    occ: Vec<u32>,
    /// Boots in flight per host (admission pending-depth gate).
    pending: Vec<u32>,
    ctl: Vec<SlotCtl>,
    ledger: ChurnLedger,
    sched: Sched,
}

/// Compile the full control schedule — crashes, moves, churn lifecycle
/// — into location timelines and per-host machine calls. `aborts` are
/// the predrawn per-move abort decisions (cluster migration stream);
/// churn draws happen here, on the churn streams only.
pub(crate) fn compile(
    spec: &ClusterSpec,
    placement: &[Option<u32>],
    crash_at: &[Option<SimTime>],
    aborts: Vec<bool>,
    injector: &mut FaultInjector,
    max_blackout: SimDuration,
    end: SimTime,
) -> Compiled {
    let hosts = spec.hosts as usize;
    let fleet_n = placement.len();
    let n_total = fleet_n + spec.churn.map_or(0, |c| c.arrivals as usize);

    let mut slot_specs = spec.fleet.clone();
    if let Some(c) = spec.churn {
        slot_specs.extend((0..c.arrivals).map(|_| c.spec));
    }

    let mut guest_tl: Vec<Vec<(SimTime, u32)>> = placement
        .iter()
        .map(|p| p.map(|h| vec![(SimTime::ZERO, h)]).unwrap_or_default())
        .collect();
    guest_tl.resize(n_total, Vec::new());
    let ext_tl = guest_tl.clone();

    let mut occ = vec![0u32; hosts];
    for p in placement.iter().flatten() {
        occ[*p as usize] += 1;
    }

    let mut moves: Vec<(usize, PlannedMove, bool)> = spec
        .moves
        .iter()
        .copied()
        .zip(aborts)
        .enumerate()
        .map(|(i, (m, a))| (i, m, a))
        .collect();
    moves.sort_by_key(|(i, m, _)| (m.at, *i));
    let mut crashes: Vec<(SimTime, usize)> = crash_at
        .iter()
        .enumerate()
        .filter_map(|(h, c)| c.map(|t| (t, h)))
        .collect();
    crashes.sort();

    let mut cc = Compiler {
        hosts,
        fleet_n,
        cap: spec.cap_vms_per_host,
        end,
        restart_delay: spec.restart_delay,
        max_blackout,
        churn: spec.churn,
        injector,
        moves,
        guest_tl,
        ext_tl,
        alive: vec![true; hosts],
        last_move_at: vec![None; n_total],
        move_until: vec![None; n_total],
        calls: (0..hosts).map(|_| Vec::new()).collect(),
        occ,
        pending: vec![0u32; hosts],
        ctl: Vec::new(),
        ledger: ChurnLedger::default(),
        sched: Sched::new(),
    };

    for &(tc, h) in &crashes {
        cc.sched.push(tc, PRIO_CRASH, Ctrl::Crash { host: h });
    }
    for idx in 0..cc.moves.len() {
        let at = cc.moves[idx].1.at;
        cc.sched.push(at, PRIO_MOVE, Ctrl::Move { idx });
    }

    // Heavy-tailed arrival schedule, drawn upfront on the churn arrival
    // stream: the draw count depends only on `arrivals`, never on what
    // the run does with them.
    if let Some(c) = spec.churn {
        let mut t = SimTime::ZERO + c.first_arrival;
        for ci in 0..c.arrivals as usize {
            if ci > 0 {
                t += cc.injector.churn_interarrival(c.mean_interarrival);
            }
            let lifetime = cc.injector.churn_lifetime(c.mean_lifetime);
            cc.ctl.push(SlotCtl {
                st: St::Waiting,
                attempts: 0,
                epoch: 0,
                arrival: t,
                lifetime,
            });
            if t < end {
                cc.ledger.arrivals += 1;
                cc.sched.push(t, PRIO_ATTEMPT, Ctrl::Attempt { ci });
            } else {
                cc.ledger.abandoned += 1;
            }
        }
    }

    while let Some((at, c)) = cc.sched.pop() {
        match c {
            Ctrl::Crash { host } => cc.on_crash(at, host),
            Ctrl::Move { idx } => cc.on_move(idx),
            Ctrl::Attempt { ci } => cc.on_attempt(at, ci),
            Ctrl::BootDone { ci, epoch } => cc.on_boot_done(at, ci, epoch),
            Ctrl::StallTimeout { ci, epoch } => cc.on_stall_timeout(at, ci, epoch),
            Ctrl::Depart { ci } => cc.on_depart(at, ci),
        }
    }

    Compiled {
        guest_tl: cc.guest_tl,
        ext_tl: cc.ext_tl,
        calls: cc.calls,
        slot_specs,
        churn: spec.churn.map(|_| cc.ledger),
    }
}

impl Compiler<'_> {
    fn churn(&self) -> ChurnSpec {
        self.churn.expect("churn control event without a churn spec")
    }

    fn on_move(&mut self, idx: usize) {
        let (_, m, abort) = self.moves[idx];
        let vmi = m.vm as usize;
        assert!(vmi < self.guest_tl.len(), "move of unknown VM {}", m.vm);
        assert!((m.to as usize) < self.hosts, "move to unknown host {}", m.to);
        if vmi < self.fleet_n {
            // Static-fleet move: the legacy validation, verbatim. These
            // are plan bugs, not simulated faults.
            assert!(
                !self.guest_tl[vmi].is_empty(),
                "move of VM {} that admission rejected",
                m.vm
            );
            let from = Timeline::host_at(&self.guest_tl[vmi], m.at);
            assert_ne!(from, m.to, "move of VM {} to its current host", m.vm);
            assert!(
                self.alive[from as usize] && self.alive[m.to as usize],
                "move of VM {} touches a host that is already down",
                m.vm
            );
            if let Some(prev) = self.last_move_at[vmi] {
                assert!(
                    m.at >= prev + self.max_blackout + CROSS_LANE_LOOKAHEAD,
                    "moves of VM {} are closer than the worst-case blackout",
                    m.vm
                );
            }
            self.last_move_at[vmi] = Some(m.at);
            self.move_until[vmi] = Some(m.at + self.max_blackout + CROSS_LANE_LOOKAHEAD);
            self.calls[from as usize].push(Call::Out {
                at: m.at,
                vm: m.vm,
                abort,
            });
            if !abort {
                self.calls[m.to as usize].push(Call::In { at: m.at, vm: m.vm });
                self.guest_tl[vmi].push((m.at, m.to));
                self.occ[from as usize] = self.occ[from as usize].saturating_sub(1);
                self.occ[m.to as usize] += 1;
            }
            return;
        }
        // Churn-slot move: residency is a function of the run, not the
        // plan, so preconditions a static plan would assert are skipped
        // leniently (and counted) instead.
        let ci = vmi - self.fleet_n;
        let from = match self.ctl[ci].st {
            St::Resident { host, since }
                if host != m.to as usize
                    && self.alive[host]
                    && self.alive[m.to as usize]
                    && m.at >= since + CROSS_LANE_LOOKAHEAD
                    && self.last_move_at[vmi]
                        .is_none_or(|prev| m.at >= prev + self.max_blackout + CROSS_LANE_LOOKAHEAD)
                    && self.move_until[vmi].is_none_or(|w| m.at >= w) =>
            {
                host
            }
            _ => {
                self.ledger.moves_skipped += 1;
                return;
            }
        };
        self.last_move_at[vmi] = Some(m.at);
        self.move_until[vmi] = Some(m.at + self.max_blackout + CROSS_LANE_LOOKAHEAD);
        self.calls[from].push(Call::Out {
            at: m.at,
            vm: m.vm,
            abort,
        });
        if !abort {
            self.calls[m.to as usize].push(Call::In { at: m.at, vm: m.vm });
            self.guest_tl[vmi].push((m.at, m.to));
            self.occ[from] = self.occ[from].saturating_sub(1);
            self.occ[m.to as usize] += 1;
            self.ctl[ci].st = St::Resident {
                host: m.to as usize,
                since: m.at,
            };
        }
    }

    fn on_crash(&mut self, tc: SimTime, h: usize) {
        self.alive[h] = false;
        let restart_at = tc + self.restart_delay;
        // Occupancy right now, for evacuation spreading: static slots
        // from the timeline (legacy byte-identity), churn slots from
        // the state machine — the timeline's pre-first-segment
        // convention would misread a not-yet-booted or departed slot
        // as resident.
        let mut occ_free = vec![0u32; self.hosts];
        for segs in self.guest_tl.iter().take(self.fleet_n) {
            if !segs.is_empty() {
                occ_free[Timeline::host_at(segs, tc) as usize] += 1;
            }
        }
        for c in &self.ctl {
            if let St::Resident { host, .. } = c.st {
                occ_free[host] += 1;
            }
        }
        let cap = self.cap;
        for f in &mut occ_free {
            *f = cap.saturating_sub(*f);
        }
        // Victims: every VM whose guest lives on `h` at the crash —
        // including one mid-copy *into* h (its snapshot will be dropped
        // on arrival) and one mid-abort-rollback on h. A VM mid-copy
        // *out of* h already reads as moved (its snapshot left at pause
        // time) and survives.
        for g in 0..self.guest_tl.len() {
            let is_victim = if g < self.fleet_n {
                !self.guest_tl[g].is_empty()
                    && Timeline::host_at(&self.guest_tl[g], tc) as usize == h
            } else {
                matches!(self.ctl[g - self.fleet_n].st, St::Resident { host, .. } if host == h)
            };
            if !is_victim {
                continue;
            }
            let target = evacuation_target(&occ_free, &self.alive)
                .expect("no surviving host to evacuate to");
            occ_free[target] = occ_free[target].saturating_sub(1);
            self.guest_tl[g].push((restart_at, target as u32));
            let old_ext = Timeline::host_at(&self.ext_tl[g], tc) as usize;
            self.ext_tl[g].push((restart_at, target as u32));
            self.calls[target].push(Call::Restart {
                at: restart_at,
                vm: g as u32,
            });
            // The restart rebuilds the external peer next to the
            // guest; a surviving old peer host retires its copy.
            if old_ext != h && old_ext != target && self.alive[old_ext] {
                self.calls[old_ext].push(Call::ExtRetire {
                    at: restart_at,
                    vm: g as u32,
                });
            }
            self.occ[target] += 1;
            if g >= self.fleet_n {
                self.ctl[g - self.fleet_n].st = St::Resident {
                    host: target,
                    since: restart_at,
                };
            }
        }
        // Arrivals mid-boot on the crashing host re-place through the
        // same evacuation spreading. The fresh placement also cures a
        // stuck handshake: the new host starts the boot from scratch.
        for ci in 0..self.ctl.len() {
            let St::Booting { host, boot_at } = self.ctl[ci].st else {
                continue;
            };
            if host != h {
                continue;
            }
            let g = self.fleet_n + ci;
            self.ctl[ci].epoch += 1;
            if boot_at > tc {
                // The staged boot's future segments die with the host.
                debug_assert_eq!(self.guest_tl[g].last(), Some(&(boot_at, h as u32)));
                self.guest_tl[g].pop();
                self.ext_tl[g].pop();
            }
            self.pending[h] = self.pending[h].saturating_sub(1);
            if restart_at >= self.end {
                self.ctl[ci].st = St::Waiting;
                self.ledger.abandoned += 1;
                continue;
            }
            let target = evacuation_target(&occ_free, &self.alive)
                .expect("no surviving host to evacuate to");
            occ_free[target] = occ_free[target].saturating_sub(1);
            self.pending[target] += 1;
            self.guest_tl[g].push((restart_at, target as u32));
            self.ext_tl[g].push((restart_at, target as u32));
            let spec = self.churn().spec;
            self.calls[target].push(Call::Boot {
                at: restart_at,
                vm: g as u32,
                spec,
                stuck: false,
            });
            self.ctl[ci].st = St::Booting {
                host: target,
                boot_at: restart_at,
            };
            self.ledger.replaced_on_crash += 1;
            let epoch = self.ctl[ci].epoch;
            self.sched
                .push(restart_at, PRIO_BOOT_DONE, Ctrl::BootDone { ci, epoch });
        }
        self.occ[h] = 0;
        self.pending[h] = 0;
    }

    fn on_attempt(&mut self, at: SimTime, ci: usize) {
        let c = self.churn();
        let g = (self.fleet_n + ci) as u32;
        debug_assert!(matches!(self.ctl[ci].st, St::Waiting));
        if self.injector.on_churn_placement() {
            self.ledger.place_fail_faults += 1;
            self.ledger.rejected_transient += 1;
            self.retry_or_reject(at, ci);
            return;
        }
        // Overload-aware headroom: admission cap minus booted tenants
        // minus boots in flight; a dead host or one at its pending
        // depth reports zero.
        let free: Vec<u32> = (0..self.hosts)
            .map(|h| {
                if self.alive[h] && self.pending[h] < c.pending_depth {
                    self.cap.saturating_sub(self.occ[h] + self.pending[h])
                } else {
                    0
                }
            })
            .collect();
        let Some(h) = best_fit(1, &free) else {
            self.ledger.rejected_transient += 1;
            self.retry_or_reject(at, ci);
            return;
        };
        let mut boot_at = at + c.boot_delay;
        // Brownout: if this admission pushes the host to the
        // utilization threshold, the boot defers by a fixed hold and
        // lifts deterministically when the deferred boot lands.
        let util = (self.occ[h] + self.pending[h] + 1) as f64 / self.cap.max(1) as f64;
        if util >= c.brownout_util {
            boot_at += c.brownout_hold;
            self.ledger.brownout_deferrals += 1;
        }
        let stuck = self.injector.on_churn_boot();
        if stuck {
            self.ledger.boot_stall_faults += 1;
        }
        self.calls[h].push(Call::Note {
            at,
            vm: g,
            kind: "vm-admit",
            arg: h as u64,
        });
        if boot_at >= self.end {
            self.ledger.abandoned += 1;
            return;
        }
        self.pending[h] += 1;
        self.ctl[ci].epoch += 1;
        self.ctl[ci].st = St::Booting { host: h, boot_at };
        self.guest_tl[g as usize].push((boot_at, h as u32));
        self.ext_tl[g as usize].push((boot_at, h as u32));
        self.calls[h].push(Call::Boot {
            at: boot_at,
            vm: g,
            spec: c.spec,
            stuck,
        });
        let epoch = self.ctl[ci].epoch;
        if stuck {
            let to = boot_at + c.boot_timeout;
            if to < self.end {
                self.calls[h].push(Call::BootTimeout { at: to, vm: g });
                self.sched
                    .push(to, PRIO_TIMEOUT, Ctrl::StallTimeout { ci, epoch });
            }
            // else: still stuck when the window closes; the run ends
            // around the half-booted slot (not reclaimed, so the
            // conservation invariant deliberately skips it).
        } else {
            self.sched
                .push(boot_at, PRIO_BOOT_DONE, Ctrl::BootDone { ci, epoch });
        }
    }

    fn on_boot_done(&mut self, at: SimTime, ci: usize, epoch: u32) {
        if epoch != self.ctl[ci].epoch {
            return; // invalidated by a crash re-placement
        }
        let St::Booting { host, boot_at } = self.ctl[ci].st else {
            return;
        };
        debug_assert_eq!(boot_at, at);
        self.pending[host] = self.pending[host].saturating_sub(1);
        self.occ[host] += 1;
        self.ctl[ci].st = St::Resident {
            host,
            since: boot_at,
        };
        self.ledger.admitted += 1;
        self.ledger
            .boot_wait_ns
            .push((boot_at - self.ctl[ci].arrival).as_nanos());
        if self.ctl[ci].attempts > 0 {
            self.ledger.retry_successes += 1;
        }
        let depart_at = boot_at + self.ctl[ci].lifetime;
        if depart_at < self.end {
            self.sched.push(depart_at, PRIO_DEPART, Ctrl::Depart { ci });
        }
    }

    fn on_stall_timeout(&mut self, at: SimTime, ci: usize, epoch: u32) {
        if epoch != self.ctl[ci].epoch {
            return; // invalidated by a crash re-placement
        }
        let St::Booting { host, .. } = self.ctl[ci].st else {
            return;
        };
        // The machine-side rollback (Call::BootTimeout) was emitted at
        // placement; here the control plane frees the pending slot and
        // re-enters admission like any transient rejection.
        self.pending[host] = self.pending[host].saturating_sub(1);
        self.ctl[ci].st = St::Waiting;
        self.ledger.rejected_transient += 1;
        self.retry_or_reject(at, ci);
    }

    fn on_depart(&mut self, at: SimTime, ci: usize) {
        if at >= self.end {
            return; // tenant outlives the run
        }
        let g = self.fleet_n + ci;
        let St::Resident { host, since } = self.ctl[ci].st else {
            return;
        };
        if at < since + CROSS_LANE_LOOKAHEAD {
            // Evacuated mid-lifetime: the teardown must land strictly
            // after the restart does.
            self.sched
                .push(since + CROSS_LANE_LOOKAHEAD, PRIO_DEPART, Ctrl::Depart { ci });
            return;
        }
        if let Some(w) = self.move_until[g] {
            if at < w {
                // Destroy racing an in-flight migration: the copy
                // settles first (abort rollback or resume), then the
                // teardown cleans up on whichever host holds the
                // tenant. Deterministic either way; never a leak.
                self.ledger.destroy_races += 1;
                self.sched.push(w, PRIO_DEPART, Ctrl::Depart { ci });
                return;
            }
        }
        debug_assert!(self.alive[host], "depart on a dead host");
        self.calls[host].push(Call::Depart { at, vm: g as u32 });
        // A live-migrated tenant's peer stayed home; retire it there.
        let ext_host = Timeline::host_at(&self.ext_tl[g], at) as usize;
        if ext_host != host && self.alive[ext_host] {
            self.calls[ext_host].push(Call::ExtRetire { at, vm: g as u32 });
        }
        self.occ[host] = self.occ[host].saturating_sub(1);
        self.ctl[ci].st = St::Departed;
        self.ledger.departures += 1;
    }

    /// A transient rejection at `now`: back off exponentially with
    /// deterministic jitter and retry, or exhaust into the permanent
    /// ledger.
    fn retry_or_reject(&mut self, now: SimTime, ci: usize) {
        let c = self.churn();
        let g = (self.fleet_n + ci) as u32;
        self.ctl[ci].attempts += 1;
        let attempts = self.ctl[ci].attempts;
        if attempts > c.max_retries {
            self.ctl[ci].st = St::Rejected;
            self.ledger.rejected_final += 1;
            if now < self.end {
                if let Some(h) = self.alive.iter().position(|a| *a) {
                    self.calls[h].push(Call::Note {
                        at: now,
                        vm: g,
                        kind: "vm-reject",
                        arg: attempts as u64,
                    });
                }
            }
            return;
        }
        let shift = (attempts - 1).min(16);
        let backoff =
            SimDuration::from_nanos(c.retry_backoff.as_nanos().saturating_mul(1u64 << shift));
        let jitter = self.injector.churn_retry_jitter(c.retry_jitter);
        let retry_at = now + backoff + jitter;
        if retry_at >= self.end {
            self.ledger.abandoned += 1;
            return; // stays Waiting, terminally
        }
        if attempts == 1 {
            self.ledger.retried += 1;
        }
        self.ledger.retries += 1;
        self.ctl[ci].st = St::Waiting;
        self.sched.push(retry_at, PRIO_ATTEMPT, Ctrl::Attempt { ci });
    }
}
