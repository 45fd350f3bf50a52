//! The weighted-fair scheduler (CFS model).
//!
//! Implements the subset of CFS that the paper's mechanisms observe:
//! vruntime-ordered run queues, tick-driven timeslice enforcement
//! (`check_preempt_tick`), wakeup preemption (`check_preempt_wakeup` with
//! gentle sleeper placement), and context-switch notifications equivalent to
//! KVM's `kvm_sched_in`/`kvm_sched_out` preemption notifiers.
//!
//! The caller (the discrete-event testbed) invokes [`CfsScheduler::tick`] on
//! every timer tick, [`CfsScheduler::wake`] / [`CfsScheduler::block`] on
//! thread state changes, and applies the returned [`Switch`] transitions —
//! e.g. feeding them to ES2's online/offline vCPU lists.

use es2_sim::{SimDuration, SimTime};

use crate::entity::{CoreId, SchedEntity, ThreadId, ThreadState};
use crate::weights::{nice_to_weight, scale_delta};

/// Tunable scheduler parameters (defaults follow Linux 4.x on small SMP).
#[derive(Clone, Copy, Debug)]
pub struct SchedParams {
    /// Targeted preemption latency for CPU-bound tasks.
    pub sched_latency: SimDuration,
    /// Minimal preemption granularity.
    pub min_granularity: SimDuration,
    /// Wakeup preemption hysteresis.
    pub wakeup_granularity: SimDuration,
    /// Periodic tick (CONFIG_HZ).
    pub tick_period: SimDuration,
}

impl Default for SchedParams {
    fn default() -> Self {
        // Linux defaults for a ~8-CPU machine (values already include the
        // log2(ncpus) scaling factor the kernel applies at boot).
        SchedParams {
            sched_latency: SimDuration::from_millis(24),
            min_granularity: SimDuration::from_millis(3),
            wakeup_granularity: SimDuration::from_millis(4),
            tick_period: SimDuration::from_millis(1),
        }
    }
}

/// A context-switch notification: `prev` was switched out of `core` (the
/// `kvm_sched_out` notifier) and `next` switched in (`kvm_sched_in`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Switch {
    /// The core on which the switch happened.
    pub core: CoreId,
    /// The descheduled thread, if the core was not idle.
    pub prev: Option<ThreadId>,
    /// The newly running thread, if the core does not go idle.
    pub next: Option<ThreadId>,
}

/// Runnable (not running) entities ordered by `(vruntime, id)`: the
/// red-black tree of Linux CFS, as a sorted `Vec`.
///
/// The leftmost entity (the next to run) is the last element, so picking
/// it is a pop, and an insert or removal is a binary search plus a
/// `memmove` of the entries after it. That is cheap at the depths the
/// simulator produces: at an enqueue, a core's queue holds 1.1 to 7
/// entities on average, and at most 128 (`dense`, 256 vCPU threads on 2
/// cores), and an insert moves about one entry on average (DESIGN.md §8).
#[derive(Clone, Debug, Default)]
struct RunQueue {
    /// Sorted descending: the leftmost entity is last.
    desc: Vec<(u64, ThreadId)>,
}

impl RunQueue {
    /// The entity with the smallest `(vruntime, id)`.
    #[inline]
    fn leftmost(&self) -> Option<(u64, ThreadId)> {
        self.desc.last().copied()
    }

    #[inline]
    fn pop_leftmost(&mut self) -> Option<(u64, ThreadId)> {
        self.desc.pop()
    }

    /// Enqueue an entity that is not queued yet.
    #[inline]
    fn insert(&mut self, e: (u64, ThreadId)) {
        let i = self.desc.partition_point(|&x| x > e);
        debug_assert!(self.desc.get(i) != Some(&e), "entity queued twice");
        self.desc.insert(i, e);
    }

    /// Dequeue `e`; false if it was not queued.
    #[inline]
    fn remove(&mut self, e: (u64, ThreadId)) -> bool {
        match self.desc.binary_search_by(|x| e.cmp(x)) {
            Ok(i) => {
                self.desc.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.desc.is_empty()
    }
}

#[derive(Clone, Debug, Default)]
struct CoreRq {
    /// Runnable (not running) entities ordered by (vruntime, id).
    queue: RunQueue,
    /// Sum of weights of runnable + running entities.
    total_weight: u64,
    /// Monotone floor of vruntime on this queue.
    min_vruntime: u64,
    /// Currently running entity.
    current: Option<ThreadId>,
    /// When the current entity was switched in.
    slice_start: SimTime,
    /// Runnable + running count.
    nr_running: u32,
    /// Context switches performed on this core.
    switch_count: u64,
}

/// The scheduler: an arena of entities plus per-core run queues.
#[derive(Clone, Debug)]
pub struct CfsScheduler {
    params: SchedParams,
    threads: Vec<SchedEntity>,
    cores: Vec<CoreRq>,
}

impl CfsScheduler {
    /// A scheduler managing `num_cores` idle cores.
    pub fn new(num_cores: usize, params: SchedParams) -> Self {
        CfsScheduler {
            params,
            threads: Vec::new(),
            cores: vec![CoreRq::default(); num_cores],
        }
    }

    /// Number of managed cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Register a new (sleeping) thread pinned to `core`.
    pub fn add_thread(&mut self, nice: i8, core: CoreId) -> ThreadId {
        assert!(core.idx() < self.cores.len(), "core out of range");
        let id = ThreadId(self.threads.len() as u32);
        let mut e = SchedEntity::new(nice_to_weight(nice), core);
        // New tasks start at the queue's current minimum so they neither
        // starve nor monopolize.
        e.vruntime = self.cores[core.idx()].min_vruntime;
        self.threads.push(e);
        id
    }

    /// Entity accessor (tests, metrics).
    pub fn entity(&self, t: ThreadId) -> &SchedEntity {
        &self.threads[t.idx()]
    }

    /// Advance a sleeping thread's vruntime by `delta_ns` — used to
    /// desynchronize initially identical threads (real run queues never
    /// start in phase; without this, equal-weight threads on different
    /// cores rotate in lockstep and co-scheduling artifacts appear).
    ///
    /// Panics if the thread is runnable or running.
    pub fn nudge_vruntime(&mut self, t: ThreadId, delta_ns: u64) {
        let e = &mut self.threads[t.idx()];
        assert_eq!(
            e.state,
            ThreadState::Sleeping,
            "nudge_vruntime on an active thread"
        );
        e.vruntime += delta_ns;
    }

    /// Currently running thread on `core`.
    pub fn current(&self, core: CoreId) -> Option<ThreadId> {
        self.cores[core.idx()].current
    }

    /// True if `t` is executing right now.
    pub fn is_running(&self, t: ThreadId) -> bool {
        self.threads[t.idx()].state == ThreadState::Running
    }

    /// Since when `t` has been off-core (preempted or blocked); `None`
    /// while it is running. The flight recorder uses this to annotate how
    /// stale an interrupt's target already was at raise time.
    pub fn descheduled_since(&self, t: ThreadId) -> Option<SimTime> {
        self.threads[t.idx()].off_core_since
    }

    /// Runnable + running count on `core`.
    pub fn nr_running(&self, core: CoreId) -> u32 {
        self.cores[core.idx()].nr_running
    }

    /// Total context switches on `core`.
    pub fn switch_count(&self, core: CoreId) -> u64 {
        self.cores[core.idx()].switch_count
    }

    /// Charge the current entity's execution up to `now`.
    fn update_curr(&mut self, core: CoreId, now: SimTime) {
        let rq = &mut self.cores[core.idx()];
        let Some(cur) = rq.current else { return };
        let e = &mut self.threads[cur.idx()];
        let delta = now.saturating_since(e.ran_since);
        if delta.is_zero() {
            return;
        }
        e.ran_since = now;
        e.sum_exec += delta;
        e.vruntime += scale_delta(delta.as_nanos(), e.weight);
        // Advance min_vruntime monotonically towards min(current, leftmost).
        let leftmost = rq.queue.leftmost().map(|(v, _)| v);
        let floor = match leftmost {
            Some(l) => l.min(self.threads[cur.idx()].vruntime),
            None => self.threads[cur.idx()].vruntime,
        };
        rq.min_vruntime = rq.min_vruntime.max(floor);
    }

    /// The fair timeslice for the current entity on `core`
    /// (`sched_slice`): latency period split by weight, with the period
    /// stretched when over-committed.
    fn slice_for(&self, core: CoreId, t: ThreadId) -> SimDuration {
        let rq = &self.cores[core.idx()];
        let nr = rq.nr_running.max(1) as u64;
        let latency = self.params.sched_latency.as_nanos();
        let min_gran = self.params.min_granularity.as_nanos();
        let period = latency.max(min_gran * nr);
        let w = self.threads[t.idx()].weight as u64;
        let total = rq.total_weight.max(w);
        SimDuration::from_nanos((period * w / total).max(min_gran))
    }

    /// Switch `core` to the leftmost runnable entity (or idle). The caller
    /// must already have dealt with the previous current.
    fn pick_next(&mut self, core: CoreId, now: SimTime, prev: Option<ThreadId>) -> Switch {
        let rq = &mut self.cores[core.idx()];
        if let Some((_, tid)) = rq.queue.pop_leftmost() {
            rq.current = Some(tid);
            rq.slice_start = now;
            rq.switch_count += 1;
            let e = &mut self.threads[tid.idx()];
            e.state = ThreadState::Running;
            e.ran_since = now;
            e.off_core_since = None;
            e.switches_in += 1;
            Switch {
                core,
                prev,
                next: Some(tid),
            }
        } else {
            rq.current = None;
            Switch {
                core,
                prev,
                next: None,
            }
        }
    }

    /// Requeue the running entity as runnable (used on preemption).
    fn put_prev(&mut self, core: CoreId, cur: ThreadId, now: SimTime) {
        let e = &mut self.threads[cur.idx()];
        e.state = ThreadState::Runnable;
        e.off_core_since = Some(now);
        let v = e.vruntime;
        self.cores[core.idx()].queue.insert((v, cur));
    }

    /// Wake a sleeping thread. Returns a [`Switch`] if wakeup preemption
    /// (or an idle core) causes an immediate context switch.
    ///
    /// Waking an already-runnable/running thread is a no-op, matching
    /// `try_to_wake_up` semantics.
    pub fn wake(&mut self, t: ThreadId, now: SimTime) -> Option<Switch> {
        if self.threads[t.idx()].state != ThreadState::Sleeping {
            return None;
        }
        let core = self.threads[t.idx()].core;
        self.update_curr(core, now);
        // Gentle sleeper placement: credit at most half a latency period.
        let rq = &mut self.cores[core.idx()];
        let credit = self.params.sched_latency.as_nanos() / 2;
        let floor = rq.min_vruntime.saturating_sub(credit);
        let e = &mut self.threads[t.idx()];
        e.vruntime = e.vruntime.max(floor);
        e.state = ThreadState::Runnable;
        let (v, w) = (e.vruntime, e.weight);
        rq.queue.insert((v, t));
        rq.total_weight += w as u64;
        rq.nr_running += 1;

        match rq.current {
            None => Some(self.pick_next(core, now, None)),
            Some(cur) => {
                // check_preempt_wakeup: preempt if the woken entity is
                // behind the current one by more than the (weight-scaled)
                // wakeup granularity.
                let gran = scale_delta(
                    self.params.wakeup_granularity.as_nanos(),
                    self.threads[t.idx()].weight,
                );
                let cur_v = self.threads[cur.idx()].vruntime;
                let new_v = self.threads[t.idx()].vruntime;
                if cur_v > new_v.saturating_add(gran) {
                    self.put_prev(core, cur, now);
                    Some(self.pick_next(core, now, Some(cur)))
                } else {
                    None
                }
            }
        }
    }

    /// The current thread on its core voluntarily blocks. Returns the
    /// resulting switch.
    ///
    /// Panics if `t` is not currently running (a simulation logic error).
    pub fn block(&mut self, t: ThreadId, now: SimTime) -> Switch {
        let core = self.threads[t.idx()].core;
        assert_eq!(
            self.cores[core.idx()].current,
            Some(t),
            "block() caller must be the running thread"
        );
        self.update_curr(core, now);
        let e = &mut self.threads[t.idx()];
        e.state = ThreadState::Sleeping;
        e.off_core_since = Some(now);
        let w = e.weight;
        let rq = &mut self.cores[core.idx()];
        rq.total_weight -= w as u64;
        rq.nr_running -= 1;
        self.pick_next(core, now, Some(t))
    }

    /// Forcibly deschedule `t` whatever state it is in — the pause half of
    /// a live-migration (or hot-unplug) of a vCPU thread. [`Self::block`]
    /// only handles the voluntary case (the *running* thread blocks
    /// itself); a migration pause must also take threads that are merely
    /// queued runnable, which `block` rejects by design.
    ///
    /// - Running: behaves like `block` and returns the resulting switch.
    /// - Runnable: silently dequeued from its core's run queue (the
    ///   off-core ledger keeps the instant it originally left the core).
    /// - Sleeping: no-op.
    pub fn deactivate(&mut self, t: ThreadId, now: SimTime) -> Option<Switch> {
        match self.threads[t.idx()].state {
            ThreadState::Running => Some(self.block(t, now)),
            ThreadState::Sleeping => None,
            ThreadState::Runnable => {
                let core = self.threads[t.idx()].core;
                self.update_curr(core, now);
                let e = &mut self.threads[t.idx()];
                let (v, w) = (e.vruntime, e.weight);
                e.state = ThreadState::Sleeping;
                let rq = &mut self.cores[core.idx()];
                assert!(
                    rq.queue.remove((v, t)),
                    "runnable thread must sit on its core's run queue"
                );
                rq.total_weight -= w as u64;
                rq.nr_running -= 1;
                None
            }
        }
    }

    /// Periodic tick on `core`: charge runtime and enforce the timeslice
    /// (`check_preempt_tick`). Returns a switch if the current entity is
    /// preempted.
    pub fn tick(&mut self, core: CoreId, now: SimTime) -> Option<Switch> {
        self.tick_with_noise(core, now, 0)
    }

    /// Like [`CfsScheduler::tick`], but additionally charges `noise_ns` of
    /// unaccounted host work (interrupts, kworkers) to the current
    /// entity's vruntime. On real hosts this noise is what makes
    /// initially synchronized run-queue rotations drift apart; without it
    /// a simulation of identical CPU hogs stays phase-locked forever.
    pub fn tick_with_noise(&mut self, core: CoreId, now: SimTime, noise_ns: u64) -> Option<Switch> {
        self.update_curr(core, now);
        if noise_ns > 0 {
            if let Some(cur) = self.cores[core.idx()].current {
                self.threads[cur.idx()].vruntime += noise_ns;
            }
        }
        let rq = &self.cores[core.idx()];
        let cur = rq.current?;
        if rq.queue.is_empty() {
            return None;
        }
        let ran = now.saturating_since(rq.slice_start);
        let slice = self.slice_for(core, cur);
        let leftmost_v = rq.queue.leftmost().map_or(u64::MAX, |(v, _)| v);
        let cur_v = self.threads[cur.idx()].vruntime;

        let over_slice = ran >= slice;
        let under_min_gran = ran < self.params.min_granularity;
        let far_ahead = cur_v > leftmost_v.saturating_add(slice.as_nanos());

        if over_slice || (!under_min_gran && far_ahead) {
            // Only preempt if someone else would actually run next.
            if leftmost_v <= cur_v || over_slice {
                self.put_prev(core, cur, now);
                return Some(self.pick_next(core, now, Some(cur)));
            }
        }
        None
    }

    /// Force a reschedule on `core` regardless of granularity (used by the
    /// testbed when a vCPU thread must yield, e.g. emulating `resched_curr`).
    pub fn resched(&mut self, core: CoreId, now: SimTime) -> Option<Switch> {
        self.update_curr(core, now);
        let rq = &self.cores[core.idx()];
        let cur = rq.current?;
        if rq.queue.is_empty() {
            return None;
        }
        self.put_prev(core, cur, now);
        Some(self.pick_next(core, now, Some(cur)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const NICE0: i8 = 0;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Drive `sched` with 1ms ticks for `ms` milliseconds starting at
    /// `start`, returning per-thread observed runtime.
    fn drive_ticks(sched: &mut CfsScheduler, core: CoreId, start_ms: u64, ms: u64) {
        for i in 1..=ms {
            sched.tick(core, t(start_ms + i));
        }
    }

    #[test]
    fn wake_on_idle_core_switches_in() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let sw = s.wake(a, t(0)).expect("idle core switches immediately");
        assert_eq!(
            sw,
            Switch {
                core: CoreId(0),
                prev: None,
                next: Some(a)
            }
        );
        assert!(s.is_running(a));
        assert_eq!(s.current(CoreId(0)), Some(a));
    }

    #[test]
    fn double_wake_is_noop() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        s.wake(a, t(0));
        assert!(s.wake(a, t(1)).is_none());
        assert_eq!(s.nr_running(CoreId(0)), 1);
    }

    #[test]
    fn block_switches_to_next_or_idle() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(0));
        s.wake(a, t(0));
        s.wake(b, t(0));
        let sw = s.block(a, t(5));
        assert_eq!(sw.prev, Some(a));
        assert_eq!(sw.next, Some(b));
        let sw = s.block(b, t(6));
        assert_eq!(sw.next, None, "core goes idle");
        assert_eq!(s.current(CoreId(0)), None);
    }

    #[test]
    fn deactivate_takes_running_runnable_and_sleeping_threads() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(0));
        let c = s.add_thread(NICE0, CoreId(0));
        s.wake(a, t(0));
        s.wake(b, t(1));
        s.wake(c, t(1));
        assert_eq!(s.nr_running(CoreId(0)), 3);
        // b is queued runnable: block() would panic, deactivate dequeues it.
        assert!(!s.is_running(b));
        assert!(s.deactivate(b, t(2)).is_none());
        assert_eq!(s.nr_running(CoreId(0)), 2);
        // a is running: deactivate behaves like block and switches to c.
        let sw = s.deactivate(a, t(3)).expect("running thread yields a switch");
        assert_eq!(sw.prev, Some(a));
        assert_eq!(sw.next, Some(c));
        // b already sleeps: deactivate is a no-op.
        assert!(s.deactivate(b, t(4)).is_none());
        assert_eq!(s.nr_running(CoreId(0)), 1);
        // Deactivated threads wake cleanly afterwards (migration resume).
        s.block(c, t(5));
        let sw = s.wake(b, t(6)).expect("idle core switches b in");
        assert_eq!(sw.next, Some(b));
        assert!(s.is_running(b));
    }

    #[test]
    fn off_core_ledger_tracks_transitions() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(0));
        assert_eq!(s.descheduled_since(a), Some(SimTime::ZERO), "born off-core");
        s.wake(a, t(0));
        assert_eq!(s.descheduled_since(a), None, "running");
        s.wake(b, t(1));
        s.block(a, t(5));
        assert_eq!(s.descheduled_since(a), Some(t(5)), "blocked at t+5ms");
        assert_eq!(s.descheduled_since(b), None, "b switched in");
        // Waking makes a runnable but not running: the ledger keeps the
        // original off-core instant (an interrupt targeting a has been
        // waiting since the block, not since the wake).
        s.wake(a, t(6));
        assert_eq!(s.descheduled_since(a), Some(t(5)), "runnable, still off-core");
        // b leaving the core switches a in and stamps b.
        let sw = s.block(b, t(9));
        assert_eq!(sw.next, Some(a));
        assert_eq!(s.descheduled_since(a), None, "a switched in");
        assert_eq!(s.descheduled_since(b), Some(t(9)), "b blocked at t+9ms");
    }

    #[test]
    fn equal_weight_threads_share_fairly() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(0));
        s.wake(a, t(0));
        s.wake(b, t(0));
        drive_ticks(&mut s, CoreId(0), 0, 1000);
        let ra = s.entity(a).sum_exec.as_millis_f64();
        let rb = s.entity(b).sum_exec.as_millis_f64();
        let share = ra / (ra + rb);
        assert!((share - 0.5).abs() < 0.05, "share={share} ra={ra} rb={rb}");
    }

    #[test]
    fn nice19_gets_tiny_share_against_nice0() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let hog = s.add_thread(19, CoreId(0)); // burn script
        let io = s.add_thread(NICE0, CoreId(0));
        s.wake(hog, t(0));
        s.wake(io, t(0));
        drive_ticks(&mut s, CoreId(0), 0, 2000);
        let rh = s.entity(hog).sum_exec.as_millis_f64();
        let ri = s.entity(io).sum_exec.as_millis_f64();
        // weight 15 vs 1024 => ~1.4% share, but min_granularity guarantees
        // the hog some slices; accept < 12%.
        let share = rh / (rh + ri);
        assert!(share < 0.12, "hog share={share}");
    }

    #[test]
    fn tick_rotates_among_equal_threads() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let ids: Vec<_> = (0..4).map(|_| s.add_thread(NICE0, CoreId(0))).collect();
        for &id in &ids {
            s.wake(id, t(0));
        }
        let mut seen = BTreeSet::new();
        for i in 1..=200 {
            s.tick(CoreId(0), t(i));
            seen.insert(s.current(CoreId(0)).unwrap());
        }
        assert_eq!(seen.len(), 4, "all threads get the CPU within 200ms");
    }

    #[test]
    fn scheduling_delay_is_bounded_by_period() {
        // 4 equal CPU-bound threads: once descheduled, a thread regains the
        // CPU within roughly nr_running * slice.
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let ids: Vec<_> = (0..4).map(|_| s.add_thread(NICE0, CoreId(0))).collect();
        for &id in &ids {
            s.wake(id, t(0));
        }
        let mut last_ran = [0u64; 4];
        let mut max_gap = 0u64;
        for i in 1..=2000 {
            s.tick(CoreId(0), t(i));
            let cur = s.current(CoreId(0)).unwrap();
            for (k, &id) in ids.iter().enumerate() {
                if id == cur {
                    max_gap = max_gap.max(i - last_ran[k]);
                    last_ran[k] = i;
                }
            }
        }
        // Period for 4 threads = max(24ms, 4*3ms) = 24ms; gaps should stay
        // within ~2 periods.
        assert!(max_gap <= 48, "max scheduling gap {max_gap}ms");
    }

    #[test]
    fn wakeup_preempts_long_running_hog() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let hog = s.add_thread(NICE0, CoreId(0));
        let io = s.add_thread(NICE0, CoreId(0));
        s.wake(hog, t(0));
        drive_ticks(&mut s, CoreId(0), 0, 100); // hog accrues 100ms vruntime
        let sw = s.wake(io, t(100)).expect("sleeper preempts");
        assert_eq!(sw.prev, Some(hog));
        assert_eq!(sw.next, Some(io));
    }

    #[test]
    fn sleeper_credit_is_bounded() {
        // A thread that slept a long time gets at most ~latency/2 of credit,
        // not unbounded vruntime advantage.
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let hog = s.add_thread(NICE0, CoreId(0));
        let sleeper = s.add_thread(NICE0, CoreId(0));
        s.wake(hog, t(0));
        drive_ticks(&mut s, CoreId(0), 0, 10_000); // 10s
        s.wake(sleeper, t(10_000));
        let v_hog = s.entity(hog).vruntime;
        let v_sleeper = s.entity(sleeper).vruntime;
        let credit = v_hog.saturating_sub(v_sleeper);
        assert!(
            credit
                <= SimDuration::from_millis(12).as_nanos() + SimDuration::from_millis(1).as_nanos(),
            "sleeper credit {credit}ns too large"
        );
    }

    #[test]
    fn min_gran_prevents_thrashing() {
        // Immediately after a switch, a tick within min_granularity must not
        // switch again even if vruntimes are close.
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(0));
        s.wake(a, t(0));
        s.wake(b, t(0));
        let before = s.switch_count(CoreId(0));
        s.tick(CoreId(0), t(0) + SimDuration::from_micros(100));
        assert_eq!(
            s.switch_count(CoreId(0)),
            before,
            "no thrash within min_gran"
        );
    }

    #[test]
    fn resched_forces_rotation() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(0));
        s.wake(a, t(0));
        s.wake(b, t(0));
        let cur = s.current(CoreId(0)).unwrap();
        let sw = s.resched(CoreId(0), t(1)).expect("forced switch");
        assert_eq!(sw.prev, Some(cur));
        assert_ne!(sw.next, Some(cur));
    }

    #[test]
    fn per_core_isolation() {
        let mut s = CfsScheduler::new(2, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(1));
        s.wake(a, t(0));
        s.wake(b, t(0));
        assert_eq!(s.current(CoreId(0)), Some(a));
        assert_eq!(s.current(CoreId(1)), Some(b));
        assert_eq!(s.nr_running(CoreId(0)), 1);
        assert_eq!(s.nr_running(CoreId(1)), 1);
    }

    #[test]
    fn vruntime_is_weight_scaled() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let heavy = s.add_thread(-5, CoreId(0));
        s.wake(heavy, t(0));
        drive_ticks(&mut s, CoreId(0), 0, 100);
        let e = s.entity(heavy);
        // weight(−5) = 3121 ⇒ vruntime ≈ 100ms * 1024/3121 ≈ 32.8ms.
        let v_ms = e.vruntime as f64 / 1e6;
        assert!((v_ms - 32.8).abs() < 1.0, "v_ms={v_ms}");
        assert_eq!(e.sum_exec, SimDuration::from_millis(100));
    }

    #[test]
    fn switch_count_and_switches_in_agree() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(0));
        s.wake(a, t(0));
        s.wake(b, t(0));
        drive_ticks(&mut s, CoreId(0), 0, 500);
        let total = s.entity(a).switches_in + s.entity(b).switches_in;
        assert_eq!(total, s.switch_count(CoreId(0)));
        assert!(total >= 2);
    }

    #[test]
    fn nudged_thread_starts_behind() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        let b = s.add_thread(NICE0, CoreId(0));
        s.nudge_vruntime(b, SimDuration::from_millis(10).as_nanos());
        s.wake(a, t(0));
        s.wake(b, t(0));
        assert_eq!(s.current(CoreId(0)), Some(a), "a has the lower vruntime");
        assert!(s.entity(b).vruntime > s.entity(a).vruntime);
    }

    #[test]
    #[should_panic(expected = "nudge_vruntime on an active thread")]
    fn nudging_running_thread_panics() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        s.wake(a, t(0));
        s.nudge_vruntime(a, 1);
    }

    #[test]
    #[should_panic(expected = "block() caller")]
    fn blocking_a_non_running_thread_panics() {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        let a = s.add_thread(NICE0, CoreId(0));
        s.block(a, t(0));
    }

    proptest! {
        /// The run queue keeps exactly the order of the `BTreeSet` it
        /// replaced: over any mix of insert, remove and pop-leftmost, with
        /// vruntimes drawn from a small range so ties on vruntime are
        /// common, both agree on the leftmost entity and the full
        /// iteration order after every step.
        #[test]
        fn prop_run_queue_matches_btreeset(
            ops in proptest::collection::vec((0u8..3, 0u64..6, 0u32..8), 1..300)
        ) {
            let mut rq = RunQueue::default();
            let mut model: BTreeSet<(u64, ThreadId)> = BTreeSet::new();
            for (op, v, id) in ops {
                let e = (v, ThreadId(id));
                match op {
                    // The scheduler never enqueues a queued entity.
                    0 if !model.contains(&e) => {
                        rq.insert(e);
                        model.insert(e);
                    }
                    0 => {}
                    1 => prop_assert_eq!(rq.remove(e), model.remove(&e)),
                    _ => prop_assert_eq!(rq.pop_leftmost(), model.pop_first()),
                }
                prop_assert_eq!(rq.leftmost(), model.first().copied());
                prop_assert_eq!(rq.is_empty(), model.is_empty());
                prop_assert!(rq.desc.iter().rev().eq(model.iter()));
            }
        }
    }
}
