//! The vhost I/O worker thread model.
//!
//! In-kernel vhost (vhost-net) runs one kernel thread per device. Each
//! virtqueue has a *handler* (`handle_tx` / `handle_rx`); guest kicks (or,
//! under ES2, the polling scheduler) put handlers on the worker's FIFO
//! *work list*, and the worker thread pops and runs them. When the list is
//! empty the worker sleeps — that is the moment notification mode re-arms
//! guest kicks.
//!
//! This module models only the work-list structure; what a handler *does*
//! per invocation (and the ES2 quota logic) lives in `es2-core`.

use std::collections::VecDeque;

/// Index of a handler registered on a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HandlerId(pub u32);

impl HandlerId {
    /// Arena index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A vhost worker's pending-work state.
#[derive(Clone, Debug, Default)]
pub(crate) struct VhostWorker {
    work: VecDeque<HandlerId>,
    queued: Vec<bool>,
    /// Per-handler quarantine bits: a quarantined handler's kicks are
    /// refused (not panicked on) until `release` — the worker-side half of
    /// queue quarantine.
    quarantined: Vec<bool>,
    /// Deepest the work list has ever been — the backlog high-water
    /// mark. Purely a ledger: nothing in the dispatch logic reads it.
    pending_hwm: usize,
    /// Flight-recorder correlation ID riding with each handler's pending
    /// kick (0 = none). Observational only: the work-list logic never
    /// reads it, and it stays zero unless span tracing is on.
    kick_corr: Vec<u64>,
}

impl VhostWorker {
    /// A worker with no registered handlers.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register a handler; returns its id.
    pub(crate) fn register_handler(&mut self) -> HandlerId {
        let id = HandlerId(self.queued.len() as u32);
        self.queued.push(false);
        self.quarantined.push(false);
        self.kick_corr.push(0);
        id
    }

    /// Queue `h` for execution (a guest kick or an ES2 requeue).
    ///
    /// Returns `true` iff the item was newly queued on an idle worker —
    /// i.e. the worker thread was sleeping and must be woken up.
    /// Duplicate queueing coalesces with no wake-up, like
    /// `vhost_work_queue`'s test-and-set of `VHOST_WORK_QUEUED`: whoever
    /// set the bit first already arranged for the worker to run, so a
    /// second queue of the same handler must never report a wake-up,
    /// whatever the list looked like at the time.
    ///
    /// The handler id is guest-influenced (it arrives with a kick), so an
    /// unregistered id is refused — never indexed with.
    /// A quarantined handler's kicks are likewise refused: its queue is
    /// broken and the worker stopped serving it.
    pub(crate) fn queue_work(&mut self, h: HandlerId) -> bool {
        let Some(queued) = self.queued.get_mut(h.idx()) else {
            return false;
        };
        if *queued || self.quarantined[h.idx()] {
            return false;
        }
        let was_idle = self.work.is_empty();
        *queued = true;
        self.work.push_back(h);
        self.pending_hwm = self.pending_hwm.max(self.work.len());
        was_idle
    }

    /// Pop the next handler to run, or `None` (worker sleeps).
    pub(crate) fn next_work(&mut self) -> Option<HandlerId> {
        let h = self.work.pop_front()?;
        self.queued[h.idx()] = false;
        Some(h)
    }

    /// True if any handler is queued.
    pub(crate) fn has_work(&self) -> bool {
        !self.work.is_empty()
    }

    /// Number of queued handlers.
    pub(crate) fn pending(&self) -> usize {
        self.work.len()
    }

    /// True if `h` is currently queued (false for unregistered ids).
    pub(crate) fn is_queued(&self, h: HandlerId) -> bool {
        self.queued.get(h.idx()).copied().unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Quarantine ledger
    // ------------------------------------------------------------------

    /// Quarantine `h`: drop any queued invocation, refuse further kicks
    /// until [`release`](Self::release). Returns `true` if an invocation
    /// was pending (and was discarded). Unregistered ids are a no-op.
    pub(crate) fn quarantine(&mut self, h: HandlerId) -> bool {
        let Some(q) = self.quarantined.get_mut(h.idx()) else {
            return false;
        };
        *q = true;
        self.kick_corr[h.idx()] = 0;
        let was_pending = self.queued[h.idx()];
        if was_pending {
            self.queued[h.idx()] = false;
            self.work.retain(|&w| w != h);
        }
        was_pending
    }

    /// Lift the quarantine on `h` (the guest performed its queue reset).
    /// Kicks are accepted again; the handler is *not* requeued — the next
    /// real kick does that.
    pub(crate) fn release(&mut self, h: HandlerId) {
        if let Some(q) = self.quarantined.get_mut(h.idx()) {
            *q = false;
        }
    }

    /// Deepest the work list has ever been (backlog high-water mark).
    pub(crate) fn pending_high_water(&self) -> usize {
        self.pending_hwm
    }

    /// Attach a flight-recorder correlation ID to `h`'s pending kick.
    /// Returns `true` if stored; `false` if a kick already owns the slot
    /// (the signals coalesced — first kick keeps the span) or the id is
    /// unregistered.
    pub(crate) fn note_kick_corr(&mut self, h: HandlerId, corr: u64) -> bool {
        match self.kick_corr.get_mut(h.idx()) {
            Some(slot) if *slot == 0 => {
                *slot = corr;
                true
            }
            _ => false,
        }
    }

    /// The correlation ID currently riding with `h`'s pending kick
    /// (0 if none), without consuming it.
    pub(crate) fn kick_corr(&self, h: HandlerId) -> u64 {
        self.kick_corr.get(h.idx()).copied().unwrap_or(0)
    }

    /// Remove and return the correlation ID riding with `h`'s pending
    /// kick (0 if none) — called when a handler turn begins.
    pub(crate) fn take_kick_corr(&mut self, h: HandlerId) -> u64 {
        self.kick_corr
            .get_mut(h.idx())
            .map(std::mem::take)
            .unwrap_or(0)
    }
}

/// How queue pairs are assigned to the vhost workers of one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Every pair on worker 0 — the legacy single-thread mux. With one
    /// worker this is byte-identical to the pre-multi-queue model.
    #[default]
    Mux,
    /// Pair follows its owning vCPU (`owner % workers`), so a vCPU's TX
    /// and RX service lands on a stable worker — the per-vCPU affine
    /// sharding of multiqueue vhost-net.
    Affine,
    /// Each pair owns a worker outright (`worker == pair`) and the
    /// dispatch hop is skipped entirely: the NVMe I/O-queues-passthrough
    /// shape, where a queue maps straight to its backend poller.
    Passthrough,
}

impl ShardPolicy {
    /// The worker index serving `pair` of `vm` under this policy.
    /// `workers` must be >= 1; results are always in `0..workers`.
    pub(crate) fn worker_for(self, pair: u32, owner_vcpu: u32, workers: u32) -> u32 {
        let w = workers.max(1);
        match self {
            ShardPolicy::Mux => 0,
            ShardPolicy::Affine => owner_vcpu % w,
            ShardPolicy::Passthrough => pair % w,
        }
    }

    /// Short human label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ShardPolicy::Mux => "mux",
            ShardPolicy::Affine => "affine",
            ShardPolicy::Passthrough => "passthrough",
        }
    }
}

/// One device's vhost backend: `N` workers sharing a handler arena, with
/// a sharding policy that pins each handler to exactly one worker.
///
/// Every handler is registered on every worker so [`HandlerId`] arena
/// indices stay valid wherever a (guest-influenced) id shows up, but a
/// handler is only ever *queued* on its assigned worker — the FIFO
/// invariants of `VhostWorker` hold per worker, and cross-worker state
/// never mixes. With one worker and [`ShardPolicy::Mux`] the pool is
/// operationally identical to a bare `VhostWorker`.
///
/// The pool keeps a cached `pending_total` so host-wide pending-work
/// checks are O(1) instead of a sum over workers; the counter is
/// maintained across queue/dispatch/quarantine transitions and audited
/// by the contract tests below.
#[derive(Clone, Debug)]
pub struct VhostPool {
    workers: Vec<VhostWorker>,
    /// Handler idx -> assigned worker idx.
    assign: Vec<u32>,
    policy: ShardPolicy,
    /// Cached sum of `workers[w].pending()` (O(1) pool pending).
    pending_total: usize,
}

impl VhostPool {
    /// A pool of `workers` empty workers under `policy`.
    pub fn new(workers: usize, policy: ShardPolicy) -> Self {
        let n = workers.max(1);
        VhostPool {
            workers: (0..n).map(|_| VhostWorker::new()).collect(),
            assign: Vec::new(),
            policy,
            pending_total: 0,
        }
    }

    /// Register one TX/RX queue pair owned by `owner_vcpu`, returning
    /// `(tx, rx)` handler ids. Both halves land on the same worker.
    pub fn register_pair(&mut self, pair: u32, owner_vcpu: u32) -> (HandlerId, HandlerId) {
        let w = self
            .policy
            .worker_for(pair, owner_vcpu, self.workers.len() as u32);
        let mut tx = HandlerId(0);
        let mut rx = HandlerId(0);
        for worker in &mut self.workers {
            tx = worker.register_handler();
            rx = worker.register_handler();
        }
        self.assign.push(w);
        self.assign.push(w);
        (tx, rx)
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// True when queues own their workers and the dispatch hop is
    /// elided (see [`ShardPolicy::Passthrough`]).
    pub fn is_passthrough(&self) -> bool {
        self.policy == ShardPolicy::Passthrough
    }

    /// The worker assigned to `h` (worker 0 for unregistered ids, whose
    /// kicks that worker refuses).
    pub(crate) fn worker_of(&self, h: HandlerId) -> usize {
        self.assign.get(h.idx()).copied().unwrap_or(0) as usize
    }

    /// Queue `h` on its assigned worker. Returns the worker index and
    /// whether that worker was idle (its thread must be woken).
    pub fn queue_work(&mut self, h: HandlerId) -> (usize, bool) {
        let w = self.worker_of(h);
        let before = self.workers[w].is_queued(h);
        let was_idle = self.workers[w].queue_work(h);
        if !before && self.workers[w].is_queued(h) {
            self.pending_total += 1;
        }
        (w, was_idle)
    }

    /// Pop worker `w`'s next handler, or `None` (that thread sleeps).
    pub fn next_work(&mut self, w: usize) -> Option<HandlerId> {
        let h = self.workers[w].next_work();
        if h.is_some() {
            self.pending_total -= 1;
        }
        h
    }

    /// True if worker `w` has queued handlers.
    pub fn has_work_on(&self, w: usize) -> bool {
        self.workers[w].has_work()
    }

    /// Total queued handlers across all workers, O(1).
    pub fn pending_total(&self) -> usize {
        self.pending_total
    }

    /// Queued handlers on worker `w`.
    pub fn pending_on(&self, w: usize) -> usize {
        self.workers[w].pending()
    }

    /// Worker `w`'s backlog high-water mark.
    pub fn pending_hwm_on(&self, w: usize) -> usize {
        self.workers[w].pending_high_water()
    }

    /// True if `h` is queued (on its assigned worker).
    pub fn is_queued(&self, h: HandlerId) -> bool {
        self.workers[self.worker_of(h)].is_queued(h)
    }

    /// Quarantine `h` on its worker; see `VhostWorker::quarantine`.
    pub fn quarantine(&mut self, h: HandlerId) -> bool {
        let w = self.worker_of(h);
        let was_pending = self.workers[w].quarantine(h);
        if was_pending {
            self.pending_total -= 1;
        }
        was_pending
    }

    /// Lift the quarantine on `h`; see `VhostWorker::release`.
    pub fn release(&mut self, h: HandlerId) {
        let w = self.worker_of(h);
        self.workers[w].release(h);
    }

    /// Attach a flight-recorder correlation id to `h`'s pending kick on
    /// its assigned worker; see `VhostWorker::note_kick_corr`.
    pub fn note_kick_corr(&mut self, h: HandlerId, corr: u64) -> bool {
        let w = self.worker_of(h);
        self.workers[w].note_kick_corr(h, corr)
    }

    /// The correlation id riding with `h`'s pending kick (0 if none).
    pub fn kick_corr(&self, h: HandlerId) -> u64 {
        self.workers[self.worker_of(h)].kick_corr(h)
    }

    /// Remove and return the correlation id riding with `h`'s pending
    /// kick (0 if none).
    pub fn take_kick_corr(&mut self, h: HandlerId) -> u64 {
        let w = self.worker_of(h);
        self.workers[w].take_kick_corr(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RingError, Virtqueue, VirtqueueConfig};

    #[test]
    fn queue_reports_idle_transition() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        let b = w.register_handler();
        assert!(w.queue_work(a), "idle worker must be woken");
        assert!(!w.queue_work(b), "already busy");
    }

    // The four-cell wake-up contract: a wake-up is reported exactly when
    // a *new* item lands on an *idle* worker. These pin the
    // `vhost_work_queue` semantics the testbed's wake logic relies on.

    #[test]
    fn contract_idle_plus_new_wakes() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        assert!(w.queue_work(a));
        assert_eq!(w.pending(), 1);
    }

    #[test]
    fn contract_idle_plus_duplicate_does_not_wake() {
        // Normally `queued[h]` implies the list is non-empty, but a
        // stalled worker (fault injection) can observe the queued flag
        // with the list already drained mid-dispatch; force that state
        // directly. The duplicate must coalesce silently: whoever set
        // the flag already owns the wake-up.
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        w.queued[a.idx()] = true;
        assert!(!w.queue_work(a), "duplicate must never report a wake-up");
        assert_eq!(w.pending(), 0, "no list entry added");
    }

    #[test]
    fn contract_busy_plus_new_does_not_wake() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        let b = w.register_handler();
        assert!(w.queue_work(a));
        assert!(!w.queue_work(b), "worker already awake");
        assert_eq!(w.pending(), 2);
    }

    #[test]
    fn contract_busy_plus_duplicate_does_not_wake() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        assert!(w.queue_work(a));
        assert!(!w.queue_work(a));
        assert_eq!(w.pending(), 1);
    }

    #[test]
    fn duplicate_queueing_coalesces() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        w.queue_work(a);
        w.queue_work(a);
        assert_eq!(w.pending(), 1);
        assert_eq!(w.next_work(), Some(a));
        assert_eq!(w.next_work(), None);
    }

    #[test]
    fn fifo_dispatch_order() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        let b = w.register_handler();
        let c = w.register_handler();
        w.queue_work(b);
        w.queue_work(a);
        w.queue_work(c);
        assert_eq!(w.next_work(), Some(b));
        assert_eq!(w.next_work(), Some(a));
        assert_eq!(w.next_work(), Some(c));
    }

    #[test]
    fn requeue_after_pop_is_allowed() {
        // The ES2 polling handler requeues itself when its quota expires.
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        w.queue_work(a);
        assert_eq!(w.next_work(), Some(a));
        assert!(!w.is_queued(a));
        w.queue_work(a);
        assert!(w.is_queued(a));
        assert_eq!(w.next_work(), Some(a));
    }

    #[test]
    fn kick_corr_rides_with_the_pending_kick() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        let b = w.register_handler();
        assert!(w.note_kick_corr(a, 5), "empty slot stores");
        assert!(!w.note_kick_corr(a, 6), "coalesced kick keeps first span");
        assert_eq!(w.take_kick_corr(a), 5);
        assert_eq!(w.take_kick_corr(a), 0, "taken once");
        assert_eq!(w.take_kick_corr(b), 0, "independent slots");
    }

    #[test]
    fn unregistered_handler_kick_is_refused_not_indexed() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        w.queue_work(a);
        // A kick naming a handler that was never registered is hostile
        // input: it must be dropped, never panic.
        assert!(!w.queue_work(HandlerId(7)));
        assert!(!w.is_queued(HandlerId(7)));
        assert!(!w.quarantine(HandlerId(7)), "no-op for unregistered ids");
        assert!(!w.note_kick_corr(HandlerId(7), 9));
        assert_eq!(w.kick_corr(HandlerId(7)), 0);
        assert_eq!(w.take_kick_corr(HandlerId(7)), 0);
        assert_eq!(w.pending(), 1, "valid work untouched");
    }

    #[test]
    fn quarantine_drops_pending_work_and_refuses_kicks() {
        let mut vq: Virtqueue<u32> = Virtqueue::new(VirtqueueConfig {
            size: 8,
            event_idx: true,
        });
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        let b = w.register_handler();
        w.queue_work(a);
        w.queue_work(b);
        // A hostile descriptor index fails validation with a typed error,
        // and the backend quarantines the queue's handler.
        vq.guest_publish_desc_index(999);
        assert_eq!(
            vq.device_validate(),
            Err(RingError::DescOutOfRange {
                index: 999,
                size: 8
            })
        );
        assert!(w.quarantine(a), "pending invocation discarded");
        assert!(!w.is_queued(a));
        assert_eq!(w.pending(), 1);
        assert!(!w.queue_work(a), "quarantined kicks refused");
        assert!(!w.is_queued(a), "a refused kick queues nothing");
        // The neighbor keeps full service; `a` is never dispatched.
        assert_eq!(w.next_work(), Some(b));
        assert_eq!(w.next_work(), None);
    }

    #[test]
    fn release_restores_service_without_requeueing() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        w.queue_work(a);
        w.quarantine(a);
        w.release(a);
        assert!(!w.has_work(), "release does not requeue by itself");
        assert!(w.queue_work(a), "next real kick wakes the worker again");
        assert_eq!(w.next_work(), Some(a));
    }

    #[test]
    fn quarantine_clears_riding_kick_corr() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        w.queue_work(a);
        w.note_kick_corr(a, 42);
        w.quarantine(a);
        w.release(a);
        assert_eq!(w.take_kick_corr(a), 0, "stale span must not resurface");
    }

    #[test]
    fn counters() {
        // Each idle→busy transition reports exactly one wake-up, and each
        // queued invocation is dispatched exactly once.
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        let b = w.register_handler();
        assert!(w.queue_work(a), "wake-up 1");
        assert!(!w.queue_work(b));
        assert_eq!(w.next_work(), Some(a));
        assert_eq!(w.next_work(), Some(b));
        assert!(w.queue_work(a), "wake-up 2");
        assert_eq!(w.next_work(), Some(a));
        assert_eq!(w.next_work(), None);
        assert!(!w.has_work());
    }

    // ------------------------------------------------------------------
    // Pool / sharding contracts
    // ------------------------------------------------------------------

    #[test]
    fn policy_worker_for_is_in_range_and_stable() {
        for &policy in &[
            ShardPolicy::Mux,
            ShardPolicy::Affine,
            ShardPolicy::Passthrough,
        ] {
            for pair in 0..8 {
                for workers in 1..8 {
                    let w = policy.worker_for(pair, pair % 2, workers);
                    assert!(w < workers, "{policy:?} out of range");
                    let again = policy.worker_for(pair, pair % 2, workers);
                    assert_eq!(w, again, "{policy:?} must be deterministic");
                }
            }
        }
        // Mux is always worker 0; passthrough pins pair == worker.
        assert_eq!(ShardPolicy::Mux.worker_for(5, 1, 4), 0);
        assert_eq!(ShardPolicy::Passthrough.worker_for(2, 0, 4), 2);
        assert_eq!(ShardPolicy::Affine.worker_for(5, 1, 4), 1);
    }

    #[test]
    fn pool_single_worker_mux_matches_bare_worker() {
        let mut pool = VhostPool::new(1, ShardPolicy::Mux);
        let mut bare = VhostWorker::new();
        let (ptx, prx) = pool.register_pair(0, 0);
        let btx = bare.register_handler();
        let brx = bare.register_handler();
        assert_eq!((ptx, prx), (btx, brx), "handler ids line up");
        assert_eq!(pool.queue_work(ptx), (0, bare.queue_work(btx)));
        assert_eq!(pool.queue_work(prx), (0, bare.queue_work(brx)));
        assert_eq!(pool.next_work(0), bare.next_work());
        assert_eq!(pool.next_work(0), bare.next_work());
        assert_eq!(pool.next_work(0), bare.next_work());
        assert_eq!(pool.pending_total(), 0);
    }

    /// Satellite contract: queue_work -> next_work round-trips preserve
    /// FIFO order per worker even while other handlers on the same and
    /// other workers are quarantined and released in between.
    #[test]
    fn pool_fifo_per_worker_under_interleaved_quarantine_release() {
        // Passthrough with 4 pairs / 4 workers: pair k owns worker k.
        let mut pool = VhostPool::new(4, ShardPolicy::Passthrough);
        let pairs: Vec<(HandlerId, HandlerId)> =
            (0..4).map(|p| pool.register_pair(p, p % 2)).collect();
        for (p, &(tx, rx)) in pairs.iter().enumerate() {
            assert_eq!(pool.worker_of(tx), p);
            assert_eq!(pool.worker_of(rx), p);
        }

        // Queue rx then tx on worker 1; quarantine worker 2's tx in
        // between; FIFO on worker 1 must be unaffected.
        let (tx1, rx1) = pairs[1];
        let (tx2, _rx2) = pairs[2];
        pool.queue_work(rx1);
        pool.queue_work(tx2);
        assert!(pool.quarantine(tx2), "pending invocation dropped");
        pool.queue_work(tx1);
        assert_eq!(pool.pending_total(), 2);
        assert_eq!(pool.next_work(1), Some(rx1), "FIFO: rx queued first");
        pool.queue_work(rx1); // requeue mid-drain
        assert_eq!(pool.next_work(1), Some(tx1));
        assert_eq!(pool.next_work(1), Some(rx1));
        assert_eq!(pool.next_work(1), None);

        // Quarantined handler refuses kicks until release; release does
        // not requeue on its own.
        assert_eq!(pool.queue_work(tx2), (2, false));
        assert!(!pool.is_queued(tx2), "refused kick queues nothing");
        assert_eq!(pool.next_work(2), None, "nothing dispatched");
        pool.release(tx2);
        assert!(!pool.has_work_on(2));
        assert_eq!(pool.queue_work(tx2), (2, true), "post-release kick wakes");
        assert_eq!(pool.next_work(2), Some(tx2));
        assert_eq!(pool.pending_total(), 0);
    }

    /// Satellite contract: the cached pool pending counter stays equal
    /// to the per-worker sum across every transition that can change it.
    #[test]
    fn pool_pending_total_is_exact_across_transitions() {
        let mut pool = VhostPool::new(2, ShardPolicy::Affine);
        let mut hs = Vec::new();
        for p in 0..4 {
            let (tx, rx) = pool.register_pair(p, p % 2);
            hs.push(tx);
            hs.push(rx);
        }
        let audit = |pool: &VhostPool| {
            let sum: usize = (0..pool.num_workers()).map(|w| pool.pending_on(w)).sum();
            assert_eq!(pool.pending_total(), sum, "cached counter drifted");
        };
        for &h in &hs {
            pool.queue_work(h);
            pool.queue_work(h); // duplicate coalesces, no double count
            audit(&pool);
        }
        pool.quarantine(hs[3]);
        audit(&pool);
        pool.quarantine(hs[3]); // already quarantined, idempotent
        audit(&pool);
        pool.release(hs[3]);
        audit(&pool);
        pool.queue_work(HandlerId(99)); // rejected, not counted
        audit(&pool);
        for w in 0..pool.num_workers() {
            while pool.next_work(w).is_some() {
                audit(&pool);
            }
        }
        assert_eq!(pool.pending_total(), 0);
    }

    #[test]
    fn pending_high_water_tracks_deepest_backlog() {
        let mut w = VhostWorker::new();
        let a = w.register_handler();
        let b = w.register_handler();
        let c = w.register_handler();
        assert_eq!(w.pending_high_water(), 0);
        w.queue_work(a);
        w.queue_work(b);
        assert_eq!(w.pending_high_water(), 2);
        w.next_work();
        w.next_work();
        assert_eq!(w.pending_high_water(), 2, "draining never lowers it");
        w.queue_work(c);
        assert_eq!(w.pending_high_water(), 2, "shallower refill keeps the mark");
        w.queue_work(a);
        w.queue_work(b);
        assert_eq!(w.pending_high_water(), 3, "deeper backlog raises it");
    }
}
