//! Hybrid I/O handling — Algorithm 1 of the paper.
//!
//! ```text
//! 1: procedure HANDLER
//! 2: notification:                      ⊲ Label 1
//! 3:   sleeping in notification mode
//! 4:   waked up by an I/O request
//! 5: schedule:                          ⊲ Label 2
//! 6:   waiting to be scheduled
//! 7:   scheduled by the back-end I/O thread
//! 8:   if notify enabled then
//! 9:     disable notify                 ⊲ Enter polling mode
//! 10:  end if
//! 11:  workload ← 0
//! 12:  while this virtual queue is not empty do
//! 13:    polling one I/O request from this queue
//! 14:    workload ← workload + 1
//! 15:    if workload >= quota then
//! 16:      goto schedule                ⊲ Wait for next turn
//! 17:    end if
//! 18:  end while
//! 19:  enable notify                    ⊲ Return to notification mode
//! 20:  goto notification
//! 21: end procedure
//! ```
//!
//! The handler is expressed as a step machine so the discrete-event testbed
//! can charge per-request processing time between steps: the vhost worker
//! calls [`HybridHandler::begin_turn`] when it schedules the handler, then
//! repeatedly [`HybridHandler::poll_next`] until the turn ends with either
//! [`PollDecision::QuotaExhausted`] (requeue; **stay in polling mode**, no
//! notification re-enable — this is what makes the guest's subsequent I/O
//! requests exit-free) or [`PollDecision::Drained`] (notification re-enabled
//! with the mandatory race re-check; back to notification mode).
//!
//! Stock vhost behaviour (the Baseline/PI configurations) is the same
//! machine with `quota = VHOST_NET_WEIGHT`-equivalent: the handler
//! essentially always drains the queue within one turn and re-enables
//! notifications, so every fresh burst of guest I/O pays a kick.

use es2_virtio::{KickDecision, Virtqueue};

use crate::config::HybridParams;

/// Mode of a virtqueue handler (§IV-B "Two modes").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandlerMode {
    /// Guest kicks enabled; handler sleeps between bursts.
    Notification,
    /// Guest kicks disabled; handler is (re)scheduled by the I/O thread.
    Polling,
}

/// Outcome of one [`HybridHandler::poll_next`] step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollDecision<T> {
    /// One I/O request was polled from the queue (line 13); the caller
    /// processes it (charging its cost) and calls `poll_next` again.
    Process(T),
    /// `workload >= quota` (line 15): the caller must requeue the handler
    /// on the I/O thread and end the turn. Notifications stay disabled.
    QuotaExhausted,
    /// The queue drained below quota (line 19): notifications re-enabled,
    /// handler returns to notification mode and the turn ends.
    Drained,
}

/// Per-virtqueue hybrid handler state.
#[derive(Clone, Debug)]
pub struct HybridHandler {
    mode: HandlerMode,
    quota: u32,
    workload: u32,
    /// Notification→polling transitions.
    entered_polling: u64,
}

impl HybridHandler {
    /// A handler in notification mode with the given parameters.
    pub fn new(params: HybridParams) -> Self {
        HybridHandler {
            mode: HandlerMode::Notification,
            quota: params.quota,
            workload: 0,
            entered_polling: 0,
        }
    }

    /// Stock vhost behaviour: an effectively unbounded quota, so the
    /// handler drains and re-enables notifications every turn.
    ///
    /// (Real vhost-net bounds a turn by `VHOST_NET_WEIGHT` bytes — ~350
    /// MTU packets — which in these workloads is never the binding
    /// constraint; the drain path is.)
    pub fn stock() -> Self {
        HybridHandler::new(HybridParams { quota: u32::MAX })
    }

    /// Current mode.
    pub fn mode(&self) -> HandlerMode {
        self.mode
    }

    /// Lines 7–11: the I/O thread scheduled this handler. Disables guest
    /// notifications (entering polling mode) and resets the turn workload.
    #[inline]
    pub fn begin_turn<A, U>(&mut self, vq: &mut Virtqueue<A, U>) {
        self.workload = 0;
        if !vq.notify_disabled() {
            vq.device_disable_notify();
        }
        if self.mode == HandlerMode::Notification {
            self.mode = HandlerMode::Polling;
            self.entered_polling += 1;
        }
    }

    /// Lines 12–19: one step of the polling loop.
    #[inline]
    pub fn poll_next<A, U>(&mut self, vq: &mut Virtqueue<A, U>) -> PollDecision<A> {
        if self.workload >= self.quota {
            return PollDecision::QuotaExhausted;
        }
        match vq.device_pop() {
            Some(req) => {
                self.workload += 1;
                PollDecision::Process(req)
            }
            None => {
                // Line 19: enable notify — with the mandatory re-check for
                // requests that raced in between the emptiness test and the
                // re-enable (vhost_enable_notify contract).
                if vq.device_enable_notify() {
                    vq.device_disable_notify();
                    // Continue the while loop: there is work again.
                    match vq.device_pop() {
                        Some(req) => {
                            self.workload += 1;
                            return PollDecision::Process(req);
                        }
                        None => unreachable!("enable_notify reported work"),
                    }
                }
                self.mode = HandlerMode::Notification;
                PollDecision::Drained
            }
        }
    }

    /// Whether a guest kick decision should actually wake the handler.
    ///
    /// In polling mode the virtqueue has notifications disabled, so a
    /// well-behaved driver never reports [`KickDecision::Kick`] — but a
    /// *hostile* guest can execute the kick instruction regardless of the
    /// suppression state (a kick storm). Such a spurious kick is ignored:
    /// in polling mode progress is owned by the requeue machinery, so
    /// waking on it would let the storm perturb scheduling.
    ///
    /// The testbed's kick path does not consult this rule: there a storm
    /// kick is absorbed by the vhost worker's queued-flag dedup and the
    /// kick throttle, which is what its hostile-guest tests pin.
    pub fn kick_wakes(&self, decision: KickDecision) -> bool {
        decision == KickDecision::Kick && self.mode == HandlerMode::Notification
    }

    /// Watchdog predicate: `true` when the queue holds exposed buffers
    /// while the handler sits in notification mode — exactly the state a
    /// *lost* guest kick leaves behind. In a fault-free world this state
    /// is transient (the kick that exposed the buffer is in flight); the
    /// recovery watchdog treats it as stuck if it persists across a
    /// watchdog period and re-queues the handler itself.
    ///
    /// In polling mode the handler is driven by the I/O thread (a requeue
    /// is pending or the worker is mid-turn), so no re-kick is needed —
    /// that edge is owned by the quota-requeue machinery.
    pub fn needs_rekick<A, U>(&self, vq: &Virtqueue<A, U>) -> bool {
        self.mode == HandlerMode::Notification && !vq.is_avail_empty()
    }

    /// Times the handler transitioned notification→polling.
    pub fn polling_entries(&self) -> u64 {
        self.entered_polling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vq_with(n: u32) -> Virtqueue<u32> {
        let mut vq = Virtqueue::new(256);
        for i in 0..n {
            vq.driver_add(i).unwrap();
        }
        vq
    }

    fn handler(quota: u32) -> HybridHandler {
        HybridHandler::new(HybridParams::with_quota(quota))
    }

    /// Run one full turn; returns (#processed, final decision).
    fn run_turn(h: &mut HybridHandler, vq: &mut Virtqueue<u32>) -> (u32, PollDecision<u32>) {
        h.begin_turn(vq);
        let mut n = 0;
        loop {
            match h.poll_next(vq) {
                PollDecision::Process(_) => n += 1,
                d => return (n, d),
            }
        }
    }

    #[test]
    fn scheduled_handler_enters_polling_mode() {
        let mut vq = vq_with(1);
        let mut h = handler(8);
        assert_eq!(h.mode(), HandlerMode::Notification);
        h.begin_turn(&mut vq);
        assert_eq!(h.mode(), HandlerMode::Polling);
        assert!(vq.notify_disabled(), "line 9: disable notify");
        assert_eq!(h.polling_entries(), 1);
    }

    #[test]
    fn low_load_drains_and_returns_to_notification() {
        // workload < quota when the queue empties (line 19).
        let mut vq = vq_with(3);
        let mut h = handler(8);
        let (n, d) = run_turn(&mut h, &mut vq);
        assert_eq!(n, 3);
        assert_eq!(d, PollDecision::Drained);
        assert_eq!(h.mode(), HandlerMode::Notification);
        assert!(!vq.notify_disabled(), "notifications re-enabled");
        // The next guest request kicks again (exit-based notification).
        assert_eq!(vq.driver_add(99).unwrap(), KickDecision::Kick);
    }

    #[test]
    fn high_load_exhausts_quota_and_stays_polling() {
        let mut vq = vq_with(20);
        let mut h = handler(8);
        let (n, d) = run_turn(&mut h, &mut vq);
        assert_eq!(n, 8, "exactly quota requests per turn");
        assert_eq!(d, PollDecision::QuotaExhausted);
        assert_eq!(h.mode(), HandlerMode::Polling);
        assert!(vq.notify_disabled(), "notifications stay disabled");
        // Guest requests during polling mode generate no kicks (the VM
        // exits the paper eliminates).
        assert_eq!(vq.driver_add(99).unwrap(), KickDecision::NoKick);
    }

    #[test]
    fn polling_persists_across_turns_under_sustained_load() {
        // The guest refills faster than one quota per turn: after the first
        // kick the handler never observes an empty queue, so the guest's
        // I/O requests stay exit-free for the whole run — the Fig. 4 effect.
        let mut vq = vq_with(0);
        let mut h = handler(4);
        let mut kicks = 0;
        for round in 0..50u32 {
            for i in 0..5 {
                if vq.driver_add(round * 10 + i).unwrap() == KickDecision::Kick {
                    kicks += 1;
                }
            }
            let (n, d) = run_turn(&mut h, &mut vq);
            assert_eq!((n, d), (4, PollDecision::QuotaExhausted), "round {round}");
        }
        assert_eq!(kicks, 1, "only the initial burst pays an exit");
        assert_eq!(h.mode(), HandlerMode::Polling);
    }

    #[test]
    fn requests_arriving_between_pop_and_drain_are_processed() {
        // In the concurrent kernel implementation a request can slip in
        // between the emptiness test and the notification re-enable; the
        // handler must re-check (`vhost_enable_notify` contract). In this
        // single-threaded model the re-check is the same observation as the
        // pop, so the request is simply processed; either way it is not
        // lost and no kick is required for it.
        let mut vq = vq_with(1);
        let mut h = handler(8);
        h.begin_turn(&mut vq);
        assert!(matches!(h.poll_next(&mut vq), PollDecision::Process(0)));
        let kick = vq.driver_add(42).unwrap();
        assert_eq!(kick, KickDecision::NoKick, "notify still disabled");
        match h.poll_next(&mut vq) {
            PollDecision::Process(42) => {}
            other => panic!("late request lost: {other:?}"),
        }
        assert_eq!(h.mode(), HandlerMode::Polling);
        assert!(matches!(h.poll_next(&mut vq), PollDecision::Drained));
    }

    #[test]
    fn stock_handler_always_drains() {
        let mut vq = vq_with(200);
        let mut h = HybridHandler::stock();
        let (n, d) = run_turn(&mut h, &mut vq);
        assert_eq!(n, 200);
        assert_eq!(d, PollDecision::Drained);
        assert_eq!(h.mode(), HandlerMode::Notification);
        assert_eq!(vq.driver_add(1).unwrap(), KickDecision::Kick);
    }

    #[test]
    fn workload_resets_each_turn() {
        // Algorithm 1 line 11: workload ← 0 on every schedule.
        let mut vq = vq_with(6);
        let mut h = handler(4);
        let (n1, d1) = run_turn(&mut h, &mut vq);
        assert_eq!((n1, d1), (4, PollDecision::QuotaExhausted));
        let (n2, d2) = run_turn(&mut h, &mut vq);
        assert_eq!((n2, d2), (2, PollDecision::Drained), "fresh quota");
    }

    #[test]
    fn statistics_are_consistent() {
        // 10 requests at quota 4: two quota-exhausted turns, then a drain.
        let mut vq = vq_with(10);
        let mut h = handler(4);
        let turns: Vec<_> = (0..3).map(|_| run_turn(&mut h, &mut vq)).collect();
        assert_eq!(
            turns,
            [
                (4, PollDecision::QuotaExhausted),
                (4, PollDecision::QuotaExhausted),
                (2, PollDecision::Drained),
            ]
        );
        assert_eq!(h.polling_entries(), 1, "polling persisted until the drain");
    }

    #[test]
    fn kick_racing_the_drain_transition_is_not_lost() {
        // The mode-switch race: the handler's drain decision and a guest
        // kick land in the same sim-tick. Ordering A (kick after the
        // enable-notify re-check ran) means the add reports Kick and the
        // request waits for that kick's wake-up; if the kick is then lost
        // — dropped IPI, fault injection — the request must still be
        // discoverable, which is what `needs_rekick` pins.
        let mut vq = vq_with(1);
        let mut h = handler(8);
        let (n, d) = run_turn(&mut h, &mut vq);
        assert_eq!((n, d), (1, PollDecision::Drained));
        // Same-tick arrival, after the transition:
        assert_eq!(vq.driver_add(7).unwrap(), KickDecision::Kick);
        assert!(
            h.needs_rekick(&vq),
            "lost-kick state must be visible to the watchdog"
        );
        // The watchdog's re-kick (a turn) recovers the request.
        let (n, d) = run_turn(&mut h, &mut vq);
        assert_eq!((n, d), (1, PollDecision::Drained));
        assert!(!h.needs_rekick(&vq));
    }

    #[test]
    fn kick_racing_the_recheck_is_absorbed_by_the_turn() {
        // Ordering B (kick before the re-check): device_enable_notify
        // reports the race and the handler consumes the request in the
        // same turn — no kick, no watchdog involvement.
        let mut vq = vq_with(1);
        let mut h = handler(8);
        h.begin_turn(&mut vq);
        assert!(matches!(h.poll_next(&mut vq), PollDecision::Process(0)));
        assert_eq!(vq.driver_add(7).unwrap(), KickDecision::NoKick);
        assert!(matches!(h.poll_next(&mut vq), PollDecision::Process(7)));
        assert!(matches!(h.poll_next(&mut vq), PollDecision::Drained));
        assert!(!h.needs_rekick(&vq));
    }

    #[test]
    fn quota_exhaustion_needs_no_rekick() {
        // Requests arriving at the quota-exhausted transition stay in
        // polling mode; the pending requeue owns progress, not the
        // watchdog.
        let mut vq = vq_with(20);
        let mut h = handler(8);
        let (_, d) = run_turn(&mut h, &mut vq);
        assert_eq!(d, PollDecision::QuotaExhausted);
        assert_eq!(vq.driver_add(99).unwrap(), KickDecision::NoKick);
        assert!(!vq.is_avail_empty());
        assert!(!h.needs_rekick(&vq), "polling mode is requeue-driven");
    }

    #[test]
    fn kick_wakes_only_in_notification_mode() {
        let h = handler(4);
        assert!(h.kick_wakes(KickDecision::Kick));
        assert!(!h.kick_wakes(KickDecision::NoKick));
    }

    #[test]
    fn spurious_kick_in_polling_mode_is_ignored_not_fatal() {
        // A hostile guest executes the kick instruction with notifications
        // suppressed: the handler must ignore it (progress is requeue-
        // driven in polling mode).
        let mut vq = vq_with(20);
        let mut h = handler(8);
        let (_, d) = run_turn(&mut h, &mut vq);
        assert_eq!(d, PollDecision::QuotaExhausted);
        assert_eq!(h.mode(), HandlerMode::Polling);
        assert!(!h.kick_wakes(KickDecision::Kick), "storm kick ignored");
        assert!(!h.kick_wakes(KickDecision::Kick));
        // Legitimate kicks after the drain still wake.
        while run_turn(&mut h, &mut vq).1 != PollDecision::Drained {}
        assert!(h.kick_wakes(KickDecision::Kick));
    }

    proptest! {
        /// Conservation: everything the guest enqueues is polled exactly
        /// once, whatever the interleaving of fills and turns.
        #[test]
        fn prop_no_request_lost_or_duplicated(
            quota in 1u32..16,
            fills in proptest::collection::vec(0u32..10, 1..40)
        ) {
            let mut vq: Virtqueue<u32> = Virtqueue::new(512);
            let mut h = handler(quota);
            let mut enqueued = 0u64;
            let mut polled = 0u64;
            let mut next = 0u32;
            let mut expected = std::collections::VecDeque::new();
            for n in fills {
                for _ in 0..n {
                    if vq.driver_add(next).is_ok() {
                        expected.push_back(next);
                        enqueued += 1;
                    }
                    next += 1;
                }
                h.begin_turn(&mut vq);
                while let PollDecision::Process(p) = h.poll_next(&mut vq) {
                    prop_assert_eq!(Some(p), expected.pop_front(), "FIFO order");
                    polled += 1;
                }
            }
            // Final drain.
            #[allow(clippy::while_let_loop)]
            loop {
                h.begin_turn(&mut vq);
                let mut done = false;
                loop {
                    match h.poll_next(&mut vq) {
                        PollDecision::Process(_) => polled += 1,
                        PollDecision::Drained => { done = true; break; }
                        _ => break,
                    }
                }
                if done { break; }
            }
            prop_assert_eq!(polled, enqueued);
        }

        /// A turn never processes more than `quota` requests.
        #[test]
        fn prop_quota_is_respected(quota in 1u32..32, n in 0u32..200) {
            let mut vq = vq_with(n.min(256));
            let mut h = handler(quota);
            let (processed, _) = run_turn(&mut h, &mut vq);
            prop_assert!(processed <= quota);
        }

        /// Mode after a turn is fully determined by how it ended.
        #[test]
        fn prop_mode_matches_turn_outcome(quota in 1u32..16, n in 0u32..64) {
            let mut vq = vq_with(n.min(256));
            let mut h = handler(quota);
            let (_, d) = run_turn(&mut h, &mut vq);
            match d {
                PollDecision::QuotaExhausted =>
                    prop_assert_eq!(h.mode(), HandlerMode::Polling),
                PollDecision::Drained =>
                    prop_assert_eq!(h.mode(), HandlerMode::Notification),
                PollDecision::Process(_) => unreachable!(),
            }
        }
    }
}
