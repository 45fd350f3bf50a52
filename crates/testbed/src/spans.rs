//! The event-path flight recorder.
//!
//! [`SpanTracker`] follows every traced request and interrupt through the
//! full virtual I/O event path by correlation ID: guest kick →
//! (exit-notify | polled pickup) → vhost service on the request side, and
//! MSI raise → redirection → delivery → injection → guest handler → EOI on
//! the interrupt side. Each transition records a *sim-time* stage duration
//! into the per-VM histograms of [`es2_metrics::SpanRecorder`], so traced
//! output is deterministic and bitwise-reproducible under any
//! `ES2_THREADS`.
//!
//! The tracker is one consumer of the `Machine::note_*` probes in
//! `telemetry.rs`, and nothing else calls it. It exists only when
//! `Params::trace` is set, and it never touches the RNG.
//!
//! The tracker alone answers which open span an event belongs to. A
//! pending interrupt is too compact in the IRR/PIR to carry an ID, and a
//! queued kick is one bit on the vhost work list, so an open span is
//! found by where it waits instead: the *attached* `Pending` interrupt
//! span at `(vm, vcpu, vector)`, the attached request span at
//! `(vm, handler)`. At most one span is attached per key, matching the
//! IRR's and the work list's coalescing of repeated raises and kicks;
//! the first owns the span. A span is detached when what it waited on
//! is discarded: a quarantined queue drops its request, and replacing a
//! slot's state (a migration pause, a resume, a rebuild) drops every
//! span of the VM. A detached span
//! keeps its other accounting (a pending one still collects parked
//! time), can no longer be closed, and counts as unclosed at the end.
//! Open spans live in small linear-scan vectors; the population at any
//! instant is bounded by in-flight interrupts, not by run length.

use es2_apic::Vector;
use es2_metrics::span::{SpanEvent, SpanRecorder, SpanReport, Stage};
use es2_virtio::HandlerId;

use crate::telemetry::KickOrigin;

/// Synthetic Chrome-trace `tid` for vhost-worker turn slices, placed well
/// above any vCPU index.
const VHOST_TRACK: u32 = 1000;

/// Synthetic Chrome-trace `tid` for live-migration phase slices.
const MIG_TRACK: u32 = 2000;

/// Where an interrupt span is along the host→guest path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Raised, not yet injected (may be parked on a descheduled vCPU).
    Pending,
    /// Guest handler running since `start`.
    Handler { start: u64 },
    /// Handler done; EOI sequence running since `start`.
    Eoi { start: u64 },
}

/// An open host→guest interrupt span.
#[derive(Clone, Copy, Debug)]
struct IrqSpan {
    corr: u64,
    vm: u32,
    /// Current target vCPU index (retargeted on parked-IRQ migration).
    vcpu: u32,
    vector: Vector,
    raised_ns: u64,
    /// Set while the target vCPU is off-core with this span pending.
    parked_since: Option<u64>,
    /// Accumulated time the span spent waiting on a descheduled target.
    sched_delay_ns: u64,
    phase: Phase,
    /// Still reachable at `(vm, vcpu, vector)`: the next injection of
    /// that vector there begins this span. Only a `Pending` span is
    /// attached; injection detaches it.
    attached: bool,
}

/// An open guest→host request span (a signalled kick awaiting pickup).
#[derive(Clone, Copy, Debug)]
struct ReqSpan {
    vm: u32,
    h: HandlerId,
    signal_ns: u64,
    /// True if pickup will be an ES2 polled one (self-requeue), not a
    /// wake-up from a notification.
    polled: bool,
    /// Still reachable at `(vm, h)`: the next turn of `h` picks it up.
    attached: bool,
}

/// Flight-recorder state machine; owned by `Machine` when tracing is on.
#[derive(Clone, Debug)]
pub(crate) struct SpanTracker {
    rec: SpanRecorder,
    irqs: Vec<IrqSpan>,
    reqs: Vec<ReqSpan>,
    /// Per-(VM, vhost worker) start of the handler turn currently
    /// executing on that worker, indexed by `vm * workers + w`.
    turn_start: Vec<Option<u64>>,
    /// Running guest handlers as `(vm, vcpu, corr)` — per-vCPU LIFO
    /// (handlers nest: an exit can inject a second vector while the
    /// first handler's segment sits on the resume stack). Untraced
    /// handlers (timer interrupts) push `corr = 0` so the pop at
    /// handler end always matches the handler that actually finished.
    handlers: Vec<(u32, u32, u64)>,
}

impl SpanTracker {
    pub(crate) fn new(num_vms: usize, workers: usize, event_capacity: usize) -> Self {
        SpanTracker {
            rec: SpanRecorder::new(num_vms, event_capacity),
            irqs: Vec::new(),
            reqs: Vec::new(),
            turn_start: vec![None; num_vms * workers.max(1)],
            handlers: Vec::new(),
        }
    }

    // ---------------- guest → host ----------------

    /// The attached request span waiting on handler `h` of `vm`.
    fn attached_req(&self, vm: u32, h: HandlerId) -> Option<usize> {
        self.reqs
            .iter()
            .position(|r| r.attached && r.vm == vm && r.h == h)
    }

    /// A kick signal for handler `h` of `vm`. Opens an attached request
    /// span unless one already waits on `h`, in which case the signals
    /// coalesced and the first span is kept.
    pub(crate) fn on_kick_signal(
        &mut self,
        vm: u32,
        h: HandlerId,
        origin: KickOrigin,
        now_ns: u64,
    ) {
        if self.attached_req(vm, h).is_some() {
            let notes = self.rec.notes_mut();
            notes.coalesced_kicks += 1;
            if origin == KickOrigin::Watchdog {
                notes.watchdog_rekicks += 1;
            }
            return;
        }
        let corr = self.rec.alloc_corr();
        self.reqs.push(ReqSpan {
            vm,
            h,
            signal_ns: now_ns,
            polled: origin == KickOrigin::Requeue,
            attached: true,
        });
        let notes = self.rec.notes_mut();
        notes.reqs_opened += 1;
        match origin {
            KickOrigin::Delayed => notes.delayed_kicks += 1,
            KickOrigin::Watchdog => {
                notes.watchdog_rekicks += 1;
                self.rec.event(SpanEvent {
                    at_ns: now_ns,
                    vm,
                    track: VHOST_TRACK,
                    corr,
                    name: "wd-rekick",
                    dur_ns: 0,
                    arg: h.0 as u64,
                });
            }
            _ => {}
        }
    }

    /// The I/O-instruction exit that carried a kick finished; `cost_ns`
    /// is the root-mode time the notification cost the vCPU.
    pub(crate) fn on_kick_exit(&mut self, vm: u32, cost_ns: u64, windowed: bool) {
        if windowed {
            self.rec.record(vm, Stage::KickExit, cost_ns);
        }
    }

    /// A turn of handler `h` of `vm` begins on the worker whose turn
    /// slot is `slot` (`vm * workers + w`). Closes the signal→pickup
    /// stage of the request span attached to `h`, if any, and opens the
    /// service-time slot.
    pub(crate) fn on_turn_begin(
        &mut self,
        vm: u32,
        slot: usize,
        h: HandlerId,
        now_ns: u64,
        windowed: bool,
    ) {
        if let Some(i) = self.attached_req(vm, h) {
            let r = self.reqs.swap_remove(i);
            let stage = if r.polled {
                Stage::PolledPickup
            } else {
                Stage::ExitNotify
            };
            if windowed {
                self.rec
                    .record(vm, stage, now_ns.saturating_sub(r.signal_ns));
            }
            self.rec.notes_mut().reqs_closed += 1;
        }
        self.turn_start[slot] = Some(now_ns);
    }

    /// Handler `h` of `vm` was quarantined with its pending kick: the
    /// request span waiting on it can no longer be picked up.
    pub(crate) fn detach_req(&mut self, vm: u32, h: HandlerId) {
        if let Some(i) = self.attached_req(vm, h) {
            self.reqs[i].attached = false;
        }
    }

    /// Every pending interrupt and queued kick of `vm` was discarded
    /// with its slot's state: no span of the VM open here can be reached
    /// again.
    pub(crate) fn detach_vm(&mut self, vm: u32) {
        for s in self.irqs.iter_mut().filter(|s| s.vm == vm) {
            s.attached = false;
        }
        for r in self.reqs.iter_mut().filter(|r| r.vm == vm) {
            r.attached = false;
        }
    }

    /// The vhost handler turn in `slot` ended (handler went back to the
    /// work list or the worker went idle).
    pub(crate) fn on_turn_end(&mut self, vm: u32, slot: usize, now_ns: u64, windowed: bool) {
        if let Some(start) = self.turn_start[slot].take() {
            if windowed {
                self.rec.record(vm, Stage::VhostService, now_ns - start);
            }
            self.rec.event(SpanEvent {
                at_ns: start,
                vm,
                track: VHOST_TRACK,
                corr: 0,
                name: "vhost-turn",
                dur_ns: now_ns - start,
                arg: 0,
            });
        }
    }

    // ---------------- host → guest ----------------

    /// The attached `Pending` interrupt span for `vector` on `(vm, vcpu)`.
    fn attached_irq(&self, vm: u32, vcpu: u32, vector: Vector) -> Option<usize> {
        self.irqs
            .iter()
            .position(|s| s.attached && s.vm == vm && s.vcpu == vcpu && s.vector == vector)
    }

    /// An MSI for `vector` was raised towards `(vm, vcpu)`. Opens an
    /// attached span unless one of the vector is still pending there, in
    /// which case the raises coalesced (as the IRR coalesces them) and
    /// the first keeps the span.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_msi_raised(
        &mut self,
        vm: u32,
        vcpu: u32,
        vector: Vector,
        redirected: bool,
        target_running: bool,
        watchdog: bool,
        off_core_ns: u64,
        now_ns: u64,
    ) {
        if self.attached_irq(vm, vcpu, vector).is_some() {
            let notes = self.rec.notes_mut();
            notes.coalesced_irqs += 1;
            if watchdog {
                notes.watchdog_reraises += 1;
            }
            return;
        }
        let corr = self.rec.alloc_corr();
        self.irqs.push(IrqSpan {
            corr,
            vm,
            vcpu,
            vector,
            raised_ns: now_ns,
            parked_since: if target_running { None } else { Some(now_ns) },
            sched_delay_ns: 0,
            phase: Phase::Pending,
            attached: true,
        });
        {
            let notes = self.rec.notes_mut();
            notes.irqs_opened += 1;
            if redirected {
                notes.redirected += 1;
            }
            if watchdog {
                notes.watchdog_reraises += 1;
            }
            if !target_running {
                notes.parked += 1;
            }
        }
        if watchdog {
            self.rec.event(SpanEvent {
                at_ns: now_ns,
                vm,
                track: vcpu,
                corr,
                name: "wd-reraise",
                dur_ns: 0,
                arg: vector as u64,
            });
        }
        if !target_running {
            self.rec.event(SpanEvent {
                at_ns: now_ns,
                vm,
                track: vcpu,
                corr,
                name: "msi-parked",
                dur_ns: 0,
                arg: off_core_ns,
            });
        }
    }

    /// vCPU `(vm, vcpu)` left its core: park every pending span aimed at
    /// it so the time until it runs again is attributed to scheduling.
    pub(crate) fn on_vcpu_sched_out(&mut self, vm: u32, vcpu: u32, now_ns: u64) {
        for s in self.irqs.iter_mut() {
            if s.vm == vm && s.vcpu == vcpu && s.phase == Phase::Pending && s.parked_since.is_none()
            {
                s.parked_since = Some(now_ns);
            }
        }
    }

    /// vCPU `(vm, vcpu)` got a core back: fold the parked interval of
    /// every pending span into its scheduling-delay ledger.
    pub(crate) fn on_vcpu_sched_in(&mut self, vm: u32, vcpu: u32, now_ns: u64) {
        for s in self.irqs.iter_mut() {
            if s.vm == vm && s.vcpu == vcpu && s.phase == Phase::Pending {
                if let Some(t0) = s.parked_since.take() {
                    s.sched_delay_ns += now_ns - t0;
                }
            }
        }
    }

    /// A parked interrupt for `vector` of `vm` was migrated (ES2
    /// parked-IRQ pull) from vCPU `from` to `to`, which is being
    /// scheduled in right now — close the parked interval and retarget
    /// its attached span. If `to` already holds an attached span of the
    /// vector, that one keeps it (the IRR coalesces the two) and the
    /// migrated span is detached.
    pub(crate) fn on_migrated(&mut self, vm: u32, from: u32, to: u32, vector: Vector, now_ns: u64) {
        let Some(i) = self.attached_irq(vm, from, vector) else {
            return;
        };
        let taken = self.attached_irq(vm, to, vector).is_some_and(|j| j != i);
        let s = &mut self.irqs[i];
        if let Some(t0) = s.parked_since.take() {
            s.sched_delay_ns += now_ns - t0;
        }
        s.vcpu = to;
        s.attached = !taken;
        self.rec.notes_mut().migrated += 1;
    }

    /// A guest interrupt handler for `vector` begins on `(vm, vcpu)`. The
    /// attached span pending there, if any (none for untraced vectors —
    /// the local timer), records its delivery stages and flips to the
    /// handler phase; every handler, traced or not, enters the nesting
    /// ledger so handler ends pair up correctly.
    pub(crate) fn on_irq_begin(
        &mut self,
        vm: u32,
        vcpu: u32,
        vector: Vector,
        now_ns: u64,
        windowed: bool,
    ) {
        let Some(i) = self.attached_irq(vm, vcpu, vector) else {
            self.handlers.push((vm, vcpu, 0));
            return;
        };
        let s = &mut self.irqs[i];
        self.handlers.push((vm, vcpu, s.corr));
        s.attached = false;
        if let Some(t0) = s.parked_since.take() {
            s.sched_delay_ns += now_ns - t0;
        }
        s.vcpu = vcpu;
        let delivery = now_ns.saturating_sub(s.raised_ns);
        let sched = s.sched_delay_ns.min(delivery);
        if windowed {
            self.rec.record(vm, Stage::Delivery, delivery);
            self.rec.record(vm, Stage::SchedDelay, sched);
            self.rec.record(vm, Stage::Injection, delivery - sched);
        }
        s.phase = Phase::Handler { start: now_ns };
    }

    /// The innermost guest handler on `(vm, vcpu)` finished; the EOI
    /// sequence starts now. Pops the vCPU's newest ledger entry — which
    /// is the handler that actually ended, even when a traced handler has
    /// an untraced timer handler nested on top of it.
    pub(crate) fn on_handler_end(&mut self, vm: u32, vcpu: u32, now_ns: u64, windowed: bool) {
        let Some(i) = self
            .handlers
            .iter()
            .rposition(|&(v, c, _)| v == vm && c == vcpu)
        else {
            return;
        };
        let (_, _, corr) = self.handlers.remove(i);
        if corr == 0 {
            return;
        }
        if let Some(s) = self.irqs.iter_mut().find(|s| s.corr == corr) {
            if let Phase::Handler { start } = s.phase {
                if windowed {
                    self.rec.record(vm, Stage::Handler, now_ns - start);
                }
                s.phase = Phase::Eoi { start: now_ns };
            }
        }
    }

    /// EOI completed on `(vm, vcpu)` (immediately for virtual-APIC EOI,
    /// after the ApicAccess exit for emulated EOI). Closes the span.
    pub(crate) fn on_eoi_done(&mut self, vm: u32, vcpu: u32, now_ns: u64, windowed: bool) {
        if let Some(i) = self
            .irqs
            .iter()
            .position(|s| s.vm == vm && s.vcpu == vcpu && matches!(s.phase, Phase::Eoi { .. }))
        {
            let s = self.irqs.swap_remove(i);
            let Phase::Eoi { start } = s.phase else {
                unreachable!()
            };
            if windowed {
                self.rec.record(vm, Stage::Eoi, now_ns - start);
            }
            self.rec.notes_mut().irqs_closed += 1;
            self.rec.event(SpanEvent {
                at_ns: s.raised_ns,
                vm,
                track: s.vcpu,
                corr: s.corr,
                name: "irq",
                dur_ns: now_ns - s.raised_ns,
                arg: s.vector as u64,
            });
        }
    }

    /// Posted delivery degraded to the emulated path (fault injection).
    pub(crate) fn on_degraded(&mut self, vm: u32, vcpu: u32, now_ns: u64) {
        self.rec.notes_mut().degradations += 1;
        self.rec.event(SpanEvent {
            at_ns: now_ns,
            vm,
            track: vcpu,
            corr: 0,
            name: "pi-degrade",
            dur_ns: 0,
            arg: 0,
        });
    }

    /// A live-migration phase slice for `vm` ("mig-pause", "mig-copy",
    /// "mig-resume", "mig-retarget", "mig-abort"). Rendered on its own
    /// track so `repro --trace` attributes the blackout window per phase;
    /// `arg` carries the phase's context (dirty units, blackout ns,
    /// vector).
    pub(crate) fn migration_phase(
        &mut self,
        vm: u32,
        name: &'static str,
        at_ns: u64,
        dur_ns: u64,
        arg: u64,
    ) {
        self.rec.event(SpanEvent {
            at_ns,
            vm,
            track: MIG_TRACK,
            corr: 0,
            name,
            dur_ns,
            arg,
        });
    }

    /// Seal the recorder: spans still open at end-of-run are counted
    /// (they are expected — the run stops mid-traffic) and the report is
    /// extracted.
    pub(crate) fn finish(mut self) -> SpanReport {
        let notes = self.rec.notes_mut();
        notes.unclosed_irqs = self.irqs.len() as u64;
        notes.unclosed_reqs = self.reqs.len() as u64;
        self.rec.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_apic::vectors::LOCAL_TIMER_VECTOR;
    use es2_metrics::span::Stage;

    const H: HandlerId = HandlerId(0);

    #[test]
    fn request_span_closes_on_pickup_with_the_right_stage() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_kick_signal(0, H, KickOrigin::Kick, 100);
        // Coalesced second signal keeps the first span.
        tr.on_kick_signal(0, H, KickOrigin::Kick, 150);
        tr.on_turn_begin(0, 0, H, 400, true);
        tr.on_turn_end(0, 0, 900, true);

        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::ExitNotify).count(), 1);
        assert_eq!(rep.stage(0, Stage::ExitNotify).max(), 300);
        assert_eq!(rep.stage(0, Stage::PolledPickup).count(), 0);
        assert_eq!(rep.stage(0, Stage::VhostService).count(), 1);
        assert_eq!(rep.notes.coalesced_kicks, 1);
        assert_eq!(rep.notes.reqs_opened, 1);
        assert_eq!(rep.notes.reqs_closed, 1);
        assert_eq!(rep.notes.unclosed_reqs, 0);
    }

    #[test]
    fn polled_requeue_records_polled_pickup() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_kick_signal(0, H, KickOrigin::Requeue, 0);
        tr.on_turn_begin(0, 0, H, 50, true);
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::PolledPickup).count(), 1);
        assert_eq!(rep.stage(0, Stage::ExitNotify).count(), 0);
    }

    #[test]
    fn a_kick_is_picked_up_only_by_its_own_handler_and_vm() {
        let mut tr = SpanTracker::new(2, 1, 0);
        tr.on_kick_signal(0, H, KickOrigin::Kick, 0);
        tr.on_turn_begin(0, 0, HandlerId(1), 10, true); // another handler
        tr.on_turn_begin(1, 1, H, 20, true); // the same handler of another VM
        tr.on_turn_begin(0, 0, H, 70, true);
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::ExitNotify).max(), 70);
        assert_eq!(rep.stage(1, Stage::ExitNotify).count(), 0);
        assert_eq!(rep.notes.reqs_closed, 1);
    }

    #[test]
    fn quarantine_detaches_the_riding_request() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_kick_signal(0, H, KickOrigin::Kick, 0);
        tr.detach_req(0, H);
        // The next kick after the reset opens a span of its own, and the
        // turn it causes closes that one, not the stranded first.
        tr.on_kick_signal(0, H, KickOrigin::Kick, 500);
        tr.on_turn_begin(0, 0, H, 530, true);
        tr.on_turn_begin(0, 0, H, 900, true);
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::ExitNotify).count(), 1);
        assert_eq!(rep.stage(0, Stage::ExitNotify).max(), 30);
        assert_eq!(rep.notes.coalesced_kicks, 0);
        assert_eq!(rep.notes.reqs_opened, 2);
        assert_eq!(rep.notes.reqs_closed, 1);
        assert_eq!(rep.notes.unclosed_reqs, 1);
    }

    #[test]
    fn irq_span_attributes_parked_time_to_sched_delay() {
        let mut tr = SpanTracker::new(1, 1, 0);
        // Raise at t=1000 towards a descheduled vCPU 0.
        tr.on_msi_raised(0, 0, 0x41, false, false, false, 0, 1000);
        // vCPU runs again at t=5000; injection at t=5200.
        tr.on_vcpu_sched_in(0, 0, 5000);
        tr.on_irq_begin(0, 0, 0x41, 5200, true);
        tr.on_handler_end(0, 0, 7200, true);
        tr.on_eoi_done(0, 0, 7300, true);

        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::Delivery).max(), 4200);
        assert_eq!(rep.stage(0, Stage::SchedDelay).max(), 4000);
        assert_eq!(rep.stage(0, Stage::Injection).max(), 200);
        assert_eq!(rep.stage(0, Stage::Handler).max(), 2000);
        assert_eq!(rep.stage(0, Stage::Eoi).max(), 100);
        assert_eq!(rep.notes.parked, 1);
        assert_eq!(rep.notes.irqs_closed, 1);
        assert_eq!(rep.notes.unclosed_irqs, 0);
    }

    #[test]
    fn sched_out_then_in_accumulates_delay_for_running_target() {
        let mut tr = SpanTracker::new(1, 1, 0);
        // Target is running at raise time...
        tr.on_msi_raised(0, 2, 0x42, true, true, false, 0, 0);
        // ...but gets preempted before injection.
        tr.on_vcpu_sched_out(0, 2, 100);
        tr.on_vcpu_sched_in(0, 2, 600);
        tr.on_irq_begin(0, 2, 0x42, 700, true);
        tr.on_eoi_done(0, 2, 800, true); // no handler-phase close: ignored
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::SchedDelay).max(), 500);
        assert_eq!(rep.notes.redirected, 1);
        // Span still open in handler phase (EOI close had no Eoi-phase span).
        assert_eq!(rep.notes.unclosed_irqs, 1);
    }

    #[test]
    fn migration_retargets_and_closes_parked_interval() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_msi_raised(0, 0, 0x41, false, false, false, 0, 0);
        tr.on_migrated(0, 0, 3, 0x41, 2500);
        tr.on_irq_begin(0, 3, 0x41, 2600, true);
        tr.on_handler_end(0, 3, 2700, true);
        tr.on_eoi_done(0, 3, 2750, true);
        let rep = tr.finish();
        assert_eq!(rep.notes.migrated, 1);
        assert_eq!(rep.stage(0, Stage::SchedDelay).max(), 2500);
        assert_eq!(rep.stage(0, Stage::Injection).max(), 100);
    }

    #[test]
    fn migration_onto_a_pending_vector_detaches_the_migrated_span() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_msi_raised(0, 0, 0x41, false, false, false, 0, 0); // parked on vCPU 0
        tr.on_msi_raised(0, 1, 0x41, false, true, false, 0, 10); // pending on vCPU 1
        tr.on_migrated(0, 0, 1, 0x41, 100);
        // vCPU 1's own span keeps the vector; the migrated one is
        // detached but still collects parked time.
        tr.on_vcpu_sched_out(0, 1, 200);
        tr.on_vcpu_sched_in(0, 1, 500);
        assert_eq!(
            tr.irqs
                .iter()
                .map(|s| (s.vcpu, s.attached, s.sched_delay_ns))
                .collect::<Vec<_>>(),
            [(1, false, 400), (1, true, 300)]
        );
        tr.on_irq_begin(0, 1, 0x41, 600, true);
        tr.on_handler_end(0, 1, 650, true);
        tr.on_eoi_done(0, 1, 660, true);
        tr.on_irq_begin(0, 1, 0x41, 700, true); // nothing left attached
        let rep = tr.finish();
        assert_eq!(rep.notes.migrated, 1);
        assert_eq!(rep.stage(0, Stage::Delivery).count(), 1);
        assert_eq!(rep.stage(0, Stage::Delivery).max(), 590);
        assert_eq!(rep.stage(0, Stage::SchedDelay).max(), 300);
        assert_eq!(rep.notes.irqs_closed, 1);
        assert_eq!(rep.notes.unclosed_irqs, 1);
    }

    #[test]
    fn coalesced_raise_and_watchdog_notes() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_msi_raised(0, 0, 0x41, false, true, true, 0, 0);
        tr.on_msi_raised(0, 0, 0x41, false, true, true, 0, 10);
        let rep = tr.finish();
        assert_eq!(rep.notes.watchdog_reraises, 2);
        assert_eq!(rep.notes.coalesced_irqs, 1);
        assert_eq!(rep.notes.irqs_opened, 1);
    }

    #[test]
    fn first_raise_owns_the_span_until_injection() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_msi_raised(0, 0, 0x41, false, true, false, 0, 0);
        tr.on_msi_raised(0, 0, 0x41, false, true, false, 0, 100); // coalesced
        tr.on_msi_raised(0, 0, 0x42, false, true, false, 0, 50); // another vector
        tr.on_msi_raised(0, 1, 0x41, false, true, false, 0, 60); // another vCPU
        tr.on_irq_begin(0, 0, 0x41, 300, true);
        // After injection the vector is free: the next raise opens a span.
        tr.on_msi_raised(0, 0, 0x41, false, true, false, 0, 400);
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::Delivery).count(), 1);
        assert_eq!(
            rep.stage(0, Stage::Delivery).max(),
            300,
            "timed from the first raise"
        );
        assert_eq!(rep.notes.coalesced_irqs, 1);
        assert_eq!(rep.notes.irqs_opened, 4);
    }

    #[test]
    fn a_migration_pause_detaches_every_span_of_the_vm() {
        let mut tr = SpanTracker::new(2, 1, 0);
        for vm in 0..2 {
            tr.on_msi_raised(vm, 0, 0x41, false, true, false, 0, 0);
            tr.on_kick_signal(vm, H, KickOrigin::Kick, 0);
        }
        tr.detach_vm(0);
        // VM 0's pending interrupt and kick no longer reach their spans;
        // a new raise and kick there open fresh ones.
        tr.on_irq_begin(0, 0, 0x41, 100, true);
        tr.on_turn_begin(0, 0, H, 100, true);
        tr.on_msi_raised(0, 0, 0x41, false, true, false, 0, 200);
        tr.on_kick_signal(0, H, KickOrigin::Kick, 200);
        // VM 1 is untouched.
        tr.on_irq_begin(1, 0, 0x41, 100, true);
        tr.on_turn_begin(1, 1, H, 100, true);
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::Delivery).count(), 0);
        assert_eq!(rep.stage(0, Stage::ExitNotify).count(), 0);
        assert_eq!(rep.stage(1, Stage::Delivery).count(), 1);
        assert_eq!(rep.stage(1, Stage::ExitNotify).count(), 1);
        assert_eq!(
            (rep.notes.coalesced_irqs, rep.notes.coalesced_kicks),
            (0, 0)
        );
        assert_eq!((rep.notes.irqs_opened, rep.notes.reqs_opened), (3, 3));
        // VM 0's two spans of each kind and VM 1's handler-phase span.
        assert_eq!((rep.notes.unclosed_irqs, rep.notes.unclosed_reqs), (3, 2));
    }

    #[test]
    fn nested_timer_handler_does_not_close_the_device_span() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_msi_raised(0, 0, 0x42, false, true, false, 0, 0);
        tr.on_irq_begin(0, 0, 0x42, 100, true); // device handler starts
        tr.on_irq_begin(0, 0, LOCAL_TIMER_VECTOR, 200, true); // timer nests on top
        tr.on_handler_end(0, 0, 300, true); // timer ends: device span untouched
        tr.on_eoi_done(0, 0, 310, true); // timer EOI: no Eoi-phase span
        tr.on_handler_end(0, 0, 500, true); // device handler ends
        tr.on_eoi_done(0, 0, 520, true);
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::Handler).count(), 1);
        assert_eq!(rep.stage(0, Stage::Handler).max(), 400);
        assert_eq!(rep.stage(0, Stage::Eoi).max(), 20);
        assert_eq!(rep.notes.irqs_closed, 1);
        assert_eq!(rep.notes.unclosed_irqs, 0);
    }

    #[test]
    fn out_of_window_samples_are_not_recorded() {
        let mut tr = SpanTracker::new(1, 1, 0);
        tr.on_msi_raised(0, 0, 0x41, false, true, false, 0, 0);
        tr.on_irq_begin(0, 0, 0x41, 100, false);
        tr.on_handler_end(0, 0, 200, false);
        tr.on_eoi_done(0, 0, 250, false);
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::Delivery).count(), 0);
        assert_eq!(rep.stage(0, Stage::Handler).count(), 0);
        // Lifecycle accounting is unwindowed.
        assert_eq!(rep.notes.irqs_opened, 1);
        assert_eq!(rep.notes.irqs_closed, 1);
    }
}
