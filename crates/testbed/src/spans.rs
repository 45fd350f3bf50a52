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
//! `Params::trace` is set; the probes own the correlation-ID sidecars it
//! keys spans by (`Vcpu::corr`, the vhost pool's kick slot), which stay
//! zero when tracing is off. It never touches the RNG. Open spans live in
//! small linear-scan vectors; the population at any instant is bounded by
//! in-flight interrupts, not by run length.

use es2_metrics::span::{SpanEvent, SpanRecorder, SpanReport, Stage};
use es2_virtio::{HandlerId, VhostPool};

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
    vector: u8,
    raised_ns: u64,
    /// Set while the target vCPU is off-core with this span pending.
    parked_since: Option<u64>,
    /// Accumulated time the span spent waiting on a descheduled target.
    sched_delay_ns: u64,
    phase: Phase,
}

/// An open guest→host request span (a signalled kick awaiting pickup).
#[derive(Clone, Copy, Debug)]
struct ReqSpan {
    corr: u64,
    signal_ns: u64,
    /// True if pickup will be an ES2 polled one (self-requeue), not a
    /// wake-up from a notification.
    polled: bool,
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

    /// A kick signal for handler `h` on `worker`. Opens a request span
    /// (attaching a fresh correlation ID to the pending kick) unless one
    /// already rides there, in which case the signals coalesced and the
    /// first span is kept.
    pub(crate) fn on_kick_signal(
        &mut self,
        vm: u32,
        worker: &mut VhostPool,
        h: HandlerId,
        origin: KickOrigin,
        now_ns: u64,
    ) {
        if worker.kick_corr(h) != 0 {
            let notes = self.rec.notes_mut();
            notes.coalesced_kicks += 1;
            if origin == KickOrigin::Watchdog {
                notes.watchdog_rekicks += 1;
            }
            return;
        }
        let corr = self.rec.alloc_corr();
        worker.note_kick_corr(h, corr);
        self.reqs.push(ReqSpan {
            corr,
            signal_ns: now_ns,
            polled: origin == KickOrigin::Requeue,
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

    /// A vhost handler turn begins on the worker whose turn slot is
    /// `slot` (`vm * workers + w`). `corr` is the ID taken off the
    /// pending kick (0 = turn not owed to a traced signal). Closes the
    /// signal→pickup stage and opens the service-time slot.
    pub(crate) fn on_turn_begin(&mut self, vm: u32, slot: usize, corr: u64, now_ns: u64, windowed: bool) {
        if corr != 0 {
            if let Some(i) = self.reqs.iter().position(|r| r.corr == corr) {
                let r = self.reqs.swap_remove(i);
                let stage = if r.polled {
                    Stage::PolledPickup
                } else {
                    Stage::ExitNotify
                };
                if windowed {
                    self.rec.record(vm, stage, now_ns.saturating_sub(r.signal_ns));
                }
                self.rec.notes_mut().reqs_closed += 1;
            }
        }
        self.turn_start[slot] = Some(now_ns);
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

    /// An MSI was raised towards `(vm, vcpu)` and a fresh correlation ID
    /// is needed (the caller checked `Vcpu::corr` found no pending span
    /// for the vector). Returns the ID to stash in the vector sidecar.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_msi_raised(
        &mut self,
        vm: u32,
        vcpu: u32,
        vector: u8,
        redirected: bool,
        target_running: bool,
        watchdog: bool,
        off_core_ns: u64,
        now_ns: u64,
    ) -> u64 {
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
        corr
    }

    /// An MSI raise found a span already pending on the same vector
    /// (IRR coalescing): the first raise keeps the span.
    pub(crate) fn on_msi_coalesced(&mut self, watchdog: bool) {
        let notes = self.rec.notes_mut();
        notes.coalesced_irqs += 1;
        if watchdog {
            notes.watchdog_reraises += 1;
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

    /// A parked interrupt was migrated (ES2 parked-IRQ pull) to
    /// `to_vcpu`, which is being scheduled in right now — close the
    /// parked interval and retarget the span.
    pub(crate) fn on_migrated(&mut self, corr: u64, to_vcpu: u32, now_ns: u64) {
        if let Some(s) = self.irqs.iter_mut().find(|s| s.corr == corr) {
            if let Some(t0) = s.parked_since.take() {
                s.sched_delay_ns += now_ns - t0;
            }
            s.vcpu = to_vcpu;
            self.rec.notes_mut().migrated += 1;
        }
    }

    /// A guest interrupt handler begins on `(vm, vcpu)`. `corr` is the ID
    /// taken off the vector sidecar (0 for untraced vectors — the local
    /// timer). A traced span records its delivery stages and flips to the
    /// handler phase; every handler, traced or not, enters the nesting
    /// ledger so handler ends pair up correctly.
    pub(crate) fn on_irq_begin(&mut self, vm: u32, vcpu: u32, corr: u64, now_ns: u64, windowed: bool) {
        self.handlers.push((vm, vcpu, corr));
        if corr == 0 {
            return;
        }
        let Some(s) = self.irqs.iter_mut().find(|s| s.corr == corr) else {
            return;
        };
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
    use es2_metrics::span::Stage;
    use es2_virtio::ShardPolicy;

    #[test]
    fn request_span_closes_on_pickup_with_the_right_stage() {
        let mut tr = SpanTracker::new(1, 1, 0);
        let mut w = VhostPool::new(1, ShardPolicy::Mux);
        let (h, _rx) = w.register_pair(0, 0);

        tr.on_kick_signal(0, &mut w, h, KickOrigin::Kick, 100);
        // Coalesced second signal keeps the first span.
        tr.on_kick_signal(0, &mut w, h, KickOrigin::Kick, 150);
        let corr = w.take_kick_corr(h);
        assert_eq!(corr, 1);
        tr.on_turn_begin(0, 0, corr, 400, true);
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
        let mut w = VhostPool::new(1, ShardPolicy::Mux);
        let (h, _rx) = w.register_pair(0, 0);
        tr.on_kick_signal(0, &mut w, h, KickOrigin::Requeue, 0);
        let corr = w.take_kick_corr(h);
        tr.on_turn_begin(0, 0, corr, 50, true);
        let rep = tr.finish();
        assert_eq!(rep.stage(0, Stage::PolledPickup).count(), 1);
        assert_eq!(rep.stage(0, Stage::ExitNotify).count(), 0);
    }

    #[test]
    fn irq_span_attributes_parked_time_to_sched_delay() {
        let mut tr = SpanTracker::new(1, 1, 0);
        // Raise at t=1000 towards a descheduled vCPU 0.
        let corr = tr.on_msi_raised(0, 0, 0x41, false, false, false, 0, 1000);
        // vCPU runs again at t=5000; injection at t=5200.
        tr.on_vcpu_sched_in(0, 0, 5000);
        tr.on_irq_begin(0, 0, corr, 5200, true);
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
        let corr = tr.on_msi_raised(0, 2, 0x42, true, true, false, 0, 0);
        // ...but gets preempted before injection.
        tr.on_vcpu_sched_out(0, 2, 100);
        tr.on_vcpu_sched_in(0, 2, 600);
        tr.on_irq_begin(0, 2, corr, 700, true);
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
        let corr = tr.on_msi_raised(0, 0, 0x41, false, false, false, 0, 0);
        tr.on_migrated(corr, 3, 2500);
        tr.on_irq_begin(0, 3, corr, 2600, true);
        tr.on_handler_end(0, 3, 2700, true);
        tr.on_eoi_done(0, 3, 2750, true);
        let rep = tr.finish();
        assert_eq!(rep.notes.migrated, 1);
        assert_eq!(rep.stage(0, Stage::SchedDelay).max(), 2500);
        assert_eq!(rep.stage(0, Stage::Injection).max(), 100);
    }

    #[test]
    fn coalesced_raise_and_watchdog_notes() {
        let mut tr = SpanTracker::new(1, 1, 0);
        let _ = tr.on_msi_raised(0, 0, 0x41, false, true, true, 0, 0);
        tr.on_msi_coalesced(true);
        let rep = tr.finish();
        assert_eq!(rep.notes.watchdog_reraises, 2);
        assert_eq!(rep.notes.coalesced_irqs, 1);
        assert_eq!(rep.notes.irqs_opened, 1);
    }

    #[test]
    fn nested_timer_handler_does_not_close_the_device_span() {
        let mut tr = SpanTracker::new(1, 1, 0);
        let corr = tr.on_msi_raised(0, 0, 0x42, false, true, false, 0, 0);
        tr.on_irq_begin(0, 0, corr, 100, true); // device handler starts
        tr.on_irq_begin(0, 0, 0, 200, true); // timer nests on top
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
        let corr = tr.on_msi_raised(0, 0, 0x41, false, true, false, 0, 0);
        tr.on_irq_begin(0, 0, corr, 100, false);
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
