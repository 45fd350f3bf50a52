//! The simulated-metrics recorder.
//!
//! Each VM exit, guest-mode interval, MSI delivery and rx-latency sample
//! is recorded once, by one `Machine::note_*` call at the site where it
//! happens. That call updates two views of the same fact:
//!
//! * the VM's [`VmLedger`], always on. It lives in `VmState`, so a live
//!   migration carries it with the VM. `RunResult` builds its exit
//!   counts, TIG, delivery-mode counts and rx-latency figures from it,
//!   and the liveness checker reads it;
//! * the windowed series, [`TelemetryHooks`] around
//!   [`es2_metrics::TelemetryRecorder`], only when `Params::telemetry` is
//!   set. The hooks also own the vhost workers' on-core intervals.
//!
//! Both consume *sim-time* only, never touch the RNG and schedule no
//! events (series windows are assigned at record time), so telemetered
//! runs are bitwise identical to plain ones (`repro selfcheck` compares
//! that).

use es2_hypervisor::{ExitReason, ExitStats};
use es2_metrics::telemetry::{TelemetryGeometry, TelemetryRecorder, TelemetryReport, WINDOW_NS};
use es2_metrics::{GuestTime, LatencySummary, VmModeCounts};
use es2_sim::SimTime;

use crate::machine::Machine;

/// Annotation capacity per collector. Annotations are discrete events
/// (faults, migrations, quarantines, watchdog actions) whose population
/// is bounded by the fault plan, far below this; the cap is a backstop,
/// with drops counted in the report.
const ANN_CAPACITY: usize = 65_536;

/// One VM's always-on ledger: what `perf-kvm stat` and the run's
/// latency probes would report for it.
///
/// Exits and guest time count inside the measurement window as this VM
/// saw it open. A VM state created mid-window (a cold restart, a churn
/// boot, the slot a migration vacates) never sees it open: its exits
/// and guest time have no window length to be rates of. Rx-latency
/// samples need no length, so they count whenever the machine's window
/// is open (`Machine::note_rx_latency`).
#[derive(Clone, Debug)]
pub(crate) struct VmLedger {
    /// Start of the measurement window while it is open for this VM.
    window_open: Option<SimTime>,
    /// Exits per reason, lifetime and windowed, and the window length.
    pub(crate) exits: ExitStats,
    /// Guest-mode time per vCPU.
    guest: GuestTime,
    /// Lifetime delivery-mode counts.
    pub(crate) modes: VmModeCounts,
    /// In-window rx latencies.
    pub(crate) rx: LatencySummary,
}

impl VmLedger {
    /// An empty ledger for a VM with `vcpus` vCPUs, window not open.
    pub(crate) fn new(vcpus: usize) -> Self {
        VmLedger {
            window_open: None,
            exits: ExitStats::default(),
            guest: GuestTime::new(vcpus),
            modes: VmModeCounts::default(),
            rx: LatencySummary::new(),
        }
    }

    /// Open the measurement window at `now` (end of warm-up).
    pub(crate) fn open_window(&mut self, now: SimTime) {
        self.window_open = Some(now);
    }

    /// Close the measurement window at `now`: guest intervals in
    /// progress count up to `now`, and the window length is fixed.
    pub(crate) fn close_window(&mut self, now: SimTime) {
        if let Some(open) = self.window_open.take() {
            self.guest.close_window(open, now);
            self.exits.window = now.since(open);
        }
    }

    fn exit(&mut self, reason: ExitReason) {
        self.exits.lifetime[reason.idx()] += 1;
        if self.window_open.is_some() {
            self.exits.windowed[reason.idx()] += 1;
        }
    }

    /// Mean time-in-guest percentage across the VM's vCPUs (0 without a
    /// closed window).
    pub(crate) fn tig_percent(&self) -> f64 {
        self.guest.percent(self.exits.window)
    }
}

/// The windowed series collector; owned by `Machine` when telemetry is
/// on.
#[derive(Clone, Debug)]
pub(crate) struct TelemetryHooks {
    rec: TelemetryRecorder,
    /// Per-(VM, worker) on-core start instant, `vm * workers + w`.
    on_core_since: Vec<Option<u64>>,
    workers_per_vm: usize,
}

impl TelemetryHooks {
    /// A collector for `num_vms` VMs with the given per-VM shape.
    pub(crate) fn new(
        num_vms: usize,
        workers_per_vm: usize,
        queues_per_vm: usize,
        exit_kinds: usize,
    ) -> Self {
        let workers = workers_per_vm.max(1);
        let geom = TelemetryGeometry {
            width_ns: WINDOW_NS,
            num_vms,
            workers_per_vm: workers,
            queues_per_vm: queues_per_vm.max(1),
            exit_kinds,
        };
        TelemetryHooks {
            rec: TelemetryRecorder::new(geom, ANN_CAPACITY),
            on_core_since: vec![None; num_vms * workers],
            workers_per_vm: workers,
        }
    }

    #[inline]
    fn worker_slot(&self, vm: u32, w: usize) -> usize {
        vm as usize * self.workers_per_vm + w.min(self.workers_per_vm - 1)
    }

    // ---------------- interrupt path ----------------

    /// One MSI whose target was picked by ES2 redirection.
    pub(crate) fn on_msi_redirected(&mut self, vm: u32, now: u64) {
        self.rec.record_msi_redirected(vm, now);
    }

    // ---------------- goodput ----------------

    /// Rx completion into the guest ring on ingress `queue`.
    pub(crate) fn on_rx(&mut self, vm: u32, now: u64, queue: usize, bytes: u64) {
        self.rec.record_rx(vm, now, queue, bytes);
    }

    /// Tx completion onto the wire.
    pub(crate) fn on_tx(&mut self, vm: u32, now: u64, bytes: u64) {
        self.rec.record_tx(vm, now, bytes);
    }

    // ---------------- backpressure / containment ----------------

    /// A kick deferred by GCRA backpressure.
    pub(crate) fn on_throttled_kick(&mut self, vm: u32, now: u64) {
        self.rec.record_throttled_kick(vm, now);
    }

    /// A vhost turn cut short by the service budget.
    pub(crate) fn on_budget_deferral(&mut self, vm: u32, now: u64) {
        self.rec.record_budget_deferral(vm, now);
    }

    /// A queue quarantined (`vq` in the annotation payload).
    pub(crate) fn on_quarantine(&mut self, vm: u32, now: u64, vq: u64) {
        self.rec.record_quarantine(vm, now);
        self.rec.annotate(now, vm, "quarantine", vq);
    }

    /// A guest queue reset completed.
    pub(crate) fn on_reset(&mut self, vm: u32, now: u64, vq: u64) {
        self.rec.record_reset(vm, now);
        self.rec.annotate(now, vm, "queue-reset", vq);
    }

    // ---------------- vhost workers ----------------

    /// Worker `w` of `vm` went on-core.
    pub(crate) fn on_worker_on_core(&mut self, vm: u32, w: usize, now: u64) {
        let slot = self.worker_slot(vm, w);
        if self.on_core_since[slot].is_none() {
            self.on_core_since[slot] = Some(now);
        }
    }

    /// Worker `w` of `vm` went off-core; residency sliced into windows.
    pub(crate) fn on_worker_off_core(&mut self, vm: u32, w: usize, now: u64) {
        let slot = self.worker_slot(vm, w);
        if let Some(since) = self.on_core_since[slot].take() {
            self.rec.record_worker_slice(vm, w, since, now);
        }
    }

    /// A handler turn began on worker `w`; `pending` is the backlog
    /// depth behind it (per-window high-water mark).
    pub(crate) fn on_worker_turn(&mut self, vm: u32, w: usize, now: u64, pending: u64) {
        self.rec.record_worker_turn(vm, w, now);
        self.rec.record_worker_pending(vm, w, now, pending);
    }

    /// Sample worker `w`'s backlog depth outside a turn boundary (a
    /// kick landing on a busy worker).
    pub(crate) fn on_worker_pending(&mut self, vm: u32, w: usize, now: u64, pending: u64) {
        self.rec.record_worker_pending(vm, w, now, pending);
    }

    // ---------------- causal annotations ----------------

    /// Join a discrete event onto the stream ("pi-degrade",
    /// "migrate-start", "host-crash", "wd-rekick", …).
    pub(crate) fn annotate(&mut self, now: u64, vm: u32, kind: &'static str, arg: u64) {
        self.rec.annotate(now, vm, kind, arg);
    }

    // ---------------- lifecycle ----------------

    /// Close every open worker interval at `end_ns` and produce the
    /// report.
    fn finish(mut self, end_ns: u64) -> TelemetryReport {
        for slot in 0..self.on_core_since.len() {
            if let Some(since) = self.on_core_since[slot].take() {
                let vm = (slot / self.workers_per_vm) as u32;
                let w = slot % self.workers_per_vm;
                self.rec.record_worker_slice(vm, w, since, end_ns);
            }
        }
        self.rec.finish()
    }
}

impl Machine {
    /// One VM exit of `reason` on vCPU `idx` of `vm`. It also ends the
    /// vCPU's guest-mode interval, if one is in progress (a spurious-EOI
    /// storm write traps from root mode, so it has none).
    pub(crate) fn note_exit(&mut self, vm: u32, idx: u32, reason: ExitReason) {
        let now = self.now;
        let ledger = &mut self.vms[vm as usize].ledger;
        ledger.exit(reason);
        let since = ledger.guest.leave(idx as usize, now, ledger.window_open);
        if let Some(t) = self.tel.as_deref_mut() {
            t.rec.record_exit(vm, reason.idx(), now.as_nanos());
            if let Some(since) = since {
                t.rec
                    .record_guest_slice(vm, since.as_nanos(), now.as_nanos());
            }
        }
    }

    /// vCPU `idx` of `vm` enters guest mode. The series records the
    /// interval when it ends.
    pub(crate) fn note_guest_enter(&mut self, vm: u32, idx: u32) {
        self.vms[vm as usize]
            .ledger
            .guest
            .enter(idx as usize, self.now);
    }

    /// One MSI injected into `vm`: `posted` = exit-less posted path,
    /// otherwise the emulated (exit-taking) path.
    pub(crate) fn note_msi(&mut self, vm: u32, posted: bool) {
        let modes = &mut self.vms[vm as usize].ledger.modes;
        if posted {
            modes.posted += 1;
        } else {
            modes.emulated += 1;
        }
        if let Some(t) = self.tel.as_deref_mut() {
            t.rec.record_msi(vm, self.now.as_nanos(), posted);
        }
    }

    /// One end-to-end rx latency sample of `vm`, counted by the ledger
    /// only inside the measurement window.
    pub(crate) fn note_rx_latency(&mut self, vm: u32, lat_ns: u64) {
        if self.window_open {
            self.vms[vm as usize].ledger.rx.add(lat_ns);
        }
        if let Some(t) = self.tel.as_deref_mut() {
            t.rec.record_rx_latency(vm, self.now.as_nanos(), lat_ns);
        }
    }

    /// Close the series at the current instant, running every guest and
    /// worker interval still in progress up to it.
    pub(crate) fn finish_telemetry(&mut self) -> Option<TelemetryReport> {
        let mut t = self.tel.take()?;
        let end = self.now.as_nanos();
        for (vm, state) in self.vms.iter().enumerate() {
            for since in state.ledger.guest.in_progress() {
                t.rec.record_guest_slice(vm as u32, since.as_nanos(), end);
            }
        }
        Some(t.finish(end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn finish_closes_open_intervals() {
        let mut t = TelemetryHooks::new(2, 2, 1, 4);
        t.on_worker_on_core(0, 1, 800_000);
        let rep = t.finish(1_200_000);
        assert_eq!(rep.windows.len(), 2);
        // Worker (0,1) on-core 0.2ms + 0.2ms.
        assert_eq!(rep.windows[0].workers[1].on_core_ns, 200_000);
        assert_eq!(rep.windows[1].workers[1].on_core_ns, 200_000);
    }

    #[test]
    fn enter_leave_guest_is_idempotent() {
        let mut l = VmLedger::new(1);
        l.open_window(t(0));
        assert_eq!(l.guest.leave(0, t(50), l.window_open), None);
        l.guest.enter(0, t(100));
        l.guest.enter(0, t(200)); // ignored: interval already in progress
        assert_eq!(l.guest.leave(0, t(300), l.window_open), Some(t(100)));
        assert_eq!(l.guest.leave(0, t(400), l.window_open), None);
        l.close_window(t(1000));
        assert!((l.tig_percent() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn exits_count_only_inside_the_window() {
        let mut l = VmLedger::new(1);
        l.exit(ExitReason::IoInstruction); // warm-up
        l.open_window(t(100));
        l.exit(ExitReason::IoInstruction);
        l.close_window(t(200));
        l.exit(ExitReason::IoInstruction); // after the close
        assert_eq!(l.exits.total(ExitReason::IoInstruction), 3);
        assert_eq!(l.exits.windowed[ExitReason::IoInstruction.idx()], 1);
        assert!((l.exits.rate(ExitReason::IoInstruction) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn a_window_never_opened_counts_nothing() {
        let mut l = VmLedger::new(1);
        l.guest.enter(0, t(0));
        l.exit(ExitReason::ApicAccess);
        l.guest.leave(0, t(100), l.window_open);
        l.close_window(t(200));
        assert_eq!(l.tig_percent(), 0.0);
        assert_eq!(l.exits.total(ExitReason::ApicAccess), 1);
        assert_eq!(l.exits.total_rate(), 0.0);
    }
}
