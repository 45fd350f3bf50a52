//! The windowed telemetry collector.
//!
//! [`TelemetryHooks`] is the testbed-side wrapper around
//! [`es2_metrics::TelemetryRecorder`]: it owns the per-vCPU and
//! per-worker interval state (guest-mode residency, worker on-core
//! residency) and translates machine events into window records. It is
//! only constructed when `Params::telemetry` is set, consumes *sim-time*
//! nanoseconds only, never touches the RNG, and schedules no events —
//! windows are assigned at record time — so telemetered runs are
//! bitwise identical to plain ones (`repro selfcheck` compares that).

use es2_metrics::telemetry::{TelemetryGeometry, TelemetryRecorder, TelemetryReport};

/// Annotation capacity per collector. Annotations are discrete events
/// (faults, migrations, quarantines, watchdog actions) whose population
/// is bounded by the fault plan, far below this; the cap is a backstop,
/// with drops counted in the report.
const ANN_CAPACITY: usize = 65_536;

/// Per-machine (or per-lane) telemetry collector; owned by `Machine`
/// when telemetry is on.
#[derive(Clone, Debug)]
pub(crate) struct TelemetryHooks {
    rec: TelemetryRecorder,
    /// Per-vCPU guest-mode entry instant, indexed by the machine-wide
    /// vCPU slot (`vm_vcpu_base[vm] + idx`).
    guest_since: Vec<Option<u64>>,
    /// First vCPU slot of each VM.
    vcpu_base: Vec<usize>,
    /// Per-(VM, worker) on-core start instant, `vm * workers + w`.
    on_core_since: Vec<Option<u64>>,
    workers_per_vm: usize,
}

impl TelemetryHooks {
    /// A collector for `vcpu_counts.len()` VMs with the given per-VM
    /// vCPU counts and geometry.
    pub(crate) fn new(
        vcpu_counts: &[u32],
        workers_per_vm: usize,
        queues_per_vm: usize,
        exit_kinds: usize,
        width_ns: u64,
    ) -> Self {
        let mut vcpu_base = Vec::with_capacity(vcpu_counts.len());
        let mut total = 0usize;
        for &c in vcpu_counts {
            vcpu_base.push(total);
            total += c as usize;
        }
        let workers = workers_per_vm.max(1);
        let geom = TelemetryGeometry {
            width_ns,
            num_vms: vcpu_counts.len(),
            workers_per_vm: workers,
            queues_per_vm: queues_per_vm.max(1),
            exit_kinds,
        };
        TelemetryHooks {
            rec: TelemetryRecorder::new(geom, ANN_CAPACITY),
            guest_since: vec![None; total],
            vcpu_base,
            on_core_since: vec![None; vcpu_counts.len() * workers],
            workers_per_vm: workers,
        }
    }

    #[inline]
    fn vcpu_slot(&self, vm: u32, idx: u32) -> usize {
        self.vcpu_base[vm as usize] + idx as usize
    }

    #[inline]
    fn worker_slot(&self, vm: u32, w: usize) -> usize {
        vm as usize * self.workers_per_vm + w.min(self.workers_per_vm - 1)
    }

    // ---------------- vCPU residency and exits ----------------

    /// One VM exit of `kind` (an `ExitReason` index) at `now`.
    pub(crate) fn on_exit(&mut self, vm: u32, kind: usize, now: u64) {
        self.rec.record_exit(vm, kind, now);
    }

    /// A vCPU entered guest mode. Idempotent like `TigAccount`: a
    /// second enter with the interval already open is ignored.
    pub(crate) fn on_enter_guest(&mut self, vm: u32, idx: u32, now: u64) {
        let slot = self.vcpu_slot(vm, idx);
        if self.guest_since[slot].is_none() {
            self.guest_since[slot] = Some(now);
        }
    }

    /// A vCPU left guest mode; the residency interval is sliced across
    /// the windows it overlaps. Idempotent when no interval is open.
    pub(crate) fn on_leave_guest(&mut self, vm: u32, idx: u32, now: u64) {
        let slot = self.vcpu_slot(vm, idx);
        if let Some(since) = self.guest_since[slot].take() {
            self.rec.record_guest_slice(vm, since, now);
        }
    }

    // ---------------- interrupt path ----------------

    /// One MSI injected: `posted` = exit-less posted path.
    pub(crate) fn on_msi(&mut self, vm: u32, now: u64, posted: bool) {
        self.rec.record_msi(vm, now, posted);
    }

    /// One MSI whose target was picked by ES2 redirection.
    pub(crate) fn on_msi_redirected(&mut self, vm: u32, now: u64) {
        self.rec.record_msi_redirected(vm, now);
    }

    // ---------------- goodput and latency ----------------

    /// Rx completion into the guest ring on ingress `queue`.
    pub(crate) fn on_rx(&mut self, vm: u32, now: u64, queue: usize, bytes: u64) {
        self.rec.record_rx(vm, now, queue, bytes);
    }

    /// Tx completion onto the wire.
    pub(crate) fn on_tx(&mut self, vm: u32, now: u64, bytes: u64) {
        self.rec.record_tx(vm, now, bytes);
    }

    /// One end-to-end rx latency sample.
    pub(crate) fn on_rx_latency(&mut self, vm: u32, now: u64, lat_ns: u64) {
        self.rec.record_rx_latency(vm, now, lat_ns);
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

    /// Close every open interval at `end_ns` and produce the report.
    pub(crate) fn finish(mut self, end_ns: u64) -> TelemetryReport {
        for slot in 0..self.guest_since.len() {
            if let Some(since) = self.guest_since[slot].take() {
                // Recover (vm) from the slot via the base table.
                let vm = match self.vcpu_base.binary_search(&slot) {
                    Ok(i) => i,
                    Err(i) => i - 1,
                } as u32;
                self.rec.record_guest_slice(vm, since, end_ns);
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_closes_open_intervals() {
        let mut t = TelemetryHooks::new(&[2, 1], 2, 1, 4, 1_000_000);
        t.on_enter_guest(1, 0, 500_000);
        t.on_worker_on_core(0, 1, 800_000);
        let rep = t.finish(1_200_000);
        assert_eq!(rep.windows.len(), 2);
        // VM 1's vCPU 0 is slot 2; its guest time sliced 0.5ms + 0.2ms.
        assert_eq!(rep.windows[0].vms[1].guest_ns, 500_000);
        assert_eq!(rep.windows[1].vms[1].guest_ns, 200_000);
        // Worker (0,1) on-core 0.2ms + 0.2ms.
        assert_eq!(rep.windows[0].workers[1].on_core_ns, 200_000);
        assert_eq!(rep.windows[1].workers[1].on_core_ns, 200_000);
    }

    #[test]
    fn enter_leave_guest_is_idempotent() {
        let mut t = TelemetryHooks::new(&[1], 1, 1, 4, 1_000_000);
        t.on_enter_guest(0, 0, 100);
        t.on_enter_guest(0, 0, 200); // ignored: interval already open
        t.on_leave_guest(0, 0, 300);
        t.on_leave_guest(0, 0, 400); // ignored: no interval open
        let rep = t.finish(1_000);
        assert_eq!(rep.windows[0].vms[0].guest_ns, 200);
    }
}
