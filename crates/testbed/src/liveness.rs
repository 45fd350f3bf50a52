//! End-of-run liveness and invariant checking.
//!
//! Fault injection makes "the run finished" too weak an assertion: a lost
//! kick that nothing recovered would still let the event loop drain. This
//! checker inspects the final machine state for the invariants that must
//! hold *regardless of what the fault plan did* — descriptor conservation
//! on every virtqueue, scheduler/vCPU consistency, interrupt-delivery
//! accounting, and forward progress. The chaos suite runs every faulted
//! sweep through [`Machine::run_checked`] and asserts the report is clean.
//!
//! The checker reads the per-VM ledger for delivery counts. When an
//! invariant trips, the report carries the breadcrumb ring that the
//! `Machine::note_*` probes write under an active fault plan, then the
//! machine's debug snapshot.

use es2_sched::ThreadState;
use es2_virtio::Virtqueue;

use crate::machine::Machine;
use crate::results::RunResult;

/// The outcome of checking one finished machine.
#[derive(Clone, Debug, Default)]
pub struct LivenessReport {
    /// Human-readable invariant violations; empty means the run is sound.
    pub violations: Vec<String>,
    /// Post-mortem dump captured when any invariant tripped (empty for a
    /// sound run): the machine's breadcrumb-tracer ring followed by the
    /// full `debug_snapshot`, so a chaos failure in CI arrives with the
    /// state needed to diagnose it instead of just a one-line complaint.
    pub diagnostics: String,
}

impl LivenessReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the full violation list (and the post-mortem dump, if
    /// one was captured) unless the run is sound.
    pub fn assert_ok(&self) {
        assert!(
            self.ok(),
            "liveness violations:\n  {}\n{}",
            self.violations.join("\n  "),
            self.diagnostics
        );
    }

    fn fail(&mut self, msg: String) {
        self.violations.push(msg);
    }
}

/// Check every liveness/consistency invariant on a finished machine.
pub(crate) fn check(m: &Machine) -> LivenessReport {
    let mut rep = LivenessReport::default();

    for (vmi, vm) in m.vms.iter().enumerate() {
        // Descriptor conservation: every buffer the driver added is either
        // still avail, in the device, or went through used and back. An
        // injected fault may delay a buffer but can never mint or leak one.
        for (qi, pair) in vm.pairs.iter().enumerate() {
            let (tx_name, rx_name) = if qi == 0 {
                ("tx".to_string(), "rx".to_string())
            } else {
                (format!("tx{qi}"), format!("rx{qi}"))
            };
            check_conservation(&mut rep, vmi, &tx_name, &pair.tx);
            check_conservation(&mut rep, vmi, &rx_name, &pair.rx);
        }

        // Scheduler/vCPU agreement: the vCPU's own notion of running must
        // match the scheduler's, and guest mode implies a host thread on
        // core — a preemption storm must never strand a vCPU "in guest"
        // while descheduled.
        for (idx, v) in vm.vcpus.iter().enumerate() {
            let tid = vm.vcpu_tids[idx];
            if v.running != m.sched.is_running(tid) {
                rep.fail(format!(
                    "vm{vmi} vcpu{idx}: vcpu.running={} but scheduler says {}",
                    v.running,
                    m.sched.is_running(tid)
                ));
            }
            if v.in_guest && !v.running {
                rep.fail(format!("vm{vmi} vcpu{idx}: in guest while descheduled"));
            }
        }

        // Delivery accounting: a vCPU can only handle interrupts that the
        // mode ledger saw delivered (coalescing makes handled ≤ delivered;
        // the watchdog's spurious re-raises coalesce in the IRR, so they
        // must never manufacture extra handled interrupts).
        let handled: u64 = vm.vcpus.iter().map(|v| v.interrupts_handled()).sum();
        let counts = vm.ledger.modes;
        let delivered = counts.posted + counts.emulated;
        if handled > delivered {
            rep.fail(format!(
                "vm{vmi}: handled {handled} interrupts but only {delivered} were delivered"
            ));
        }

        // Forward progress: if the driver ever added TX buffers, the device
        // must have completed at least one — a dropped kick with a working
        // watchdog stalls a queue temporarily, never terminally.
        for (qi, pair) in vm.pairs.iter().enumerate() {
            if pair.tx.quarantine_count() == 0
                && pair.tx.added_total() > 0
                && pair.tx.completed_total() == 0
            {
                rep.fail(format!(
                    "vm{vmi} tx{qi}: {} buffers added, none ever completed",
                    pair.tx.added_total()
                ));
            }
        }
    }

    // Reclaimed-slot conservation: after any mix of departures, failed
    // boots, aborted migrations, and crashes, a slot torn down on this
    // host must hold *nothing* — no thread awake, no handler turn, no
    // queued vhost work, no ring entries or backlog, no parked or
    // deliverable vectors, no staged control state. Anything left is a
    // leak; every message says "orphan" so the bench gate can count
    // leaked resources as a single fatal metric.
    if let Some(mig) = m.mig.as_ref() {
        for (vmi, vm) in m.vms.iter().enumerate() {
            if !mig.reclaimed[vmi] || mig.guest_local[vmi] {
                continue;
            }
            for (idx, &tid) in vm.vcpu_tids.iter().enumerate() {
                if m.sched.entity(tid).state != ThreadState::Sleeping {
                    rep.fail(format!(
                        "vm{vmi} vcpu{idx}: orphan thread awake after reclamation"
                    ));
                }
            }
            for (idx, &tid) in vm.vhost_tids.iter().enumerate() {
                if m.sched.entity(tid).state != ThreadState::Sleeping {
                    rep.fail(format!(
                        "vm{vmi} vhost{idx}: orphan worker thread awake after reclamation"
                    ));
                }
            }
            for (w, h) in vm.cur_handler.iter().enumerate() {
                if h.is_some() {
                    rep.fail(format!(
                        "vm{vmi} worker{w}: orphan handler turn after reclamation"
                    ));
                }
                if vm.worker.has_work_on(w) {
                    rep.fail(format!(
                        "vm{vmi} worker{w}: orphan vhost work queued after reclamation"
                    ));
                }
            }
            for (qi, pair) in vm.pairs.iter().enumerate() {
                let held = pair.tx.avail_pending() as u64
                    + pair.tx.used_pending() as u64
                    + pair.rx.avail_pending() as u64
                    + pair.rx.used_pending() as u64;
                if held != 0 {
                    rep.fail(format!(
                        "vm{vmi} pair{qi}: {held} orphan ring entries after reclamation"
                    ));
                }
                if !pair.backlog.is_empty() {
                    rep.fail(format!(
                        "vm{vmi} pair{qi}: {} orphan backlog packets after reclamation",
                        pair.backlog.len()
                    ));
                }
            }
            if !vm.parked_irqs.is_empty() {
                rep.fail(format!(
                    "vm{vmi}: {} orphan parked vectors after reclamation",
                    vm.parked_irqs.len()
                ));
            }
            for (idx, v) in vm.vcpus.iter().enumerate() {
                if v.has_deliverable() {
                    rep.fail(format!(
                        "vm{vmi} vcpu{idx}: orphan deliverable interrupt after reclamation"
                    ));
                }
            }
            if mig.incoming[vmi].is_some() {
                rep.fail(format!("vm{vmi}: orphan blackout buffer after reclamation"));
            }
            if mig.staged[vmi].is_some() {
                rep.fail(format!("vm{vmi}: orphan staged snapshot after reclamation"));
            }
            if !mig.out_plan[vmi].is_empty() {
                rep.fail(format!("vm{vmi}: orphan migration plan after reclamation"));
            }
            if !mig.boots[vmi].is_empty() {
                rep.fail(format!("vm{vmi}: orphan staged boot after reclamation"));
            }
            if !mig.restarts[vmi].is_empty() {
                rep.fail(format!("vm{vmi}: orphan staged restart after reclamation"));
            }
        }
    }

    // Auto-dump on violation: the last breadcrumbs (kicks, MSIs, watchdog
    // recoveries, containment, degradations, control-plane steps) plus the
    // world snapshot. Captured only on failure so the passing path
    // allocates nothing.
    if !rep.ok() {
        rep.diagnostics = format!(
            "{}--- debug snapshot ---\n{}",
            m.ring_dump(),
            m.debug_snapshot()
        );
    }

    rep
}

impl Machine {
    /// Run to completion, check liveness invariants on the final state,
    /// then collect results.
    pub fn run_checked(mut self) -> (RunResult, LivenessReport) {
        while self.step_one() {}
        let report = check(&self);
        (RunResult::collect(self), report)
    }
}

/// Descriptor conservation on one ring, whatever payloads its two halves
/// carry: the ledger is indices and counters only.
fn check_conservation<A, U>(rep: &mut LivenessReport, vmi: usize, name: &str, q: &Virtqueue<A, U>) {
    // A queue that is (or ever was) quarantined surrenders its
    // conservation ledger by design: quarantine discards exposed
    // buffers, the guest reset zeroes the counters, and a
    // completion in flight across the reset lands unmatched. What
    // must still hold: broken implies the reset request is
    // surfaced to the guest (the DEVICE_NEEDS_RESET analog).
    if q.is_broken() && !q.needs_reset() {
        rep.fail(format!("vm{vmi} {name}: broken without needs_reset"));
    }
    if q.quarantine_count() > 0 {
        return;
    }
    let added = q.added_total();
    let popped = q.popped_total();
    let completed = q.completed_total();
    let reclaimed = q.reclaimed_total();
    if added != popped + q.avail_pending() as u64 {
        rep.fail(format!(
            "vm{vmi} {name}: added {added} != popped {popped} + avail {}",
            q.avail_pending()
        ));
    }
    if completed != reclaimed + q.used_pending() as u64 {
        rep.fail(format!(
            "vm{vmi} {name}: completed {completed} != reclaimed {reclaimed} + used {}",
            q.used_pending()
        ));
    }
    if popped < completed {
        rep.fail(format!(
            "vm{vmi} {name}: completed {completed} exceeds popped {popped}"
        ));
    }
    if popped - completed > q.config().size as u64 {
        rep.fail(format!(
            "vm{vmi} {name}: {} buffers stuck in-device (ring size {})",
            popped - completed,
            q.config().size
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::KickOrigin;
    use crate::{experiments, Params, Topology, WorkloadSpec};
    use es2_core::EventPathConfig;
    use es2_workloads::NetperfSpec;

    #[test]
    fn a_broken_invariant_is_reported_with_the_breadcrumb_ring() {
        let spec = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
        let mut m = Machine::new_faulted(
            EventPathConfig::pi_h_r(4),
            Topology::micro(),
            spec,
            Params::fast_test(),
            1,
            experiments::chaos_plan(),
        );
        while m.step_one() {}
        let sound = check(&m);
        assert!(sound.ok(), "{:?}", sound.violations);
        assert!(sound.diagnostics.is_empty());

        // A watchdog re-kick recorded through its probe reaches the
        // ledger and the ring in one call.
        let h = m.vms[0].pairs[0].tx_h;
        let rekicks = m.vms[0].ledger.watchdog_rekicks;
        m.note_kick_signal(0, h, KickOrigin::Watchdog);
        assert_eq!(m.vms[0].ledger.watchdog_rekicks, rekicks + 1);
        // The vCPU claims a core the scheduler does not give it.
        let running = m.vms[0].vcpus[0].running;
        m.vms[0].vcpus[0].running = !running;

        let rep = check(&m);
        let mismatch = |v: &String| v.starts_with("vm0 vcpu0: vcpu.running=");
        assert!(rep.violations.iter().any(mismatch), "{:?}", rep.violations);
        let d = &rep.diagnostics;
        assert!(d.starts_with("--- tracer ring (last 256 of "), "{d}");
        assert!(d.contains(&format!(" wd-rekick a=0 b={}\n", h.0)), "{d}");
        assert!(d.contains("--- debug snapshot ---\nnow="), "{d}");
    }
}
