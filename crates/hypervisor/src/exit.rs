//! VM-exit reasons, statistics and the calibrated cost model.

use es2_sim::SimDuration;

/// Cause of a VM exit, following the categories the paper reports
/// (§VI-C: "the three most-frequent exit causes involved in the virtual I/O
/// event delivery": External Interrupt, APIC Access, I/O Instruction; the
/// rest are grouped as Others).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExitReason {
    /// Arrival of an external interrupt (the kick IPI of virtual-interrupt
    /// injection, or a host device interrupt) while in guest mode.
    ExternalInterrupt,
    /// Guest access to the emulated Local-APIC — overwhelmingly EOI writes
    /// ("EOI write operations accounted for almost all the APIC access
    /// exits").
    ApicAccess,
    /// Guest I/O instruction — the virtqueue kick (PIO write to the
    /// notification register).
    IoInstruction,
    /// EPT violation (grouped under Others in the paper's plots).
    EptViolation,
    /// Interrupt-window exit (pending interrupt with interrupts masked).
    PendingInterrupt,
    /// Guest executed HLT (prevented in the experiments by the CPU-burn
    /// scripts, but modeled for completeness).
    Hlt,
    /// Anything else (MSR accesses, CPUID, ...).
    Other,
}

impl ExitReason {
    /// Number of variants (array sizing).
    pub const COUNT: usize = 7;

    /// Dense index for counters.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            ExitReason::ExternalInterrupt => 0,
            ExitReason::ApicAccess => 1,
            ExitReason::IoInstruction => 2,
            ExitReason::EptViolation => 3,
            ExitReason::PendingInterrupt => 4,
            ExitReason::Hlt => 5,
            ExitReason::Other => 6,
        }
    }

    /// All variants in index order.
    pub fn all() -> [ExitReason; Self::COUNT] {
        [
            ExitReason::ExternalInterrupt,
            ExitReason::ApicAccess,
            ExitReason::IoInstruction,
            ExitReason::EptViolation,
            ExitReason::PendingInterrupt,
            ExitReason::Hlt,
            ExitReason::Other,
        ]
    }

    /// Human-readable label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            ExitReason::ExternalInterrupt => "External Interrupt",
            ExitReason::ApicAccess => "APIC Access",
            ExitReason::IoInstruction => "I/O Instruction",
            ExitReason::EptViolation => "EPT Violation",
            ExitReason::PendingInterrupt => "Pending Interrupt",
            ExitReason::Hlt => "HLT",
            ExitReason::Other => "Other",
        }
    }

    /// True if the paper's plots group this reason under "Others".
    pub fn is_other_group(self) -> bool {
        !matches!(
            self,
            ExitReason::ExternalInterrupt | ExitReason::ApicAccess | ExitReason::IoInstruction
        )
    }
}

/// Per-reason exit counts of one VM, lifetime and inside the measurement
/// window (`perf-kvm stat` over the steady-state part of the run). A
/// plain value: the testbed's per-VM ledger fills it in as exits happen.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExitStats {
    /// Exits per reason over the whole run (index = [`ExitReason::idx`]).
    pub lifetime: [u64; ExitReason::COUNT],
    /// Exits per reason inside the measurement window.
    pub windowed: [u64; ExitReason::COUNT],
    /// Length of the measurement window (zero until it closes).
    pub window: SimDuration,
}

impl ExitStats {
    /// Lifetime count for a reason.
    pub fn total(&self, reason: ExitReason) -> u64 {
        self.lifetime[reason.idx()]
    }

    /// Windowed exits per second for a reason.
    pub fn rate(&self, reason: ExitReason) -> f64 {
        if self.window.is_zero() {
            0.0
        } else {
            self.windowed[reason.idx()] as f64 / self.window.as_secs_f64()
        }
    }

    /// Windowed total exits per second.
    pub fn total_rate(&self) -> f64 {
        ExitReason::all().iter().map(|&r| self.rate(r)).sum()
    }
}

/// The cost model for guest/host transitions.
///
/// §II-B: *"This kind of guest/host context switch takes hundreds or
/// thousands of cycles and may cause serious cache pollution."* The numbers
/// here are the end-to-end costs charged to the vCPU per exit — the
/// hardware world switch **plus** KVM's software handling for that exit
/// type — calibrated so the Baseline configuration lands at the paper's
/// absolute rates (~130 k exits/s at 70 % TIG for TCP send, Table I).
#[derive(Clone, Copy, Debug)]
pub struct ExitCosts {
    /// Hardware VMX transition (exit + entry round trip) without handling.
    pub world_switch: SimDuration,
    /// Host-side handling of an I/O-instruction (kick) exit: eventfd signal
    /// + vhost worker wakeup.
    pub io_instruction_handling: SimDuration,
    /// Host-side handling of an external-interrupt (kick IPI) exit.
    pub external_interrupt_handling: SimDuration,
    /// Host-side handling of an APIC-access (EOI) exit.
    pub apic_access_handling: SimDuration,
    /// Host-side handling of other exits.
    pub other_handling: SimDuration,
    /// Extra VM-entry work when injecting an event (emulated path).
    pub event_injection: SimDuration,
    /// Cost of sending an IPI from the host side.
    pub ipi_send: SimDuration,
    /// Hardware posted-interrupt notification processing on the target
    /// core while in guest mode (microcode PIR→vIRR sync; no exit).
    pub pi_notification: SimDuration,
}

impl Default for ExitCosts {
    fn default() -> Self {
        ExitCosts {
            world_switch: SimDuration::from_nanos(800),
            io_instruction_handling: SimDuration::from_nanos(2200),
            external_interrupt_handling: SimDuration::from_nanos(1200),
            apic_access_handling: SimDuration::from_nanos(1200),
            other_handling: SimDuration::from_nanos(1500),
            event_injection: SimDuration::from_nanos(400),
            ipi_send: SimDuration::from_nanos(300),
            pi_notification: SimDuration::from_nanos(250),
        }
    }
}

impl ExitCosts {
    /// Total vCPU-side cost of one exit of the given reason (world switch +
    /// handling), excluding injection.
    pub fn exit_cost(&self, reason: ExitReason) -> SimDuration {
        let handling = match reason {
            ExitReason::IoInstruction => self.io_instruction_handling,
            ExitReason::ExternalInterrupt => self.external_interrupt_handling,
            ExitReason::ApicAccess => self.apic_access_handling,
            _ => self.other_handling,
        };
        self.world_switch + handling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_distinct() {
        let mut seen = [false; ExitReason::COUNT];
        for r in ExitReason::all() {
            assert!(!seen[r.idx()], "duplicate index for {r:?}");
            seen[r.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn other_grouping_matches_paper() {
        assert!(!ExitReason::ExternalInterrupt.is_other_group());
        assert!(!ExitReason::ApicAccess.is_other_group());
        assert!(!ExitReason::IoInstruction.is_other_group());
        assert!(ExitReason::EptViolation.is_other_group());
        assert!(ExitReason::Hlt.is_other_group());
    }

    #[test]
    fn windowed_rates() {
        let mut s = ExitStats {
            window: SimDuration::from_millis(500),
            ..ExitStats::default()
        };
        s.lifetime[ExitReason::IoInstruction.idx()] = 501; // one in warm-up
        s.windowed[ExitReason::IoInstruction.idx()] = 500;
        s.windowed[ExitReason::ApicAccess.idx()] = 250;
        assert_eq!(s.total(ExitReason::IoInstruction), 501);
        assert!((s.rate(ExitReason::IoInstruction) - 1000.0).abs() < 1e-9);
        assert!((s.total_rate() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn cost_model_totals() {
        let c = ExitCosts::default();
        let io = c.exit_cost(ExitReason::IoInstruction);
        assert_eq!(io, SimDuration::from_nanos(3000));
        assert!(c.exit_cost(ExitReason::ApicAccess) < io);
        // An exit is "hundreds or thousands of cycles": 0.5us..5us.
        for r in ExitReason::all() {
            let cost = c.exit_cost(r);
            assert!(cost >= SimDuration::from_nanos(500));
            assert!(cost <= SimDuration::from_micros(5));
        }
    }

    #[test]
    fn empty_stats_report_zero() {
        let mut s = ExitStats::default();
        assert_eq!(s.total_rate(), 0.0);
        // Counts without a closed window have no rate.
        s.windowed[ExitReason::Hlt.idx()] = 3;
        assert_eq!(s.rate(ExitReason::Hlt), 0.0);
    }
}
