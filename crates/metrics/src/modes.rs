//! Per-VM interrupt delivery-mode counts.
//!
//! The graceful-degradation story needs an audit trail: when
//! posted-interrupt hardware becomes unavailable for a VM mid-run, its
//! deliveries must *measurably* move from the posted path to the emulated
//! kick-IPI/EOI path — and only for that VM. [`ModeAccounting`] reports
//! deliveries per VM per path so the chaos suite (and operators) can
//! assert exactly that, rather than inferring it from aggregate exit
//! rates. The testbed counts each delivery once, in the VM's own ledger,
//! and builds this value from those ledgers at the end of a run.

/// Delivery counts for one VM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmModeCounts {
    /// Deliveries that took the posted-interrupt path (notify or posted).
    pub posted: u64,
    /// Deliveries that took the emulated-LAPIC path (kick or pending-entry).
    pub emulated: u64,
    /// Times a vCPU of this VM degraded posted→emulated.
    pub degradations: u64,
}

/// Per-VM delivery-mode counts of one host (index = VM slot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModeAccounting {
    /// One row per VM slot.
    pub per_vm: Vec<VmModeCounts>,
}

impl ModeAccounting {
    /// Counts for `vm` (zeros if never seen).
    pub fn vm(&self, vm: usize) -> VmModeCounts {
        self.per_vm.get(vm).copied().unwrap_or_default()
    }

    /// Sum over all VMs.
    pub fn totals(&self) -> VmModeCounts {
        let mut t = VmModeCounts::default();
        for c in &self.per_vm {
            t.posted += c.posted;
            t.emulated += c.emulated;
            t.degradations += c.degradations;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(posted: u64, emulated: u64, degradations: u64) -> VmModeCounts {
        VmModeCounts {
            posted,
            emulated,
            degradations,
        }
    }

    #[test]
    fn counts_are_per_vm() {
        let m = ModeAccounting {
            per_vm: vec![counts(2, 0, 0), counts(0, 1, 1), counts(0, 0, 0)],
        };
        assert_eq!(m.vm(0).posted, 2);
        assert_eq!(m.vm(0).emulated, 0);
        assert_eq!(m.vm(1).emulated, 1);
        assert_eq!(m.vm(1).degradations, 1);
        assert_eq!(m.vm(2), VmModeCounts::default());
        assert_eq!(m.vm(9), VmModeCounts::default(), "past the end reads zeros");
    }

    #[test]
    fn totals_sum_all_vms() {
        let m = ModeAccounting {
            per_vm: vec![counts(1, 1, 0), counts(0, 1, 0)],
        };
        let t = m.totals();
        assert_eq!((t.posted, t.emulated, t.degradations), (1, 2, 0));
    }
}
