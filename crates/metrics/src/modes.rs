//! Per-VM interrupt delivery-mode accounting.
//!
//! The graceful-degradation story needs an audit trail: when
//! posted-interrupt hardware becomes unavailable for a VM mid-run, its
//! deliveries must *measurably* move from the posted path to the emulated
//! kick-IPI/EOI path — and only for that VM. [`ModeAccounting`] counts
//! deliveries per VM per path so the chaos suite (and operators) can
//! assert exactly that, rather than inferring it from aggregate exit
//! rates.

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

/// Per-VM delivery-mode ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModeAccounting {
    per_vm: Vec<VmModeCounts>,
}

impl ModeAccounting {
    /// A ledger for `num_vms` VMs.
    pub fn new(num_vms: usize) -> Self {
        ModeAccounting {
            per_vm: vec![VmModeCounts::default(); num_vms],
        }
    }

    fn slot(&mut self, vm: usize) -> &mut VmModeCounts {
        if vm >= self.per_vm.len() {
            self.per_vm.resize(vm + 1, VmModeCounts::default());
        }
        &mut self.per_vm[vm]
    }

    /// Record a posted-path delivery for `vm`.
    pub fn note_posted(&mut self, vm: usize) {
        self.slot(vm).posted += 1;
    }

    /// Record an emulated-path delivery for `vm`.
    pub fn note_emulated(&mut self, vm: usize) {
        self.slot(vm).emulated += 1;
    }

    /// Record one vCPU of `vm` degrading posted→emulated.
    pub fn note_degradation(&mut self, vm: usize) {
        self.slot(vm).degradations += 1;
    }

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

    /// Remove and return `vm`'s row, leaving zeros behind (live migration:
    /// the ledger travels with the VM; the vacated slot starts fresh).
    pub fn take_vm(&mut self, vm: usize) -> VmModeCounts {
        std::mem::take(self.slot(vm))
    }

    /// Fold `counts` into `vm`'s row (live migration: the arriving VM's
    /// ledger lands on top of whatever the target slot accumulated).
    pub fn merge_vm(&mut self, vm: usize, counts: VmModeCounts) {
        let s = self.slot(vm);
        s.posted += counts.posted;
        s.emulated += counts.emulated;
        s.degradations += counts.degradations;
    }

    /// VMs with at least one emulated-path delivery.
    pub fn vms_with_emulated_deliveries(&self) -> Vec<usize> {
        self.per_vm
            .iter()
            .enumerate()
            .filter(|(_, c)| c.emulated > 0)
            .map(|(vm, _)| vm)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_per_vm() {
        let mut m = ModeAccounting::new(3);
        m.note_posted(0);
        m.note_posted(0);
        m.note_emulated(1);
        m.note_degradation(1);
        assert_eq!(m.vm(0).posted, 2);
        assert_eq!(m.vm(0).emulated, 0);
        assert_eq!(m.vm(1).emulated, 1);
        assert_eq!(m.vm(1).degradations, 1);
        assert_eq!(m.vm(2), VmModeCounts::default());
        assert_eq!(m.vms_with_emulated_deliveries(), vec![1]);
    }

    #[test]
    fn totals_sum_all_vms() {
        let mut m = ModeAccounting::new(2);
        m.note_posted(0);
        m.note_emulated(0);
        m.note_emulated(1);
        let t = m.totals();
        assert_eq!((t.posted, t.emulated, t.degradations), (1, 2, 0));
    }

    #[test]
    fn out_of_range_vm_grows_the_ledger() {
        let mut m = ModeAccounting::new(1);
        m.note_emulated(5);
        assert_eq!(m.per_vm.len(), 6);
        assert_eq!(m.vm(5).emulated, 1);
        assert_eq!(m.vm(9), VmModeCounts::default(), "reads never grow");
    }
}
