//! Scheduler entities and identifiers.

use es2_sim::{SimDuration, SimTime};

/// Index of a host thread in the scheduler's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// Index of a physical core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

impl ThreadId {
    /// Arena index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl CoreId {
    /// Arena index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Lifecycle state of a scheduled thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Waiting on its core's run queue.
    Runnable,
    /// Currently executing on its core.
    Running,
    /// Blocked; not on any run queue.
    Sleeping,
}

/// Per-thread scheduling state (a CFS `sched_entity`).
#[derive(Clone, Debug)]
pub struct SchedEntity {
    /// Load weight derived from the nice value.
    pub weight: u32,
    /// Virtual runtime in nanoseconds (weight-normalized execution time).
    pub vruntime: u64,
    /// Current lifecycle state.
    pub state: ThreadState,
    /// The core this thread is pinned to.
    pub core: CoreId,
    /// When the thread last started running (valid while `Running`).
    pub ran_since: SimTime,
    /// When the thread last left a core (preempted or blocked); `None`
    /// while `Running`. The flight recorder reads this to attribute how
    /// long an interrupt's target had already been descheduled.
    pub off_core_since: Option<SimTime>,
    /// Total CPU time consumed.
    pub sum_exec: SimDuration,
    /// Number of times the thread was switched in.
    pub switches_in: u64,
}

impl SchedEntity {
    /// A new sleeping entity pinned to `core` with the given weight.
    pub(crate) fn new(weight: u32, core: CoreId) -> Self {
        SchedEntity {
            weight,
            vruntime: 0,
            state: ThreadState::Sleeping,
            core,
            ran_since: SimTime::ZERO,
            off_core_since: Some(SimTime::ZERO),
            sum_exec: SimDuration::ZERO,
            switches_in: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_entity_starts_sleeping() {
        let e = SchedEntity::new(1024, CoreId(2));
        assert_eq!(e.state, ThreadState::Sleeping);
        assert_eq!(e.core, CoreId(2));
        assert_eq!(e.vruntime, 0);
        assert_eq!(e.sum_exec, SimDuration::ZERO);
    }

    #[test]
    fn ids_index_arenas() {
        assert_eq!(ThreadId(7).idx(), 7);
        assert_eq!(CoreId(3).idx(), 3);
    }
}
