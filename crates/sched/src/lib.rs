//! A CFS-like thread scheduler for the simulated host.
//!
//! §V-B of the paper: *"In KVM, a vCPU is implemented as a normal thread and
//! scheduled by the Complete Fair Scheduler (CFS). [...] we turn to the two
//! preemption notifiers provided by KVM, called `kvm_sched_in` and
//! `kvm_sched_out`."*
//!
//! The scheduler here reproduces the CFS behaviours the paper's mechanisms
//! interact with:
//!
//! * weighted fair sharing via **vruntime** (nice levels use Linux's
//!   `sched_prio_to_weight` table, so the "lowest-priority CPU-burn scripts"
//!   of §VI consume only leftover time),
//! * a periodic **tick** that enforces each entity's timeslice
//!   (`sched_latency` split by weight, floored at `min_granularity`),
//! * **wakeup preemption** with `wakeup_granularity` hysteresis and sleeper
//!   vruntime placement, so I/O threads (vhost workers) preempt CPU hogs
//!   promptly — the property the hybrid handler's notification mode relies
//!   on,
//! * **context-switch notifications** equivalent to the `kvm_sched_in` /
//!   `kvm_sched_out` preemption notifiers — every state change is reported
//!   to the caller as [`Switch`] values, from which ES2 maintains its
//!   online/offline vCPU lists.
//!
//! The scheduler is a passive data structure: the discrete-event testbed
//! calls it at ticks, wakeups and blocks, and applies the returned
//! transitions. It never advances time itself.

pub mod cfs;
pub mod entity;
mod weights;

pub use cfs::{CfsScheduler, SchedParams, Switch};
pub use entity::{CoreId, ThreadId, ThreadState};
