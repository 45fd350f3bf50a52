//! Paravirtual I/O substrate: virtio split rings and the vhost worker.
//!
//! §IV-B of the paper: *"In paravirtual I/O, the virtual device is divided
//! into a front-end driver in the guest and a back-end device in the host.
//! The front-end and back-end communicate with each other through a shared
//! memory buffer, consisting of several virtual queues, each of which
//! corresponds to a handler in the host. These handlers are usually in sleep
//! state, and an I/O thread is responsible for scheduling them."*
//!
//! and §V-A: *"The virtio standard provides `flags` and `avail_event` fields
//! for the back-end device to temporarily suppress notifications from the
//! guest when the host is servicing a particular virtqueue. By manipulating
//! these fields, ES2 can permanently disable the notification mechanism in
//! the polling mode and thus avoid the VM exits triggered by I/O requests."*
//!
//! [`queue::Virtqueue`] implements the split-ring notification contract —
//! `VRING_USED_F_NO_NOTIFY`, `VRING_AVAIL_F_NO_INTERRUPT` and the
//! `EVENT_IDX` (`avail_event`/`used_event`) protocol — precisely, because
//! two load-bearing behaviours of the evaluation fall out of it:
//!
//! 1. *kick batching*: the back-end suppresses notifications while it is
//!    actively draining a queue, so the guest's kick (I/O-instruction VM
//!    exit) rate equals the back-end's sleep/wake frequency, not the packet
//!    rate;
//! 2. *interrupt moderation*: the guest (NAPI) suppresses interrupts while
//!    polling, so virtual interrupt rates are far below packet rates
//!    (§VI-C observes ~15k interrupts/s for a full-rate TCP stream).
//!
//! [`vhost::VhostPool`] models the in-kernel vhost I/O threads: each
//! worker keeps a work list of per-virtqueue handlers, woken by guest
//! kicks, executed in FIFO order — the structure ES2's Algorithm 1
//! schedules its polling handlers on.

pub mod queue;
pub mod vhost;

pub use queue::{KickDecision, RingError, Virtqueue, VirtqueueConfig};
pub use vhost::{HandlerId, ShardPolicy, VhostPool};
