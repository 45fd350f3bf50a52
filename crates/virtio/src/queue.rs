//! The split virtqueue with full notification-suppression semantics.
//!
//! We do not model guest physical memory — descriptors carry opaque
//! payloads, one type per direction (the testbed stores packet handles
//! only in the half a packet actually travels). What *is* modeled
//! bit-faithfully is the notification contract of the virtio 1.0 split
//! ring, because the paper's hybrid I/O handling is built directly on it:
//!
//! * the driver→device direction (`avail` ring) with the
//!   `VRING_USED_F_NO_NOTIFY` flag and the `avail_event` index deciding
//!   whether an exposed buffer requires a **kick** (= an I/O-instruction VM
//!   exit),
//! * the device→driver direction (`used` ring) with the
//!   `VRING_AVAIL_F_NO_INTERRUPT` flag and the `used_event` index deciding
//!   whether a consumed buffer requires a **virtual interrupt**,
//! * the `vring_need_event` wrap-around window comparison from the spec.

use std::collections::VecDeque;

/// Configuration of one virtqueue.
#[derive(Clone, Copy, Debug)]
pub struct VirtqueueConfig {
    /// Ring size (number of descriptors). vhost-net defaults to 256.
    pub size: u16,
    /// Whether `VIRTIO_F_EVENT_IDX` was negotiated (modern Linux: yes).
    pub event_idx: bool,
}

impl Default for VirtqueueConfig {
    fn default() -> Self {
        VirtqueueConfig {
            size: 256,
            event_idx: true,
        }
    }
}

/// A guest-trust-boundary violation caught by device-side ring
/// validation — the typed replacement for what would be a panic (or
/// silent memory corruption) in a backend that trusted guest indices.
///
/// Every variant carries the offending values so quarantine events can be
/// attributed in traces and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingError {
    /// The guest published a descriptor index `>=` the ring size.
    DescOutOfRange { index: u16, size: u16 },
    /// The guest's published avail idx ran ahead of the entries it
    /// actually added (`claimed` vs the device cursor, with at most
    /// `window` legitimately outstanding).
    AvailIdxJump {
        claimed: u16,
        cursor: u16,
        window: u16,
    },
    /// The guest's published avail idx moved backwards past entries the
    /// device already consumed.
    AvailIdxRegress { claimed: u16, cursor: u16 },
    /// A descriptor chain links back to its own head.
    DescChainLoop { head: u16 },
    /// A descriptor chain longer than the ring itself.
    ChainTooLong { len: u16, max: u16 },
    /// The guest claims more unreclaimed used entries than the ring holds.
    UsedOverflow { claimed: u16, size: u16 },
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RingError::DescOutOfRange { index, size } => {
                write!(
                    f,
                    "descriptor index {index} out of range (ring size {size})"
                )
            }
            RingError::AvailIdxJump {
                claimed,
                cursor,
                window,
            } => write!(
                f,
                "avail idx jumped to {claimed} (device cursor {cursor}, {window} outstanding)"
            ),
            RingError::AvailIdxRegress { claimed, cursor } => {
                write!(
                    f,
                    "avail idx regressed to {claimed} (device cursor {cursor})"
                )
            }
            RingError::DescChainLoop { head } => {
                write!(f, "descriptor chain loops back to head {head}")
            }
            RingError::ChainTooLong { len, max } => {
                write!(
                    f,
                    "descriptor chain of length {len} exceeds ring size {max}"
                )
            }
            RingError::UsedOverflow { claimed, size } => {
                write!(
                    f,
                    "guest claims {claimed} outstanding used entries (ring size {size})"
                )
            }
        }
    }
}

/// Ring state the guest *claims* to have published, recorded by the
/// `guest_publish_*` entry points and checked against the device's
/// trusted view by [`Virtqueue::device_validate`]. A claim that turns out
/// geometrically valid simply clears; an invalid one is the trust-boundary
/// violation the backend must quarantine on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GuestClaim {
    DescIndex(u16),
    AvailIdx(u16),
    Chain {
        head: u16,
        len: u16,
        next_is_head: bool,
    },
    UsedOutstanding(u16),
}

/// Whether the driver must notify (kick) the device after exposing a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KickDecision {
    /// Device requested a notification: the guest executes the kick I/O
    /// instruction (a VM exit in notification mode).
    Kick,
    /// Notifications are suppressed: expose the buffer silently.
    NoKick,
}

/// `vring_need_event()` from the virtio spec: `true` iff `event_idx` lies in
/// the half-open wrap-around window `[old, new)`.
#[inline]
fn need_event(event_idx: u16, new_idx: u16, old_idx: u16) -> bool {
    new_idx.wrapping_sub(event_idx).wrapping_sub(1) < new_idx.wrapping_sub(old_idx)
}

/// A split virtqueue whose avail half carries payloads of type `A` and
/// whose used half carries payloads of type `U`.
///
/// A half that moves no data takes `()`: a `VecDeque<()>` never
/// allocates, so only the direction data flows costs memory. A TX ring is
/// `Virtqueue<Packet, ()>` — the guest posts packets, the device returns
/// bare descriptors — and an RX ring is `Virtqueue<(), Packet>` — the
/// guest posts empty buffers, the device returns them filled. Indices,
/// flags, counters and the kick/interrupt decisions never look at a
/// payload, so they are the same whatever the two types are.
///
/// A driver posts one buffer with [`driver_add`](Self::driver_add) or a
/// batch with [`driver_add_n`](Self::driver_add_n); the batch form leaves
/// the same indices, counters and avail contents in O(1) index work,
/// which is how a booting guest (and a guest resetting a quarantined
/// queue) fills its whole RX ring.
#[derive(Clone, Debug)]
pub struct Virtqueue<A, U = A> {
    cfg: VirtqueueConfig,
    /// Buffers exposed by the driver, not yet consumed by the device.
    /// Both halves grow with occupancy; `num_free` bounds their sum at
    /// `cfg.size`.
    avail: VecDeque<A>,
    /// Buffers completed by the device, not yet reclaimed by the driver.
    used: VecDeque<U>,
    /// Free descriptors (ring capacity not currently in flight).
    num_free: u16,

    // --- indices (free-running, wrap at 2^16 like the real ring) ---
    avail_idx: u16,
    used_idx: u16,
    /// Device's consumption cursor into the avail ring.
    last_avail_idx: u16,
    /// Driver's consumption cursor into the used ring.
    last_used_idx: u16,

    // --- notification suppression state ---
    /// `VRING_USED_F_NO_NOTIFY`: device tells driver "do not kick".
    used_flags_no_notify: bool,
    /// `VRING_AVAIL_F_NO_INTERRUPT`: driver tells device "do not interrupt".
    avail_flags_no_interrupt: bool,
    /// Device-written: kick me when `avail_idx` passes this (EVENT_IDX).
    avail_event: u16,
    /// Driver-written: interrupt me when `used_idx` passes this (EVENT_IDX).
    used_event: u16,

    // --- statistics ---
    kicks: u64,
    interrupts: u64,
    // --- conservation counters (liveness checking) ---
    added: u64,
    popped: u64,
    completed: u64,
    reclaimed: u64,

    // --- guest trust boundary ---
    /// Pending guest-published ring state awaiting device validation.
    claim: Option<GuestClaim>,
    /// Queue is quarantined: the backend refuses service until the guest
    /// resets it (virtio's `DEVICE_NEEDS_RESET` analog).
    broken: bool,
    /// Surfaced to the guest: the device requires a reset.
    needs_reset: bool,
    /// Lifetime quarantine count (survives resets).
    quarantines: u64,
    /// Lifetime reset count.
    resets: u64,
}

impl<A, U> Virtqueue<A, U> {
    /// A new, empty virtqueue; notifications and interrupts start enabled.
    pub fn new(cfg: VirtqueueConfig) -> Self {
        assert!(cfg.size > 0 && cfg.size.is_power_of_two(), "ring size");
        Virtqueue {
            cfg,
            avail: VecDeque::new(),
            used: VecDeque::new(),
            num_free: cfg.size,
            avail_idx: 0,
            used_idx: 0,
            last_avail_idx: 0,
            last_used_idx: 0,
            used_flags_no_notify: false,
            avail_flags_no_interrupt: false,
            avail_event: 0,
            used_event: 0,
            kicks: 0,
            interrupts: 0,
            added: 0,
            popped: 0,
            completed: 0,
            reclaimed: 0,
            claim: None,
            broken: false,
            needs_reset: false,
            quarantines: 0,
            resets: 0,
        }
    }

    /// Ring configuration.
    pub fn config(&self) -> VirtqueueConfig {
        self.cfg
    }

    // ------------------------------------------------------------------
    // Driver (guest front-end) side
    // ------------------------------------------------------------------

    /// Free descriptors available to the driver.
    pub fn num_free(&self) -> u16 {
        self.num_free
    }

    /// Expose one buffer to the device. Returns whether the driver must
    /// kick, per the current suppression state.
    ///
    /// Returns `Err(payload)` if the ring is full.
    pub fn driver_add(&mut self, payload: A) -> Result<KickDecision, A> {
        // A quarantined queue accepts nothing: the guest sees a stopped
        // queue (as if full) until it performs the reset the device
        // requested.
        if self.broken || self.num_free == 0 {
            return Err(payload);
        }
        self.num_free -= 1;
        self.added += 1;
        let old = self.avail_idx;
        self.avail_idx = self.avail_idx.wrapping_add(1);
        self.avail.push_back(payload);

        // With EVENT_IDX, a device that disabled notifications re-parks
        // `avail_event` on every processing pass (vhost_disable_notify), so
        // the index can never be crossed while suppression is intended; we
        // model that re-parking with the sticky flag. Without it, ~2^15
        // silent adds would wrap the free-running index past the parked
        // event and produce a phantom kick.
        let kick = if self.used_flags_no_notify {
            false
        } else if self.cfg.event_idx {
            need_event(self.avail_event, self.avail_idx, old)
        } else {
            true
        };
        if kick {
            self.kicks += 1;
            Ok(KickDecision::Kick)
        } else {
            Ok(KickDecision::NoKick)
        }
    }

    /// Expose `n` copies of `payload` in one step — a driver posting a
    /// batch of buffers and publishing the avail index once. Leaves
    /// exactly the state `n` calls of [`driver_add`](Self::driver_add)
    /// leave, in O(1) index and counter work, and returns how many of
    /// those calls would have answered [`KickDecision::Kick`].
    ///
    /// All or nothing: `Err(payload)` if the queue is quarantined or has
    /// fewer than `n` free descriptors, and then nothing is added.
    pub fn driver_add_n(&mut self, n: u16, payload: A) -> Result<u16, A>
    where
        A: Clone,
    {
        if self.broken || n > self.num_free {
            return Err(payload);
        }
        let old = self.avail_idx;
        self.num_free -= n;
        self.added += u64::from(n);
        self.avail_idx = old.wrapping_add(n);
        self.avail
            .extend(std::iter::repeat_n(payload, usize::from(n)));

        // Add `i` asks `need_event` about the one-step window
        // `[old + i, old + i + 1)`, which holds `avail_event` for at most
        // one `i`. So the `n` adds kick once iff `avail_event` lies in
        // `[old, old + n)` — the batch window a Linux driver tests once
        // per publish. `n` never exceeds the ring size, so the window
        // cannot wrap onto itself.
        let kicks = if self.used_flags_no_notify {
            0
        } else if self.cfg.event_idx {
            u16::from(need_event(self.avail_event, self.avail_idx, old))
        } else {
            n
        };
        self.kicks += u64::from(kicks);
        Ok(kicks)
    }

    /// Reclaim one completed buffer from the used ring (frees a
    /// descriptor).
    pub fn driver_take_used(&mut self) -> Option<U> {
        let p = self.used.pop_front()?;
        self.last_used_idx = self.last_used_idx.wrapping_add(1);
        self.num_free += 1;
        self.reclaimed += 1;
        Some(p)
    }

    /// Completed buffers the driver has not reclaimed yet.
    pub fn used_pending(&self) -> usize {
        self.used.len()
    }

    /// Peek the oldest unreclaimed completion without consuming it.
    pub fn peek_used(&self) -> Option<&U> {
        self.used.front()
    }

    /// True while the driver has interrupts suppressed (NAPI poll mode).
    pub fn interrupts_disabled(&self) -> bool {
        self.avail_flags_no_interrupt
    }

    /// Driver disables device→driver interrupts (NAPI entering poll mode).
    pub fn driver_disable_interrupts(&mut self) {
        if self.cfg.event_idx {
            // Push used_event far behind so need_event stays false for
            // ~2^15 completions — how virtio_net's
            // `virtqueue_disable_cb` works.
            self.used_event = self.used_idx.wrapping_sub(0x8000);
        }
        self.avail_flags_no_interrupt = true;
    }

    /// Driver re-enables interrupts (NAPI complete). Returns `true` if the
    /// used ring already holds entries — the race the driver must re-check
    /// (it would otherwise miss an interrupt).
    pub fn driver_enable_interrupts(&mut self) -> bool {
        self.avail_flags_no_interrupt = false;
        if self.cfg.event_idx {
            self.used_event = self.last_used_idx;
        }
        !self.used.is_empty()
    }

    // ------------------------------------------------------------------
    // Device (host back-end) side
    // ------------------------------------------------------------------

    /// Buffers exposed and not yet consumed.
    pub fn avail_pending(&self) -> usize {
        self.avail.len()
    }

    /// True if no exposed buffers are waiting.
    pub fn is_avail_empty(&self) -> bool {
        self.avail.is_empty()
    }

    /// Consume one exposed buffer.
    pub fn device_pop(&mut self) -> Option<A> {
        if self.broken {
            return None;
        }
        let p = self.avail.pop_front()?;
        self.last_avail_idx = self.last_avail_idx.wrapping_add(1);
        self.popped += 1;
        Some(p)
    }

    /// Return one completed buffer to the driver. Returns `true` if the
    /// device must raise a virtual interrupt, per the suppression state.
    /// A quarantined queue silently swallows the completion (no interrupt,
    /// no used entry) — the backend stopped serving this queue.
    pub fn device_push_used(&mut self, payload: U) -> bool {
        if self.broken {
            drop(payload);
            return false;
        }
        let old = self.used_idx;
        self.used_idx = self.used_idx.wrapping_add(1);
        self.completed += 1;
        self.used.push_back(payload);

        // Symmetric to the kick side: a driver that disabled interrupts
        // (NAPI poll mode, suppressed TX completions) keeps `used_event`
        // parked; the sticky flag models the re-parking and prevents
        // free-running-index wrap-around from firing phantom interrupts.
        let interrupt = if self.avail_flags_no_interrupt {
            false
        } else if self.cfg.event_idx {
            need_event(self.used_event, self.used_idx, old)
        } else {
            true
        };
        if interrupt {
            self.interrupts += 1;
        }
        interrupt
    }

    /// Device suppresses driver kicks (entered busy processing or — for
    /// ES2 — the permanent polling mode).
    pub fn device_disable_notify(&mut self) {
        self.used_flags_no_notify = true;
        if self.cfg.event_idx {
            // Park avail_event far behind (vhost_disable_notify).
            self.avail_event = self.avail_idx.wrapping_sub(0x8000);
        }
    }

    /// Device re-enables driver kicks (about to sleep / ES2 returning to
    /// notification mode). Returns `true` if buffers raced in and the
    /// device must process them before sleeping (`vhost_enable_notify`'s
    /// re-check).
    pub fn device_enable_notify(&mut self) -> bool {
        self.used_flags_no_notify = false;
        if self.cfg.event_idx {
            self.avail_event = self.last_avail_idx;
        }
        !self.avail.is_empty()
    }

    /// Whether driver kicks are currently suppressed.
    pub fn notify_disabled(&self) -> bool {
        self.used_flags_no_notify
    }

    // ------------------------------------------------------------------
    // Guest trust boundary: publish / validate / quarantine / reset
    //
    // The guest_publish_* entry points record ring state the guest
    // *claims*; `device_validate` checks the claim against the device's
    // trusted view using the same wrapping-u16 geometry as the real ring.
    // The backend calls it before touching the avail ring, and on error
    // quarantines the queue instead of panicking.
    // ------------------------------------------------------------------

    /// Guest publishes a descriptor index (head of the next chain).
    /// Recorded, not trusted: `device_validate` checks it is in range.
    pub fn guest_publish_desc_index(&mut self, index: u16) {
        self.claim = Some(GuestClaim::DescIndex(index));
    }

    /// Guest publishes a (possibly bogus) avail idx. A claim equal to the
    /// device's view of the free-running publish cursor is valid — even
    /// across the `u16` wrap — anything outside the outstanding window is
    /// a jump or regression.
    pub fn guest_publish_avail_idx(&mut self, claimed: u16) {
        self.claim = Some(GuestClaim::AvailIdx(claimed));
    }

    /// Guest publishes a descriptor chain of `len` descriptors starting at
    /// `head`; `next_is_head` marks a chain whose next pointer links back
    /// to its own head (the classic loop attack).
    pub fn guest_publish_chain(&mut self, head: u16, len: u16, next_is_head: bool) {
        self.claim = Some(GuestClaim::Chain {
            head,
            len,
            next_is_head,
        });
    }

    /// Guest claims `claimed` used entries are outstanding (unreclaimed).
    pub fn guest_claim_used_outstanding(&mut self, claimed: u16) {
        self.claim = Some(GuestClaim::UsedOutstanding(claimed));
    }

    /// Device-side validation of any pending guest claim, called by the
    /// backend before it processes the avail ring. Geometrically valid
    /// claims clear silently; invalid ones return the typed violation
    /// (and clear — the caller decides to quarantine).
    pub fn device_validate(&mut self) -> Result<(), RingError> {
        let Some(claim) = self.claim.take() else {
            return Ok(());
        };
        let size = self.cfg.size;
        match claim {
            GuestClaim::DescIndex(index) => {
                if index < size {
                    Ok(())
                } else {
                    Err(RingError::DescOutOfRange { index, size })
                }
            }
            GuestClaim::AvailIdx(claimed) => {
                // The device's cursor and the true publish index are both
                // free-running u16s; the legitimate window for a published
                // idx is [cursor, cursor + outstanding] (wrapping).
                let cursor = self.last_avail_idx;
                let window = self.avail.len() as u16;
                let advanced = claimed.wrapping_sub(cursor);
                if advanced <= window {
                    Ok(())
                } else if advanced >= 0x8000 {
                    Err(RingError::AvailIdxRegress { claimed, cursor })
                } else {
                    Err(RingError::AvailIdxJump {
                        claimed,
                        cursor,
                        window,
                    })
                }
            }
            GuestClaim::Chain {
                head,
                len,
                next_is_head,
            } => {
                if next_is_head {
                    Err(RingError::DescChainLoop { head })
                } else if len > size {
                    Err(RingError::ChainTooLong { len, max: size })
                } else {
                    Ok(())
                }
            }
            GuestClaim::UsedOutstanding(claimed) => {
                if claimed <= size {
                    Ok(())
                } else {
                    Err(RingError::UsedOverflow { claimed, size })
                }
            }
        }
    }

    /// Quarantine the queue: drain the avail ring, mark it broken, and
    /// surface the `DEVICE_NEEDS_RESET` analog to the guest. Returns how
    /// many exposed-but-unprocessed buffers were discarded.
    pub fn quarantine(&mut self) -> usize {
        let drained = self.avail.len();
        self.avail.clear();
        self.claim = None;
        self.broken = true;
        self.needs_reset = true;
        self.quarantines += 1;
        drained
    }

    /// Whether the queue is quarantined (backend refuses service).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Whether the device has requested a reset from the guest.
    pub fn needs_reset(&self) -> bool {
        self.needs_reset
    }

    /// Guest performs the requested reset: rings are emptied, indices,
    /// suppression state and conservation counters return to their
    /// post-construction values, and service resumes. Lifetime
    /// kick/interrupt statistics and quarantine counters survive. Returns
    /// `false` (and does nothing) if no reset was requested.
    pub fn guest_reset(&mut self) -> bool {
        if !self.needs_reset {
            return false;
        }
        self.avail.clear();
        self.used.clear();
        self.num_free = self.cfg.size;
        self.avail_idx = 0;
        self.used_idx = 0;
        self.last_avail_idx = 0;
        self.last_used_idx = 0;
        self.used_flags_no_notify = false;
        self.avail_flags_no_interrupt = false;
        self.avail_event = 0;
        self.used_event = 0;
        self.added = 0;
        self.popped = 0;
        self.completed = 0;
        self.reclaimed = 0;
        self.claim = None;
        self.broken = false;
        self.needs_reset = false;
        self.resets += 1;
        true
    }

    /// The device's trusted view of the free-running avail publish cursor.
    /// Exposed so a simulated hostile guest can craft claims relative to
    /// it (a jump past the window, a regression behind it); the device
    /// never trusts anything derived from this value coming back.
    pub fn device_avail_cursor(&self) -> u16 {
        self.last_avail_idx
    }

    /// Lifetime quarantine count.
    pub fn quarantine_count(&self) -> u64 {
        self.quarantines
    }

    /// Lifetime guest-reset count.
    pub fn reset_count(&self) -> u64 {
        self.resets
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Kicks the driver was told to perform.
    pub fn kick_count(&self) -> u64 {
        self.kicks
    }

    /// Interrupts the device was told to raise.
    pub fn interrupt_count(&self) -> u64 {
        self.interrupts
    }

    // ------------------------------------------------------------------
    // Conservation counters — the liveness checker's raw material.
    //
    // Descriptor flow is a pipeline:
    //   added ──pop──▶ device processing ──push_used──▶ reclaimed
    // so at any instant:
    //   added == popped + avail_pending
    //   completed == reclaimed + used_pending
    //   popped - completed == descriptors inside the device
    // A faulted run that stops making progress shows up as a violation of
    // "popped - completed" being attributable to in-flight work.
    // ------------------------------------------------------------------

    /// Buffers the driver ever exposed (through `driver_add` or
    /// `driver_add_n`).
    pub fn added_total(&self) -> u64 {
        self.added
    }

    /// Buffers the device ever consumed.
    pub fn popped_total(&self) -> u64 {
        self.popped
    }

    /// Buffers the device ever completed back to the driver.
    pub fn completed_total(&self) -> u64 {
        self.completed
    }

    /// Completions the driver ever reclaimed.
    pub fn reclaimed_total(&self) -> u64 {
        self.reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vq(event_idx: bool) -> Virtqueue<u32> {
        Virtqueue::new(VirtqueueConfig { size: 8, event_idx })
    }

    #[test]
    fn first_add_kicks() {
        let mut q = vq(true);
        assert_eq!(q.driver_add(1).unwrap(), KickDecision::Kick);
    }

    #[test]
    fn adds_while_device_busy_do_not_kick() {
        let mut q = vq(true);
        q.driver_add(1).unwrap(); // kick

        // Device starts processing; with EVENT_IDX it has not re-armed
        // avail_event, so subsequent adds are silent.
        q.device_pop().unwrap();
        assert_eq!(q.driver_add(2).unwrap(), KickDecision::NoKick);
        assert_eq!(q.driver_add(3).unwrap(), KickDecision::NoKick);
        assert_eq!(q.kick_count(), 1);
    }

    #[test]
    fn enable_notify_rearms_kick() {
        let mut q = vq(true);
        q.driver_add(1).unwrap();
        q.device_pop().unwrap();
        let raced = q.device_enable_notify();
        assert!(!raced, "queue drained, no race");
        assert_eq!(q.driver_add(2).unwrap(), KickDecision::Kick);
    }

    #[test]
    fn enable_notify_detects_race() {
        let mut q = vq(true);
        q.driver_add(1).unwrap();
        q.device_pop().unwrap();
        q.driver_add(2).unwrap(); // lands while device about to sleep
        assert!(q.device_enable_notify(), "must re-check and find buffer");
    }

    #[test]
    fn disable_notify_silences_driver_event_idx() {
        let mut q = vq(true);
        q.device_disable_notify();
        for i in 0..5 {
            assert_eq!(q.driver_add(i).unwrap(), KickDecision::NoKick, "i={i}");
        }
        assert_eq!(q.kick_count(), 0);
    }

    #[test]
    fn disable_notify_silences_driver_flag_mode() {
        let mut q = vq(false);
        q.device_disable_notify();
        assert_eq!(q.driver_add(1).unwrap(), KickDecision::NoKick);
        q.device_enable_notify();
        assert_eq!(q.driver_add(2).unwrap(), KickDecision::Kick);
    }

    #[test]
    fn ring_capacity_enforced() {
        let mut q = vq(true);
        for i in 0..8 {
            q.driver_add(i).unwrap();
        }
        assert_eq!(q.num_free(), 0);
        assert!(q.driver_add(99).is_err());
        // Descriptors free only when the driver reclaims used entries.
        let p = q.device_pop().unwrap();
        q.device_push_used(p);
        assert_eq!(q.num_free(), 0, "still full until driver reclaims");
        assert_eq!(q.driver_take_used(), Some(0));
        assert_eq!(q.num_free(), 1);
        q.driver_add(99).unwrap();
    }

    #[test]
    fn first_completion_interrupts_then_coalesces() {
        let mut q = vq(true);
        for i in 0..4 {
            q.driver_add(i).unwrap();
        }
        // Driver armed used_event at 0 (default): first completion
        // interrupts, later ones coalesce until driver re-arms.
        let p = q.device_pop().unwrap();
        assert!(q.device_push_used(p), "first completion interrupts");
        let p = q.device_pop().unwrap();
        assert!(!q.device_push_used(p), "second coalesces");
        assert_eq!(q.interrupt_count(), 1);
    }

    #[test]
    fn napi_cycle_suppresses_then_rearms() {
        let mut q = vq(true);
        for i in 0..6 {
            q.driver_add(i).unwrap();
        }
        let p = q.device_pop().unwrap();
        assert!(q.device_push_used(p), "interrupt fires");
        // Guest NAPI: disable, poll, re-enable.
        q.driver_disable_interrupts();
        let p = q.device_pop().unwrap();
        assert!(!q.device_push_used(p), "suppressed during poll");
        while q.driver_take_used().is_some() {}
        let race = q.driver_enable_interrupts();
        assert!(!race);
        let p = q.device_pop().unwrap();
        assert!(q.device_push_used(p), "re-armed after NAPI complete");
    }

    #[test]
    fn driver_enable_interrupts_detects_race() {
        let mut q = vq(true);
        q.driver_add(1).unwrap();
        q.driver_disable_interrupts();
        let p = q.device_pop().unwrap();
        q.device_push_used(p);
        assert!(q.driver_enable_interrupts(), "pending used entry");
    }

    #[test]
    fn no_phantom_kick_after_index_wraparound() {
        // Regression: with notifications parked, >2^15 silent adds used to
        // wrap the free-running avail index past the parked avail_event and
        // produce a phantom kick.
        let mut q: Virtqueue<u32> = Virtqueue::new(VirtqueueConfig {
            size: 8,
            event_idx: true,
        });
        q.device_disable_notify();
        for i in 0..70_000u32 {
            q.driver_add(i).unwrap();
            let p = q.device_pop().unwrap();
            q.device_push_used(p);
            q.driver_take_used();
        }
        assert_eq!(q.kick_count(), 0, "parked queue must never kick");
    }

    #[test]
    fn no_phantom_interrupt_after_index_wraparound() {
        let mut q: Virtqueue<u32> = Virtqueue::new(VirtqueueConfig {
            size: 8,
            event_idx: true,
        });
        q.driver_disable_interrupts();
        for i in 0..70_000u32 {
            q.driver_add(i).unwrap();
            let p = q.device_pop().unwrap();
            q.device_push_used(p);
            q.driver_take_used();
        }
        assert_eq!(
            q.interrupt_count(),
            0,
            "suppressed queue must never interrupt"
        );
    }

    #[test]
    fn conservation_counters_track_pipeline_stages() {
        let mut q = vq(true);
        for i in 0..5 {
            q.driver_add(i).unwrap();
        }
        assert_eq!(q.added_total(), 5);
        assert_eq!(q.added_total(), q.popped_total() + q.avail_pending() as u64);
        let p = q.device_pop().unwrap();
        let p2 = q.device_pop().unwrap();
        assert_eq!(q.popped_total(), 2);
        q.device_push_used(p);
        q.device_push_used(p2);
        assert_eq!(q.completed_total(), 2);
        q.driver_take_used().unwrap();
        assert_eq!(q.reclaimed_total(), 1);
        assert_eq!(
            q.completed_total(),
            q.reclaimed_total() + q.used_pending() as u64
        );
        // A full add fails and must not count.
        let mut full = vq(true);
        for i in 0..8 {
            full.driver_add(i).unwrap();
        }
        assert!(full.driver_add(99).is_err());
        assert_eq!(full.added_total(), 8);
    }

    #[test]
    fn need_event_window_semantics() {
        // event at old: fires.
        assert!(need_event(10, 11, 10));
        // event before old: does not fire.
        assert!(!need_event(9, 11, 10));
        // event at new: does not fire (not yet reached).
        assert!(!need_event(11, 11, 10));
        // wrap-around.
        assert!(need_event(u16::MAX, 0, u16::MAX));
        assert!(need_event(u16::MAX - 1, 2, u16::MAX - 1));
    }

    #[test]
    fn fifo_payload_order_preserved() {
        let mut q = vq(true);
        for i in 0..5 {
            q.driver_add(i).unwrap();
        }
        for want in 0..5 {
            let p = q.device_pop().unwrap();
            assert_eq!(p, want);
            q.device_push_used(p);
        }
        for want in 0..5 {
            assert_eq!(q.driver_take_used(), Some(want));
        }
    }

    #[test]
    fn full_size_ring_refuses_one_more_add() {
        // Ring storage grows with occupancy, so the bound comes from the
        // descriptor count alone: the (size + 1)th add is refused with its
        // payload handed back, whether the in-flight entries sit on the
        // avail side or the used side.
        let size = VirtqueueConfig::default().size;
        let mut q: Virtqueue<u32> = Virtqueue::new(VirtqueueConfig::default());
        for i in 0..size as u32 {
            q.driver_add(i).unwrap();
        }
        assert_eq!(q.avail_pending(), size as usize);
        assert_eq!(q.driver_add(u32::MAX), Err(u32::MAX));
        for _ in 0..size / 2 {
            let p = q.device_pop().unwrap();
            q.device_push_used(p);
        }
        assert_eq!(q.avail_pending() + q.used_pending(), size as usize);
        assert_eq!(q.driver_add(u32::MAX), Err(u32::MAX));
        assert_eq!(q.added_total(), size as u64);
        q.driver_take_used().unwrap();
        q.driver_add(size as u32).unwrap();
        assert_eq!(q.driver_add(u32::MAX), Err(u32::MAX));
    }

    #[test]
    fn fifo_order_survives_many_index_wraparounds() {
        // Cycle a small ring through several wraps of the free-running
        // u16 indices with uneven batches, so the storage's own head also
        // wraps at every offset: both halves stay FIFO throughout.
        let mut q = vq(true);
        let (mut next_add, mut next_pop, mut next_take) = (0u32, 0u32, 0u32);
        let mut batch = 1;
        while next_take < 3 * 65_536 + 5 {
            for _ in 0..q.num_free().min(batch) {
                q.driver_add(next_add).unwrap();
                next_add += 1;
            }
            for _ in 0..batch.div_ceil(2) {
                let Some(p) = q.device_pop() else { break };
                assert_eq!(p, next_pop);
                next_pop += 1;
                q.device_push_used(p);
            }
            while let Some(p) = q.driver_take_used() {
                assert_eq!(p, next_take);
                next_take += 1;
            }
            batch = batch % 8 + 1;
        }
        assert_eq!(q.num_free() as usize, 8 - q.avail_pending());
    }

    // ------------------------------------------------------------------
    // Guest trust boundary
    // ------------------------------------------------------------------

    #[test]
    fn valid_claims_clear_silently() {
        let mut q = vq(true);
        q.driver_add(1).unwrap();
        q.driver_add(2).unwrap();
        q.guest_publish_desc_index(7);
        assert_eq!(q.device_validate(), Ok(()));
        // Claimed idx anywhere in [cursor, cursor + outstanding] is fine.
        for claimed in 0..=2u16 {
            q.guest_publish_avail_idx(claimed);
            assert_eq!(q.device_validate(), Ok(()), "claimed={claimed}");
        }
        assert!(q.claim.is_none());
        assert!(!q.is_broken());
    }

    #[test]
    fn validate_without_claim_is_ok() {
        let mut q = vq(true);
        assert_eq!(q.device_validate(), Ok(()));
    }

    #[test]
    fn desc_index_out_of_range_is_caught() {
        let mut q = vq(true);
        q.guest_publish_desc_index(8); // size is 8, valid range 0..=7
        assert_eq!(
            q.device_validate(),
            Err(RingError::DescOutOfRange { index: 8, size: 8 })
        );
        // The claim is consumed either way.
        assert_eq!(q.device_validate(), Ok(()));
    }

    #[test]
    fn avail_idx_jump_and_regress_are_caught() {
        let mut q = vq(true);
        q.driver_add(1).unwrap();
        q.device_pop().unwrap(); // cursor = 1, nothing outstanding
        q.guest_publish_avail_idx(5);
        assert_eq!(
            q.device_validate(),
            Err(RingError::AvailIdxJump {
                claimed: 5,
                cursor: 1,
                window: 0
            })
        );
        q.guest_publish_avail_idx(0);
        assert_eq!(
            q.device_validate(),
            Err(RingError::AvailIdxRegress {
                claimed: 0,
                cursor: 1
            })
        );
    }

    #[test]
    fn avail_idx_wrap_at_u16_max_is_valid() {
        // Drive the free-running cursor to u16::MAX, then publish across
        // the wrap: the legitimate claim is 0 (= MAX + 1), and validation
        // must accept it while still rejecting a real jump.
        let mut q = vq(true);
        for i in 0..u16::MAX as u32 {
            q.driver_add(i).unwrap();
            let p = q.device_pop().unwrap();
            q.device_push_used(p);
            q.driver_take_used();
        }
        q.driver_add(0xFFFF).unwrap(); // avail_idx wraps MAX -> 0
        q.guest_publish_avail_idx(0);
        assert_eq!(q.device_validate(), Ok(()), "wrapped idx is legitimate");
        q.guest_publish_avail_idx(1);
        assert_eq!(
            q.device_validate(),
            Err(RingError::AvailIdxJump {
                claimed: 1,
                cursor: u16::MAX,
                window: 1
            }),
            "one past the wrapped window is a jump"
        );
    }

    #[test]
    fn chain_length_at_limit_passes_one_past_fails() {
        let mut q = vq(true); // size 8
        q.guest_publish_chain(0, 8, false);
        assert_eq!(q.device_validate(), Ok(()), "chain exactly at ring size");
        q.guest_publish_chain(0, 9, false);
        assert_eq!(
            q.device_validate(),
            Err(RingError::ChainTooLong { len: 9, max: 8 })
        );
    }

    #[test]
    fn self_referencing_descriptor_is_caught() {
        let mut q = vq(true);
        q.guest_publish_chain(3, 1, true);
        assert_eq!(
            q.device_validate(),
            Err(RingError::DescChainLoop { head: 3 })
        );
    }

    #[test]
    fn used_overflow_is_caught() {
        let mut q = vq(true);
        q.guest_claim_used_outstanding(8);
        assert_eq!(q.device_validate(), Ok(()), "at ring size is legal");
        q.guest_claim_used_outstanding(9);
        assert_eq!(
            q.device_validate(),
            Err(RingError::UsedOverflow {
                claimed: 9,
                size: 8
            })
        );
    }

    #[test]
    fn quarantine_then_reset_lifecycle() {
        let mut q = vq(true);
        for i in 0..4 {
            q.driver_add(i).unwrap();
        }
        let p = q.device_pop().unwrap();
        q.device_push_used(p);

        let dropped = q.quarantine();
        assert_eq!(dropped, 3, "pending avail entries drained");
        assert!(q.is_broken());
        assert!(q.needs_reset());
        assert_eq!(q.quarantine_count(), 1);

        // Broken queue refuses service on every path.
        assert!(
            q.driver_add(99).is_err(),
            "quarantined queue accepts nothing"
        );
        assert_eq!(q.device_pop(), None);
        assert!(
            !q.device_push_used(77),
            "completion swallowed, no interrupt"
        );

        // Guest performs the requested reset.
        assert!(q.guest_reset());
        assert!(!q.is_broken());
        assert!(!q.needs_reset());
        assert_eq!(q.reset_count(), 1);
        assert_eq!(q.num_free(), 8);
        assert_eq!(q.avail_pending(), 0);
        assert_eq!(q.used_pending(), 0);
        // Conservation counters restart so liveness equations hold.
        assert_eq!(q.added_total(), 0);
        assert_eq!(q.popped_total(), 0);
        assert_eq!(q.completed_total(), 0);
        assert_eq!(q.reclaimed_total(), 0);
        // Lifetime quarantine ledger survives the reset.
        assert_eq!(q.quarantine_count(), 1);

        // Full service resumes: first add kicks like a fresh queue.
        assert_eq!(q.driver_add(1).unwrap(), KickDecision::Kick);
        let p = q.device_pop().unwrap();
        assert!(q.device_push_used(p));
        assert_eq!(q.driver_take_used(), Some(1));
    }

    #[test]
    fn reset_without_request_is_refused() {
        let mut q = vq(true);
        q.driver_add(1).unwrap();
        assert!(!q.guest_reset(), "no reset requested");
        assert_eq!(q.avail_pending(), 1, "state untouched");
        assert_eq!(q.reset_count(), 0);
    }

    /// Everything in a ring but its payloads: indices, occupancy,
    /// suppression state and every counter.
    fn ledger<A, U>(q: &Virtqueue<A, U>) -> [u64; 22] {
        [
            q.num_free as u64,
            q.avail.len() as u64,
            q.used.len() as u64,
            q.avail_idx as u64,
            q.used_idx as u64,
            q.last_avail_idx as u64,
            q.last_used_idx as u64,
            q.used_flags_no_notify as u64,
            q.avail_flags_no_interrupt as u64,
            q.avail_event as u64,
            q.used_event as u64,
            q.kicks,
            q.interrupts,
            q.added,
            q.popped,
            q.completed,
            q.reclaimed,
            q.claim.is_some() as u64,
            q.broken as u64,
            q.needs_reset as u64,
            q.quarantines,
            q.resets,
        ]
    }

    proptest! {
        /// Conservation: every payload added is eventually either pending,
        /// used, reclaimed or dropped by a quarantine — never duplicated;
        /// free count mirrors in-flight count. The TX shape
        /// (`Virtqueue<u64, ()>`) and the RX shape (`Virtqueue<(), u64>`)
        /// run the same ops in lockstep with the full ring and must make
        /// the same kick and interrupt decisions and hold the same indices,
        /// flags and counters at every step: a payload-free half changes
        /// storage only.
        #[test]
        fn prop_descriptor_conservation(ops in proptest::collection::vec(0u8..7, 1..300)) {
            let cfg = VirtqueueConfig { size: 16, event_idx: true };
            let mut q: Virtqueue<u64> = Virtqueue::new(cfg);
            let mut tx: Virtqueue<u64, ()> = Virtqueue::new(cfg);
            let mut rx: Virtqueue<(), u64> = Virtqueue::new(cfg);
            let mut next_payload = 0u64;
            let mut added = 0u64;
            let mut reclaimed = 0u64;
            let mut dropped = 0u64;
            for op in ops {
                match op {
                    0 => {
                        let kick = q.driver_add(next_payload).ok();
                        prop_assert_eq!(tx.driver_add(next_payload).ok(), kick);
                        prop_assert_eq!(rx.driver_add(()).ok(), kick);
                        if kick.is_some() {
                            next_payload += 1;
                            added += 1;
                        }
                    }
                    1 => {
                        let p = q.device_pop();
                        prop_assert_eq!(tx.device_pop(), p);
                        prop_assert_eq!(rx.device_pop().is_some(), p.is_some());
                        if let Some(p) = p {
                            let interrupt = q.device_push_used(p);
                            prop_assert_eq!(tx.device_push_used(()), interrupt);
                            prop_assert_eq!(rx.device_push_used(p), interrupt);
                        }
                    }
                    2 => {
                        let p = q.driver_take_used();
                        prop_assert_eq!(tx.driver_take_used().is_some(), p.is_some());
                        prop_assert_eq!(rx.driver_take_used(), p);
                        if p.is_some() {
                            reclaimed += 1;
                        }
                    }
                    3 => {
                        // Random suppression toggles must not affect data flow.
                        if next_payload % 2 == 0 {
                            q.device_disable_notify();
                            tx.device_disable_notify();
                            rx.device_disable_notify();
                        } else {
                            let raced = q.device_enable_notify();
                            prop_assert_eq!(tx.device_enable_notify(), raced);
                            prop_assert_eq!(rx.device_enable_notify(), raced);
                        }
                    }
                    4 => {
                        if reclaimed % 2 == 0 {
                            q.driver_disable_interrupts();
                            tx.driver_disable_interrupts();
                            rx.driver_disable_interrupts();
                        } else {
                            let raced = q.driver_enable_interrupts();
                            prop_assert_eq!(tx.driver_enable_interrupts(), raced);
                            prop_assert_eq!(rx.driver_enable_interrupts(), raced);
                        }
                    }
                    5 => {
                        let drained = q.quarantine();
                        prop_assert_eq!(tx.quarantine(), drained);
                        prop_assert_eq!(rx.quarantine(), drained);
                        dropped += drained as u64;
                    }
                    _ => {
                        let reset = q.guest_reset();
                        prop_assert_eq!(tx.guest_reset(), reset);
                        prop_assert_eq!(rx.guest_reset(), reset);
                        if reset {
                            added = 0;
                            reclaimed = 0;
                            dropped = 0;
                        }
                    }
                }
                let in_flight = added - reclaimed;
                prop_assert_eq!(16 - q.num_free() as u64, in_flight);
                prop_assert_eq!(
                    q.avail_pending() as u64 + q.used_pending() as u64 + dropped,
                    in_flight
                );
                prop_assert_eq!(ledger(&tx), ledger(&q));
                prop_assert_eq!(ledger(&rx), ledger(&q));
            }
        }

        /// With EVENT_IDX and an attentive device (re-arming after each
        /// drain), every batch of adds produces exactly one kick.
        #[test]
        fn prop_one_kick_per_batch(batches in proptest::collection::vec(1usize..8, 1..20)) {
            let mut q: Virtqueue<u64> = Virtqueue::new(VirtqueueConfig { size: 256, event_idx: true });
            let mut payload = 0;
            for (i, &n) in batches.iter().enumerate() {
                let kicks_before = q.kick_count();
                for _ in 0..n {
                    q.driver_add(payload).unwrap();
                    payload += 1;
                }
                prop_assert_eq!(q.kick_count(), kicks_before + 1, "batch {} size {}", i, n);
                // Device drains and re-arms.
                while let Some(p) = q.device_pop() {
                    q.device_push_used(p);
                }
                while q.driver_take_used().is_some() {}
                prop_assert!(!q.device_enable_notify());
            }
        }

        /// `driver_add_n(n)` is `n` calls of `driver_add` in one step.
        /// Random prior traffic runs on a ring whose free-running indices
        /// start up to 47 steps before the u16 wrap, so many fills cross
        /// it. From there every fill from 0 to `num_free` (and one past
        /// it) is tried with kicks suppressed and armed, and with
        /// `avail_event` everywhere from a ring behind to a ring ahead of
        /// the avail index, and parked half the index space away: before,
        /// inside and after the filled range. The batch must leave the ring
        /// the one-by-one adds leave, return their kick count, and make the
        /// same decision on the next add; a refused batch changes nothing.
        #[test]
        fn prop_driver_add_n_matches_n_driver_adds(
            event_idx in any::<bool>(),
            lead in 0u16..48,
            ops in proptest::collection::vec(0u8..6, 0..40),
            quarantined in 0u8..4,
        ) {
            const SIZE: u16 = 16;
            let mut q: Virtqueue<u32> = Virtqueue::new(VirtqueueConfig { size: SIZE, event_idx });
            // The cursors of a ring that has already cycled `base` buffers
            // through and re-armed both events: every round trip moves
            // them in step.
            let base = lead.wrapping_neg();
            q.avail_idx = base;
            q.used_idx = base;
            q.last_avail_idx = base;
            q.last_used_idx = base;
            q.avail_event = base;
            q.used_event = base;
            let mut next = 0u32;
            for op in ops {
                match op {
                    0 | 1 => {
                        if q.driver_add(next).is_ok() {
                            next += 1;
                        }
                    }
                    2 => {
                        if let Some(p) = q.device_pop() {
                            q.device_push_used(p);
                        }
                    }
                    3 => {
                        q.driver_take_used();
                    }
                    4 => q.device_disable_notify(),
                    _ => {
                        q.device_enable_notify();
                    }
                }
            }
            if quarantined == 0 {
                q.quarantine();
            }
            let placements = (-i32::from(SIZE)..=i32::from(SIZE)).chain([0x8000]);
            for suppressed in [false, true] {
                for d in placements.clone() {
                    let mut start = q.clone();
                    start.used_flags_no_notify = suppressed;
                    start.avail_event = start.avail_idx.wrapping_add(d as u16);
                    for n in 0..=start.num_free() + 1 {
                        let mut one = start.clone();
                        let mut kicks = 0;
                        let mut refused = false;
                        for _ in 0..n {
                            match one.driver_add(7) {
                                Ok(KickDecision::Kick) => kicks += 1,
                                Ok(KickDecision::NoKick) => {}
                                Err(_) => refused = true,
                            }
                        }
                        let mut batch = start.clone();
                        match batch.driver_add_n(n, 7) {
                            Ok(k) => {
                                prop_assert!(!refused);
                                prop_assert_eq!(k, kicks, "n {} avail_event at {:+}", n, d);
                                prop_assert_eq!(ledger(&batch), ledger(&one));
                                prop_assert_eq!(&batch.avail, &one.avail);
                                prop_assert_eq!(batch.driver_add(8), one.driver_add(8));
                            }
                            Err(p) => {
                                prop_assert_eq!(p, 7);
                                prop_assert!(start.broken || n > start.num_free());
                                prop_assert_eq!(ledger(&batch), ledger(&start));
                                prop_assert_eq!(&batch.avail, &start.avail);
                            }
                        }
                    }
                }
            }
        }
    }
}
