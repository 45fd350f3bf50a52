//! Window-based TCP flow model with delayed ACKs.
//!
//! The experiments run on a back-to-back 40 GbE LAN with microsecond RTTs
//! and effectively no loss, so TCP behaves as pure *ACK-clocked window flow
//! control*: the sender keeps at most `window` segments in flight, and the
//! receiver acknowledges every second segment (Linux delayed ACK). Two
//! consequences matter for the event path and are the reason this model
//! exists:
//!
//! * a *sender* receives a continuous stream of ingress ACKs — the virtual
//!   interrupts whose delivery path Baseline/PI/ES2 differ on;
//! * when interrupts are delayed (a descheduled vCPU), in-flight ACKs go
//!   unprocessed, the window drains, and the sender *stalls* — the
//!   mechanism behind intelligent interrupt redirection's throughput gain
//!   (§VI-D).

/// Sender-side window state (segment granularity).
#[derive(Clone, Debug)]
pub struct TcpFlow {
    window: u32,
    inflight: u32,
    sent_total: u64,
    acked_total: u64,
    // Receiver-side delayed-ACK state.
    ack_every: u32,
    unacked_rx: u32,
    received_total: u64,
}

impl TcpFlow {
    /// A flow with the given send window (in segments).
    ///
    /// Linux's default delayed-ACK policy acknowledges every 2nd segment.
    pub fn new(window: u32) -> Self {
        assert!(window > 0);
        TcpFlow {
            window,
            inflight: 0,
            sent_total: 0,
            acked_total: 0,
            ack_every: 2,
            unacked_rx: 0,
            received_total: 0,
        }
    }

    /// The configured window.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Segments currently unacknowledged.
    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// True if the window permits sending another segment.
    pub fn can_send(&self) -> bool {
        self.inflight < self.window
    }

    /// Record a segment handed to the device. Returns `false` if the
    /// window is exhausted — the caller must wait for ACKs.
    pub fn on_segment_sent(&mut self) -> bool {
        if !self.can_send() {
            return false;
        }
        self.inflight += 1;
        self.sent_total += 1;
        true
    }

    /// Process an ACK covering `segments` segments.
    pub fn on_ack_received(&mut self, segments: u32) {
        let covered = segments.min(self.inflight);
        self.inflight -= covered;
        self.acked_total += covered as u64;
    }

    // ---------------- receiver side ----------------

    /// Record an arriving data segment; returns `Some(covered)` when a
    /// (delayed) ACK must be emitted, covering `covered` segments.
    pub fn on_data_received(&mut self) -> Option<u32> {
        self.received_total += 1;
        self.unacked_rx += 1;
        if self.unacked_rx >= self.ack_every {
            let covered = self.unacked_rx;
            self.unacked_rx = 0;
            Some(covered)
        } else {
            None
        }
    }

    /// Delayed-ACK timer fired: flush any half-batch.
    pub fn flush_delayed_ack(&mut self) -> Option<u32> {
        if self.unacked_rx > 0 {
            let covered = self.unacked_rx;
            self.unacked_rx = 0;
            Some(covered)
        } else {
            None
        }
    }

    /// Segments sent over the flow's lifetime.
    pub fn sent_total(&self) -> u64 {
        self.sent_total
    }

    /// Segments acknowledged.
    pub fn acked_total(&self) -> u64 {
        self.acked_total
    }

    /// Segments received (receiver side).
    pub fn received_total(&self) -> u64 {
        self.received_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn window_limits_inflight() {
        let mut f = TcpFlow::new(4);
        for _ in 0..4 {
            assert!(f.on_segment_sent());
        }
        assert!(!f.can_send());
        assert!(!f.on_segment_sent());
        assert_eq!(f.inflight(), 4);
        assert_eq!(f.sent_total(), 4);
    }

    #[test]
    fn acks_reopen_window() {
        let mut f = TcpFlow::new(2);
        f.on_segment_sent();
        f.on_segment_sent();
        f.on_ack_received(2);
        assert_eq!(f.inflight(), 0);
        assert!(f.can_send());
        assert_eq!(f.acked_total(), 2);
    }

    #[test]
    fn ack_never_underflows_inflight() {
        let mut f = TcpFlow::new(2);
        f.on_segment_sent();
        f.on_ack_received(10); // spurious extra coverage
        assert_eq!(f.inflight(), 0);
        assert_eq!(f.acked_total(), 1);
    }

    #[test]
    fn delayed_ack_every_second_segment() {
        let mut f = TcpFlow::new(4);
        assert_eq!(f.on_data_received(), None);
        assert_eq!(f.on_data_received(), Some(2));
        assert_eq!(f.on_data_received(), None);
        assert_eq!(f.on_data_received(), Some(2));
        assert_eq!(f.received_total(), 4);
    }

    #[test]
    fn delayed_ack_timer_flushes_half_batch() {
        let mut f = TcpFlow::new(4);
        f.on_data_received();
        assert_eq!(f.flush_delayed_ack(), Some(1));
        assert_eq!(f.flush_delayed_ack(), None);
    }

    proptest! {
        /// Inflight never exceeds the window, and sent == acked + inflight.
        #[test]
        fn prop_window_invariant(
            window in 1u32..64,
            ops in proptest::collection::vec(any::<bool>(), 1..500)
        ) {
            let mut f = TcpFlow::new(window);
            for send in ops {
                if send {
                    f.on_segment_sent();
                } else {
                    f.on_ack_received(1);
                }
                prop_assert!(f.inflight() <= f.window());
                prop_assert_eq!(
                    f.sent_total(),
                    f.acked_total() + f.inflight() as u64
                );
            }
        }

        /// Receiver conservation: every received segment is covered by
        /// exactly one emitted ACK after a final flush.
        #[test]
        fn prop_ack_coverage(n in 1u64..500) {
            let mut f = TcpFlow::new(1);
            let mut covered = 0u64;
            for _ in 0..n {
                if let Some(c) = f.on_data_received() {
                    covered += c as u64;
                }
            }
            if let Some(c) = f.flush_delayed_ack() {
                covered += c as u64;
            }
            prop_assert_eq!(covered, n);
        }
    }
}
