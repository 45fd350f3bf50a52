//! Memaslap — the Memcached load generator (§VI-E1).
//!
//! *"We configured Memaslap [...] making 256 concurrent requests from 16
//! threads with a get/set ratio of 9:1."* A closed loop: 256 requests are
//! outstanding at all times; each response immediately triggers the next
//! request. Default memaslap sizing: 64-byte keys, 1024-byte values.

use es2_sim::SimRng;

/// A Memcached operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McOp {
    /// `get`: small request, value-sized response.
    Get,
    /// `set`: value-sized request, small response.
    Set,
}

/// Default key size (bytes).
pub(crate) const KEY_BYTES: u32 = 64;
/// Default value size (bytes).
pub(crate) const VALUE_BYTES: u32 = 1024;

impl McOp {
    /// Request payload bytes on the wire.
    pub fn request_bytes(self) -> u32 {
        match self {
            // "get <key>\r\n"
            McOp::Get => KEY_BYTES + 8,
            // "set <key> <flags> <exp> <len>\r\n<value>\r\n"
            McOp::Set => KEY_BYTES + VALUE_BYTES + 24,
        }
    }

    /// Response payload bytes on the wire.
    pub fn response_bytes(self) -> u32 {
        match self {
            // "VALUE <key> <flags> <len>\r\n<value>\r\nEND\r\n"
            McOp::Get => KEY_BYTES + VALUE_BYTES + 32,
            // "STORED\r\n"
            McOp::Set => 8,
        }
    }
}

/// The closed-loop memaslap client.
#[derive(Clone, Debug)]
pub struct MemaslapClient {
    concurrency: u32,
    get_ratio: f64,
    outstanding: u32,
    rng: SimRng,
}

impl MemaslapClient {
    /// The paper's configuration: 256 concurrent requests, 9:1 get/set.
    pub fn paper_config(seed: u64) -> Self {
        Self::new(256, 0.9, seed)
    }

    /// A custom configuration.
    pub(crate) fn new(concurrency: u32, get_ratio: f64, seed: u64) -> Self {
        assert!(concurrency > 0);
        assert!((0.0..=1.0).contains(&get_ratio));
        MemaslapClient {
            concurrency,
            get_ratio,
            outstanding: 0,
            rng: SimRng::new(seed),
        }
    }

    /// Draw the next operation type per the get/set ratio.
    fn draw_op(&mut self) -> McOp {
        if self.rng.gen_bool(self.get_ratio) {
            McOp::Get
        } else {
            McOp::Set
        }
    }

    /// Issue as many requests as the concurrency window allows (all 256 at
    /// start-up; one per completion afterwards). Returns the ops to send.
    pub fn issue(&mut self) -> Vec<McOp> {
        let n = self.concurrency - self.outstanding;
        self.outstanding = self.concurrency;
        (0..n).map(|_| self.draw_op()).collect()
    }

    /// A response arrived; the closed loop immediately wants the next
    /// request, which this returns.
    pub fn on_response(&mut self) -> McOp {
        debug_assert!(self.outstanding > 0);
        // Window slot freed and instantly reused.
        self.draw_op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_issue_fills_concurrency() {
        let mut c = MemaslapClient::paper_config(1);
        let burst = c.issue();
        assert_eq!(burst.len(), 256);
        assert!(c.issue().is_empty(), "window full");
    }

    #[test]
    fn closed_loop_keeps_window_full() {
        let mut c = MemaslapClient::new(4, 0.9, 2);
        let burst = c.issue();
        assert_eq!(burst.len(), 4);
        let next = c.on_response();
        // One slot freed, instantly refilled by `next`.
        let _ = next;
        assert!(c.issue().is_empty());
    }

    #[test]
    fn get_set_ratio_is_roughly_nine_to_one() {
        let mut c = MemaslapClient::paper_config(3);
        let mut gets = 0u32;
        let mut total = 0u32;
        for op in c.issue() {
            if op == McOp::Get {
                gets += 1;
            }
            total += 1;
        }
        for _ in 0..10_000 {
            let op = c.on_response();
            if op == McOp::Get {
                gets += 1;
            }
            total += 1;
        }
        let ratio = gets as f64 / total as f64;
        assert!((ratio - 0.9).abs() < 0.02, "ratio={ratio}");
    }

    #[test]
    fn op_sizes_are_asymmetric() {
        assert!(McOp::Get.request_bytes() < McOp::Get.response_bytes());
        assert!(McOp::Set.request_bytes() > McOp::Set.response_bytes());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = MemaslapClient::paper_config(9);
        let mut b = MemaslapClient::paper_config(9);
        assert_eq!(a.issue(), b.issue());
    }
}
