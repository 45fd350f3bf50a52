//! ApacheBench — the Apache web-server load generator (§VI-E2).
//!
//! *"We configured ApacheBench [...] repeatedly requesting 8KB static pages
//! from 16 concurrent threads."* Classic `ab` (no `-k`) opens a fresh TCP
//! connection per request, so each transaction is:
//!
//! ```text
//! SYN → SYN/ACK → ACK+GET → response (6 MSS segments for 8 KB) → FIN
//! ```
//!
//! A closed loop with 16 outstanding transactions.

/// Default static page size.
pub const PAGE_BYTES: u32 = 8192;
/// HTTP GET request size on the wire.
pub const REQUEST_BYTES: u32 = 120;

/// The closed-loop ApacheBench client.
#[derive(Clone, Debug)]
pub struct AbClient {
    concurrency: u32,
    outstanding: u32,
}

impl AbClient {
    /// The paper's configuration: 16 concurrent transactions (of
    /// [`PAGE_BYTES`] pages).
    pub fn paper_config() -> Self {
        Self::new(16)
    }

    /// A client keeping `concurrency` transactions outstanding.
    pub(crate) fn new(concurrency: u32) -> Self {
        assert!(concurrency > 0);
        AbClient {
            concurrency,
            outstanding: 0,
        }
    }

    /// Configured concurrency.
    pub fn concurrency(&self) -> u32 {
        self.concurrency
    }

    /// Number of new transactions to start right now (fills the window).
    pub fn issue(&mut self) -> u32 {
        let n = self.concurrency - self.outstanding;
        self.outstanding = self.concurrency;
        n
    }

    /// A transaction completed (full page received). The closed loop
    /// starts the next one immediately; returns `true` (always, for
    /// symmetry with rate-limited clients).
    pub fn on_complete(&mut self) -> bool {
        debug_assert!(self.outstanding > 0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_net::packet::segments_for;

    #[test]
    fn paper_page_is_six_segments() {
        assert_eq!(segments_for(PAGE_BYTES), 6);
    }

    #[test]
    fn window_fills_once() {
        let mut c = AbClient::paper_config();
        assert_eq!(c.issue(), 16);
        assert_eq!(c.issue(), 0);
    }

    #[test]
    fn closed_loop_counts() {
        let mut c = AbClient::new(2);
        c.issue();
        assert!(c.on_complete());
        assert!(c.on_complete());
        assert_eq!(c.issue(), 0, "each completion refills its own slot");
    }
}
