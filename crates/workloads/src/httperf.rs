//! Httperf — open-loop connection-rate generator (§VI-E2, Fig. 9).
//!
//! *"we measured the average time spent establishing TCP connections, which
//! is a primary metric of I/O processing delay."* Unlike `ab`, httperf is
//! **open loop**: it initiates connections at a fixed rate regardless of
//! completions, so once the server saturates, the connection backlog — and
//! with it the measured connection time — grows sharply. The knee of that
//! curve is the figure's result.

use es2_sim::{SimDuration, SimRng, SimTime};

/// The httperf client for one rate point.
#[derive(Clone, Debug)]
pub struct HttperfClient {
    rate_per_sec: f64,
    rng: SimRng,
    next_conn_id: u64,
    started: Vec<(u64, SimTime)>,
}

impl HttperfClient {
    /// A client initiating `rate_per_sec` connections per second.
    pub fn new(rate_per_sec: f64, seed: u64) -> Self {
        assert!(rate_per_sec > 0.0);
        HttperfClient {
            rate_per_sec,
            rng: SimRng::new(seed),
            next_conn_id: 0,
            started: Vec::new(),
        }
    }

    /// Delay until the next connection attempt (exponential interarrival —
    /// httperf's `--rate` with small jitter; deterministic per seed).
    pub fn next_interarrival(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.gen_exp(1.0 / self.rate_per_sec))
    }

    /// Start a connection (SYN sent) at `now`; returns its id.
    pub fn start_connection(&mut self, now: SimTime) -> u64 {
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.started.push((id, now));
        id
    }

    /// The SYN/ACK for `id` arrived at `now` — the connection is
    /// established; returns the connection time.
    pub fn on_established(&mut self, id: u64, now: SimTime) -> Option<SimDuration> {
        let pos = self.started.iter().position(|&(c, _)| c == id)?;
        let (_, at) = self.started.swap_remove(pos);
        Some(now.since(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn interarrival_mean_matches_rate() {
        let mut c = HttperfClient::new(2000.0, 5);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| c.next_interarrival().as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.0005).abs() < 0.00003, "mean={mean}");
    }

    #[test]
    fn connection_time_measured() {
        let mut c = HttperfClient::new(100.0, 1);
        let id = c.start_connection(t(0));
        let d = c.on_established(id, t(750)).unwrap();
        assert_eq!(d, SimDuration::from_micros(750));
        assert!(c.started.is_empty(), "no longer pending");
    }

    #[test]
    fn open_loop_tracks_backlog() {
        let mut c = HttperfClient::new(100.0, 2);
        for i in 0..10 {
            c.start_connection(t(i * 10));
        }
        assert_eq!(c.started.len(), 10);
        assert_eq!(c.next_conn_id, 10);
        c.on_established(3, t(500));
        assert_eq!(c.started.len(), 9);
    }

    #[test]
    fn unknown_connection_ignored() {
        let mut c = HttperfClient::new(100.0, 3);
        assert_eq!(c.on_established(7, t(1)), None);
    }
}
