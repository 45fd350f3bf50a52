//! Ping RTT probe (§VI-D2).
//!
//! *"we used Ping with one second interval to measure the round trip time
//! (RTT) from an external server to the tested VM."* The probe emits one
//! echo request per interval and records the RTT of each reply — the
//! series plotted in Fig. 7.

use es2_sim::{SimDuration, SimTime};

/// The external ping client.
#[derive(Clone, Debug)]
pub struct PingProbe {
    interval: SimDuration,
    next_seq: u64,
    outstanding: Vec<(u64, SimTime)>,
    rtts: Vec<(SimTime, SimDuration)>,
}

impl PingProbe {
    /// A probe sending every `interval` (the paper uses 1 s).
    pub fn new(interval: SimDuration) -> Self {
        PingProbe {
            interval,
            next_seq: 0,
            outstanding: Vec::new(),
            rtts: Vec::new(),
        }
    }

    /// The probe interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Emit the next echo request at `now`; returns its sequence number.
    pub fn send(&mut self, now: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding.push((seq, now));
        seq
    }

    /// An echo reply for `seq` arrived at `now`; records and returns the
    /// RTT, or `None` for an unknown/duplicate sequence.
    pub fn on_reply(&mut self, seq: u64, now: SimTime) -> Option<SimDuration> {
        let pos = self.outstanding.iter().position(|&(s, _)| s == seq)?;
        let (_, sent) = self.outstanding.swap_remove(pos);
        let rtt = now.since(sent);
        self.rtts.push((now, rtt));
        Some(rtt)
    }

    /// All recorded `(reply time, RTT)` samples.
    pub fn rtts(&self) -> &[(SimTime, SimDuration)] {
        &self.rtts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn rtt_round_trip() {
        let mut p = PingProbe::new(SimDuration::from_secs(1));
        let s = p.send(t(0));
        assert_eq!(p.outstanding.len(), 1);
        let rtt = p.on_reply(s, t(3)).unwrap();
        assert_eq!(rtt, SimDuration::from_millis(3));
        assert_eq!(p.outstanding.len(), 0);
        assert_eq!(p.rtts().len(), 1);
    }

    #[test]
    fn unknown_seq_ignored() {
        let mut p = PingProbe::new(SimDuration::from_secs(1));
        assert_eq!(p.on_reply(42, t(1)), None);
        let s = p.send(t(0));
        p.on_reply(s, t(1));
        assert_eq!(p.on_reply(s, t(2)), None, "duplicate reply");
    }

    #[test]
    fn stats() {
        let mut p = PingProbe::new(SimDuration::from_secs(1));
        for (send_ms, rtt_ms) in [(0u64, 1u64), (1000, 18), (2000, 2)] {
            let s = p.send(t(send_ms));
            p.on_reply(s, t(send_ms + rtt_ms));
        }
        assert_eq!(p.rtts()[1], (t(1018), SimDuration::from_millis(18)));
        assert_eq!(p.rtts().len(), 3);
    }

    #[test]
    fn sequences_are_unique_and_monotone() {
        let mut p = PingProbe::new(SimDuration::from_secs(1));
        let a = p.send(t(0));
        let b = p.send(t(1000));
        assert!(b > a);
    }
}
