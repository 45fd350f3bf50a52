//! A cheap ring-buffer event tracer.
//!
//! Tracing is a debugging aid for simulation logic: components record
//! `(time, tag, a, b)` tuples into a fixed-size ring; when an invariant trips
//! you dump the last N records. Recording is two stores and an index bump —
//! cheap enough to leave enabled in tests — and the whole tracer can be
//! disabled (the default), making `record` a no-op branch.

use crate::time::SimTime;

/// One trace record: an instant, a static tag, and two free-form operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TraceRecord {
    /// When the record was made.
    pub at: SimTime,
    /// A static label, e.g. `"vmexit"`, `"sched_in"`.
    pub tag: &'static str,
    /// First operand (component-defined meaning).
    pub a: u64,
    /// Second operand (component-defined meaning).
    pub b: u64,
}

/// A fixed-capacity ring buffer of `TraceRecord`s.
pub struct Tracer {
    /// Retained records; grows to `cap` as records arrive, then wraps.
    buf: Vec<TraceRecord>,
    cap: usize,
    head: usize,
    len: usize,
    enabled: bool,
    recorded_total: u64,
}

impl Tracer {
    /// A disabled tracer with the given capacity (rounded up to at least 1).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            buf: Vec::new(),
            cap: capacity.max(1),
            head: 0,
            len: 0,
            enabled: false,
            recorded_total: 0,
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record one event (no-op while disabled).
    #[inline]
    pub fn record(&mut self, at: SimTime, tag: &'static str, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        self.recorded_total += 1;
        let rec = TraceRecord { at, tag, a, b };
        if self.buf.len() < self.cap {
            self.buf.push(rec);
            self.len = self.buf.len();
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Records in chronological order (oldest retained first).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let cap = self.buf.len();
        let start = if self.len == cap { self.head } else { 0 };
        (0..self.len).map(move |i| &self.buf[(start + i) % cap.max(1)])
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total records ever made while enabled (including overwritten ones).
    pub fn recorded_total(&self) -> u64 {
        self.recorded_total
    }

    /// Render the retained records, one per line.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for r in self.iter() {
            s.push_str(&format!("{:?} {} a={} b={}\n", r.at, r.tag, r.a, r.b));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(4);
        tr.record(t(1), "x", 0, 0);
        assert!(tr.is_empty());
        assert_eq!(tr.recorded_total(), 0);
    }

    #[test]
    fn records_in_order_until_full() {
        let mut tr = Tracer::new(4);
        tr.set_enabled(true);
        for i in 0..3 {
            tr.record(t(i), "e", i, 0);
        }
        let tags: Vec<u64> = tr.iter().map(|r| r.a).collect();
        assert_eq!(tags, vec![0, 1, 2]);
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn wraps_and_keeps_most_recent() {
        let mut tr = Tracer::new(4);
        tr.set_enabled(true);
        for i in 0..10 {
            tr.record(t(i), "e", i, 0);
        }
        let got: Vec<u64> = tr.iter().map(|r| r.a).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        assert_eq!(tr.recorded_total(), 10);
    }

    #[test]
    fn fills_to_exact_capacity_without_wrapping() {
        let mut tr = Tracer::new(4);
        tr.set_enabled(true);
        for i in 0..4 {
            tr.record(t(i), "e", i, 0);
        }
        // Exactly at capacity: nothing overwritten yet.
        let got: Vec<u64> = tr.iter().map(|r| r.a).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.recorded_total(), 4);

        // One more record evicts exactly the oldest.
        tr.record(t(4), "e", 4, 0);
        let got: Vec<u64> = tr.iter().map(|r| r.a).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.recorded_total(), 5);
    }

    #[test]
    fn recorded_total_keeps_counting_across_many_wraps() {
        let mut tr = Tracer::new(3);
        tr.set_enabled(true);
        for i in 0..1000 {
            tr.record(t(i), "e", i, 0);
        }
        assert_eq!(tr.recorded_total(), 1000);
        assert_eq!(tr.len(), 3);
        let got: Vec<u64> = tr.iter().map(|r| r.a).collect();
        assert_eq!(got, vec![997, 998, 999]);
    }

    #[test]
    fn disable_midstream_freezes_ring_and_total() {
        let mut tr = Tracer::new(2);
        tr.set_enabled(true);
        tr.record(t(0), "e", 0, 0);
        tr.set_enabled(false);
        tr.record(t(1), "e", 1, 0);
        assert_eq!(tr.recorded_total(), 1);
        assert_eq!(tr.len(), 1);
        // Re-enabling resumes where the ring left off.
        tr.set_enabled(true);
        tr.record(t(2), "e", 2, 0);
        let got: Vec<u64> = tr.iter().map(|r| r.a).collect();
        assert_eq!(got, vec![0, 2]);
        assert_eq!(tr.recorded_total(), 2);
    }

    #[test]
    fn capacity_one_ring_keeps_only_the_newest() {
        let mut tr = Tracer::new(1);
        tr.set_enabled(true);
        for i in 0..5 {
            tr.record(t(i), "e", i, 0);
        }
        let got: Vec<u64> = tr.iter().map(|r| r.a).collect();
        assert_eq!(got, vec![4]);
        assert_eq!(tr.recorded_total(), 5);
    }

    #[test]
    fn dump_contains_tags() {
        let mut tr = Tracer::new(2);
        tr.set_enabled(true);
        tr.record(t(5), "vmexit", 1, 2);
        let s = tr.dump();
        assert!(s.contains("vmexit"), "{s}");
        assert!(s.contains("a=1"), "{s}");
    }
}
