//! Process-global per-event-kind dispatch profile.
//!
//! The testbed's event loop (behind its `ev-profile` cargo feature) calls
//! [`record`] once per dispatched event with the event's kind index and
//! the wall-clock nanoseconds its handler took. Counters are relaxed
//! atomics so worker threads of a parallel sweep aggregate into one
//! process-wide profile without synchronizing the hot path.
//!
//! Profiling is observational only: it reads the monotonic clock and
//! bumps counters, so enabling the feature cannot change simulation
//! results — the contract `verify.sh` holds the default build to.
//! When the feature is off nothing in the simulator calls this module
//! and the cost is exactly zero.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on distinct event kinds, with headroom over the testbed's
/// kind table, which is checked against this bound at compile time.
pub const MAX_KINDS: usize = 64;

static COUNTS: [AtomicU64; MAX_KINDS] = [const { AtomicU64::new(0) }; MAX_KINDS];
static NANOS: [AtomicU64; MAX_KINDS] = [const { AtomicU64::new(0) }; MAX_KINDS];
static OVERFLOW: AtomicU64 = AtomicU64::new(0);

/// Record one dispatched event of kind `idx` whose handler ran `nanos`.
/// Kinds past [`MAX_KINDS`] cannot be attributed but are counted, so a
/// grown event enum shows up in the table instead of vanishing.
#[inline]
pub fn record(idx: usize, nanos: u64) {
    if idx < MAX_KINDS {
        COUNTS[idx].fetch_add(1, Ordering::Relaxed);
        NANOS[idx].fetch_add(nanos, Ordering::Relaxed);
    } else {
        OVERFLOW.fetch_add(1, Ordering::Relaxed);
    }
}

/// `(count, total_nanos)` per kind index, for the first `names.len()`
/// kinds.
pub fn snapshot(kinds: usize) -> Vec<(u64, u64)> {
    (0..kinds.min(MAX_KINDS))
        .map(|i| {
            (
                COUNTS[i].load(Ordering::Relaxed),
                NANOS[i].load(Ordering::Relaxed),
            )
        })
        .collect()
}

/// Events recorded with a kind index ≥ [`MAX_KINDS`] (unattributable).
pub fn overflow_count() -> u64 {
    OVERFLOW.load(Ordering::Relaxed)
}

/// Zero all counters (e.g. between a warmup sweep and a measured one).
pub fn reset() {
    for i in 0..MAX_KINDS {
        COUNTS[i].store(0, Ordering::Relaxed);
        NANOS[i].store(0, Ordering::Relaxed);
    }
    OVERFLOW.store(0, Ordering::Relaxed);
}

/// Render the profile as a table, hottest kind first. `names[i]` labels
/// kind index `i`; kinds with zero dispatches are omitted.
pub fn render(names: &[&str]) -> String {
    let snap = snapshot(names.len());
    let total_ns: u64 = snap.iter().map(|&(_, ns)| ns).sum();
    let mut rows: Vec<(usize, u64, u64)> = snap
        .iter()
        .enumerate()
        .filter(|&(_, &(c, _))| c > 0)
        .map(|(i, &(c, ns))| (i, c, ns))
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));

    let mut t = crate::Table::new(
        format!(
            "Event dispatch profile ({} events, {:.1} ms in handlers)",
            rows.iter().map(|r| r.1).sum::<u64>(),
            total_ns as f64 / 1e6
        ),
        &["kind", "count", "total ms", "ns/event", "% time"],
    );
    for (i, count, ns) in rows {
        t.row(&[
            names[i].to_string(),
            count.to_string(),
            format!("{:.2}", ns as f64 / 1e6),
            format!("{:.0}", ns as f64 / count as f64),
            format!("{:.1}", 100.0 * ns as f64 / total_ns.max(1) as f64),
        ]);
    }
    let overflow = overflow_count();
    let mut out = t.render();
    if overflow > 0 {
        out.push_str(&format!(
            "WARNING: {overflow} events had kind >= MAX_KINDS ({MAX_KINDS}) and were not attributed\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-global and other tests in this crate may
    // run concurrently, so assert on deltas of the overflow counter and
    // on kind indices no other test uses.
    #[test]
    fn out_of_range_kinds_are_counted_not_dropped() {
        let before = overflow_count();
        record(MAX_KINDS, 10);
        record(MAX_KINDS + 7, 10);
        assert_eq!(overflow_count() - before, 2);

        record(MAX_KINDS - 1, 10);
        assert_eq!(
            overflow_count() - before,
            2,
            "in-range records don't overflow"
        );

        let names: Vec<&str> = (0..MAX_KINDS).map(|_| "k").collect();
        let rendered = render(&names);
        assert!(
            rendered.contains("kind >= MAX_KINDS"),
            "overflow missing from table: {rendered}"
        );
    }
}
