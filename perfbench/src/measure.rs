//! Host-side measurement: process CPU time, peak memory, spans, digests
//! and order statistics. Linux only (`clock_gettime`, `/proc`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// CPU time (user + system) of the whole process, including threads
/// that have already exited, at nanosecond resolution.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) and the clock id is a constant every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib as f64 / 1024.0
}

/// A small dense number for the calling thread (span records).
pub fn thread_no() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static NO: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    NO.with(|n| *n)
}

/// FNV-1a, 64 bit: a digest that is stable across builds and releases.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// One timed interval recorded by the benchmark around a call into the
/// simulator. A span's self time is its length minus the part of it its
/// children cover.
pub struct Span {
    pub batch: usize,
    /// Job index within the workload; `None` for the batch span.
    pub job: Option<usize>,
    /// `batch`, `job`, `setup`, `run` or `check`.
    pub name: &'static str,
    pub thread: u64,
    pub start: Instant,
    pub end: Instant,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The median of `v` (which must not be empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() > t0);
        assert!(peak_rss_mib() > 0.0);
    }
}
