//! Parallel sweep executor.
//!
//! Experiment sweeps are embarrassingly parallel: each run is a pure
//! function of its `(config, params, seed)` spec, so independent runs can
//! execute on different OS threads with **bitwise identical** output to
//! the serial order — results are written into a slot per input index and
//! reassembled in order, never in completion order.
//!
//! Built on `std::thread::scope` with an atomic self-scheduling work
//! index (no external crates): each worker repeatedly claims the next
//! unclaimed spec until the list is exhausted, which balances load when
//! run times differ (e.g. a high-rate fig9 point vs. a low-rate one).
//!
//! Thread-count resolution, highest priority first:
//!
//! 1. a programmatic override via [`set_threads`],
//! 2. the `ES2_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `ES2_THREADS=1` (or `set_threads(Some(1))`) forces the fully serial
//! path — no threads are spawned at all, which is also the fallback when
//! there is only one input.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatic vhost-worker-count override; 0 means "unset".
static VHOST_WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the number of vhost workers each device's backend is
/// sharded into. `None` restores the default resolution (the
/// `ES2_VHOST_WORKERS` environment variable, then 1). Unlike the thread
/// count, this is a *model* parameter:
/// it changes how queue handlers are partitioned across backend
/// threads, so results are comparable only at equal worker counts. The
/// default of 1 is the legacy single-worker mux.
pub fn set_vhost_workers(n: Option<usize>) {
    VHOST_WORKER_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The number of vhost workers a device with `pairs` queue pairs runs:
/// the [`set_vhost_workers`] override, else `ES2_VHOST_WORKERS`, else 1
/// — clamped to the pair count (a worker must own at least one pair to
/// ever run).
pub fn effective_vhost_workers(pairs: usize) -> usize {
    let configured = match VHOST_WORKER_OVERRIDE.load(Ordering::SeqCst) {
        0 => env_vhost_workers(),
        n => n,
    };
    configured.clamp(1, pairs.max(1))
}

/// `ES2_VHOST_WORKERS` resolution, parsed once per process (same
/// rationale as [`env_threads`]).
fn env_vhost_workers() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| match std::env::var("ES2_VHOST_WORKERS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        Err(_) => 1,
    })
}

/// Override the number of worker threads [`sweep`] uses. `Some(1)` forces
/// serial execution; `None` restores the default resolution
/// (`ES2_THREADS` env var, then available parallelism).
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The number of worker threads [`sweep`] would use for `jobs` inputs.
pub fn effective_threads(jobs: usize) -> usize {
    let configured = match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => env_threads(),
        n => n,
    };
    configured.clamp(1, jobs.max(1))
}

/// `ES2_THREADS` / available-parallelism resolution, parsed once per
/// process: the flattened global sweeps resolve the thread count per
/// `sweep` call, and an env lookup + parse on each of those adds up.
/// The env var cannot change under a running process's feet anyway.
fn env_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| match std::env::var("ES2_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A pre-allocated, write-once result slot array.
///
/// Each index is written by exactly one worker (the one that claimed it
/// from the atomic work index) and read only after `thread::scope` joins
/// every worker, so no per-slot lock is needed: claim disjointness makes
/// the writes race-free and the scope join is the happens-before edge
/// that publishes them to the collecting thread.
struct Slots<R>(Vec<UnsafeCell<Option<R>>>);

// SAFETY: see the invariants above — disjoint writes (unique fetch_add
// claims), reads only after the writers have been joined.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// Store the result for slot `i`.
    ///
    /// SAFETY (caller): `i` must be claimed by exactly one worker, once.
    unsafe fn put(&self, i: usize, r: R) {
        *self.0[i].get() = Some(r);
    }

    fn into_results(self) -> impl Iterator<Item = R> {
        self.0.into_iter().map(|c| {
            c.into_inner()
                .expect("worker exited without storing a result")
        })
    }
}

/// Run `f` over every spec in `specs`, in parallel, returning results in
/// input order.
///
/// The output is guaranteed identical to `specs.iter().map(f).collect()`
/// — parallelism only changes wall-clock time, never results or their
/// order. `f` must therefore be pure with respect to its spec (true for
/// simulation runs, which are functions of `(config, params, seed)`).
pub fn sweep<T, R, F>(specs: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = effective_threads(specs.len());
    if threads <= 1 || specs.len() <= 1 {
        return specs.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots = Slots::new(specs.len());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let r = f(&specs[i]);
                // SAFETY: `i` came from a unique fetch_add claim, so no
                // other worker writes this slot; the scope join below
                // orders the write before any read.
                unsafe { slots.put(i, r) };
            });
        }
    });

    slots.into_results().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the global thread override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_come_back_in_input_order() {
        let specs: Vec<u64> = (0..64).collect();
        let out = sweep(&specs, |&x| x * x);
        assert_eq!(out, specs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let specs: Vec<u64> = (0..40).rev().collect();
        // Uneven per-item work so completion order differs from input order.
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let work = |&x: &u64| -> (u64, u64) {
            let mut acc = x;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        };
        set_threads(Some(1));
        let serial = sweep(&specs, work);
        set_threads(Some(8));
        let parallel = sweep(&specs, work);
        set_threads(None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(sweep(&empty, |&x| x).is_empty());
        assert_eq!(sweep(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn vhost_worker_override_caps_at_pair_count() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_vhost_workers(Some(4));
        assert_eq!(effective_vhost_workers(8), 4);
        assert_eq!(effective_vhost_workers(2), 2);
        assert_eq!(effective_vhost_workers(0), 1);
        set_vhost_workers(None);
        if std::env::var("ES2_VHOST_WORKERS").is_err() {
            // Default: the legacy single-worker mux.
            assert_eq!(effective_vhost_workers(8), 1);
        }
    }

    #[test]
    fn override_caps_at_job_count() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_threads(Some(64));
        assert_eq!(effective_threads(3), 3);
        assert_eq!(effective_threads(0), 1);
        set_threads(Some(1));
        assert_eq!(effective_threads(100), 1);
        set_threads(None);
    }
}
