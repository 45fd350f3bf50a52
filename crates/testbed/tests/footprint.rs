//! Heap footprint of a consolidated host, and heap traffic of the
//! telemetry recorder.
//!
//! A counting global allocator measures the live heap the `dense` shape
//! (128 httperf VMs × 2 vCPUs on one host) takes to build and to run.
//! Per-VM buffers are sized by occupancy, not by their logical bounds, and
//! each virtqueue half stores payloads only in the direction data flows
//! (the 256 posted RX buffers are bare descriptors), so building the host
//! takes about 0.6 MiB (~4.7 KiB per VM) and running it peaks at about
//! 1.4 MiB. A buffer that goes back to preallocating its bound (ring
//! size, backlog depth, histogram range), or a ring half that goes back
//! to storing placeholder packets (+1 MiB), trips the budgets below.
//!
//! It also counts the allocator calls the benchmark's `cell` shape makes
//! in `run()` with telemetry on and off. A window holds rows only for the
//! VMs that record in it, so telemetry adds about 0.65 calls for every
//! call the run makes without it (~460 to ~720). A recorder that goes
//! back to a zeroed row, with its own heap vectors, for each of a host's
//! 18 slots in every window adds ~16 (~11 300).
//!
//! The tests take turns on one lock, so no two share the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

use es2_core::{EventPathConfig, HybridParams};
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::{
    ChurnSpec, Cluster, ClusterSpec, Machine, Params, PlannedMove, Topology, WorkloadSpec,
};
use es2_workloads::NetperfSpec;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocator calls that hand out or grow a block.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

/// Hold the counters alone until the guard drops.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn grow(by: usize) {
    CALLS.fetch_add(1, Relaxed);
    let now = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs; the
// counters beside the calls are statistics and touch no memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            CALLS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const VMS: u32 = 128;
const VCPUS: u32 = 2;
const MIB: usize = 1 << 20;
/// Live-heap growth allowed across the constructor.
const BUILD_BUDGET: usize = MIB;
/// Peak live-heap growth allowed from before the constructor to the end
/// of the run.
const RUN_BUDGET: usize = 2 * MIB;

#[test]
fn dense_host_heap_stays_within_budget() {
    let _turn = serial();
    // The benchmark's `dense` windows.
    let params = Params {
        num_cores: VCPUS + VMS,
        warmup: SimDuration::from_millis(50),
        measure: SimDuration::from_millis(200),
        ..Params::default()
    };
    let topo = Topology {
        num_vms: VMS,
        vcpus_per_vm: VCPUS,
    };
    let specs = vec![WorkloadSpec::Httperf { rate: 200.0 }; VMS as usize];
    let per_vm = |bytes: usize| bytes / VMS as usize;
    for cfg in EventPathConfig::all_four(HybridParams::TCP_QUOTA) {
        let specs = specs.clone();
        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let m = Machine::with_specs_faulted(cfg, topo, specs, params, 1, FaultPlan::none());
        let built = LIVE.load(Relaxed).saturating_sub(before);
        assert!(
            built <= BUILD_BUDGET,
            "{}: building {VMS} VMs took {built} B of heap ({} B per VM), budget {BUILD_BUDGET} B",
            cfg.label(),
            per_vm(built),
        );
        let result = m.run();
        let peak = PEAK.load(Relaxed).saturating_sub(before);
        assert!(
            peak <= RUN_BUDGET,
            "{}: heap peaked {peak} B above the start ({} B per VM), budget {RUN_BUDGET} B",
            cfg.label(),
            per_vm(peak),
        );
        assert!(
            result.events_simulated > 0,
            "{}: the run did nothing",
            cfg.label()
        );
    }
}

/// Telemetry may at most double the allocator calls of the `cell` run.
const TELEMETRY_CALLS_PER_PLAIN_CALL: usize = 2;

/// The benchmark's `cell` job: 4 hosts of 3 VMs, 6 static TCP/ping VMs
/// and 12 churn arrivals, one migration aborted mid-copy, a host crash
/// halfway through the window, placement failures and stuck boots.
fn cell_spec(cfg: EventPathConfig, telemetry: bool) -> ClusterSpec {
    let (warmup, measure) = (SimDuration::from_millis(20), SimDuration::from_millis(80));
    let params = Params {
        warmup,
        measure,
        telemetry,
        ..Params::default()
    };
    let into_window =
        |frac: u64| SimDuration::from_nanos(warmup.as_nanos() + measure.as_nanos() / frac);
    let fleet = (0..6)
        .map(|i| match i % 2 {
            0 => WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
            _ => WorkloadSpec::Ping,
        })
        .collect();
    let mut spec = ClusterSpec::new(cfg, 1, fleet, 4, 3, params, 1);
    spec.plan = FaultPlan {
        churn_place_fail_p: 0.10,
        churn_boot_stall_p: 0.10,
        host_crash_mask: 0b1000,
        host_crash_at: into_window(2),
        migration_abort_nth: 1,
        ..FaultPlan::none()
    };
    spec.moves = vec![PlannedMove {
        vm: 0,
        to: 1,
        at: SimTime::ZERO + into_window(4),
    }];
    spec.churn = Some(ChurnSpec {
        arrivals: 12,
        mean_lifetime: SimDuration::from_millis(20),
    });
    spec
}

#[test]
fn telemetry_allocates_in_proportion_to_the_vms_that_record() {
    let _turn = serial();
    let calls_in_run = |spec: ClusterSpec| {
        let cell = Cluster::new(spec);
        let before = CALLS.load(Relaxed);
        drop(cell.run()); // frees count no calls
        CALLS.load(Relaxed) - before
    };
    for cfg in [
        EventPathConfig::baseline(),
        EventPathConfig::pi(),
        EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
    ] {
        let plain = calls_in_run(cell_spec(cfg, false));
        let on = calls_in_run(cell_spec(cfg, true));
        let added = on.saturating_sub(plain);
        assert!(
            added <= TELEMETRY_CALLS_PER_PLAIN_CALL * plain,
            "{}: telemetry added {added} allocator calls to the {plain} of the plain run",
            cfg.label(),
        );
    }
}
