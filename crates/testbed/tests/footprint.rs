//! Heap footprint of a consolidated host.
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
//! The file holds exactly one test, so no other test shares the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use es2_core::{EventPathConfig, HybridParams};
use es2_sim::{FaultPlan, SimDuration};
use es2_testbed::{Machine, Params, Topology, WorkloadSpec};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
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
