//! Calibrated simulation parameters.
//!
//! All path lengths are end-to-end software costs on the simulated 2.3 GHz
//! Xeon (E5-4610 v2). They were calibrated so the **Baseline**
//! configuration reproduces the paper's absolute operating point for the
//! 1-vCPU micro tests (Table I / Fig. 4a / Fig. 5), and the behaviour of
//! the other configurations then *emerges* from the mechanisms rather than
//! being dialed in. Three relationships are load-bearing:
//!
//! 1. **vhost TX is marginally faster than the exit-free guest TX path**
//!    (`Δ = c_guest − c_vhost ≈ 0.25 µs`). A handler turn of quota `q`
//!    plus the per-turn dispatch gap `g` sees `(q·c_vhost + g)/c_guest`
//!    new requests; polling self-sustains iff that is ≥ `q`, i.e.
//!    `q ≲ g/Δ ≈ 8` — which is exactly the knee the paper's Fig. 4a
//!    selects (`quota = 8` for UDP, smaller for bursty TCP).
//! 2. **The exit-laden guest path is much slower than vhost** (the kick
//!    exit adds ~2.5 µs), so in notification mode vhost always catches up,
//!    re-arms notifications, sleeps — and every fresh burst pays a kick.
//!    This is the bistability that makes the hybrid scheme effective.
//! 3. **Interrupt-path costs** (kick IPI and its External Interrupt
//!    exit, EOI exit) appear only on the emulated path; PI replaces them
//!    with a ~250 ns microcode sync. Scheduling latencies come from the
//!    CFS model, not from constants here.
//!
//! The calibration is the constants below, one table fixed by the
//! build; [`Params`] holds only what a run varies. Those two and the
//! seed are the whole model: nothing that shapes a run is read from the
//! environment, so two runs with equal `Params` and seed simulate the
//! same system. (`ES2_THREADS` only sets how many sweep runs go at
//! once.) The exit costs (world switch, per-reason handling, IPI send,
//! PI notification) are constants of `es2_hypervisor::exit`.

use es2_sched::SchedParams;
use es2_sim::SimDuration;

// ---- host ----
/// Upper bound of per-tick unaccounted host work charged to the running
/// thread's vruntime (host interrupts, kworkers). Provides the natural
/// drift that desynchronizes per-core scheduler rotations.
pub(crate) const SCHED_TICK_NOISE: SimDuration = SimDuration::from_micros(100);
/// Cost of a host context switch (added to the incoming thread).
pub(crate) const CTX_SWITCH: SimDuration = SimDuration::from_nanos(800);
/// Indirect cost of a VM exit on the guest: the cache/TLB pollution
/// (§II-B "may cause serious cache pollution") charged to the first
/// guest work item after re-entry. This is what makes the
/// notification-mode guest path visibly slower than the polling-mode
/// path *beyond* the direct exit cost.
pub(crate) const EXIT_CACHE_PENALTY: SimDuration = SimDuration::from_nanos(2500);

// ---- guest path lengths ----
/// Guest per-message base cost for TCP send (syscall + TCP/IP stack).
const GUEST_TCP_MSG: SimDuration = SimDuration::from_nanos(6800);
/// Guest per-datagram base cost for UDP send (syscall + UDP/IP stack).
const GUEST_UDP_MSG: SimDuration = SimDuration::from_nanos(6000);
/// Guest per-segment virtio TX enqueue cost.
const GUEST_TX_SEG: SimDuration = SimDuration::from_nanos(300);
/// Guest TX copy/checksum cost per KiB of payload.
const GUEST_TX_NS_PER_KB: u64 = 1000;
/// Guest NAPI per-packet receive base cost.
const GUEST_RX_PKT: SimDuration = SimDuration::from_nanos(1500);
/// Guest RX processing cost per KiB of payload.
const GUEST_RX_NS_PER_KB: u64 = 300;
/// Guest interrupt handler entry/exit overhead.
pub(crate) const GUEST_IRQ_ENTRY: SimDuration = SimDuration::from_nanos(900);
/// Guest TX-completion cleanup handler body.
pub(crate) const GUEST_TXCLEAN: SimDuration = SimDuration::from_nanos(1000);
/// Guest memcached per-op service cost.
pub(crate) const SERVE_MC: SimDuration = SimDuration::from_nanos(2500);
/// Guest Apache cost to serve the 8 KB page (headers + 6 segments).
pub(crate) const SERVE_HTTP_PAGE: SimDuration = SimDuration::from_micros(12);
/// Guest Apache cost for httperf's small page.
pub(crate) const SERVE_HTTP_SMALL: SimDuration = SimDuration::from_micros(450);
/// Guest local-timer handler cost.
pub(crate) const GUEST_TIMER_WORK: SimDuration = SimDuration::from_nanos(1500);
/// Guest local-timer period (250 Hz).
pub(crate) const GUEST_TIMER_PERIOD: SimDuration = SimDuration::from_millis(4);
/// NAPI poll weight (packets per poll).
pub(crate) const NAPI_WEIGHT: u32 = 64;
/// One in `BURST_DENOM` sender app steps is a burst (softirq/socket
/// batching): several messages produced back-to-back and exposed to the
/// ring as one batch. Bursts are what first push a queue past the hybrid
/// handler's quota and flip it into polling mode.
pub(crate) const BURST_DENOM: u32 = 24;
/// Minimum burst length (messages).
pub(crate) const BURST_MIN: u32 = 4;
/// Burst length spread: length is `BURST_MIN + uniform(0..=BURST_SPAN)`.
pub(crate) const BURST_SPAN: u32 = 8;
/// Burn-script segment length (decision granularity of the lowest-prio
/// guest CPU hog).
pub(crate) const BURN_SLICE: SimDuration = SimDuration::from_micros(200);

// ---- vhost path lengths ----
/// Worker overhead per handler turn (work-list pop, state load).
pub(crate) const VHOST_DISPATCH: SimDuration = SimDuration::from_nanos(1200);
/// Extra overhead when a handler re-enters the work list after quota
/// exhaustion — the "higher frequency of switching among the handlers in
/// the back-end I/O thread" cost the paper weighs against the polling
/// benefit when selecting the quota (§VI-B). Together with
/// `VHOST_DISPATCH` this is the `g` of the polling-persistence
/// inequality `q* = g / (c_guest − c_vhost)`.
pub(crate) const VHOST_REQUEUE_GAP: SimDuration = SimDuration::from_nanos(9000);
/// vhost TX per-packet base cost (tap sendmsg, host stack, doorbell).
const VHOST_TX_BASE: SimDuration = SimDuration::from_nanos(4650);
/// vhost TX copy cost per KiB on the wire.
const VHOST_TX_NS_PER_KB: u64 = 1100;
/// vhost RX per-packet base cost (copy into guest buffers, used ring).
const VHOST_RX_BASE: SimDuration = SimDuration::from_nanos(1800);
/// vhost RX copy cost per KiB.
const VHOST_RX_NS_PER_KB: u64 = 800;
/// RX packets the rx handler moves per turn (vhost's own batching).
pub(crate) const VHOST_RX_BURST: u32 = 64;

// ---- rings and queues ----
/// Virtqueue size (vhost-net default 256).
pub(crate) const RING_SIZE: u16 = 256;
/// Host-side per-VM ingress backlog (NIC ring + socket backlog).
/// Multi-queue devices get one backlog of this capacity per pair (each
/// RX queue owns a NIC ring slice).
pub(crate) const HOST_BACKLOG: usize = 512;

// ---- transport ----
/// Guest-side TCP send window in segments (socket buffer over MSS).
pub(crate) const TCP_WINDOW: u32 = 85;
/// External generator's TCP send window in segments (the bare-metal
/// sender's auto-tuned socket buffer is large).
pub(crate) const EXT_TCP_WINDOW: u32 = 1000;
/// Delayed-ACK flush timeout.
pub(crate) const DELAYED_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);
/// Per-packet processing on the (bare-metal) traffic generator.
pub(crate) const EXT_PKT: SimDuration = SimDuration::from_nanos(500);

// ---- assigned device (§VII) ----
/// Host-side ISR cost for a legacy (non-VT-d-PI) assigned-device
/// interrupt: the hypervisor fields the physical IRQ and converts it
/// into a virtual-interrupt injection.
pub(crate) const SRIOV_HOST_ISR: SimDuration = SimDuration::from_nanos(1800);
/// VF DMA + doorbell cost per packet on the assigned-device data path.
pub(crate) const SRIOV_DMA: SimDuration = SimDuration::from_nanos(900);

// ---- kick throttle (only when `Params::backpressure` is on) ----
/// Sustained guest-kick admission rate (kicks/sec) of each queue's token
/// bucket. Legitimate workloads kick at the worker's sleep/wake frequency
/// (≈ thousands/sec), far below this; only a storm hits it.
pub(crate) const KICK_RATE: f64 = 50_000.0;
/// Burst tolerance: kicks admitted back-to-back before the bucket starts
/// deferring.
pub(crate) const KICK_BURST: u32 = 32;

// ---- fault recovery (used only under an active fault plan) ----
/// Liveness-watchdog scan period: how often stuck rings are re-kicked
/// and lost device interrupts re-raised.
pub(crate) const WATCHDOG_PERIOD: SimDuration = SimDuration::from_micros(500);
/// Guest-side TCP retransmission timeout.
pub(crate) const GUEST_RTO: SimDuration = SimDuration::from_millis(8);
/// How often the guest RTO check runs.
pub(crate) const GUEST_RTO_CHECK: SimDuration = SimDuration::from_millis(5);

// `Virtqueue::new` takes only a power-of-two ring size (virtio split
// rings), and a full guest TCP window fits in one TX ring.
const _: () = assert!(RING_SIZE.is_power_of_two());
const _: () = assert!(TCP_WINDOW > 0 && TCP_WINDOW < RING_SIZE as u32);

/// Size-dependent cost helper: `base + ns_per_kb · bytes / 1024`.
fn size_cost(base: SimDuration, ns_per_kb: u64, bytes: u32) -> SimDuration {
    base + SimDuration::from_nanos(ns_per_kb * bytes as u64 / 1024)
}

/// vhost TX cost for a frame of `bytes`.
pub(crate) fn vhost_tx_cost(bytes: u32) -> SimDuration {
    size_cost(VHOST_TX_BASE, VHOST_TX_NS_PER_KB, bytes)
}

/// vhost RX cost for a frame of `bytes`.
pub(crate) fn vhost_rx_cost(bytes: u32) -> SimDuration {
    size_cost(VHOST_RX_BASE, VHOST_RX_NS_PER_KB, bytes)
}

/// Guest TX path cost for one message of `payload` bytes in `segs`
/// segments (excluding kick exits).
pub(crate) fn guest_tx_cost(tcp: bool, payload: u32, segs: u32) -> SimDuration {
    let base = if tcp { GUEST_TCP_MSG } else { GUEST_UDP_MSG };
    size_cost(
        base + GUEST_TX_SEG * segs as u64,
        GUEST_TX_NS_PER_KB,
        payload,
    )
}

/// Guest NAPI cost for one received frame.
pub(crate) fn guest_rx_cost(bytes: u32) -> SimDuration {
    size_cost(GUEST_RX_PKT, GUEST_RX_NS_PER_KB, bytes)
}

/// The device model serving the VMs.
///
/// The paper's design is paravirtual (virtio/vhost); §VII argues the same
/// two optimizations apply to direct device assignment (SR-IOV), where the
/// data path already bypasses the hypervisor and only the interrupt path
/// remains: legacy assignment still takes hypervisor interventions per
/// interrupt, VT-d posted interrupts remove them, and intelligent
/// redirection then removes the vCPU-scheduling latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// virtio + vhost-net (the paper's main model).
    Paravirtual,
    /// An SR-IOV virtual function assigned to the VM (§VII).
    AssignedVf,
}

/// Tenant-churn control plane for a cluster run: a deterministic VM
/// lifecycle engine that drives arrival/departure streams into the
/// best-fit admission path mid-run.
///
/// Embedded in `ClusterSpec` as `Option<ChurnSpec>` with the same
/// contract as every other optional subsystem: `None` (the default)
/// means churn is off, the churn RNG streams are never drawn from, and
/// the run is byte-identical to a pre-churn cluster. Inter-arrival gaps
/// and resident lifetimes are heavy-tailed (bounded Pareto, drawn
/// upfront from dedicated fault-injector streams forked after every
/// other one). The tenant workload, arrival timing scale, boot and
/// retry timing, pending depth and brownout threshold are constants of
/// the control plane (see the churn module).
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Churn arrivals to generate (each gets its own global VM slot
    /// appended after the static fleet).
    pub arrivals: u32,
    /// Scale of the heavy-tailed resident lifetime (boot → departure).
    pub mean_lifetime: SimDuration,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            arrivals: 8,
            mean_lifetime: SimDuration::from_millis(40),
        }
    }
}

/// What a testbed run varies; the calibration is the module's constants.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Physical cores on the host (the paper's servers have 8).
    pub num_cores: u32,
    /// CFS parameters.
    pub sched: SchedParams,

    // ---- multi-queue virtio ----
    /// TX/RX virtqueue pairs per VM (virtio-net multiqueue; one pair
    /// per vCPU is the canonical setting). 1 = the legacy
    /// single-queue device, byte-identical to pre-multi-queue runs.
    pub queues_per_vm: u32,
    /// vhost workers per VM's backend (default 1, the legacy
    /// single-worker mux). A model parameter like the others: results
    /// compare only at equal worker counts.
    pub vhost_workers: u32,
    /// How queue pairs are assigned to workers.
    pub shard_policy: es2_virtio::ShardPolicy,

    // ---- device model ----
    /// Which virtual device serves the VMs (paravirtual vhost-net, or an
    /// SR-IOV virtual function for the §VII applicability experiments).
    pub device: DeviceKind,

    // ---- ablations ----
    /// Override the redirection engine's policies (None = the paper's
    /// least-loaded-sticky / offline-head). Used by the ablation benches.
    pub redirect_policies: Option<(es2_core::TargetPolicy, es2_core::OfflinePolicy)>,

    // ---- overload control (hostile-guest hardening) ----
    /// Per-queue kick throttle (`KICK_RATE` 50 000 kicks/s, `KICK_BURST`
    /// 32): a throttled kick is delivered late to the misbehaving VM's
    /// own queue. Off by default.
    pub backpressure: bool,
    /// Delay between a queue quarantine (ring-validation violation) and
    /// the guest driver noticing the `DEVICE_NEEDS_RESET` analog and
    /// resetting the queue.
    pub quarantine_reset_delay: SimDuration,

    // ---- measurement ----
    /// Warm-up before counters open.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,

    // ---- observability ----
    /// Enable the event-path flight recorder (`es2_metrics::span`):
    /// correlation-ID spans with per-stage latency histograms, returned
    /// in `RunResult::spans`. Observational and sim-time only — a traced
    /// run's figures are bitwise identical to an untraced run's
    /// (`repro selfcheck` compares exactly that).
    pub trace: bool,
    /// Capacity of the flight recorder's bounded Chrome-trace event log
    /// (0 = stage histograms only, no event log).
    pub trace_events: u32,
    /// Enable the windowed telemetry pipeline
    /// (`es2_metrics::telemetry`): 1 ms sim-time windows of
    /// per-VM/per-queue/per-worker gauges plus the causal annotation
    /// stream, returned in `RunResult::telemetry`. Observational and
    /// sim-time only — a telemetered run's figures are bitwise
    /// identical to an untelemetered run's (`repro selfcheck`
    /// compares exactly that).
    pub telemetry: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            num_cores: 8,
            sched: SchedParams::default(),

            queues_per_vm: 1,
            vhost_workers: 1,
            shard_policy: es2_virtio::ShardPolicy::Mux,

            device: DeviceKind::Paravirtual,

            redirect_policies: None,

            backpressure: false,
            quarantine_reset_delay: SimDuration::from_micros(100),

            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_secs(1),

            trace: false,
            trace_events: 0,
            telemetry: false,
        }
    }
}

impl Params {
    /// Shorter warm-up/measurement for fast unit tests.
    pub fn fast_test() -> Self {
        Params {
            warmup: SimDuration::from_millis(50),
            measure: SimDuration::from_millis(300),
            ..Params::default()
        }
    }

    /// The vhost worker count a device runs: `vhost_workers` clamped
    /// to `[1, pairs]`, so every worker owns at least one potential pair.
    pub fn effective_vhost_workers(&self) -> usize {
        let pairs = self.queues_per_vm.max(1) as usize;
        (self.vhost_workers as usize).clamp(1, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_hypervisor::{exit_cost, ExitReason};

    #[test]
    fn defaults_are_sane() {
        let p = Params::default();
        assert_eq!(p.num_cores, 8);
        assert!(p.warmup < p.measure);
        // Multi-queue defaults are the legacy single-queue mux device.
        assert_eq!(p.queues_per_vm, 1);
        assert_eq!(p.vhost_workers, 1);
        assert_eq!(p.shard_policy, es2_virtio::ShardPolicy::Mux);
    }

    #[test]
    fn worker_resolution_clamps_to_pair_count() {
        let mut p = Params {
            queues_per_vm: 2,
            vhost_workers: 4,
            ..Params::default()
        };
        assert_eq!(p.effective_vhost_workers(), 2, "worker per pair at most");
        p.vhost_workers = 1;
        assert_eq!(p.effective_vhost_workers(), 1);
        p.queues_per_vm = 8;
        p.vhost_workers = 3;
        assert_eq!(p.effective_vhost_workers(), 3);
        p.vhost_workers = 0;
        assert_eq!(p.effective_vhost_workers(), 1, "a worker at least");
    }

    #[test]
    fn vhost_is_marginally_faster_than_polling_guest() {
        // Relationship 1: 0 < Δ = c_guest − c_vhost, small enough that the
        // dispatch gap sustains polling at the paper's quotas.
        for (tcp, payload) in [(false, 256u32), (true, 1024)] {
            let wire = payload + es2_net::packet::HEADER_BYTES;
            let c_g = guest_tx_cost(tcp, payload, 1).as_nanos() as f64;
            let c_v = vhost_tx_cost(wire).as_nanos() as f64;
            let delta = c_g - c_v;
            assert!(
                delta > 0.0,
                "vhost must out-pace the polling guest ({tcp}, {payload})"
            );
            // Effective per-cycle slack: dispatch overhead + the quota
            // requeue cooldown.
            let g = (VHOST_DISPATCH + VHOST_REQUEUE_GAP).as_nanos() as f64;
            let q_star = g / delta;
            assert!(
                (2.0..24.0).contains(&q_star),
                "polling knee q*={q_star} should bracket the paper's quotas"
            );
        }
    }

    #[test]
    fn notification_mode_guest_is_much_slower_than_vhost() {
        // Relationship 2: with kick exits the guest falls behind, vhost
        // drains and sleeps, and kicks sustain themselves.
        let kick = exit_cost(ExitReason::IoInstruction).as_nanos() as f64;
        for (tcp, payload) in [(false, 256u32), (true, 1024)] {
            let wire = payload + es2_net::packet::HEADER_BYTES;
            let c_g = guest_tx_cost(tcp, payload, 1).as_nanos() as f64 + kick;
            let c_v = vhost_tx_cost(wire).as_nanos() as f64;
            assert!(c_g > c_v * 1.3, "exit-laden path must trail vhost clearly");
        }
    }

    #[test]
    fn baseline_udp_operating_point_is_order_100k_exits() {
        let kick = exit_cost(ExitReason::IoInstruction);
        let per_pkt = guest_tx_cost(false, 256, 1) + kick;
        let rate = 1e9 / per_pkt.as_nanos() as f64;
        assert!((80_000.0..250_000.0).contains(&rate), "rate={rate}");
    }

    #[test]
    fn size_cost_arithmetic() {
        let c = size_cost(SimDuration::from_nanos(1000), 1024, 2048);
        assert_eq!(c, SimDuration::from_nanos(1000 + 2048));
    }
}
