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
//! 3. **Interrupt-path costs** (kick IPI, injection, EOI exit) appear only
//!    on the emulated path; PI replaces them with a ~250 ns microcode
//!    sync. Scheduling latencies come from the CFS model, not from
//!    constants here.
//!
//! [`Params`] is the whole model: nothing that shapes a run is read
//! from the environment, so two runs with equal `Params` and seed
//! simulate the same system. (`ES2_THREADS` only sets how many sweep
//! runs go at once.)

use es2_hypervisor::ExitCosts;
use es2_sched::SchedParams;
use es2_sim::SimDuration;

use crate::workload::WorkloadSpec;

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

/// Per-VM vhost backpressure / overload control. All mechanisms charge
/// the misbehaving VM itself: throttled kicks are delivered late to *its*
/// queue, an exhausted service budget defers *its* poll work.
#[derive(Clone, Copy, Debug)]
pub struct BackpressureParams {
    /// Sustained guest-kick admission rate (kicks/sec) of the per-VM
    /// token bucket. Legitimate workloads kick at the worker's sleep/wake
    /// frequency (≈ thousands/sec), far below this; only a storm hits it.
    pub kick_rate: f64,
    /// Burst tolerance: kicks admitted back-to-back before the bucket
    /// starts deferring.
    pub kick_burst: u32,
    /// Requests the vhost worker will serve for one VM per service
    /// window before deferring the rest of its work.
    pub service_budget: u32,
    /// Length of one service-budget window.
    pub budget_window: SimDuration,
}

impl Default for BackpressureParams {
    fn default() -> Self {
        BackpressureParams {
            kick_rate: 50_000.0,
            kick_burst: 32,
            service_budget: 4096,
            budget_window: SimDuration::from_millis(1),
        }
    }
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
/// upfront from dedicated fault-injector streams forked after the nine
/// pre-existing ones).
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Churn arrivals to generate (each gets its own global VM slot
    /// appended after the static fleet).
    pub arrivals: u32,
    /// Workload each churn tenant runs once booted.
    pub spec: WorkloadSpec,
    /// When the first arrival lands, relative to run start.
    pub first_arrival: SimDuration,
    /// Scale of the heavy-tailed gap between consecutive arrivals.
    pub mean_interarrival: SimDuration,
    /// Scale of the heavy-tailed resident lifetime (boot → departure).
    pub mean_lifetime: SimDuration,
    /// Control-plane latency from a successful placement to the boot
    /// landing on the host.
    pub boot_delay: SimDuration,
    /// How long a partial boot (stuck mid-handshake) may sit before the
    /// control plane rolls it back and retries the arrival.
    pub boot_timeout: SimDuration,
    /// Placement attempts per arrival before it lands in the
    /// permanently-rejected ledger (first attempt + `max_retries`
    /// retries).
    pub max_retries: u32,
    /// Base retry backoff; attempt `k` waits `retry_backoff · 2^k` plus
    /// jitter.
    pub retry_backoff: SimDuration,
    /// Uniform jitter window added to each backoff (deterministic: drawn
    /// from the dedicated retry stream).
    pub retry_jitter: SimDuration,
    /// Maximum boots in flight per host; a host at this depth is skipped
    /// by placement even if it has slot capacity.
    pub pending_depth: u32,
    /// Host-utilization threshold (resident + pending over capacity) at
    /// or above which new boots on that host are deferred (brownout).
    pub brownout_util: f64,
    /// How long a brownout defers each affected boot; lifts
    /// deterministically after this hold.
    pub brownout_hold: SimDuration,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            arrivals: 8,
            spec: WorkloadSpec::Ping,
            first_arrival: SimDuration::from_millis(5),
            mean_interarrival: SimDuration::from_millis(4),
            mean_lifetime: SimDuration::from_millis(40),
            boot_delay: SimDuration::from_millis(1),
            boot_timeout: SimDuration::from_millis(4),
            max_retries: 4,
            retry_backoff: SimDuration::from_millis(1),
            retry_jitter: SimDuration::from_micros(200),
            pending_depth: 2,
            brownout_util: 0.9,
            brownout_hold: SimDuration::from_millis(2),
        }
    }
}

/// Full parameter set for a testbed run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Physical cores on the host (the paper's servers have 8).
    pub num_cores: u32,
    /// CFS parameters.
    pub sched: SchedParams,
    /// Upper bound of per-tick unaccounted host work charged to the
    /// running thread's vruntime (host interrupts, kworkers). Provides the
    /// natural drift that desynchronizes per-core scheduler rotations.
    pub sched_tick_noise: SimDuration,
    /// VM-exit cost model.
    pub costs: ExitCosts,
    /// Cost of a host context switch (added to the incoming thread).
    pub ctx_switch: SimDuration,
    /// Indirect cost of a VM exit on the guest: the cache/TLB pollution
    /// (§II-B "may cause serious cache pollution") charged to the first
    /// guest work item after re-entry. This is what makes the
    /// notification-mode guest path visibly slower than the polling-mode
    /// path *beyond* the direct exit cost.
    pub exit_cache_penalty: SimDuration,

    // ---- guest path lengths ----
    /// Guest per-message base cost for TCP send (syscall + TCP/IP stack).
    pub guest_tcp_msg: SimDuration,
    /// Guest per-datagram base cost for UDP send (syscall + UDP/IP stack).
    pub guest_udp_msg: SimDuration,
    /// Guest per-segment virtio TX enqueue cost.
    pub guest_tx_seg: SimDuration,
    /// Guest TX copy/checksum cost per KiB of payload.
    pub guest_tx_ns_per_kb: u64,
    /// Guest NAPI per-packet receive base cost.
    pub guest_rx_pkt: SimDuration,
    /// Guest RX processing cost per KiB of payload.
    pub guest_rx_ns_per_kb: u64,
    /// Guest interrupt handler entry/exit overhead.
    pub guest_irq_entry: SimDuration,
    /// Guest TX-completion cleanup handler body.
    pub guest_txclean: SimDuration,
    /// Guest memcached per-op service cost.
    pub serve_mc: SimDuration,
    /// Guest Apache cost to serve the 8 KB page (headers + 6 segments).
    pub serve_http_page: SimDuration,
    /// Guest Apache cost for httperf's small page.
    pub serve_http_small: SimDuration,
    /// Guest local-timer handler cost.
    pub guest_timer_work: SimDuration,
    /// Guest local-timer period (250 Hz).
    pub guest_timer_period: SimDuration,
    /// NAPI poll weight (packets per poll).
    pub napi_weight: u32,
    /// One in `burst_denom` sender app steps is a burst (softirq/socket
    /// batching): several messages produced back-to-back and exposed to
    /// the ring as one batch. Bursts are what first push a queue past the
    /// hybrid handler's quota and flip it into polling mode.
    pub burst_denom: u32,
    /// Minimum burst length (messages).
    pub burst_min: u32,
    /// Burst length spread: length is `burst_min + uniform(0..burst_span)`.
    pub burst_span: u32,
    /// Burn-script segment length (decision granularity of the lowest-prio
    /// guest CPU hog).
    pub burn_slice: SimDuration,

    // ---- vhost path lengths ----
    /// Worker overhead per handler turn (work-list pop, state load).
    pub vhost_dispatch: SimDuration,
    /// Extra overhead when a handler re-enters the work list after quota
    /// exhaustion — the "higher frequency of switching among the handlers
    /// in the back-end I/O thread" cost the paper weighs against the
    /// polling benefit when selecting the quota (§VI-B). Together with
    /// `vhost_dispatch` this is the `g` of the polling-persistence
    /// inequality `q* = g / (c_guest − c_vhost)`.
    pub vhost_requeue_gap: SimDuration,
    /// vhost TX per-packet base cost (tap sendmsg, host stack, doorbell).
    pub vhost_tx_base: SimDuration,
    /// vhost TX copy cost per KiB on the wire.
    pub vhost_tx_ns_per_kb: u64,
    /// vhost RX per-packet base cost (copy into guest buffers, used ring).
    pub vhost_rx_base: SimDuration,
    /// vhost RX copy cost per KiB.
    pub vhost_rx_ns_per_kb: u64,
    /// RX packets the rx handler moves per turn (vhost's own batching).
    pub vhost_rx_burst: u32,

    // ---- rings and queues ----
    /// Virtqueue size (vhost-net default 256).
    pub ring_size: u16,
    /// Host-side per-VM ingress backlog (NIC ring + socket backlog).
    /// Multi-queue devices get one backlog of this capacity per pair
    /// (each RX queue owns a NIC ring slice).
    pub host_backlog: usize,

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

    // ---- transport ----
    /// Guest-side TCP send window in segments (socket buffer over MSS).
    pub tcp_window: u32,
    /// External generator's TCP send window in segments (the bare-metal
    /// sender's auto-tuned socket buffer is large).
    pub ext_tcp_window: u32,
    /// Delayed-ACK flush timeout.
    pub delayed_ack_timeout: SimDuration,

    // ---- external server ----
    /// Per-packet processing on the (bare-metal) traffic generator.
    pub ext_pkt: SimDuration,

    // ---- device model ----
    /// Which virtual device serves the VMs (paravirtual vhost-net, or an
    /// SR-IOV virtual function for the §VII applicability experiments).
    pub device: DeviceKind,
    /// Host-side ISR cost for a legacy (non-VT-d-PI) assigned-device
    /// interrupt: the hypervisor fields the physical IRQ and converts it
    /// into a virtual-interrupt injection.
    pub sriov_host_isr: SimDuration,
    /// VF DMA + doorbell cost per packet on the assigned-device data path.
    pub sriov_dma: SimDuration,

    // ---- ablations ----
    /// Override the redirection engine's policies (None = the paper's
    /// least-loaded-sticky / offline-head). Used by the ablation benches.
    pub redirect_policies: Option<(es2_core::TargetPolicy, es2_core::OfflinePolicy)>,

    // ---- overload control (hostile-guest hardening) ----
    /// Per-VM kick throttle and vhost service budget (`None` = off, the
    /// default — existing runs stay byte-identical).
    pub backpressure: Option<BackpressureParams>,
    /// Delay between a queue quarantine (ring-validation violation) and
    /// the guest driver noticing the `DEVICE_NEEDS_RESET` analog and
    /// resetting the queue.
    pub quarantine_reset_delay: SimDuration,

    // ---- fault recovery (used only under an active fault plan) ----
    /// Liveness-watchdog scan period: how often stuck rings are re-kicked
    /// and lost device interrupts re-raised.
    pub watchdog_period: SimDuration,
    /// Guest-side TCP retransmission timeout.
    pub guest_rto: SimDuration,
    /// How often the guest RTO check runs.
    pub guest_rto_check: SimDuration,

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
            sched_tick_noise: SimDuration::from_micros(100),
            costs: ExitCosts::default(),
            ctx_switch: SimDuration::from_nanos(800),
            exit_cache_penalty: SimDuration::from_nanos(2500),

            guest_tcp_msg: SimDuration::from_nanos(6800),
            guest_udp_msg: SimDuration::from_nanos(6000),
            guest_tx_seg: SimDuration::from_nanos(300),
            guest_tx_ns_per_kb: 1000,
            guest_rx_pkt: SimDuration::from_nanos(1500),
            guest_rx_ns_per_kb: 300,
            guest_irq_entry: SimDuration::from_nanos(900),
            guest_txclean: SimDuration::from_nanos(1000),
            serve_mc: SimDuration::from_nanos(2500),
            serve_http_page: SimDuration::from_micros(12),
            serve_http_small: SimDuration::from_micros(450),
            guest_timer_work: SimDuration::from_nanos(1500),
            guest_timer_period: SimDuration::from_millis(4),
            napi_weight: 64,
            burst_denom: 24,
            burst_min: 4,
            burst_span: 8,
            burn_slice: SimDuration::from_micros(200),

            vhost_dispatch: SimDuration::from_nanos(1200),
            vhost_requeue_gap: SimDuration::from_nanos(9000),
            vhost_tx_base: SimDuration::from_nanos(4650),
            vhost_tx_ns_per_kb: 1100,
            vhost_rx_base: SimDuration::from_nanos(1800),
            vhost_rx_ns_per_kb: 800,
            vhost_rx_burst: 64,

            ring_size: 256,
            host_backlog: 512,

            queues_per_vm: 1,
            vhost_workers: 1,
            shard_policy: es2_virtio::ShardPolicy::Mux,

            tcp_window: 85,
            ext_tcp_window: 1000,
            delayed_ack_timeout: SimDuration::from_millis(40),

            ext_pkt: SimDuration::from_nanos(500),

            device: DeviceKind::Paravirtual,
            sriov_host_isr: SimDuration::from_nanos(1800),
            sriov_dma: SimDuration::from_nanos(900),

            redirect_policies: None,

            backpressure: None,
            quarantine_reset_delay: SimDuration::from_micros(100),

            watchdog_period: SimDuration::from_micros(500),
            guest_rto: SimDuration::from_millis(8),
            guest_rto_check: SimDuration::from_millis(5),

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

    /// Size-dependent cost helper: `base + ns_per_kb · bytes / 1024`.
    pub(crate) fn size_cost(base: SimDuration, ns_per_kb: u64, bytes: u32) -> SimDuration {
        base + SimDuration::from_nanos(ns_per_kb * bytes as u64 / 1024)
    }

    /// vhost TX cost for a frame of `bytes`.
    pub(crate) fn vhost_tx_cost(&self, bytes: u32) -> SimDuration {
        Self::size_cost(self.vhost_tx_base, self.vhost_tx_ns_per_kb, bytes)
    }

    /// vhost RX cost for a frame of `bytes`.
    pub(crate) fn vhost_rx_cost(&self, bytes: u32) -> SimDuration {
        Self::size_cost(self.vhost_rx_base, self.vhost_rx_ns_per_kb, bytes)
    }

    /// Guest TX path cost for one message of `payload` bytes in `segs`
    /// segments (excluding kick exits).
    pub(crate) fn guest_tx_cost(&self, tcp: bool, payload: u32, segs: u32) -> SimDuration {
        let base = if tcp {
            self.guest_tcp_msg
        } else {
            self.guest_udp_msg
        };
        Self::size_cost(
            base + self.guest_tx_seg * segs as u64,
            self.guest_tx_ns_per_kb,
            payload,
        )
    }

    /// Guest NAPI cost for one received frame.
    pub(crate) fn guest_rx_cost(&self, bytes: u32) -> SimDuration {
        Self::size_cost(self.guest_rx_pkt, self.guest_rx_ns_per_kb, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_hypervisor::ExitReason;

    #[test]
    fn defaults_are_sane() {
        let p = Params::default();
        assert_eq!(p.num_cores, 8);
        assert!(p.ring_size.is_power_of_two());
        assert!(p.tcp_window > 0 && (p.tcp_window as u16) < p.ring_size);
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
        let p = Params::default();
        for (tcp, payload) in [(false, 256u32), (true, 1024)] {
            let wire = payload + es2_net::packet::HEADER_BYTES;
            let c_g = p.guest_tx_cost(tcp, payload, 1).as_nanos() as f64;
            let c_v = p.vhost_tx_cost(wire).as_nanos() as f64;
            let delta = c_g - c_v;
            assert!(
                delta > 0.0,
                "vhost must out-pace the polling guest ({tcp}, {payload})"
            );
            // Effective per-cycle slack: dispatch overhead + the quota
            // requeue cooldown.
            let g = (p.vhost_dispatch + p.vhost_requeue_gap).as_nanos() as f64;
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
        let p = Params::default();
        let kick = p.costs.exit_cost(ExitReason::IoInstruction).as_nanos() as f64;
        for (tcp, payload) in [(false, 256u32), (true, 1024)] {
            let wire = payload + es2_net::packet::HEADER_BYTES;
            let c_g = p.guest_tx_cost(tcp, payload, 1).as_nanos() as f64 + kick;
            let c_v = p.vhost_tx_cost(wire).as_nanos() as f64;
            assert!(c_g > c_v * 1.3, "exit-laden path must trail vhost clearly");
        }
    }

    #[test]
    fn baseline_udp_operating_point_is_order_100k_exits() {
        let p = Params::default();
        let kick = p.costs.exit_cost(ExitReason::IoInstruction);
        let per_pkt = p.guest_tx_cost(false, 256, 1) + kick;
        let rate = 1e9 / per_pkt.as_nanos() as f64;
        assert!((80_000.0..250_000.0).contains(&rate), "rate={rate}");
    }

    #[test]
    fn size_cost_arithmetic() {
        let c = Params::size_cost(SimDuration::from_nanos(1000), 1024, 2048);
        assert_eq!(c, SimDuration::from_nanos(1000 + 2048));
    }
}
