//! Run results: the measurements the paper reports.

use es2_hypervisor::{ExitReason, ExitStats};
use es2_sim::{SimDuration, SimTime};
use es2_workloads::NetperfProto;

use crate::machine::Machine;
use crate::workload::{ExtWl, GuestWl, WorkloadSpec};

/// Everything a single testbed run measured (for VM 0, the tested VM).
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Configuration label ("Baseline", "PI", ...).
    pub config: &'static str,
    /// The tested VM's exit counts per reason, lifetime and windowed.
    pub exits: ExitStats,
    /// Mean time-in-guest percentage across the tested VM's vCPUs.
    pub tig_percent: f64,
    /// Measurement window length.
    pub window: SimDuration,
    /// Delivered goodput in Gb/s (netperf workloads).
    pub goodput_gbps: f64,
    /// Application operations per second (memcached ops / apache
    /// transactions).
    pub ops_per_sec: f64,
    /// Mean connection-establishment time in ms (httperf).
    pub mean_conn_time_ms: f64,
    /// Connections established in the window (httperf).
    pub conns_established: u64,
    /// Ping RTT samples: (reply time in seconds, RTT in ms).
    pub rtt_series: Vec<(f64, f64)>,
    /// Guest kicks performed (TX queue, lifetime).
    pub kicks_total: u64,
    /// Virtual interrupts the device raised (RX queue, lifetime).
    pub rx_interrupts_total: u64,
    /// Interrupts redirected by ES2 (lifetime; 0 without redirection).
    pub redirections: u64,
    /// Offline-list predictions used (no online vCPU available).
    pub offline_predictions: u64,
    /// Ingress packets tail-dropped at the host backlog.
    pub backlog_drops: u64,
    /// Host context switches across all cores.
    pub host_ctx_switches: u64,
    /// Mode switches of the TX hybrid handler into polling.
    pub polling_entries: u64,
    /// Interrupts parked on offline vCPUs (offline-list prediction).
    pub parked_irqs: u64,
    /// Parked interrupts migrated to a sibling that came online sooner.
    pub migrated_irqs: u64,
    /// Mean one-way latency from packet creation (external host or guest)
    /// to guest NAPI consumption inside the window, in microseconds.
    pub mean_rx_latency_us: f64,
    /// Maximum one-way receive latency inside the window, in
    /// microseconds.
    pub max_rx_latency_us: f64,
    /// Total events the run pushed through the simulation queue
    /// (lifetime; the denominator for events/sec perf reporting).
    pub events_simulated: u64,
    /// Faults the plan actually injected over this run (all zeros for the
    /// empty plan).
    pub fault_stats: es2_sim::FaultStats,
    /// Per-VM interrupt delivery-mode counts (posted vs emulated
    /// deliveries and degradation events, lifetime — the
    /// graceful-degradation audit trail).
    pub modes: es2_metrics::ModeAccounting,
    /// Lost kicks re-issued by the liveness watchdog (tested VM).
    pub watchdog_rekicks: u64,
    /// Lost device interrupts re-raised by the watchdog (tested VM).
    pub watchdog_reraises: u64,
    /// Guest-side TCP retransmission timeouts fired (tested VM).
    pub guest_rtos: u64,
    /// Flight-recorder report (`Some` iff `Params::trace` was set):
    /// per-VM per-stage latency histograms, lifecycle notes, and the
    /// bounded Chrome-trace event log.
    pub spans: Option<es2_metrics::SpanReport>,
    /// Backpressure/containment ledger summed across every VM: throttled
    /// kicks, storm absorption, quarantines and resets.
    pub backpressure: es2_metrics::BackpressureStats,
    /// The same ledger broken out per VM (index = VM id) — the
    /// blast-radius evidence that only the hostile VM paid.
    pub backpressure_per_vm: Vec<es2_metrics::BackpressureStats>,
    /// Per-VM p99 one-way receive latency inside the window, in
    /// microseconds (0 for VMs that received nothing).
    pub rx_p99_us_per_vm: Vec<u64>,
    /// Queue quarantine episodes across all VMs (tx + rx, lifetime).
    pub quarantines_total: u64,
    /// Guest-initiated queue resets across all VMs (tx + rx, lifetime).
    pub queue_resets_total: u64,
    /// Slots torn down and reclaimed on this host (departures and
    /// boot-timeout rollbacks; 0 on single-host or churn-off runs).
    pub reclaimed_slots: u32,
    /// Device interrupts (TX-clean + RX, no timers) handled per vCPU of
    /// the tested VM — evidence of per-queue MSI steering.
    pub device_irqs_per_vcpu: Vec<u64>,
    /// Deepest backlog each of the tested VM's vhost workers ever
    /// carried (lifetime high-water mark, index = worker).
    pub vhost_pending_hwm_per_worker: Vec<u64>,
    /// Windowed telemetry report (`Some` iff `Params::telemetry` was
    /// set): per-window gauges, causal annotations, and the SLO surface.
    pub telemetry: Option<es2_metrics::TelemetryReport>,
}

impl RunResult {
    /// Exits per second for one cause.
    pub fn rate(&self, reason: ExitReason) -> f64 {
        self.exits.rate(reason)
    }

    /// Total exits per second.
    pub fn total_exit_rate(&self) -> f64 {
        self.exits.total_rate()
    }

    /// I/O-instruction exits per second (the Fig. 4 metric).
    pub fn io_exit_rate(&self) -> f64 {
        self.exits.rate(ExitReason::IoInstruction)
    }

    /// Maximum ping RTT in ms.
    pub fn max_rtt_ms(&self) -> f64 {
        self.rtt_series.iter().map(|&(_, r)| r).fold(0.0, f64::max)
    }

    /// Mean ping RTT in ms.
    pub fn mean_rtt_ms(&self) -> f64 {
        if self.rtt_series.is_empty() {
            return 0.0;
        }
        self.rtt_series.iter().map(|&(_, r)| r).sum::<f64>() / self.rtt_series.len() as f64
    }

    /// Collect `m`'s results, closing its recorders at `end` (see
    /// [`Machine::model_end`]).
    pub(crate) fn collect(mut m: Machine, end: SimTime) -> RunResult {
        let (spans, telemetry) = m.finish_recorders(end);
        let vm0 = &m.vms[0];
        let rx = &vm0.ledger.win;
        let window = m.p.measure;
        let secs = window.as_secs_f64();

        let mut goodput_gbps = 0.0;
        let mut ops_per_sec = 0.0;
        let mut mean_conn_time_ms = 0.0;
        let mut conns_established = 0;
        let mut rtt_series = Vec::new();

        match (&m.specs[0], &m.ext[0], &vm0.wl) {
            (WorkloadSpec::Netperf(np), ExtWl::TcpSink { received_segs, .. }, _) => {
                goodput_gbps =
                    *received_segs as f64 * np.payload_per_segment() as f64 * 8.0 / secs / 1e9;
            }
            (WorkloadSpec::Netperf(np), ExtWl::UdpSink { received }, _) => {
                goodput_gbps = *received as f64 * np.msg_bytes as f64 * 8.0 / secs / 1e9;
            }
            (WorkloadSpec::Netperf(np), _, GuestWl::NetperfRecv { received_segs, .. }) => {
                let per_seg = match np.proto {
                    NetperfProto::Tcp => np.payload_per_segment(),
                    NetperfProto::Udp => np.msg_bytes.min(es2_net::packet::MSS),
                };
                goodput_gbps = *received_segs as f64 * per_seg as f64 * 8.0 / secs / 1e9;
            }
            (WorkloadSpec::Memcached, ExtWl::Memaslap { ops_windowed, .. }, _) => {
                ops_per_sec = *ops_windowed as f64 / secs;
            }
            (
                WorkloadSpec::Apache,
                ExtWl::Ab {
                    completed_windowed, ..
                },
                _,
            ) => {
                ops_per_sec = *completed_windowed as f64 / secs;
                goodput_gbps = *completed_windowed as f64
                    * es2_workloads::apachebench::PAGE_BYTES as f64
                    * 8.0
                    / secs
                    / 1e9;
            }
            (WorkloadSpec::Httperf { .. }, ExtWl::Httperf { conn_times_ms, .. }, _) => {
                conns_established = conn_times_ms.len() as u64;
                if !conn_times_ms.is_empty() {
                    mean_conn_time_ms =
                        conn_times_ms.iter().sum::<f64>() / conn_times_ms.len() as f64;
                }
            }
            (WorkloadSpec::Ping, ExtWl::Ping(probe), _) => {
                rtt_series = probe
                    .rtts()
                    .iter()
                    .map(|&(at, rtt)| (at.as_secs_f64(), rtt.as_millis_f64()))
                    .collect();
            }
            _ => {}
        }

        let host_ctx_switches = (0..m.sched.num_cores())
            .map(|c| m.sched.switch_count(es2_sched::CoreId(c as u32)))
            .sum();

        let mut backpressure = es2_metrics::BackpressureStats::default();
        let mut backpressure_per_vm = Vec::with_capacity(m.vms.len());
        let mut rx_p99_us_per_vm = Vec::with_capacity(m.vms.len());
        let mut quarantines_total = 0;
        let mut queue_resets_total = 0;
        let reclaimed_slots = m
            .mig
            .as_ref()
            .map_or(0, |mg| mg.reclaimed.iter().filter(|r| **r).count() as u32);
        for vm in &m.vms {
            let bp = vm.ledger.backpressure();
            backpressure.merge(&bp);
            backpressure_per_vm.push(bp);
            rx_p99_us_per_vm.push(vm.ledger.rx_us.p99());
            for pair in &vm.pairs {
                quarantines_total += pair.tx.quarantine_count() + pair.rx.quarantine_count();
                queue_resets_total += pair.tx.reset_count() + pair.rx.reset_count();
            }
        }

        let (redirections, offline_predictions) = match &m.redirection {
            Some(e) => (e.redirection_count(), e.offline_prediction_count()),
            None => (0, 0),
        };

        RunResult {
            config: m.cfg.label(),
            exits: vm0.ledger.exits(),
            tig_percent: vm0.ledger.tig_percent(),
            window,
            goodput_gbps,
            ops_per_sec,
            mean_conn_time_ms,
            conns_established,
            rtt_series,
            kicks_total: vm0
                .pairs
                .iter()
                .map(|p| p.tx.kick_count() + p.rx.kick_count())
                .sum(),
            rx_interrupts_total: vm0.pairs.iter().map(|p| p.rx.interrupt_count()).sum(),
            redirections,
            offline_predictions,
            backlog_drops: vm0.pairs.iter().map(|p| p.backlog.dropped_total()).sum(),
            host_ctx_switches,
            polling_entries: vm0
                .pairs
                .iter()
                .map(|p| p.tx_handler.polling_entries())
                .sum(),
            parked_irqs: vm0.ledger.parked_irqs,
            migrated_irqs: vm0.ledger.migrated_irqs,
            mean_rx_latency_us: match rx.rx_lat_count {
                0 => 0.0,
                n => rx.rx_lat_sum_ns as f64 / n as f64 / 1e3,
            },
            max_rx_latency_us: rx.rx_lat_max_ns as f64 / 1e3,
            events_simulated: m.q.pushed_total(),
            fault_stats: m.faults.stats(),
            modes: es2_metrics::ModeAccounting {
                per_vm: m.vms.iter().map(|vm| vm.ledger.modes()).collect(),
            },
            watchdog_rekicks: vm0.ledger.watchdog_rekicks,
            watchdog_reraises: vm0.ledger.watchdog_reraises,
            guest_rtos: vm0.ledger.guest_rtos,
            spans,
            backpressure,
            backpressure_per_vm,
            rx_p99_us_per_vm,
            quarantines_total,
            queue_resets_total,
            reclaimed_slots,
            device_irqs_per_vcpu: vm0.ledger.device_irqs_per_vcpu.clone(),
            vhost_pending_hwm_per_worker: (0..vm0.worker.num_workers())
                .map(|w| vm0.worker.pending_hwm_on(w) as u64)
                .collect(),
            telemetry,
        }
    }
}
