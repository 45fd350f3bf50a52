//! Multi-queue virtio sweep (`repro --mq`).
//!
//! The tentpole experiment for per-vCPU multi-queue: VM 0 runs a
//! two-threaded TCP send stream (one flow per queue pair; the ACK
//! stream returns through RSS) while `vms - 1` dormant tenants supply
//! consolidation density, swept over queue count × vhost worker count ×
//! sharding policy at 64 and 128 VMs (8/16 with `--fast`):
//!
//! * `q1/w1 mux` — the legacy single-queue single-worker path (the
//!   byte-identity anchor: this cell is the pre-multi-queue machine);
//! * `q2/w1 mux` — two queues multiplexed onto one worker: queue
//!   identity without parallel service, isolating the dispatch hop;
//! * `q2/w2 affine` — sharded workers, per-vCPU affine placement;
//! * `q2/w2 passthrough` — each queue owns a worker and skips the
//!   shared dispatch hop entirely (the optimal-event-path analog: no
//!   intermediate multiplexing stage between kick and service).
//!
//! Every cell sets its worker count in `Params::vhost_workers`.
//! Stdout is simulation-determined (no wall-clock), so `repro
//! selfcheck` compares it across thread counts and against
//! `ci/golden_mq_fast.txt`; the committed `BENCH_mq.json` carries the
//! full-window cells, including the headline comparison: passthrough
//! rx p99 vs the single-worker mux at the densest cell.

use es2_core::EventPathConfig;
use es2_metrics::json::Json;
use es2_sim::{exec, FaultPlan};
use es2_testbed::{Machine, Params, RunResult, ShardPolicy, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

/// vCPUs per VM in the sweep — matches the consolidation sweep's
/// two-vCPU tenants, so `q2` is exactly one TX/RX pair per vCPU.
const MQ_VCPUS_PER_VM: u32 = 2;

/// One sweep cell: a (vm count, queue, worker, policy) configuration.
pub(crate) struct MqCell {
    pub vms: u32,
    pub queues: u32,
    /// Configured worker count.
    pub workers: u32,
    pub policy: ShardPolicy,
    /// Worker count the run actually used after clamping to the pairs.
    pub effective_workers: u32,
    pub result: RunResult,
    pub liveness_ok: bool,
}

impl MqCell {
    /// Row label, e.g. `q2/w2 passthrough`.
    pub fn label(&self) -> String {
        format!("q{}/w{} {}", self.queues, self.workers, self.policy.label())
    }
}

/// The cell grid at one VM count.
fn cell_plan() -> [(u32, u32, ShardPolicy); 4] {
    [
        (1, 1, ShardPolicy::Mux),
        (2, 1, ShardPolicy::Mux),
        (2, 2, ShardPolicy::Affine),
        (2, 2, ShardPolicy::Passthrough),
    ]
}

fn run_cell(
    vms: u32,
    queues: u32,
    workers: u32,
    policy: ShardPolicy,
    base: Params,
    seed: u64,
) -> MqCell {
    let params = Params {
        num_cores: MQ_VCPUS_PER_VM + vms,
        queues_per_vm: queues,
        vhost_workers: workers,
        shard_policy: policy,
        ..base
    };
    let topo = Topology {
        num_vms: vms,
        vcpus_per_vm: MQ_VCPUS_PER_VM,
    };
    let mut specs = vec![WorkloadSpec::IdleQuiet; vms as usize];
    specs[0] = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024).with_threads(2));
    let effective_workers = params.effective_vhost_workers() as u32;
    let (result, live) = Machine::with_specs_faulted(
        EventPathConfig::pi_h_r(4),
        topo,
        specs,
        params,
        seed,
        FaultPlan::none(),
    )
    .run_checked();
    MqCell {
        vms,
        queues,
        workers,
        policy,
        effective_workers,
        result,
        liveness_ok: live.ok(),
    }
}

/// Run the multi-queue sweep and return `(deterministic_report, json, None)`.
pub fn mq_report(params: Params, seed: u64, fast: bool) -> (String, Json, Option<Json>) {
    use es2_metrics::Table;

    // The grid's cells are independent cells of one sweep, which
    // returns them in this order whatever the thread count.
    let vm_counts: &[u32] = if fast { &[8, 16] } else { &[64, 128] };
    let grid: Vec<(u32, u32, u32, ShardPolicy)> = vm_counts
        .iter()
        .flat_map(|&vms| cell_plan().map(|(q, w, policy)| (vms, q, w, policy)))
        .collect();
    let cells = exec::sweep(&grid, |&(vms, q, w, policy)| {
        run_cell(vms, q, w, policy, params, seed)
    });

    let mut t = Table::new(
        format!(
            "Multi-queue virtio — VM 0 sends 2-flow TCP over q queues / w sharded vhost \
             workers, dormant tenants for density (seed {seed})"
        ),
        &[
            "vms",
            "cell",
            "eff w",
            "goodput Gb/s",
            "exits/s",
            "rx p99 us",
            "rx mean us",
            "kicks",
            "ctx sw",
            "polling",
            "dev irqs/vcpu",
            "pend hwm/w",
            "liveness",
        ],
    );
    let join_u64 = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    for c in &cells {
        let r = &c.result;
        t.row(&[
            c.vms.to_string(),
            c.label(),
            c.effective_workers.to_string(),
            format!("{:.3}", r.goodput_gbps),
            format!("{:.0}", r.total_exit_rate()),
            r.rx_p99_us_per_vm[0].to_string(),
            format!("{:.1}", r.mean_rx_latency_us),
            r.kicks_total.to_string(),
            r.host_ctx_switches.to_string(),
            r.polling_entries.to_string(),
            join_u64(&r.device_irqs_per_vcpu),
            join_u64(&r.vhost_pending_hwm_per_worker),
            if c.liveness_ok { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    let mut report = t.render();
    report.push('\n');

    // Headline: the dispatch hop the passthrough path deletes, at the
    // densest cell.
    let densest = *vm_counts.last().unwrap();
    let mux = cells
        .iter()
        .find(|c| c.vms == densest && c.queues == 2 && c.workers == 1)
        .unwrap();
    let pt = cells
        .iter()
        .find(|c| c.vms == densest && c.policy == ShardPolicy::Passthrough)
        .unwrap();
    report.push_str(&format!(
        "{densest} VMs: passthrough rx p99 {} us vs 1-worker mux {} us (goodput {:.3} vs {:.3} \
         Gb/s, mean rx {:.1} vs {:.1} us)\n",
        pt.result.rx_p99_us_per_vm[0],
        mux.result.rx_p99_us_per_vm[0],
        pt.result.goodput_gbps,
        mux.result.goodput_gbps,
        pt.result.mean_rx_latency_us,
        mux.result.mean_rx_latency_us,
    ));

    let json_cells: Json = cells
        .iter()
        .map(|c| {
            let r = &c.result;
            Json::object()
                .with("vms", c.vms)
                .with("queues", c.queues)
                .with("workers", c.workers)
                .with("effective_workers", c.effective_workers)
                .with("policy", c.policy.label())
                .with("goodput_gbps", r.goodput_gbps)
                .with("exit_rate_per_sec", r.total_exit_rate())
                .with("rx_p99_us", r.rx_p99_us_per_vm[0])
                .with("rx_mean_us", r.mean_rx_latency_us)
                .with("kicks", r.kicks_total)
                .with("rx_interrupts", r.rx_interrupts_total)
                .with("host_ctx_switches", r.host_ctx_switches)
                .with("polling_entries", r.polling_entries)
                .with(
                    "device_irqs_per_vcpu",
                    r.device_irqs_per_vcpu.iter().copied().collect::<Json>(),
                )
                .with(
                    "vhost_pending_hwm_per_worker",
                    r.vhost_pending_hwm_per_worker
                        .iter()
                        .copied()
                        .collect::<Json>(),
                )
                .with("events_simulated", r.events_simulated)
                .with("liveness", if c.liveness_ok { "pass" } else { "fail" })
        })
        .collect();
    let json = Json::object()
        .with("harness", "repro --mq")
        .with("fast", fast)
        .with("seed", seed)
        .with("vcpus_per_vm", MQ_VCPUS_PER_VM)
        .with("cells", json_cells);
    (report, json, None)
}
