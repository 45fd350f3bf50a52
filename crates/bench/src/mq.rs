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

use crate::cli::Rendered;
use crate::columns::{self, Col, Val};

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

type Column = Col<MqCell>;

/// The cell fields, once for stdout and JSON.
#[rustfmt::skip]
pub(crate) const COLUMNS: &[Column] = &[
    Column::both("vms", "vms", |c| c.vms.into()),
    Column::stdout("cell", |c| c.label().into()),
    Column::json("queues", |c| c.queues.into()),
    Column::json("workers", |c| c.workers.into()),
    Column::both("effective_workers", "eff w", |c| c.effective_workers.into()),
    Column::json("policy", |c| c.policy.label().into()),
    Column::both("goodput_gbps", "goodput Gb/s", |c| c.result.goodput_gbps.into()).dec(3),
    Column::both("exit_rate_per_sec", "exits/s", |c| c.result.total_exit_rate().into()),
    Column::both("rx_p99_us", "rx p99 us", |c| c.result.rx_p99_us_per_vm[0].into()),
    Column::both("rx_mean_us", "rx mean us", |c| c.result.mean_rx_latency_us.into()).dec(1),
    Column::both("kicks", "kicks", |c| c.result.kicks_total.into()),
    Column::json("rx_interrupts", |c| c.result.rx_interrupts_total.into()),
    Column::both("host_ctx_switches", "ctx sw", |c| c.result.host_ctx_switches.into()),
    Column::both("polling_entries", "polling", |c| c.result.polling_entries.into()),
    Column::both("device_irqs_per_vcpu", "dev irqs/vcpu", |c| {
        Val::Ints(c.result.device_irqs_per_vcpu.clone())
    }),
    Column::both("vhost_pending_hwm_per_worker", "pend hwm/w", |c| {
        Val::Ints(c.result.vhost_pending_hwm_per_worker.clone())
    }),
    Column::json("events_simulated", |c| c.result.events_simulated.into()),
    Column::both("liveness", "liveness", |c| Val::Verdict(c.liveness_ok)),
];

/// Run the multi-queue sweep.
pub fn mq_report(params: Params, seed: u64, fast: bool) -> Rendered {
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

    let mut report = columns::table(
        format!(
            "Multi-queue virtio — VM 0 sends 2-flow TCP over q queues / w sharded vhost \
             workers, dormant tenants for density (seed {seed})"
        ),
        COLUMNS,
        &cells,
    );

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

    let json = Json::object()
        .with("vcpus_per_vm", MQ_VCPUS_PER_VM)
        .with("cells", columns::json(COLUMNS, &cells));
    let failed = cells
        .iter()
        .filter(|c| !c.liveness_ok)
        .map(|c| format!("{} VMs {}", c.vms, c.label()))
        .collect();
    (report, json, None, failed)
}
