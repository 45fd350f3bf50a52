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
//!   intermediate multiplexing stage between kick and service);
//! * `q2/w=env affine` — worker count resolved from
//!   `ES2_VHOST_WORKERS`, proving the env knob reaches the pool.
//!
//! Stdout is simulation-determined (no wall-clock), so `verify.sh`
//! diffs it across `ES2_THREADS`/`ES2_VHOST_WORKERS` combinations; the
//! committed `BENCH_mq.json` carries the full-window cells, including
//! the headline comparison: passthrough rx p99 vs the single-worker mux
//! at the densest cell.

use es2_core::EventPathConfig;
use es2_sim::FaultPlan;
use es2_testbed::{Machine, Params, RunResult, ShardPolicy, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

use crate::json_f;

/// vCPUs per VM in the sweep — matches the consolidation sweep's
/// two-vCPU tenants, so `q2` is exactly one TX/RX pair per vCPU.
const MQ_VCPUS_PER_VM: u32 = 2;

/// One sweep cell: a (vm count, queue, worker, policy) configuration.
pub struct MqCell {
    pub vms: u32,
    pub queues: u32,
    /// Configured worker count (0 = resolved from `ES2_VHOST_WORKERS`).
    pub workers: u32,
    pub policy: ShardPolicy,
    /// Worker count the run actually used after resolution/clamping.
    pub effective_workers: u32,
    pub result: RunResult,
    pub liveness_ok: bool,
}

impl MqCell {
    /// Row label, e.g. `q2/w2 passthrough`.
    pub fn label(&self) -> String {
        if self.workers == 0 {
            format!("q{}/w=env {}", self.queues, self.policy.label())
        } else {
            format!("q{}/w{} {}", self.queues, self.workers, self.policy.label())
        }
    }
}

/// The cell grid at one VM count.
fn cell_plan() -> [(u32, u32, ShardPolicy); 5] {
    [
        (1, 1, ShardPolicy::Mux),
        (2, 1, ShardPolicy::Mux),
        (2, 2, ShardPolicy::Affine),
        (2, 2, ShardPolicy::Passthrough),
        (2, 0, ShardPolicy::Affine),
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

/// Run the multi-queue sweep and return `(deterministic_report, json)`.
pub fn mq_report(params: Params, seed: u64, fast: bool) -> (String, String) {
    use es2_metrics::Table;

    let vm_counts: &[u32] = if fast { &[8, 16] } else { &[64, 128] };
    let mut cells: Vec<MqCell> = Vec::new();
    for &vms in vm_counts {
        for (q, w, policy) in cell_plan() {
            cells.push(run_cell(vms, q, w, policy, params, seed));
        }
    }

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

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"repro --mq\",\n");
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"vcpus_per_vm\": {MQ_VCPUS_PER_VM},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.result;
        json.push_str("    {\n");
        json.push_str(&format!("      \"vms\": {},\n", c.vms));
        json.push_str(&format!("      \"queues\": {},\n", c.queues));
        json.push_str(&format!("      \"workers\": {},\n", c.workers));
        json.push_str(&format!(
            "      \"effective_workers\": {},\n",
            c.effective_workers
        ));
        json.push_str(&format!("      \"policy\": \"{}\",\n", c.policy.label()));
        json.push_str(&format!(
            "      \"goodput_gbps\": {},\n",
            json_f(r.goodput_gbps)
        ));
        json.push_str(&format!(
            "      \"exit_rate_per_sec\": {},\n",
            json_f(r.total_exit_rate())
        ));
        json.push_str(&format!(
            "      \"rx_p99_us\": {},\n",
            r.rx_p99_us_per_vm[0]
        ));
        json.push_str(&format!(
            "      \"rx_mean_us\": {},\n",
            json_f(r.mean_rx_latency_us)
        ));
        json.push_str(&format!("      \"kicks\": {},\n", r.kicks_total));
        json.push_str(&format!(
            "      \"rx_interrupts\": {},\n",
            r.rx_interrupts_total
        ));
        json.push_str(&format!(
            "      \"host_ctx_switches\": {},\n",
            r.host_ctx_switches
        ));
        json.push_str(&format!(
            "      \"polling_entries\": {},\n",
            r.polling_entries
        ));
        json.push_str(&format!(
            "      \"device_irqs_per_vcpu\": {:?},\n",
            r.device_irqs_per_vcpu
        ));
        json.push_str(&format!(
            "      \"vhost_pending_hwm_per_worker\": {:?},\n",
            r.vhost_pending_hwm_per_worker
        ));
        json.push_str(&format!(
            "      \"events_simulated\": {},\n",
            r.events_simulated
        ));
        json.push_str(&format!(
            "      \"liveness\": \"{}\"\n",
            if c.liveness_ok { "pass" } else { "fail" }
        ));
        json.push_str(if i + 1 < cells.len() { "    },\n" } else { "    }\n" });
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    (report, json)
}
