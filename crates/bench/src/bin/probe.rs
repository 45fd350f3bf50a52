//! Diagnostic probe: run one configuration and dump every counter.
//!
//! ```text
//! Usage: probe [baseline|pi|pih|pihr] [tcp_send|udp_send|tcp_recv|udp_recv] [quota]
//!        probe [baseline|pi|pihr] scale [num_vms]   (the --scale consolidation cell)
//! ```

use es2_core::EventPathConfig;
use es2_hypervisor::ExitReason;
use es2_testbed::{Params, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg_name = args.first().map(|s| s.as_str()).unwrap_or("baseline");
    let wl = args.get(1).map(|s| s.as_str()).unwrap_or("tcp_send");
    let quota: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let cfg = match cfg_name {
        "pi" => EventPathConfig::pi(),
        "pih" => EventPathConfig::pi_h(quota),
        "pihr" => EventPathConfig::pi_h_r(quota),
        _ => EventPathConfig::baseline(),
    };
    let spec = match wl {
        "udp_send" => WorkloadSpec::Netperf(NetperfSpec::udp_send(256)),
        "tcp_recv_mx" => WorkloadSpec::Netperf(NetperfSpec::tcp_receive(1024)),
        "tcp_send_mx" => WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024).with_threads(4)),
        "tcp_recv" => WorkloadSpec::Netperf(NetperfSpec::tcp_receive(1024)),
        "udp_recv" => WorkloadSpec::Netperf(NetperfSpec::udp_receive(1024)),
        "mc" => WorkloadSpec::Memcached,
        "apache" => WorkloadSpec::Apache,
        "ping" => WorkloadSpec::Ping,
        _ => WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
    };
    let topo = match wl {
        "mc" | "apache" | "ping" | "tcp_recv_mx" | "tcp_send_mx" => Topology::multiplexed(),
        _ => Topology::micro(),
    };
    let mut params = Params::default();
    if wl == "ping" {
        params.measure = es2_sim::SimDuration::from_secs(30);
    }
    let (r, snap) = if wl == "scale" {
        // One cell of the repro --scale consolidation sweep, with the
        // sweep's seed so counters match BENCH_scale.json exactly.
        let n: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
        let idx = match cfg_name {
            "pi" => 1,
            "pihr" => 2,
            _ => 0,
        };
        let rs = es2_testbed::experiments::scale_specs(n, params, es2_bench::SEED)[idx];
        let mut per_vm = vec![WorkloadSpec::IdleQuiet; n as usize];
        per_vm[0] = rs.spec;
        let plan = es2_sim::FaultPlan::none();
        es2_testbed::Machine::with_specs_faulted(rs.cfg, rs.topo, per_vm, rs.params, rs.seed, plan)
            .run_with_snapshot()
    } else {
        es2_testbed::Machine::new(cfg, topo, spec, params, 1).run_with_snapshot()
    };
    if std::env::var("PROBE_SNAPSHOT").is_ok() {
        eprintln!("{snap}");
    }
    println!("config            {}", r.config);
    println!("goodput_gbps      {:.3}", r.goodput_gbps);
    println!("ops_per_sec       {:.0}", r.ops_per_sec);
    println!("tig_percent       {:.1}", r.tig_percent);
    for reason in ExitReason::all() {
        println!("exit {:<18} {:>10.0}/s", reason.label(), r.rate(reason));
    }
    println!("total exits       {:.0}/s", r.total_exit_rate());
    println!("kicks_total       {}", r.kicks_total);
    println!("rx_interrupts     {}", r.rx_interrupts_total);
    println!("redirections      {}", r.redirections);
    println!("offline_preds     {}", r.offline_predictions);
    println!("backlog_drops     {}", r.backlog_drops);
    println!("ctx_switches      {}", r.host_ctx_switches);
    println!("polling_entries   {}", r.polling_entries);
    println!("parked_irqs       {}", r.parked_irqs);
    println!("migrated_irqs     {}", r.migrated_irqs);
    println!(
        "rx_latency_us     mean={:.1} max={:.1}",
        r.mean_rx_latency_us, r.max_rx_latency_us
    );
    println!("mean_rtt_ms       {:.3}", r.mean_rtt_ms());
    println!("max_rtt_ms        {:.3}", r.max_rtt_ms());
}
