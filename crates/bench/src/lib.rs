//! Report rendering for the paper-reproduction harness.
//!
//! Every table and figure of the paper's evaluation has a `render_*`
//! function that runs the corresponding experiment (from
//! `es2_testbed::experiments`) and formats the measured rows next to the
//! values the paper reports. The `repro` binary drives them; integration
//! tests assert the *shapes* (who wins, by what factor).

pub mod churn;
pub mod cli;
pub mod hostile;
pub mod migrate;
pub mod mq;
pub mod scale;
pub mod selfcheck;
pub mod telemetry;
pub mod trace;

use es2_hypervisor::ExitReason;
use es2_metrics::table::{fmt_pct, fmt_rate};
use es2_metrics::Table;
use es2_testbed::experiments;
use es2_testbed::{Params, RunResult};

/// Default seed used by the repro harness.
pub const SEED: u64 = 20170814; // ICPP'17 conference date

fn exit_cells(r: &RunResult) -> [String; 5] {
    let other: f64 = ExitReason::all()
        .into_iter()
        .filter(|e| e.is_other_group())
        .map(|e| r.rate(e))
        .sum();
    [
        fmt_rate(r.rate(ExitReason::ExternalInterrupt)),
        fmt_rate(r.rate(ExitReason::ApicAccess)),
        fmt_rate(r.rate(ExitReason::IoInstruction)),
        fmt_rate(other),
        fmt_rate(r.total_exit_rate()),
    ]
}

/// Table I: breakdown of VM exit causes, TCP send, Baseline vs PI.
pub fn render_table1(params: Params, seed: u64) -> String {
    let runs = experiments::table1(params, seed);
    let mut t = Table::new(
        "Table I — VM exit causes, 1-vCPU TCP send (paper: Baseline 130.8k exits/s, 15.5%/29.3%/53.6% int-deliv/int-compl/io; PI: 0/0/85k)",
        &[
            "config",
            "IntDeliv/s",
            "IntCompl/s",
            "IoReq/s",
            "Others/s",
            "Total/s",
            "IoReq %",
        ],
    );
    for r in &runs {
        let cells = exit_cells(r);
        t.row(&[
            r.config.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
            cells[4].clone(),
            fmt_pct(100.0 * r.io_exit_rate() / r.total_exit_rate().max(1e-9)),
        ]);
    }
    t.render()
}

/// Fig. 4: I/O-instruction exits vs quota.
pub fn render_fig4(params: Params, seed: u64) -> String {
    let mut out = String::new();
    for (udp, bytes, label) in [
        (
            true,
            256u32,
            "Fig. 4a — UDP send 256B (paper: baseline ~100k, <10k @32, ~1k @16, <0.1k @<=8)",
        ),
        (true, 1024, "Fig. 4a — UDP send 1024B"),
        (
            false,
            1024,
            "Fig. 4b — TCP send (paper: gradual 64->4, <10k @ quota 2-4)",
        ),
    ] {
        let rows = experiments::fig4(udp, bytes, params, seed);
        let mut t = Table::new(label, &["config", "IoInstr exits/s", "goodput Gb/s"]);
        for (name, r) in &rows {
            t.row(&[
                name.clone(),
                fmt_rate(r.io_exit_rate()),
                format!("{:.2}", r.goodput_gbps),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 5: exit breakdown + TIG under Baseline / PI / PI+H.
pub fn render_fig5(params: Params, seed: u64) -> String {
    let mut out = String::new();
    for (send, udp, label) in [
        (
            true,
            false,
            "Fig. 5a — send TCP (paper TIG: 70% -> ~75% -> 97.5%)",
        ),
        (
            true,
            true,
            "Fig. 5a — send UDP (paper TIG: 68.5% -> ... -> 99.7%)",
        ),
        (
            false,
            false,
            "Fig. 5b — receive TCP (paper TIG: 91.1% -> 94.8% -> ~95%)",
        ),
        (false, true, "Fig. 5b — receive UDP (paper TIG: -> >99%)"),
    ] {
        let runs = experiments::fig5(send, udp, params, seed);
        let mut t = Table::new(
            label,
            &[
                "config",
                "IntDeliv/s",
                "IntCompl/s",
                "IoReq/s",
                "Others/s",
                "Total/s",
                "TIG %",
            ],
        );
        for r in &runs {
            let cells = exit_cells(r);
            t.row(&[
                r.config.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
                cells[3].clone(),
                cells[4].clone(),
                format!("{:.1}", r.tig_percent),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 6: netperf throughput, multiplexed cores, packet-size sweep.
pub fn render_fig6(params: Params, seed: u64, sizes: &[u32]) -> String {
    let mut out = String::new();
    for (send, label) in [
        (true, "Fig. 6a — TCP send throughput, 4 VMs x 4 vCPUs on 4 cores (paper: PI +13-19%, PI+H up to +40%, +R +15%; ~2x total)"),
        (false, "Fig. 6b — TCP receive throughput (paper: PI +17%, +R up to +50% over PI+H)"),
    ] {
        let mut t = Table::new(
            label,
            &["msg bytes", "Baseline", "PI", "PI+H", "PI+H+R", "ES2/Base"],
        );
        for (bytes, runs) in experiments::fig6_sweep(send, sizes, params, seed) {
            let g: Vec<f64> = runs.iter().map(|r| r.goodput_gbps).collect();
            t.row(&[
                bytes.to_string(),
                format!("{:.2}", g[0]),
                format!("{:.2}", g[1]),
                format!("{:.2}", g[2]),
                format!("{:.2}", g[3]),
                format!("{:.2}x", g[3] / g[0].max(1e-9)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 7: ping RTT statistics under multiplexing.
pub fn render_fig7(params: Params, seed: u64) -> String {
    let runs = experiments::fig7(params, seed);
    let mut t = Table::new(
        "Fig. 7 — ping RTT, multiplexed cores (paper: Baseline peaks ~18ms; PI slightly lower; full ES2 <0.5ms)",
        &["config", "mean RTT ms", "max RTT ms", "samples"],
    );
    for r in &runs {
        t.row(&[
            r.config.to_string(),
            format!("{:.3}", r.mean_rtt_ms()),
            format!("{:.3}", r.max_rtt_ms()),
            r.rtt_series.len().to_string(),
        ]);
    }
    t.render()
}

/// Fig. 8: Memcached and Apache throughput.
pub fn render_fig8(params: Params, seed: u64) -> String {
    let mut out = String::new();
    let mc = experiments::fig8_memcached(params, seed);
    let mut t = Table::new(
        "Fig. 8a — Memcached (paper: PI +18%, +H +21%, full ES2 ~1.8x)",
        &["config", "ops/s", "vs baseline"],
    );
    let base = mc[0].ops_per_sec.max(1e-9);
    for r in &mc {
        t.row(&[
            r.config.to_string(),
            fmt_rate(r.ops_per_sec),
            format!("{:.2}x", r.ops_per_sec / base),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let ab = experiments::fig8_apache(params, seed);
    let mut t = Table::new(
        "Fig. 8b — Apache 8KB pages (paper: PI +19%, +H +18%, ~2x total)",
        &["config", "req/s", "Gb/s", "vs baseline"],
    );
    let base = ab[0].ops_per_sec.max(1e-9);
    for r in &ab {
        t.row(&[
            r.config.to_string(),
            fmt_rate(r.ops_per_sec),
            format!("{:.2}", r.goodput_gbps),
            format!("{:.2}x", r.ops_per_sec / base),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// §VII: SR-IOV applicability (extension experiment).
pub fn render_sriov(params: Params, seed: u64) -> String {
    let rows = es2_testbed::experiments::sriov(params, seed);
    let mut t = Table::new(
        "SR-IOV (§VII) — assigned VF: data path exit-free by construction; interrupt path evolves legacy -> VT-d PI -> +redirection",
        &[
            "config",
            "IntDeliv/s",
            "IntCompl/s",
            "IoReq/s",
            "TIG %",
            "ping mean ms",
            "ping max ms",
        ],
    );
    for (label, micro, ping) in &rows {
        t.row(&[
            label.to_string(),
            fmt_rate(micro.rate(ExitReason::ExternalInterrupt)),
            fmt_rate(micro.rate(ExitReason::ApicAccess)),
            fmt_rate(micro.rate(ExitReason::IoInstruction)),
            format!("{:.1}", micro.tig_percent),
            format!("{:.3}", ping.mean_rtt_ms()),
            format!("{:.3}", ping.max_rtt_ms()),
        ]);
    }
    t.render()
}

/// Ablation tables (redirection policies, offline prediction, quota on a
/// macro workload, stacking probability).
pub fn render_ablations(params: Params, seed: u64) -> String {
    let mut out = String::new();

    let rows = es2_testbed::experiments::ablation_target_policy(params, seed);
    let mut t = Table::new(
        "Ablation — redirection target policy (ping, full ES2 otherwise)",
        &["policy", "mean RTT ms", "max RTT ms", "redirections"],
    );
    for (label, r) in &rows {
        t.row(&[
            label.to_string(),
            format!("{:.3}", r.mean_rtt_ms()),
            format!("{:.3}", r.max_rtt_ms()),
            r.redirections.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let rows = es2_testbed::experiments::ablation_offline_policy(params, seed);
    let mut t = Table::new(
        "Ablation — offline-list prediction policy",
        &[
            "policy",
            "mean RTT ms",
            "max RTT ms",
            "offline preds",
            "migrated",
        ],
    );
    for (label, r) in &rows {
        t.row(&[
            label.to_string(),
            format!("{:.3}", r.mean_rtt_ms()),
            format!("{:.3}", r.max_rtt_ms()),
            r.offline_predictions.to_string(),
            r.migrated_irqs.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let rows = es2_testbed::experiments::ablation_mc_quota(params, seed, &[2, 4, 8, 16, 32]);
    let mut t = Table::new(
        "Ablation — quota sensitivity on Memcached (full ES2)",
        &["quota", "ops/s"],
    );
    for (q, r) in &rows {
        t.row(&[q.to_string(), fmt_rate(r.ops_per_sec)]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(
        "vCPU stacking vs co-located VM count (4 vCPUs each, 4 cores; §IV-C cites >40% stacking for the 2-VM case)",
        &["VMs", "P(no tested-VM vCPU online)"],
    );
    for (n, frac) in es2_testbed::experiments::stacking_sweep(params, seed) {
        t.row(&[n.to_string(), format!("{:.1}%", frac * 100.0)]);
    }
    out.push_str(&t.render());
    out
}

/// Fig. 9: httperf connection time vs rate.
pub fn render_fig9(params: Params, seed: u64, rates: &[f64]) -> String {
    let sweep = experiments::fig9(rates, params, seed);
    let mut t = Table::new(
        "Fig. 9 — httperf mean connection time ms (paper: baseline knee ~1.8k req/s, ES2 stays low to ~2.6k)",
        &["rate req/s", "Baseline", "PI", "PI+H", "PI+H+R"],
    );
    for (rate, runs) in &sweep {
        t.row(&[
            format!("{rate:.0}"),
            format!("{:.3}", runs[0].mean_conn_time_ms),
            format!("{:.3}", runs[1].mean_conn_time_ms),
            format!("{:.3}", runs[2].mean_conn_time_ms),
            format!("{:.3}", runs[3].mean_conn_time_ms),
        ]);
    }
    t.render()
}

/// Chaos report: the acceptance fault plan swept across the paper's
/// workload shapes, rendered with **only deterministic quantities** (no
/// wall-clock) so runs at different thread counts can be compared
/// byte-for-byte — that comparison *is* the reproducibility check
/// `repro selfcheck` runs.
pub fn render_chaos(params: Params, seed: u64) -> String {
    use es2_core::EventPathConfig;
    use es2_testbed::experiments::RunSpec;
    use es2_testbed::{Topology, WorkloadSpec};
    use es2_workloads::NetperfSpec;

    let plan = experiments::chaos_plan();
    let shapes: [(&str, EventPathConfig, Topology, WorkloadSpec); 4] = [
        (
            "tcp-send/PI",
            EventPathConfig::pi(),
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
        ),
        (
            "udp-send/PI+H",
            EventPathConfig::pi_h(4),
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::udp_send(256)),
        ),
        (
            "tcp-recv/Baseline",
            EventPathConfig::baseline(),
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_receive(1024)),
        ),
        (
            "memcached/PI+H+R",
            EventPathConfig::pi_h_r(4),
            Topology::multiplexed(),
            WorkloadSpec::Memcached,
        ),
    ];
    let specs: Vec<RunSpec> = shapes
        .iter()
        .map(|&(_, cfg, topo, spec)| {
            RunSpec {
                cfg,
                topo,
                spec,
                params,
                seed,
                faults: plan,
                fill: WorkloadSpec::Idle,
            }
        })
        .collect();
    let results = experiments::run_specs(&specs);

    // Injection points that drew nothing across the whole sweep are
    // suppressed from the summary: a plan that never enables the
    // hostile-guest family (like the acceptance plan above) renders the
    // exact same bytes it did before that family existed, and a future
    // all-zero column can never dilute the table. Only the hostile
    // columns are subject to suppression — the legacy columns are part
    // of the committed chaos-report format.
    let hostile_drawn = results.iter().any(|r| {
        r.fault_stats.ring_corruptions + r.fault_stats.storm_kicks + r.fault_stats.storm_eois > 0
            || r.quarantines_total > 0
    });
    let mut header = vec![
        "workload",
        "goodput Gb/s",
        "ops/s",
        "faults",
        "kick-",
        "pkt-",
        "msi-",
        "rekick",
        "reraise",
        "RTO",
        "PIdegr",
    ];
    if hostile_drawn {
        header.extend(["corrupt", "storms", "quar"]);
    }
    header.push("vm0 posted/emul");
    let mut t = Table::new(
        format!(
            "Chaos sweep — acceptance plan (seed {seed}: kick loss/delay, vhost stalls, 1% pkt loss, MSI loss, preempt storms, PI fails on VM 0 at 100 ms)"
        ),
        &header,
    );
    for ((label, ..), r) in shapes.iter().zip(&results) {
        let f = r.fault_stats;
        let vm0 = r.modes.vm(0);
        let mut cells = vec![
            label.to_string(),
            format!("{:.3}", r.goodput_gbps),
            fmt_rate(r.ops_per_sec),
            f.total().to_string(),
            f.kicks_dropped.to_string(),
            f.pkts_dropped.to_string(),
            f.msis_dropped.to_string(),
            r.watchdog_rekicks.to_string(),
            r.watchdog_reraises.to_string(),
            r.guest_rtos.to_string(),
            f.pi_degradations.to_string(),
        ];
        if hostile_drawn {
            cells.push(f.ring_corruptions.to_string());
            cells.push((f.storm_kicks + f.storm_eois).to_string());
            cells.push(format!("{}/{}", r.quarantines_total, r.queue_resets_total));
        }
        cells.push(format!("{}/{}", vm0.posted, vm0.emulated));
        t.row(&cells);
    }
    let mut out = t.render();

    // One liveness-checked run of the acceptance shape: the invariant
    // checker's verdict is part of the deterministic report.
    let topo = Topology::micro();
    let mut specs = vec![WorkloadSpec::Idle; topo.num_vms as usize];
    specs[0] = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let (_, report) = es2_testbed::Machine::with_specs_faulted(
        EventPathConfig::pi(),
        topo,
        specs,
        params,
        seed,
        plan,
    )
    .run_checked();
    out.push('\n');
    out.push_str(&format!(
        "liveness: {}\n",
        if report.ok() {
            "PASS (0 violations)".to_string()
        } else {
            format!("FAIL\n  {}", report.violations.join("\n  "))
        }
    ));

    // Host-fault cell, appended after the legacy report so the committed
    // golden prefix (ci/golden_chaos_fast.txt) stays byte-identical: a
    // 3-host cell runs one live migration, one aborted migration, a
    // degraded host (preempt storms) and a host crash with evacuation.
    // The host/migration RNG streams are forked after the seven per-host
    // families, so the sweep above draws the exact bytes it always did.
    {
        use es2_sim::{FaultPlan, SimDuration, SimTime};
        use es2_testbed::{Cluster, ClusterSpec, PlannedMove};

        let frac = |num: u64, den: u64| {
            SimDuration::from_nanos(
                params.warmup.as_nanos() + params.measure.as_nanos() * num / den,
            )
        };
        let fleet = vec![WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)); 6];
        let mut spec = ClusterSpec::new(
            EventPathConfig::pi_h_r(4),
            1,
            fleet,
            3,
            2,
            params,
            seed,
        );
        spec.plan = FaultPlan {
            host_crash_mask: 0b10,
            host_crash_at: frac(3, 5),
            host_degraded_storm_mask: 0b100,
            host_degraded_storm_p: 0.25,
            host_degraded_storm_period: SimDuration::from_millis(2),
            migration_abort_nth: 2,
            ..FaultPlan::none()
        };
        spec.moves = vec![
            PlannedMove {
                vm: 0,
                to: 2,
                at: SimTime::ZERO + frac(1, 4),
            },
            PlannedMove {
                vm: 4,
                to: 0,
                at: SimTime::ZERO + frac(3, 10),
            },
        ];
        let r = Cluster::new(spec).run();
        out.push('\n');
        out.push_str(&format!(
            "host-fault cell (3 hosts x 2 VMs/host, PI+H+R): migrate VM0->host2, abort \
             VM4->host0, degrade host2, crash host1 @60%\n  ledger: out={} resumed={} aborts={} \
             retargets={} restarts={} | blackout p99 {:.1} us | final hosts [{}]\n  cell \
             liveness: {}\n",
            r.ledger.out,
            r.ledger.resumed,
            r.ledger.aborts,
            r.ledger.retargets,
            r.ledger.restarts,
            r.blackout_percentile_us(0.99),
            r.final_host
                .iter()
                .map(|h| h.map_or("-".to_string(), |v| v.to_string()))
                .collect::<Vec<_>>()
                .join(","),
            if r.liveness.ok() {
                "PASS (0 violations)".to_string()
            } else {
                format!("FAIL\n  {}", r.liveness.violations.join("\n  "))
            }
        ));
    }
    out
}
