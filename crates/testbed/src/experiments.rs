//! One runner per table/figure of the paper's evaluation (§VI).
//!
//! Each function is deterministic in its seed and returns the measured
//! series; the `es2-bench` crate renders them next to the paper's numbers.
//!
//! Every multi-run sweep goes through [`run_specs`], which fans the
//! independent runs across worker threads via [`es2_sim::exec::sweep`].
//! A run is a pure function of its [`RunSpec`] and results come back in
//! input order, so the output is bitwise identical to the serial sweep at
//! any thread count (`ES2_THREADS=1` forces serial).

use es2_core::{EventPathConfig, HybridParams};
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_workloads::NetperfSpec;

use crate::cluster::{ClusterSpec, PlannedMove};
use crate::machine::{Machine, Topology};
use crate::params::Params;
use crate::results::RunResult;
use crate::workload::WorkloadSpec;

/// A fully specified independent simulation run: the unit of work the
/// parallel sweep executor schedules. The run's outcome is a pure
/// function of this value.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub cfg: EventPathConfig,
    pub topo: Topology,
    pub spec: WorkloadSpec,
    pub params: Params,
    pub seed: u64,
    /// Fault schedule for the run ([`FaultPlan::none`] for clean runs —
    /// then the injector stays inert and the run is bit-identical to one
    /// without the fault layer).
    pub faults: FaultPlan,
    /// What the background (non-tested) VMs run. The paper's multiplexed
    /// experiments use the §VI-D CPU-burn scripts
    /// ([`WorkloadSpec::Idle`]); the consolidation sweep fills the host
    /// with HLT-idle tenants ([`WorkloadSpec::IdleQuiet`]).
    pub fill: WorkloadSpec,
}

impl RunSpec {
    /// Execute the run to completion and check the liveness invariants
    /// on its final state. Panics naming this spec, every violation and
    /// the post-mortem dump if any invariant fails.
    pub fn run(&self) -> RunResult {
        let (result, liveness) = self.machine().run_checked();
        liveness.assert_ok(self);
        result
    }

    /// Build the machine for this spec: VM 0 runs `spec`, every other
    /// VM runs `fill`.
    fn machine(&self) -> Machine {
        let mut specs = vec![self.fill; self.topo.num_vms as usize];
        specs[0] = self.spec;
        Machine::with_specs_faulted(
            self.cfg,
            self.topo,
            specs,
            self.params,
            self.seed,
            self.faults,
        )
    }

    /// The same spec with a fault plan attached.
    pub fn with_faults(self, faults: FaultPlan) -> Self {
        RunSpec { faults, ..self }
    }
}

/// Run every spec, in parallel across available cores, returning results
/// in input order (bitwise identical to running them serially).
pub fn run_specs(specs: &[RunSpec]) -> Vec<RunResult> {
    es2_sim::exec::sweep(specs, RunSpec::run)
}

/// The canonical chaos plan used by the chaos suite, `repro chaos`, and
/// the fault-overhead bench: moderate kick loss and delay, occasional
/// vhost-worker stalls, 1 % packet loss with light duplication and
/// reordering, and a mid-run posted-interrupt failure on VM 0 (100 ms in,
/// inside the `Params::fast_test` window). Every probability is per-event,
/// so the plan scales with run length without retuning.
pub fn chaos_plan() -> FaultPlan {
    FaultPlan {
        kick_drop_p: 0.05,
        kick_delay_p: 0.05,
        worker_stall_p: 0.02,
        msi_drop_p: 0.01,
        msi_delay_p: 0.02,
        msi_delay: SimDuration::from_micros(30),
        pkt_drop_p: 0.01,
        pkt_dup_p: 0.005,
        pkt_reorder_p: 0.01,
        preempt_storm_period: SimDuration::from_millis(5),
        preempt_storm_p: 0.25,
        pi_unavailable_mask: 0b1,
        pi_fail_after: SimDuration::from_millis(100),
        ..FaultPlan::none()
    }
}

/// The canonical hostile-guest plan used by the isolation suite and
/// `repro --hostile`: VM `vm` corrupts its TX ring a few kicks in, then
/// keeps hammering with doorbell storms, spurious EOI writes, and
/// periodic self-referencing descriptors after the reset. Everything is
/// keyed to `vm`; other VMs draw nothing from the hostile streams.
pub fn hostile_plan(vm: u32) -> FaultPlan {
    FaultPlan {
        hostile_vm: vm,
        ring_corrupt_at_kick: 20,
        ring_corruption: es2_sim::RingCorruptionKind::DescOutOfRange,
        kick_storm_p: 0.05,
        kick_storm_burst: 8,
        eoi_storm_p: 0.05,
        eoi_storm_burst: 4,
        desc_loop_p: 0.002,
        ..FaultPlan::none()
    }
}

/// The 3-host host-fault cell of `repro chaos` and the telemetry report's
/// migration topology: six TCP senders at two VMs per host under `cfg`,
/// VM 0 live-migrating to host 2 at a quarter of the window, VM 4's move
/// to host 0 (the second migration) aborted at 30 %, host 2 degraded by
/// preemption storms, and host 1 crashing at 60 % with evacuation.
pub fn host_fault_cell(cfg: EventPathConfig, params: Params, seed: u64) -> ClusterSpec {
    let frac = |num: u64, den: u64| {
        SimDuration::from_nanos(params.warmup.as_nanos() + params.measure.as_nanos() * num / den)
    };
    let fleet = vec![WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)); 6];
    let mut spec = ClusterSpec::new(cfg, 1, fleet, 3, 2, params, seed);
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
    spec
}

/// Run one configuration of one workload on a topology.
pub fn run_one(
    cfg: EventPathConfig,
    topo: Topology,
    spec: WorkloadSpec,
    params: Params,
    seed: u64,
) -> RunResult {
    RunSpec {
        cfg,
        topo,
        spec,
        params,
        seed,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::Idle,
    }
    .run()
}

/// Table I: VM-exit cause breakdown for 1-vCPU TCP send, Baseline vs PI.
pub fn table1(params: Params, seed: u64) -> Vec<RunResult> {
    let spec = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let specs: Vec<RunSpec> = [EventPathConfig::baseline(), EventPathConfig::pi()]
        .into_iter()
        .map(|cfg| RunSpec {
            cfg,
            topo: Topology::micro(),
            spec,
            params,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        })
        .collect();
    run_specs(&specs)
}

/// One Fig. 4 point: I/O-instruction exit rate under PI+H with a quota.
pub fn fig4_point(
    proto_udp: bool,
    msg_bytes: u32,
    quota: u32,
    params: Params,
    seed: u64,
) -> RunResult {
    let np = if proto_udp {
        NetperfSpec::udp_send(msg_bytes)
    } else {
        NetperfSpec::tcp_send(msg_bytes)
    };
    run_one(
        EventPathConfig::pi_h(quota),
        Topology::micro(),
        WorkloadSpec::Netperf(np),
        params,
        seed,
    )
}

/// Fig. 4: quota sweep (plus the baseline reference point).
pub fn fig4(
    proto_udp: bool,
    msg_bytes: u32,
    params: Params,
    seed: u64,
) -> Vec<(String, RunResult)> {
    let np = if proto_udp {
        NetperfSpec::udp_send(msg_bytes)
    } else {
        NetperfSpec::tcp_send(msg_bytes)
    };
    let quotas = [64u32, 32, 16, 8, 4, 2];
    let mut labels = vec!["baseline".to_string()];
    let mut specs = vec![RunSpec {
        cfg: EventPathConfig::baseline(),
        topo: Topology::micro(),
        spec: WorkloadSpec::Netperf(np),
        params,
        seed,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::Idle,
    }];
    for quota in quotas {
        labels.push(format!("quota={quota}"));
        specs.push(RunSpec {
            cfg: EventPathConfig::pi_h(quota),
            topo: Topology::micro(),
            spec: WorkloadSpec::Netperf(np),
            params,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        });
    }
    labels.into_iter().zip(run_specs(&specs)).collect()
}

/// Fig. 5: exit breakdown + TIG for send/receive TCP/UDP under
/// Baseline / PI / PI+H.
pub fn fig5(send: bool, udp: bool, params: Params, seed: u64) -> Vec<RunResult> {
    let quota = if udp {
        HybridParams::UDP_QUOTA
    } else {
        HybridParams::TCP_QUOTA
    };
    let np = match (send, udp) {
        (true, false) => NetperfSpec::tcp_send(1024),
        (true, true) => NetperfSpec::udp_send(1024),
        (false, false) => NetperfSpec::tcp_receive(1024),
        (false, true) => NetperfSpec::udp_receive(1024),
    };
    let specs: Vec<RunSpec> = [
        EventPathConfig::baseline(),
        EventPathConfig::pi(),
        EventPathConfig::pi_h(quota),
    ]
    .into_iter()
    .map(|cfg| RunSpec {
        cfg,
        topo: Topology::micro(),
        spec: WorkloadSpec::Netperf(np),
        params,
        seed,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::Idle,
    })
    .collect();
    run_specs(&specs)
}

/// The four configurations at the paper's TCP quota, multiplexed topology.
fn four_configs() -> [EventPathConfig; 4] {
    EventPathConfig::all_four(HybridParams::TCP_QUOTA)
}

/// Fig. 6: netperf TCP throughput, multiplexed cores, packet-size sweep.
pub fn fig6(send: bool, msg_bytes: u32, params: Params, seed: u64) -> Vec<RunResult> {
    let np = if send {
        NetperfSpec::tcp_send(msg_bytes).with_threads(4)
    } else {
        NetperfSpec::tcp_receive(msg_bytes)
    };
    let specs: Vec<RunSpec> = four_configs()
        .into_iter()
        .map(|cfg| RunSpec {
            cfg,
            topo: Topology::multiplexed(),
            spec: WorkloadSpec::Netperf(np),
            params,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        })
        .collect();
    run_specs(&specs)
}

/// Fig. 6 over a packet-size sweep: all `sizes.len() × 4` runs are
/// submitted to the executor as one batch so they parallelize across
/// sizes, not just configurations. Returns `(msg_bytes, four results)`
/// per size, identical to calling [`fig6`] per size.
pub fn fig6_sweep(
    send: bool,
    sizes: &[u32],
    params: Params,
    seed: u64,
) -> Vec<(u32, Vec<RunResult>)> {
    let mut specs = Vec::with_capacity(sizes.len() * 4);
    for &msg_bytes in sizes {
        let np = if send {
            NetperfSpec::tcp_send(msg_bytes).with_threads(4)
        } else {
            NetperfSpec::tcp_receive(msg_bytes)
        };
        for cfg in four_configs() {
            specs.push(RunSpec {
                cfg,
                topo: Topology::multiplexed(),
                spec: WorkloadSpec::Netperf(np),
                params,
                seed,
                faults: FaultPlan::none(),
                fill: WorkloadSpec::Idle,
            });
        }
    }
    let mut results = run_specs(&specs).into_iter();
    sizes
        .iter()
        .map(|&sz| (sz, results.by_ref().take(4).collect()))
        .collect()
}

/// Fig. 7: ping RTT under core multiplexing (Baseline, PI, PI+H+R — the
/// paper omits PI+H as polling has no effect on low-rate ping).
pub fn fig7(params: Params, seed: u64) -> Vec<RunResult> {
    let specs: Vec<RunSpec> = [
        EventPathConfig::baseline(),
        EventPathConfig::pi(),
        EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
    ]
    .into_iter()
    .map(|cfg| RunSpec {
        cfg,
        topo: Topology::multiplexed(),
        spec: WorkloadSpec::Ping,
        params,
        seed,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::Idle,
    })
    .collect();
    run_specs(&specs)
}

/// Fig. 8a: Memcached throughput, four configurations.
pub fn fig8_memcached(params: Params, seed: u64) -> Vec<RunResult> {
    let specs: Vec<RunSpec> = four_configs()
        .into_iter()
        .map(|cfg| RunSpec {
            cfg,
            topo: Topology::multiplexed(),
            spec: WorkloadSpec::Memcached,
            params,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        })
        .collect();
    run_specs(&specs)
}

/// Fig. 8b: Apache throughput, four configurations.
pub fn fig8_apache(params: Params, seed: u64) -> Vec<RunResult> {
    let specs: Vec<RunSpec> = four_configs()
        .into_iter()
        .map(|cfg| RunSpec {
            cfg,
            topo: Topology::multiplexed(),
            spec: WorkloadSpec::Apache,
            params,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        })
        .collect();
    run_specs(&specs)
}

/// Fig. 9: httperf mean connection time vs request rate, four
/// configurations.
pub fn fig9(rates: &[f64], params: Params, seed: u64) -> Vec<(f64, Vec<RunResult>)> {
    // Flatten rates × configurations into one batch so the executor
    // balances across all of them, then regroup per rate.
    let mut specs = Vec::with_capacity(rates.len() * 4);
    for &rate in rates {
        for cfg in four_configs() {
            specs.push(RunSpec {
                cfg,
                topo: Topology::multiplexed(),
                spec: WorkloadSpec::Httperf { rate },
                params,
                seed,
                faults: FaultPlan::none(),
                fill: WorkloadSpec::Idle,
            });
        }
    }
    let mut results = run_specs(&specs).into_iter();
    rates
        .iter()
        .map(|&rate| (rate, results.by_ref().take(4).collect()))
        .collect()
}

/// §VII applicability: SR-IOV direct device assignment.
///
/// Three interrupt paths over the assigned-VF device model:
/// * **legacy** — the hypervisor fields the VF's physical IRQ and injects
///   a virtual interrupt through the emulated LAPIC (delivery + EOI exits
///   remain, I/O-request exits are already gone — the inverse of
///   paravirtual);
/// * **VT-d PI** — interrupts posted straight to the guest, exit-less;
/// * **VT-d PI + redirection** — ES2's intelligent redirection on top,
///   removing the vCPU-scheduling latency.
///
/// Returns `(label, result)` for a micro exit-rate check (TCP send) and a
/// multiplexed ping latency check.
pub fn sriov(params: Params, seed: u64) -> Vec<(&'static str, RunResult, RunResult)> {
    let mut p = params;
    p.device = crate::params::DeviceKind::AssignedVf;
    let mut ping_p = p;
    ping_p.measure = ping_p.measure.max(SimDuration::from_secs(8));
    let send = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    let rows = [
        ("SR-IOV legacy", EventPathConfig::baseline()),
        ("SR-IOV + VT-d PI", EventPathConfig::pi()),
        (
            "SR-IOV + VT-d PI + R",
            EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
        ),
    ];
    // Two runs per row (micro exit-rate check, multiplexed ping check),
    // flattened into one batch of six.
    let mut specs = Vec::with_capacity(rows.len() * 2);
    for (_, cfg) in rows {
        specs.push(RunSpec {
            cfg,
            topo: Topology::micro(),
            spec: send,
            params: p,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        });
        specs.push(RunSpec {
            cfg,
            topo: Topology::multiplexed(),
            spec: WorkloadSpec::Ping,
            params: ping_p,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        });
    }
    let mut results = run_specs(&specs).into_iter();
    rows.into_iter()
        .map(|(label, _)| {
            let micro = results.next().expect("one micro run per row");
            let ping = results.next().expect("one ping run per row");
            (label, micro, ping)
        })
        .collect()
}

/// Ablation: redirection target-selection policies under the ping
/// latency workload (full ES2 otherwise). Returns `(label, result)` rows.
pub fn ablation_target_policy(params: Params, seed: u64) -> Vec<(&'static str, RunResult)> {
    use es2_core::{OfflinePolicy, TargetPolicy};
    let policies = [
        (
            "least-loaded+sticky (paper)",
            TargetPolicy::LeastLoadedSticky,
        ),
        ("least-loaded, no sticky", TargetPolicy::LeastLoadedNoSticky),
        ("random online", TargetPolicy::Random),
        ("first online", TargetPolicy::FirstOnline),
    ];
    let specs: Vec<RunSpec> = policies
        .iter()
        .map(|&(_, tp)| {
            let mut p = params;
            p.redirect_policies = Some((tp, OfflinePolicy::Head));
            RunSpec {
                cfg: EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
                topo: Topology::multiplexed(),
                spec: WorkloadSpec::Ping,
                params: p,
                seed,
                faults: FaultPlan::none(),
                fill: WorkloadSpec::Idle,
            }
        })
        .collect();
    policies
        .into_iter()
        .map(|(label, _)| label)
        .zip(run_specs(&specs))
        .collect()
}

/// Ablation: offline-list prediction policies (what to do when the whole
/// VM is descheduled).
pub fn ablation_offline_policy(params: Params, seed: u64) -> Vec<(&'static str, RunResult)> {
    use es2_core::{OfflinePolicy, TargetPolicy};
    let policies = [
        ("head: longest offline (paper)", OfflinePolicy::Head),
        ("tail: most recently offline", OfflinePolicy::Tail),
        ("keep affinity", OfflinePolicy::KeepAffinity),
    ];
    let specs: Vec<RunSpec> = policies
        .iter()
        .map(|&(_, op)| {
            let mut p = params;
            p.redirect_policies = Some((TargetPolicy::LeastLoadedSticky, op));
            RunSpec {
                cfg: EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
                topo: Topology::multiplexed(),
                spec: WorkloadSpec::Ping,
                params: p,
                seed,
                faults: FaultPlan::none(),
                fill: WorkloadSpec::Idle,
            }
        })
        .collect();
    policies
        .into_iter()
        .map(|(label, _)| label)
        .zip(run_specs(&specs))
        .collect()
}

/// Ablation: quota sensitivity for the macro Memcached workload (the
/// DESIGN.md "quota beyond Fig. 4" item).
pub fn ablation_mc_quota(params: Params, seed: u64, quotas: &[u32]) -> Vec<(u32, RunResult)> {
    let specs: Vec<RunSpec> = quotas
        .iter()
        .map(|&q| RunSpec {
            cfg: EventPathConfig::pi_h_r(q),
            topo: Topology::multiplexed(),
            spec: WorkloadSpec::Memcached,
            params,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        })
        .collect();
    quotas.iter().copied().zip(run_specs(&specs)).collect()
}

/// Fraction of routed interrupts that found every tested-VM vCPU offline.
fn offline_fraction(r: &RunResult) -> f64 {
    let total = r.redirections + r.offline_predictions;
    if total == 0 {
        0.0
    } else {
        r.offline_predictions as f64 / total as f64
    }
}

/// The vCPU-stacking statistic motivating §IV-C — the fraction of ping
/// interrupts that found no tested-VM vCPU online (the offline-prediction
/// rate) — swept over VM counts (1, 2, 3, 4 co-located four-vCPU VMs on
/// four cores): the denser the stacking, the more often the offline-list
/// prediction is what saves an interrupt's latency. §IV-C cites [Sukwong
/// & Kim, EuroSys'11]: with **two four-vCPU VMs on a four-core host** the
/// probability of vCPU stacking exceeds 40 % — the `2` row here (note the
/// statistic measured is the complementary all-offline fraction seen by
/// interrupts, which rises with the number of co-located VMs).
pub fn stacking_sweep(params: Params, seed: u64) -> Vec<(u32, f64)> {
    let specs: Vec<RunSpec> = (1..=4)
        .map(|n| RunSpec {
            cfg: EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
            topo: Topology {
                num_vms: n,
                vcpus_per_vm: 4,
            },
            spec: WorkloadSpec::Ping,
            params,
            seed,
            faults: FaultPlan::none(),
            fill: WorkloadSpec::Idle,
        })
        .collect();
    (1..=4)
        .zip(run_specs(&specs).iter().map(offline_fraction))
        .collect()
}

/// vCPUs per tenant in the `repro --scale` consolidation sweep: every
/// tenant is a two-vCPU VM and all vCPU threads time-share the first two
/// cores (the paper's §VI-D multiplexing pushed to fleet density), while
/// each VM keeps its dedicated vhost core.
pub const SCALE_VCPUS_PER_VM: u32 = 2;

/// Connection rate served by the single active tenant in the
/// consolidation sweep — far below the Fig. 9 saturation knee, so the
/// sweep measures event-path cost under density, not queueing collapse.
pub const SCALE_HTTPERF_RATE: f64 = 1000.0;

/// Names for the three scale configurations, in [`scale_specs`] order.
pub const SCALE_CONFIG_NAMES: [&str; 3] = ["baseline", "pi", "es2"];

/// The many-VM consolidation sweep (`repro --scale`) at one VM count:
/// VM 0 serves httperf while the other `num_vms - 1` tenants sit
/// HLT-idle, across {Baseline, PI, full ES2}. This is the scenario where
/// unconditionally re-armed periodic timers dominate the event count —
/// the host-side analogue of the redundant periodic notifications the
/// paper removes from the I/O event path.
pub fn scale_specs(num_vms: u32, mut params: Params, seed: u64) -> Vec<RunSpec> {
    params.num_cores = SCALE_VCPUS_PER_VM + num_vms;
    let topo = Topology {
        num_vms,
        vcpus_per_vm: SCALE_VCPUS_PER_VM,
    };
    [
        EventPathConfig::baseline(),
        EventPathConfig::pi(),
        EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
    ]
    .into_iter()
    .map(|cfg| RunSpec {
        cfg,
        topo,
        spec: WorkloadSpec::Httperf {
            rate: SCALE_HTTPERF_RATE,
        },
        params,
        seed,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::IdleQuiet,
    })
    .collect()
}

/// Per-tenant connection rate in the all-active consolidation cell —
/// lower than [`SCALE_HTTPERF_RATE`] because *every* tenant serves it
/// concurrently, keeping total offered load within the modeled host.
pub(crate) const SCALE_ACTIVE_RATE: f64 = 200.0;

/// The all-active companion to [`scale_specs`]: every tenant serves
/// httperf at `SCALE_ACTIVE_RATE` under full ES2, so event work is
/// spread across all VMs instead of concentrated on VM 0.
pub fn scale_active_spec(num_vms: u32, mut params: Params, seed: u64) -> RunSpec {
    params.num_cores = SCALE_VCPUS_PER_VM + num_vms;
    RunSpec {
        cfg: EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
        topo: Topology {
            num_vms,
            vcpus_per_vm: SCALE_VCPUS_PER_VM,
        },
        spec: WorkloadSpec::Httperf {
            rate: SCALE_ACTIVE_RATE,
        },
        params,
        seed,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::Httperf {
            rate: SCALE_ACTIVE_RATE,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Params {
        Params::fast_test()
    }

    #[test]
    fn smoke_baseline_tcp_send_runs() {
        let r = run_one(
            EventPathConfig::baseline(),
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
            fast(),
            1,
        );
        assert!(r.goodput_gbps > 0.0, "some traffic flowed: {r:?}");
        assert!(r.total_exit_rate() > 1_000.0, "baseline exits: {r:?}");
        assert!(r.tig_percent > 10.0 && r.tig_percent < 100.0);
    }

    #[test]
    fn smoke_full_es2_tcp_send_runs() {
        let r = run_one(
            EventPathConfig::pi_h_r(4),
            Topology::micro(),
            WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
            fast(),
            1,
        );
        assert!(r.goodput_gbps > 0.0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let spec = WorkloadSpec::Netperf(NetperfSpec::udp_send(256));
        let a = run_one(EventPathConfig::pi(), Topology::micro(), spec, fast(), 7);
        let b = run_one(EventPathConfig::pi(), Topology::micro(), spec, fast(), 7);
        assert_eq!(a.goodput_gbps, b.goodput_gbps);
        assert_eq!(a.kicks_total, b.kicks_total);
        assert_eq!(a.exits, b.exits);
    }
}
