//! UDP-sink arrivals, idle burns and engine event counts, each gated
//! exactly.
//!
//! On a single host the transmit that puts a packet on the wire to a UDP
//! sink counts its arrival then and there, instead of queueing an
//! `ArriveAtExt` event whose handler would only count it. The model must
//! not notice: the sink totals below were recorded with every arrival
//! still an event, on the paper's Fig. 4 UDP-256 cells and on the
//! `repro chaos` UDP cell, whose fault plan drops, duplicates and delays
//! packets on the wire.
//!
//! A vCPU that can never have application work burns in one open-ended
//! segment instead of a chain of 200 µs slices, each a queued `SegDone`.
//! The model must not notice either: the Fig. 6 cells below, whose
//! `Idle` fill VMs and netperf receiver burn that way, keep the model
//! quantities recorded with every slice still an event.
//!
//! The engine's own count, `RunResult::events_simulated`, is pinned apart
//! from those model quantities, so a change that removes events re-pins
//! only it and shows every model number unchanged.

use std::sync::OnceLock;

use es2_core::{EventPathConfig, HybridParams};
use es2_hypervisor::ExitReason;
use es2_sim::{FaultPlan, SimDuration};
use es2_testbed::experiments::{chaos_plan, run_specs, RunSpec};
use es2_testbed::{Params, RunResult, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

/// `repro`'s seed.
const SEED: u64 = 20170814;

/// `repro fig4 --fast`'s windows.
fn fig_params() -> Params {
    Params {
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(400),
        ..Params::default()
    }
}

/// A pinned cell: its name, spec, the UDP datagrams its sink received in
/// the window (`None` for the TCP cell) and its simulated event count.
struct Cell {
    name: &'static str,
    spec: RunSpec,
    received: Option<u64>,
    events: u64,
}

fn cell(
    name: &'static str,
    cfg: EventPathConfig,
    spec: WorkloadSpec,
    params: Params,
    faults: FaultPlan,
    received: Option<u64>,
    events: u64,
) -> Cell {
    let spec = RunSpec {
        cfg,
        topo: Topology::micro(),
        spec,
        params,
        seed: SEED,
        faults,
        fill: WorkloadSpec::Idle,
    };
    Cell {
        name,
        spec,
        received,
        events,
    }
}

/// The cells. Before UDP-sink arrivals were counted at transmit, the
/// three UDP cells simulated 206,279, 222,622 and 139,740 events: each
/// drop is exactly the arrivals their sinks counted without an event.
fn cells() -> Vec<Cell> {
    let udp = WorkloadSpec::Netperf(NetperfSpec::udp_send(256));
    let tcp = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    vec![
        cell(
            "fig4 udp-256 Baseline",
            EventPathConfig::baseline(),
            udp,
            fig_params(),
            FaultPlan::none(),
            Some(46_072),
            148_927,
        ),
        cell(
            "fig4 udp-256 PI+H q4",
            EventPathConfig::pi_h(4),
            udp,
            fig_params(),
            FaultPlan::none(),
            Some(53_015),
            156_366,
        ),
        cell(
            "chaos udp-send/PI+H",
            EventPathConfig::pi_h(4),
            udp,
            Params::fast_test(),
            chaos_plan(),
            Some(34_780),
            99_130,
        ),
        cell(
            "table1 tcp-send Baseline",
            EventPathConfig::baseline(),
            tcp,
            fig_params(),
            FaultPlan::none(),
            None,
            247_865,
        ),
    ]
}

/// Every cell run once, through the sweep executor.
fn runs() -> &'static [(Cell, RunResult)] {
    static RUNS: OnceLock<Vec<(Cell, RunResult)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let cells = cells();
        let specs: Vec<RunSpec> = cells.iter().map(|c| c.spec).collect();
        cells.into_iter().zip(run_specs(&specs)).collect()
    })
}

#[test]
fn udp_sink_totals_match_the_event_path() {
    for (c, r) in runs() {
        let Some(received) = c.received else { continue };
        let secs = c.spec.params.measure.as_secs_f64();
        // `RunResult::collect`'s goodput formula over the pinned count.
        let goodput = received as f64 * 256.0 * 8.0 / secs / 1e9;
        assert_eq!(r.goodput_gbps, goodput, "{}: sink total moved", c.name);
    }
    let (chaos, r) = &runs()[2];
    let f = r.fault_stats;
    assert!(
        f.pkts_dropped > 0 && f.pkts_duplicated > 0 && f.pkts_reordered > 0,
        "{}: the plan must drop, duplicate and delay packets: {f:?}",
        chaos.name
    );
}

#[test]
fn events_simulated_is_pinned() {
    for (c, r) in runs() {
        assert_eq!(r.events_simulated, c.events, "{}", c.name);
    }
}

/// A Fig. 6 cell (`repro fig6` at `fig_params`): VM 0 runs netperf on
/// 4 VMs × 4 vCPUs time-sharing four cores, and VMs 1–3 are `Idle`
/// fills. Every fill vCPU burns open-ended, and so does every vCPU of a
/// receiving VM 0 and every sender vCPU past the sender's threads.
struct IdleFill {
    name: &'static str,
    spec: RunSpec,
    /// Model quantities, recorded with every burn slice still an event:
    /// goodput (Gb/s), time in guest (%), host context switches, VM 0's
    /// exits, kicks, RX interrupts and redirections.
    model: (f64, f64, u64, u64, u64, u64, u64),
    /// Events simulated (`events_simulated` read 200,500 and 179,483
    /// with every slice still an event).
    events: u64,
}

fn idle_fill_cells() -> Vec<IdleFill> {
    let fig6 = |cfg, np| RunSpec {
        cfg,
        topo: Topology::multiplexed(),
        spec: WorkloadSpec::Netperf(np),
        params: fig_params(),
        seed: SEED,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::Idle,
    };
    vec![
        IdleFill {
            name: "fig6 tcp-send 1024 PI+H+R",
            spec: fig6(
                EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
                NetperfSpec::tcp_send(1024).with_threads(4),
            ),
            model: (
                0.52535296,
                24.498624999999997,
                10_732,
                2_793,
                2_710,
                7_698,
                5_665,
            ),
            events: 192_317,
        },
        IdleFill {
            name: "fig6 tcp-receive 1024 Baseline",
            spec: fig6(EventPathConfig::baseline(), NetperfSpec::tcp_receive(1024)),
            model: (0.43606016, 24.583750000000002, 406, 6_033, 77, 5_550, 0),
            events: 168_958,
        },
    ]
}

/// The model of each Fig. 6 cell is unchanged, and its event count is
/// pinned: one queued `SegDone` for an idle vCPU's burn would raise it.
/// Debug builds also assert, whenever a segment's clock starts, that a
/// burn is open exactly when its vCPU's burns are.
#[test]
fn idle_burns_keep_the_model_and_queue_no_completions() {
    let cells = idle_fill_cells();
    let specs: Vec<RunSpec> = cells.iter().map(|c| c.spec).collect();
    for (c, r) in cells.iter().zip(run_specs(&specs)) {
        let exits = ExitReason::all().iter().map(|&e| r.exits.total(e)).sum();
        let model = (
            r.goodput_gbps,
            r.tig_percent,
            r.host_ctx_switches,
            exits,
            r.kicks_total,
            r.rx_interrupts_total,
            r.redirections,
        );
        assert_eq!(model, c.model, "{}: model moved", c.name);
        assert_eq!(r.events_simulated, c.events, "{}", c.name);
    }
}
