//! UDP-sink arrivals and engine event counts, each gated exactly.
//!
//! On a single host the transmit that puts a packet on the wire to a UDP
//! sink counts its arrival then and there, instead of queueing an
//! `ArriveAtExt` event whose handler would only count it. The model must
//! not notice: the sink totals below were recorded with every arrival
//! still an event, on the paper's Fig. 4 UDP-256 cells and on the
//! `repro chaos` UDP cell, whose fault plan drops, duplicates and delays
//! packets on the wire.
//!
//! The engine's own count, `RunResult::events_simulated`, is pinned apart
//! from those model quantities, so a change that removes events re-pins
//! only it and shows every model number unchanged.

use std::sync::OnceLock;

use es2_core::EventPathConfig;
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
