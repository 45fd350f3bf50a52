//! The flattened global job list must be a pure reordering of work, not
//! a change to it: running every figure's specs through one flattened
//! grid yields bitwise the results of the old per-figure sweeps, at any
//! thread count.

use es2_core::{EventPathConfig, HybridParams};
use es2_sim::{FaultPlan, SimDuration};
use es2_testbed::experiments::{run_specs, RunSpec};
use es2_testbed::{Params, RunResult, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

fn tiny_params() -> Params {
    Params {
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(60),
        ..Params::default()
    }
}

fn spec(cfg: EventPathConfig, topo: Topology, spec: WorkloadSpec, params: Params) -> RunSpec {
    RunSpec {
        cfg,
        topo,
        spec,
        params,
        seed: es2_bench::SEED,
        faults: FaultPlan::none(),
        fill: WorkloadSpec::Idle,
    }
}

/// Fig. 4: UDP send on the micro topology, Baseline then PI+H at each
/// quota.
fn specs_fig4(params: Params) -> Vec<RunSpec> {
    let np = WorkloadSpec::Netperf(NetperfSpec::udp_send(256));
    let mut specs = vec![spec(
        EventPathConfig::baseline(),
        Topology::micro(),
        np,
        params,
    )];
    for quota in [64u32, 32, 16, 8, 4, 2] {
        specs.push(spec(
            EventPathConfig::pi_h(quota),
            Topology::micro(),
            np,
            params,
        ));
    }
    specs
}

/// Fig. 6: four-thread TCP send per message size, all four configs.
fn specs_fig6(params: Params, sizes: &[u32]) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &bytes in sizes {
        for cfg in EventPathConfig::all_four(HybridParams::TCP_QUOTA) {
            let np = NetperfSpec::tcp_send(bytes).with_threads(4);
            specs.push(spec(
                cfg,
                Topology::multiplexed(),
                WorkloadSpec::Netperf(np),
                params,
            ));
        }
    }
    specs
}

/// Fig. 9: httperf per connection rate, all four configs.
fn specs_fig9(params: Params, rates: &[f64]) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &rate in rates {
        for cfg in EventPathConfig::all_four(HybridParams::TCP_QUOTA) {
            specs.push(spec(
                cfg,
                Topology::multiplexed(),
                WorkloadSpec::Httperf { rate },
                params,
            ));
        }
    }
    specs
}

/// Render results to their full Debug form — every field participates,
/// so equality here is bitwise equality of the result structs.
fn fingerprints(results: &[RunResult]) -> Vec<String> {
    results.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn flattened_grid_matches_per_figure_sweeps_at_any_thread_count() {
    let params = tiny_params();
    let figures = [
        specs_fig4(params),
        specs_fig6(params, &[256]),
        specs_fig9(params, &[1000.0, 2200.0]),
    ];
    assert!(
        figures.iter().map(Vec::len).sum::<usize>() >= 15,
        "grid too small to exercise work stealing"
    );

    // Reference: the old shape — each figure swept on its own, serial.
    es2_sim::exec::set_threads(Some(1));
    let mut per_figure: Vec<String> = Vec::new();
    for specs in &figures {
        per_figure.extend(fingerprints(&run_specs(specs)));
    }

    let flat: Vec<_> = figures
        .iter()
        .flat_map(|specs| specs.iter().copied())
        .collect();

    // Flattened, still serial: ordering bookkeeping only.
    let flat_serial = fingerprints(&run_specs(&flat));
    assert_eq!(per_figure, flat_serial, "flattening changed serial results");

    // Flattened at the default thread count: the work-stealing executor
    // must reassemble identical results in input order.
    es2_sim::exec::set_threads(None);
    let flat_parallel = fingerprints(&run_specs(&flat));
    es2_sim::exec::set_threads(Some(1));
    assert_eq!(
        per_figure, flat_parallel,
        "flattened parallel sweep diverged from per-figure serial sweeps"
    );
}
