//! Integration tests asserting the *shapes* of the paper's results.
//!
//! These drive the full stack — DES engine, CFS scheduler, virtio rings,
//! vhost worker, exit machinery, ES2 policies, workload generators — and
//! check the qualitative claims of each table/figure: who wins, what gets
//! eliminated, where the orderings fall. Absolute rates are checked only
//! within wide calibration bands (this is a simulator, not the authors'
//! testbed).

use es2_core::{EventPathConfig, HybridParams};
use es2_hypervisor::ExitReason;
use es2_sim::SimDuration;
use es2_testbed::{experiments, Params, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

fn fast() -> Params {
    let mut p = Params::fast_test();
    p.warmup = SimDuration::from_millis(100);
    p.measure = SimDuration::from_millis(400);
    p
}

const SEED: u64 = 20170814;

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

#[test]
fn table1_pi_eliminates_interrupt_exits_but_not_io_exits() {
    let runs = experiments::table1(fast(), SEED);
    let (base, pi) = (&runs[0], &runs[1]);

    // Baseline: all three I/O event-path exit classes present.
    assert!(
        base.rate(ExitReason::ExternalInterrupt) > 1_000.0,
        "{base:?}"
    );
    assert!(base.rate(ExitReason::ApicAccess) > 1_000.0);
    assert!(base.rate(ExitReason::IoInstruction) > 10_000.0);

    // "Interrupt delivery incurs less VM exits than interrupt completion."
    assert!(base.rate(ExitReason::ExternalInterrupt) < base.rate(ExitReason::ApicAccess));

    // PI: interrupt-related exits eliminated; I/O-request exits remain the
    // (now only) major source.
    assert_eq!(pi.rate(ExitReason::ExternalInterrupt), 0.0);
    assert_eq!(pi.rate(ExitReason::ApicAccess), 0.0);
    assert!(pi.rate(ExitReason::IoInstruction) > 10_000.0);

    // I/O requests are a major share (paper: 53.6%) of baseline exits.
    let io_share = base.rate(ExitReason::IoInstruction) / base.total_exit_rate();
    assert!(io_share > 0.35, "io share {io_share}");
}

// ---------------------------------------------------------------------
// Fig. 4 — quota selection
// ---------------------------------------------------------------------

#[test]
fn fig4_udp_polling_knee_at_the_papers_quota() {
    let p = fast();
    let baseline = experiments::run_one(
        EventPathConfig::pi(),
        Topology::micro(),
        WorkloadSpec::Netperf(NetperfSpec::udp_send(256)),
        p,
        SEED,
    );
    let q8 = experiments::fig4_point(true, 256, HybridParams::UDP_QUOTA, p, SEED);
    let q64 = experiments::fig4_point(true, 256, 64, p, SEED);

    // At the paper's quota the I/O-instruction exits all but disappear...
    assert!(
        q8.io_exit_rate() < baseline.io_exit_rate() / 4.0,
        "quota 8: {} vs stock {}",
        q8.io_exit_rate(),
        baseline.io_exit_rate()
    );
    // ...while a large quota behaves like stock notification.
    assert!(q64.io_exit_rate() > q8.io_exit_rate());
    // And polling does not cost throughput at the selected quota.
    assert!(q8.goodput_gbps >= baseline.goodput_gbps * 0.9);
}

#[test]
fn fig4_smaller_quota_means_fewer_exits_but_more_switching() {
    let p = fast();
    let q2 = experiments::fig4_point(true, 256, 2, p, SEED);
    let q8 = experiments::fig4_point(true, 256, 8, p, SEED);
    assert!(q2.io_exit_rate() <= q8.io_exit_rate() + 500.0);
    // "a value too low may lead to frequent switches": throughput pays.
    assert!(q2.goodput_gbps < q8.goodput_gbps);
}

// ---------------------------------------------------------------------
// Fig. 5 — TIG
// ---------------------------------------------------------------------

#[test]
fn fig5_tig_improves_monotonically_for_tcp_send() {
    let runs = experiments::fig5(true, false, fast(), SEED);
    let tig: Vec<f64> = runs.iter().map(|r| r.tig_percent).collect();
    assert!(tig[0] < tig[1], "PI must beat Baseline: {tig:?}");
    assert!(tig[1] < tig[2], "PI+H must beat PI: {tig:?}");
    assert!(tig[2] > 93.0, "PI+H keeps TIG high: {tig:?}");
    assert!(tig[0] < 90.0, "Baseline pays for its exits: {tig:?}");
}

#[test]
fn fig5_udp_send_reaches_near_full_tig_under_pih() {
    let runs = experiments::fig5(true, true, fast(), SEED);
    let pih = &runs[2];
    assert!(
        pih.tig_percent > 98.0,
        "paper: 99.7% — got {}",
        pih.tig_percent
    );
    assert!(
        pih.total_exit_rate() < 10_000.0,
        "short-window residual: {}",
        pih.total_exit_rate()
    );
}

#[test]
fn fig5_receive_interrupt_exits_dominate_baseline() {
    let runs = experiments::fig5(false, false, fast(), SEED);
    let base = &runs[0];
    let int_exits = base.rate(ExitReason::ExternalInterrupt) + base.rate(ExitReason::ApicAccess);
    assert!(
        int_exits > base.rate(ExitReason::IoInstruction),
        "receive is interrupt-dominated: {base:?}"
    );
    // PI eliminates them.
    assert_eq!(runs[1].rate(ExitReason::ApicAccess), 0.0);
}

// ---------------------------------------------------------------------
// Fig. 6 / Fig. 8 — throughput orderings
// ---------------------------------------------------------------------

#[test]
fn fig6a_full_es2_roughly_doubles_send_throughput() {
    let runs = experiments::fig6(true, 1024, fast(), SEED);
    let g: Vec<f64> = runs.iter().map(|r| r.goodput_gbps).collect();
    assert!(g[3] > 1.6 * g[0], "paper: ~2x — got {g:?}");
    assert!(g[3] >= g[2], "redirection must not hurt: {g:?}");
}

#[test]
fn fig8a_memcached_full_es2_beats_baseline_strongly() {
    let runs = experiments::fig8_memcached(fast(), SEED);
    let ops: Vec<f64> = runs.iter().map(|r| r.ops_per_sec).collect();
    assert!(ops[3] > 1.4 * ops[0], "paper: ~1.8x — got {ops:?}");
}

// ---------------------------------------------------------------------
// Fig. 7 — latency
// ---------------------------------------------------------------------

#[test]
fn fig7_redirection_flattens_ping_rtt() {
    let mut p = fast();
    p.measure = SimDuration::from_secs(8);
    let runs = experiments::fig7(p, SEED);
    let base = &runs[0];
    let es2 = &runs[2];
    assert!(base.rtt_series.len() >= 5);
    assert!(
        es2.mean_rtt_ms() < base.mean_rtt_ms() / 2.0,
        "base {} ms vs es2 {} ms",
        base.mean_rtt_ms(),
        es2.mean_rtt_ms()
    );
    assert!(base.max_rtt_ms() > 5.0, "baseline shows scheduling peaks");
}

// ---------------------------------------------------------------------
// Fig. 9 — connection time knee
// ---------------------------------------------------------------------

#[test]
fn fig9_es2_sustains_higher_connection_rates() {
    let mut p = fast();
    p.measure = SimDuration::from_millis(800);
    let sweep = experiments::fig9(&[2200.0], p, SEED);
    let (_, runs) = &sweep[0];
    let base = &runs[0];
    let es2 = &runs[3];
    assert!(
        es2.mean_conn_time_ms < base.mean_conn_time_ms,
        "at 2.2k req/s the baseline is past its knee: base {} vs es2 {}",
        base.mean_conn_time_ms,
        es2.mean_conn_time_ms
    );
}

// ---------------------------------------------------------------------
// Ablations and invariants
// ---------------------------------------------------------------------

#[test]
fn redirection_only_touches_device_vectors() {
    // Full ES2 with ping: every redirected interrupt must be a device
    // vector; timer deliveries never move (the run would crash the guest
    // otherwise — here: accounting mismatch).
    let mut p = fast();
    p.measure = SimDuration::from_secs(4);
    let r = experiments::run_one(
        EventPathConfig::pi_h_r(4),
        Topology::multiplexed(),
        WorkloadSpec::Ping,
        p,
        SEED,
    );
    // Timer interrupts run constantly; if they were routed through the
    // engine they would show up as thousands of redirections.
    assert!(
        r.redirections + r.offline_predictions <= r.rtt_series.len() as u64 + 8,
        "only ping echoes may be redirected: {r:?}"
    );
}

#[test]
fn runs_are_deterministic_per_seed_across_configs() {
    for cfg in EventPathConfig::all_four(4) {
        let spec = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
        let a = experiments::run_one(cfg, Topology::micro(), spec, fast(), 99);
        let b = experiments::run_one(cfg, Topology::micro(), spec, fast(), 99);
        assert_eq!(a.goodput_gbps, b.goodput_gbps, "{}", cfg.label());
        assert_eq!(a.exits, b.exits);
        assert_eq!(a.kicks_total, b.kicks_total);
    }
}

#[test]
fn different_seeds_change_details_but_not_orderings() {
    let spec = WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024));
    for seed in [1u64, 2, 3] {
        let base = experiments::run_one(
            EventPathConfig::baseline(),
            Topology::micro(),
            spec,
            fast(),
            seed,
        );
        let es2 = experiments::run_one(
            EventPathConfig::pi_h_r(4),
            Topology::micro(),
            spec,
            fast(),
            seed,
        );
        assert!(
            es2.total_exit_rate() < base.total_exit_rate() / 2.0,
            "seed {seed}: {} vs {}",
            es2.total_exit_rate(),
            base.total_exit_rate()
        );
        assert!(es2.tig_percent > base.tig_percent, "seed {seed}");
    }
}

#[test]
fn offline_head_prediction_beats_tail_prediction() {
    use es2_core::{OfflinePolicy, TargetPolicy};
    let mut p = fast();
    p.measure = SimDuration::from_secs(8);
    let mut head = p;
    head.redirect_policies = Some((TargetPolicy::LeastLoadedSticky, OfflinePolicy::Head));
    let mut tail = p;
    tail.redirect_policies = Some((TargetPolicy::LeastLoadedSticky, OfflinePolicy::Tail));
    let rh = experiments::run_one(
        EventPathConfig::pi_h_r(4),
        Topology::multiplexed(),
        WorkloadSpec::Ping,
        head,
        SEED,
    );
    let rt = experiments::run_one(
        EventPathConfig::pi_h_r(4),
        Topology::multiplexed(),
        WorkloadSpec::Ping,
        tail,
        SEED,
    );
    // Head = "offline longest ⇒ runs soonest" should not lose to the
    // pessimal tail pick (allow equality: with few offline events both
    // may see only online hits).
    assert!(
        rh.mean_rtt_ms() <= rt.mean_rtt_ms() + 0.5,
        "head {} vs tail {}",
        rh.mean_rtt_ms(),
        rt.mean_rtt_ms()
    );
}

#[test]
fn udp_receive_overload_drops_at_the_host_backlog() {
    let r = experiments::run_one(
        EventPathConfig::baseline(),
        Topology::micro(),
        WorkloadSpec::Netperf(NetperfSpec::udp_receive(1024)),
        fast(),
        SEED,
    );
    assert!(r.backlog_drops > 0, "the source must overwhelm the path");
    assert!(r.goodput_gbps > 0.5, "but plenty still gets through");
}
