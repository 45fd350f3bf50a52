//! Cross-crate integration: ES2's policies driving the hypervisor and
//! virtio substrates directly (no testbed, no clock) — the contract each
//! piece must honour for the full simulation to be meaningful.

use es2_core::{EventPathConfig, HybridHandler, HybridParams, PollDecision, RedirectionEngine};
use es2_hypervisor::{DeliveryOutcome, InterruptPath, Vcpu};
use es2_virtio::{KickDecision, Virtqueue};

/// The full guest→host direction: a guest enqueues requests, the hybrid
/// handler serves them without losing one, and notification suppression
/// keeps the kicks (I/O-instruction exits) far below the requests.
#[test]
fn guest_to_host_direction_end_to_end() {
    let mut vq: Virtqueue<u32> = Virtqueue::new(256);
    let mut handler = HybridHandler::new(HybridParams::with_quota(4));
    let mut vcpu = Vcpu::new(InterruptPath::Posted);
    vcpu.sched_in();
    vcpu.vm_entry();

    let mut kicks = 0u32;
    let mut served = 0u32;
    // The guest produces 10 rounds of 5 requests; the handler keeps up
    // with quota-4 turns.
    for round in 0..10u32 {
        for i in 0..5 {
            if vq.driver_add(round * 5 + i).unwrap() == KickDecision::Kick {
                // A kick is an I/O-instruction exit on the vCPU.
                vcpu.vm_exit();
                vcpu.vm_entry();
                kicks += 1;
            }
        }
        // The vhost worker gives the handler turns until it stops asking.
        loop {
            handler.begin_turn(&mut vq);
            let mut requeue = false;
            loop {
                match handler.poll_next(&mut vq) {
                    PollDecision::Process(_) => served += 1,
                    PollDecision::QuotaExhausted => {
                        requeue = true;
                        break;
                    }
                    PollDecision::Drained => break,
                }
            }
            if !requeue {
                break;
            }
        }
    }
    assert_eq!(served, 50, "no request lost across turns");
    // Once the first turn disabled notifications, same-round refills were
    // silent: far fewer kicks than requests.
    assert!(kicks <= 10, "kicks={kicks}");
}

/// The host→guest direction under redirection: the engine picks an online
/// vCPU, posted delivery stays exit-less, and the engine's bookkeeping
/// matches what the vCPUs took.
#[test]
fn host_to_guest_direction_with_redirection() {
    let mut vcpus: Vec<Vcpu> = (0..4).map(|_| Vcpu::new(InterruptPath::Posted)).collect();
    let mut engine = RedirectionEngine::new(1, 4);

    // vCPUs 1 and 2 are online and in guest mode.
    for i in [1u32, 2] {
        vcpus[i as usize].sched_in();
        vcpus[i as usize].vm_entry();
        engine.sched_in(0, i);
    }

    let mut by_vcpu = [0u64; 4];
    for n in 0..20 {
        // The affinity destination is offline vCPU 0.
        let target = engine.select_target(0, 0x41, 0) as usize;
        assert!(
            target == 1 || target == 2,
            "round {n}: routed to offline vCPU {target}"
        );
        let outcome = vcpus[target].deliver(0x41);
        assert!(
            matches!(
                outcome,
                DeliveryOutcome::PiNotify | DeliveryOutcome::PiPosted
            ),
            "posted path only"
        );
        // Hardware sync + exit-less handling.
        let v = &mut vcpus[target];
        v.pi_notification_sync();
        while let Some(vec) = v.take_posted_interrupt() {
            assert_eq!(vec, 0x41);
            by_vcpu[target] += 1;
            v.eoi();
        }
    }
    // All 20 interrupts were handled by the online pair.
    assert_eq!(by_vcpu.iter().sum::<u64>(), 20);
    assert_eq!(engine.redirection_count(), 20);
    // Stickiness: a single target served everything until descheduled.
    assert!(by_vcpu.contains(&20), "sticky target expected: {by_vcpu:?}");
}

/// Sticky targets hand over cleanly at deschedule, and the whole-VM-offline
/// case falls back to the offline-head prediction, which the hypervisor
/// delivers via the pending-entry path.
#[test]
fn deschedule_handover_and_offline_prediction() {
    let mut vcpus: Vec<Vcpu> = (0..2).map(|_| Vcpu::new(InterruptPath::Posted)).collect();
    let mut engine = RedirectionEngine::new(1, 2);
    // A device interrupt whose affinity destination is vCPU 0.
    let route = |engine: &mut RedirectionEngine| engine.select_target(0, 0x41, 0);

    // vCPU 1 online: it is the sticky target.
    vcpus[1].sched_in();
    vcpus[1].vm_entry();
    engine.sched_in(0, 1);
    assert_eq!(route(&mut engine), 1);

    // vCPU 1 descheduled, vCPU 0 comes online: target hands over.
    vcpus[1].vm_exit();
    vcpus[1].sched_out();
    engine.sched_out(0, 1);
    vcpus[0].sched_in();
    vcpus[0].vm_entry();
    engine.sched_in(0, 0);
    assert_eq!(route(&mut engine), 0);

    // Whole VM offline: prediction picks the head (vCPU 1, offline
    // longest), and delivery parks in its PI descriptor until entry.
    vcpus[0].vm_exit();
    vcpus[0].sched_out();
    engine.sched_out(0, 0);
    let t = route(&mut engine);
    assert_eq!(t, 1, "offline-head prediction");
    assert_eq!(vcpus[1].deliver(0x41), DeliveryOutcome::PiPosted);
    // When it finally runs, the entry sync delivers without any exit.
    vcpus[1].sched_in();
    vcpus[1].vm_entry();
    assert_eq!(vcpus[1].take_posted_interrupt(), Some(0x41));
}

/// Baseline (emulated) and ES2 configurations agree on *what* is delivered
/// even though they disagree on *how much it costs* — conservation of
/// interrupts across the two paths.
#[test]
fn emulated_and_posted_paths_deliver_the_same_set() {
    let vectors = [0x41u8, 0x52, 0x63, 0x41, 0x74];
    for path in [InterruptPath::Emulated, InterruptPath::Posted] {
        let mut vcpu = Vcpu::new(path);
        vcpu.sched_in();
        let mut handled = Vec::new();
        for &v in &vectors {
            if vcpu.in_guest {
                vcpu.vm_exit();
            }
            vcpu.deliver(v);
            match vcpu.vm_entry() {
                Some(injected) => {
                    handled.push(injected);
                    vcpu.eoi();
                }
                None => {
                    vcpu.pi_notification_sync();
                    while let Some(x) = vcpu.take_posted_interrupt() {
                        handled.push(x);
                        vcpu.eoi();
                    }
                }
            }
        }
        handled.sort_unstable();
        // 0x41 was delivered twice but coalesces while pending — both
        // paths drop the duplicate identically when back-to-back.
        let mut expected: Vec<u8> = vectors.to_vec();
        expected.sort_unstable();
        assert_eq!(handled, expected, "{path:?}");
    }
}

/// The four canonical configurations expose exactly the paper's feature
/// matrix.
#[test]
fn config_feature_matrix() {
    let quota = HybridParams::TCP_QUOTA;
    let table = [
        (EventPathConfig::baseline(), false, false, false),
        (EventPathConfig::pi(), true, false, false),
        (EventPathConfig::pi_h(quota), true, true, false),
        (EventPathConfig::pi_h_r(quota), true, true, true),
    ];
    for (cfg, pi, hybrid, redirect) in table {
        assert_eq!(cfg.use_pi, pi, "{}", cfg.label());
        assert_eq!(cfg.hybrid.is_some(), hybrid, "{}", cfg.label());
        assert_eq!(cfg.redirect, redirect, "{}", cfg.label());
    }
}
