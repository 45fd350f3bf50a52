//! The simulated testbed machine: event loop, scheduling glue, VM exits.
//!
//! One [`Machine`] is the full §VI-A testbed: an 8-core host running
//! `num_vms` VMs (each with its vCPU threads and a vhost worker thread
//! under the CFS model), a back-to-back 40 GbE link, and the external
//! traffic-generator server. A run is a pure function of
//! `(config, topology, workload, params, seed)`.
//!
//! Execution model: every host thread executes a sequence of **segments**
//! (typed spans of work). Segment completions, timer ticks, IPIs and wire
//! arrivals are the events. Preempted segments save their remaining time
//! and resume later (lazy invalidation via generation tokens). vCPU
//! segments are either *guest mode* (app work, interrupt handlers, burn
//! loops) or *root mode* (VM-exit handling), and the transitions between
//! the two are exactly the paper's event-path operations.

use es2_apic::vectors::LOCAL_TIMER_VECTOR;
use es2_apic::Vector;
use es2_core::{EventPathConfig, HybridHandler, RedirectionEngine};
use es2_hypervisor::{
    exit_cost, DeliveryOutcome, ExitReason, InterruptPath, Vcpu, IPI_SEND, PI_NOTIFICATION,
};
use es2_net::{Link, NicQueue, Packet, PacketFactory};
use es2_sched::{CfsScheduler, CoreId, Switch, ThreadId, ThreadState};
use es2_sim::{
    DeliveryFault, EventQueue, FaultInjector, FaultPlan, GenToken, RingCorruptionKind, SimDuration,
    SimRng, SimTime,
};
use es2_virtio::{HandlerId, VhostPool, Virtqueue};

use crate::params::{
    Params, BURN_SLICE, CTX_SWITCH, GUEST_RTO_CHECK, GUEST_TIMER_PERIOD, RING_SIZE,
    SCHED_TICK_NOISE, WATCHDOG_PERIOD,
};
use crate::results::RunResult;
use crate::telemetry::{KickOrigin, MsiOrigin};
use crate::workload::{AppRequest, GuestWl, WorkloadSpec};

/// Placement of VMs onto the host.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// Number of VMs.
    pub num_vms: u32,
    /// vCPUs per VM. vCPU `j` of every VM is pinned to core `j`, so VMs
    /// *time-share* the first `vcpus_per_vm` cores (the paper's §VI-D
    /// setup); vhost workers run on the remaining cores.
    pub vcpus_per_vm: u32,
}

impl Topology {
    /// The 1-vCPU micro-benchmark setup (§VI-B/C): one VM, one vCPU.
    pub fn micro() -> Self {
        Topology {
            num_vms: 1,
            vcpus_per_vm: 1,
        }
    }

    /// The multiplexed setup (§VI-D/E): "four VMs were created to
    /// time-share four physical cores", 4 vCPUs each.
    pub fn multiplexed() -> Self {
        Topology {
            num_vms: 4,
            vcpus_per_vm: 4,
        }
    }
}

// ---------------------------------------------------------------------
// Internal types
// ---------------------------------------------------------------------

/// Role of a host thread.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Body {
    /// A vCPU thread.
    Vcpu { vm: u32, idx: u32 },
    /// vhost worker `w` of the VM's backend pool.
    Vhost { vm: u32, w: u32 },
}

/// A span of typed work with its remaining duration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Segment {
    pub(crate) kind: SegKind,
    pub(crate) remaining: SimDuration,
}

/// What a segment does when it completes.
///
/// `repr(u32)`, as [`Ev`]: each field sits at an offset of its own width,
/// so a segment built at its call site reaches its thread's slot without
/// being re-packed at odd offsets behind a one-byte tag (DESIGN.md §8).
#[derive(Clone, Copy, Debug)]
#[repr(u32)]
pub(crate) enum SegKind {
    /// Guest CPU-burn script (lowest-priority guest work): one
    /// `BURN_SLICE`, after which the vCPU polls for application work.
    Burn,
    /// The burn script of a vCPU that can never have application work
    /// ([`VmState::burns_open`]). Its slice boundaries change nothing, so
    /// it is one open-ended segment that queues no completion.
    /// `remaining` is the time to its next virtual `BURN_SLICE` boundary
    /// ([`open_burn_remaining`]), the phase the evented chain keeps.
    OpenBurn,
    /// Guest application work.
    App(AppStep),
    /// Guest interrupt handler.
    Irq(IrqKind),
    /// Hardware posted-interrupt notification processing (guest mode).
    PiSync,
    /// Root-mode VM-exit handling.
    Exit {
        /// Retained for tracing/debug dumps.
        #[allow(dead_code)]
        reason: ExitReason,
        then: AfterExit,
    },
    /// vhost worker: handler dispatch overhead.
    VhostDispatch { h: HandlerId },
    /// vhost worker: transmit one packet.
    VhostTxPkt { pkt: Packet },
    /// vhost worker: receive one packet into the guest.
    VhostRxPkt { pkt: Packet },
}

/// Guest application step.
#[derive(Clone, Copy, Debug)]
pub(crate) enum AppStep {
    /// Produce `count` TCP messages on a flow (`segs` segments each).
    /// `count > 1` models softirq/socket batching bursts.
    TcpMsg {
        flow: u32,
        segs: u32,
        payload: u32,
        count: u32,
    },
    /// Produce `count` UDP datagrams.
    UdpMsg { segs: u32, payload: u32, count: u32 },
    /// Serve one application request.
    Serve { req: AppRequest },
}

/// Guest interrupt-handler kinds.
#[derive(Clone, Copy, Debug)]
pub(crate) enum IrqKind {
    /// NAPI receive poll of `batch` packets.
    Rx { vector: Vector, batch: u32 },
    /// TX-completion cleanup for the queue raising `vector`.
    TxClean { vector: Vector },
    /// Guest local-timer handler.
    Timer,
}

/// What to do when a root-mode exit segment finishes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum AfterExit {
    /// Plain re-entry (kick and external-interrupt exits; any injection
    /// happens at entry).
    Resume,
    /// EOI emulation, then re-entry.
    Eoi,
    /// A spurious EOI write from an EOI storm (hostile guest): no
    /// in-service interrupt to complete, possibly more writes to chain.
    SpuriousEoi,
}

pub(crate) struct ThreadInfo {
    pub(crate) body: Body,
    /// Active (if running) or saved (if preempted) segment.
    pub(crate) seg: Option<Segment>,
    pub(crate) seg_started: SimTime,
    pub(crate) gen: GenToken,
}

/// Per-vCPU guest-context bookkeeping.
#[derive(Default)]
pub(crate) struct VcpuCtx {
    /// Segments interrupted by IRQs, to resume after EOI (a stack: higher
    /// priority classes can nest).
    pub(crate) stack: Vec<Segment>,
    /// Virtqueue kicks that became due during IRQ context, performed
    /// (one I/O-instruction exit each) after EOI. Distinct queues can
    /// both require kicks in one NAPI pass (ACK send + RX refill).
    pub(crate) pending_kicks: Vec<HandlerId>,
    /// The last VM exit left caches cold; the next application step pays
    /// the refill penalty.
    pub(crate) cache_cold: bool,
    /// Spurious doorbell kicks (hostile kick storm) still to perform —
    /// each drains as one more I/O-instruction exit charged to this vCPU.
    pub(crate) pending_storm_kicks: u32,
    /// Spurious EOI writes (hostile EOI storm) still to perform on the
    /// emulated path — each is one more APIC-access exit.
    pub(crate) pending_spurious_eois: u32,
}

/// One TX/RX virtqueue pair of a (possibly multi-queue) virtio device,
/// with everything that is per-queue rather than per-VM: its handler
/// identities in the vhost pool, the hybrid TX handler state, the host
/// backlog feeding its RX side, its MSI vectors and owning vCPU, and
/// its kick throttle. Pair `q` registers handlers `2q` (TX) and `2q+1`
/// (RX), and raises vectors `0x41 + 2q` / `0x42 + 2q` steered at
/// `affinity_vcpu`.
pub(crate) struct QueuePair {
    pub(crate) tx_h: HandlerId,
    pub(crate) rx_h: HandlerId,
    /// The guest posts packets; the device returns bare descriptors.
    pub(crate) tx: Virtqueue<Packet, ()>,
    /// The guest posts empty buffers; the device returns them filled.
    pub(crate) rx: Virtqueue<(), Packet>,
    pub(crate) tx_handler: HybridHandler,
    pub(crate) rx_turn: u32,
    pub(crate) backlog: NicQueue,
    pub(crate) tx_vector: Vector,
    pub(crate) rx_vector: Vector,
    pub(crate) affinity_vcpu: u32,
    pub(crate) blocked_tx_full: bool,
    /// Per-queue kick admission throttle (`Some` iff `Params::backpressure`).
    pub(crate) kick_bucket: Option<crate::backpressure::KickBucket>,
    /// Per-half flag (0 = TX, 1 = RX): a coalesced [`Ev::ThrottledKick`]
    /// wake is already scheduled.
    pub(crate) throttle_armed: [bool; 2],
}

pub(crate) struct VmState {
    pub(crate) vcpus: Vec<Vcpu>,
    pub(crate) vcpu_tids: Vec<ThreadId>,
    pub(crate) vctx: Vec<VcpuCtx>,
    /// One host thread per vhost worker, all time-sharing the VM's vhost
    /// core (worker 0 first — the legacy single-worker thread).
    pub(crate) vhost_tids: Vec<ThreadId>,
    /// The VM's sharded vhost backend (1 worker = the legacy mux).
    pub(crate) worker: VhostPool,
    /// In-progress handler per worker (`None` when that worker is idle).
    pub(crate) cur_handler: Vec<Option<HandlerId>>,
    /// TX/RX virtqueue pairs, one per queue (`Params::queues_per_vm`).
    pub(crate) pairs: Vec<QueuePair>,
    /// Guest HLTs when idle (server workloads) instead of running the
    /// burn script.
    pub(crate) guest_idles: bool,
    pub(crate) wl: GuestWl,
    /// Device interrupts delivered to an *offline* vCPU via the
    /// offline-list prediction, still awaiting that vCPU; if a sibling
    /// comes online first, ES2 migrates them ("keep searching ... and
    /// redirecting", §IV-C).
    pub(crate) parked_irqs: Vec<(u32, Vector)>,
    /// Posted-interrupt hardware failed for this VM (graceful-degradation
    /// state: all further deliveries take the emulated path).
    pub(crate) pi_failed: bool,
    /// Every event count of this VM, each recorded once
    /// (`Machine::note_*`); travels with the VM on migration.
    pub(crate) ledger: crate::telemetry::VmLedger,
}

impl VmState {
    /// Whether vCPU `idx` runs its burn script as one open-ended
    /// [`SegKind::OpenBurn`]: the guest never halts, and
    /// `Machine::select_app_step` can never return work for it (a
    /// passive guest, a netperf receiver, or a netperf sender's vCPU past
    /// its threads). A server's vCPUs stay evented.
    pub(crate) fn burns_open(&self, idx: u32) -> bool {
        !self.guest_idles
            && match &self.wl {
                GuestWl::Passive | GuestWl::NetperfRecv { .. } => true,
                GuestWl::NetperfSend { spec, .. } => idx >= spec.threads,
                GuestWl::Server { .. } => false,
            }
    }

    /// The pair owning handler `h` (pair `q` registers `2q` / `2q+1`).
    #[inline]
    pub(crate) fn pair_of(&self, h: HandlerId) -> usize {
        (h.idx() / 2).min(self.pairs.len() - 1)
    }

    /// `(pair index, is_tx)` for a device MSI vector, if it belongs to
    /// one of this VM's queues.
    #[inline]
    pub(crate) fn vector_pair(&self, vector: Vector) -> Option<(usize, bool)> {
        self.pairs
            .iter()
            .position(|p| p.tx_vector == vector)
            .map(|q| (q, true))
            .or_else(|| {
                self.pairs
                    .iter()
                    .position(|p| p.rx_vector == vector)
                    .map(|q| (q, false))
            })
    }

    /// The TX/RX pair a vCPU's transmit path uses: vCPU `idx` owns pair
    /// `idx % queues` (with one queue, everything stays on pair 0).
    #[inline]
    pub(crate) fn tx_pair_for_vcpu(&self, idx: u32) -> usize {
        idx as usize % self.pairs.len()
    }
}

/// Events of the discrete-event loop.
///
/// `repr(u32)`: the tag is a 32-bit word, so every field sits at the
/// offset of its own width (`vm` and `tid` at 4, `gen` and `pkt` at 8)
/// and the queue moves an event with aligned loads and stores instead of
/// re-packing the bytes behind a one-byte tag (DESIGN.md §8).
#[derive(Clone, Copy, Debug)]
#[repr(u32)]
pub(crate) enum Ev {
    Tick(CoreId),
    SegDone {
        tid: ThreadId,
        gen: u64,
    },
    GuestTimer {
        vm: u32,
        vcpu: u32,
    },
    KickIpi {
        vm: u32,
        vcpu: u32,
    },
    PiNotifyIpi {
        vm: u32,
        vcpu: u32,
    },
    ArriveAtExt {
        vm: u32,
        pkt: Packet,
    },
    ArriveAtHost {
        vm: u32,
        pkt: Packet,
    },
    ExtSend {
        vm: u32,
    },
    AckFlush {
        vm: u32,
    },
    /// A quota-exhausted handler's switching cooldown elapsed: requeue it.
    HandlerRequeue {
        vm: u32,
        h: HandlerId,
    },
    /// Periodic RTO check for an external TCP source.
    ExtTcpTimeout {
        vm: u32,
    },
    /// Legacy assigned-device interrupt: the host ISR finished converting
    /// the physical IRQ and now injects the virtual interrupt.
    VfIrq {
        vm: u32,
    },
    /// A fault-delayed guest kick finally reaches the vhost worker.
    DelayedKick {
        vm: u32,
        h: HandlerId,
    },
    /// A fault-delayed device MSI finally reaches the routing layer.
    DelayedMsi {
        vm: u32,
        vector: Vector,
    },
    /// Periodic liveness watchdog (armed only under an active fault plan):
    /// re-kicks lost notifications and re-raises lost device interrupts.
    Watchdog,
    /// Forced-preemption storm tick (fault injection).
    PreemptStorm,
    /// Periodic guest-side TCP retransmission-timeout check (armed only
    /// under an active fault plan; recovers sender liveness after loss).
    GuestTcpTimeout {
        vm: u32,
    },
    /// Posted-interrupt hardware fails for the plan's masked VMs.
    PiFail,
    /// A kick deferred by the per-VM token-bucket throttle reaches its
    /// conforming instant (one coalesced wake per storm).
    ThrottledKick {
        vm: u32,
        h: HandlerId,
    },
    /// The guest driver notices the `DEVICE_NEEDS_RESET` analog on a
    /// quarantined queue and resets it.
    GuestQueueReset {
        vm: u32,
        h: HandlerId,
    },
    OpenWindow,
    CloseWindow,
    /// Live migration: pause `vm` on this (source) host, snapshot it, and
    /// hand the snapshot to the cluster layer — or, when `abort` (the
    /// fault plan's mid-copy failure, decided upfront), stage a local
    /// rollback.
    MigrateStart {
        vm: u32,
        abort: bool,
    },
    /// Live migration: a staged snapshot for slot `vm` finishes its copy
    /// phase — install and resume it here (target host, or source on an
    /// abort rollback).
    MigrateArrive {
        vm: u32,
    },
    /// Live migration: the target host learns a VM is inbound for slot
    /// `vm`; from now until resume it buffers the slot's arrivals
    /// (blackout window) and forwards guest-egress traffic home.
    MigrateExpect {
        vm: u32,
    },
    /// A stale MSI forwarded from another host is re-raised here through
    /// the reliable watchdog path, resolving against *this* host's
    /// online/offline lists.
    RetargetMsi {
        vm: u32,
        vector: Vector,
    },
    /// The external peer of a VM whose home host lost it (crash-restart
    /// elsewhere rebuilt the peer locally) goes quiet.
    ExtRetire {
        vm: u32,
    },
    /// A crashed host's victim VM cold-restarts on this host after the
    /// evacuation delay (placement re-placed it; state starts fresh, with
    /// the slot's workload from the cell's slot table).
    ColdRestart {
        vm: u32,
    },
    /// Tenant churn: an admitted arrival's boot lands in slot `vm` on
    /// this host. A clean boot brings the slot fully live (like a cold
    /// restart); a `stuck` boot parks the vCPUs mid-handshake — the
    /// virtio device never comes up — and waits for its timeout.
    VmBoot {
        vm: u32,
        stuck: bool,
    },
    /// Tenant churn: slot `vm`'s lifetime ended — tear the VM down and
    /// reclaim every resource it held (threads, rings, vectors, peer).
    VmDepart {
        vm: u32,
    },
    /// Tenant churn: a stuck boot's handshake timer fired — roll the
    /// partial boot back and reclaim the slot.
    BootTimeout {
        vm: u32,
    },
    /// Tenant churn: a control-plane decision (admit/reject) joins the
    /// observability stream. Strictly observational: breadcrumb ring and
    /// telemetry annotation only, never touches RNG or VM state.
    ChurnNote {
        vm: u32,
        kind: &'static str,
        arg: u64,
    },
}

/// Display names for `Ev` kinds, indexed by `Ev::kind_idx`. Public
/// so `repro` and perfbench can label the `ev-profile` dispatch profile.
pub const EV_KIND_NAMES: &[&str] = &[
    "Tick",
    "SegDone",
    "GuestTimer",
    "KickIpi",
    "PiNotifyIpi",
    "ArriveAtExt",
    "ArriveAtHost",
    "ExtSend",
    "AckFlush",
    "HandlerRequeue",
    "ExtTcpTimeout",
    "VfIrq",
    "DelayedKick",
    "DelayedMsi",
    "Watchdog",
    "PreemptStorm",
    "GuestTcpTimeout",
    "PiFail",
    "ThrottledKick",
    "GuestQueueReset",
    "OpenWindow",
    "CloseWindow",
    "MigrateStart",
    "MigrateArrive",
    "MigrateExpect",
    "RetargetMsi",
    "ExtRetire",
    "ColdRestart",
    "VmBoot",
    "VmDepart",
    "BootTimeout",
    "ChurnNote",
];

// A kind past the profiler's table would land in its overflow bucket
// unattributed: grow `MAX_KINDS` with the enum.
const _: () = assert!(EV_KIND_NAMES.len() <= es2_metrics::ev_profile::MAX_KINDS);
// Every queued event is as large as the largest variant (a `Packet`
// beside `vm`): a payload added to a variant must fit beside its fields
// (control flags sit next to `vm`).
const _: () = assert!(std::mem::size_of::<Ev>() == 40);

impl Ev {
    /// Dense kind index into [`EV_KIND_NAMES`] (profiling).
    #[cfg(feature = "ev-profile")]
    pub(crate) fn kind_idx(&self) -> usize {
        match self {
            Ev::Tick(_) => 0,
            Ev::SegDone { .. } => 1,
            Ev::GuestTimer { .. } => 2,
            Ev::KickIpi { .. } => 3,
            Ev::PiNotifyIpi { .. } => 4,
            Ev::ArriveAtExt { .. } => 5,
            Ev::ArriveAtHost { .. } => 6,
            Ev::ExtSend { .. } => 7,
            Ev::AckFlush { .. } => 8,
            Ev::HandlerRequeue { .. } => 9,
            Ev::ExtTcpTimeout { .. } => 10,
            Ev::VfIrq { .. } => 11,
            Ev::DelayedKick { .. } => 12,
            Ev::DelayedMsi { .. } => 13,
            Ev::Watchdog => 14,
            Ev::PreemptStorm => 15,
            Ev::GuestTcpTimeout { .. } => 16,
            Ev::PiFail => 17,
            Ev::ThrottledKick { .. } => 18,
            Ev::GuestQueueReset { .. } => 19,
            Ev::OpenWindow => 20,
            Ev::CloseWindow => 21,
            Ev::MigrateStart { .. } => 22,
            Ev::MigrateArrive { .. } => 23,
            Ev::MigrateExpect { .. } => 24,
            Ev::RetargetMsi { .. } => 25,
            Ev::ExtRetire { .. } => 26,
            Ev::ColdRestart { .. } => 27,
            Ev::VmBoot { .. } => 28,
            Ev::VmDepart { .. } => 29,
            Ev::BootTimeout { .. } => 30,
            Ev::ChurnNote { .. } => 31,
        }
    }
}

/// The full simulated testbed.
pub struct Machine {
    pub(crate) p: Params,
    pub(crate) cfg: EventPathConfig,
    pub(crate) topo: Topology,
    pub(crate) specs: Vec<WorkloadSpec>,
    pub(crate) now: SimTime,
    pub(crate) q: EventQueue<Ev>,
    pub(crate) rng: SimRng,
    /// Dedicated noise stream for scheduler ticks, forked from the main
    /// stream at construction. Tick parking changes how many noise draws
    /// happen over a run; keeping those draws off the main stream means
    /// parking decisions can never shift the randomness any workload,
    /// jitter or routing consumer sees.
    rng_tick: SimRng,
    pub(crate) sched: CfsScheduler,
    pub(crate) threads: Vec<ThreadInfo>,
    pub(crate) vms: Vec<VmState>,
    pub(crate) ext: Vec<crate::workload::ExtWl>,
    pub(crate) link_to_ext: Link,
    pub(crate) link_to_host: Link,
    pub(crate) pf: PacketFactory,
    pub(crate) redirection: Option<RedirectionEngine>,
    pub(crate) window_open: bool,
    pub(crate) end_time: SimTime,
    /// Deterministic fault decision engine (inert for the empty plan: the
    /// clean path performs zero extra RNG draws and schedules no events).
    pub(crate) faults: FaultInjector,
    /// The breadcrumb ring, the telemetry series and the span tracker,
    /// fed only through the `note_*` probes (`telemetry.rs`). Strictly
    /// observational: sim-time only, zero events, zero RNG.
    pub(crate) rec: crate::telemetry::Recorders,
    /// Per-core flag: true iff an [`Ev::Tick`] for that core is pending.
    /// The tick chain parks (stops re-arming) while the core has nothing
    /// runnable — the NOHZ idle analog — and re-arms on the next wake.
    tick_armed: Vec<bool>,
    /// Per-vCPU flag (`vm * vcpus_per_vm + idx`): true iff an
    /// [`Ev::GuestTimer`] for that vCPU is pending. Parks while the vCPU
    /// is halted with nothing deliverable; re-arms on wake.
    guest_timer_armed: Vec<bool>,
    /// Cluster plumbing (`None` on single-host machines — the entire
    /// migration layer then costs one pointer test per gated event kind).
    pub(crate) mig: Option<Box<crate::migrate::MigState>>,
}

impl Machine {
    /// Build a testbed where VM 0 runs `spec` and the remaining VMs are
    /// idle CPU hogs (the paper's background VMs).
    pub fn new(
        cfg: EventPathConfig,
        topo: Topology,
        spec: WorkloadSpec,
        params: Params,
        seed: u64,
    ) -> Self {
        let mut specs = vec![WorkloadSpec::Idle; topo.num_vms as usize];
        specs[0] = spec;
        Self::with_specs_faulted(cfg, topo, specs, params, seed, FaultPlan::none())
    }

    /// Build a testbed with an explicit per-VM workload list and a fault
    /// plan ([`FaultPlan::none`] for a clean run). The injector's streams
    /// are derived from `seed` independently of the machine RNG, so the
    /// empty plan draws nothing and schedules nothing.
    pub fn with_specs_faulted(
        cfg: EventPathConfig,
        topo: Topology,
        specs: Vec<WorkloadSpec>,
        params: Params,
        seed: u64,
        plan: FaultPlan,
    ) -> Self {
        assert_eq!(specs.len(), topo.num_vms as usize);
        assert!(
            topo.vcpus_per_vm + topo.num_vms <= params.num_cores,
            "not enough cores for vCPUs + vhost workers"
        );
        let num_pairs = params.queues_per_vm.max(1);
        let num_workers = params.effective_vhost_workers();
        assert!(
            0x42 + 2 * (num_pairs as u64 - 1) < LOCAL_TIMER_VECTOR as u64,
            "queues_per_vm exhausts the device vector range"
        );
        let mut rng = SimRng::new(seed);
        // Per-purpose stream discipline (same idiom as the fault
        // injector): fork the tick-noise stream before any per-VM seed
        // draws so its position is fixed by `seed` alone.
        let rng_tick = rng.fork();
        let mut sched = CfsScheduler::new(params.num_cores as usize, params.sched);
        let per_vm = topo.vcpus_per_vm as usize + num_workers;
        let mut threads = Vec::with_capacity(topo.num_vms as usize * per_vm);
        let mut vms = Vec::with_capacity(topo.num_vms as usize);
        for vm in 0..topo.num_vms {
            // vCPU j of every VM pinned to core j: VMs time-share.
            let mut vcpu_tids = Vec::with_capacity(topo.vcpus_per_vm as usize);
            for idx in 0..topo.vcpus_per_vm {
                let tid = sched.add_thread(0, CoreId(idx));
                threads.push(ThreadInfo {
                    body: Body::Vcpu { vm, idx },
                    seg: None,
                    seg_started: SimTime::ZERO,
                    gen: GenToken::new(),
                });
                debug_assert_eq!(tid.idx() + 1, threads.len());
                vcpu_tids.push(tid);
            }
            // vhost workers on the cores after the vCPU block. All of a
            // VM's workers time-share that VM's vhost core, exactly like
            // the single worker they shard.
            let vhost_core = CoreId(topo.vcpus_per_vm + vm);
            let mut vhost_tids = Vec::with_capacity(num_workers);
            for w in 0..num_workers as u32 {
                let tid = sched.add_thread(0, vhost_core);
                threads.push(ThreadInfo {
                    body: Body::Vhost { vm, w },
                    seg: None,
                    seg_started: SimTime::ZERO,
                    gen: GenToken::new(),
                });
                vhost_tids.push(tid);
            }
            // The booting guest driver pre-fills every RX ring.
            let spec = &specs[vm as usize];
            vms.push(Self::blank_vm_state(
                &params, &cfg, spec, true, vcpu_tids, vhost_tids,
            ));
        }

        let redirection = if cfg.redirect {
            Some(match params.redirect_policies {
                Some((target, offline)) => RedirectionEngine::with_policies(
                    topo.num_vms as usize,
                    topo.vcpus_per_vm,
                    target,
                    offline,
                    seed ^ 0x5eed,
                ),
                None => RedirectionEngine::new(topo.num_vms as usize, topo.vcpus_per_vm),
            })
        } else {
            None
        };

        let ext = specs
            .iter()
            .map(|s| crate::workload::ExtWl::for_spec(s, rng.next_u64()))
            .collect();

        let end_time = SimTime::ZERO + params.warmup + params.measure;
        let plan_active = plan.is_active();
        let mut m = Machine {
            p: params,
            cfg,
            topo,
            specs,
            now: SimTime::ZERO,
            q: EventQueue::new(),
            rng,
            rng_tick,
            sched,
            threads,
            vms,
            ext,
            link_to_ext: Link::forty_gbe(),
            link_to_host: Link::forty_gbe(),
            pf: PacketFactory::new(),
            redirection,
            window_open: false,
            end_time,
            faults: FaultInjector::new(plan, seed),
            rec: crate::telemetry::Recorders::new(
                &params,
                topo.num_vms as usize,
                num_workers,
                plan_active,
            ),
            // bootstrap() pushes every chain, so all start armed.
            tick_armed: vec![true; params.num_cores as usize],
            guest_timer_armed: vec![true; (topo.num_vms * topo.vcpus_per_vm) as usize],
            mig: None,
        };
        m.bootstrap();
        m
    }

    fn bootstrap(&mut self) {
        // Per-core tick chains, staggered like per-CPU jiffies offsets.
        for c in 0..self.p.num_cores {
            let off = SimDuration::from_micros(37 * (c as u64 + 1));
            self.q.push(
                SimTime::ZERO + es2_sched::TICK_PERIOD + off,
                Ev::Tick(CoreId(c)),
            );
        }
        // Guest timers, staggered.
        for vm in 0..self.topo.num_vms {
            for v in 0..self.topo.vcpus_per_vm {
                let off = SimDuration::from_micros(
                    101 * (vm as u64 * self.topo.vcpus_per_vm as u64 + v as u64 + 1),
                );
                self.q.push(
                    SimTime::ZERO + GUEST_TIMER_PERIOD + off,
                    Ev::GuestTimer { vm, vcpu: v },
                );
            }
        }
        // Wake every vCPU thread (guests boot busy: the burn scripts),
        // every VM before any external kick-off.
        for vm in 0..self.topo.num_vms {
            self.boot_vcpus(vm);
        }
        // External traffic kick-off.
        self.bootstrap_external();
        // Fault-plan machinery. Armed only under an active plan so the
        // clean path pushes an identical event sequence.
        if self.faults.is_active() {
            let plan = *self.faults.plan();
            self.q.push(SimTime::ZERO + WATCHDOG_PERIOD, Ev::Watchdog);
            if !plan.preempt_storm_period.is_zero() && plan.preempt_storm_p > 0.0 {
                self.q
                    .push(SimTime::ZERO + plan.preempt_storm_period, Ev::PreemptStorm);
            }
            if plan.pi_unavailable_mask != 0 {
                self.q.push(SimTime::ZERO + plan.pi_fail_after, Ev::PiFail);
            }
            for vm in 0..self.topo.num_vms {
                self.arm_guest_rto(vm);
            }
        }
        // Measurement window.
        self.q.push(SimTime::ZERO + self.p.warmup, Ev::OpenWindow);
        self.q.push(self.end_time, Ev::CloseWindow);
    }

    /// Wake `vm`'s vCPU threads as a booting guest. Initial vruntimes
    /// are staggered randomly so per-core rotations start out of phase,
    /// as on any real host; otherwise equal-weight vCPU threads on
    /// different cores rotate in lockstep and a VM is always either fully
    /// online or fully offline — the degenerate co-scheduling case §IV-C
    /// argues is rare.
    pub(crate) fn boot_vcpus(&mut self, vm: u32) {
        let latency = self.p.sched.sched_latency.as_nanos();
        for i in 0..self.vms[vm as usize].vcpu_tids.len() {
            let tid = self.vms[vm as usize].vcpu_tids[i];
            let nudge = self.rng.gen_range(latency);
            self.sched.nudge_vruntime(tid, nudge);
            self.wake_thread(tid);
        }
    }

    /// Arm `vm`'s guest-side retransmission timer if it is a TCP sender
    /// under an active fault plan: injected packet loss can stall the
    /// ACK clock outright, and the RTO clears the in-flight accounting
    /// so sending resumes.
    pub(crate) fn arm_guest_rto(&mut self, vm: u32) {
        let tcp_sender = matches!(
            &self.vms[vm as usize].wl,
            GuestWl::NetperfSend { spec, .. } if spec.proto == es2_workloads::NetperfProto::Tcp
        );
        if tcp_sender && self.faults.is_active() {
            self.q
                .push(self.now + GUEST_RTO_CHECK, Ev::GuestTcpTimeout { vm });
        }
    }

    /// Render a diagnostic snapshot of the world state (probe tooling).
    pub(crate) fn debug_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "now={:?} events_pending={}", self.now, self.q.len());
        for (i, vm) in self.vms.iter().enumerate() {
            let p0 = &vm.pairs[0];
            let _ = writeln!(
                s,
                "vm{}: tx[avail={} used={} free={} notify_off={}] rx[avail={} used={} notify_off={} irq_off={}] backlog={} blocked_tx_full={} mode={:?} worker_pending={} dropped_tx={}",
                i,
                p0.tx.avail_pending(),
                p0.tx.used_pending(),
                p0.tx.num_free(),
                p0.tx.notify_disabled(),
                p0.rx.avail_pending(),
                p0.rx.used_pending(),
                p0.rx.notify_disabled(),
                p0.rx.interrupts_disabled(),
                p0.backlog.len(),
                p0.blocked_tx_full,
                p0.tx_handler.mode(),
                vm.worker.pending_total(),
                vm.ledger.dropped_tx,
            );
            // Extra queue pairs (multi-queue devices only; a single-queue
            // device prints exactly the legacy snapshot).
            for (qi, p) in vm.pairs.iter().enumerate().skip(1) {
                let _ = writeln!(
                    s,
                    "  pair{}: tx[avail={} used={} free={}] rx[avail={} used={}] backlog={} blocked_tx_full={} mode={:?} owner_vcpu={}",
                    qi,
                    p.tx.avail_pending(),
                    p.tx.used_pending(),
                    p.tx.num_free(),
                    p.rx.avail_pending(),
                    p.rx.used_pending(),
                    p.backlog.len(),
                    p.blocked_tx_full,
                    p.tx_handler.mode(),
                    p.affinity_vcpu,
                );
            }
            for (j, v) in vm.vcpus.iter().enumerate() {
                let tid = vm.vcpu_tids[j];
                let _ = writeln!(
                    s,
                    "  vcpu{}: in_guest={} running={} seg={:?} stack_len={} pending_kicks={} deliverable={}",
                    j,
                    v.in_guest,
                    v.running,
                    self.threads[tid.idx()].seg.as_ref().map(|x| x.kind),
                    vm.vctx[j].stack.len(),
                    vm.vctx[j].pending_kicks.len(),
                    v.has_deliverable(),
                );
            }
            for (w, &vt) in vm.vhost_tids.iter().enumerate() {
                if w == 0 {
                    let _ = writeln!(
                        s,
                        "  vhost: running={} seg={:?}",
                        self.sched.is_running(vt),
                        self.threads[vt.idx()].seg.as_ref().map(|x| x.kind)
                    );
                } else {
                    let _ = writeln!(
                        s,
                        "  vhost{}: running={} seg={:?}",
                        w,
                        self.sched.is_running(vt),
                        self.threads[vt.idx()].seg.as_ref().map(|x| x.kind)
                    );
                }
            }
            if let Some(d) = self.wl_debug(i) {
                let _ = writeln!(s, "  wl: {d}");
            }
            if let crate::workload::ExtWl::TcpSource {
                flow,
                cwnd,
                send_armed,
                ..
            } = &self.ext[i]
            {
                let _ = writeln!(
                    s,
                    "  ext: tcp_source inflight={} cwnd={} sent={} acked={} armed={}",
                    flow.inflight(),
                    cwnd,
                    flow.sent_total(),
                    flow.acked_total(),
                    send_armed
                );
            }
        }
        s
    }

    fn wl_debug(&self, vm: usize) -> Option<String> {
        match &self.vms[vm].wl {
            GuestWl::NetperfSend {
                flows, sent_msgs, ..
            } => Some(format!(
                "send: inflight={:?} sent_msgs={}",
                flows.iter().map(|f| f.inflight()).collect::<Vec<_>>(),
                sent_msgs
            )),
            GuestWl::NetperfRecv {
                flow,
                received_segs,
                ack_flush_pending,
                ..
            } => Some(format!(
                "recv: received_total={} received_segs_windowed={} flush_pending={}",
                flow.received_total(),
                received_segs,
                ack_flush_pending
            )),
            GuestWl::Server { pending, served } => Some(format!(
                "server: pending={} served={}",
                pending.len(),
                served
            )),
            GuestWl::Passive => None,
        }
    }

    /// Run to completion, returning results plus a final state snapshot.
    pub fn run_with_snapshot(mut self) -> (RunResult, String) {
        while self.step_one() {}
        let snap = self.debug_snapshot();
        let end = self.model_end(None);
        (RunResult::collect(self, end), snap)
    }

    /// Run to completion and collect results.
    pub fn run(mut self) -> RunResult {
        while self.step_one() {}
        let end = self.model_end(None);
        RunResult::collect(self, end)
    }

    /// The instant a finished run's model ends, where the recorders
    /// close: `end_time`, or earlier if the queue ran dry first, or the
    /// crash instant of a host that crashed (`crash_at`). Never `now`
    /// past `end_time`: that is the instant of whichever event happened
    /// to pop first after the end, an artifact of event bookkeeping.
    pub(crate) fn model_end(&self, crash_at: Option<SimTime>) -> SimTime {
        crash_at.unwrap_or(self.now).min(self.end_time)
    }

    /// Pop and dispatch exactly one event. Returns `false` once the run
    /// is over — queue drained or the first event past `end_time`
    /// reached (the clock still advances to that event, exactly as the
    /// old inline run loop behaved). This is the single-step form
    /// `Cluster::run` drives; the run loops above are its trivial
    /// clients, so standalone and multi-host execution share one
    /// event-dispatch semantics by construction.
    pub(crate) fn step_one(&mut self) -> bool {
        let Some((t, slot)) = self.q.pop_slot() else {
            return false;
        };
        debug_assert!(t >= self.now);
        self.now = t;
        if t > self.end_time {
            return false;
        }
        self.dispatch_ev(slot);
        true
    }

    /// Time of the next pending event, if any (the cluster's merge
    /// picks the host whose next step is earliest).
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    /// Accept a packet arriving from another host at `at`: it enters
    /// this machine's world exactly like a wire arrival, queued for the
    /// local `vm`'s host backlog. `Cluster::run` guarantees `at` is not
    /// in this machine's past and delivers same-time arrivals in a
    /// deterministic `(time, sender, sender_seq)` order.
    pub(crate) fn receive_cross(&mut self, at: SimTime, vm: u32, pkt: Packet) {
        self.q.push(at, Ev::ArriveAtHost { vm, pkt });
    }

    /// Dispatch the event just popped from `slot`, timing its handler
    /// into the process-global profile. Observational only — results are
    /// unchanged by profiling.
    #[cfg(feature = "ev-profile")]
    #[inline]
    pub(crate) fn dispatch_ev(&mut self, slot: usize) {
        let idx = self.q.payload(slot).kind_idx();
        let t0 = std::time::Instant::now();
        self.dispatch(slot);
        es2_metrics::ev_profile::record(idx, t0.elapsed().as_nanos() as u64);
    }

    /// Dispatch the event just popped from `slot` (profiling feature
    /// off: a plain call).
    #[cfg(not(feature = "ev-profile"))]
    #[inline(always)]
    pub(crate) fn dispatch_ev(&mut self, slot: usize) {
        self.dispatch(slot);
    }

    /// Run the handler of the event just popped from `slot`. The match
    /// reads each field from the queue's slot at its own width, as
    /// `push` stored it, before the handler pushes anything (DESIGN.md
    /// §8): the event is never copied whole.
    pub(crate) fn dispatch(&mut self, slot: usize) {
        // Cluster gate: on a multi-host member, events addressed to a VM
        // that lives elsewhere (or is mid-blackout) are forwarded to
        // another host, buffered, or dropped before the single-host
        // handlers ever see them. Single-host machines skip the call.
        if self.mig.is_some() && !self.mig_gate(*self.q.payload(slot)) {
            return;
        }
        match *self.q.payload(slot) {
            Ev::Tick(core) => {
                // NOHZ-style idle tick stop: with nothing runnable on the
                // core there is nothing to preempt or account, so let the
                // chain die here; the next wake onto this core re-arms it.
                if self.sched.nr_running(core) == 0 {
                    self.tick_armed[core.idx()] = false;
                    return;
                }
                let noise = self.rng_tick.gen_range(SCHED_TICK_NOISE.as_nanos());
                if let Some(sw) = self.sched.tick_with_noise(core, self.now, noise) {
                    self.apply_switch(sw);
                }
                self.q
                    .push(self.now + es2_sched::TICK_PERIOD, Ev::Tick(core));
            }
            Ev::SegDone { tid, gen } => {
                if self.threads[tid.idx()].gen.is_current(gen) {
                    self.on_seg_done(tid);
                }
            }
            Ev::GuestTimer { vm, vcpu } => {
                // Guest-side NOHZ idle: a halted vCPU with nothing
                // deliverable gains nothing from its local timer except
                // a wake/inject/HLT round trip. Park the chain; the next
                // wake of this vCPU re-arms it.
                let tid = self.vms[vm as usize].vcpu_tids[vcpu as usize];
                if self.sched.entity(tid).state == ThreadState::Sleeping
                    && !self.vms[vm as usize].vcpus[vcpu as usize].has_deliverable()
                {
                    let slot = self.timer_slot(vm, vcpu);
                    self.guest_timer_armed[slot] = false;
                    return;
                }
                self.deliver_to_vcpu(vm, vcpu, LOCAL_TIMER_VECTOR);
                self.q
                    .push(self.now + GUEST_TIMER_PERIOD, Ev::GuestTimer { vm, vcpu });
            }
            Ev::KickIpi { vm, vcpu } => self.on_kick_ipi(vm, vcpu),
            Ev::PiNotifyIpi { vm, vcpu } => self.on_pi_notify_ipi(vm, vcpu),
            Ev::ArriveAtExt { vm, pkt } => self.on_arrive_ext(vm, pkt),
            Ev::ArriveAtHost { vm, pkt } => self.on_arrive_host(vm, pkt),
            Ev::ExtSend { vm } => self.on_ext_send(vm),
            Ev::AckFlush { vm } => self.on_ack_flush(vm),
            Ev::ExtTcpTimeout { vm } => self.on_ext_tcp_timeout(vm),
            Ev::VfIrq { vm } => {
                let vector = self.vms[vm as usize].pairs[0].rx_vector;
                self.deliver_device_msi(vm, vector);
            }
            Ev::HandlerRequeue { vm, h } => self.signal_kick(vm, h, KickOrigin::Requeue),
            Ev::DelayedKick { vm, h } => self.signal_kick(vm, h, KickOrigin::Delayed),
            Ev::DelayedMsi { vm, vector } => {
                self.route_and_deliver_msi(vm, vector, MsiOrigin::Device)
            }
            Ev::ThrottledKick { vm, h } => {
                // The coalesced wake for every kick deferred since it was
                // scheduled. Re-enters admission: the bucket charges the
                // kick at this (conforming) instant.
                let vmi = vm as usize;
                let q = self.vms[vmi].pair_of(h);
                self.vms[vmi].pairs[q].throttle_armed[h.idx() % 2] = false;
                self.kick_vhost(vm, h);
            }
            Ev::GuestQueueReset { vm, h } => self.on_guest_queue_reset(vm, h),
            Ev::Watchdog => self.on_watchdog(),
            Ev::PreemptStorm => self.on_preempt_storm(),
            Ev::GuestTcpTimeout { vm } => self.on_guest_tcp_timeout(vm),
            Ev::PiFail => self.on_pi_fail(),
            Ev::OpenWindow => {
                self.window_open = true;
                for vm in &mut self.vms {
                    vm.ledger.open_window(self.now);
                }
            }
            Ev::CloseWindow => {
                self.window_open = false;
                for vm in &mut self.vms {
                    vm.ledger.close_window(self.now);
                }
            }
            Ev::MigrateStart { vm, abort } => self.on_migrate_start(vm, abort),
            Ev::MigrateArrive { vm } => self.on_migrate_arrive(vm),
            Ev::MigrateExpect { vm } => self.on_migrate_expect(vm),
            Ev::RetargetMsi { vm, vector } => self.on_retarget_msi(vm, vector),
            Ev::ExtRetire { vm } => self.on_ext_retire(vm),
            Ev::ColdRestart { vm } => self.on_cold_restart(vm),
            Ev::VmBoot { vm, stuck } => self.on_vm_boot(vm, stuck),
            Ev::VmDepart { vm } => self.on_vm_depart(vm),
            Ev::BootTimeout { vm } => self.on_boot_timeout(vm),
            Ev::ChurnNote { vm, kind, arg } => self.note_control(vm, kind, arg),
        }
    }

    // -----------------------------------------------------------------
    // Segment mechanics
    // -----------------------------------------------------------------

    /// Begin a fresh segment on a running thread. Inlined, so the caller
    /// builds the segment straight into the thread's slot; the clock and
    /// the completion are armed out of line.
    #[inline]
    pub(crate) fn start_segment(&mut self, tid: ThreadId, kind: SegKind, dur: SimDuration) {
        debug_assert!(self.sched.is_running(tid), "segment on a parked thread");
        debug_assert!(
            self.threads[tid.idx()].seg.is_none(),
            "segment would clobber saved work: {:?}",
            self.threads[tid.idx()].seg
        );
        let t = &mut self.threads[tid.idx()];
        t.seg = Some(Segment {
            kind,
            remaining: dur,
        });
        self.arm_segment(tid, dur);
    }

    /// (Re)start the clock of `tid`'s segment now and queue its
    /// completion `dur` from now, superseding any earlier one. An open
    /// burn queues none: only an interruption ends it.
    fn arm_segment(&mut self, tid: ThreadId, dur: SimDuration) {
        debug_assert!(
            match (self.threads[tid.idx()].body, self.threads[tid.idx()].seg) {
                (Body::Vcpu { vm, idx }, Some(seg))
                    if matches!(seg.kind, SegKind::Burn | SegKind::OpenBurn) =>
                    self.vms[vm as usize].burns_open(idx) == matches!(seg.kind, SegKind::OpenBurn),
                _ => true,
            },
            "a burn evented on a vCPU whose burns are open, or the reverse"
        );
        let t = &mut self.threads[tid.idx()];
        t.seg_started = self.now;
        let gen = t.gen.bump();
        if let Some(Segment {
            kind: SegKind::OpenBurn,
            ..
        }) = t.seg
        {
            return;
        }
        self.q.push(self.now + dur, Ev::SegDone { tid, gen });
    }

    /// Resume a thread's saved segment. `charge_ctx` adds the host
    /// context-switch cost (scheduler switches only; IRQ returns and VM
    /// entries resume for free — their costs are modeled explicitly).
    fn resume_saved(&mut self, tid: ThreadId, charge_ctx: bool) {
        let seg = self.threads[tid.idx()]
            .seg
            .as_mut()
            .expect("resume without saved segment");
        if charge_ctx {
            seg.remaining += CTX_SWITCH;
        }
        let remaining = seg.remaining;
        self.arm_segment(tid, remaining);
    }

    /// Save the active segment's remaining work (preemption or IRQ
    /// interruption) and invalidate its completion event. Returns the
    /// saved segment (also left in `threads[tid].seg`).
    pub(crate) fn save_active(&mut self, tid: ThreadId) -> Option<Segment> {
        let now = self.now;
        let t = &mut self.threads[tid.idx()];
        t.gen.bump();
        let seg = t.seg.as_mut()?;
        let elapsed = now.saturating_since(t.seg_started);
        seg.remaining = match seg.kind {
            SegKind::OpenBurn => open_burn_remaining(seg.remaining, elapsed),
            _ => seg.remaining.saturating_sub(elapsed),
        };
        Some(*seg)
    }

    /// Clear the thread's segment slot (it completed or was moved to an
    /// IRQ resume stack).
    pub(crate) fn clear_seg(&mut self, tid: ThreadId) -> Option<Segment> {
        self.threads[tid.idx()].seg.take()
    }

    // -----------------------------------------------------------------
    // Scheduler integration (the kvm_sched_in / kvm_sched_out notifiers)
    // -----------------------------------------------------------------

    pub(crate) fn apply_switch(&mut self, sw: Switch) {
        if let Some(prev) = sw.prev {
            self.on_sched_out(prev);
        }
        if let Some(next) = sw.next {
            self.on_sched_in(next);
        }
    }

    fn on_sched_out(&mut self, tid: ThreadId) {
        self.save_active(tid);
        match self.threads[tid.idx()].body {
            Body::Vhost { vm, w } => self.note_worker_off_core(vm, w),
            Body::Vcpu { vm, idx } => {
                let vcpu = &mut self.vms[vm as usize].vcpus[idx as usize];
                let preempted_in_guest = vcpu.in_guest;
                if vcpu.in_guest {
                    // Preemption forces a world switch out of guest mode.
                    vcpu.vm_exit();
                }
                vcpu.sched_out();
                self.note_vcpu_sched_out(vm, idx, preempted_in_guest);
                if let Some(e) = &mut self.redirection {
                    e.sched_out(vm as usize, idx);
                }
            }
        }
    }

    fn on_sched_in(&mut self, tid: ThreadId) {
        match self.threads[tid.idx()].body {
            Body::Vcpu { vm, idx } => {
                self.vms[vm as usize].vcpus[idx as usize].sched_in();
                self.note_vcpu_sched_in(vm, idx);
                if let Some(e) = &mut self.redirection {
                    e.sched_in(vm as usize, idx);
                    self.migrate_parked_irqs(vm, idx);
                }
                // If the thread was preempted mid-root-mode work, resume it
                // without a VM entry; the entry happens when that exit
                // handling completes.
                let in_root = matches!(
                    self.threads[tid.idx()].seg,
                    Some(Segment {
                        kind: SegKind::Exit { .. },
                        ..
                    })
                );
                if in_root {
                    self.resume_saved(tid, true);
                } else {
                    self.vm_entry_and_dispatch(vm, idx);
                }
            }
            Body::Vhost { vm, w } => {
                self.note_worker_on_core(vm, w);
                if self.threads[tid.idx()].seg.is_some() {
                    self.resume_saved(tid, true);
                } else {
                    self.vhost_continue(tid);
                }
            }
        }
    }

    /// Wake a thread; apply any resulting context switch and re-arm any
    /// periodic timers that parked while everything it feeds was idle.
    pub(crate) fn wake_thread(&mut self, tid: ThreadId) {
        let was_sleeping = self.sched.entity(tid).state == ThreadState::Sleeping;
        if let Some(sw) = self.sched.wake(tid, self.now) {
            self.apply_switch(sw);
        }
        if was_sleeping {
            self.rearm_timers_for(tid);
        }
    }

    /// Re-arm parked periodic chains made relevant by `tid` waking: the
    /// core's scheduler tick, and for vCPU threads the guest's local
    /// APIC timer. Invariants maintained: `tick_armed[c]` ⇔ an
    /// `Ev::Tick(c)` is pending, and a core with runnable threads always
    /// has its tick armed (parking happens only at fire time, when
    /// `nr_running == 0`; the count only rises through a wake, which
    /// lands here).
    fn rearm_timers_for(&mut self, tid: ThreadId) {
        let core = self.sched.entity(tid).core;
        if !self.tick_armed[core.idx()] {
            self.tick_armed[core.idx()] = true;
            self.q
                .push(self.now + es2_sched::TICK_PERIOD, Ev::Tick(core));
        }
        if let Body::Vcpu { vm, idx } = self.threads[tid.idx()].body {
            let slot = self.timer_slot(vm, idx);
            if !self.guest_timer_armed[slot] {
                self.guest_timer_armed[slot] = true;
                self.q.push(
                    self.now + GUEST_TIMER_PERIOD,
                    Ev::GuestTimer { vm, vcpu: idx },
                );
            }
        }
    }

    #[inline]
    fn timer_slot(&self, vm: u32, vcpu: u32) -> usize {
        (vm * self.topo.vcpus_per_vm + vcpu) as usize
    }

    // -----------------------------------------------------------------
    // VM entries, exits and interrupt plumbing
    // -----------------------------------------------------------------

    /// Record an exit of `reason` and transition the vCPU to root mode.
    pub(crate) fn do_vm_exit(&mut self, vm: u32, idx: u32, reason: ExitReason) {
        let vcpu = &mut self.vms[vm as usize].vcpus[idx as usize];
        debug_assert!(vcpu.in_guest);
        vcpu.vm_exit();
        self.vms[vm as usize].vctx[idx as usize].cache_cold = true;
        self.note_exit(vm, idx, reason);
    }

    /// VM entry: transition to guest mode, then dispatch what the guest
    /// does next — an injected/pending interrupt handler, a resumed
    /// interrupted segment, or fresh application work.
    pub(crate) fn vm_entry_and_dispatch(&mut self, vm: u32, idx: u32) {
        let tid = self.vms[vm as usize].vcpu_tids[idx as usize];
        let injected = {
            let vcpu = &mut self.vms[vm as usize].vcpus[idx as usize];
            debug_assert!(!vcpu.in_guest);
            vcpu.vm_entry()
        };
        self.note_guest_enter(vm, idx);
        // Emulated path: the entry injected at most one vector. Posted
        // path: the entry synchronized PIR→vIRR; take from the vAPIC.
        // Keyed off the vCPU's *current* path, not the static config: a
        // degraded vCPU re-enters through the emulated machinery.
        let vector = if self.vms[vm as usize].vcpus[idx as usize].path == InterruptPath::Posted {
            self.vms[vm as usize].vcpus[idx as usize].take_posted_interrupt()
        } else {
            injected
        };
        if let Some(v) = vector {
            // An interrupt preempts whatever the guest was about to resume:
            // push the saved segment (if any) onto the IRQ resume stack.
            if let Some(seg) = self.clear_seg(tid) {
                self.vms[vm as usize].vctx[idx as usize].stack.push(seg);
            }
            self.begin_irq(vm, idx, v);
        } else {
            self.resume_or_fresh(vm, idx);
        }
    }

    /// Begin a root-mode exit-handling segment.
    pub(crate) fn begin_exit(&mut self, vm: u32, idx: u32, reason: ExitReason, then: AfterExit) {
        self.do_vm_exit(vm, idx, reason);
        let tid = self.vms[vm as usize].vcpu_tids[idx as usize];
        let dur = exit_cost(reason);
        self.start_segment(tid, SegKind::Exit { reason, then }, dur);
    }

    /// The guest executes the virtqueue kick: the I/O-instruction exit.
    /// KVM's `handle_io` signals the eventfd early in the exit handling,
    /// so the vhost worker wakes (on its own core) concurrently with the
    /// rest of the exit processing.
    pub(crate) fn begin_kick_exit(&mut self, vm: u32, idx: u32, h: HandlerId) {
        // Hostile-guest hook: the plan's target VM may corrupt its ring
        // just before ringing the doorbell, and may follow the real kick
        // with a spurious doorbell storm (drained as extra I/O exits the
        // hostile guest itself pays for). Well-behaved VMs take the NONE
        // fast path with zero RNG draws.
        let hostile = self.faults.on_hostile_kick(vm);
        if let Some(kind) = hostile.corruption {
            self.publish_ring_corruption(vm, h, kind);
        }
        if hostile.extra_kicks > 0 {
            self.vms[vm as usize].vctx[idx as usize].pending_storm_kicks += hostile.extra_kicks;
        }
        self.kick_vhost(vm, h);
        self.note_kick_exit(vm);
        self.begin_exit(vm, idx, ExitReason::IoInstruction, AfterExit::Resume);
    }

    /// Signal the vhost worker's eventfd for handler `h`, subject to the
    /// fault plan. A dropped kick loses only the signal: the ring state
    /// stays exposed (that is what the watchdog re-kick recovers), and a
    /// kick exit the guest already paid for is still charged by the caller.
    pub(crate) fn kick_vhost(&mut self, vm: u32, h: HandlerId) {
        // Per-queue kick throttle (off by default): an over-rate kick is
        // not lost — one coalesced wake is scheduled for the first
        // conforming instant, and only this queue waits for it.
        let qi = self.vms[vm as usize].pair_of(h);
        if let Some(bucket) = self.vms[vm as usize].pairs[qi].kick_bucket.as_mut() {
            match bucket.admit(self.now.as_nanos()) {
                crate::backpressure::Admission::Pass => {}
                crate::backpressure::Admission::DeferUntil(at_ns) => {
                    let vmi = vm as usize;
                    self.note_kick_throttled(vm, h);
                    if !self.vms[vmi].pairs[qi].throttle_armed[h.idx() % 2] {
                        self.vms[vmi].pairs[qi].throttle_armed[h.idx() % 2] = true;
                        self.q.push(
                            SimTime::ZERO + SimDuration::from_nanos(at_ns),
                            Ev::ThrottledKick { vm, h },
                        );
                    }
                    return;
                }
            }
        }
        match self.faults.on_guest_kick() {
            DeliveryFault::Deliver => self.signal_kick(vm, h, KickOrigin::Kick),
            DeliveryFault::Drop => self.note_breadcrumb(vm, "kick-drop", h.0 as u64),
            DeliveryFault::Delay(extra) => {
                self.q.push(self.now + extra, Ev::DelayedKick { vm, h });
            }
        }
    }

    /// Hostile guest publishes corrupted ring state on the queue it is
    /// about to kick. Only the *claim* is recorded here; the vhost
    /// backend's `device_validate` is what must catch it.
    fn publish_ring_corruption(&mut self, vm: u32, h: HandlerId, kind: RingCorruptionKind) {
        let vmi = vm as usize;
        let qi = self.vms[vmi].pair_of(h);
        let pair = &mut self.vms[vmi].pairs[qi];
        if h.idx() % 2 == 0 {
            publish_claim(&mut pair.tx, kind);
        } else {
            publish_claim(&mut pair.rx, kind);
        }
        self.note_breadcrumb(vm, "ring-corrupt", h.0 as u64);
    }

    /// Queue handler `h` of `vm` on its vhost worker and wake the worker.
    fn signal_kick(&mut self, vm: u32, h: HandlerId, origin: KickOrigin) {
        let vmi = vm as usize;
        self.note_kick_signal(vm, h, origin);
        let (w, _) = self.vms[vmi].worker.queue_work(h);
        let tid = self.vms[vmi].vhost_tids[w];
        self.wake_thread(tid);
    }

    /// Deliver a virtual interrupt to a specific vCPU (timer, or a routed
    /// device MSI), performing the configured delivery machinery.
    pub(crate) fn deliver_to_vcpu(&mut self, vm: u32, idx: u32, vector: Vector) {
        let outcome = self.vms[vm as usize].vcpus[idx as usize].deliver(vector);
        let posted = matches!(
            outcome,
            DeliveryOutcome::PiNotify | DeliveryOutcome::PiPosted
        );
        self.note_msi(vm, posted);
        match outcome {
            DeliveryOutcome::EmulatedKick => {
                self.q
                    .push(self.now + IPI_SEND, Ev::KickIpi { vm, vcpu: idx });
            }
            DeliveryOutcome::PiNotify => {
                self.q
                    .push(self.now + IPI_SEND, Ev::PiNotifyIpi { vm, vcpu: idx });
            }
            DeliveryOutcome::EmulatedPendingEntry | DeliveryOutcome::PiPosted => {
                // Waits for the next VM entry (possibly after scheduling
                // delay — the latency ES2's redirection removes). A halted
                // vCPU is woken now (KVM unblocks it on event delivery);
                // for a merely-preempted one the wake is a no-op.
                let tid = self.vms[vm as usize].vcpu_tids[idx as usize];
                self.wake_thread(tid);
            }
        }
    }

    /// Raise a device MSI, subject to the fault plan: a dropped MSI loses
    /// the message entirely (the used-ring state survives and the watchdog
    /// re-raise recovers it); a delayed one re-enters routing later, so it
    /// is routed against the vCPU online-state of its *arrival* time.
    pub(crate) fn deliver_device_msi(&mut self, vm: u32, vector: Vector) {
        match self.faults.on_msi() {
            DeliveryFault::Deliver => self.route_and_deliver_msi(vm, vector, MsiOrigin::Device),
            DeliveryFault::Drop => {}
            DeliveryFault::Delay(extra) => {
                self.q.push(self.now + extra, Ev::DelayedMsi { vm, vector });
            }
        }
    }

    /// Route a device MSI of `origin` and deliver it: the
    /// `kvm_set_msi_irq` hook (§V-C).
    pub(crate) fn route_and_deliver_msi(&mut self, vm: u32, vector: Vector, origin: MsiOrigin) {
        // Per-queue steering: the MSI's affinity destination is the vCPU
        // that owns the queue raising this vector (per-VM hint == pair 0
        // in the single-queue device). Stock KVM delivers there; ES2's
        // engine may rewrite it from the vCPUs' scheduling status.
        let affinity = match self.vms[vm as usize].vector_pair(vector) {
            Some((qi, _)) => self.vms[vm as usize].pairs[qi].affinity_vcpu,
            None => self.vms[vm as usize].pairs[0].affinity_vcpu,
        };
        let target = match &mut self.redirection {
            Some(e) => e.select_target(vm as usize, vector, affinity),
            None => affinity,
        };
        let redirected = target != affinity;
        let parked = self.cfg.redirect && !self.vms[vm as usize].vcpus[target as usize].running;
        if parked {
            // Offline prediction: remember the parked interrupt so it can
            // migrate if another sibling comes online sooner.
            self.vms[vm as usize].parked_irqs.push((target, vector));
        }
        self.note_msi_raise(vm, target, vector, redirected, parked, origin);
        self.deliver_to_vcpu(vm, target, vector);
    }

    /// A vCPU of `vm` just came online: migrate any parked device
    /// interrupts still pending on offline siblings to it.
    fn migrate_parked_irqs(&mut self, vm: u32, online_idx: u32) {
        let vmi = vm as usize;
        if self.vms[vmi].parked_irqs.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.vms[vmi].parked_irqs);
        for (tgt, vector) in parked {
            if tgt == online_idx {
                continue; // about to be synchronized at this entry
            }
            let still_pending = !self.vms[vmi].vcpus[tgt as usize].running
                && self.vms[vmi].vcpus[tgt as usize].rescind(vector);
            if still_pending {
                if let Some(e) = &mut self.redirection {
                    // Keep the engine's per-vCPU accounting in step.
                    e.select_target(vmi, vector, online_idx);
                }
                self.note_irq_migrated(vm, tgt, online_idx, vector);
                self.deliver_to_vcpu(vm, online_idx, vector);
            }
        }
    }

    /// The emulated-path kick IPI arrived at the target core.
    fn on_kick_ipi(&mut self, vm: u32, idx: u32) {
        let vcpu = &self.vms[vm as usize].vcpus[idx as usize];
        if !vcpu.in_guest || !vcpu.running {
            // Target left guest mode in the meantime; the vector waits in
            // the IRR for the next entry.
            return;
        }
        let tid = self.vms[vm as usize].vcpu_tids[idx as usize];
        // The external interrupt forces an exit; the interrupted guest
        // segment is saved and pushed for post-IRQ resumption.
        if self.save_active(tid).is_some() {
            if let Some(seg) = self.clear_seg(tid) {
                self.vms[vm as usize].vctx[idx as usize].stack.push(seg);
            }
        }
        self.begin_exit(vm, idx, ExitReason::ExternalInterrupt, AfterExit::Resume);
    }

    /// The PI notification IPI arrived at the target core (guest mode):
    /// hardware synchronizes and delivers without an exit.
    fn on_pi_notify_ipi(&mut self, vm: u32, idx: u32) {
        let vcpu = &self.vms[vm as usize].vcpus[idx as usize];
        if !vcpu.in_guest || !vcpu.running {
            return; // synced at next VM entry instead
        }
        let tid = self.vms[vm as usize].vcpu_tids[idx as usize];
        if self.save_active(tid).is_some() {
            if let Some(seg) = self.clear_seg(tid) {
                self.vms[vm as usize].vctx[idx as usize].stack.push(seg);
            }
        }
        self.start_segment(tid, SegKind::PiSync, PI_NOTIFICATION);
    }

    // -----------------------------------------------------------------
    // Segment completion dispatch
    // -----------------------------------------------------------------

    fn on_seg_done(&mut self, tid: ThreadId) {
        let seg = self
            .clear_seg(tid)
            .expect("SegDone with current gen but no segment");
        match (self.threads[tid.idx()].body, seg.kind) {
            (Body::Vcpu { vm, idx }, SegKind::Burn) => {
                self.start_vcpu_work(vm, idx);
            }
            (Body::Vcpu { vm, idx }, SegKind::App(step)) => {
                self.complete_app(vm, idx, step);
            }
            (Body::Vcpu { vm, idx }, SegKind::Irq(kind)) => {
                self.complete_irq(vm, idx, kind);
            }
            (Body::Vcpu { vm, idx }, SegKind::PiSync) => {
                let vector = {
                    let vcpu = &mut self.vms[vm as usize].vcpus[idx as usize];
                    vcpu.pi_notification_sync();
                    vcpu.take_posted_interrupt()
                };
                match vector {
                    Some(v) => self.begin_irq(vm, idx, v),
                    None => self.resume_or_fresh(vm, idx),
                }
            }
            (Body::Vcpu { vm, idx }, SegKind::Exit { then, .. }) => match then {
                AfterExit::Resume => {
                    self.vm_entry_and_dispatch(vm, idx);
                }
                AfterExit::Eoi => {
                    self.vms[vm as usize].vcpus[idx as usize].eoi();
                    self.note_eoi(vm, idx);
                    if self.begin_spurious_eoi(vm, idx) {
                        return;
                    }
                    self.vm_entry_and_dispatch(vm, idx);
                }
                AfterExit::SpuriousEoi => {
                    // No in-service interrupt to complete; chain the next
                    // storm write or finally re-enter.
                    if self.begin_spurious_eoi(vm, idx) {
                        return;
                    }
                    self.vm_entry_and_dispatch(vm, idx);
                }
            },
            (Body::Vhost { vm, w }, SegKind::VhostDispatch { h }) => {
                self.vhost_begin_turn(vm, w, h);
            }
            (Body::Vhost { vm, w }, SegKind::VhostTxPkt { pkt }) => {
                self.complete_vhost_tx(vm, w, pkt);
            }
            (Body::Vhost { vm, w }, SegKind::VhostRxPkt { pkt }) => {
                self.complete_vhost_rx(vm, w, pkt);
            }
            (body, kind) => unreachable!("segment {kind:?} on {body:?}"),
        }
    }

    /// Begin one spurious EOI write of a hostile EOI storm, if any are
    /// pending on this vCPU. The write re-enters the guest and traps
    /// straight back out; the entry+trap pair is modeled as one more
    /// APIC-access exit segment with no injection window, so every cycle
    /// of the storm is paid for by the hostile vCPU alone. Returns whether
    /// a storm segment was started.
    fn begin_spurious_eoi(&mut self, vm: u32, idx: u32) -> bool {
        let vmi = vm as usize;
        if self.vms[vmi].vctx[idx as usize].pending_spurious_eois == 0 {
            return false;
        }
        self.vms[vmi].vctx[idx as usize].pending_spurious_eois -= 1;
        self.vms[vmi].vctx[idx as usize].cache_cold = true;
        self.note_exit(vm, idx, ExitReason::ApicAccess);
        let tid = self.vms[vmi].vcpu_tids[idx as usize];
        let dur = exit_cost(ExitReason::ApicAccess);
        self.start_segment(
            tid,
            SegKind::Exit {
                reason: ExitReason::ApicAccess,
                then: AfterExit::SpuriousEoi,
            },
            dur,
        );
        true
    }

    /// Resume the vCPU's interrupted work (in guest mode): first honour a
    /// TX kick that became due in IRQ context, then the thread's saved
    /// segment, then the IRQ resume stack, then fresh application work.
    pub(crate) fn resume_or_fresh(&mut self, vm: u32, idx: u32) {
        let tid = self.vms[vm as usize].vcpu_tids[idx as usize];
        if self.vms[vm as usize].vctx[idx as usize].pending_storm_kicks > 0 {
            // Drain one spurious doorbell write of a hostile kick storm:
            // a full I/O-instruction exit charged to this (hostile) vCPU.
            // The kick signal itself is what the admission throttle and
            // the worker's already-queued dedup absorb.
            self.vms[vm as usize].vctx[idx as usize].pending_storm_kicks -= 1;
            self.note_spurious_kick(vm, idx);
            if let Some(seg) = self.clear_seg(tid) {
                self.vms[vm as usize].vctx[idx as usize].stack.push(seg);
            }
            let qi = self.vms[vm as usize].tx_pair_for_vcpu(idx);
            let h = self.vms[vm as usize].pairs[qi].tx_h;
            self.kick_vhost(vm, h);
            self.begin_exit(vm, idx, ExitReason::IoInstruction, AfterExit::Resume);
            return;
        }
        if !self.vms[vm as usize].vctx[idx as usize]
            .pending_kicks
            .is_empty()
        {
            let h = self.vms[vm as usize].vctx[idx as usize]
                .pending_kicks
                .remove(0);
            // The kick exit runs before the interrupted segment resumes:
            // park any saved segment on the IRQ resume stack so the exit's
            // start_segment cannot clobber it. (A preempted NAPI poll left
            // here otherwise vanishes with RX interrupts still masked —
            // a permanent RX stall once vCPUs contend for cores.)
            if let Some(seg) = self.clear_seg(tid) {
                self.vms[vm as usize].vctx[idx as usize].stack.push(seg);
            }
            self.begin_kick_exit(vm, idx, h);
            return;
        }
        if self.threads[tid.idx()].seg.is_some() {
            self.resume_saved(tid, false);
        } else if let Some(seg) = self.vms[vm as usize].vctx[idx as usize].stack.pop() {
            self.threads[tid.idx()].seg = Some(seg);
            self.resume_saved(tid, false);
        } else {
            self.start_vcpu_work(vm, idx);
        }
    }

    // -----------------------------------------------------------------
    // Fault recovery and degradation machinery
    // -----------------------------------------------------------------

    /// Periodic liveness watchdog, armed only under an active fault plan.
    ///
    /// Each pass scans every VM for the stuck states a lost notification
    /// leaves behind and re-issues the signal. The re-issues go through the
    /// reliable host-internal paths (a software watchdog cannot lose its
    /// own wakeup), so every fault class converges in at most a few
    /// watchdog periods.
    fn on_watchdog(&mut self) {
        for vm in 0..self.vms.len() as u32 {
            self.watchdog_scan_vm(vm);
        }
        self.q.push(self.now + WATCHDOG_PERIOD, Ev::Watchdog);
    }

    /// One VM's watchdog pass. Factored out so migration resume can run
    /// the identical stale-state scan on the target host: a re-raise
    /// issued here goes through [`Machine::route_and_deliver_msi`]
    /// with watchdog origin — the reliable path stale MSIs are
    /// retargeted over after a move.
    pub(crate) fn watchdog_scan_vm(&mut self, vm: u32) {
        let vmi = vm as usize;
        for qi in 0..self.vms[vmi].pairs.len() {
            // Lost TX kick: exposed buffers while the handler sits in
            // notification mode, yet nobody queued it and it is not
            // mid-turn on any worker. (Polling mode recovers by itself
            // via requeues.)
            let tx_h = self.vms[vmi].pairs[qi].tx_h;
            let tx_stuck = !self.vms[vmi].pairs[qi].tx.is_broken()
                && self.vms[vmi].pairs[qi]
                    .tx_handler
                    .needs_rekick(&self.vms[vmi].pairs[qi].tx)
                && !self.vms[vmi].worker.is_queued(tx_h)
                && !self.vms[vmi].cur_handler.contains(&Some(tx_h));
            if tx_stuck {
                self.signal_kick(vm, tx_h, KickOrigin::Watchdog);
            }
            // Lost RX refill kick: ingress backlog waiting, guest buffers
            // available, but the RX handler was never requeued.
            let rx_h = self.vms[vmi].pairs[qi].rx_h;
            let rx_stuck = !self.vms[vmi].pairs[qi].rx.is_broken()
                && !self.vms[vmi].pairs[qi].backlog.is_empty()
                && self.vms[vmi].pairs[qi].rx.avail_pending() > 0
                && !self.vms[vmi].worker.is_queued(rx_h)
                && !self.vms[vmi].cur_handler.contains(&Some(rx_h));
            if rx_stuck {
                self.signal_kick(vm, rx_h, KickOrigin::Watchdog);
            }
            // Lost RX interrupt: published packets with interrupts armed
            // and no handler running. Re-raising merely sets an IRR bit
            // that is already pending in the benign race, so a spurious
            // re-raise coalesces instead of double-delivering.
            if !self.vms[vmi].pairs[qi].rx.is_broken()
                && self.vms[vmi].pairs[qi].rx.used_pending() > 0
                && !self.vms[vmi].pairs[qi].rx.interrupts_disabled()
            {
                let vector = self.vms[vmi].pairs[qi].rx_vector;
                self.route_and_deliver_msi(vm, vector, MsiOrigin::Watchdog);
            }
            // Lost TX-completion interrupt: the guest blocked on a full
            // ring, completions are back, interrupts are armed — but the
            // MSI vanished.
            if !self.vms[vmi].pairs[qi].tx.is_broken()
                && self.vms[vmi].pairs[qi].blocked_tx_full
                && self.vms[vmi].pairs[qi].tx.used_pending() > 0
                && !self.vms[vmi].pairs[qi].tx.interrupts_disabled()
            {
                let vector = self.vms[vmi].pairs[qi].tx_vector;
                self.route_and_deliver_msi(vm, vector, MsiOrigin::Watchdog);
            }
        }
    }

    /// Forced-preemption storm tick: per the plan, force a reschedule on a
    /// random subset of cores (vCPU preemption at the worst moments —
    /// exactly the churn §IV-C's redirection is built to survive).
    fn on_preempt_storm(&mut self) {
        let period = self.faults.plan().preempt_storm_period;
        let cores = self.p.num_cores as usize;
        for c in self.faults.on_storm_tick(cores) {
            if let Some(sw) = self.sched.resched(CoreId(c as u32), self.now) {
                self.apply_switch(sw);
            }
        }
        self.q.push(self.now + period, Ev::PreemptStorm);
    }

    /// The guest driver resets a quarantined queue — the
    /// `DEVICE_NEEDS_RESET` handshake completing after
    /// `Params::quarantine_reset_delay`. Rings return to their
    /// post-construction state, the worker re-admits the handler's kicks,
    /// and any guest work blocked on the broken queue resumes.
    fn on_guest_queue_reset(&mut self, vm: u32, h: HandlerId) {
        let vmi = vm as usize;
        let qi = self.vms[vmi].pair_of(h);
        let is_tx = h.idx() % 2 == 0;
        let reset = if is_tx {
            self.vms[vmi].pairs[qi].tx.guest_reset()
        } else {
            self.vms[vmi].pairs[qi].rx.guest_reset()
        };
        if !reset {
            return; // stale event: no reset outstanding
        }
        self.note_queue_reset(vm, h);
        if is_tx {
            // Re-initialization mirrors construction: TX completions are
            // reclaimed in the xmit path, interrupts armed only when the
            // ring fills.
            self.vms[vmi].pairs[qi].tx.driver_disable_interrupts();
            self.vms[vmi].pairs[qi].blocked_tx_full = false;
        } else {
            // The driver pre-fills the fresh RX ring with buffers and
            // leaves refill notifications unarmed. Each posted buffer still
            // draws a packet id, as the runtime refill does: `rss_queue`
            // hashes ids, so dropping the draws would move later packets
            // to other queues.
            self.pf.skip(u64::from(RING_SIZE));
            let rx = &mut self.vms[vmi].pairs[qi].rx;
            rx.driver_add_n(RING_SIZE, ())
                .expect("a reset ring is empty");
            rx.device_disable_notify();
        }
        self.vms[vmi].worker.release(h);
        // Ingress may have piled up behind a quarantined RX queue: put the
        // handler straight back to work on the fresh ring.
        if !is_tx && !self.vms[vmi].pairs[qi].backlog.is_empty() {
            let (w, _) = self.vms[vmi].worker.queue_work(h);
            let tid = self.vms[vmi].vhost_tids[w];
            self.wake_thread(tid);
        }
        self.guest_app_wakeup(vm);
    }

    /// Posted-interrupt hardware fails for the plan's masked VMs: every
    /// affected vCPU migrates its pending posted state into the emulated
    /// LAPIC and flips to the kick-IPI/EOI path, without losing a vector.
    fn on_pi_fail(&mut self) {
        for vmi in 0..self.vms.len() {
            if !self.faults.plan().pi_fails_for_vm(vmi) || self.vms[vmi].pi_failed {
                continue;
            }
            self.vms[vmi].pi_failed = true;
            for idx in 0..self.vms[vmi].vcpus.len() {
                if self.vms[vmi].vcpus[idx].path != InterruptPath::Posted {
                    continue;
                }
                self.vms[vmi].vcpus[idx].degrade_to_emulated();
                self.note_pi_degradation(vmi as u32, idx as u32);
                // Vectors that were pending in the posted descriptor now
                // sit in the emulated IRR; arrange their injection the way
                // the emulated path would have.
                let v = &self.vms[vmi].vcpus[idx];
                if v.has_deliverable() {
                    if v.in_guest && v.running {
                        self.q.push(
                            self.now + IPI_SEND,
                            Ev::KickIpi {
                                vm: vmi as u32,
                                vcpu: idx as u32,
                            },
                        );
                    } else {
                        let tid = self.vms[vmi].vcpu_tids[idx];
                        self.wake_thread(tid);
                    }
                }
            }
        }
    }
}

/// Record on `q` the corrupted ring state a hostile guest of `kind`
/// claims to have published. TX and RX rings carry different payload
/// types, but the claims concern indices alone.
/// The time from `elapsed` into an open burn to its next `BURN_SLICE`
/// boundary, when its first boundary lay `first` after its clock
/// started: `first - elapsed` before that boundary, then one every
/// `BURN_SLICE`. These are exactly the completions the evented chain
/// would have queued. Exactly on a boundary it is a full `BURN_SLICE`:
/// the chain's completion and the interruption tie there, and either
/// order leads to the same later boundaries.
pub(crate) fn open_burn_remaining(first: SimDuration, elapsed: SimDuration) -> SimDuration {
    if elapsed < first {
        first - elapsed
    } else {
        let into_slice = (elapsed - first).as_nanos() % BURN_SLICE.as_nanos();
        BURN_SLICE - SimDuration::from_nanos(into_slice)
    }
}

fn publish_claim<A, U>(q: &mut Virtqueue<A, U>, kind: RingCorruptionKind) {
    let size = q.size();
    match kind {
        RingCorruptionKind::DescOutOfRange => q.guest_publish_desc_index(size),
        RingCorruptionKind::AvailIdxJump => {
            // Just past the legitimate window, well short of the
            // wrap-around regression zone.
            let claimed = q
                .device_avail_cursor()
                .wrapping_add(q.avail_pending() as u16)
                .wrapping_add(0x100);
            q.guest_publish_avail_idx(claimed);
        }
        RingCorruptionKind::AvailIdxRegress => {
            let claimed = q.device_avail_cursor().wrapping_sub(1);
            q.guest_publish_avail_idx(claimed);
        }
        RingCorruptionKind::DescLoop => q.guest_publish_chain(0, 1, true),
        RingCorruptionKind::ChainOverLength => q.guest_publish_chain(0, size + 1, false),
        RingCorruptionKind::UsedOverflow => q.guest_claim_used_outstanding(size + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SLICE: u64 = BURN_SLICE.as_nanos();

    /// The evented burn a vCPU used to run: a completion at `start +
    /// rem` starts the next `BURN_SLICE` there. At an interruption that
    /// ties with a completion, `completion_first` picks which pops first.
    struct Chain {
        start: u64,
        rem: u64,
        completion_first: bool,
        boundaries: Vec<u64>,
        /// Boundaries ending a slice of length zero or `CTX_SWITCH`,
        /// resumed from a tie the interruption won.
        tie_ends: Vec<u64>,
    }

    impl Chain {
        fn new(completion_first: bool) -> Self {
            Chain {
                start: 0,
                rem: SLICE,
                completion_first,
                boundaries: Vec::new(),
                tie_ends: Vec::new(),
            }
        }

        /// Run the completions up to `t` (at `t` too if they pop first).
        fn run_to(&mut self, t: u64) {
            while self.start + self.rem < t || (self.start + self.rem == t && self.completion_first)
            {
                self.start += self.rem;
                self.rem = SLICE;
                self.boundaries.push(self.start);
            }
        }

        /// Interrupt at `t`: the saved remaining time.
        fn interrupt(&mut self, t: u64) -> u64 {
            self.run_to(t);
            self.rem -= t - self.start;
            self.rem
        }

        fn resume(&mut self, at: u64, ctx: bool) {
            if self.rem == 0 {
                self.tie_ends.push(at + ctx_ns(ctx));
            }
            self.rem += ctx_ns(ctx);
            self.start = at;
        }
    }

    fn ctx_ns(ctx: bool) -> u64 {
        if ctx {
            CTX_SWITCH.as_nanos()
        } else {
            0
        }
    }

    proptest! {
        /// An open burn keeps the phase of the chain it replaces. Through
        /// random interruptions, some exactly on a boundary, and resumes
        /// with and without `CTX_SWITCH`, its saved `remaining` equals the
        /// chain's (completion popping first at a tie) and its virtual
        /// boundaries are the chain's completions. Where the interruption
        /// pops first at a tie, the chain saves 0 and completes at the
        /// resume (after `CTX_SWITCH`) instead of at the tie; every other
        /// completion is the same.
        #[test]
        fn prop_open_burn_keeps_the_chains_boundaries(
            steps in proptest::collection::vec(
                (0u64..3 * SLICE, any::<bool>(), 0u64..SLICE, any::<bool>()),
                1..40,
            ),
        ) {
            let mut chain = Chain::new(true);
            let mut tie_first = Chain::new(false);
            let (mut start, mut rem) = (0u64, SLICE);
            let mut open_boundaries = Vec::new();
            let mut ties = Vec::new();
            for (run, on_boundary, pause, ctx) in steps {
                // `run` past the resume, or snapped to a boundary after
                // it: the next one, or the next but one.
                let t = if on_boundary {
                    ties.push(start + rem + SLICE * (run % 2));
                    start + rem + SLICE * (run % 2)
                } else {
                    start + run
                };
                let mut b = start + rem;
                while b <= t {
                    open_boundaries.push(b);
                    b += SLICE;
                }
                let saved = open_burn_remaining(
                    SimDuration::from_nanos(rem),
                    SimDuration::from_nanos(t - start),
                )
                .as_nanos();
                prop_assert_eq!(saved, chain.interrupt(t));
                tie_first.interrupt(t);
                let at = t + pause;
                (start, rem) = (at, saved + ctx_ns(ctx));
                chain.resume(at, ctx);
                tie_first.resume(at, ctx);
            }
            // Every completion before a horizon past the last resume.
            let horizon = start + 3 * SLICE;
            for c in [&mut chain, &mut tie_first] {
                c.run_to(horizon);
                c.boundaries.retain(|&b| b < horizon);
            }
            let mut b = start + rem;
            while b < horizon {
                open_boundaries.push(b);
                b += SLICE;
            }
            prop_assert_eq!(&open_boundaries, &chain.boundaries);
            let without = |all: &[u64], moved: &[u64]| -> Vec<u64> {
                all.iter().copied().filter(|b| !moved.contains(b)).collect()
            };
            prop_assert_eq!(
                without(&tie_first.boundaries, &tie_first.tie_ends),
                without(&chain.boundaries, &ties)
            );
            prop_assert_eq!(tie_first.tie_ends.len(), ties.len());
        }
    }
}
