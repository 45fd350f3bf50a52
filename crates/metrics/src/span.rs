//! Event-path flight recorder: per-interrupt causal spans with
//! stage-level latency attribution.
//!
//! ES2's whole argument (§III–§VI) is a *decomposition* of virtual I/O
//! event latency: notification cost, backend service time,
//! vCPU-scheduling delay, injection/EOI cost. This module is the
//! recording substrate for that decomposition. The testbed threads a
//! correlation ID through every guest→host request (kick → pickup →
//! vhost service) and every host→guest interrupt (MSI raise →
//! redirection → delivery → handler → EOI) and reports each stage's
//! duration here.
//!
//! Determinism contract: the recorder consumes only *sim-time*
//! nanoseconds — never the wall clock, never an RNG — so its output is a
//! pure function of the run spec and is bitwise identical at any
//! `ES2_THREADS`. It is also strictly observational: nothing in here
//! feeds back into the simulation, which is what lets `repro selfcheck`
//! demand that traced and untraced runs produce byte-identical figures.

use crate::json::Json;
use crate::Histogram;

/// One attributable stage of the event path. The first four cover the
/// guest→host request direction, the rest the host→guest interrupt
/// direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Cost of the I/O-instruction VM exit a guest kick takes
    /// (notification mode only — polling mode has no kick at all).
    KickExit,
    /// Kick signal → vhost handler turn begins (exit-driven wakeup).
    ExitNotify,
    /// Quota-requeue → handler turn begins (the hybrid scheme's polled
    /// pickup; replaces [`Stage::ExitNotify`] while polling persists).
    PolledPickup,
    /// One vhost handler turn, dispatch to completion (backend service).
    VhostService,
    /// Portion of [`Stage::Delivery`] the interrupt spent waiting because
    /// its target vCPU was off-core — the component §IV's intelligent
    /// redirection exists to remove.
    SchedDelay,
    /// MSI raise → guest handler entry, total.
    Delivery,
    /// [`Stage::Delivery`] minus [`Stage::SchedDelay`]: IPI/injection
    /// mechanics (kick-IPI + delivery exit when emulated, posted-sync
    /// when exit-less).
    Injection,
    /// Guest interrupt handler, entry to EOI (NAPI repolls included).
    Handler,
    /// EOI cost: an APIC-access exit when emulated, zero when the vAPIC
    /// completes it in guest mode.
    Eoi,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 9;

    /// Every stage, in path order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::KickExit,
        Stage::ExitNotify,
        Stage::PolledPickup,
        Stage::VhostService,
        Stage::SchedDelay,
        Stage::Delivery,
        Stage::Injection,
        Stage::Handler,
        Stage::Eoi,
    ];

    /// Histogram index.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable snake-free label used in reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::KickExit => "kick-exit",
            Stage::ExitNotify => "exit-notify",
            Stage::PolledPickup => "polled-pickup",
            Stage::VhostService => "vhost-service",
            Stage::SchedDelay => "sched-delay",
            Stage::Delivery => "delivery",
            Stage::Injection => "injection",
            Stage::Handler => "guest-handler",
            Stage::Eoi => "eoi",
        }
    }

    /// Which direction of the event path the stage belongs to.
    pub fn direction(self) -> &'static str {
        match self {
            Stage::KickExit | Stage::ExitNotify | Stage::PolledPickup | Stage::VhostService => {
                "guest-to-host"
            }
            _ => "host-to-guest",
        }
    }
}

/// Span-level annotations: everything interesting that happened to spans
/// beyond their stage durations. All counters are lifetime (not gated on
/// the measurement window) — they are an audit trail, not a rate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanNotes {
    /// Interrupt spans opened (one per non-coalesced MSI raise).
    pub irqs_opened: u64,
    /// Interrupt spans that reached EOI.
    pub irqs_closed: u64,
    /// Raises whose target was chosen by ES2 redirection (≠ affinity).
    pub redirected: u64,
    /// Raises that found their target vCPU off-core and had to wait.
    pub parked: u64,
    /// Parked interrupts migrated to a sibling that came online sooner.
    pub migrated: u64,
    /// MSI raises coalesced into an already-pending span (same vector,
    /// same vCPU — the IRR absorbs them).
    pub coalesced_irqs: u64,
    /// Of the coalesced raises, how many were watchdog re-raises.
    pub watchdog_reraises: u64,
    /// Posted→emulated degradations observed while spans were in flight.
    pub degradations: u64,
    /// Request spans opened (one per non-coalesced kick signal).
    pub reqs_opened: u64,
    /// Request spans picked up by a vhost handler turn.
    pub reqs_closed: u64,
    /// Kick signals coalesced into an already-queued handler.
    pub coalesced_kicks: u64,
    /// Kick signals that were fault-delayed before reaching the worker.
    pub delayed_kicks: u64,
    /// Kick signals issued by the liveness watchdog (lost-kick recovery).
    pub watchdog_rekicks: u64,
    /// Interrupt spans still in flight when the run ended.
    pub unclosed_irqs: u64,
    /// Request spans still in flight when the run ended.
    pub unclosed_reqs: u64,
}

/// One bounded-log entry for the Chrome-trace export. `dur_ns == 0`
/// renders as an instant event, anything else as a complete slice.
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    /// Sim-time nanoseconds of the event start.
    pub at_ns: u64,
    /// VM the event belongs to (Chrome `pid`).
    pub vm: u32,
    /// Track within the VM — vCPU index or vhost handler (Chrome `tid`).
    pub track: u32,
    /// Correlation ID (0 = none).
    pub corr: u64,
    /// Static label.
    pub name: &'static str,
    /// Slice duration (0 = instant).
    pub dur_ns: u64,
    /// One free payload value, surfaced in `args` (meaning depends on
    /// `name`; e.g. how long a parked target had already been off-core).
    pub arg: u64,
}

/// Per-VM stage histograms. A wrapper struct keeps the array's meaning
/// explicit and gives the per-stage accessor a home.
#[derive(Clone, Debug)]
pub struct StageHists {
    hists: [Histogram; Stage::COUNT],
}

impl Default for StageHists {
    fn default() -> Self {
        StageHists {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl StageHists {
    /// The histogram for one stage.
    pub fn stage(&self, s: Stage) -> &Histogram {
        &self.hists[s.idx()]
    }

    fn stage_mut(&mut self, s: Stage) -> &mut Histogram {
        &mut self.hists[s.idx()]
    }
}

/// The flight recorder: allocates correlation IDs, accumulates
/// per-(vm, stage) duration histograms, span annotations, and a bounded
/// event log. One recorder per testbed `Machine`; dropped wholesale when
/// tracing is off, so the disabled cost is a single `Option` check.
#[derive(Clone, Debug)]
pub struct SpanRecorder {
    next_corr: u64,
    vms: Vec<StageHists>,
    notes: SpanNotes,
    events: Vec<SpanEvent>,
    event_capacity: usize,
    events_dropped: u64,
}

impl SpanRecorder {
    /// A recorder for `num_vms` VMs with room for `event_capacity`
    /// Chrome-trace events (0 disables the event log entirely).
    pub fn new(num_vms: usize, event_capacity: usize) -> Self {
        SpanRecorder {
            next_corr: 0,
            vms: (0..num_vms).map(|_| StageHists::default()).collect(),
            notes: SpanNotes::default(),
            events: Vec::new(),
            event_capacity,
            events_dropped: 0,
        }
    }

    /// Allocate the next correlation ID (monotonic from 1; 0 means
    /// "none" everywhere corr IDs are threaded).
    pub fn alloc_corr(&mut self) -> u64 {
        self.next_corr += 1;
        self.next_corr
    }

    /// Record one stage duration sample for a VM.
    pub fn record(&mut self, vm: u32, stage: Stage, ns: u64) {
        self.vms[vm as usize].stage_mut(stage).record(ns);
    }

    /// Mutable access to the annotation counters.
    pub fn notes_mut(&mut self) -> &mut SpanNotes {
        &mut self.notes
    }

    /// Append one event to the bounded log; counts drops past capacity
    /// instead of silently truncating.
    pub fn event(&mut self, ev: SpanEvent) {
        if self.events.len() < self.event_capacity {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Finish recording and produce the immutable report.
    pub fn into_report(self) -> SpanReport {
        SpanReport {
            vms: self.vms,
            notes: self.notes,
            events: self.events,
            events_dropped: self.events_dropped,
        }
    }
}

/// Everything one run's flight recorder measured.
#[derive(Clone, Debug)]
pub struct SpanReport {
    /// Per-VM stage histograms (durations in sim-time nanoseconds,
    /// samples gated on the measurement window).
    pub vms: Vec<StageHists>,
    /// Span annotations (lifetime counters).
    pub notes: SpanNotes,
    /// Bounded event log for the Chrome-trace export.
    pub events: Vec<SpanEvent>,
    /// Events dropped once the log filled.
    pub events_dropped: u64,
}

impl SpanReport {
    /// Stage histogram of one VM.
    pub fn stage(&self, vm: usize, s: Stage) -> &Histogram {
        self.vms[vm].stage(s)
    }

    /// One stage merged across every VM.
    pub fn merged_stage(&self, s: Stage) -> Histogram {
        let mut h = Histogram::new();
        for vm in &self.vms {
            h.merge(vm.stage(s));
        }
        h
    }

    /// Render the bounded event log in the Chrome tracing (`chrome://
    /// tracing`, Perfetto) JSON format. Timestamps are sim-time
    /// microseconds; `pid` is the VM, `tid` the track within it.
    pub fn chrome_trace_json(&self) -> Json {
        chrome_trace(self.events.iter().map(SpanEvent::chrome).collect())
    }
}

impl SpanEvent {
    /// This event as one Chrome-trace slice (`"ph": "X"`) or, when it has
    /// no duration, thread-scoped instant (`"ph": "i"`).
    pub(crate) fn chrome(&self) -> Json {
        let e = Json::object()
            .with("name", self.name)
            .with("ph", if self.dur_ns == 0 { "i" } else { "X" })
            .with("ts", chrome_us(self.at_ns));
        let e = if self.dur_ns > 0 {
            e.with("dur", chrome_us(self.dur_ns))
        } else {
            e.with("s", "t")
        };
        e.with("pid", self.vm).with("tid", self.track).with(
            "args",
            Json::object().with("corr", self.corr).with("arg", self.arg),
        )
    }
}

/// Sim-time nanoseconds as Chrome-trace microseconds, written exactly
/// (`µs.nnn`) rather than through a float.
pub(crate) fn chrome_us(ns: u64) -> Json {
    Json::Num(format!("{}.{:03}", ns / 1_000, ns % 1_000))
}

/// A Chrome-trace document around `events`.
pub(crate) fn chrome_trace(events: Vec<Json>) -> Json {
    Json::object()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", Json::Arr(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corr_ids_are_monotonic_from_one() {
        let mut r = SpanRecorder::new(1, 0);
        assert_eq!(r.alloc_corr(), 1);
        assert_eq!(r.alloc_corr(), 2);
        assert_eq!(r.alloc_corr(), 3);
    }

    #[test]
    fn stages_record_into_per_vm_histograms() {
        let mut r = SpanRecorder::new(2, 0);
        r.record(0, Stage::Delivery, 1_000);
        r.record(0, Stage::Delivery, 3_000);
        r.record(1, Stage::Delivery, 9_000);
        r.record(1, Stage::Eoi, 0);
        let rep = r.into_report();
        assert_eq!(rep.stage(0, Stage::Delivery).count(), 2);
        assert_eq!(rep.stage(1, Stage::Delivery).count(), 1);
        assert_eq!(rep.stage(1, Stage::Eoi).count(), 1);
        assert_eq!(rep.stage(1, Stage::Eoi).max(), 0);
        let merged = rep.merged_stage(Stage::Delivery);
        assert_eq!(merged.count(), 3);
        assert!(merged.max() >= 9_000);
    }

    #[test]
    fn event_log_is_bounded_and_counts_drops() {
        let mut r = SpanRecorder::new(1, 2);
        for i in 0..5 {
            r.event(SpanEvent {
                at_ns: i * 100,
                vm: 0,
                track: 0,
                corr: i,
                name: "irq",
                dur_ns: 10,
                arg: 0,
            });
        }
        let rep = r.into_report();
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.events_dropped, 3);
        // The log keeps the oldest events (a bounded prefix window).
        assert_eq!(rep.events[0].at_ns, 0);
        assert_eq!(rep.events[1].at_ns, 100);
    }

    #[test]
    fn chrome_json_has_slices_and_instants() {
        let mut r = SpanRecorder::new(1, 8);
        r.event(SpanEvent {
            at_ns: 1_234,
            vm: 0,
            track: 1,
            corr: 7,
            name: "irq-rx",
            dur_ns: 2_500,
            arg: 0,
        });
        r.event(SpanEvent {
            at_ns: 4_000,
            vm: 0,
            track: 1,
            corr: 7,
            name: "wd-reraise",
            dur_ns: 0,
            arg: 42,
        });
        let json = r.into_report().chrome_trace_json().to_string();
        assert!(json.contains("\"name\": \"irq-rx\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"dur\": 2.500"), "{json}");
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        assert!(json.contains("\"ts\": 1.234"), "{json}");
        assert!(json.contains("\"arg\": 42"), "{json}");
        assert!(json.ends_with("]\n}"), "{json}");
    }

    #[test]
    fn stage_names_and_directions_are_stable() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.idx(), i);
        }
        assert_eq!(Stage::SchedDelay.name(), "sched-delay");
        assert_eq!(Stage::KickExit.direction(), "guest-to-host");
        assert_eq!(Stage::Eoi.direction(), "host-to-guest");
    }
}
