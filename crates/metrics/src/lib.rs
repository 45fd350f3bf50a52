//! Measurement infrastructure for ES2 experiments.
//!
//! This crate reproduces the *measurement methodology* of the paper's
//! evaluation (§VI):
//!
//! * [`tig`] — time-in-guest accounting ("calculated by summing up the time
//!   of each VM entry and exit, and then dividing the result by the total
//!   elapsed time"),
//! * [`histogram`] — log-linear latency histograms (span stages, and the
//!   rx-latency p99 of the testbed's per-VM ledger),
//! * [`modes`] — per-VM interrupt delivery-mode counts (posted vs
//!   emulated, and the degradations between them),
//! * [`span`] — the event-path flight recorder: per-interrupt causal
//!   spans with stage-level latency attribution (`repro --trace`),
//! * [`telemetry`] — the windowed telemetry pipeline: fixed-width
//!   sim-time windows of per-VM/per-queue/per-worker gauges, the SLO
//!   burn-rate engine and the causal annotation stream (`repro
//!   --telemetry`). Its per-VM row type, [`telemetry::VmWin`], defines
//!   how each per-VM fact changes a row; the testbed's per-VM ledger
//!   counts in the same type,
//! * [`table`] — plain-text table rendering for the repro binaries,
//! * [`json`] — the JSON value type, writer and reader behind every
//!   `BENCH_*.json` artifact, the Chrome-trace exports and the CI
//!   bench gate,
//! * [`backpressure`] — the per-VM overload-control ledger (throttled
//!   kicks, absorbed storms, quarantines) for the hostile-guest
//!   experiments,
//! * [`ev_profile`] — the per-event-kind host-time dispatch profile behind
//!   the testbed's `ev-profile` feature.

pub mod backpressure;
pub mod ev_profile;
pub mod histogram;
pub mod json;
pub mod modes;
pub mod span;
pub mod table;
pub mod telemetry;
pub mod tig;

pub use backpressure::BackpressureStats;
pub use histogram::Histogram;
pub use modes::{ModeAccounting, VmModeCounts};
pub use span::{SpanNotes, SpanRecorder, SpanReport, Stage};
pub use table::Table;
pub use telemetry::{
    Annotation, BurnAlert, SloBreach, SloMetric, SloSpec, TelemetryGeometry, TelemetryRecorder,
    TelemetryReport,
};
pub use tig::GuestTime;
