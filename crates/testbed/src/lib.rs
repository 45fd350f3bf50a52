//! The full simulated ES2 testbed (§VI-A) and experiment runners.
//!
//! This crate wires every substrate into the paper's experimental setup:
//!
//! * two "servers" connected back-to-back by a 40 GbE link — one runs the
//!   VMs under the CFS model with the configured event path
//!   (Baseline / PI / PI+H / PI+H+R), the other generates traffic,
//! * VMs with paravirtual network devices (virtio split rings + vhost
//!   worker threads), CPU-burn scripts, and the guest network stack model,
//! * the `perf-kvm`-style measurement infrastructure (exit breakdowns,
//!   TIG, latency series).
//!
//! [`machine::Machine`] is the discrete-event world; [`experiments`]
//! contains one runner per table/figure of the paper; [`params::Params`]
//! documents the calibration.
//!
//! ```no_run
//! use es2_core::EventPathConfig;
//! use es2_testbed::{Machine, Params, Topology, WorkloadSpec};
//! use es2_workloads::NetperfSpec;
//!
//! let m = Machine::new(
//!     EventPathConfig::pi_h_r(4),
//!     Topology::micro(),
//!     WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
//!     Params::default(),
//!     42,
//! );
//! let result = m.run();
//! println!("TIG = {:.1}%  exits/s = {:.0}", result.tig_percent, result.total_exit_rate());
//! ```

pub mod backpressure;
pub mod churn;
pub mod cluster;
pub mod experiments;
mod external;
mod guest;
mod host;
pub mod liveness;
pub mod machine;
pub mod migrate;
pub mod params;
pub mod results;
mod spans;
mod telemetry;
pub mod workload;

pub use churn::ChurnLedger;
pub use cluster::{Cluster, ClusterResult, ClusterSpec, PlannedMove};
pub use es2_virtio::ShardPolicy;
pub use liveness::LivenessReport;
pub use machine::{Machine, Topology, EV_KIND_NAMES};
pub use migrate::MigLedger;
pub use params::{ChurnSpec, Params};
pub use results::RunResult;
pub use workload::WorkloadSpec;
