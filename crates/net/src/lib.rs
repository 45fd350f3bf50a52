//! Network substrate: packets, links, NIC queues and transport-flow models.
//!
//! The paper's testbed is two Xeon servers connected back-to-back with
//! Mellanox ConnectX-3 40 GbE NICs (§VI-A). This crate provides the
//! simulated equivalent:
//!
//! * [`packet::Packet`] — a sized, typed frame with timestamps for latency
//!   measurement,
//! * [`wire::Link`] — a serializing link with bandwidth, propagation delay
//!   and FIFO queueing (the 40 GbE cable),
//! * [`nic::NicQueue`] — a bounded device queue with tail-drop accounting
//!   (where UDP receive overload shows up),
//! * [`tcp::TcpFlow`] — window-based flow control with delayed ACKs. TCP's
//!   *bidirectional* traffic is load-bearing for the evaluation: ingress
//!   ACKs are what make the interrupt path matter for a sender (§VI-C:
//!   "the external interrupt exit is triggered due to the virtual interrupt
//!   injection, notifying the tested VM of ingress ACK packets"), and the
//!   fluctuating I/O load of ACK-clocked sending is why TCP needs a smaller
//!   quota than UDP (§VI-B). UDP needs no flow model: "UDP traffic is
//!   unidirectional and connectionless, bringing a consecutive high I/O
//!   load", so a UDP stream is plain [`packet::PacketKind::Data`] frames.

pub mod nic;
pub mod packet;
pub mod tcp;
pub mod wire;

pub use nic::{rss_queue, NicQueue};
pub use packet::{FlowId, Packet, PacketFactory, PacketKind};
pub use tcp::TcpFlow;
pub use wire::Link;
