//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate every other `es2-*` crate builds on. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulated clock,
//! * [`EventQueue`] — a stable (FIFO-among-equals) priority queue of timed
//!   events,
//! * [`rng::SimRng`] — a small, fast, seedable PRNG (xoshiro256++) so every
//!   simulation run is a pure function of its seed,
//! * [`trace`] — a cheap ring-buffer tracer for debugging event flows.
//!
//! The engine is intentionally *not* a framework: the experiment owns a world
//! struct and drains the queue itself:
//!
//! ```
//! use es2_sim::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Clone, Copy, Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_micros(5), Ev::Pong);
//! q.push(SimTime::ZERO + SimDuration::from_micros(1), Ev::Ping);
//!
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1.as_nanos(), e1), (1_000, Ev::Ping));
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((t2.as_nanos(), e2), (5_000, Ev::Pong));
//! ```
//!
//! Determinism rules observed throughout the workspace:
//!
//! 1. ties in the queue break in insertion order (a monotone sequence number),
//! 2. no wall-clock time, no global RNG — state is threaded explicitly,
//! 3. iteration over collections with nondeterministic order is forbidden in
//!    simulation logic (we use index-based arenas everywhere).

pub mod exec;
pub mod faults;
pub mod queue;
pub mod rng;
pub mod time;
pub mod token;
pub mod trace;

pub use faults::{
    DeliveryFault, FaultInjector, FaultPlan, FaultStats, HostileKick, PacketFault,
    RingCorruptionKind,
};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use token::GenToken;
