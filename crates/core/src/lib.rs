//! # ES2 — Efficient and reSponsive Event System for I/O virtualization
//!
//! Reproduction of *"ES2: Aiming at an Optimal Virtual I/O Event Path"*
//! (Hu, Zhang, Li, Ma, Wu, Guan — ICPP 2017). This crate contains the
//! paper's contribution proper; the surrounding substrates (APIC models,
//! CFS scheduler, virtio rings, exit machinery) live in their own crates.
//!
//! ES2 simultaneously improves both directions of the virtual I/O event
//! path on top of hardware Posted-Interrupts:
//!
//! * **Hybrid I/O handling** ([`hybrid`], §IV-B, Algorithm 1) — guest→host.
//!   Each virtqueue handler switches promptly between the exit-based
//!   *notification* mode and a non-exit *polling* mode, governed by a
//!   `quota`: a handler that fills its quota before draining the queue is
//!   requeued on the vhost worker with guest notifications still disabled
//!   (no kicks ⇒ no I/O-instruction VM exits); a handler that drains below
//!   quota re-enables notifications and sleeps (no wasted polling cycles).
//!
//! * **Intelligent interrupt redirection** ([`redirect`], §IV-C) —
//!   host→guest. An information channel from the vCPU scheduler maintains
//!   per-VM online/offline vCPU lists; device MSIs are re-targeted at
//!   `kvm_set_msi_irq` to the least-loaded online vCPU (sticky until
//!   descheduled, for cache affinity), or — if the whole VM is
//!   descheduled — to the head of the offline list (offline longest ⇒
//!   predicted to run soonest). The hook is one call: the testbed hands
//!   [`RedirectionEngine::select_target`] each MSI's affinity
//!   destination. One engine serves one host, so its lists are host-local.
//!
//! * **Configurations** ([`config`], §VI-A) — the four measured setups:
//!   `Baseline`, `PI`, `PI+H`, `PI+H+R` (full ES2).
//!
//! ## Quick example
//!
//! ```
//! use es2_core::{EventPathConfig, HybridHandler, PollDecision};
//! use es2_virtio::Virtqueue;
//!
//! // The full-ES2 configuration with the paper's TCP quota.
//! let cfg = EventPathConfig::pi_h_r(4);
//! assert!(cfg.use_pi && cfg.redirect);
//!
//! // A hybrid handler polling a TX queue.
//! let mut vq: Virtqueue<u32> = Virtqueue::new(256);
//! let mut h = HybridHandler::new(cfg.hybrid.unwrap());
//! vq.driver_add(7).unwrap();
//! h.begin_turn(&mut vq);
//! match h.poll_next(&mut vq) {
//!     PollDecision::Process(p) => assert_eq!(p, 7),
//!     other => panic!("{other:?}"),
//! }
//! ```

pub mod config;
pub mod eli;
pub mod hybrid;
pub mod redirect;

pub use config::{EventPathConfig, HybridParams};
pub use eli::{EliHazards, EliSharedApic};
pub use hybrid::{HandlerMode, HybridHandler, PollDecision};
pub use redirect::{OfflinePolicy, RedirectionEngine, TargetPolicy};
