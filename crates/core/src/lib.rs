//! # gmac — Asymmetric Distributed Shared Memory for heterogeneous systems
//!
//! A Rust reproduction of **GMAC**, the user-level ADSM runtime of Gelado et
//! al., *"An Asymmetric Distributed Shared Memory Model for Heterogeneous
//! Parallel Systems"* (ASPLOS 2010).
//!
//! ADSM maintains a shared logical address space in which the **CPU can
//! transparently access objects hosted in accelerator memory, but not vice
//! versa**. The asymmetry means every coherence and consistency action runs
//! on the host — at allocation, page-fault, kernel-call and kernel-return
//! boundaries — allowing accelerators with no coherence support at all.
//!
//! ## The API (paper Table 1)
//!
//! The runtime is split in two: a process-wide [`Gmac`] (platform + software
//! MMU + object registry + coherence machinery, **sharded per accelerator**
//! — see `shard.rs`) and cheap per-thread [`Session`] handles that carry the
//! Table 1 calls. Kernel calls, protocol state and MMU regions are owned per
//! device shard, so sessions driving different devices each keep a call in
//! flight *and* overlap in wall-clock time.
//!
//! ```
//! use gmac::{Gmac, GmacConfig, Protocol};
//! use hetsim::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gmac = Gmac::new(
//!     Platform::desktop_g280(),
//!     GmacConfig::default().protocol(Protocol::Rolling),
//! );
//! let session = gmac.session();
//!
//! // adsmAlloc, typed: ONE pointer, valid on CPU and accelerator.
//! let v = session.alloc_typed::<f32>(1024)?;
//!
//! // The CPU initialises the object directly — no cudaMemcpy anywhere.
//! v.write_slice(&vec![1.0; 1024])?;
//! assert_eq!(v.read(17)?, 1.0);
//!
//! // adsmFree on drop (or explicitly):
//! v.free()?;
//! # Ok(())
//! # }
//! ```
//!
//! Kernels are launched with [`Session::call`] (`adsmCall`) and joined with
//! [`Session::sync`] (`adsmSync`); shared objects are released to the
//! accelerator at the call and acquired back by the CPU at the sync — the
//! implicit release consistency of §3.3.
//!
//! ## Coherence protocols
//!
//! Three host-driven protocols are selectable via [`GmacConfig`]
//! (see `protocol/`): [`Protocol::Batch`], [`Protocol::Lazy`] and
//! [`Protocol::Rolling`] — each a refinement of the previous, exactly as the
//! paper presents them.
//!
//! ## Substrate
//!
//! This crate contains *no* real GPU code: it runs on the simulated platform
//! of the [`hetsim`] crate and detects CPU accesses with the software MMU of
//! [`softmmu`]. On the default mmap backing each block's protection is also
//! applied with real `mprotect`, but no `SIGSEGV` handler exists: accesses
//! are checked in software and faults are resolved on the accessing thread
//! (see the README's "Memory backing" section). The programming model,
//! state machines, transfer policies and cost accounting are faithful to
//! the paper.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::missing_safety_doc)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod bulk;
mod config;
mod error;
mod evict;
mod fasttime;
mod fastview;
mod gmac;
mod io;
// Public only for the benchmark's probes (`benchmark/API_SURFACE.md`).
#[doc(hidden)]
pub mod manager;
mod object;
mod protocol;
mod ptr;
mod race;
mod registry;
mod report;
mod runtime;
mod sched;
mod service;
mod session;
mod shard;
mod state;
// `NopKernel` for the integration tests and the bench crate.
#[doc(hidden)]
pub mod testutil;
mod typed;
mod xfer;

pub use config::{AalLayer, EvictPolicy, GmacConfig, GmacCosts, LookupKind, Protocol};
pub use error::{AdmissionReason, GmacError, GmacResult};
pub use gmac::Gmac;
pub use object::{ObjectId, SharedObject};
pub use ptr::{Param, SharedPtr};
pub use race::{RaceKind, RaceStats, RaceViolation};
pub use report::{EvictionReport, ObjectReport, RaceReport, Report};
pub use runtime::Counters;
pub use sched::SchedPolicy;
pub use service::{
    ClassSnapshot, JobFn, JobId, LoadBoard, Priority, Service, ServiceClient, ServiceSnapshot,
    Ticket,
};
pub use session::{Session, SessionId};
pub use state::BlockState;
pub use typed::Shared;
pub use xfer::{Purpose, TransferPlan};
