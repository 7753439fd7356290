//! # softmmu — a software MMU
//!
//! The GMAC paper detects CPU accesses to shared data with hardware memory
//! protection: `mmap` fixed-address mappings, `mprotect` permission changes
//! and `SIGSEGV` delivery to a user-level handler (§4.2–4.3). This crate
//! provides that state machine as an explicit substrate:
//!
//! * a 48-bit virtual [`AddressSpace`] with `mmap(MAP_FIXED)` / anonymous
//!   mapping / `mprotect` equivalents backed by a real 4-level radix
//!   page table,
//! * per-page [`Protection`] checked on every access,
//! * [`Fault`] values standing in for `SIGSEGV`: the GMAC runtime resolves
//!   the fault (protocol transition + permission change) and retries, exactly
//!   like the paper's signal handler,
//! * raw ("kernel-mode") access paths the runtime uses to stage DMA without
//!   tripping its own protection,
//! * a direct-mapped software **TLB** caching page → (frame, protection)
//!   translations, so hot access paths skip the 4-level radix walk.
//!
//! ## Two byte-storage backends
//!
//! Where the *bytes* live is pluggable, and the two backends are
//! observationally identical (same faults, same data, same virtual time —
//! only wall-clock time differs):
//!
//! * [`AddressSpace::new`] — the portable **table-walk** backend: one boxed
//!   4 KiB frame per page, every access software-checked. Works anywhere.
//! * [`AddressSpace::new_mmap`] — the **mmap** backend (Linux): the paper's
//!   actual mechanism. Real host memory is reserved `PROT_NONE` up front
//!   and committed/re-protected with real `mprotect` as regions are mapped
//!   (`backing.rs`). The software page table stays authoritative for
//!   checked access and fault reporting, but accessible ranges can hand out
//!   raw host pointers ([`AddressSpace::fast_base`]) so a hot scalar access
//!   is a plain load/store with **zero instrumentation** on the hit path.
//!
//! ## TLB generation invariant
//!
//! Every page-table mutation (`map_fixed`, `unmap_region`, `protect`) bumps
//! an internal generation counter; TLB entries are stamped at fill time and
//! only hit while their stamp matches. A stale entry after
//! an `mprotect` downgrade therefore never lets an access slip through: the
//! probe misses, the radix walk observes the new permissions, and the access
//! faults exactly as it would uncached. `AddressSpace::set_tlb_enabled(false)`
//! turns the cache off entirely (the GMAC ablation mode); behaviour is
//! bit-identical either way, only wall-clock time differs.
//!
//! ```
//! use softmmu::{AddressSpace, Protection, VAddr, MmuError};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut vm = AddressSpace::new();
//! let region = vm.map_fixed(VAddr(0x2_0000_0000), 4096, Protection::ReadOnly)?;
//! // A write faults like SIGSEGV...
//! assert!(matches!(vm.store::<u32>(VAddr(0x2_0000_0000), 7), Err(MmuError::Fault(_))));
//! // ...the "handler" upgrades permissions and the retry succeeds.
//! vm.protect(VAddr(0x2_0000_0000), 4096, Protection::ReadWrite)?;
//! vm.store::<u32>(VAddr(0x2_0000_0000), 7)?;
//! # let _ = region;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::missing_safety_doc)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod access;
mod addr;
mod backing;
mod fault;
mod frame;
mod prot;
mod space;
mod sys;
mod table;

pub use access::{as_bytes, decode_with, from_bytes, to_bytes, Scalar};
pub use addr::{VAddr, VPage, PAGE_SIZE, VADDR_LIMIT};
pub use fault::{Fault, MmuError, MmuResult};
pub use prot::{AccessKind, Protection};
pub use space::{AddressSpace, Region, RegionId};
