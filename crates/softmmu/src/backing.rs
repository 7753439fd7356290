//! The mmap backing: real host memory behind the simulated address space.
//!
//! # Reserve/commit split
//!
//! One `memfd` holds the whole backing store as a sparse tmpfs file. Two
//! full-length `MAP_SHARED` views of it are mapped up front:
//!
//! * the **user view**, reserved `PROT_NONE` and re-protected at block
//!   granularity with real `mprotect` as the coherence protocol drives
//!   state transitions — this is the view whose raw pointers are handed to
//!   the zero-instrumentation scalar fast path;
//! * the **runtime view**, permanently `PROT_READ|PROT_WRITE` — the
//!   "kernel-mode" window the runtime itself copies through (DMA staging
//!   and landing, checked accesses after a software permission check), so
//!   landing bytes in a block the user view holds `PROT_NONE` never
//!   crashes.
//!
//! Pages cost nothing until touched; unmapping a region punches a
//! `FALLOC_FL_PUNCH_HOLE` through the file (freeing the pages *and*
//! guaranteeing they read zero if the range is ever mapped again) and
//! re-protects the user view `PROT_NONE`, following mmtk-core's
//! chunk-quarantine discipline.
//!
//! # Chunked translation
//!
//! Simulated addresses span the full 48-bit space but the reservation is a
//! few dozen GiB, so a flat offset is impossible. The space is divided
//! into 1 GiB chunks; a flat `sim chunk → host chunk` table (2^18 `u32`
//! entries) assigns host chunks on first use, bump-style. Translation is
//! two shifts, a table load and an add. Chunks are assigned in touch
//! order, so consecutively mapped objects are usually host-contiguous
//! even across chunk boundaries (spans are merged opportunistically).
//!
//! # Safety invariants
//!
//! * Both views live for the lifetime of the backing; all pointers handed
//!   out are invalidated by drop. Callers (the fast path) must check their
//!   object's `retired` flag before dereferencing.
//! * The runtime view is only touched under the owning shard's lock; the
//!   user view is touched lock-free by the fast path *after* an atomic
//!   block-state check. A program that breaks the ADSM contract (accessing
//!   an object while a kernel owns it) can race a downgrade and take a
//!   real `SIGSEGV` — a crash, never silent corruption.

use crate::addr::{VAddr, PAGE_SIZE, VADDR_LIMIT};
use crate::fault::{MmuError, MmuResult};
use crate::prot::Protection;
use crate::sys;

/// log2 of the chunk size (1 GiB).
const CHUNK_SHIFT: u32 = 30;
/// Granularity of the sim→host assignment.
pub(crate) const CHUNK_SIZE: u64 = 1 << CHUNK_SHIFT;
/// Number of chunks covering the 48-bit simulated space.
const SIM_CHUNKS: usize = (VADDR_LIMIT >> CHUNK_SHIFT) as usize;
/// Sentinel: sim chunk has no host chunk assigned yet.
const UNASSIGNED: u32 = u32::MAX;

/// Real memory behind the address space: one memfd, two views.
pub(crate) struct MmapBacking {
    fd: i32,
    user: *mut u8,
    runtime: *mut u8,
    reserve: u64,
    /// `sim chunk → host chunk`, [`UNASSIGNED`] until first use.
    chunk_of: Box<[u32]>,
    next_chunk: u32,
    host_chunks: u32,
}

// SAFETY: the raw pointers are owning handles to mappings that live as long
// as the backing; access discipline is documented in the module docs (the
// backing always sits behind its shard's lock, fast-path user-view access
// is atomically gated).
unsafe impl Send for MmapBacking {}
// SAFETY: see above — `&self` methods only read the translation table and
// copy through the runtime view, which callers serialize via the shard lock.
unsafe impl Sync for MmapBacking {}

impl std::fmt::Debug for MmapBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapBacking")
            .field("reserve", &self.reserve)
            .field("assigned_chunks", &self.next_chunk)
            .finish_non_exhaustive()
    }
}

impl MmapBacking {
    /// Reserves `reserve` bytes (rounded up to whole 1 GiB chunks) of real
    /// backing memory: creates the memfd and maps both views.
    ///
    /// # Errors
    /// [`MmuError::HostMmap`] when the host page size is not 4 KiB (the
    /// simulated page geometry would not line up with real `mprotect`) or
    /// when any of the host calls fail — the caller degrades to the
    /// table-walk backend.
    pub(crate) fn new(reserve: u64) -> MmuResult<Self> {
        let host_page = sys::page_size()?;
        if host_page != PAGE_SIZE {
            // Real mprotect could not express 4 KiB-granular transitions.
            return Err(MmuError::HostMmap {
                op: "page-size",
                errno: 0,
            });
        }
        let reserve = reserve
            .checked_add(CHUNK_SIZE - 1)
            .ok_or(MmuError::HostMmap {
                op: "reserve-size",
                errno: 0,
            })?
            & !(CHUNK_SIZE - 1);
        if reserve == 0 {
            return Err(MmuError::BadLength);
        }
        let fd = sys::memfd(reserve)?;
        let user = match sys::map_view(fd, reserve, sys::PROT_NONE) {
            Ok(p) => p,
            Err(e) => {
                sys::close_fd(fd);
                return Err(e);
            }
        };
        let runtime = match sys::map_view(fd, reserve, sys::PROT_READ | sys::PROT_WRITE) {
            Ok(p) => p,
            Err(e) => {
                // SAFETY: exact mapping created above; nothing references it.
                unsafe { sys::unmap(user, reserve) };
                sys::close_fd(fd);
                return Err(e);
            }
        };
        Ok(MmapBacking {
            fd,
            user,
            runtime,
            reserve,
            chunk_of: vec![UNASSIGNED; SIM_CHUNKS].into_boxed_slice(),
            next_chunk: 0,
            host_chunks: (reserve >> CHUNK_SHIFT) as u32,
        })
    }

    /// Bytes reserved (chunk-rounded).
    pub(crate) fn reserve_len(&self) -> u64 {
        self.reserve
    }

    /// Base address of the protection-managed user view (diagnostics and
    /// the `/proc/self/maps` protection tests).
    pub(crate) fn user_base(&self) -> *const u8 {
        self.user
    }

    /// Assigns host chunks to every sim chunk covering `[addr, addr+len)`.
    ///
    /// # Errors
    /// [`MmuError::OutOfVirtualSpace`] when the reservation is exhausted;
    /// already-assigned chunks are kept (assignments are permanent, pages
    /// are reclaimed by hole-punching instead).
    pub(crate) fn ensure_backed(&mut self, addr: VAddr, len: u64) -> MmuResult<()> {
        let first = (addr.0 >> CHUNK_SHIFT) as usize;
        let last = ((addr.0 + len - 1) >> CHUNK_SHIFT) as usize;
        // Validate before assigning so failure leaves no half state.
        let needed = self.chunk_of[first..=last]
            .iter()
            .filter(|&&c| c == UNASSIGNED)
            .count() as u32;
        if self.next_chunk + needed > self.host_chunks {
            return Err(MmuError::OutOfVirtualSpace);
        }
        for c in &mut self.chunk_of[first..=last] {
            if *c == UNASSIGNED {
                *c = self.next_chunk;
                self.next_chunk += 1;
            }
        }
        Ok(())
    }

    /// Host-file offset of a backed simulated address.
    #[inline]
    fn host_offset(&self, addr: VAddr) -> u64 {
        let chunk = self.chunk_of[(addr.0 >> CHUNK_SHIFT) as usize];
        debug_assert_ne!(chunk, UNASSIGNED, "address not backed: {addr}");
        ((chunk as u64) << CHUNK_SHIFT) | (addr.0 & (CHUNK_SIZE - 1))
    }

    /// Host-contiguous sub-spans of a backed range, as `(host_offset, len)`
    /// pairs. Adjacent chunks that happen to be host-adjacent are merged.
    fn spans(&self, addr: VAddr, len: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cur = addr;
        let mut remaining = len;
        let mut pending: Option<(u64, u64)> = None;
        std::iter::from_fn(move || loop {
            if remaining == 0 {
                return pending.take();
            }
            let in_chunk = (CHUNK_SIZE - (cur.0 & (CHUNK_SIZE - 1))).min(remaining);
            let off = self.host_offset(cur);
            cur = cur + in_chunk;
            remaining -= in_chunk;
            match pending {
                Some((p_off, p_len)) if p_off + p_len == off => {
                    pending = Some((p_off, p_len + in_chunk));
                }
                Some(prev) => {
                    pending = Some((off, in_chunk));
                    return Some(prev);
                }
                None => pending = Some((off, in_chunk)),
            }
        })
    }

    /// True when the whole backed range is one host-contiguous span — the
    /// precondition for handing out a raw fast-path pointer.
    pub(crate) fn is_contiguous(&self, addr: VAddr, len: u64) -> bool {
        self.spans(addr, len).nth(1).is_none()
    }

    /// Raw user-view pointer for a backed, host-contiguous range (the
    /// zero-instrumentation fast path). The pointer is valid until the
    /// backing is dropped; dereferencing is subject to the *real* page
    /// protection driven by [`Self::protect_user`].
    pub(crate) fn user_ptr(&self, addr: VAddr) -> *mut u8 {
        // SAFETY: host_offset is within the reservation by construction.
        unsafe { self.user.add(self.host_offset(addr) as usize) }
    }

    /// Applies `prot` to the user view over `[addr, addr+len)` with real
    /// `mprotect` (page-rounded outward).
    ///
    /// # Errors
    /// [`MmuError::HostMmap`] if the kernel rejects the call (e.g. VMA
    /// exhaustion); the simulated page table remains authoritative.
    pub(crate) fn protect_user(&self, addr: VAddr, len: u64, prot: Protection) -> MmuResult<()> {
        let start = addr.page_down();
        let len = (addr + len).page_up() - start;
        for (off, n) in self.spans(start, len) {
            // SAFETY: the span lies inside our owned user view; no Rust
            // references are ever formed over the user view.
            unsafe { sys::protect(self.user.add(off as usize), n, prot.host_prot())? };
        }
        Ok(())
    }

    /// Quarantines an unmapped range: punches the pages out of the backing
    /// file (freeing them and guaranteeing zeroes on re-commit) and returns
    /// the user view to `PROT_NONE`.
    ///
    /// # Errors
    /// [`MmuError::HostMmap`] only if re-protection fails; a failed hole
    /// punch falls back to zeroing through the runtime view so the
    /// fresh-allocation-reads-zero invariant survives.
    pub(crate) fn discard(&mut self, addr: VAddr, len: u64) -> MmuResult<()> {
        let start = addr.page_down();
        let len = (addr + len).page_up() - start;
        for (off, n) in self.spans(start, len) {
            if sys::punch_hole(self.fd, off, n).is_err() {
                // SAFETY: in-bounds span of the always-RW runtime view.
                unsafe { std::ptr::write_bytes(self.runtime.add(off as usize), 0, n as usize) };
            }
        }
        self.protect_user(start, len, Protection::None)
    }

    // ----- runtime-view copies ("kernel mode") ------------------------------

    /// Copies a backed range out through the runtime view.
    pub(crate) fn copy_out(&self, addr: VAddr, out: &mut [u8]) {
        let mut done = 0usize;
        for (off, n) in self.spans(addr, out.len() as u64) {
            // SAFETY: in-bounds span of the runtime view; destination is a
            // disjoint local buffer.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.runtime.add(off as usize),
                    out[done..].as_mut_ptr(),
                    n as usize,
                );
            }
            done += n as usize;
        }
    }

    /// Copies into a backed range through the runtime view.
    pub(crate) fn copy_in(&self, addr: VAddr, src: &[u8]) {
        let mut done = 0usize;
        for (off, n) in self.spans(addr, src.len() as u64) {
            // SAFETY: in-bounds span of the runtime view; source is a
            // disjoint caller buffer.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    src[done..].as_ptr(),
                    self.runtime.add(off as usize),
                    n as usize,
                );
            }
            done += n as usize;
        }
    }

    /// Appends `len` bytes of a backed range to `out` without zero-filling.
    pub(crate) fn append_to(&self, addr: VAddr, len: u64, out: &mut Vec<u8>) {
        out.reserve(len as usize);
        for (off, n) in self.spans(addr, len) {
            let at = out.len();
            // SAFETY: `reserve` guaranteed capacity; we copy exactly `n`
            // bytes from an in-bounds runtime-view span, then publish the
            // new length covering only initialized bytes.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.runtime.add(off as usize),
                    out.as_mut_ptr().add(at),
                    n as usize,
                );
                out.set_len(at + n as usize);
            }
        }
    }

    /// Fills a backed range with `value` through the runtime view.
    pub(crate) fn fill(&self, addr: VAddr, value: u8, len: u64) {
        for (off, n) in self.spans(addr, len) {
            // SAFETY: in-bounds span of the runtime view.
            unsafe { std::ptr::write_bytes(self.runtime.add(off as usize), value, n as usize) };
        }
    }

    /// True when the non-empty range `[addr, addr+len)` is backed and maps
    /// to one host-contiguous span: every chunk it touches has a host chunk
    /// (all of which lie inside the reservation), so the span is in bounds.
    fn one_span(&self, addr: VAddr, len: u64) -> bool {
        let end = addr.0.saturating_add(len);
        if len == 0 || end > VADDR_LIMIT {
            return false;
        }
        let chunks = (addr.0 >> CHUNK_SHIFT) as usize..=((end - 1) >> CHUNK_SHIFT) as usize;
        self.chunk_of[chunks].iter().all(|&c| c != UNASSIGNED) && self.is_contiguous(addr, len)
    }

    /// Borrowed runtime-view bytes of a backed range, or `None` unless it is
    /// one host-contiguous span (the bulk paths' zero-copy view).
    pub(crate) fn span(&self, addr: VAddr, len: u64) -> Option<&[u8]> {
        if !self.one_span(addr, len) {
            return None;
        }
        let off = self.host_offset(addr) as usize;
        // SAFETY: `one_span` proved the span in bounds of the runtime view;
        // it is borrowed at `&self` lifetime, runtime writers of the same
        // bytes go through `&mut self` or are serialized by the owning
        // shard's lock, and lock-free user-view writers are excluded by the
        // ADSM contract, as for `bytes` (module docs).
        Some(unsafe { std::slice::from_raw_parts(self.runtime.add(off), len as usize) })
    }

    /// Mutable runtime-view bytes of a host-contiguous backed range.
    pub(crate) fn span_mut(&mut self, addr: VAddr, len: u64) -> Option<&mut [u8]> {
        if !self.one_span(addr, len) {
            return None;
        }
        let off = self.host_offset(addr) as usize;
        // SAFETY: as `span`, with exclusive access through `&mut self`.
        Some(unsafe { std::slice::from_raw_parts_mut(self.runtime.add(off), len as usize) })
    }

    /// `memmove`s `len` bytes from `src` to `dst` inside the runtime view
    /// when both ranges are backed host-contiguous spans; returns `false`
    /// (copying nothing) otherwise.
    pub(crate) fn copy_within(&mut self, src: VAddr, dst: VAddr, len: u64) -> bool {
        if !(self.one_span(src, len) && self.one_span(dst, len)) {
            return false;
        }
        let (from, to) = (self.host_offset(src), self.host_offset(dst));
        // SAFETY: `one_span` proved both spans in bounds of the runtime
        // view, and `ptr::copy` is defined for overlapping ranges.
        unsafe {
            std::ptr::copy(
                self.runtime.add(from as usize),
                self.runtime.add(to as usize),
                len as usize,
            )
        };
        true
    }

    /// Borrowed runtime-view bytes of an intra-chunk range (the scalar
    /// access path; a scalar never crosses a chunk because chunks are
    /// page-aligned and scalars are power-of-two sized ≤ 8).
    #[inline]
    pub(crate) fn bytes(&self, addr: VAddr, len: usize) -> &[u8] {
        debug_assert!(len as u64 <= CHUNK_SIZE - (addr.0 & (CHUNK_SIZE - 1)));
        // SAFETY: in-bounds intra-chunk range of the runtime view, borrowed
        // at `&self` lifetime; mutation goes through `&self` raw copies too,
        // serialized by the owning shard's lock.
        unsafe {
            std::slice::from_raw_parts(self.runtime.add(self.host_offset(addr) as usize), len)
        }
    }

    /// Mutable runtime-view bytes of an intra-chunk range.
    #[inline]
    pub(crate) fn bytes_mut(&mut self, addr: VAddr, len: usize) -> &mut [u8] {
        debug_assert!(len as u64 <= CHUNK_SIZE - (addr.0 & (CHUNK_SIZE - 1)));
        // SAFETY: as `bytes`, with exclusive access through `&mut self`.
        unsafe {
            std::slice::from_raw_parts_mut(self.runtime.add(self.host_offset(addr) as usize), len)
        }
    }
}

impl Drop for MmapBacking {
    fn drop(&mut self) {
        // SAFETY: exact mappings created in `new`; the owning AddressSpace
        // is being dropped, so no translation (and no fast view that passed
        // its `retired` check) can still reference them — stale fast-path
        // pointers are fenced by the object's retired flag before this runs.
        unsafe {
            sys::unmap(self.user, self.reserve);
            sys::unmap(self.runtime, self.reserve);
        }
        sys::close_fd(self.fd);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_zero_on_reuse() {
        let mut b = MmapBacking::new(2 * CHUNK_SIZE).expect("backing");
        let a = VAddr(0x7000_0000_0000);
        b.ensure_backed(a, 8192).unwrap();
        b.copy_in(a + 100, &[1, 2, 3]);
        let mut out = [0u8; 3];
        b.copy_out(a + 100, &mut out);
        assert_eq!(out, [1, 2, 3]);
        b.discard(a, 8192).unwrap();
        b.copy_out(a + 100, &mut out);
        assert_eq!(out, [0, 0, 0], "hole punch must zero the pages");
    }

    #[test]
    fn chunk_translation_spans_merge_in_touch_order() {
        let mut b = MmapBacking::new(4 * CHUNK_SIZE).expect("backing");
        // Two sim chunks far apart, touched in order: host chunks 0 and 1.
        let lo = VAddr(0x1000_0000);
        let hi = VAddr(0x7000_0000_0000);
        b.ensure_backed(lo, PAGE_SIZE).unwrap();
        b.ensure_backed(hi, PAGE_SIZE).unwrap();
        assert!(b.is_contiguous(lo, PAGE_SIZE));
        // A range crossing a sim-chunk boundary whose chunks were assigned
        // consecutively is host-contiguous (merged span).
        let edge = VAddr(CHUNK_SIZE * 8 - PAGE_SIZE);
        b.ensure_backed(edge, 2 * PAGE_SIZE).unwrap();
        assert!(b.is_contiguous(edge, 2 * PAGE_SIZE));
        b.copy_in(edge, &[0xAB; 8192]);
        let mut out = [0u8; 8192];
        b.copy_out(edge, &mut out);
        assert!(out.iter().all(|&x| x == 0xAB));
    }

    #[test]
    fn reservation_exhaustion_is_clean() {
        let mut b = MmapBacking::new(CHUNK_SIZE).expect("backing");
        b.ensure_backed(VAddr(0), PAGE_SIZE).unwrap();
        // A second distinct sim chunk cannot fit in a 1-chunk reservation.
        assert!(matches!(
            b.ensure_backed(VAddr(CHUNK_SIZE * 5), PAGE_SIZE),
            Err(MmuError::OutOfVirtualSpace)
        ));
        // The first chunk still works.
        b.copy_in(VAddr(16), &[9]);
    }

    #[test]
    fn oversized_reservation_fails_without_panic() {
        assert!(MmapBacking::new(u64::MAX).is_err());
    }

    #[test]
    fn user_view_protection_transitions() {
        let mut b = MmapBacking::new(CHUNK_SIZE).expect("backing");
        let a = VAddr(0x2000);
        b.ensure_backed(a, PAGE_SIZE).unwrap();
        b.protect_user(a, PAGE_SIZE, Protection::ReadWrite).unwrap();
        let p = b.user_ptr(a);
        // SAFETY: page is RW in the user view and backed.
        unsafe {
            p.write(42);
            assert_eq!(p.read(), 42);
        }
        b.protect_user(a, PAGE_SIZE, Protection::ReadOnly).unwrap();
        // SAFETY: page is readable.
        unsafe { assert_eq!(p.read(), 42) };
        b.protect_user(a, PAGE_SIZE, Protection::None).unwrap();
        // The runtime view still works regardless.
        let mut out = [0u8; 1];
        b.copy_out(a, &mut out);
        assert_eq!(out, [42]);
    }
}
