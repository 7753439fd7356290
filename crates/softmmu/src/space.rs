//! The simulated host address space: region bookkeeping (`mmap`-like),
//! per-page protection (`mprotect`-like) and checked access paths.

use crate::addr::{pages_covering, VAddr, VPage, PAGE_SIZE, VADDR_LIMIT};
use crate::backing::MmapBacking;
use crate::fault::{Fault, MmuError, MmuResult};
use crate::frame::{FrameArena, FrameId};
use crate::prot::{AccessKind, Protection};
use crate::table::{PageTable, Pte};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region:{}", self.0)
    }
}

/// A contiguous mapped range of the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Region identifier.
    pub id: RegionId,
    /// First byte (page aligned).
    pub start: VAddr,
    /// Length in bytes (page aligned).
    pub len: u64,
}

impl Region {
    /// One past the last byte.
    pub fn end(&self) -> VAddr {
        self.start + self.len
    }

    /// True when `addr` lies inside the region.
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.start && addr < self.end()
    }
}

/// Number of entries in the software TLB (direct-mapped, power of two).
const TLB_ENTRIES: usize = 64;

/// One cached translation: a page's PTE plus the generation it was filled
/// at. An entry whose stamp trails [`Tlb::generation`] is stale and never
/// hits, so a single counter bump invalidates the whole TLB in O(1).
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    page: VPage,
    pte: Pte,
    stamp: u64,
}

/// A direct-mapped software TLB over the radix page table.
///
/// # Generation-counter invariant
///
/// Every mutation of the page table — `map_fixed`, `unmap_region`,
/// `protect` — MUST bump [`Tlb::generation`] before returning. A probe
/// compares the entry's fill stamp against the current generation, so any
/// entry cached before the mutation stops hitting immediately: a stale
/// translation after an `mprotect` downgrade still walks the table and
/// faults exactly like the uncached path. Entries are filled through
/// [`Cell`]s so read-only ("kernel-mode") paths can warm the cache; the
/// address space is therefore `Send` but not `Sync`, which is fine — it
/// always lives behind its device shard's mutex.
#[derive(Debug)]
struct Tlb {
    entries: [Cell<Option<TlbEntry>>; TLB_ENTRIES],
    /// Bumped by every page-table mutation (see invariant above).
    generation: u64,
    enabled: bool,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl Tlb {
    fn new() -> Self {
        Tlb {
            entries: std::array::from_fn(|_| Cell::new(None)),
            generation: 0,
            enabled: true,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    #[inline]
    fn slot(page: VPage) -> usize {
        page.0 as usize & (TLB_ENTRIES - 1)
    }

    /// Hit-only probe: no walk, no fill, no counting (callers count a hit
    /// only when the translation is actually used, so a protection-denied
    /// fast-path probe followed by the slow path's re-probe is not counted
    /// twice).
    #[inline]
    fn probe_uncounted(&self, page: VPage) -> Option<Pte> {
        if !self.enabled {
            return None;
        }
        let entry = self.entries[Self::slot(page)].get()?;
        (entry.page == page && entry.stamp == self.generation).then_some(entry.pte)
    }

    #[inline]
    fn count_hit(&self) {
        self.hits.set(self.hits.get() + 1);
    }

    #[inline]
    fn fill(&self, page: VPage, pte: Pte) {
        if self.enabled {
            self.entries[Self::slot(page)].set(Some(TlbEntry {
                page,
                pte,
                stamp: self.generation,
            }));
        }
    }

    /// O(1) whole-TLB invalidation (the generation bump).
    fn invalidate(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }
}

/// Where page bytes live: the portable boxed-frame arena, or real host
/// memory behind a reserve/commit mmap (see [`crate::backing`]).
#[derive(Debug)]
enum Backing {
    /// Portable table-walk backend: one `Box<[u8; 4096]>` per page.
    Arena(FrameArena),
    /// Real anonymous mapping: bytes at host addresses, real `mprotect`.
    Mmap(MmapBacking),
}

/// The software MMU: page table + backing store + region registry + TLB.
#[derive(Debug)]
pub struct AddressSpace {
    table: PageTable,
    backing: Backing,
    regions: BTreeMap<u64, Region>,
    /// Ranges with an escaped fast-path pointer (`start -> end`): real
    /// user-view protection is materialized lazily, only where a raw
    /// pointer can actually observe it (see [`Self::fast_base`]).
    armed: BTreeMap<u64, u64>,
    next_id: u64,
    faults_observed: u64,
    tlb: Tlb,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space on the portable frame-arena backend
    /// (TLB enabled).
    pub fn new() -> Self {
        AddressSpace {
            table: PageTable::new(),
            backing: Backing::Arena(FrameArena::new()),
            regions: BTreeMap::new(),
            armed: BTreeMap::new(),
            next_id: 1,
            faults_observed: 0,
            tlb: Tlb::new(),
        }
    }

    /// Creates an empty address space backed by a real host mapping:
    /// `reserve` bytes (chunk-rounded) are reserved up front `PROT_NONE`
    /// and committed/protected as regions are mapped. Raw host pointers
    /// into the mapping can then serve scalar access with zero
    /// instrumentation (see [`Self::fast_base`]).
    ///
    /// # Errors
    /// [`MmuError::HostMmap`] when the host cannot provide the mapping
    /// (non-Linux target, non-4 KiB pages, reservation failure) — callers
    /// degrade to [`Self::new`].
    pub fn new_mmap(reserve: u64) -> MmuResult<Self> {
        let backing = MmapBacking::new(reserve)?;
        Ok(AddressSpace {
            table: PageTable::new(),
            backing: Backing::Mmap(backing),
            regions: BTreeMap::new(),
            armed: BTreeMap::new(),
            next_id: 1,
            faults_observed: 0,
            tlb: Tlb::new(),
        })
    }

    /// Whether this space runs on the mmap backend.
    pub fn is_mmap_backed(&self) -> bool {
        matches!(self.backing, Backing::Mmap(_))
    }

    /// Raw user-view host pointer for `[addr, addr+len)` — the
    /// zero-instrumentation fast path. `Some` only on the mmap backend,
    /// for a fully mapped, host-contiguous range. Dereferencing is subject
    /// to the *real* page protection (driven by [`Self::protect`]) and to
    /// the mapping's lifetime; see the safety invariants in
    /// `backing.rs`.
    ///
    /// Handing out the pointer **arms** the range: its real user-view
    /// protection is materialized from the page table now, and every later
    /// [`Self::protect`] over it is mirrored with real `mprotect`. Ranges
    /// that never arm skip the user-view syscalls entirely — the runtime's
    /// own copies go through the always-RW runtime view and the checked
    /// path enforces the software page table, so protection there guards
    /// nobody.
    pub fn fast_base(&mut self, addr: VAddr, len: u64) -> Option<*mut u8> {
        if len == 0 {
            return None;
        }
        let end = addr.checked_add(len)?;
        let ok = {
            let Backing::Mmap(m) = &self.backing else {
                return None;
            };
            self.region_at(addr).is_some_and(|r| end <= r.end()) && m.is_contiguous(addr, len)
        };
        if !ok {
            return None;
        }
        // No pointer escapes unless its protection could be materialized.
        self.arm(addr, len).ok()?;
        let Backing::Mmap(m) = &self.backing else {
            unreachable!("backend checked above");
        };
        Some(m.user_ptr(addr))
    }

    /// Records `[addr, addr+len)` as armed and syncs its real user-view
    /// protection from the page table (one `mprotect` per equal-protection
    /// run).
    fn arm(&mut self, addr: VAddr, len: u64) -> MmuResult<()> {
        let (mut lo, mut hi) = (addr.0, addr.0 + len);
        // Coalesce with overlapping entries (re-arming is idempotent).
        // Armed ranges are pairwise disjoint, so ends ascend with starts
        // and the reverse scan stops at the first non-overlapping entry.
        let overlapping: Vec<u64> = self
            .armed
            .range(..hi)
            .rev()
            .take_while(|&(_, &e)| e > lo)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let e = self.armed.remove(&s).expect("scanned key vanished");
            lo = lo.min(s);
            hi = hi.max(e);
        }
        self.armed.insert(lo, hi);
        let Backing::Mmap(m) = &self.backing else {
            return Ok(());
        };
        let mut run: Option<(VAddr, u64, Protection)> = None;
        for page in pages_covering(addr, len) {
            let prot = self
                .table
                .lookup(page)
                .map(|pte| pte.prot)
                .ok_or(MmuError::Unmapped(page.base()))?;
            run = match run {
                Some((start, n, p)) if p == prot => Some((start, n + PAGE_SIZE, p)),
                Some((start, n, p)) => {
                    m.protect_user(start, n, p)?;
                    Some((page.base(), PAGE_SIZE, prot))
                }
                None => Some((page.base(), PAGE_SIZE, prot)),
            };
        }
        if let Some((start, n, p)) = run {
            m.protect_user(start, n, p)?;
        }
        Ok(())
    }

    /// Whether any armed range overlaps `[addr, addr+len)`.
    fn armed_intersects(&self, addr: VAddr, len: u64) -> bool {
        self.armed
            .range(..addr.0 + len)
            .next_back()
            .is_some_and(|(_, &e)| e > addr.0)
    }

    /// The host user-view reservation as `(base, len)`, for protection
    /// diagnostics (e.g. asserting `PROT_NONE` quarantine via
    /// `/proc/self/maps`). `None` on the arena backend.
    pub fn host_reservation(&self) -> Option<(usize, u64)> {
        match &self.backing {
            Backing::Mmap(m) => Some((m.user_base() as usize, m.reserve_len())),
            Backing::Arena(_) => None,
        }
    }

    // ----- TLB ---------------------------------------------------------------

    /// Enables or disables the software TLB (the ablation toggle). Disabling
    /// also drops all cached translations.
    pub fn set_tlb_enabled(&mut self, on: bool) {
        self.tlb.enabled = on;
        self.tlb.invalidate();
    }

    /// Translations served from the TLB without walking the radix table.
    pub fn tlb_hits(&self) -> u64 {
        self.tlb.hits.get()
    }

    /// Translations that had to walk the radix table (unmapped pages count
    /// as misses too; with the TLB disabled neither counter moves).
    pub fn tlb_misses(&self) -> u64 {
        self.tlb.misses.get()
    }

    /// Cached page translation: TLB probe first, radix walk + fill on a
    /// miss. Every checked and raw access path funnels through here, so the
    /// table is walked at most once per page per generation.
    #[inline]
    fn lookup_pte(&self, page: VPage) -> Option<Pte> {
        if let Some(pte) = self.tlb.probe_uncounted(page) {
            self.tlb.count_hit();
            return Some(pte);
        }
        if self.tlb.enabled {
            self.tlb.misses.set(self.tlb.misses.get() + 1);
        }
        let pte = *self.table.lookup(page)?;
        self.tlb.fill(page, pte);
        Some(pte)
    }

    /// TLB-hit-only fast translation for an access fully contained in one
    /// page: returns the PTE when a *current* cached entry permits `kind`.
    /// Misses, page-straddling accesses and protection denials all return
    /// `None` and must take the slow (checked, fault-reporting) path.
    #[inline]
    pub(crate) fn fast_translate(&self, addr: VAddr, len: usize, kind: AccessKind) -> Option<Pte> {
        if len as u64 > PAGE_SIZE - addr.page_offset() {
            return None;
        }
        let pte = self.tlb.probe_uncounted(addr.page())?;
        if pte.prot.allows(kind) {
            // Only a *used* translation counts: a protection-denied probe
            // falls to the slow path, which does its own (single) counting.
            self.tlb.count_hit();
            Some(pte)
        } else {
            None
        }
    }

    /// Bytes of an access fully contained in one page (the scalar access
    /// path, crate-internal). `pte` must be the page's current translation.
    #[inline]
    pub(crate) fn page_bytes(&self, addr: VAddr, len: usize, pte: Pte) -> &[u8] {
        match &self.backing {
            Backing::Arena(a) => {
                let off = addr.page_offset() as usize;
                &a.bytes(pte.frame)[off..off + len]
            }
            Backing::Mmap(m) => m.bytes(addr, len),
        }
    }

    /// Mutable bytes of an access fully contained in one page (the scalar
    /// access path, crate-internal).
    #[inline]
    pub(crate) fn page_bytes_mut(&mut self, addr: VAddr, len: usize, pte: Pte) -> &mut [u8] {
        match &mut self.backing {
            Backing::Arena(a) => {
                let off = addr.page_offset() as usize;
                &mut a.bytes_mut(pte.frame)[off..off + len]
            }
            Backing::Mmap(m) => m.bytes_mut(addr, len),
        }
    }

    /// Arena frame bytes (table-walk backend only).
    fn arena_bytes(&self, id: FrameId) -> &[u8] {
        match &self.backing {
            Backing::Arena(a) => a.bytes(id),
            Backing::Mmap(_) => unreachable!("arena frame access on the mmap backend"),
        }
    }

    /// Mutable arena frame bytes (table-walk backend only).
    fn arena_bytes_mut(&mut self, id: FrameId) -> &mut [u8] {
        match &mut self.backing {
            Backing::Arena(a) => a.bytes_mut(id),
            Backing::Mmap(_) => unreachable!("arena frame access on the mmap backend"),
        }
    }

    // ----- mapping -----------------------------------------------------------

    /// Maps `len` bytes at exactly `addr` (like `mmap(MAP_FIXED)`), the
    /// primitive GMAC uses to mirror an accelerator range in system memory
    /// (paper §4.2). All pages get protection `prot`.
    ///
    /// # Errors
    /// Fails if `addr` is unaligned/non-canonical, `len` is zero, or the
    /// range overlaps an existing region.
    pub fn map_fixed(&mut self, addr: VAddr, len: u64, prot: Protection) -> MmuResult<RegionId> {
        if !addr.is_page_aligned() {
            return Err(MmuError::Misaligned(addr));
        }
        if len == 0 {
            return Err(MmuError::BadLength);
        }
        let len = VAddr(len).page_up().0;
        let end = addr.checked_add(len).ok_or(MmuError::OutOfVirtualSpace)?;
        if end.0 > VADDR_LIMIT {
            return Err(MmuError::OutOfVirtualSpace);
        }
        if self.overlaps(addr, len) {
            return Err(MmuError::Overlap { addr, len });
        }
        if let Backing::Mmap(m) = &mut self.backing {
            // Commit real pages (kernel/hole-punch zeroed — no explicit
            // zero-fill pass, unlike the arena's `zeroed_frame`). The user
            // view stays quarantined (`PROT_NONE`) until a fast-path
            // pointer escapes into the range and arms it.
            m.ensure_backed(addr, len)?;
        }
        let id = RegionId(self.next_id);
        self.next_id += 1;
        for page in pages_covering(addr, len) {
            let frame = match &mut self.backing {
                Backing::Arena(a) => a.alloc(),
                // Bytes live in the host mapping; the PTE carries a sentinel.
                Backing::Mmap(_) => FrameId::SENTINEL,
            };
            let pte = Pte {
                frame,
                prot,
                region: id,
            };
            let prev = self.table.map(page, pte);
            debug_assert!(prev.is_none(), "overlap check missed a mapped page");
        }
        self.regions.insert(
            addr.0,
            Region {
                id,
                start: addr,
                len,
            },
        );
        // TLB invariant: any page-table mutation bumps the generation.
        self.tlb.invalidate();
        Ok(id)
    }

    /// Unmaps a region, releasing its frames.
    ///
    /// # Errors
    /// [`MmuError::InvalidRegion`] when the region does not exist.
    pub fn unmap_region(&mut self, id: RegionId) -> MmuResult<()> {
        let start = self
            .regions
            .iter()
            .find(|(_, r)| r.id == id)
            .map(|(&s, _)| s)
            .ok_or(MmuError::InvalidRegion(id))?;
        let region = self.regions.remove(&start).expect("region key vanished");
        // Any fast pointers into the region die with it: disarm so a future
        // tenant of these addresses starts unarmed (and quarantined).
        let stale: Vec<u64> = self
            .armed
            .range(..region.end().0)
            .rev()
            .take_while(|&(_, &e)| e > region.start.0)
            .map(|(&s, _)| s)
            .collect();
        for s in stale {
            self.armed.remove(&s);
        }
        for page in pages_covering(region.start, region.len) {
            let pte = self.table.unmap(page).expect("region page not mapped");
            if let Backing::Arena(a) = &mut self.backing {
                a.free(pte.frame);
            }
        }
        // TLB invariant: cached translations into the region must die now —
        // the frames just returned to the arena may be handed to a new
        // mapping immediately.
        self.tlb.invalidate();
        if let Backing::Mmap(m) = &mut self.backing {
            // Quarantine: punch the pages out (freeing them and guaranteeing
            // zeroes on remap) and return the user view to PROT_NONE.
            m.discard(region.start, region.len)?;
        }
        Ok(())
    }

    /// Changes protection of `[addr, addr+len)` (like `mprotect`). `addr`
    /// must be page aligned; `len` is rounded up to whole pages.
    ///
    /// # Errors
    /// Fails on misalignment or if any page in the range is unmapped.
    pub fn protect(&mut self, addr: VAddr, len: u64, prot: Protection) -> MmuResult<()> {
        if !addr.is_page_aligned() {
            return Err(MmuError::Misaligned(addr));
        }
        // Validate first so the operation is atomic.
        for page in pages_covering(addr, len) {
            if self.table.lookup(page).is_none() {
                return Err(MmuError::Unmapped(page.base()));
            }
        }
        for page in pages_covering(addr, len) {
            self.table.protect(page, prot);
        }
        // TLB invariant: a stale cached protection after `mprotect` must
        // never hit — the generation bump guarantees the next access walks
        // the table and observes (or faults on) the new permissions.
        self.tlb.invalidate();
        // Mirror the transition onto the real user view so raw fast-path
        // pointers obey exactly the permissions the table just recorded —
        // but only where such a pointer exists: unarmed ranges are only
        // ever reached through the runtime view and the checked path, so
        // a real `mprotect` there is a syscall spent guarding nobody (it
        // would dominate the per-block transitions of an eviction sweep).
        if self.armed_intersects(addr, len) {
            if let Backing::Mmap(m) = &self.backing {
                m.protect_user(addr, len, prot)?;
            }
        }
        Ok(())
    }

    // ----- introspection -------------------------------------------------------

    /// The region containing `addr`, if any.
    pub fn region_at(&self, addr: VAddr) -> Option<&Region> {
        self.regions
            .range(..=addr.0)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(addr))
    }

    /// Region by id.
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.values().find(|r| r.id == id)
    }

    /// Number of mapped regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.table.mapped_pages()
    }

    /// Protection of the page containing `addr`, if mapped.
    pub fn protection_at(&self, addr: VAddr) -> Option<Protection> {
        self.table.lookup(addr.page()).map(|p| p.prot)
    }

    /// Total protection faults this address space has reported.
    pub fn faults_observed(&self) -> u64 {
        self.faults_observed
    }

    // ----- checked access -------------------------------------------------------

    /// Verifies that `[addr, addr+len)` is mapped and permits `kind`.
    ///
    /// # Errors
    /// Returns [`MmuError::Fault`] on the first protection violation (the
    /// simulated `SIGSEGV`) or [`MmuError::Unmapped`] for holes.
    pub fn check(&mut self, addr: VAddr, len: u64, kind: AccessKind) -> MmuResult<()> {
        if len == 0 {
            return Ok(());
        }
        for page in pages_covering(addr, len) {
            let pte = self
                .lookup_pte(page)
                .ok_or(MmuError::Unmapped(page.base()))?;
            if !pte.prot.allows(kind) {
                self.faults_observed += 1;
                return Err(MmuError::Fault(Fault {
                    addr: page.base().max(addr),
                    kind,
                    prot: pte.prot,
                    region: pte.region,
                }));
            }
        }
        Ok(())
    }

    /// Checked read: validates permissions for the whole range, then copies.
    ///
    /// # Errors
    /// Propagates [`Self::check`] errors; no partial copy occurs on failure.
    pub fn read_bytes(&mut self, addr: VAddr, out: &mut [u8]) -> MmuResult<()> {
        self.check(addr, out.len() as u64, AccessKind::Read)?;
        self.copy_out(addr, out)
    }

    /// Checked write: validates permissions for the whole range, then copies.
    ///
    /// # Errors
    /// Propagates [`Self::check`] errors; no partial copy occurs on failure.
    pub fn write_bytes(&mut self, addr: VAddr, src: &[u8]) -> MmuResult<()> {
        self.check(addr, src.len() as u64, AccessKind::Write)?;
        self.copy_in(addr, src)
    }

    /// Checked fill of `len` bytes with `value`.
    ///
    /// # Errors
    /// Propagates [`Self::check`] errors; no partial fill occurs on failure.
    pub fn fill(&mut self, addr: VAddr, value: u8, len: u64) -> MmuResult<()> {
        self.check(addr, len, AccessKind::Write)?;
        if let Backing::Mmap(m) = &self.backing {
            m.fill(addr, value, len);
            return Ok(());
        }
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let page = cur.page();
            let off = cur.page_offset() as usize;
            let n = ((PAGE_SIZE - cur.page_offset()).min(remaining)) as usize;
            let pte = self.lookup_pte(page).expect("checked page vanished");
            self.arena_bytes_mut(pte.frame)[off..off + n].fill(value);
            cur = cur + n as u64;
            remaining -= n as u64;
        }
        Ok(())
    }

    /// Unchecked ("kernel-mode") read used by the runtime itself, e.g. to
    /// stage DMA. Ignores protection but requires the range to be mapped.
    ///
    /// # Errors
    /// [`MmuError::Unmapped`] for holes.
    pub fn read_raw(&self, addr: VAddr, out: &mut [u8]) -> MmuResult<()> {
        self.require_mapped(addr, out.len() as u64)?;
        self.copy_out_ref(addr, out)
    }

    /// Unchecked ("kernel-mode") write used by the runtime itself, e.g. to
    /// land DMA results. Ignores protection but requires the range mapped.
    ///
    /// # Errors
    /// [`MmuError::Unmapped`] for holes.
    pub fn write_raw(&mut self, addr: VAddr, src: &[u8]) -> MmuResult<()> {
        self.require_mapped(addr, src.len() as u64)?;
        self.copy_in(addr, src)
    }

    /// Raw ("kernel-mode") read appending exactly `len` bytes to `out`'s
    /// spare capacity — no zero-fill pass over the destination, unlike
    /// reading into a pre-zeroed buffer (the multi-MB `read_resolved` path
    /// would otherwise touch every byte twice).
    ///
    /// # Errors
    /// [`MmuError::Unmapped`] for holes; nothing is appended on failure.
    pub fn read_raw_into(&self, addr: VAddr, len: u64, out: &mut Vec<u8>) -> MmuResult<()> {
        self.require_mapped(addr, len)?;
        if let Backing::Mmap(m) = &self.backing {
            // One memcpy per host-contiguous span instead of one per page.
            m.append_to(addr, len, out);
            return Ok(());
        }
        out.reserve(len as usize);
        let mut cur = addr;
        let mut remaining = len as usize;
        while remaining > 0 {
            let page = cur.page();
            let off = cur.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(remaining);
            let pte = self.lookup_pte(page).expect("mapped page vanished");
            out.extend_from_slice(&self.arena_bytes(pte.frame)[off..off + n]);
            cur = cur + n as u64;
            remaining -= n;
        }
        Ok(())
    }

    /// Convenience: raw read into a fresh buffer.
    ///
    /// # Errors
    /// [`MmuError::Unmapped`] for holes.
    pub fn gather(&self, addr: VAddr, len: u64) -> MmuResult<Vec<u8>> {
        let mut buf = Vec::with_capacity(len as usize);
        self.read_raw_into(addr, len, &mut buf)?;
        Ok(buf)
    }

    /// Borrowed ("kernel-mode") bytes of `[addr, addr+len)` in the always-RW
    /// runtime view, ignoring protection: `Some` only on the mmap backend,
    /// for a non-empty, mapped, host-contiguous range. Lets the runtime hand
    /// host bytes to a DMA copy or a file write without staging them;
    /// `None` just means "stage through [`Self::read_raw`]".
    pub fn raw_span(&self, addr: VAddr, len: u64) -> Option<&[u8]> {
        let Backing::Mmap(m) = &self.backing else {
            return None;
        };
        self.require_mapped(addr, len).ok()?;
        m.span(addr, len)
    }

    /// Mutable counterpart of [`Self::raw_span`], for landing fetched bytes
    /// in place; `None` means "stage and [`Self::write_raw`]".
    pub fn raw_span_mut(&mut self, addr: VAddr, len: u64) -> Option<&mut [u8]> {
        self.require_mapped(addr, len).ok()?;
        match &mut self.backing {
            Backing::Mmap(m) => m.span_mut(addr, len),
            Backing::Arena(_) => None,
        }
    }

    /// Unchecked ("kernel-mode") copy of `len` bytes from `src` to `dst`
    /// inside this space, with `memmove` semantics: one `memmove` in the
    /// runtime view when both ranges are host-contiguous, staged through a
    /// buffer otherwise (the arena backend's path).
    ///
    /// # Errors
    /// [`MmuError::Unmapped`] when either range has a hole; nothing is
    /// copied then.
    pub fn copy_raw(&mut self, src: VAddr, dst: VAddr, len: u64) -> MmuResult<()> {
        self.require_mapped(src, len)?;
        self.require_mapped(dst, len)?;
        if let Backing::Mmap(m) = &mut self.backing {
            if m.copy_within(src, dst, len) {
                return Ok(());
            }
        }
        let bytes = self.gather(src, len)?;
        self.copy_in(dst, &bytes)
    }

    fn require_mapped(&self, addr: VAddr, len: u64) -> MmuResult<()> {
        if len == 0 {
            return Ok(());
        }
        // Regions are whole mapped ranges, so walking the region map is
        // O(regions covered · log n) instead of a lookup per page.
        let end = addr.checked_add(len).ok_or(MmuError::OutOfVirtualSpace)?;
        let mut cur = addr;
        while cur < end {
            let region = self
                .region_at(cur)
                .ok_or_else(|| MmuError::Unmapped(cur.page().base()))?;
            cur = region.end();
        }
        Ok(())
    }

    fn overlaps(&self, addr: VAddr, len: u64) -> bool {
        let end = addr.0 + len;
        // A region starting before `end` whose end exceeds `addr`.
        self.regions
            .range(..end)
            .next_back()
            .map(|(_, r)| r.end().0 > addr.0)
            .unwrap_or(false)
    }

    fn copy_out(&mut self, addr: VAddr, out: &mut [u8]) -> MmuResult<()> {
        self.copy_out_ref(addr, out)
    }

    pub(crate) fn copy_out_ref(&self, addr: VAddr, out: &mut [u8]) -> MmuResult<()> {
        if let Backing::Mmap(m) = &self.backing {
            // Callers validated the range (`check`/`require_mapped`), so the
            // whole copy collapses to one memcpy per host-contiguous span.
            m.copy_out(addr, out);
            return Ok(());
        }
        let mut cur = addr;
        let mut done = 0usize;
        while done < out.len() {
            let page = cur.page();
            let off = cur.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(out.len() - done);
            let pte = self
                .lookup_pte(page)
                .ok_or(MmuError::Unmapped(page.base()))?;
            out[done..done + n].copy_from_slice(&self.arena_bytes(pte.frame)[off..off + n]);
            cur = cur + n as u64;
            done += n;
        }
        Ok(())
    }

    fn copy_in(&mut self, addr: VAddr, src: &[u8]) -> MmuResult<()> {
        if let Backing::Mmap(m) = &self.backing {
            m.copy_in(addr, src);
            return Ok(());
        }
        let mut cur = addr;
        let mut done = 0usize;
        while done < src.len() {
            let page = cur.page();
            let off = cur.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(src.len() - done);
            let pte = self
                .lookup_pte(page)
                .ok_or(MmuError::Unmapped(page.base()))?;
            self.arena_bytes_mut(pte.frame)[off..off + n].copy_from_slice(&src[done..done + n]);
            cur = cur + n as u64;
            done += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RW: Protection = Protection::ReadWrite;
    const RO: Protection = Protection::ReadOnly;

    #[test]
    fn map_fixed_and_rw_roundtrip() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x2_0000_0000);
        let id = vm.map_fixed(a, 8192, RW).unwrap();
        assert_eq!(vm.region_count(), 1);
        assert_eq!(vm.mapped_pages(), 2);
        assert_eq!(vm.region_at(a + 100).unwrap().id, id);

        vm.write_bytes(a + 4090, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap(); // straddles pages
        let mut out = [0u8; 8];
        vm.read_bytes(a + 4090, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn map_fixed_rejects_overlap_and_misalignment() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x1000_0000);
        vm.map_fixed(a, 4 * PAGE_SIZE, RW).unwrap();
        // Exact overlap.
        assert!(matches!(
            vm.map_fixed(a, PAGE_SIZE, RW),
            Err(MmuError::Overlap { .. })
        ));
        // Partial overlap from below.
        assert!(matches!(
            vm.map_fixed(VAddr(a.0 - PAGE_SIZE), 2 * PAGE_SIZE, RW),
            Err(MmuError::Overlap { .. })
        ));
        // Tail overlap.
        assert!(matches!(
            vm.map_fixed(a + 3 * PAGE_SIZE, 2 * PAGE_SIZE, RW),
            Err(MmuError::Overlap { .. })
        ));
        // Adjacent is fine.
        assert!(vm.map_fixed(a + 4 * PAGE_SIZE, PAGE_SIZE, RW).is_ok());
        // Misaligned.
        assert!(matches!(
            vm.map_fixed(VAddr(0x123), PAGE_SIZE, RW),
            Err(MmuError::Misaligned(_))
        ));
        // Zero length.
        assert!(matches!(
            vm.map_fixed(VAddr(0x9000_0000), 0, RW),
            Err(MmuError::BadLength)
        ));
    }

    #[test]
    fn unmap_releases_frames_and_addresses() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x5000_0000);
        let id = vm.map_fixed(a, 2 * PAGE_SIZE, RW).unwrap();
        vm.unmap_region(id).unwrap();
        assert_eq!(vm.region_count(), 0);
        assert_eq!(vm.mapped_pages(), 0);
        assert!(matches!(
            vm.read_bytes(a, &mut [0u8; 1]),
            Err(MmuError::Unmapped(_))
        ));
        // Address can be mapped again.
        vm.map_fixed(a, PAGE_SIZE, RW).unwrap();
        // Unknown region id errors.
        assert!(matches!(
            vm.unmap_region(RegionId(999)),
            Err(MmuError::InvalidRegion(_))
        ));
    }

    #[test]
    fn read_only_pages_fault_on_write() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x3000_0000);
        vm.map_fixed(a, PAGE_SIZE, RO).unwrap();
        // Reads fine.
        vm.read_bytes(a, &mut [0u8; 16]).unwrap();
        // Writes fault with the right details.
        match vm.write_bytes(a + 8, &[1]) {
            Err(MmuError::Fault(f)) => {
                assert_eq!(f.addr, a + 8);
                assert_eq!(f.kind, AccessKind::Write);
                assert_eq!(f.prot, RO);
            }
            other => panic!("expected fault, got {other:?}"),
        }
        assert_eq!(vm.faults_observed(), 1);
    }

    #[test]
    fn none_pages_fault_on_read_and_write() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x3000_0000);
        vm.map_fixed(a, PAGE_SIZE, Protection::None).unwrap();
        assert!(matches!(
            vm.read_bytes(a, &mut [0u8; 1]),
            Err(MmuError::Fault(_))
        ));
        assert!(matches!(vm.write_bytes(a, &[0]), Err(MmuError::Fault(_))));
        assert_eq!(vm.faults_observed(), 2);
    }

    #[test]
    fn faults_are_atomic_no_partial_write() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x3000_0000);
        vm.map_fixed(a, PAGE_SIZE, RW).unwrap();
        vm.map_fixed(a + PAGE_SIZE, PAGE_SIZE, RO).unwrap();
        // Write spanning RW page then RO page: must fail without touching
        // the RW page.
        let res = vm.write_bytes(a + PAGE_SIZE - 4, &[7u8; 8]);
        assert!(matches!(res, Err(MmuError::Fault(_))));
        let mut probe = [0xAAu8; 4];
        vm.read_bytes(a + PAGE_SIZE - 4, &mut probe).unwrap();
        assert_eq!(probe, [0, 0, 0, 0], "no partial effects before the fault");
    }

    #[test]
    fn fault_addr_is_first_offending_byte() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x3000_0000);
        vm.map_fixed(a, PAGE_SIZE, RW).unwrap();
        vm.map_fixed(a + PAGE_SIZE, PAGE_SIZE, RO).unwrap();
        match vm.write_bytes(a + PAGE_SIZE - 4, &[7u8; 8]) {
            Err(MmuError::Fault(f)) => assert_eq!(f.addr, a + PAGE_SIZE),
            other => panic!("expected fault, got {other:?}"),
        }
        // Access starting mid-page reports the access start, not page base.
        match vm.write_bytes(a + PAGE_SIZE + 100, &[1]) {
            Err(MmuError::Fault(f)) => assert_eq!(f.addr, a + PAGE_SIZE + 100),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn protect_changes_permissions() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x4000_0000);
        vm.map_fixed(a, 4 * PAGE_SIZE, RO).unwrap();
        vm.protect(a + PAGE_SIZE, PAGE_SIZE, RW).unwrap();
        assert_eq!(vm.protection_at(a).unwrap(), RO);
        assert_eq!(vm.protection_at(a + PAGE_SIZE).unwrap(), RW);
        vm.write_bytes(a + PAGE_SIZE, &[1]).unwrap();
        assert!(matches!(vm.write_bytes(a, &[1]), Err(MmuError::Fault(_))));
        // Protect of unmapped range fails atomically.
        assert!(matches!(
            vm.protect(a + 3 * PAGE_SIZE, 2 * PAGE_SIZE, RW),
            Err(MmuError::Unmapped(_))
        ));
        assert_eq!(vm.protection_at(a + 3 * PAGE_SIZE).unwrap(), RO);
    }

    #[test]
    fn raw_access_ignores_protection() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x4000_0000);
        vm.map_fixed(a, PAGE_SIZE, Protection::None).unwrap();
        vm.write_raw(a, &[5, 6, 7]).unwrap();
        let mut out = [0u8; 3];
        vm.read_raw(a, &mut out).unwrap();
        assert_eq!(out, [5, 6, 7]);
        assert_eq!(vm.gather(a, 3).unwrap(), vec![5, 6, 7]);
        assert_eq!(vm.faults_observed(), 0, "raw access never faults");
        // But raw access still requires mappings.
        assert!(matches!(
            vm.write_raw(a + PAGE_SIZE, &[1]),
            Err(MmuError::Unmapped(_))
        ));
    }

    #[test]
    fn fill_respects_protection_and_page_boundaries() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x6000_0000);
        vm.map_fixed(a, 2 * PAGE_SIZE, RW).unwrap();
        vm.fill(a + 4000, 0xCC, 200).unwrap(); // crosses the boundary
        let mut out = [0u8; 200];
        vm.read_bytes(a + 4000, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xCC));
        vm.protect(a, PAGE_SIZE, RO).unwrap();
        assert!(matches!(vm.fill(a, 0xDD, 8), Err(MmuError::Fault(_))));
    }

    #[test]
    fn region_at_boundaries() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x7000_0000);
        let id = vm.map_fixed(a, 2 * PAGE_SIZE, RW).unwrap();
        assert_eq!(vm.region_at(a).unwrap().id, id);
        assert_eq!(vm.region_at(a + 2 * PAGE_SIZE - 1).unwrap().id, id);
        assert!(vm.region_at(a + 2 * PAGE_SIZE).is_none());
        assert!(vm.region_at(VAddr(a.0 - 1)).is_none());
        assert_eq!(vm.region(id).unwrap().len, 2 * PAGE_SIZE);
        assert!(vm.region(RegionId(999)).is_none());
    }

    #[test]
    fn zero_length_check_is_ok() {
        let mut vm = AddressSpace::new();
        assert!(vm.check(VAddr(0x123), 0, AccessKind::Write).is_ok());
    }

    #[test]
    fn tlb_hits_after_first_walk() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, PAGE_SIZE, RW).unwrap();
        assert!(vm.tlb.enabled);
        vm.check(a, 4, AccessKind::Read).unwrap(); // miss + fill
        let (h0, m0) = (vm.tlb_hits(), vm.tlb_misses());
        assert_eq!(m0, 1);
        vm.check(a, 4, AccessKind::Read).unwrap(); // hit
        vm.check(a + 8, 4, AccessKind::Write).unwrap(); // same page, hit
        assert_eq!(vm.tlb_hits(), h0 + 2);
        assert_eq!(vm.tlb_misses(), m0);
    }

    #[test]
    fn tlb_stale_entry_after_protect_still_faults() {
        // The generation-counter invariant: a cached ReadWrite translation
        // must not let a store slip past a later mprotect downgrade.
        let mut vm = AddressSpace::new();
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, PAGE_SIZE, RW).unwrap();
        vm.write_bytes(a, &[1]).unwrap(); // caches the RW translation
        let gen_before = vm.tlb.generation;
        vm.protect(a, PAGE_SIZE, RO).unwrap();
        assert!(vm.tlb.generation > gen_before, "protect bumps generation");
        assert!(matches!(vm.write_bytes(a, &[2]), Err(MmuError::Fault(_))));
        assert_eq!(vm.faults_observed(), 1);
        // And a stale entry after unmap must report Unmapped, not read a
        // recycled frame.
        let id = vm.region_at(a).unwrap().id;
        vm.read_bytes(a, &mut [0u8; 1]).unwrap(); // cache the RO translation
        vm.unmap_region(id).unwrap();
        assert!(matches!(
            vm.read_bytes(a, &mut [0u8; 1]),
            Err(MmuError::Unmapped(_))
        ));
    }

    #[test]
    fn tlb_disabled_behaves_identically_without_counters() {
        let mut vm = AddressSpace::new();
        vm.set_tlb_enabled(false);
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, 2 * PAGE_SIZE, RW).unwrap();
        vm.write_bytes(a + 4090, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut out = [0u8; 8];
        vm.read_bytes(a + 4090, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(vm.tlb_hits(), 0);
        assert_eq!(vm.tlb_misses(), 0);
    }

    #[test]
    fn tlb_direct_mapped_conflicts_evict() {
        // Pages 64 entries apart share a TLB slot; both still translate
        // correctly through eviction churn.
        let mut vm = AddressSpace::new();
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, 65 * PAGE_SIZE, RW).unwrap();
        let conflicting = a + 64 * PAGE_SIZE; // same direct-mapped slot
        vm.write_bytes(a, &[0xAA]).unwrap();
        vm.write_bytes(conflicting, &[0xBB]).unwrap();
        let mut x = [0u8; 1];
        vm.read_bytes(a, &mut x).unwrap();
        assert_eq!(x, [0xAA]);
        vm.read_bytes(conflicting, &mut x).unwrap();
        assert_eq!(x, [0xBB]);
    }

    #[cfg(target_os = "linux")]
    fn mmap_space() -> AddressSpace {
        AddressSpace::new_mmap(4 * crate::backing::CHUNK_SIZE).expect("mmap backing")
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmap_backend_basic_parity() {
        let mut vm = mmap_space();
        assert!(vm.is_mmap_backed());
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, 8192, RW).unwrap();
        vm.write_bytes(a + 4090, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut out = [0u8; 8];
        vm.read_bytes(a + 4090, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
        // Fresh pages read zero with no explicit zero-fill pass.
        let mut z = [0xFFu8; 16];
        vm.read_bytes(a, &mut z).unwrap();
        assert_eq!(z, [0u8; 16]);
        // Raw access ignores protection, checked access faults identically.
        vm.protect(a, PAGE_SIZE, RO).unwrap();
        assert!(matches!(vm.write_bytes(a, &[1]), Err(MmuError::Fault(_))));
        assert_eq!(vm.faults_observed(), 1);
        vm.write_raw(a, &[9]).unwrap();
        assert_eq!(vm.gather(a, 1).unwrap(), vec![9]);
        // fill + read_raw_into work through the span paths.
        vm.fill(a + PAGE_SIZE, 0xCC, 100).unwrap();
        let mut buf = Vec::new();
        vm.read_raw_into(a + PAGE_SIZE, 100, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xCC));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmap_unmap_remap_reads_zero() {
        let mut vm = mmap_space();
        let a = VAddr(0x5000_0000);
        let id = vm.map_fixed(a, 2 * PAGE_SIZE, RW).unwrap();
        vm.write_bytes(a, &[0xAB; 64]).unwrap();
        vm.unmap_region(id).unwrap();
        assert!(matches!(
            vm.read_bytes(a, &mut [0u8; 1]),
            Err(MmuError::Unmapped(_))
        ));
        vm.map_fixed(a, PAGE_SIZE, RW).unwrap();
        let mut out = [0xEEu8; 64];
        vm.read_bytes(a, &mut out).unwrap();
        assert_eq!(out, [0u8; 64], "remapped pages must read zero");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn fast_base_requires_coverage_and_contiguity() {
        let mut vm = mmap_space();
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, 4 * PAGE_SIZE, RW).unwrap();
        assert!(vm.fast_base(a, 4 * PAGE_SIZE).is_some());
        assert!(vm.fast_base(a, 0).is_none(), "zero length");
        assert!(
            vm.fast_base(a, 5 * PAGE_SIZE).is_none(),
            "extends past the region"
        );
        assert!(vm.fast_base(a + 5 * PAGE_SIZE, 8).is_none(), "unmapped");
        // The pointer reads the very bytes checked access stored.
        vm.store::<u32>(a + 8, 0xFEED).unwrap();
        let p = vm.fast_base(a, 4 * PAGE_SIZE).unwrap();
        // SAFETY: pages are ReadWrite in the user view and backed.
        let val = unsafe { p.add(8).cast::<u32>().read_unaligned() };
        assert_eq!(val, 0xFEED);
        // The arena backend never vends pointers or a reservation.
        let mut arena = AddressSpace::new();
        arena.map_fixed(a, PAGE_SIZE, RW).unwrap();
        assert!(arena.fast_base(a, 8).is_none());
        assert!(arena.host_reservation().is_none());
        assert!(vm.host_reservation().is_some());
    }

    #[test]
    fn read_raw_into_appends_without_zero_fill() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, 2 * PAGE_SIZE, RW).unwrap();
        vm.write_raw(a, &[7u8; 8192]).unwrap();
        let mut out = vec![0xEEu8; 4]; // pre-existing bytes must survive
        vm.read_raw_into(a + 100, 5000, &mut out).unwrap();
        assert_eq!(out.len(), 5004);
        assert_eq!(&out[..4], &[0xEE; 4]);
        assert!(out[4..].iter().all(|&b| b == 7));
        // Failure appends nothing.
        let before = out.len();
        assert!(matches!(
            vm.read_raw_into(a + 2 * PAGE_SIZE - 4, 16, &mut out),
            Err(MmuError::Unmapped(_))
        ));
        assert_eq!(out.len(), before, "no partial append on error");
    }
}
