//! Shared objects: the unit of allocation in ADSM.
//!
//! A shared object is one `adsmAlloc` result: a range of the unified address
//! space hosted in accelerator memory and mirrored in system memory. The
//! memory manager "keeps a list of the starting address and size of allocated
//! shared memory objects"; rolling-update extends each entry with "a list of
//! the starting addresses and sizes of the memory blocks composing the
//! object" (paper §4.3).
//!
//! Since block geometry is fully determined by the object size and the
//! protocol block size, the per-block list is stored as a **compact parallel
//! vector of states** ([`SharedObject::states`], one byte per block) rather
//! than a vector of `(offset, len, state)` records: [`SharedObject::block`]
//! derives the geometry on demand, and [`SharedObject::runs_in`] iterates
//! maximal **runs of equal state**, which is what every flush/fetch path
//! actually wants — a single coalesced request per run instead of one
//! per-block round trip.

use crate::fastview::ObjFastView;
use crate::state::BlockState;
use hetsim::{DevAddr, DeviceId};
use softmmu::{RegionId, VAddr};
use std::ops::Range;
use std::sync::Arc;

/// Identifies a shared object within a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

/// One fixed-size block of a shared object (the last block may be shorter,
/// exactly as the paper specifies). Returned **by value** — geometry is
/// derived from the block index, only the state is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Block {
    /// Byte offset of the block within the object.
    pub offset: u64,
    /// Block length in bytes.
    pub len: u64,
    /// Coherence state.
    pub state: BlockState,
}

/// A maximal run of adjacent blocks sharing one coherence state, as yielded
/// by [`SharedObject::runs_in`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StateRun {
    /// The state every block of the run is in.
    pub state: BlockState,
    /// Block indices of the run.
    pub blocks: Range<usize>,
    /// First byte of the run within the object.
    pub start: u64,
    /// One past the last byte of the run (clamped to the object size for
    /// the short tail block).
    pub end: u64,
}

impl StateRun {
    /// Run length in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Iterator over maximal equal-state runs (see [`SharedObject::runs_in`]).
#[derive(Debug)]
pub(crate) struct StateRuns<'a> {
    states: &'a [BlockState],
    block_size: u64,
    size: u64,
    next: usize,
    end: usize,
}

impl Iterator for StateRuns<'_> {
    type Item = StateRun;

    fn next(&mut self) -> Option<StateRun> {
        if self.next >= self.end {
            return None;
        }
        let first = self.next;
        let state = self.states[first];
        let mut i = first + 1;
        while i < self.end && self.states[i] == state {
            i += 1;
        }
        self.next = i;
        Some(StateRun {
            state,
            blocks: first..i,
            start: first as u64 * self.block_size,
            end: (i as u64 * self.block_size).min(self.size),
        })
    }
}

/// A live shared allocation.
#[derive(Debug, Clone)]
pub struct SharedObject {
    id: ObjectId,
    addr: VAddr,
    size: u64,
    dev: DeviceId,
    dev_addr: DevAddr,
    region: RegionId,
    block_size: u64,
    /// Per-block coherence states (block `i` covers
    /// `[i * block_size, min((i+1) * block_size, size))`).
    states: Vec<BlockState>,
    /// True while the object owns a device range. Evicting the object under
    /// allocation pressure releases its device window back to the first-fit
    /// allocator and clears this flag; the host mirror then holds the only
    /// copy (every block Dirty, pages read-write) until a later
    /// `adsmCall`/access re-claims a window and re-fetches lazily.
    resident: bool,
    /// Lock-free mirror consumed by the mmap fast path; `None` when the
    /// object does not qualify (table-walk backend, non-contiguous host
    /// bytes, odd block geometry). Every [`Self::set_state`] publishes into
    /// it, keeping the mirror exact.
    fast: Option<Arc<ObjFastView>>,
}

impl SharedObject {
    /// Creates an object whose blocks start in `initial` state.
    ///
    /// `block_size` is the protocol's block granularity; batch- and
    /// lazy-update pass the object size so the object is a single block.
    ///
    /// # Panics
    /// Panics if `size` or `block_size` is zero.
    // The argument list is the paper's object descriptor verbatim; a builder
    // would only obscure the one construction site in the shard.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ObjectId,
        addr: VAddr,
        size: u64,
        dev: DeviceId,
        dev_addr: DevAddr,
        region: RegionId,
        block_size: u64,
        initial: BlockState,
    ) -> Self {
        assert!(size > 0, "zero-size shared object");
        assert!(block_size > 0, "zero block size");
        let states = vec![initial; size.div_ceil(block_size) as usize];
        SharedObject {
            id,
            addr,
            size,
            dev,
            dev_addr,
            region,
            block_size,
            states,
            resident: true,
            fast: None,
        }
    }

    /// True while the object owns a device window (see the `resident`
    /// field). Non-resident objects are host-authoritative: every block is
    /// Dirty and the device address is meaningless until re-fetch.
    pub(crate) fn is_resident(&self) -> bool {
        self.resident
    }

    /// Marks the object evicted: its device window has been released. The
    /// caller (the shard's evictor) is responsible for having fetched
    /// device-only bytes to host and set every block Dirty first.
    pub(crate) fn mark_evicted(&mut self) {
        self.resident = false;
    }

    /// Re-homes the object at a freshly allocated device window. The host
    /// copy stays authoritative (blocks remain Dirty); the next release
    /// flushes everything through the ordinary plan/execute machinery.
    pub(crate) fn mark_resident(&mut self, dev_addr: DevAddr) {
        self.dev_addr = dev_addr;
        self.resident = true;
    }

    /// Attaches the fast-path mirror and publishes the current state vector
    /// into it (the view starts exact even when attached after transitions).
    pub(crate) fn attach_fast(&mut self, fast: Arc<ObjFastView>) {
        for (idx, &state) in self.states.iter().enumerate() {
            fast.publish(idx, state);
        }
        self.fast = Some(fast);
    }

    /// The attached fast-path mirror, if the object qualifies for one.
    pub(crate) fn fast_view(&self) -> Option<&Arc<ObjFastView>> {
        self.fast.as_ref()
    }

    /// Object identifier.
    pub(crate) fn id(&self) -> ObjectId {
        self.id
    }

    /// Start of the object in the unified address space.
    pub(crate) fn addr(&self) -> VAddr {
        self.addr
    }

    /// Object size in bytes.
    pub(crate) fn size(&self) -> u64 {
        self.size
    }

    /// One past the last byte.
    pub(crate) fn end(&self) -> VAddr {
        self.addr + self.size
    }

    /// The accelerator hosting the object.
    pub(crate) fn device(&self) -> DeviceId {
        self.dev
    }

    /// Device address of the object (equals [`Self::addr`] for unified
    /// allocations; differs for `safe_alloc`).
    pub(crate) fn dev_addr(&self) -> DevAddr {
        self.dev_addr
    }

    /// True when host and device use the same numeric address.
    pub(crate) fn is_unified(&self) -> bool {
        self.addr.0 == self.dev_addr.0
    }

    /// The softmmu region mirroring the object in system memory.
    pub(crate) fn region(&self) -> RegionId {
        self.region
    }

    /// Protocol block granularity for this object.
    pub(crate) fn block_size(&self) -> u64 {
        self.block_size
    }

    /// True when `addr` falls inside the object.
    pub(crate) fn contains(&self, addr: VAddr) -> bool {
        addr >= self.addr && addr < self.end()
    }

    /// Translates a unified-space address inside this object to the device
    /// address space.
    ///
    /// # Panics
    /// Panics in debug builds if `addr` is outside the object.
    pub(crate) fn translate(&self, addr: VAddr) -> DevAddr {
        debug_assert!(self.contains(addr), "translate of foreign address");
        debug_assert!(self.resident, "translate of evicted object");
        self.dev_addr.add(addr - self.addr)
    }

    /// Number of blocks.
    pub(crate) fn block_count(&self) -> usize {
        self.states.len()
    }

    /// Block by index (geometry derived, state read from the compact
    /// vector).
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub(crate) fn block(&self, idx: usize) -> Block {
        let offset = idx as u64 * self.block_size;
        Block {
            offset,
            len: self.block_size.min(self.size - offset),
            state: self.states[idx],
        }
    }

    /// Coherence state of block `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub(crate) fn state(&self, idx: usize) -> BlockState {
        self.states[idx]
    }

    /// Sets the coherence state of block `idx`.
    ///
    /// This is the single mutation point for block states; it publishes the
    /// transition into the lock-free fast-path mirror when one is attached.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub(crate) fn set_state(&mut self, idx: usize, state: BlockState) {
        self.states[idx] = state;
        if let Some(fast) = &self.fast {
            fast.publish(idx, state);
        }
    }

    /// The compact per-block state vector (cheap to snapshot: one byte per
    /// block).
    pub(crate) fn states(&self) -> &[BlockState] {
        &self.states
    }

    /// Indices of the blocks overlapping `[offset, offset + len)`.
    pub(crate) fn blocks_overlapping(&self, offset: u64, len: u64) -> Range<usize> {
        if len == 0 || offset >= self.size {
            return 0..0;
        }
        let end = (offset + len).min(self.size);
        let first = (offset / self.block_size) as usize;
        let last = ((end - 1) / self.block_size) as usize;
        first..last + 1
    }

    /// Iterates the maximal equal-state runs among the blocks overlapping
    /// `[offset, offset + len)`. Flush/fetch paths use this to issue one
    /// request per contiguous run instead of one per block; run byte bounds
    /// are block-aligned (callers clamp to their access window).
    pub(crate) fn runs_in(&self, offset: u64, len: u64) -> StateRuns<'_> {
        let range = self.blocks_overlapping(offset, len);
        StateRuns {
            states: &self.states,
            block_size: self.block_size,
            size: self.size,
            next: range.start,
            end: range.end,
        }
    }

    /// Number of blocks currently in `state`.
    pub(crate) fn count_in_state(&self, state: BlockState) -> usize {
        self.states.iter().filter(|&&s| s == state).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(size: u64, block: u64) -> SharedObject {
        SharedObject::new(
            ObjectId(1),
            VAddr(0x10_0000),
            size,
            DeviceId(0),
            DevAddr(0x10_0000),
            RegionId(1),
            block,
            BlockState::ReadOnly,
        )
    }

    #[test]
    fn block_partition_covers_object_exactly() {
        let o = obj(10_000, 4096);
        assert_eq!(o.block_count(), 3);
        assert_eq!(o.block(0).len, 4096);
        assert_eq!(o.block(1).len, 4096);
        assert_eq!(
            o.block(2).len,
            10_000 - 8192,
            "tail block is shorter (paper §4.3)"
        );
        let total: u64 = (0..o.block_count()).map(|i| o.block(i).len).sum();
        assert_eq!(total, o.size());
    }

    #[test]
    fn single_block_object() {
        let o = obj(4096, 1 << 30); // lazy-update style: block >= object
        assert_eq!(o.block_count(), 1);
        assert_eq!(o.block(0).len, 4096);
    }

    #[test]
    fn block_of_and_overlap() {
        let o = obj(16384, 4096);
        assert_eq!(o.blocks_overlapping(4095, 1), 0..1);
        assert_eq!(o.blocks_overlapping(4096, 1), 1..2);
        assert_eq!(o.blocks_overlapping(0, 1), 0..1);
        assert_eq!(o.blocks_overlapping(4000, 200), 0..2);
        assert_eq!(o.blocks_overlapping(0, 16384), 0..4);
        assert_eq!(o.blocks_overlapping(8192, 0), 0..0);
        assert_eq!(o.blocks_overlapping(20_000, 4), 0..0);
        // Clamped at the end of the object.
        assert_eq!(o.blocks_overlapping(12_288, 999_999), 3..4);
    }

    #[test]
    fn translation_unified_and_safe() {
        let o = obj(8192, 4096);
        assert!(o.is_unified());
        assert_eq!(o.translate(VAddr(0x10_0010)).0, 0x10_0010);

        let safe = SharedObject::new(
            ObjectId(2),
            VAddr(0x7000_0000_0000),
            4096,
            DeviceId(0),
            DevAddr(0x10_0000),
            RegionId(2),
            4096,
            BlockState::ReadOnly,
        );
        assert!(!safe.is_unified());
        assert_eq!(safe.translate(VAddr(0x7000_0000_0010)).0, 0x10_0010);
    }

    #[test]
    fn contains_and_bounds() {
        let o = obj(4096, 4096);
        assert!(o.contains(VAddr(0x10_0000)));
        assert!(o.contains(VAddr(0x10_0FFF)));
        assert!(!o.contains(VAddr(0x10_1000)));
        assert!(!o.contains(VAddr(0xF_FFFF)));
        assert_eq!(o.end(), VAddr(0x10_1000));
    }

    #[test]
    fn state_counting() {
        let mut o = obj(12288, 4096);
        assert_eq!(o.count_in_state(BlockState::ReadOnly), 3);
        o.set_state(1, BlockState::Dirty);
        assert_eq!(o.count_in_state(BlockState::Dirty), 1);
        assert_eq!(o.count_in_state(BlockState::ReadOnly), 2);
        assert_eq!(o.addr() + o.block(1).offset, VAddr(0x10_1000));
        assert_eq!(o.state(1), BlockState::Dirty);
        assert_eq!(o.states()[1], BlockState::Dirty);
    }

    #[test]
    fn runs_merge_adjacent_equal_states() {
        let mut o = obj(8 * 4096, 4096);
        // States: R R D D D R I I
        o.set_state(2, BlockState::Dirty);
        o.set_state(3, BlockState::Dirty);
        o.set_state(4, BlockState::Dirty);
        o.set_state(6, BlockState::Invalid);
        o.set_state(7, BlockState::Invalid);
        let runs: Vec<StateRun> = o.runs_in(0, o.size()).collect();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].state, BlockState::ReadOnly);
        assert_eq!(runs[0].blocks, 0..2);
        assert_eq!((runs[0].start, runs[0].end), (0, 2 * 4096));
        assert_eq!(runs[1].state, BlockState::Dirty);
        assert_eq!(runs[1].blocks, 2..5);
        assert_eq!(runs[1].len(), 3 * 4096);
        assert_eq!(runs[2].blocks, 5..6);
        assert_eq!(runs[3].state, BlockState::Invalid);
        assert_eq!(runs[3].blocks, 6..8);
    }

    #[test]
    fn residency_round_trips_through_a_new_device_window() {
        let mut o = obj(8192, 4096);
        assert!(o.is_resident(), "fresh objects own a device window");
        o.mark_evicted();
        assert!(!o.is_resident());
        // Re-fetch may land at a different device address; translation
        // follows the new window.
        o.mark_resident(DevAddr(0x40_0000));
        assert!(o.is_resident());
        assert_eq!(o.translate(VAddr(0x10_0010)).0, 0x40_0010);
        assert!(!o.is_unified(), "re-homed window loses unified addressing");
    }

    #[test]
    fn runs_respect_the_window_and_tail() {
        let mut o = obj(2 * 4096 + 100, 4096); // short tail block
        o.set_state(2, BlockState::Invalid);
        // Window covering only blocks 1..3.
        let runs: Vec<StateRun> = o.runs_in(4097, 2 * 4096).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].blocks, 1..2);
        assert_eq!(runs[1].blocks, 2..3);
        assert_eq!(runs[1].end, o.size(), "tail run clamped to object size");
        // Empty window yields nothing.
        assert_eq!(o.runs_in(0, 0).count(), 0);
    }
}
