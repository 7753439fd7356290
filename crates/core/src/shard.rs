//! Per-device runtime shards.
//!
//! A [`DeviceShard`] owns **everything the runtime mutates on behalf of one
//! accelerator**: the manager slice holding that device's shared objects
//! (including per-block coherence state), the host-side MMU regions
//! mirroring those objects, the device's own coherence-protocol instance
//! (rolling-update's dirty FIFO, batch-update's write-set annotation), the
//! pending kernel call, the asynchronous-DMA queue and the event counters.
//!
//! The ADSM model makes this split sound: coherence work happens only at
//! acquire/release boundaries driven by the host thread attached to the
//! accelerator (paper §3.2/§3.3), and a kernel's parameters must all live on
//! its own device ([`crate::GmacError::MixedDevices`]), so between
//! boundaries the state of two shards is independent. Cross-device
//! operations (`memcpy` between objects homed on different accelerators,
//! `sync` across all devices) are explicit multi-shard transactions that
//! lock shards **one at a time, in device-id order** — see the lock-order
//! invariant below.
//!
//! # Lock-order invariant
//!
//! The sharded runtime has four lock families, acquired strictly in this
//! order:
//!
//! 1. the **registry** `RwLock` (address → home-device routing; read-mostly),
//! 2. at most **one shard** mutex at a time (never shard → shard),
//! 3. the **DMA engine** queue mutexes ([`crate::xfer::DmaEngine`]) — a
//!    shard may submit to or join the engine while locked; engine workers
//!    never take a shard lock (debug-asserted in the worker path via
//!    `shard_locks_held`),
//! 4. platform-internal leaf locks (device mutexes, clock, ledgers) below
//!    any shard or engine lock.
//!
//! In practice the registry guard is dropped *before* the shard mutex is
//! taken (routing returns plain values), so no gmac-level locks ever nest;
//! multi-shard transactions stage data through host buffers between shard
//! acquisitions instead of holding two shards at once. Every shard-mutex
//! acquisition goes through `lock_shard`, which maintains the per-thread
//! held count backing the worker-path assertion.

use crate::config::GmacConfig;
use crate::error::{GmacError, GmacResult};
use crate::evict::EvictState;
use crate::fastview::ObjFastView;
use crate::manager::Manager;
use crate::object::{ObjectId, SharedObject};
use crate::protocol::{make, CoherenceProtocol};
use crate::ptr::SharedPtr;
use crate::race::RaceDetector;
use crate::runtime::Runtime;
use crate::service::LoadBoard;
use crate::session::{SessionId, SessionView};
use crate::state::BlockState;
use crate::xfer::{DmaEngine, Purpose};
use hetsim::{Category, CopyMode, DevAddr, DeviceId, Direction, Platform, SimError, StreamId};
use softmmu::{AccessKind, AddressSpace, MmuError, MmuResult, Scalar, VAddr};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

thread_local! {
    /// How many [`DeviceShard`] mutexes the current thread holds. Backs the
    /// debug assertion that no shard lock is held while a DMA worker
    /// executes a job (tier 3 of the lock order never re-enters tier 2).
    static SHARD_LOCKS_HELD: Cell<u32> = const { Cell::new(0) };
}

/// Shard mutexes held by the current thread (see [`SHARD_LOCKS_HELD`]).
pub(crate) fn shard_locks_held() -> u32 {
    SHARD_LOCKS_HELD.with(Cell::get)
}

/// Guard for a [`DeviceShard`] mutex that keeps the per-thread held count
/// accurate. All shard acquisitions must go through [`lock_shard`] so the
/// count — and the lock-order assertion built on it — stays trustworthy.
#[derive(Debug)]
pub(crate) struct ShardGuard<'a>(MutexGuard<'a, DeviceShard>);

impl Deref for ShardGuard<'_> {
    type Target = DeviceShard;
    fn deref(&self) -> &DeviceShard {
        &self.0
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut DeviceShard {
        &mut self.0
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        SHARD_LOCKS_HELD.with(|c| c.set(c.get() - 1));
    }
}

/// Disk-tier spill file name for the evicted image of the object at `addr`
/// (the unified start address is unique for an object's lifetime).
pub(crate) fn spill_name(addr: VAddr) -> String {
    format!("gmac-spill-{:#x}", addr.0)
}

/// Acquires a shard mutex (poison-tolerant) and counts the hold.
pub(crate) fn lock_shard(slot: &Mutex<DeviceShard>) -> ShardGuard<'_> {
    let guard = slot
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    SHARD_LOCKS_HELD.with(|c| c.set(c.get() + 1));
    ShardGuard(guard)
}

/// An outstanding accelerator call awaiting a `sync`.
#[derive(Debug, Clone)]
pub(crate) struct PendingCall {
    /// Session that issued the call (only it may sync or stack more calls).
    pub(crate) session: SessionId,
    /// Stream the kernel was launched on.
    pub(crate) stream: StreamId,
    /// Start addresses of the shared objects the call references; `free` on
    /// any of them fails with [`GmacError::ObjectInUse`] until the sync.
    pub(crate) objects: Vec<VAddr>,
}

/// One-entry object memo: the last successfully routed `(range, slab slot)`
/// of this shard's manager. A hit turns the per-access B-tree search into a
/// range compare + O(1) slab access.
///
/// # Invalidation invariant
///
/// The memo MUST be cleared whenever the manager's population changes
/// (object installed or freed): slab slots are reused, so a stale memo
/// could otherwise route an old range to a stranger's object. Block-*state*
/// changes never move objects, so protocol transitions need no
/// invalidation. Gated by [`crate::GmacConfig::tlb`] like every access
/// fast-path cache.
#[derive(Debug, Clone, Copy)]
struct ObjMemo {
    start: VAddr,
    end: u64,
    slot: usize,
}

/// Where [`DeviceShard::shared_write`]'s general form takes its bytes.
#[derive(Debug, Clone, Copy)]
enum WriteSrc<'a> {
    /// A caller buffer exactly as long as the destination range.
    Bytes(&'a [u8]),
    /// The same-length range at this address of the shard's own host
    /// mapping, already readable and disjoint from the destination.
    Host(VAddr),
}

impl WriteSrc<'_> {
    /// Lands source bytes `[at, at+len)` at `dst` (raw, "kernel mode").
    fn land(self, vm: &mut AddressSpace, dst: VAddr, at: u64, len: u64) -> MmuResult<()> {
        match self {
            WriteSrc::Bytes(bytes) => vm.write_raw(dst, &bytes[at as usize..(at + len) as usize]),
            WriteSrc::Host(src) => vm.copy_raw(src + at, dst, len),
        }
    }
}

/// The independently-lockable runtime state of one accelerator.
///
/// One `DeviceShard` exists per platform device, each behind its own mutex
/// inside the shared [`crate::Gmac`] runtime. An operation acquires exactly
/// the shards it names (almost always one, found by routing the pointer
/// through the read-mostly registry), so sessions driving different
/// accelerators run concurrently in wall-clock terms.
///
/// See the [module docs](self) for the lock-order invariant.
#[derive(Debug)]
pub(crate) struct DeviceShard {
    pub(crate) dev: DeviceId,
    /// Per-shard runtime: shared platform handle + this shard's MMU regions,
    /// DMA queue and counters.
    pub(crate) rt: Runtime,
    /// Registry slice: the shared objects homed on this device, including
    /// their per-block coherence state.
    pub(crate) mgr: Manager,
    /// This device's own protocol instance (per-device dirty FIFO, rolling
    /// size, release annotations).
    pub(crate) protocol: Box<dyn CoherenceProtocol>,
    /// The at-most-one un-synced kernel call on this accelerator.
    pub(crate) pending: Option<PendingCall>,
    /// Device-memory-as-a-cache bookkeeping: touch stamps, clock bits and
    /// the host-tier image ledger (see [`crate::evict`]).
    pub(crate) evict: EvictState,
    /// Shared load board: this shard reports its resident device bytes so
    /// the service placer can prefer devices with free capacity.
    loads: Arc<LoadBoard>,
    /// Shared coherence race detector ([`crate::GmacConfig::race_check`]);
    /// `None` when detection is off, so the disabled mode pays nothing on
    /// any access path. Lock order: the detector mutex is a leaf below this
    /// shard's lock.
    race: Option<Arc<RaceDetector>>,
    /// Access-fast-path memo (see [`ObjMemo`]).
    obj_memo: Option<ObjMemo>,
}

impl DeviceShard {
    pub(crate) fn new(
        dev: DeviceId,
        platform: Arc<Platform>,
        config: &GmacConfig,
        engine: Option<Arc<DmaEngine>>,
        loads: Arc<LoadBoard>,
        race: Option<Arc<RaceDetector>>,
    ) -> Self {
        DeviceShard {
            dev,
            rt: Runtime::from_shared(platform, config.clone(), engine),
            mgr: Manager::new(config.lookup),
            protocol: make(config.protocol),
            pending: None,
            evict: EvictState::new(config.evict_policy),
            loads,
            race,
            obj_memo: None,
        }
    }

    // ----- object routing (the shard-level fast path) -----------------------

    /// Resolves `addr` to `(object start, slab slot)`: memo hit when the
    /// fast path is enabled and `addr` falls in the last routed range,
    /// otherwise one counted manager search (`Counters::obj_lookups`).
    ///
    /// The wall-clock saving never touches virtual time: the simulated
    /// fault-handler lookup cost is charged per fault via
    /// [`Manager::lookup_steps`] regardless of how the host found the
    /// object.
    pub(crate) fn locate(&mut self, addr: VAddr) -> GmacResult<(VAddr, usize)> {
        if self.rt.config.tlb {
            if let Some(memo) = self.obj_memo {
                if addr >= memo.start && addr.0 < memo.end {
                    self.rt.counters.obj_memo_hits += 1;
                    self.evict.touch(memo.slot);
                    return Ok((memo.start, memo.slot));
                }
            }
        }
        self.rt.counters.obj_lookups += 1;
        let slot = self.mgr.locate(addr).ok_or(GmacError::NotShared(addr))?;
        let obj = self.mgr.by_slot(slot).expect("located slot is live");
        let (start, end) = (obj.addr(), obj.end().0);
        if self.rt.config.tlb {
            self.obj_memo = Some(ObjMemo { start, end, slot });
        }
        self.evict.touch(slot);
        Ok((start, slot))
    }

    /// Invalidation half of the memo invariant: called on every insert or
    /// remove in this shard's manager.
    fn invalidate_memo(&mut self) {
        self.obj_memo = None;
    }

    // ----- allocation -------------------------------------------------------

    /// Maps and registers a freshly device-allocated object (the tail of
    /// `adsmAlloc`/`adsmSafeAlloc`; the registry claim already succeeded).
    /// With `want_fast`, also builds and returns the object's
    /// zero-instrumentation fast view when it qualifies for one (see
    /// [`Self::make_fast_view`]), for embedding in the typed handle. Raw
    /// `SharedPtr` allocations pass `false`: no raw pointer ever escapes
    /// for them, so building a view would pointlessly arm the range and
    /// put real `mprotect` on every block transition.
    pub(crate) fn install_object(
        &mut self,
        id: ObjectId,
        dev_addr: DevAddr,
        addr: VAddr,
        size: u64,
        want_fast: bool,
    ) -> GmacResult<(SharedPtr, Option<Arc<ObjFastView>>)> {
        let initial = self.protocol.initial_state();
        let region = self.rt.vm.map_fixed(addr, size, initial.protection())?;
        let block_size = self.protocol.block_size_for(&self.rt.config, size);
        let mut obj = SharedObject::new(
            id, addr, size, self.dev, dev_addr, region, block_size, initial,
        );
        let fast = if want_fast {
            self.make_fast_view(addr, size, block_size)
        } else {
            None
        };
        if let Some(fast) = &fast {
            obj.attach_fast(Arc::clone(fast));
        }
        let slot = self.mgr.insert(obj);
        // Slab slots are reused: clear any stale stamp, then count the
        // allocation itself as the first touch (a fresh object is warm).
        self.evict.forget(slot);
        self.evict.touch(slot);
        self.loads.add_resident(self.dev, size);
        self.invalidate_memo();
        self.protocol.on_alloc(&mut self.rt, &mut self.mgr, addr)?;
        Ok((SharedPtr::new(addr), fast))
    }

    /// Builds the lock-free fast view for a just-mapped object, when every
    /// precondition holds:
    ///
    /// * the access fast paths are enabled (`tlb`; turning them off is the
    ///   instrumented-baseline ablation);
    /// * the softmmu hands out a stable host pointer for the whole object
    ///   ([`softmmu::AddressSpace::fast_base`]: mmap backend + contiguous);
    /// * the block size is a power of two and a multiple of every scalar
    ///   size, so an element access never straddles a block boundary and the
    ///   per-access probe is one shift + one atomic load.
    fn make_fast_view(
        &mut self,
        addr: VAddr,
        size: u64,
        block_size: u64,
    ) -> Option<Arc<ObjFastView>> {
        if !self.rt.config.tlb {
            return None;
        }
        if !block_size.is_power_of_two() || !block_size.is_multiple_of(8) {
            return None;
        }
        let base = self.rt.vm.fast_base(addr, size)?;
        let states = vec![self.protocol.initial_state(); size.div_ceil(block_size) as usize];
        Some(ObjFastView::new(
            base,
            size,
            block_size.trailing_zeros(),
            &states,
            Arc::clone(&self.rt.platform),
        ))
    }

    /// `adsmFree` under this shard's lock. `id` gates the free on allocation
    /// identity (the RAII [`crate::Shared`] path). Returns the freed start
    /// address and, for resident objects, the device range **without**
    /// returning the latter to the device allocator: the caller must release
    /// the registry claim first and only then `dev_free` the returned range,
    /// so a concurrent alloc can never be handed a first-fit device address
    /// whose host claim is still registered (a spurious `AddressCollision`).
    /// Evicted objects own no device range (`None`); their host image — and
    /// any disk-tier spill file — is retired here.
    ///
    /// Failure paths charge **nothing** (a failed free must not desync the
    /// time ledger), and objects referenced by a still-pending call are
    /// rejected with [`GmacError::ObjectInUse`].
    pub(crate) fn free_locked(
        &mut self,
        ptr: SharedPtr,
        id: Option<ObjectId>,
    ) -> GmacResult<(VAddr, Option<DevAddr>)> {
        let obj = self
            .mgr
            .find(ptr.addr())
            .ok_or(GmacError::NotShared(ptr.addr()))?;
        if let Some(expect) = id {
            if obj.id() != expect {
                return Err(GmacError::NotShared(ptr.addr()));
            }
        }
        let addr = obj.addr();
        if let Some(call) = &self.pending {
            if call.objects.contains(&addr) {
                return Err(GmacError::ObjectInUse {
                    addr,
                    dev: self.dev,
                    owner: call.session,
                });
            }
        }
        // Wall-clock pin: queued engine jobs may still target this object's
        // device range. Let them land before the range can be unmapped and
        // handed back to the allocator — a realloc must never race a stale
        // byte landing. (The staging buffers are engine-owned, so there is
        // no use-after-free either way; this gates the device range.)
        self.rt.join_object(self.dev, addr)?;
        let free_base = self.rt.config.costs.free_base;
        self.rt.charge(Category::Free, free_base);
        let slot = self.mgr.locate(addr).expect("object found above");
        let obj = self.mgr.remove(addr).expect("object found above");
        if obj.is_resident() {
            self.loads.sub_resident(self.dev, obj.size());
        } else if self.evict.release_image(slot) {
            // Freeing an evicted-and-spilled object retires its spill file;
            // the write-behind copy is simply dropped, never read back.
            self.rt.platform.fs_mut().remove(&spill_name(addr));
        }
        self.evict.forget(slot);
        if let Some(fast) = obj.fast_view() {
            // Stale typed handles must miss from here on; the checked path
            // then reports `NotShared` exactly as it always did.
            fast.retire();
        }
        self.invalidate_memo();
        if let Some(race) = &self.race {
            // First-fit reuses addresses: stale stamps on a freed range
            // would flag an unrelated future object.
            race.note_free(addr);
        }
        self.protocol.on_free(&mut self.rt, &obj)?;
        self.rt.vm.unmap_region(obj.region())?;
        Ok((addr, obj.is_resident().then(|| obj.dev_addr())))
    }

    // ----- device memory as a cache (eviction, §tentpole) -------------------

    /// Allocates `size` device bytes on this shard's accelerator, treating
    /// device memory as a cache over host memory: when the first-fit
    /// allocator cannot satisfy the request, cold resident objects are
    /// evicted back to host (their device ranges released) until a
    /// large-enough contiguous free block exists, then the allocation is
    /// retried. Objects named in `pinned` or referenced by the pending call
    /// are never victims; objects with in-flight DMA are victims of last
    /// resort — they are only evicted when the quiescent candidates did not
    /// free enough space, and their transfers are joined first so no object
    /// is ever evicted while a transfer is in flight.
    ///
    /// With [`GmacConfig::evict`] off, or when every resident object is
    /// pinned and the request still does not fit, fails with
    /// [`GmacError::DeviceOom`].
    pub(crate) fn alloc_device_range(
        &mut self,
        size: u64,
        pinned: &[VAddr],
    ) -> GmacResult<DevAddr> {
        match self.rt.platform.dev_alloc(self.dev, size) {
            Ok(dev_addr) => return Ok(dev_addr),
            Err(SimError::OutOfDeviceMemory { requested, free }) => {
                if !self.rt.config.evict {
                    return Err(GmacError::DeviceOom {
                        requested,
                        free,
                        device: self.dev,
                    });
                }
                self.evict_until_fits(requested, pinned)?;
            }
            Err(e) => return Err(e.into()),
        }
        // `evict_until_fits` only returns Ok once the allocator holds a
        // contiguous free region of at least the rounded request, so the
        // first-fit retry cannot fail.
        Ok(self.rt.platform.dev_alloc(self.dev, size)?)
    }

    /// Evicts unpinned resident objects, coldest first per the configured
    /// policy, until the device allocator's largest contiguous free block
    /// can hold `requested` (already rounded) bytes.
    fn evict_until_fits(&mut self, requested: u64, pinned: &[VAddr]) -> GmacResult<()> {
        let mut candidates = Vec::new();
        let mut deferred = Vec::new();
        for addr in self.mgr.addrs() {
            let slot = self.mgr.locate(addr).expect("registered object");
            let obj = self.mgr.by_slot(slot).expect("registered object");
            if !obj.is_resident() {
                continue;
            }
            let call_pinned = self
                .pending
                .as_ref()
                .is_some_and(|call| call.objects.contains(&addr));
            if pinned.contains(&addr) || call_pinned {
                self.rt.counters.pin_saves += 1;
                continue;
            }
            if self.rt.object_dma_busy(self.dev, addr) {
                // Victim of last resort: preferred over failing the alloc,
                // but only after quiescent candidates (evict_object joins
                // the object's transfers before touching its range).
                deferred.push(slot);
                continue;
            }
            candidates.push(slot);
        }
        for slot in self.evict.order(&candidates) {
            if self.largest_free_dev_block() >= requested {
                break;
            }
            self.evict_object(slot)?;
        }
        for slot in self.evict.order(&deferred) {
            if self.largest_free_dev_block() >= requested {
                self.rt.counters.pin_saves += 1;
                continue;
            }
            self.evict_object(slot)?;
        }
        if self.largest_free_dev_block() >= requested {
            Ok(())
        } else {
            Err(GmacError::DeviceOom {
                requested,
                free: self
                    .rt
                    .platform
                    .device(self.dev)
                    .map(|d| d.mem().free_bytes())
                    .unwrap_or(0),
                device: self.dev,
            })
        }
    }

    /// True when an **evicted** object of this shard still claims host
    /// addresses overlapping `[addr, addr + size)`. The unified-allocation
    /// path uses this to tell a recycled device window (the evicted owner
    /// keeps its host range; fall back to a non-unified claim) from a
    /// genuine cross-device collision (surface `AddressCollision`).
    pub(crate) fn evicted_overlaps(&self, addr: VAddr, size: u64) -> bool {
        self.mgr
            .iter()
            .any(|obj| !obj.is_resident() && obj.addr().0 < addr.0 + size && obj.end() > addr)
    }

    /// Largest contiguous free block of this device's first-fit allocator
    /// (the device mutex is a leaf lock — legal under the shard lock).
    fn largest_free_dev_block(&self) -> u64 {
        self.rt
            .platform
            .device(self.dev)
            .map(|d| d.mem().largest_free_block())
            .unwrap_or(0)
    }

    /// Evicts the resident object in `slot` back to host memory and returns
    /// its device range to the allocator.
    ///
    /// Device-authoritative bytes (Invalid runs) are fetched home through
    /// the ordinary D2H plan machinery; afterwards the host mirror is the
    /// only copy, so every block goes Dirty with pages read-write — which
    /// is exactly what makes the later re-fetch free of data movement (the
    /// next release flushes the whole object H2D through the normal path).
    fn evict_object(&mut self, slot: usize) -> GmacResult<()> {
        let obj = self
            .mgr
            .by_slot(slot)
            .expect("eviction candidate is live")
            .clone();
        let addr = obj.addr();
        // Queued engine landings must commit before the range is read back
        // and handed to the allocator — no object is ever evicted while a
        // transfer on it is in flight.
        self.rt.join_object(self.dev, addr)?;
        let mut plan = self
            .rt
            .plan(Direction::DeviceToHost, CopyMode::Sync, Purpose::Eviction);
        for run in obj.runs_in(0, obj.size()) {
            if run.state == BlockState::Invalid {
                plan.request(&obj, run.start, run.len());
            }
        }
        self.rt.execute(&plan)?;
        // Protocol bookkeeping tied to the device copy (rolling-update's
        // dirty FIFO) drops the object before its blocks are re-stated.
        self.protocol.on_evict(&mut self.rt, &mut self.mgr, addr)?;
        self.rt.protect_object(&obj, BlockState::Dirty)?;
        {
            let live = self
                .mgr
                .by_slot_mut(slot)
                .expect("eviction candidate is live");
            for idx in 0..live.block_count() {
                live.set_state(idx, BlockState::Dirty);
            }
            if self.race.is_some() {
                // The set_state loop re-published Dirty into the fast-view
                // mirror, which would re-arm warm writes a race_downgrade
                // had suspended — and eviction/re-fetch is runtime traffic,
                // not an access, so it must not change what the detector
                // observes. Re-suspend.
                if let Some(fast) = live.fast_view() {
                    fast.downgrade_dirty();
                }
            }
            live.mark_evicted();
        }
        self.rt.platform.dev_free(self.dev, obj.dev_addr())?;
        self.rt.counters.evictions += 1;
        self.rt.counters.evicted_bytes += obj.size();
        self.evict.note_evicted(slot, obj.size());
        self.loads.sub_resident(self.dev, obj.size());
        self.spill_overflow()
    }

    /// Write-behind spill: brings the host-tier image ledger back under the
    /// configured budget ([`GmacConfig::host_capacity`]) by copying the
    /// coldest evicted images to the disk tier (priced `IoWrite`). The host
    /// bytes stay live and authoritative — the softmmu cannot drop pages —
    /// so the spill file is a priced shadow copy that is never read back
    /// into host memory (CPU writes to a spilled object cannot be clobbered
    /// by stale file content).
    fn spill_overflow(&mut self) -> GmacResult<()> {
        let Some(budget) = self.rt.config.host_capacity else {
            return Ok(());
        };
        for (slot, bytes) in self.evict.overflow(budget) {
            let obj = self.mgr.by_slot(slot).expect("spilled slot is live");
            let (addr, size) = (obj.addr(), obj.size());
            debug_assert_eq!(size, bytes, "spill ledger disagrees with object");
            let image = self.rt.vm.gather(addr, size)?;
            self.rt.platform.file_write(&spill_name(addr), 0, &image)?;
            self.rt.counters.disk_spills += 1;
        }
        Ok(())
    }

    /// Re-homes the object containing `addr` in a fresh device window if it
    /// was evicted; a no-op for resident objects. `pinned` objects survive
    /// any eviction this re-fetch itself triggers. The re-fetch moves **no
    /// data**: eviction left every block Dirty (host authoritative), so the
    /// next release flushes the whole object H2D through the normal path.
    pub(crate) fn ensure_resident(&mut self, addr: VAddr, pinned: &[VAddr]) -> GmacResult<()> {
        let (start, slot) = self.locate(addr)?;
        let size = {
            let obj = self.mgr.by_slot(slot).expect("located slot is live");
            if obj.is_resident() {
                return Ok(());
            }
            obj.size()
        };
        let dev_addr = self.alloc_device_range(size, pinned)?;
        self.mgr
            .by_slot_mut(slot)
            .expect("located slot is live")
            .mark_resident(dev_addr);
        self.protocol
            .on_resident(&mut self.rt, &mut self.mgr, start)?;
        self.rt.counters.refetches += 1;
        self.rt.counters.refetch_bytes += size;
        if self.evict.release_image(slot) {
            // The spilled shadow copy pays its disk read-back and retires;
            // the host image stayed live and authoritative throughout, so
            // the bytes themselves are discarded.
            let mut scratch = vec![0u8; size as usize];
            self.rt
                .platform
                .file_read(&spill_name(start), 0, &mut scratch)?;
            self.rt.platform.fs_mut().remove(&spill_name(start));
        }
        self.loads.add_resident(self.dev, size);
        if self.race.is_some() {
            // Re-fetch is runtime traffic, not an access: any block states
            // the protocol re-published into the fast-view mirror must not
            // re-arm warm writes the detector still wants to see.
            self.race_downgrade(&[start]);
        }
        Ok(())
    }

    // ----- race detection hooks ---------------------------------------------

    /// Hook: a program CPU write of `[addr, addr + len)` landed through this
    /// shard (scalar store, slice/bulk write, I/O interposition). No-op
    /// unless [`crate::GmacConfig::race_check`] is on. Stamps the covered
    /// blocks with the writing session's epoch, checks against the in-flight
    /// call, and re-publishes Dirty into the fast-view mirror for the
    /// checked blocks — restoring the zero-instrumentation warm path that
    /// [`Self::race_downgrade`] suspended at the last epoch boundary.
    ///
    /// In error mode the violation is returned *after* the bytes landed and
    /// the touch time was charged: detection is diagnostic, not
    /// transactional — virtual time stays byte-identical to a run without
    /// the error.
    pub(crate) fn race_note_write(&mut self, addr: VAddr, len: u64) -> GmacResult<()> {
        let Some(race) = self.race.clone() else {
            return Ok(());
        };
        if len == 0 {
            return Ok(());
        }
        let slot = self.race_locate(addr)?;
        let obj = self.mgr.by_slot(slot).expect("located slot is live");
        let start = obj.addr();
        let offset = addr - start;
        let violation = race.note_cpu_write(self.dev, start, obj.block_size(), offset, len);
        if let Some(fast) = obj.fast_view() {
            for idx in obj.blocks_overlapping(offset, len) {
                if obj.state(idx) == BlockState::Dirty {
                    fast.publish(idx, BlockState::Dirty);
                }
            }
        }
        match violation {
            Some(v) => Err(v.into_error()),
            None => Ok(()),
        }
    }

    /// Hook: `launcher` is about to launch a call referencing `objects` on
    /// this device. Runs **before** the launch charge and the protocol
    /// release, so an error-mode detection charges nothing and flushes
    /// nothing (mirroring the failed-call-charges-nothing invariant).
    pub(crate) fn race_check_launch(
        &mut self,
        launcher: SessionId,
        objects: &[VAddr],
    ) -> GmacResult<()> {
        let Some(race) = self.race.clone() else {
            return Ok(());
        };
        let mut described = Vec::with_capacity(objects.len());
        for &addr in objects {
            let slot = self.race_locate(addr)?;
            let obj = self.mgr.by_slot(slot).expect("located slot is live");
            described.push((obj.addr(), obj.block_size()));
        }
        match race.check_launch(launcher, self.dev, &described) {
            Some(v) => Err(v.into_error()),
            None => Ok(()),
        }
    }

    /// Hook: the launch succeeded (after [`Self::note_pending`]). Advances
    /// the epochs and suspends the referenced objects' fast-path warm
    /// writes so the first post-launch write per block goes through the
    /// detector.
    pub(crate) fn race_note_launched(&mut self, launcher: SessionId, objects: &[VAddr]) {
        let Some(race) = self.race.clone() else {
            return;
        };
        race.note_launched(launcher, self.dev, objects);
        self.race_downgrade(objects);
    }

    /// Downgrades the fast-view mirrors of `objects` (mirror only — softmmu
    /// protection is untouched, so the forced slow-path re-entry succeeds
    /// without a fault and charges exactly the same touch time the fast
    /// path would have deferred). The first write per block per epoch then
    /// misses into [`Self::race_note_write`], which re-arms the warm path.
    fn race_downgrade(&mut self, objects: &[VAddr]) {
        for &addr in objects {
            if let Ok(slot) = self.race_locate(addr) {
                if let Some(fast) = self.mgr.by_slot(slot).and_then(|obj| obj.fast_view()) {
                    fast.downgrade_dirty();
                }
            }
        }
    }

    /// Counter-free object resolution for the detector hooks: bypasses the
    /// object memo, the lookup counters and the eviction touch stamps, so a
    /// race-checked run keeps its counters and its victim order
    /// byte-identical to the same run with detection off.
    fn race_locate(&mut self, addr: VAddr) -> GmacResult<usize> {
        self.mgr.locate(addr).ok_or(GmacError::NotShared(addr))
    }

    // ----- kernel execution -------------------------------------------------

    /// Joins the pending call on this shard (session already checked).
    pub(crate) fn sync_one(&mut self) -> GmacResult<()> {
        let call = self.pending.take().ok_or(GmacError::NothingToSync)?;
        let sync_base = self.rt.config.costs.sync_base;
        self.rt.charge(Category::Sync, sync_base);
        self.rt.platform.sync_stream(self.dev, call.stream)?;
        self.protocol
            .acquire(&mut self.rt, &mut self.mgr, self.dev)?;
        if let Some(race) = self.race.clone() {
            // Sync is an acquire/release boundary: clear the in-flight call,
            // advance the session's epoch, and force first-touch-per-block
            // of the synced objects back through the detector.
            race.note_sync(call.session, self.dev);
            self.race_downgrade(&call.objects);
        }
        Ok(())
    }

    /// Records a launched call (stacking same-session calls: the pending
    /// entry accumulates the union of referenced objects so `free` stays
    /// guarded for all of them).
    pub(crate) fn note_pending(
        &mut self,
        view: SessionView,
        stream: StreamId,
        objects: Vec<VAddr>,
    ) {
        let entry = self.pending.get_or_insert(PendingCall {
            session: view.id,
            stream,
            objects: Vec::new(),
        });
        for addr in objects {
            if !entry.objects.contains(&addr) {
                entry.objects.push(addr);
            }
        }
    }

    /// `adsmSafe(address)`. A device address only exists for resident
    /// objects, so an evicted target is re-homed first.
    pub(crate) fn translate(&mut self, ptr: SharedPtr) -> GmacResult<DevAddr> {
        self.ensure_resident(ptr.addr(), &[])?;
        let (_, slot) = self.locate(ptr.addr())?;
        let obj = self.mgr.by_slot(slot).expect("located slot is live");
        Ok(obj.translate(ptr.addr()))
    }

    // ----- transparent CPU access -------------------------------------------

    /// Scalar load with the fault-retry loop (the paper's signal-handler
    /// protocol, §4.3): the access itself *is* the protection check — on a
    /// TLB hit it is a single probe + frame copy; a fault is resolved by
    /// the protocol and the access retried, exactly like re-executing the
    /// faulting instruction.
    pub(crate) fn load<T: Scalar>(&mut self, ptr: SharedPtr) -> GmacResult<T> {
        let mut budget = Self::fault_budget(T::SIZE as u64);
        loop {
            match self.rt.vm.load::<T>(ptr.addr()) {
                Ok(value) => {
                    self.rt.platform.cpu_touch(T::SIZE as u64);
                    return Ok(value);
                }
                Err(e) => self.retry_fault(e, AccessKind::Read, &mut budget)?,
            }
        }
    }

    /// Scalar store, mirroring [`Self::load`].
    pub(crate) fn store<T: Scalar>(&mut self, ptr: SharedPtr, value: T) -> GmacResult<()> {
        let mut budget = Self::fault_budget(T::SIZE as u64);
        loop {
            match self.rt.vm.store(ptr.addr(), value) {
                Ok(()) => {
                    self.rt.platform.cpu_touch(T::SIZE as u64);
                    self.race_note_write(ptr.addr(), T::SIZE as u64)?;
                    return Ok(());
                }
                Err(e) => self.retry_fault(e, AccessKind::Write, &mut budget)?,
            }
        }
    }

    /// One fault can occur per block an access spans; anything beyond that
    /// means the protocol failed to make progress.
    fn fault_budget(len: u64) -> u64 {
        4 + len / softmmu::PAGE_SIZE
    }

    /// Shared fault-resolution step of the scalar retry loops: resolve a
    /// protection fault through the protocol (spending `budget`), translate
    /// MMU errors, propagate everything else.
    fn retry_fault(&mut self, err: MmuError, kind: AccessKind, budget: &mut u64) -> GmacResult<()> {
        match err {
            MmuError::Fault(fault) => {
                if *budget == 0 {
                    return Err(GmacError::UnresolvedFault(fault.to_string()));
                }
                *budget -= 1;
                self.handle_fault(fault.addr, kind)
            }
            MmuError::Unmapped(a) => Err(GmacError::NotShared(a)),
            e => Err(e.into()),
        }
    }

    pub(crate) fn load_slice<T: Scalar>(&mut self, ptr: SharedPtr, n: usize) -> GmacResult<Vec<T>> {
        softmmu::decode_with(n, |bytes| self.shared_read_into(ptr, bytes))
    }

    pub(crate) fn store_slice<T: Scalar>(
        &mut self,
        ptr: SharedPtr,
        values: &[T],
    ) -> GmacResult<()> {
        self.shared_write(ptr, &softmmu::as_bytes(values))
    }

    /// The "signal handler": charge delivery + lookup, then let the protocol
    /// resolve the faulting block. The charge models the paper's
    /// balanced-tree walk and is identical whether the host-side resolution
    /// came from the memo or a real search.
    fn handle_fault(&mut self, fault_addr: VAddr, kind: AccessKind) -> GmacResult<()> {
        let (start, _) = self.locate(fault_addr)?;
        let offset = fault_addr - start;
        let steps = self.mgr.lookup_steps();
        self.rt.charge_signal(steps, kind == AccessKind::Write);
        match kind {
            AccessKind::Read => {
                self.protocol
                    .prepare_read(&mut self.rt, &mut self.mgr, start, offset, 1)
            }
            AccessKind::Write => {
                self.protocol
                    .prepare_write(&mut self.rt, &mut self.mgr, start, offset, 1)
            }
        }
    }

    /// Shared read used by slice loads, bulk ops and I/O: pay one fault per
    /// touched block that is not readable, resolve the whole range through
    /// the protocol in a single batched call (runs of adjacent invalid
    /// blocks coalesce into single DMA jobs), then copy `[ptr, ptr+len)`
    /// straight into `out` (`len = out.len()`).
    pub(crate) fn shared_read_into(&mut self, ptr: SharedPtr, out: &mut [u8]) -> GmacResult<()> {
        let len = out.len() as u64;
        self.resolve_read_range(ptr, len)?;
        self.rt.vm.read_raw(ptr.addr(), out)?;
        // The application's own CPU time to traverse the range.
        self.rt.platform.cpu_touch(len);
        Ok(())
    }

    /// [`Self::shared_read_into`] a new buffer: the staged copies, across
    /// shards or between overlapping ranges.
    pub(crate) fn shared_read(&mut self, ptr: SharedPtr, len: u64) -> GmacResult<Vec<u8>> {
        softmmu::decode_with(len as usize, |out| self.shared_read_into(ptr, out))
    }

    /// Same-shard shared-to-shared copy between disjoint ranges, with no
    /// temporary: the source is resolved and charged exactly as
    /// [`Self::shared_read`] would, then each destination run is copied in
    /// place inside the host mapping. Nothing the destination's write path
    /// does changes the source's host bytes: evictions only flush, and a
    /// fetch only lands in an invalid block, which no block the source
    /// touches is any more.
    pub(crate) fn copy_shared(
        &mut self,
        dst: SharedPtr,
        src: SharedPtr,
        len: u64,
    ) -> GmacResult<()> {
        self.resolve_read_range(src, len)?;
        self.rt.platform.cpu_touch(len);
        self.write_from(dst, len, WriteSrc::Host(src.addr()))
    }

    /// Makes `[ptr, ptr+len)` CPU-readable: charges one fault-equivalent per
    /// invalid block the range touches (an element loop would fault on the
    /// first touch of each), then lets the protocol fetch them all in one
    /// planned, coalesced batch. Counts invalid blocks by iterating state
    /// runs, not per-block indices.
    pub(crate) fn resolve_read_range(&mut self, ptr: SharedPtr, len: u64) -> GmacResult<()> {
        let (start, slot) = self.locate(ptr.addr())?;
        let base_offset = ptr.addr() - start;
        let invalid = {
            let obj = self.mgr.by_slot(slot).expect("located slot is live");
            Runtime::check_bounds(obj, base_offset, len)?;
            obj.runs_in(base_offset, len)
                .filter(|run| run.state == BlockState::Invalid)
                .map(|run| run.blocks.len() as u64)
                .sum::<u64>()
        };
        if invalid > 0 {
            let steps = self.mgr.lookup_steps();
            for _ in 0..invalid {
                self.rt.charge_signal(steps, false);
            }
            self.protocol
                .prepare_read(&mut self.rt, &mut self.mgr, start, base_offset, len)?;
        }
        Ok(())
    }

    /// Run-chunked shared write used by slice stores, bulk ops and I/O.
    ///
    /// The object is resolved **once** (the historical per-block
    /// `mgr.find` re-lookup is gone — `Counters::obj_lookups` proves it);
    /// the loop then walks equal-state runs of a snapshot of the compact
    /// state vector:
    ///
    /// * **dirty runs** land their bytes in one raw write — no protocol
    ///   interaction at all;
    /// * **non-dirty runs** keep the strict per-block `fault → prepare →
    ///   write` ordering, because rolling-update's `prepare_write` may evict
    ///   older dirty blocks *within the same call* — bytes must be landed
    ///   before the next block is prepared (see
    ///   [`CoherenceProtocol::prepare_write`]).
    ///
    /// The snapshot is refreshed whenever the protocol flushed anything
    /// (`blocks_flushed` moved): an eviction downgrades some Dirty block —
    /// possibly one still ahead of the cursor — to ReadOnly, and writing it
    /// without re-dirtying would strand the bytes on the host.
    pub(crate) fn shared_write(&mut self, ptr: SharedPtr, bytes: &[u8]) -> GmacResult<()> {
        self.write_from(ptr, bytes.len() as u64, WriteSrc::Bytes(bytes))
    }

    /// [`Self::shared_write`] of `len` bytes from either source.
    fn write_from(&mut self, ptr: SharedPtr, len: u64, src: WriteSrc<'_>) -> GmacResult<()> {
        let (start, slot) = self.locate(ptr.addr())?;
        let base_offset = ptr.addr() - start;
        let (block_size, size, touched) = {
            let obj = self.mgr.by_slot(slot).expect("located slot is live");
            Runtime::check_bounds(obj, base_offset, len)?;
            (
                obj.block_size(),
                obj.size(),
                obj.blocks_overlapping(base_offset, len),
            )
        };
        if touched.is_empty() {
            return Ok(());
        }
        let steps = self.mgr.lookup_steps();
        let clamp = |blocks: std::ops::Range<usize>| {
            let lo = (blocks.start as u64 * block_size).max(base_offset);
            let hi = (blocks.end as u64 * block_size)
                .min(size)
                .min(base_offset + len);
            (lo, hi)
        };
        // One snapshot of the touched window; refreshes re-read only the
        // blocks still ahead of the cursor (evictions can't matter behind
        // it), so an eviction-heavy write stays O(blocks), not O(blocks²).
        let mut states = self
            .mgr
            .by_slot(slot)
            .expect("located slot is live")
            .states()[touched.clone()]
        .to_vec();
        let mut flush_mark = self.rt.counters.blocks_flushed;
        let mut idx = touched.start;
        while idx < touched.end {
            if self.rt.counters.blocks_flushed != flush_mark {
                let live = self
                    .mgr
                    .by_slot(slot)
                    .expect("located slot is live")
                    .states();
                let ahead = idx - touched.start;
                states[ahead..].copy_from_slice(&live[idx..touched.end]);
                flush_mark = self.rt.counters.blocks_flushed;
            }
            let dirty = states[idx - touched.start] == BlockState::Dirty;
            let mut end = idx + 1;
            while end < touched.end && (states[end - touched.start] == BlockState::Dirty) == dirty {
                end += 1;
            }
            if dirty {
                let (lo, hi) = clamp(idx..end);
                src.land(&mut self.rt.vm, start + lo, lo - base_offset, hi - lo)?;
                // The application's own CPU time to produce/copy the chunk.
                self.rt.platform.cpu_touch(hi - lo);
            } else {
                for block in idx..end {
                    let (lo, hi) = clamp(block..block + 1);
                    self.rt.charge_signal(steps, true);
                    self.protocol
                        .prepare_write(&mut self.rt, &mut self.mgr, start, lo, hi - lo)?;
                    src.land(&mut self.rt.vm, start + lo, lo - base_offset, hi - lo)?;
                    self.rt.platform.cpu_touch(hi - lo);
                }
            }
            idx = end;
        }
        self.race_note_write(ptr.addr(), len)
    }

    // ----- introspection ----------------------------------------------------

    pub(crate) fn dirty_block_count(&self) -> usize {
        self.protocol.dirty_blocks(&self.mgr)
    }
}
