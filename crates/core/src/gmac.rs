//! The process-wide GMAC runtime.
//!
//! [`Gmac`] owns the simulated platform, the software MMU, the shared-object
//! registry and the coherence machinery. Host threads never touch it
//! directly for data access: they create cheap per-thread
//! [`Session`] handles via [`Gmac::session`] / [`Gmac::session_on`], and each
//! session carries its own scheduler affinity and pending-call identity.
//!
//! # Sharded locking (this runtime's concurrency model)
//!
//! Since the shard redesign the runtime no longer funnels every operation
//! through one `Mutex<State>`. Its state is split into independently
//! lockable pieces:
//!
//! * a read-mostly registry (`RwLock`) mapping host address ranges to their
//!   home accelerator — the only cross-device structure on the
//!   translate/load/store paths;
//! * one [`DeviceShard`] mutex **per
//!   accelerator**, owning that device's objects (with their block states),
//!   host MMU regions, protocol instance, pending call, DMA queue and
//!   counters;
//! * a small control mutex for the allocation scheduler;
//! * the thread-safe [`Platform`] underneath (per-device mutexes + lock-free
//!   clock).
//!
//! Lock order: registry → (one) shard → DMA-engine queues → platform
//! leaves; shard locks never nest (see [`crate::shard`] for the full
//! invariant). Cross-device operations (`memcpy` between objects homed on
//! different accelerators, `sync` over all devices) are multi-shard
//! transactions acquiring shards one at a time in device-id order. The
//! background [`crate::xfer::DmaEngine`] (with [`GmacConfig::async_dma`] on)
//! sits between the shard tier and the platform leaves: shards submit and
//! join under their own lock, while engine workers take only queue mutexes
//! and one device mutex — never a shard.

use crate::config::{AalLayer, GmacConfig};
use crate::error::{GmacError, GmacResult};
use crate::fasttime;
use crate::fastview::ObjFastView;
use crate::object::ObjectId;
use crate::ptr::{Param, SharedPtr};
use crate::race::RaceDetector;
use crate::registry::Registry;
use crate::runtime::Counters;
use crate::sched::{SchedPolicy, Scheduler};
use crate::session::{Session, SessionId, SessionView};
use crate::shard::{lock_shard, DeviceShard, ShardGuard};
use crate::xfer::DmaEngine;
use hetsim::{
    Category, DevAddr, DeviceId, KernelArg, LaunchDims, Platform, StreamId, TimeLedger,
    TransferLedger,
};
use softmmu::VAddr;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Mutable cross-device odds and ends: the allocation scheduler and the
/// one-time CUDA-context flag.
#[derive(Debug)]
pub(crate) struct Control {
    pub(crate) scheduler: Scheduler,
    cuda_initialized: bool,
}

/// Lock helper: a poisoned lock (a panicking test thread) still yields the
/// state — the simulator has no invariants that a panic can half-apply
/// worse than losing the whole process.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One memoized route: `[start, end)` of a claim, its home device, and the
/// registry epoch it was read at.
#[derive(Debug, Clone, Copy)]
struct RouteMemo {
    epoch: u64,
    start: VAddr,
    end: u64,
    dev: DeviceId,
}

/// A per-handle route memo ([`Session`] and [`crate::Shared`] each own
/// one): caches the last `addr → (object start, home device)` resolution
/// so tight access loops skip the registry `RwLock` and its B-tree walk
/// entirely.
///
/// Implemented as a **seqlock** (version counter + plain atomic fields)
/// rather than a mutex: the hit path is a handful of relaxed loads with no
/// read-side RMW, and since each handle is effectively thread-private the
/// writer never contends. A torn read (odd or changed version) simply
/// reports a miss.
///
/// # Epoch invariant
///
/// The memo is keyed on [`Inner::route_epoch`], which every registry
/// **release** bumps (claims are disjoint from all live claims and cannot
/// stale a memo); a memo from an older epoch never hits. Even the benign race — epoch read just before a concurrent
/// free's bump — cannot produce wrong data: the shard's manager re-validates
/// the pointer under its own lock, so a stale route surfaces as
/// [`GmacError::NotShared`], exactly what an un-memoized racing access could
/// observe. Disabled (always-miss) when [`GmacConfig::tlb`] is off.
#[derive(Debug, Default)]
pub(crate) struct RouteCache {
    /// Seqlock version: odd while a store is in flight, bumped twice per
    /// store. Zero means "never filled".
    seq: AtomicU64,
    epoch: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    dev: AtomicU64,
}

impl RouteCache {
    fn lookup(&self, epoch: u64, addr: VAddr) -> Option<(VAddr, DeviceId)> {
        let seq = self.seq.load(Ordering::Acquire);
        if seq == 0 || seq & 1 == 1 {
            return None;
        }
        let (m_epoch, start, end, dev) = (
            self.epoch.load(Ordering::Relaxed),
            self.start.load(Ordering::Relaxed),
            self.end.load(Ordering::Relaxed),
            self.dev.load(Ordering::Relaxed),
        );
        // Seqlock read-side validation: the fields are only coherent if no
        // store intervened.
        std::sync::atomic::fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) != seq {
            return None;
        }
        (m_epoch == epoch && addr.0 >= start && addr.0 < end)
            .then_some((VAddr(start), DeviceId(dev as usize)))
    }

    fn store(&self, memo: RouteMemo) {
        // Writer-side lock: claim the odd version via CAS. Sessions are
        // `Sync`, so two threads may race to fill one handle's memo —
        // losing the race just skips this fill (the cache is advisory).
        let seq = self.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || self
                .seq
                .compare_exchange(seq, seq | 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        self.epoch.store(memo.epoch, Ordering::Relaxed);
        self.start.store(memo.start.0, Ordering::Relaxed);
        self.end.store(memo.end, Ordering::Relaxed);
        self.dev.store(memo.dev.0 as u64, Ordering::Relaxed);
        self.seq.store((seq | 1).wrapping_add(1), Ordering::Release);
    }
}

/// The shared runtime state behind [`Gmac`]: registry + per-device shards +
/// control, replacing the old monolithic `State` behind one mutex.
#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) platform: Arc<Platform>,
    pub(crate) config: GmacConfig,
    pub(crate) registry: RwLock<Registry>,
    pub(crate) shards: Vec<Mutex<DeviceShard>>,
    /// Background DMA engine shared by every shard (`None` with
    /// [`GmacConfig::async_dma`] off). Dropped after the shards in
    /// [`Self::into_platform`] so worker threads release their platform
    /// handles before the unwrap.
    pub(crate) engine: Option<Arc<DmaEngine>>,
    pub(crate) control: Mutex<Control>,
    /// Live `(queued jobs, in-flight bytes)` per device, maintained by the
    /// service layer and consulted by [`SchedPolicy::LeastLoaded`]
    /// placement. Plain relaxed atomics — load tracking never serializes
    /// the data path.
    pub(crate) loads: Arc<crate::service::LoadBoard>,
    /// Fairness accounting of the most recently built [`crate::Service`]
    /// (weak: the service owns it; [`crate::Report`] borrows a snapshot).
    service_stats: Mutex<std::sync::Weak<crate::service::ServiceStats>>,
    /// Coherence race detector (`None` with [`GmacConfig::race_check`] off —
    /// the default — so race-free production runs pay nothing). Shared with
    /// every shard; see [`crate::race`] for the clock model.
    pub(crate) race: Option<Arc<RaceDetector>>,
    /// Bumped by every registry release (claims are disjoint and cannot
    /// stale a memo); route memos from older epochs never hit (see
    /// [`RouteCache`]).
    route_epoch: AtomicU64,
    next_session: AtomicU64,
    next_object: AtomicU64,
}

impl Inner {
    pub(crate) fn new(platform: Platform, config: GmacConfig) -> Self {
        let platform = Arc::new(platform);
        let device_count = platform.device_count();
        let engine = config
            .async_dma
            .then(|| Arc::new(DmaEngine::new(Arc::clone(&platform))));
        let loads = Arc::new(crate::service::LoadBoard::new(device_count));
        let race = config
            .race_check
            .then(|| Arc::new(RaceDetector::new(config.race_report, device_count)));
        let shards = (0..device_count)
            .map(|i| {
                Mutex::new(DeviceShard::new(
                    DeviceId(i),
                    Arc::clone(&platform),
                    &config,
                    engine.clone(),
                    Arc::clone(&loads),
                    race.clone(),
                ))
            })
            .collect();
        Inner {
            platform,
            registry: RwLock::new(Registry::new()),
            shards,
            engine,
            control: Mutex::new(Control {
                scheduler: Scheduler::new(SchedPolicy::Fixed(DeviceId(0)), device_count),
                cuda_initialized: false,
            }),
            loads,
            race,
            service_stats: Mutex::new(std::sync::Weak::new()),
            route_epoch: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            next_object: AtomicU64::new(1),
            config,
        }
    }

    /// Points the report at the service's fairness accounting (called when
    /// a [`crate::Service`] is built; the latest service wins).
    pub(crate) fn register_service_stats(&self, stats: &Arc<crate::service::ServiceStats>) {
        *lock(&self.service_stats) = Arc::downgrade(stats);
    }

    /// Fairness-accounting snapshot of the live service, if one exists.
    pub(crate) fn service_snapshot(&self) -> Option<crate::service::ServiceSnapshot> {
        lock(&self.service_stats).upgrade().map(|s| s.snapshot())
    }

    /// Entry gate: public operations pass it exactly once at their entry
    /// point, which makes it the settle point for this thread's deferred
    /// fast-path time (see [`crate::fasttime`]): the balance is flushed
    /// before the operation can read or advance the clock.
    pub(crate) fn gate(&self) {
        fasttime::flush(&self.platform);
    }

    /// Allocates the next session identity.
    pub(crate) fn next_session_id(&self) -> SessionId {
        SessionId(self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    fn next_object_id(&self) -> ObjectId {
        ObjectId(self.next_object.fetch_add(1, Ordering::Relaxed))
    }

    // ----- routing (registry read path) -------------------------------------

    /// Home device + object start for a shared pointer.
    fn route(&self, addr: VAddr) -> GmacResult<(VAddr, DeviceId)> {
        self.registry
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .route(addr)
            .ok_or(GmacError::NotShared(addr))
    }

    /// Memoized route: epoch-validated memo hit, or registry search + memo
    /// fill. Falls back to the plain registry path with the fast path
    /// disabled ([`GmacConfig::tlb`] off).
    fn route_cached(&self, cache: &RouteCache, addr: VAddr) -> GmacResult<(VAddr, DeviceId)> {
        if !self.config.tlb {
            return self.route(addr);
        }
        let epoch = self.route_epoch.load(Ordering::Acquire);
        if let Some(hit) = cache.lookup(epoch, addr) {
            return Ok(hit);
        }
        let (start, end, dev) = self
            .registry
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .route_full(addr)
            .ok_or(GmacError::NotShared(addr))?;
        cache.store(RouteMemo {
            epoch,
            start,
            end,
            dev,
        });
        Ok((start, dev))
    }

    /// Epoch-bump half of the route-memo invariant: every **release** in
    /// the registry must be followed by one of these before the mutating
    /// operation returns. Claims need no bump — a new claim is disjoint
    /// from all existing ones, so it cannot be covered by any live memo.
    fn bump_route_epoch(&self) {
        self.route_epoch.fetch_add(1, Ordering::Release);
    }

    /// Locks the shard of `dev` (which must be a valid device id). Goes
    /// through [`lock_shard`] so the per-thread held count backing the DMA
    /// worker's lock-order assertion stays accurate.
    pub(crate) fn shard(&self, dev: DeviceId) -> ShardGuard<'_> {
        lock_shard(&self.shards[dev.0])
    }

    fn ensure_cuda_init(&self) {
        let mut control = lock(&self.control);
        if !control.cuda_initialized {
            control.cuda_initialized = true;
            if self.config.aal == AalLayer::Runtime {
                // The CUDA run-time layer pays a one-time context
                // initialisation; the driver layer lets us "discard CUDA
                // initialization time" (paper §5).
                self.platform
                    .spend(Category::CudaMalloc, self.config.costs.cuda_init);
            }
        }
    }

    // ----- allocation (Table 1) --------------------------------------------

    /// Placement for a new allocation: session affinity overrides the
    /// scheduler's policy; otherwise the scheduler decides, with the live
    /// per-device loads in hand (only [`SchedPolicy::LeastLoaded`] reads
    /// them).
    fn place_alloc(&self, view: SessionView) -> DeviceId {
        view.affinity.unwrap_or_else(|| {
            let mut control = lock(&self.control);
            if control.scheduler.policy() == SchedPolicy::LeastLoaded {
                let loads = self.loads.snapshot();
                control.scheduler.device_for_alloc_loaded(&loads)
            } else {
                control.scheduler.device_for_alloc()
            }
        })
    }

    /// `adsmAlloc(size)`: session affinity overrides the scheduler's
    /// placement policy.
    pub(crate) fn alloc(&self, view: SessionView, size: u64) -> GmacResult<SharedPtr> {
        self.gate();
        let dev = self.place_alloc(view);
        self.alloc_on_impl(dev, size, false).map(|(ptr, ..)| ptr)
    }

    pub(crate) fn alloc_on(&self, dev: DeviceId, size: u64) -> GmacResult<SharedPtr> {
        self.gate();
        self.alloc_on_impl(dev, size, false).map(|(ptr, ..)| ptr)
    }

    /// Typed-allocation entry: like [`Self::alloc`] but also returns the
    /// allocation identity the RAII handle gates its free on, plus the
    /// object's zero-instrumentation fast view when one exists (embedded in
    /// the typed handle so its accesses can skip the runtime entirely).
    pub(crate) fn alloc_typed_raw(
        &self,
        view: SessionView,
        size: u64,
        safe: bool,
    ) -> GmacResult<(SharedPtr, ObjectId, Option<Arc<ObjFastView>>)> {
        self.gate();
        let dev = self.place_alloc(view);
        if safe {
            self.safe_alloc_on_impl(dev, size, true)
        } else {
            self.alloc_on_impl(dev, size, true)
        }
    }

    fn alloc_on_impl(
        &self,
        dev: DeviceId,
        size: u64,
        want_fast: bool,
    ) -> GmacResult<(SharedPtr, ObjectId, Option<Arc<ObjFastView>>)> {
        // Validate the device before any charge: a bogus id (an unchecked
        // session affinity) must not desync the time ledger.
        self.platform.device(dev)?;
        self.ensure_cuda_init();
        self.platform
            .spend(Category::Malloc, self.config.costs.alloc_base);
        let size = VAddr(size.max(1)).page_up().0;
        // 1. Accelerator memory first (its allocator dictates the address).
        //    The shard treats device memory as a cache: under pressure it
        //    evicts cold objects instead of failing (the shard guard is a
        //    temporary, dropped before the registry write below — no
        //    gmac-level locks nest).
        let dev_addr = self.shard(dev).alloc_device_range(size, &[])?;
        // 2. Mirror the same numeric range in system memory — the paper's
        //    fixed-address mmap trick (§4.2). The registry is the global
        //    arbiter of host ranges (per-shard MMUs only see their own).
        let addr = VAddr(dev_addr.0);
        let claimed = self
            .registry
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .claim_fixed(addr, size, dev);
        if !claimed {
            // Eviction recycles device windows whose former owner still
            // claims the matching host range (the claim outlives the device
            // copy). That is not a user-visible collision: fall back to a
            // non-unified claim, exactly like `safe_alloc`. Genuine
            // cross-device collisions keep surfacing `AddressCollision`.
            if self.shard(dev).evicted_overlaps(addr, size) {
                let anywhere = self
                    .registry
                    .write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .claim_anywhere(size, dev);
                if let Some(addr) = anywhere {
                    return self.install(dev, dev_addr, addr, size, want_fast);
                }
            }
            self.platform.dev_free(dev, dev_addr)?;
            return Err(GmacError::AddressCollision(addr));
        }
        // No epoch bump: the new claim is disjoint from every existing one
        // (the registry is the collision arbiter), so no live route memo can
        // cover any of its addresses — existing memos stay valid.
        self.install(dev, dev_addr, addr, size, want_fast)
    }

    pub(crate) fn safe_alloc(&self, view: SessionView, size: u64) -> GmacResult<SharedPtr> {
        self.gate();
        let dev = self.place_alloc(view);
        self.safe_alloc_on_impl(dev, size, false)
            .map(|(ptr, ..)| ptr)
    }

    pub(crate) fn safe_alloc_on(&self, dev: DeviceId, size: u64) -> GmacResult<SharedPtr> {
        self.gate();
        self.safe_alloc_on_impl(dev, size, false)
            .map(|(ptr, ..)| ptr)
    }

    fn safe_alloc_on_impl(
        &self,
        dev: DeviceId,
        size: u64,
        want_fast: bool,
    ) -> GmacResult<(SharedPtr, ObjectId, Option<Arc<ObjFastView>>)> {
        self.platform.device(dev)?;
        self.ensure_cuda_init();
        self.platform
            .spend(Category::Malloc, self.config.costs.alloc_base);
        let size = VAddr(size.max(1)).page_up().0;
        let dev_addr = self.shard(dev).alloc_device_range(size, &[])?;
        let addr = self
            .registry
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .claim_anywhere(size, dev)
            .ok_or(GmacError::Mmu(softmmu::MmuError::OutOfVirtualSpace))?;
        // No epoch bump: fresh claims cannot invalidate existing memos (see
        // alloc_on_impl).
        self.install(dev, dev_addr, addr, size, want_fast)
    }

    fn install(
        &self,
        dev: DeviceId,
        dev_addr: DevAddr,
        addr: VAddr,
        size: u64,
        want_fast: bool,
    ) -> GmacResult<(SharedPtr, ObjectId, Option<Arc<ObjFastView>>)> {
        let id = self.next_object_id();
        let (ptr, fast) = self
            .shard(dev)
            .install_object(id, dev_addr, addr, size, want_fast)?;
        Ok((ptr, id, fast))
    }

    /// `adsmFree(addr)` (with optional allocation-identity gate for the
    /// RAII [`crate::Shared`] path).
    pub(crate) fn free(&self, ptr: SharedPtr) -> GmacResult<()> {
        self.gate();
        self.free_impl(ptr, None)
    }

    pub(crate) fn free_exact(&self, ptr: SharedPtr, id: ObjectId) -> GmacResult<()> {
        self.gate();
        self.free_impl(ptr, Some(id))
    }

    fn free_impl(&self, ptr: SharedPtr, id: Option<ObjectId>) -> GmacResult<()> {
        let (_, dev) = self.route(ptr.addr())?;
        let (start, dev_addr) = self.shard(dev).free_locked(ptr, id)?;
        // Release the host claim *before* returning the device range to its
        // first-fit allocator: a concurrent alloc that is handed the same
        // device address must find the claim gone, not collide with it.
        self.registry
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .release(start);
        self.bump_route_epoch();
        // Evicted objects own no device range; there is nothing to return.
        if let Some(dev_addr) = dev_addr {
            self.platform.dev_free(dev, dev_addr)?;
        }
        Ok(())
    }

    // ----- kernel execution (Table 1) --------------------------------------

    /// `adsmCall(kernel)` with the §4.3 write-set annotation.
    pub(crate) fn call_annotated(
        &self,
        view: SessionView,
        kernel: &str,
        dims: LaunchDims,
        params: &[Param],
        writes: Option<&[SharedPtr]>,
    ) -> GmacResult<()> {
        self.gate();
        self.ensure_cuda_init();
        // Resolve the target accelerator from the parameter objects (the
        // registry routes each shared pointer to its home device).
        let mut dev: Option<DeviceId> = None;
        {
            let reg = self
                .registry
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for param in params {
                if let Param::Shared(ptr) = param {
                    let (_, d) = reg
                        .route(ptr.addr())
                        .ok_or(GmacError::NotShared(ptr.addr()))?;
                    match dev {
                        None => dev = Some(d),
                        Some(prev) if prev == d => {}
                        Some(_) => return Err(GmacError::MixedDevices),
                    }
                }
            }
        }
        let dev = dev
            .or(view.affinity)
            .unwrap_or_else(|| lock(&self.control).scheduler.default_device());

        // Validate device and kernel before any charge or release: a failed
        // call must neither desync the time ledger nor half-run the release
        // side of the consistency protocol.
        self.platform.device(dev)?;
        self.platform.kernel(kernel)?;

        let mut shard = self.shard(dev);

        // One un-synced call per accelerator: a different session's call in
        // flight on this device is a hard error, not an implicit join.
        if let Some(call) = &shard.pending {
            if call.session != view.id {
                return Err(GmacError::DeviceBusy {
                    dev,
                    owner: call.session,
                    // Deterministic drain estimate: the owner's sync pays at
                    // least the fixed sync bookkeeping before the device
                    // frees up. Floored so a config with zero sync cost
                    // never hands out a "retry immediately" hint.
                    retry_after: self.config.costs.sync_base.max(hetsim::Nanos::from_nanos(
                        crate::service::admission::MIN_JOB_DRAIN_NS,
                    )),
                });
            }
        }

        // Build the argument list (device-address translation) under the
        // shard lock; a pointer freed since routing surfaces as NotShared.
        // Evicted parameter objects are re-homed first — already-processed
        // parameters are pinned so a later re-fetch cannot evict them out
        // from under the very call being assembled.
        let mut objects = Vec::new();
        let mut args = Vec::with_capacity(params.len());
        for param in params {
            match param {
                Param::Shared(ptr) => {
                    shard.ensure_resident(ptr.addr(), &objects)?;
                    let obj = shard
                        .mgr
                        .find(ptr.addr())
                        .ok_or(GmacError::NotShared(ptr.addr()))?;
                    objects.push(obj.addr());
                    args.push(KernelArg::Ptr(obj.translate(ptr.addr())));
                }
                scalar => args.push(scalar.to_scalar_arg().expect("scalar param")),
            }
        }

        // Race check before any charge or release: a launch over another
        // session's unsynced CPU writes must fail (or be sunk) with the time
        // ledger untouched, like every other failed-call path above.
        shard.race_check_launch(view.id, &objects)?;

        // Release-consistency: the CPU releases shared objects at the call
        // boundary (§3.3). The scan cost covers this shard's objects — the
        // other accelerators' shards are untouched (and unlocked).
        let call_cost = self.config.costs.call_per_object * shard.mgr.len() as u64;
        shard.rt.charge(Category::Launch, call_cost);
        let writes: Option<Vec<VAddr>> = writes.map(|ptrs| {
            ptrs.iter()
                .filter_map(|p| shard.mgr.find(p.addr()).map(|o| o.addr()))
                .collect()
        });
        let stream = StreamId(0);
        let DeviceShard {
            rt, mgr, protocol, ..
        } = &mut *shard;
        let launched = catch_unwind(AssertUnwindSafe(|| -> GmacResult<()> {
            protocol.release(rt, mgr, dev, writes.as_deref())?;
            // Explicit join point: eager evictions and the release flush run
            // as asynchronous DMA jobs; the kernel must not start until the
            // device holds every byte the CPU wrote.
            rt.join_dma(dev)?;
            rt.platform.launch(dev, stream, kernel, dims, &args)?;
            Ok(())
        }));
        // A failed call is a call that returned: once the release has begun,
        // a failure (or a panicking kernel) runs the acquire side before it
        // surfaces, so no object is left invalidated with no pending call to
        // fetch it back. The call's own failure is what the caller needs; a
        // failure of this acquire would only mask it.
        if !matches!(launched, Ok(Ok(()))) {
            let _ = protocol.acquire(rt, mgr, dev);
        }
        match launched {
            Ok(result) => result?,
            Err(panic) => resume_unwind(panic),
        }
        // Only the detector needs the object list past this point; skip the
        // clone entirely when it is off.
        let raced = self.race.is_some().then(|| objects.clone());
        shard.note_pending(view, stream, objects);
        if let Some(objects) = raced {
            shard.race_note_launched(view.id, &objects);
        }
        Ok(())
    }

    /// `adsmSync()`: joins every call in flight that belongs to `view`'s
    /// session. A multi-shard transaction: shards are visited one at a time
    /// in device-id order, never holding two at once.
    pub(crate) fn sync(&self, view: SessionView) -> GmacResult<()> {
        self.gate();
        let mut synced_any = false;
        for slot in &self.shards {
            let mut shard = lock_shard(slot);
            if shard
                .pending
                .as_ref()
                .is_some_and(|call| call.session == view.id)
            {
                shard.sync_one()?;
                synced_any = true;
            }
        }
        if synced_any {
            Ok(())
        } else {
            Err(GmacError::NothingToSync)
        }
    }

    /// Joins the pending call on a single device (session-checked).
    pub(crate) fn sync_device(&self, view: SessionView, dev: DeviceId) -> GmacResult<()> {
        self.gate();
        let Some(slot) = self.shards.get(dev.0) else {
            return Err(GmacError::NothingToSync);
        };
        let mut shard = lock_shard(slot);
        match &shard.pending {
            Some(call) if call.session == view.id => shard.sync_one(),
            _ => Err(GmacError::NothingToSync),
        }
    }

    /// `adsmSafe(address)`.
    pub(crate) fn translate(&self, cache: &RouteCache, ptr: SharedPtr) -> GmacResult<DevAddr> {
        self.gate();
        let (_, dev) = self.route_cached(cache, ptr.addr())?;
        self.shard(dev).translate(ptr)
    }

    // ----- transparent CPU access -------------------------------------------

    pub(crate) fn load<T: softmmu::Scalar>(
        &self,
        cache: &RouteCache,
        ptr: SharedPtr,
    ) -> GmacResult<T> {
        self.gate();
        let (_, dev) = self.route_cached(cache, ptr.addr())?;
        self.shard(dev).load(ptr)
    }

    pub(crate) fn store<T: softmmu::Scalar>(
        &self,
        cache: &RouteCache,
        ptr: SharedPtr,
        value: T,
    ) -> GmacResult<()> {
        self.gate();
        let (_, dev) = self.route_cached(cache, ptr.addr())?;
        self.shard(dev).store(ptr, value)
    }

    pub(crate) fn load_slice<T: softmmu::Scalar>(
        &self,
        cache: &RouteCache,
        ptr: SharedPtr,
        n: usize,
    ) -> GmacResult<Vec<T>> {
        self.gate();
        let (_, dev) = self.route_cached(cache, ptr.addr())?;
        self.shard(dev).load_slice(ptr, n)
    }

    pub(crate) fn store_slice<T: softmmu::Scalar>(
        &self,
        cache: &RouteCache,
        ptr: SharedPtr,
        values: &[T],
    ) -> GmacResult<()> {
        self.gate();
        let (_, dev) = self.route_cached(cache, ptr.addr())?;
        self.shard(dev).store_slice(ptr, values)
    }

    // ----- bulk-memory interposition (§4.4) ---------------------------------

    pub(crate) fn memset(
        &self,
        cache: &RouteCache,
        ptr: SharedPtr,
        value: u8,
        len: u64,
    ) -> GmacResult<()> {
        self.gate();
        let (_, dev) = self.route_cached(cache, ptr.addr())?;
        self.shard(dev).memset_locked(ptr, value, len)
    }

    pub(crate) fn memcpy_in(
        &self,
        cache: &RouteCache,
        dst: SharedPtr,
        src: &[u8],
    ) -> GmacResult<()> {
        self.gate();
        let (_, dev) = self.route_cached(cache, dst.addr())?;
        self.shard(dev).shared_write(dst, src)
    }

    pub(crate) fn memcpy_out(
        &self,
        cache: &RouteCache,
        dst: &mut [u8],
        src: SharedPtr,
    ) -> GmacResult<()> {
        self.gate();
        let (_, dev) = self.route_cached(cache, src.addr())?;
        self.shard(dev).shared_read_into(src, dst)
    }

    /// Interposed shared-to-shared `memcpy`, with `memmove` semantics. On
    /// one shard, disjoint ranges copy in place inside the host mapping;
    /// overlapping ones (necessarily one object) read everything first.
    /// When source and destination are homed on different accelerators this
    /// is a **multi-shard transaction**: the source shard is locked, read
    /// and released before the destination shard is taken (never nested),
    /// staging through a host buffer exactly like the paper's
    /// implementation stages peer transfers through system memory.
    pub(crate) fn memcpy(
        &self,
        cache: &RouteCache,
        dst: SharedPtr,
        src: SharedPtr,
        len: u64,
    ) -> GmacResult<()> {
        self.gate();
        // Only the source goes through the one-entry memo: routing both
        // operands of a two-object copy loop through it would evict each
        // other every call (0% hit rate); this way the memo stays pinned on
        // `src` and the destination pays the plain registry route it always
        // did.
        let (_, src_dev) = self.route_cached(cache, src.addr())?;
        let (_, dst_dev) = self.route(dst.addr())?;
        if src_dev == dst_dev {
            let mut shard = self.shard(src_dev);
            let (s, d) = (src.addr().0, dst.addr().0);
            if s < d.saturating_add(len) && d < s.saturating_add(len) {
                let bytes = shard.shared_read(src, len)?;
                shard.shared_write(dst, &bytes)
            } else {
                shard.copy_shared(dst, src, len)
            }
        } else {
            let bytes = self.shard(src_dev).shared_read(src, len)?;
            self.shard(dst_dev).shared_write(dst, &bytes)
        }
    }

    // ----- I/O interposition (§4.4) -----------------------------------------

    pub(crate) fn read_file_to_shared(
        &self,
        cache: &RouteCache,
        name: &str,
        file_offset: u64,
        ptr: SharedPtr,
        len: u64,
    ) -> GmacResult<u64> {
        self.gate();
        let (_, dev) = self.route_cached(cache, ptr.addr())?;
        self.shard(dev)
            .read_file_to_shared_locked(name, file_offset, ptr, len)
    }

    pub(crate) fn write_shared_to_file(
        &self,
        cache: &RouteCache,
        name: &str,
        file_offset: u64,
        ptr: SharedPtr,
        len: u64,
    ) -> GmacResult<u64> {
        self.gate();
        let (_, dev) = self.route_cached(cache, ptr.addr())?;
        self.shard(dev)
            .write_shared_to_file_locked(name, file_offset, ptr, len)
    }

    // ----- introspection ----------------------------------------------------

    /// Tags the calling thread with `view`'s session identity for race
    /// attribution (a no-op with the detector off). Called by every
    /// [`Session`] entry point that can write shared data or launch/join a
    /// kernel, so `Shared<T>` handles used on the same thread inherit the
    /// right writer identity (see [`crate::race`]).
    pub(crate) fn note_identity(&self, view: SessionView) {
        if self.race.is_some() {
            crate::race::set_current_session(view.id);
        }
    }

    /// Race-detector counters ([`crate::RaceStats::default`] with the detector
    /// off).
    pub(crate) fn race_stats(&self) -> crate::race::RaceStats {
        self.race.as_ref().map(|r| r.stats()).unwrap_or_default()
    }

    /// Violations sunk so far ([`GmacConfig::race_report`] mode; empty in
    /// error mode or with the detector off).
    pub(crate) fn race_violations(&self) -> Vec<crate::race::RaceViolation> {
        self.race
            .as_ref()
            .map(|r| r.violations())
            .unwrap_or_default()
    }

    pub(crate) fn counters(&self) -> Counters {
        self.gate();
        let mut total = Counters::default();
        for slot in &self.shards {
            total.merge(&lock_shard(slot).rt.counters());
        }
        total
    }

    pub(crate) fn config(&self) -> &GmacConfig {
        &self.config
    }

    pub(crate) fn object_count(&self) -> usize {
        self.registry
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    pub(crate) fn object_at(&self, ptr: SharedPtr) -> Option<crate::report::ObjectReport> {
        self.gate();
        let (_, dev) = self.route(ptr.addr()).ok()?;
        self.shard(dev)
            .mgr
            .find(ptr.addr())
            .map(crate::report::ObjectReport::of)
    }

    pub(crate) fn dirty_block_count(&self) -> usize {
        self.gate();
        self.shards
            .iter()
            .map(|slot| lock_shard(slot).dirty_block_count())
            .sum()
    }

    /// True when `view`'s session has at least one call in flight.
    pub(crate) fn has_pending_call(&self, view: SessionView) -> bool {
        self.gate();
        self.shards.iter().any(|slot| {
            lock_shard(slot)
                .pending
                .as_ref()
                .is_some_and(|c| c.session == view.id)
        })
    }

    /// Devices with any call in flight, in id order.
    pub(crate) fn pending_devices(&self) -> Vec<DeviceId> {
        self.gate();
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, slot)| lock_shard(slot).pending.is_some())
            .map(|(i, _)| DeviceId(i))
            .collect()
    }

    pub(crate) fn device_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn set_sched_policy(&self, policy: SchedPolicy) {
        self.gate();
        lock(&self.control).scheduler.set_policy(policy);
    }

    /// Tears the runtime down to the bare platform (final measurements).
    /// Caller must own the only handle.
    pub(crate) fn into_platform(self) -> Platform {
        // The caller is about to measure: settle this thread's deferred
        // fast-path time (other threads settled at their last gate or exit).
        fasttime::flush(&self.platform);
        let Inner {
            platform,
            shards,
            engine,
            ..
        } = self;
        drop(shards); // each shard's runtime holds a platform handle
                      // Last engine handle: dropping it drains the queues and joins the
                      // worker threads, releasing their platform handles.
        drop(engine);
        Arc::try_unwrap(platform)
            .map_err(|_| "platform handles escaped the runtime")
            .unwrap()
    }
}

/// The process-wide GMAC runtime: one shared logical address space between
/// the host CPU and all accelerators of a platform, shareable across host
/// threads.
///
/// `Gmac` is the owner; threads interact through per-thread
/// [`Session`] handles. Interior state is **sharded per accelerator** (see
/// the `gmac.rs` module docs): sessions driving different devices take
/// independent locks and overlap in wall-clock time. `Gmac` is
/// `Send + Sync` and cloning it is cheap (reference-counted).
///
/// ```
/// use gmac::{Gmac, GmacConfig, Protocol};
/// use hetsim::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gmac = Gmac::new(
///     Platform::desktop_g280(),
///     GmacConfig::default().protocol(Protocol::Rolling),
/// );
/// let session = gmac.session();
/// let v = session.alloc_typed::<f32>(1024)?; // one pointer, CPU *and* GPU
/// v.write(0, 42.0)?;
/// assert_eq!(v.read(0)?, 42.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Gmac {
    inner: Arc<Inner>,
}

impl Gmac {
    /// Creates the runtime over a simulated platform.
    pub fn new(platform: Platform, config: GmacConfig) -> Self {
        Gmac {
            inner: Arc::new(Inner::new(platform, config)),
        }
    }

    /// Re-wraps shared state (the [`Session::gmac`] accessor).
    pub(crate) fn from_state(inner: Arc<Inner>) -> Self {
        Gmac { inner }
    }

    /// Opens a new session with no device affinity: allocations follow the
    /// scheduler policy, kernels follow their data.
    pub fn session(&self) -> Session {
        self.session_with(None)
    }

    /// Opens a session pinned to accelerator `dev`: its allocations land on
    /// `dev` and data-free kernels default to it. The paper's "execution
    /// thread attached to an accelerator" view (§3.2).
    pub fn session_on(&self, dev: DeviceId) -> Session {
        self.session_with(Some(dev))
    }

    fn session_with(&self, affinity: Option<DeviceId>) -> Session {
        let id = self.inner.next_session_id();
        Session::new(Arc::clone(&self.inner), SessionView { id, affinity })
    }

    /// Builds the multi-tenant [`crate::Service`] front-end over this
    /// runtime: M client sessions submit jobs through a bounded fair queue,
    /// a placer routes them to the least-loaded device, and one worker per
    /// device executes them — contention becomes queueing instead of
    /// [`GmacError::DeviceBusy`]. With [`GmacConfig::service`] off the
    /// returned service runs every job inline on the submitting thread
    /// (ablation mode, byte-identical results).
    ///
    /// Drop the service (it drains and joins its threads) before calling
    /// [`Self::into_platform`] — its workers hold runtime handles.
    pub fn service(&self) -> crate::service::Service {
        crate::service::Service::new(Arc::clone(&self.inner))
    }

    /// Runs `f` over the simulated platform (kernel registration, file
    /// setup, clock queries). The platform is internally thread-safe, so no
    /// runtime lock is held while the closure runs.
    pub fn with_platform<R>(&self, f: impl FnOnce(&Platform) -> R) -> R {
        // Settle deferred fast-path time: the closure may read the clock.
        fasttime::flush(&self.inner.platform);
        f(&self.inner.platform)
    }

    /// Execution-time ledger snapshot (Figure 10 categories).
    pub fn ledger(&self) -> TimeLedger {
        fasttime::flush(&self.inner.platform);
        self.inner.platform.ledger()
    }

    /// Transfer-ledger snapshot (Figure 8 input).
    pub fn transfers(&self) -> TransferLedger {
        fasttime::flush(&self.inner.platform);
        *self.inner.platform.transfers()
    }

    /// Runtime event counters (faults, fetches, evictions), summed over all
    /// device shards.
    pub fn counters(&self) -> Counters {
        self.inner.counters()
    }

    /// Active configuration (clone).
    pub fn config(&self) -> GmacConfig {
        self.inner.config().clone()
    }

    /// Virtual time elapsed since platform start.
    pub fn elapsed(&self) -> hetsim::Nanos {
        fasttime::flush(&self.inner.platform);
        self.inner.platform.elapsed()
    }

    /// Number of live shared objects.
    pub fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    /// Number of accelerators on the platform.
    pub fn device_count(&self) -> usize {
        self.inner.device_count()
    }

    /// Number of blocks currently dirty, per the protocols' bookkeeping
    /// (summed over all device shards).
    pub fn dirty_block_count(&self) -> usize {
        self.inner.dirty_block_count()
    }

    /// Devices with a call in flight (any session), in id order.
    pub fn pending_devices(&self) -> Vec<DeviceId> {
        self.inner.pending_devices()
    }

    /// Race-detector counters: accesses checked and violations observed.
    /// All-zero with [`GmacConfig::race_check`] off.
    pub fn race_stats(&self) -> crate::race::RaceStats {
        self.inner.race_stats()
    }

    /// Violations recorded by the non-fatal sink
    /// ([`GmacConfig::race_report`] mode). Empty in error mode (violations
    /// surface as [`GmacError::RaceDetected`] instead) or with the detector
    /// off.
    pub fn race_violations(&self) -> Vec<crate::race::RaceViolation> {
        self.inner.race_violations()
    }

    /// Changes the allocation-placement policy for sessions without
    /// affinity.
    pub fn set_sched_policy(&self, policy: SchedPolicy) {
        self.inner.set_sched_policy(policy);
    }

    /// Consumes the runtime, returning the platform for final measurements.
    ///
    /// Fails (returns `self`) while other handles — clones, sessions or
    /// typed buffers — are still alive.
    pub fn try_into_platform(self) -> Result<Platform, Gmac> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.into_platform()),
            Err(inner) => Err(Gmac { inner }),
        }
    }

    /// [`Self::try_into_platform`], panicking variant.
    ///
    /// # Panics
    /// Panics when sessions, typed buffers or clones of the runtime are
    /// still alive.
    pub fn into_platform(self) -> Platform {
        self.try_into_platform()
            .map_err(|_| "Gmac::into_platform with live sessions/buffers/clones")
            .unwrap()
    }

    pub(crate) fn state(&self) -> &Arc<Inner> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;

    fn gmac() -> Gmac {
        Gmac::new(Platform::desktop_g280(), GmacConfig::default())
    }

    #[test]
    fn runtime_and_session_are_sendable() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Gmac>();
        assert_send_sync::<Session>();
        assert_send::<crate::typed::Shared<f32>>();
    }

    #[test]
    fn sessions_get_distinct_ids() {
        let g = gmac();
        let a = g.session();
        let b = g.session_on(DeviceId(0));
        assert_ne!(a.id(), b.id());
        assert_eq!(b.affinity(), Some(DeviceId(0)));
        assert_eq!(a.affinity(), None);
    }

    #[test]
    fn into_platform_requires_unique_handle() {
        let g = gmac();
        let s = g.session();
        let g = g.try_into_platform().expect_err("session still alive");
        drop(s);
        let p = g.try_into_platform().expect("now unique");
        assert_eq!(p.device_count(), 1);
    }

    #[test]
    fn clone_shares_state() {
        let g = Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default().protocol(Protocol::Lazy),
        );
        let g2 = g.clone();
        let s = g.session();
        let p = s.alloc(4096).unwrap();
        assert_eq!(g2.object_count(), 1);
        s.free(p).unwrap();
        assert_eq!(g2.object_count(), 0);
    }

    #[test]
    fn threads_share_the_runtime() {
        let g = gmac();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = g.session();
                std::thread::spawn(move || {
                    let p = s.alloc(8192).unwrap();
                    s.store::<u32>(p, 7).unwrap();
                    assert_eq!(s.load::<u32>(p).unwrap(), 7);
                    s.free(p).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.object_count(), 0);
    }
}
