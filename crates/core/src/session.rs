//! Per-thread session handles over the shared [`Gmac`](crate::Gmac)
//! runtime (paper Table 1 plus the `adsmSafeAlloc`/`adsmSafe` extension of
//! §4.2).
//!
//! | paper call | method |
//! |---|---|
//! | `adsmAlloc(size)` | [`Session::alloc`] |
//! | `adsmFree(addr)` | [`Session::free`] |
//! | `adsmCall(kernel)` | [`Session::call`] |
//! | `adsmSync()` | [`Session::sync`] |
//! | `adsmSafeAlloc(size)` | [`Session::safe_alloc`] |
//! | `adsmSafe(address)` | [`Session::translate`] |
//!
//! A [`Session`] is the ADSM "execution thread" view (§3.2): each host
//! thread holds its own handle, with its own accelerator affinity and its
//! own pending-call identity. The runtime below is **sharded per device**
//! (see [`crate::shard`]): an operation routes its pointer through the
//! read-mostly registry and locks only the home accelerator's shard, so two
//! sessions driving two accelerators overlap in wall-clock terms, not just
//! in virtual time. Two sessions racing for one accelerator get a clean
//! [`crate::GmacError::DeviceBusy`] instead of silent serialization.

use crate::error::GmacResult;
use crate::gmac::{Inner, RouteCache};
use crate::ptr::{Param, SharedPtr};
use crate::report::ObjectReport;
use crate::typed::Shared;
use hetsim::{DevAddr, DeviceId, LaunchDims};
use softmmu::Scalar;
use std::fmt;
use std::sync::Arc;

/// Identity of a session: allocated by the runtime, carried by every
/// pending call so syncs and busy-device errors can be attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session #{}", self.0)
    }
}

/// The slice of session state the shared runtime needs to attribute an
/// operation: identity + scheduler affinity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionView {
    pub(crate) id: SessionId,
    pub(crate) affinity: Option<DeviceId>,
}

/// A per-thread handle on the shared GMAC runtime.
///
/// Sessions are cheap (one `Arc` + two words) and `Send`: create one per
/// host thread with [`crate::Gmac::session`] or pin one to an accelerator
/// with [`crate::Gmac::session_on`]. All methods take `&self`; operations
/// lock only the device shard they touch.
///
/// ```
/// use gmac::{Gmac, GmacConfig};
/// use hetsim::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gmac = Gmac::new(Platform::desktop_g280(), GmacConfig::default());
/// let session = gmac.session();
///
/// // adsmAlloc: ONE pointer, valid on both the CPU and the accelerator.
/// let v = session.alloc(1 << 20)?;
/// session.store_slice::<f32>(v, &vec![1.0; 1024])?;
/// assert_eq!(session.load::<f32>(v)?, 1.0);
/// session.free(v)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    inner: Arc<Inner>,
    view: SessionView,
    /// Per-session route memo (see [`crate::GmacConfig::tlb`]): tight
    /// access loops skip the registry `RwLock` + B-tree walk entirely.
    routes: RouteCache,
}

impl Session {
    pub(crate) fn new(inner: Arc<Inner>, view: SessionView) -> Self {
        Session {
            inner,
            view,
            routes: RouteCache::default(),
        }
    }

    pub(crate) fn state(&self) -> &Arc<Inner> {
        &self.inner
    }

    /// A runtime handle sharing this session's state — the home of the
    /// introspection surface (ledgers, counters, configuration, elapsed
    /// time, the platform).
    pub fn gmac(&self) -> crate::Gmac {
        crate::Gmac::from_state(Arc::clone(&self.inner))
    }

    /// This session's identity.
    pub fn id(&self) -> SessionId {
        self.view.id
    }

    /// The accelerator this session is pinned to, if any.
    pub fn affinity(&self) -> Option<DeviceId> {
        self.view.affinity
    }

    // ----- allocation (Table 1) --------------------------------------------

    /// `adsmAlloc(size)`: allocates a shared object and returns the single
    /// pointer valid on both the CPU and the accelerator. Placement follows
    /// the session affinity, falling back to the scheduler policy.
    ///
    /// # Errors
    /// [`crate::GmacError::AddressCollision`] when the host virtual range matching
    /// the accelerator range is taken (use [`Self::safe_alloc`]); propagates
    /// device out-of-memory.
    pub fn alloc(&self, size: u64) -> GmacResult<SharedPtr> {
        self.inner.note_identity(self.view);
        self.inner.alloc(self.view, size)
    }

    /// [`Self::alloc`] pinned to a specific accelerator.
    ///
    /// # Errors
    /// Same as [`Self::alloc`].
    pub fn alloc_on(&self, dev: DeviceId, size: u64) -> GmacResult<SharedPtr> {
        self.inner.note_identity(self.view);
        self.inner.alloc_on(dev, size)
    }

    /// `adsmSafeAlloc(size)`: allocates a shared object whose CPU pointer is
    /// *not* numerically equal to the accelerator address — the fallback for
    /// platforms where device ranges collide (multi-GPU, §4.2). Kernels need
    /// [`Self::translate`] (the runtime performs it automatically for
    /// [`Param::Shared`] parameters).
    ///
    /// # Errors
    /// Propagates device out-of-memory and MMU failures.
    pub fn safe_alloc(&self, size: u64) -> GmacResult<SharedPtr> {
        self.inner.note_identity(self.view);
        self.inner.safe_alloc(self.view, size)
    }

    /// [`Self::safe_alloc`] pinned to a specific accelerator.
    ///
    /// # Errors
    /// Same as [`Self::safe_alloc`].
    pub fn safe_alloc_on(&self, dev: DeviceId, size: u64) -> GmacResult<SharedPtr> {
        self.inner.note_identity(self.view);
        self.inner.safe_alloc_on(dev, size)
    }

    /// Typed `adsmAlloc`: `n` elements of `T`, wrapped in a RAII
    /// [`Shared<T>`] buffer with element-indexed accessors.
    ///
    /// # Errors
    /// Same as [`Self::alloc`].
    pub fn alloc_typed<T: Scalar>(&self, n: usize) -> GmacResult<Shared<T>> {
        self.inner.note_identity(self.view);
        let (ptr, id, fast) =
            self.inner
                .alloc_typed_raw(self.view, (n as u64) * T::SIZE as u64, false)?;
        Ok(Shared::new(Arc::clone(&self.inner), ptr, n, id, fast))
    }

    /// Typed `adsmSafeAlloc`: like [`Self::alloc_typed`] with a non-unified
    /// CPU pointer.
    ///
    /// # Errors
    /// Same as [`Self::safe_alloc`].
    pub fn safe_alloc_typed<T: Scalar>(&self, n: usize) -> GmacResult<Shared<T>> {
        self.inner.note_identity(self.view);
        let (ptr, id, fast) =
            self.inner
                .alloc_typed_raw(self.view, (n as u64) * T::SIZE as u64, true)?;
        Ok(Shared::new(Arc::clone(&self.inner), ptr, n, id, fast))
    }

    /// `adsmFree(addr)`: releases a shared object.
    ///
    /// # Errors
    /// [`crate::GmacError::NotShared`] if `ptr` is not a live shared object;
    /// [`crate::GmacError::ObjectInUse`] if a still-pending call references it
    /// (sync first). Failed frees charge no simulated time.
    pub fn free(&self, ptr: SharedPtr) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner.free(ptr)
    }

    // ----- kernel execution (Table 1) --------------------------------------

    /// `adsmCall(kernel)`: releases shared objects to the accelerator and
    /// launches `kernel` asynchronously. Shared-pointer parameters are
    /// translated to device addresses automatically; the target accelerator
    /// comes from the parameter objects (or the session affinity for
    /// data-free kernels).
    ///
    /// # Errors
    /// Fails for unknown kernels, foreign pointers, parameters whose objects
    /// live on different accelerators, or — with [`crate::GmacError::DeviceBusy`] —
    /// a device already running another session's un-synced call.
    pub fn call(&self, kernel: &str, dims: LaunchDims, params: &[Param]) -> GmacResult<()> {
        self.call_annotated(kernel, dims, params, None)
    }

    /// [`Self::call`] with the §4.3 write-set annotation: `writes` names the
    /// shared objects the kernel may write. Objects *not* listed keep a
    /// CPU-valid state across the call, so reading them after [`Self::sync`]
    /// costs no transfer.
    ///
    /// # Errors
    /// Same as [`Self::call`].
    pub fn call_annotated(
        &self,
        kernel: &str,
        dims: LaunchDims,
        params: &[Param],
        writes: Option<&[SharedPtr]>,
    ) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner
            .call_annotated(self.view, kernel, dims, params, writes)
    }

    /// `adsmSync()`: blocks until every accelerator call this session has in
    /// flight finishes, acquiring the shared objects back for the CPU.
    ///
    /// # Errors
    /// [`crate::GmacError::NothingToSync`] when this session has no call
    /// outstanding.
    pub fn sync(&self) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner.sync(self.view)
    }

    /// Joins only the call in flight on `dev` (which must belong to this
    /// session).
    ///
    /// # Errors
    /// [`crate::GmacError::NothingToSync`] when this session has no call pending on
    /// `dev`.
    pub fn sync_device(&self, dev: DeviceId) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner.sync_device(self.view, dev)
    }

    /// `adsmSafe(address)`: translates a shared pointer to the accelerator
    /// address space (identity for unified allocations).
    ///
    /// # Errors
    /// [`crate::GmacError::NotShared`] for foreign pointers.
    pub fn translate(&self, ptr: SharedPtr) -> GmacResult<DevAddr> {
        self.inner.translate(&self.routes, ptr)
    }

    // ----- transparent CPU access -------------------------------------------

    /// Typed load through the shared address space. Faults are resolved by
    /// the coherence protocol exactly like the paper's `SIGSEGV` handler.
    ///
    /// # Errors
    /// [`crate::GmacError::NotShared`] for foreign pointers; propagates transfer
    /// failures.
    pub fn load<T: Scalar>(&self, ptr: SharedPtr) -> GmacResult<T> {
        self.inner.load(&self.routes, ptr)
    }

    /// Typed store through the shared address space.
    ///
    /// # Errors
    /// Same as [`Self::load`].
    pub fn store<T: Scalar>(&self, ptr: SharedPtr, value: T) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner.store(&self.routes, ptr, value)
    }

    /// Loads `n` consecutive scalars. Equivalent to an element loop on the
    /// CPU: the first touch of each invalid block faults once and fetches
    /// that block.
    ///
    /// # Errors
    /// Same as [`Self::load`].
    pub fn load_slice<T: Scalar>(&self, ptr: SharedPtr, n: usize) -> GmacResult<Vec<T>> {
        self.inner.load_slice(&self.routes, ptr, n)
    }

    /// Stores consecutive scalars. Equivalent to an element loop on the CPU:
    /// the first touch of each non-dirty block faults once.
    ///
    /// # Errors
    /// Same as [`Self::load`].
    pub fn store_slice<T: Scalar>(&self, ptr: SharedPtr, values: &[T]) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner.store_slice(&self.routes, ptr, values)
    }

    // ----- bulk-memory interposition (§4.4) ---------------------------------

    /// Interposed `memset(ptr, value, len)` over shared memory: performed
    /// device-side (`cudaMemset`) — no page faults, no host staging copy.
    ///
    /// # Errors
    /// Fails for foreign pointers or out-of-object ranges.
    pub fn memset(&self, ptr: SharedPtr, value: u8, len: u64) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner.memset(&self.routes, ptr, value, len)
    }

    /// Interposed `memcpy` from private host memory into shared memory.
    ///
    /// # Errors
    /// Fails for foreign pointers or out-of-object ranges.
    pub fn memcpy_in(&self, dst: SharedPtr, src: &[u8]) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner.memcpy_in(&self.routes, dst, src)
    }

    /// Interposed `memcpy` from shared memory into private host memory.
    ///
    /// # Errors
    /// Fails for foreign pointers or out-of-object ranges.
    pub fn memcpy_out(&self, dst: &mut [u8], src: SharedPtr) -> GmacResult<()> {
        self.inner.memcpy_out(&self.routes, dst, src)
    }

    /// Interposed shared-to-shared `memcpy` (possibly across objects — and,
    /// since the shard redesign, across accelerators: objects homed on
    /// different devices are copied through an explicit two-shard
    /// transaction staged in host memory).
    ///
    /// # Errors
    /// Fails for foreign pointers or out-of-object ranges.
    pub fn memcpy(&self, dst: SharedPtr, src: SharedPtr, len: u64) -> GmacResult<()> {
        self.inner.note_identity(self.view);
        self.inner.memcpy(&self.routes, dst, src, len)
    }

    // ----- I/O interposition (§4.4) -----------------------------------------

    /// Interposed `read()`: reads up to `len` bytes from the simulated file
    /// `name` at `file_offset` directly into shared memory at `ptr`.
    /// Returns the number of bytes read (short at end-of-file).
    ///
    /// # Errors
    /// Fails for unknown files or foreign pointers.
    pub fn read_file_to_shared(
        &self,
        name: &str,
        file_offset: u64,
        ptr: SharedPtr,
        len: u64,
    ) -> GmacResult<u64> {
        self.inner.note_identity(self.view);
        self.inner
            .read_file_to_shared(&self.routes, name, file_offset, ptr, len)
    }

    /// Interposed `write()`: writes `len` bytes of shared memory at `ptr`
    /// into the simulated file `name` at `file_offset`. Returns bytes
    /// written.
    ///
    /// # Errors
    /// Fails for foreign pointers or platform errors.
    pub fn write_shared_to_file(
        &self,
        name: &str,
        file_offset: u64,
        ptr: SharedPtr,
        len: u64,
    ) -> GmacResult<u64> {
        self.inner
            .write_shared_to_file(&self.routes, name, file_offset, ptr, len)
    }

    // ----- introspection ----------------------------------------------------

    /// Whether this session has an accelerator call outstanding (on any
    /// device).
    pub fn has_pending_call(&self) -> bool {
        self.inner.has_pending_call(self.view)
    }

    /// Snapshot of the shared object containing `ptr` (diagnostics/tests).
    pub fn object_at(&self, ptr: SharedPtr) -> Option<ObjectReport> {
        self.inner.object_at(ptr)
    }

    /// Number of blocks currently dirty, per the protocols' bookkeeping
    /// (summed over all device shards).
    pub fn dirty_block_count(&self) -> usize {
        self.inner.dirty_block_count()
    }

    /// Releases the session's device shard to the accelerator as a kernel
    /// call would (the protocol's release flush), without launching one.
    /// Queued DMA stays in flight. A test hook, not part of the stable API;
    /// operates on the affinity device (device 0 without affinity).
    #[doc(hidden)]
    pub fn release_to_device(&self) -> GmacResult<()> {
        let dev = self.view.affinity.unwrap_or(DeviceId(0));
        let mut shard = self.inner.shard(dev);
        let crate::shard::DeviceShard {
            rt, mgr, protocol, ..
        } = &mut *shard;
        protocol.release(rt, mgr, dev, None)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{GmacConfig, Protocol};
    use crate::error::GmacError;
    use crate::Gmac;
    use hetsim::{Category, DeviceId, LaunchDims, Platform};

    fn gmac(protocol: Protocol) -> Gmac {
        Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default().protocol(protocol),
        )
    }

    #[test]
    fn table1_calls_roundtrip() {
        for protocol in Protocol::ALL {
            let g = gmac(protocol);
            let s = g.session();
            let p = s.alloc(64 * 1024).unwrap();
            s.store_slice::<u32>(p, &(0..1024).collect::<Vec<_>>())
                .unwrap();
            let back: Vec<u32> = s.load_slice(p, 1024).unwrap();
            assert_eq!(back, (0..1024).collect::<Vec<_>>(), "{protocol}");
            s.free(p).unwrap();
        }
    }

    #[test]
    fn sync_without_call_errors() {
        let g = gmac(Protocol::Rolling);
        let s = g.session();
        assert!(matches!(s.sync(), Err(GmacError::NothingToSync)));
        assert!(matches!(
            s.sync_device(DeviceId(0)),
            Err(GmacError::NothingToSync)
        ));
    }

    #[test]
    fn free_of_foreign_pointer_charges_no_time() {
        let g = gmac(Protocol::Rolling);
        let s = g.session();
        let p = s.alloc(4096).unwrap();
        s.free(p).unwrap();
        let before = g.ledger().get(Category::Free);
        assert!(matches!(s.free(p), Err(GmacError::NotShared(_))));
        assert_eq!(
            g.ledger().get(Category::Free),
            before,
            "failed free must not desync the ledger"
        );
    }

    #[test]
    fn free_while_call_pending_is_rejected() {
        // Regression: freeing an object referenced by an un-synced call used
        // to silently tear down the mapping (and charge free time anyway).
        let g = gmac(Protocol::Rolling);
        g.with_platform(|p| p.register_kernel(std::sync::Arc::new(crate::testutil::NopKernel)));
        let s = g.session();
        let p = s.alloc(8192).unwrap();
        s.store::<u32>(p, 5).unwrap();
        s.call(
            "nop",
            LaunchDims::for_elements(1, 1),
            &[crate::ptr::Param::Shared(p)],
        )
        .unwrap();
        let ledger_before = g.ledger().total();
        match s.free(p) {
            Err(GmacError::ObjectInUse { dev, owner, .. }) => {
                assert_eq!(dev, DeviceId(0));
                assert_eq!(owner, s.id(), "error names the session that must sync");
            }
            other => panic!("expected ObjectInUse, got {other:?}"),
        }
        assert_eq!(
            g.ledger().total(),
            ledger_before,
            "rejected free must charge nothing"
        );
        assert_eq!(g.object_count(), 1, "object must stay alive");
        s.sync().unwrap();
        s.free(p).unwrap();
        assert_eq!(g.object_count(), 0);
    }

    #[test]
    fn second_session_on_busy_device_gets_device_busy() {
        let g = gmac(Protocol::Rolling);
        g.with_platform(|p| p.register_kernel(std::sync::Arc::new(crate::testutil::NopKernel)));
        let a = g.session_on(DeviceId(0));
        let b = g.session_on(DeviceId(0));
        let p = a.alloc(4096).unwrap();
        a.call(
            "nop",
            LaunchDims::for_elements(1, 1),
            &[crate::ptr::Param::Shared(p)],
        )
        .unwrap();
        match b.call("nop", LaunchDims::for_elements(1, 1), &[]) {
            Err(GmacError::DeviceBusy { dev, owner, .. }) => {
                assert_eq!(dev, DeviceId(0));
                assert_eq!(owner, a.id());
            }
            other => panic!("expected DeviceBusy, got {other:?}"),
        }
        assert!(a.has_pending_call());
        assert!(!b.has_pending_call());
        a.sync().unwrap();
        // The device is free again.
        b.call("nop", LaunchDims::for_elements(1, 1), &[]).unwrap();
        b.sync().unwrap();
    }

    #[test]
    fn same_session_stacks_calls_on_one_device() {
        let g = gmac(Protocol::Rolling);
        g.with_platform(|p| p.register_kernel(std::sync::Arc::new(crate::testutil::NopKernel)));
        let s = g.session_on(DeviceId(0));
        s.call("nop", LaunchDims::for_elements(1, 1), &[]).unwrap();
        s.call("nop", LaunchDims::for_elements(1, 1), &[]).unwrap();
        assert_eq!(g.pending_devices(), vec![DeviceId(0)]);
        s.sync().unwrap();
        assert!(g.pending_devices().is_empty());
    }

    #[test]
    fn affinity_places_allocations() {
        let g = Gmac::new(Platform::desktop_multi_gpu(2), GmacConfig::default());
        let s1 = g.session_on(DeviceId(1));
        let p = s1.safe_alloc(4096).unwrap();
        assert_eq!(s1.object_at(p).unwrap().device, 1);
        s1.free(p).unwrap();
    }
}
