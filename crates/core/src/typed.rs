//! Typed shared buffers: element-counted, RAII-freed views over the unified
//! address space.
//!
//! [`Shared<T>`] wraps a raw [`SharedPtr`] with its element count and a
//! handle on the runtime, replacing the byte arithmetic
//! (`ptr.byte_add(i * 4)`, `load_slice::<f32>(p, n)`) that every call site
//! used to repeat. Reads and writes go through the same coherence-protocol
//! paths as the raw API — the first touch of an invalid block still faults
//! and fetches — so a `Shared<T>` is purely a safer handle, not a different
//! memory system.

use crate::error::GmacResult;
use crate::fastview::ObjFastView;
use crate::gmac::{Inner, RouteCache};
use crate::object::ObjectId;
use crate::ptr::{Param, SharedPtr};
use softmmu::Scalar;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// An owned, typed shared buffer of `len` elements of `T`.
///
/// Created by [`Session::alloc_typed`](crate::Session::alloc_typed) /
/// [`Session::safe_alloc_typed`](crate::Session::safe_alloc_typed).
/// Dropping it frees the underlying object (`adsmFree`) best-effort: if a
/// pending accelerator call still references the object, the drop leaves it
/// alive rather than tearing the mapping out from under the kernel — use
/// [`Shared::free`] for the checked, error-returning path.
///
/// ```
/// use gmac::{Gmac, GmacConfig};
/// use hetsim::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gmac = Gmac::new(Platform::desktop_g280(), GmacConfig::default());
/// let session = gmac.session();
/// let v = session.alloc_typed::<f32>(256)?;
/// v.write_slice(&vec![2.5; 256])?;
/// assert_eq!(v.read(17)?, 2.5);
/// assert_eq!(v.read_slice()?.len(), 256);
/// v.free()?; // or just drop it
/// # Ok(())
/// # }
/// ```
pub struct Shared<T: Scalar> {
    /// `Some` while the handle owns the object; taken by [`Self::free`] /
    /// [`Self::into_raw`] so `Drop` neither double-frees nor leaks the
    /// runtime reference count.
    inner: Option<Arc<Inner>>,
    ptr: SharedPtr,
    len: usize,
    /// Allocation identity: frees are gated on it so a manually-freed and
    /// address-reused pointer cannot make this handle free a stranger's
    /// object.
    id: ObjectId,
    /// Per-buffer route memo: every access targets the same object, so this
    /// hits on all but the first (see [`crate::GmacConfig::tlb`]).
    routes: RouteCache,
    /// Zero-instrumentation hit path (mmap backend only): a raw host
    /// pointer plus a lock-free mirror of the object's block states. An
    /// element access on an accessible block becomes a plain load/store; any
    /// miss falls back to the fully-checked runtime path below.
    fast: Option<Arc<ObjFastView>>,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Scalar> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("ptr", &self.ptr)
            .field("len", &self.len)
            .field("elem_size", &T::SIZE)
            .finish()
    }
}

impl<T: Scalar> Shared<T> {
    pub(crate) fn new(
        inner: Arc<Inner>,
        ptr: SharedPtr,
        len: usize,
        id: ObjectId,
        fast: Option<Arc<ObjFastView>>,
    ) -> Self {
        Shared {
            inner: Some(inner),
            ptr,
            len,
            id,
            routes: RouteCache::default(),
            fast,
            _elem: PhantomData,
        }
    }

    fn state(&self) -> &Arc<Inner> {
        self.inner.as_ref().expect("handle live until consumed")
    }

    /// The underlying shared pointer (for raw APIs and kernel parameters).
    pub fn ptr(&self) -> SharedPtr {
        self.ptr
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-element buffers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared pointer to element `i` (for sub-range kernel parameters).
    ///
    /// # Panics
    /// Panics when `i > len` (one-past-the-end is allowed, like slices).
    pub fn element(&self, i: usize) -> SharedPtr {
        assert!(i <= self.len, "element {i} out of {} elements", self.len);
        self.ptr.index(i as u64, T::SIZE as u64)
    }

    /// Reads element `i` through the coherence protocol.
    ///
    /// On the mmap backend, a read of a block the CPU already holds
    /// (ReadOnly or Dirty) is a plain host load — no lock, no page-table
    /// walk, no protection check (the real `mprotect` mapping *is* the
    /// check). Anything else falls back to the checked path, which faults
    /// and fetches exactly as on the table-walk backend.
    ///
    /// # Errors
    /// Propagates fault/transfer failures.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn read(&self, i: usize) -> GmacResult<T> {
        assert!(i < self.len, "element {i} out of {} elements", self.len);
        if T::RAW_COMPAT {
            if let Some(view) = &self.fast {
                if let Some(value) = view.read::<T>(i as u64 * T::SIZE as u64) {
                    return Ok(value);
                }
            }
        }
        self.state().load(&self.routes, self.element(i))
    }

    /// Writes element `i` through the coherence protocol.
    ///
    /// On the mmap backend, a write to an already-Dirty block is a plain
    /// host store (see [`Self::read`]); first touches still take the
    /// fault-and-dirty path.
    ///
    /// # Errors
    /// Propagates fault/transfer failures.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn write(&self, i: usize, value: T) -> GmacResult<()> {
        assert!(i < self.len, "element {i} out of {} elements", self.len);
        if T::RAW_COMPAT {
            if let Some(view) = &self.fast {
                if view.write::<T>(i as u64 * T::SIZE as u64, value) {
                    return Ok(());
                }
            }
        }
        self.state().store(&self.routes, self.element(i), value)
    }

    /// Reads the whole buffer.
    ///
    /// # Errors
    /// Propagates fault/transfer failures.
    pub fn read_slice(&self) -> GmacResult<Vec<T>> {
        self.state().load_slice(&self.routes, self.ptr, self.len)
    }

    /// Reads `n` elements starting at element `start`.
    ///
    /// # Errors
    /// Propagates fault/transfer failures.
    ///
    /// # Panics
    /// Panics when `start + n > len`.
    pub fn read_slice_at(&self, start: usize, n: usize) -> GmacResult<Vec<T>> {
        assert!(
            start.checked_add(n).is_some_and(|end| end <= self.len),
            "range {start}..{} out of {} elements",
            start + n,
            self.len
        );
        self.state()
            .load_slice(&self.routes, self.element(start), n)
    }

    /// Writes `values` starting at element 0.
    ///
    /// # Errors
    /// Propagates fault/transfer failures.
    ///
    /// # Panics
    /// Panics when `values.len() > len`.
    pub fn write_slice(&self, values: &[T]) -> GmacResult<()> {
        self.write_slice_at(0, values)
    }

    /// Writes `values` starting at element `start`.
    ///
    /// # Errors
    /// Propagates fault/transfer failures.
    ///
    /// # Panics
    /// Panics when the range spills past the end of the buffer.
    pub fn write_slice_at(&self, start: usize, values: &[T]) -> GmacResult<()> {
        assert!(
            start
                .checked_add(values.len())
                .is_some_and(|end| end <= self.len),
            "range {start}..{} out of {} elements",
            start + values.len(),
            self.len
        );
        self.state()
            .store_slice(&self.routes, self.element(start), values)
    }

    /// Explicitly frees the buffer (`adsmFree`), surfacing errors the RAII
    /// drop would swallow.
    ///
    /// # Errors
    /// [`crate::GmacError::ObjectInUse`] when a pending call references the
    /// object. The object then stays alive (nothing is charged); save
    /// [`Self::ptr`] beforehand and free it through
    /// [`Session::free`](crate::Session::free) after syncing.
    pub fn free(mut self) -> GmacResult<()> {
        let inner = self.inner.take().expect("handle live until consumed");
        // One attempt only: on failure the object stays alive (nothing was
        // charged) and Drop sees a disarmed handle, so there is no racy
        // second free against a possibly-reused address.
        inner.free_exact(self.ptr, self.id)
    }

    /// Releases ownership without freeing: returns the raw pointer and
    /// leaves the object alive for manual management via
    /// [`Session::free`](crate::Session::free).
    pub fn into_raw(mut self) -> SharedPtr {
        self.inner = None; // disarm Drop
        self.ptr
    }
}

impl<T: Scalar> Drop for Shared<T> {
    fn drop(&mut self) {
        // Best-effort adsmFree. An object referenced by a pending call (or
        // already freed through a raw alias) is left as-is: `State::free`
        // charges nothing on failure, so the ledger stays consistent.
        if let Some(inner) = self.inner.take() {
            let _ = inner.free_exact(self.ptr, self.id);
        }
    }
}

impl<T: Scalar> From<&Shared<T>> for Param {
    fn from(buf: &Shared<T>) -> Self {
        Param::Shared(buf.ptr())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{GmacConfig, Protocol};
    use crate::error::GmacError;
    use crate::ptr::Param;
    use crate::Gmac;
    use hetsim::{DeviceId, LaunchDims, Platform};

    fn gmac(protocol: Protocol) -> Gmac {
        Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default().protocol(protocol),
        )
    }

    #[test]
    fn element_roundtrip_all_protocols() {
        for protocol in Protocol::ALL {
            let g = gmac(protocol);
            let s = g.session();
            let v = s.alloc_typed::<u32>(1000).unwrap();
            assert_eq!(v.len(), 1000);
            assert!(!v.is_empty());
            assert_eq!(
                s.object_at(v.ptr()).unwrap().size,
                4096,
                "4000 bytes, page-rounded"
            );
            v.write(999, 0xDEAD).unwrap();
            v.write(0, 7).unwrap();
            assert_eq!(v.read(999).unwrap(), 0xDEAD, "{protocol}");
            assert_eq!(v.read(0).unwrap(), 7);
        }
    }

    #[test]
    fn slice_roundtrip_and_subranges() {
        let g = gmac(Protocol::Rolling);
        let s = g.session();
        let v = s.alloc_typed::<f32>(512).unwrap();
        let data: Vec<f32> = (0..512).map(|i| i as f32 * 0.5).collect();
        v.write_slice(&data).unwrap();
        assert_eq!(v.read_slice().unwrap(), data);
        assert_eq!(v.read_slice_at(100, 4).unwrap(), &data[100..104]);
        v.write_slice_at(200, &[9.0, 9.5]).unwrap();
        assert_eq!(v.read_slice_at(199, 4).unwrap()[1..3], [9.0, 9.5]);
    }

    #[test]
    fn raii_drop_frees_the_object() {
        let g = gmac(Protocol::Lazy);
        let s = g.session();
        {
            let _v = s.alloc_typed::<u64>(64).unwrap();
            assert_eq!(g.object_count(), 1);
        }
        assert_eq!(g.object_count(), 0, "drop performed adsmFree");
    }

    #[test]
    fn explicit_free_and_into_raw() {
        let g = gmac(Protocol::Rolling);
        let s = g.session();
        let v = s.alloc_typed::<u8>(4096).unwrap();
        v.free().unwrap();
        assert_eq!(g.object_count(), 0);

        let v = s.safe_alloc_typed::<u8>(4096).unwrap();
        let raw = v.into_raw();
        assert_eq!(g.object_count(), 1, "into_raw leaves the object alive");
        s.free(raw).unwrap();
    }

    #[test]
    fn drop_while_pending_leaves_object_alive() {
        let g = gmac(Protocol::Rolling);
        g.with_platform(|p| p.register_kernel(std::sync::Arc::new(crate::testutil::NopKernel)));
        let s = g.session();
        let v = s.alloc_typed::<u32>(1024).unwrap();
        v.write(0, 3).unwrap();
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::from(&v)])
            .unwrap();
        match v.free() {
            Err(GmacError::ObjectInUse { dev, .. }) => assert_eq!(dev, DeviceId(0)),
            other => panic!("expected ObjectInUse, got {other:?}"),
        }
        // free() consumed the handle; the raw object survives until synced.
        assert_eq!(g.object_count(), 1);
        s.sync().unwrap();
    }

    #[test]
    fn stale_drop_after_manual_free_and_address_reuse_is_inert() {
        // Regression: free the object through the raw API behind the
        // handle's back, let a new allocation reuse the address (first-fit
        // allocator), then drop the stale handle — the new object must
        // survive (frees are identity-checked, not address-checked).
        let g = gmac(Protocol::Rolling);
        let s = g.session();
        let v = s.alloc_typed::<f32>(1024).unwrap();
        let addr = v.ptr();
        s.free(addr).unwrap();
        let reused = s.alloc(4096).unwrap();
        assert_eq!(reused.addr(), addr.addr(), "first-fit reuses the window");
        drop(v);
        assert_eq!(g.object_count(), 1, "stale drop must not free the reuse");
        s.free(reused).unwrap();
    }

    #[test]
    fn alloc_on_bogus_affinity_charges_nothing() {
        // Regression: a failed allocation (unknown device from an unchecked
        // session affinity) must not desync the time ledger.
        let g = gmac(Protocol::Rolling);
        let s9 = g.session_on(DeviceId(9));
        let before = g.ledger().total();
        assert!(s9.alloc(4096).is_err());
        assert!(s9.safe_alloc(4096).is_err());
        assert!(s9.alloc_typed::<f32>(16).is_err());
        assert_eq!(g.ledger().total(), before, "failed allocs charge nothing");
        assert_eq!(g.device_count(), 1);
    }

    #[test]
    fn failed_call_charges_nothing_and_skips_release() {
        // Regression: a call on a bogus device / with an unknown kernel must
        // neither charge Launch time nor half-run the protocol release.
        let g = gmac(Protocol::Rolling);
        let s = g.session();
        let v = s.alloc_typed::<f32>(64).unwrap();
        v.write(0, 1.0).unwrap();
        let dirty_before = g.dirty_block_count();
        let ledger_before = g.ledger().total();
        assert!(s
            .call(
                "no-such-kernel",
                hetsim::LaunchDims::for_elements(1, 1),
                &[]
            )
            .is_err());
        assert!(g
            .session_on(DeviceId(9))
            .call("nop", hetsim::LaunchDims::for_elements(1, 1), &[])
            .is_err());
        assert_eq!(g.ledger().total(), ledger_before);
        assert_eq!(
            g.dirty_block_count(),
            dirty_before,
            "release must not have run"
        );
        // Session::gmac shares the same state.
        assert_eq!(s.gmac().object_count(), g.object_count());
    }

    #[test]
    fn typed_buffer_as_kernel_param() {
        let g = gmac(Protocol::Rolling);
        let s = g.session();
        let v = s.alloc_typed::<f32>(16).unwrap();
        assert_eq!(Param::from(&v), Param::Shared(v.ptr()));
        assert_eq!(v.element(16), v.ptr().byte_add(64), "one-past-end allowed");
    }

    #[test]
    #[should_panic(expected = "out of 16 elements")]
    fn out_of_bounds_read_panics() {
        let g = gmac(Protocol::Rolling);
        let s = g.session();
        let v = s.alloc_typed::<f32>(16).unwrap();
        let _ = v.read(16);
    }
}
