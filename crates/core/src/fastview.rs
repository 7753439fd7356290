//! Lock-free per-object view backing the zero-instrumentation hit path.
//!
//! With the mmap backend the softmmu hands out a raw host pointer for an
//! object whose bytes are contiguous in the host reservation
//! ([`softmmu::AddressSpace::fast_base`]). An [`ObjFastView`] pairs that
//! pointer with a lock-free mirror of the object's per-block coherence
//! states, published from the single mutation point
//! ([`crate::SharedObject::set_state`]). A typed access on a block whose
//! state permits it then needs **no lock, no route, no page-table walk and
//! no protection check** — the real `mprotect`-managed mapping *is* the
//! protection — just a plain load/store plus one relaxed state probe. Time
//! is charged through the deferred thread-local accumulator
//! ([`crate::fasttime`]), keeping virtual time byte-identical to the
//! checked path.
//!
//! Anything the fast path cannot prove safe — invalid block, non-dirty
//! block on a write, out-of-bounds offset, retired object — reports a miss
//! and the caller falls back to the fully-checked shard path, which raises
//! and resolves the fault exactly as before.
//!
//! # Races under ADSM-contract violations
//!
//! The probe and the access are not atomic together. A *data-race-free* ADSM
//! program (the paper's contract: the CPU does not touch objects released to
//! an in-flight kernel) never observes the window; a racy program may — and
//! because the user view carries real page protection, the access then takes
//! a real `SIGSEGV` and crashes instead of corrupting simulation state. The
//! table-walk backend turns the same race into an `UnresolvedFault` error;
//! neither backend is ever silently wrong.

use crate::fasttime;
use crate::state::BlockState;
use hetsim::Platform;
use softmmu::Scalar;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// Raw host pointer into the softmmu user view.
///
/// SAFETY: the pointee is the per-object slice of the mmap backing's user
/// view, which stays mapped (though possibly `PROT_NONE`) for the life of
/// the owning `AddressSpace`; all cross-thread access synchronisation is the
/// ADSM contract itself (see the module docs).
#[derive(Debug, Clone, Copy)]
struct SendPtr(*mut u8);

// SAFETY: the pointee stays mapped for the owning `AddressSpace`'s life and
// moving the pointer between threads moves no access with it.
unsafe impl Send for SendPtr {}
// SAFETY: shared use only ever accesses the pointee under the ADSM contract
// and the per-block state gate (see the type and module docs).
unsafe impl Sync for SendPtr {}

const INVALID: u8 = 0;
const READ_ONLY: u8 = 1;
const DIRTY: u8 = 2;

fn encode(state: BlockState) -> u8 {
    match state {
        BlockState::Invalid => INVALID,
        BlockState::ReadOnly => READ_ONLY,
        BlockState::Dirty => DIRTY,
    }
}

/// Lock-free fast-path view of one shared object (see the module docs).
///
/// Created by the shard when an object qualifies (mmap backend active,
/// host-contiguous, power-of-two block size divisible by every scalar
/// size); shared between the owning [`crate::SharedObject`] (which
/// publishes state transitions into it) and the [`crate::Shared`] handles
/// that consume it.
#[derive(Debug)]
pub(crate) struct ObjFastView {
    base: SendPtr,
    size: u64,
    /// `log2(block_size)`; the creator guarantees a power of two.
    block_shift: u32,
    /// Mirror of the object's compact state vector, one atomic byte per
    /// block, written only from `SharedObject::set_state` under the shard
    /// lock; read lock-free here.
    states: Box<[AtomicU8]>,
    /// Set on free: every subsequent probe misses, so a stale handle falls
    /// through to the checked path and gets the same `NotShared` error it
    /// always did.
    retired: AtomicBool,
    platform: Arc<Platform>,
    /// Pre-rounded per-access charge for scalar sizes 1, 2, 4 and 8 bytes
    /// (indexed by `log2(size)`) — exactly what
    /// [`hetsim::Platform::cpu_touch`] would spend, accumulated instead via
    /// [`crate::fasttime`].
    touch_ns: [u64; 4],
}

impl ObjFastView {
    /// Builds a view over `size` bytes at host pointer `base`, with blocks
    /// of `1 << block_shift` bytes starting in `states`.
    pub(crate) fn new(
        base: *mut u8,
        size: u64,
        block_shift: u32,
        states: &[BlockState],
        platform: Arc<Platform>,
    ) -> Arc<Self> {
        let touch_ns =
            [1u64, 2, 4, 8].map(|bytes| platform.cpu().touch_time(bytes as f64).as_nanos());
        Arc::new(ObjFastView {
            base: SendPtr(base),
            size,
            block_shift,
            states: states.iter().map(|&s| AtomicU8::new(encode(s))).collect(),
            retired: AtomicBool::new(false),
            platform,
            touch_ns,
        })
    }

    /// Publishes a block-state transition (called from the single mutation
    /// point, under the shard lock).
    pub(crate) fn publish(&self, idx: usize, state: BlockState) {
        self.states[idx].store(encode(state), Ordering::Release);
    }

    /// Marks the object freed: every later probe misses.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Race-detector epoch boundary: demotes every Dirty mirror entry to
    /// ReadOnly **in the mirror only** — the softmmu page protection is
    /// untouched, so the next fast write per block misses into the checked
    /// path, succeeds there without a fault, is recorded by the detector,
    /// and re-publishes Dirty to restore the warm path. Blocks the epoch
    /// never writes again stay demoted at zero cost.
    pub(crate) fn downgrade_dirty(&self) {
        for state in self.states.iter() {
            let _ = state.compare_exchange(DIRTY, READ_ONLY, Ordering::AcqRel, Ordering::Relaxed);
        }
    }

    /// Probes whether a `len`-byte access at `offset` may go straight to the
    /// host mapping, requiring at least `floor` block state. Returns `None`
    /// on any doubt.
    #[inline]
    fn probe(&self, offset: u64, len: u64, floor: u8) -> Option<()> {
        if self.retired.load(Ordering::Acquire) {
            return None;
        }
        let end = offset.checked_add(len)?;
        if end > self.size {
            return None;
        }
        // Scalar sizes divide the block size (gated at creation), so an
        // element access never straddles blocks: one probe suffices.
        let idx = (offset >> self.block_shift) as usize;
        (self.states[idx].load(Ordering::Acquire) >= floor).then_some(())
    }

    /// Fast typed load: a plain host load when the block is CPU-readable
    /// (ReadOnly or Dirty). `None` = fall back to the checked path.
    #[inline]
    pub(crate) fn read<T: Scalar>(&self, offset: u64) -> Option<T> {
        self.probe(offset, T::SIZE as u64, READ_ONLY)?;
        // SAFETY: the offset is in bounds of the object's live host mapping
        // and T is RAW_COMPAT (caller-gated): any bit pattern is valid and
        // the in-memory representation is the encoding.
        let value = unsafe {
            self.base
                .0
                .add(offset as usize)
                .cast::<T>()
                .read_unaligned()
        };
        fasttime::add(
            &self.platform,
            self.touch_ns[T::SIZE.trailing_zeros() as usize],
        );
        Some(value)
    }

    /// Fast typed store: a plain host store when the block is already Dirty
    /// (the only state a checked store leaves unchanged). `false` = fall
    /// back to the checked path.
    #[inline]
    pub(crate) fn write<T: Scalar>(&self, offset: u64, value: T) -> bool {
        if self.probe(offset, T::SIZE as u64, DIRTY).is_none() {
            return false;
        }
        // SAFETY: in-bounds of the live host mapping; RAW_COMPAT `T`
        // (caller-gated) writes its exact encoding.
        unsafe {
            self.base
                .0
                .add(offset as usize)
                .cast::<T>()
                .write_unaligned(value);
        }
        fasttime::add(
            &self.platform,
            self.touch_ns[T::SIZE.trailing_zeros() as usize],
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(size: u64, states: &[BlockState]) -> (Arc<ObjFastView>, Vec<u8>) {
        let mut bytes = vec![0u8; size as usize];
        let platform = Arc::new(Platform::desktop_g280());
        let v = ObjFastView::new(bytes.as_mut_ptr(), size, 12, states, platform);
        (v, bytes)
    }

    #[test]
    fn read_needs_readable_write_needs_dirty() {
        let states = [BlockState::Invalid, BlockState::ReadOnly, BlockState::Dirty];
        let (v, _keep) = view(3 * 4096, &states);
        assert_eq!(v.read::<u32>(0), None, "invalid block");
        assert_eq!(v.read::<u32>(4096), Some(0), "read-only block reads");
        assert!(!v.write::<u32>(4096, 1), "read-only block rejects writes");
        assert!(v.write::<u32>(2 * 4096 + 8, 0xDEAD_BEEF));
        assert_eq!(v.read::<u32>(2 * 4096 + 8), Some(0xDEAD_BEEF));
    }

    #[test]
    fn publish_flips_the_probe() {
        let (v, _keep) = view(4096, &[BlockState::Invalid]);
        assert_eq!(v.read::<u64>(0), None);
        v.publish(0, BlockState::Dirty);
        assert!(v.write::<u64>(8, 7));
        v.publish(0, BlockState::ReadOnly);
        assert!(!v.write::<u64>(8, 8), "downgrade re-arms write detection");
        assert_eq!(v.read::<u64>(8), Some(7));
    }

    #[test]
    fn downgrade_dirty_demotes_only_dirty_blocks() {
        let states = [BlockState::Invalid, BlockState::ReadOnly, BlockState::Dirty];
        let (v, _keep) = view(3 * 4096, &states);
        v.downgrade_dirty();
        assert_eq!(v.read::<u32>(0), None, "invalid stays invalid");
        assert_eq!(
            v.read::<u32>(2 * 4096),
            Some(0),
            "demoted block still reads"
        );
        assert!(!v.write::<u32>(2 * 4096, 1), "demoted block misses writes");
        v.publish(2, BlockState::Dirty);
        assert!(
            v.write::<u32>(2 * 4096, 1),
            "republish re-arms the warm path"
        );
    }

    #[test]
    fn bounds_and_retire_miss() {
        let (v, _keep) = view(4096, &[BlockState::Dirty]);
        assert_eq!(v.read::<u64>(4089), None, "tail straddles the end");
        assert_eq!(v.read::<u64>(u64::MAX - 3), None, "offset overflow");
        v.retire();
        assert_eq!(v.read::<u32>(0), None);
        assert!(!v.write::<u32>(0, 1));
    }
}
