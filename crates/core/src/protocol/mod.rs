//! Memory-coherence protocols (paper §3.3/§4.3, Figure 6).
//!
//! All protocols are defined *from the CPU perspective*: every transition is
//! driven by the host at allocation, fault, call and return boundaries; the
//! accelerator performs no coherence actions at all. That asymmetry is the
//! core of ADSM — it is what allows simple accelerators.
//!
//! Three protocols are provided, each a refinement of the previous one:
//!
//! | protocol | granularity | detection | transfers |
//! |---|---|---|---|
//! | [`batch`]   | object | none (everything moves) | all objects, both ways |
//! | [`lazy`]    | object | page faults | dirty objects at call, faulted objects after return |
//! | [`rolling`] | block  | page faults | dirty blocks, eagerly evicted as the CPU writes |

pub(crate) mod batch;
pub(crate) mod lazy;
pub(crate) mod rolling;

use crate::config::{GmacConfig, Protocol};
use crate::error::GmacResult;
use crate::manager::Manager;
use crate::object::SharedObject;
use crate::runtime::Runtime;
use crate::state::BlockState;
use hetsim::DeviceId;
use softmmu::VAddr;

/// A host-driven coherence protocol.
///
/// Implementations must uphold the release-consistency obligations of §3.3:
/// after [`Self::release`] the accelerator's memory holds every byte the CPU
/// wrote; after [`Self::acquire`] + [`Self::prepare_read`] the CPU observes
/// every byte the kernel wrote.
///
/// Protocols do not move data imperatively: they *plan* the block ranges
/// that must move ([`crate::xfer::TransferPlan`]) and hand the plan to
/// [`Runtime::execute`], which coalesces adjacent ranges into DMA jobs.
/// Asynchronous release flushes are joined at the `adsmCall` boundary by the
/// caller ([`Runtime::join_dma`]), not inside the protocol.
///
/// Since the shard redesign the runtime instantiates **one protocol per
/// device shard** ([`crate::shard::DeviceShard`]): the manager passed in
/// holds only that device's objects, rolling-update's dirty FIFO and
/// adaptive rolling size are per-accelerator, and batch-update's release
/// annotation needs no cross-device keying. The `dev` parameter of
/// [`Self::release`]/[`Self::acquire`] therefore always names the owning
/// shard's device; standalone harnesses driving one instance across several
/// devices must partition their managers the same way. Protocols are `Send`
/// because they live behind their shard's mutex.
pub(crate) trait CoherenceProtocol: std::fmt::Debug + Send {
    /// Which protocol this is.
    fn kind(&self) -> Protocol;

    /// Block granularity for a new object of `size` bytes (object-granular
    /// protocols return `size`; rolling-update returns the configured block
    /// size).
    fn block_size_for(&self, config: &GmacConfig, size: u64) -> u64;

    /// Initial state of a fresh object's blocks.
    fn initial_state(&self) -> BlockState;

    /// Hook after the object starting at `addr` has been registered.
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn on_alloc(&mut self, rt: &mut Runtime, mgr: &mut Manager, addr: VAddr) -> GmacResult<()>;

    /// Hook after an object has been removed from the registry (but before
    /// its mappings are destroyed).
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn on_free(&mut self, rt: &mut Runtime, obj: &SharedObject) -> GmacResult<()>;

    /// Release side of `adsmCall`: make every object hosted on `dev`
    /// consistent in accelerator memory.
    ///
    /// `writes` optionally names the objects the kernel will write (the
    /// paper's §4.3 annotation): when given, only those objects are
    /// invalidated; the rest keep a CPU-readable state, avoiding the
    /// transfer-back deficiency the paper describes.
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn release(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        dev: DeviceId,
        writes: Option<&[VAddr]>,
    ) -> GmacResult<()>;

    /// Acquire side of `adsmSync`, after the kernel has completed.
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn acquire(&mut self, rt: &mut Runtime, mgr: &mut Manager, dev: DeviceId) -> GmacResult<()>;

    /// Makes `[offset, offset+len)` of the object at `addr` readable by the
    /// CPU (fetching invalid data as needed). This is the body of the
    /// paper's read-fault handler.
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn prepare_read(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        addr: VAddr,
        offset: u64,
        len: u64,
    ) -> GmacResult<()>;

    /// Makes the range writable and marks it dirty. This is the body of the
    /// paper's write-fault handler. Callers must write the prepared bytes
    /// before preparing further ranges (rolling-update may evict older
    /// blocks during this call).
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn prepare_write(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        addr: VAddr,
        offset: u64,
        len: u64,
    ) -> GmacResult<()>;

    /// Number of blocks currently dirty (rolling-update bookkeeping; other
    /// protocols derive it from object states).
    fn dirty_blocks(&self, mgr: &Manager) -> usize {
        mgr.iter()
            .map(|o| o.count_in_state(BlockState::Dirty))
            .sum()
    }

    /// Hook just before the object at `addr` is evicted from device memory
    /// (the shard has already fetched device-only bytes to host and will
    /// set every block Dirty). Protocols with bookkeeping tied to the
    /// device copy (rolling-update's dirty FIFO) drop the object here;
    /// object-granular protocols need nothing.
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn on_evict(&mut self, _rt: &mut Runtime, _mgr: &mut Manager, _addr: VAddr) -> GmacResult<()> {
        Ok(())
    }

    /// Hook just after the evicted object at `addr` has been re-homed in a
    /// fresh device window (every block Dirty, host authoritative — the
    /// next release flushes it whole). Rolling-update re-admits the blocks
    /// into its dirty FIFO here.
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn on_resident(
        &mut self,
        _rt: &mut Runtime,
        _mgr: &mut Manager,
        _addr: VAddr,
    ) -> GmacResult<()> {
        Ok(())
    }

    /// Interposed `memset` (paper §4.4): fill the range *device-side*
    /// (`cudaMemset`) instead of faulting page by page on the host, then
    /// invalidate the covered blocks so later CPU reads fetch the fill.
    ///
    /// Partially-covered dirty blocks are flushed first so pending host
    /// bytes outside the fill range are not lost.
    ///
    /// # Errors
    /// Propagates transfer/MMU failures.
    fn memset_through(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        addr: VAddr,
        offset: u64,
        len: u64,
        value: u8,
    ) -> GmacResult<()> {
        memset_device_side(rt, mgr, addr, offset, len, value)
    }
}

/// The shared body of [`CoherenceProtocol::memset_through`]: plan a flush of
/// partially-covered dirty blocks, fill the range device-side, then
/// invalidate the covered blocks. Rolling-update wraps this with its
/// dirty-set recount.
pub(crate) fn memset_device_side(
    rt: &mut Runtime,
    mgr: &mut Manager,
    addr: VAddr,
    offset: u64,
    len: u64,
    value: u8,
) -> GmacResult<()> {
    use crate::error::GmacError;
    use crate::xfer::Purpose;
    use hetsim::{CopyMode, Direction};
    let obj = mgr.find_mut(addr).ok_or(GmacError::NotShared(addr))?;
    Runtime::check_bounds(obj, offset, len)?;
    let mut plan = rt.plan(
        Direction::HostToDevice,
        CopyMode::Sync,
        Purpose::MemsetFlush,
    );
    for idx in obj.blocks_overlapping(offset, len) {
        let block = obj.block(idx);
        let fully = offset <= block.offset && offset + len >= block.offset + block.len;
        if block.state == BlockState::Dirty && !fully {
            plan.request_block(obj, idx);
        }
    }
    rt.execute(&plan)?;
    rt.dev_fill(obj, offset, len, value)?;
    // The covered blocks form one contiguous span: one mprotect + one state
    // sweep instead of a per-block loop.
    let covered = obj.blocks_overlapping(offset, len);
    let span_lo = covered.start as u64 * obj.block_size();
    let span_hi = (covered.end as u64 * obj.block_size()).min(obj.size());
    rt.protect_range(obj, span_lo, span_hi, BlockState::Invalid)?;
    for idx in covered {
        obj.set_state(idx, BlockState::Invalid);
    }
    Ok(())
}

/// Instantiates the protocol selected by `kind`.
pub(crate) fn make(kind: Protocol) -> Box<dyn CoherenceProtocol> {
    match kind {
        Protocol::Batch => Box::new(batch::BatchUpdate::new()),
        Protocol::Lazy => Box::new(lazy::LazyUpdate::new()),
        Protocol::Rolling => Box::new(rolling::RollingUpdate::new()),
    }
}

/// Applies the §4.3 write-annotation rule shared by lazy and rolling
/// release paths: returns true when the object at `addr` must be invalidated.
pub(crate) fn is_written(writes: Option<&[VAddr]>, addr: VAddr) -> bool {
    match writes {
        None => true, // no annotation: conservatively invalidate everything
        Some(list) => list.contains(&addr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        for kind in Protocol::ALL {
            let p = make(kind);
            assert_eq!(p.kind(), kind);
        }
    }

    #[test]
    fn write_annotation_rule() {
        let a = VAddr(0x1000);
        let b = VAddr(0x2000);
        assert!(is_written(None, a), "no annotation invalidates everything");
        assert!(is_written(Some(&[a]), a));
        assert!(!is_written(Some(&[a]), b));
        assert!(!is_written(Some(&[]), a));
    }
}
