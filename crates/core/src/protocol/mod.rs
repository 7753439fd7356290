//! Memory-coherence protocols (paper §3.3/§4.3, Figure 6).
//!
//! All protocols are defined *from the CPU perspective*: every transition is
//! driven by the host at allocation, fault, call and return boundaries; the
//! accelerator performs no coherence actions at all. That asymmetry is the
//! core of ADSM — it is what allows simple accelerators.
//!
//! Three protocols are provided, each a refinement of the previous one, in
//! two engines:
//!
//! | protocol | engine | granularity | detection | transfers |
//! |---|---|---|---|---|
//! | Batch   | [`batch`]   | object | none (everything moves) | all objects, both ways |
//! | Lazy    | [`rolling`] | object | page faults | dirty objects at call, faulted objects after return |
//! | Rolling | [`rolling`] | block  | page faults | dirty blocks, eagerly evicted as the CPU writes |
//!
//! Lazy = Rolling at (object granularity, no dirty bound, sync release,
//! fetch on full overwrite): §4.3's lazy-update is Figure 6b without the
//! dotted rolling transition, so one engine serves both at two private
//! parameter points.

pub(crate) mod batch;
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

    /// Interposed `memset` (paper §4.4) of `[offset, offset+len)` of the
    /// object at `addr`.
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
    ) -> GmacResult<()>;
}

/// Instantiates the protocol selected by `kind`.
pub(crate) fn make(kind: Protocol) -> Box<dyn CoherenceProtocol> {
    match kind {
        Protocol::Batch => Box::new(batch::BatchUpdate::new()),
        Protocol::Lazy => Box::new(rolling::RollingUpdate::lazy()),
        Protocol::Rolling => Box::new(rolling::RollingUpdate::rolling()),
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

/// Lazy-update's unit tests, against [`Protocol::Lazy`]: the rolling engine
/// at its lazy point.
#[cfg(test)]
mod lazy {
    mod tests {
        use crate::config::Protocol;
        use crate::error::GmacError;
        use crate::state::BlockState;
        use crate::testutil::harness;
        use hetsim::DeviceId;
        use softmmu::VAddr;

        const DEV: DeviceId = DeviceId(0);

        #[test]
        fn only_dirty_objects_move_at_release() {
            let (mut rt, mut mgr, mut p) = harness(Protocol::Lazy, &[8192, 4096]);
            let addrs = mgr.addrs();
            // Dirty the first object only.
            p.prepare_write(&mut rt, &mut mgr, addrs[0], 0, 1).unwrap();
            let before = rt.platform.transfers().h2d_bytes;
            p.release(&mut rt, &mut mgr, DEV, None).unwrap();
            assert_eq!(
                rt.platform.transfers().h2d_bytes - before,
                8192,
                "clean object not transferred (first benefit of lazy-update)"
            );
            for obj in mgr.iter() {
                assert_eq!(obj.state(0), BlockState::Invalid);
            }
        }

        #[test]
        fn acquire_transfers_nothing() {
            let (mut rt, mut mgr, mut p) = harness(Protocol::Lazy, &[8192]);
            p.release(&mut rt, &mut mgr, DEV, None).unwrap();
            let before = rt.platform.transfers().d2h_bytes;
            p.acquire(&mut rt, &mut mgr, DEV).unwrap();
            assert_eq!(rt.platform.transfers().d2h_bytes, before);
        }

        #[test]
        fn read_of_invalid_object_fetches_whole_object() {
            let (mut rt, mut mgr, mut p) = harness(Protocol::Lazy, &[16384]);
            let addr = mgr.addrs()[0];
            p.release(&mut rt, &mut mgr, DEV, None).unwrap();
            let before = rt.platform.transfers().d2h_bytes;
            // CPU touches one byte: lazy fetches the *entire* object.
            p.prepare_read(&mut rt, &mut mgr, addr, 5, 1).unwrap();
            assert_eq!(rt.platform.transfers().d2h_bytes - before, 16384);
            assert_eq!(mgr.find(addr).unwrap().state(0), BlockState::ReadOnly);
            // Subsequent reads are free.
            let before = rt.platform.transfers().d2h_bytes;
            p.prepare_read(&mut rt, &mut mgr, addr, 6000, 64).unwrap();
            assert_eq!(rt.platform.transfers().d2h_bytes, before);
        }

        #[test]
        fn write_to_invalid_object_fetches_then_dirties() {
            let (mut rt, mut mgr, mut p) = harness(Protocol::Lazy, &[8192]);
            let addr = mgr.addrs()[0];
            p.release(&mut rt, &mut mgr, DEV, None).unwrap();
            p.prepare_write(&mut rt, &mut mgr, addr, 0, 4).unwrap();
            assert_eq!(mgr.find(addr).unwrap().state(0), BlockState::Dirty);
            assert_eq!(rt.counters().blocks_fetched, 1);
            // Host pages are now read-write: stores succeed.
            rt.vm.write_bytes(addr, &[1, 2, 3, 4]).unwrap();
        }

        #[test]
        fn full_overwrite_of_invalid_object_still_fetches() {
            // Unlike rolling-update, the lazy point fetches even when the
            // write covers the whole object, and it never evicts eagerly.
            let (mut rt, mut mgr, mut p) = harness(Protocol::Lazy, &[8192, 8192, 8192]);
            let addrs = mgr.addrs();
            p.release(&mut rt, &mut mgr, DEV, None).unwrap();
            for &addr in &addrs {
                p.prepare_write(&mut rt, &mut mgr, addr, 0, 8192).unwrap();
            }
            assert_eq!(rt.platform.transfers().d2h_bytes, 3 * 8192);
            assert_eq!(p.dirty_blocks(&mgr), 3, "no dirty bound");
            assert_eq!(rt.counters().eager_evictions, 0);
        }

        #[test]
        fn write_to_read_only_dirties_without_transfer() {
            let (mut rt, mut mgr, mut p) = harness(Protocol::Lazy, &[8192]);
            let addr = mgr.addrs()[0];
            let before = rt.platform.transfers().total_bytes();
            p.prepare_write(&mut rt, &mut mgr, addr, 100, 4).unwrap();
            assert_eq!(
                rt.platform.transfers().total_bytes(),
                before,
                "no data motion"
            );
            assert_eq!(mgr.find(addr).unwrap().state(0), BlockState::Dirty);
        }

        #[test]
        fn annotation_keeps_unwritten_objects_valid() {
            let (mut rt, mut mgr, mut p) = harness(Protocol::Lazy, &[8192, 4096]);
            let addrs = mgr.addrs();
            p.prepare_write(&mut rt, &mut mgr, addrs[1], 0, 1).unwrap();
            // Kernel writes only object 0.
            p.release(&mut rt, &mut mgr, DEV, Some(&addrs[..1]))
                .unwrap();
            assert_eq!(mgr.find(addrs[0]).unwrap().state(0), BlockState::Invalid);
            // Object 1 was dirty, got flushed, and stays CPU-readable.
            assert_eq!(mgr.find(addrs[1]).unwrap().state(0), BlockState::ReadOnly);
            // Reading it costs no transfer.
            let before = rt.platform.transfers().d2h_bytes;
            p.prepare_read(&mut rt, &mut mgr, addrs[1], 0, 64).unwrap();
            assert_eq!(rt.platform.transfers().d2h_bytes, before);
        }

        #[test]
        fn foreign_address_is_error() {
            let (mut rt, mut mgr, mut p) = harness(Protocol::Lazy, &[4096]);
            let bogus = VAddr(0xDEAD_0000);
            assert!(matches!(
                p.prepare_read(&mut rt, &mut mgr, bogus, 0, 1),
                Err(GmacError::NotShared(_))
            ));
        }
    }
}
