//! Lazy-update: page-protection detection at object granularity (paper
//! Figure 6b without the dotted rolling transition).
//!
//! "Lazy-update improves upon batch-update by detecting CPU modifications to
//! objects in read-only state and any CPU read or write access to objects in
//! invalid state. [...] On a kernel invocation all shared data structures are
//! invalidated and those in the dirty state are transferred from system
//! memory to accelerator memory. On kernel return no data transfer is done."
//! — §4.3
//!
//! Lazy-update keeps no protocol-level state of its own: all per-object
//! state lives in the object's block records, which since the shard redesign
//! are owned by the home device's shard (one protocol instance per shard).

use crate::config::{GmacConfig, Protocol};
use crate::error::{GmacError, GmacResult};
use crate::manager::Manager;
use crate::object::SharedObject;
use crate::protocol::{is_written, CoherenceProtocol};
use crate::runtime::Runtime;
use crate::state::BlockState;
use crate::xfer::Purpose;
use hetsim::{CopyMode, DeviceId, Direction};
use softmmu::VAddr;

/// The lazy-update protocol.
#[derive(Debug, Default)]
pub(crate) struct LazyUpdate {
    _priv: (),
}

impl LazyUpdate {
    /// Creates the protocol.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Transitions the whole object out of `Invalid` by fetching it from the
    /// accelerator, then sets `target` state and protection.
    fn make_valid(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        addr: VAddr,
        target: BlockState,
    ) -> GmacResult<()> {
        let obj = mgr.find_mut(addr).ok_or(GmacError::NotShared(addr))?;
        if obj.state(0) == BlockState::Invalid {
            // Whole-object transfer: the defining cost of lazy-update
            // compared to rolling-update (Figure 9).
            let mut plan = rt.plan(Direction::DeviceToHost, CopyMode::Sync, Purpose::Fetch);
            plan.request(obj, 0, obj.size());
            rt.execute(&plan)?;
        }
        rt.protect_object(obj, target)?;
        obj.set_state(0, target);
        Ok(())
    }
}

impl CoherenceProtocol for LazyUpdate {
    fn kind(&self) -> Protocol {
        Protocol::Lazy
    }

    fn block_size_for(&self, _config: &GmacConfig, size: u64) -> u64 {
        // Whole-object granularity.
        size
    }

    fn initial_state(&self) -> BlockState {
        // "Shared data structures are initialized to a read-only state when
        // they are allocated, so read accesses do not trigger a page fault."
        BlockState::ReadOnly
    }

    fn on_alloc(&mut self, _rt: &mut Runtime, _mgr: &mut Manager, _addr: VAddr) -> GmacResult<()> {
        Ok(())
    }

    fn on_free(&mut self, _rt: &mut Runtime, _obj: &SharedObject) -> GmacResult<()> {
        Ok(())
    }

    fn release(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        dev: DeviceId,
        writes: Option<&[VAddr]>,
    ) -> GmacResult<()> {
        let mut plan = rt.plan(Direction::HostToDevice, CopyMode::Sync, Purpose::Release);
        for addr in mgr.addrs() {
            let obj = mgr.find(addr).expect("registered object").clone();
            if obj.device() != dev {
                continue;
            }
            // Evicted objects own no device window: the host copy stays
            // authoritative (Dirty, pages read-write) until re-fetch.
            if !obj.is_resident() {
                continue;
            }
            let state = obj.state(0);
            // Only objects modified by the CPU move (first benefit in §4.3).
            if state == BlockState::Dirty {
                plan.request(&obj, 0, obj.size());
            }
            let new_state = if is_written(writes, addr) {
                BlockState::Invalid
            } else {
                // Annotated read-only for the kernel: the CPU copy stays
                // valid, avoiding the paper's transfer-back deficiency.
                match state {
                    BlockState::Dirty => BlockState::ReadOnly,
                    other => other,
                }
            };
            rt.protect_object(&obj, new_state)?;
            mgr.find_mut(addr)
                .expect("registered object")
                .set_state(0, new_state);
        }
        rt.execute(&plan)?;
        Ok(())
    }

    fn acquire(&mut self, _rt: &mut Runtime, _mgr: &mut Manager, _dev: DeviceId) -> GmacResult<()> {
        // "On kernel return no data transfer is done and all shared data
        // objects remain in invalid state."
        Ok(())
    }

    fn prepare_read(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        addr: VAddr,
        _offset: u64,
        _len: u64,
    ) -> GmacResult<()> {
        let state = mgr.find(addr).ok_or(GmacError::NotShared(addr))?.state(0);
        match state {
            BlockState::Invalid => self.make_valid(rt, mgr, addr, BlockState::ReadOnly),
            _ => Ok(()),
        }
    }

    fn prepare_write(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        addr: VAddr,
        _offset: u64,
        _len: u64,
    ) -> GmacResult<()> {
        let state = mgr.find(addr).ok_or(GmacError::NotShared(addr))?.state(0);
        match state {
            BlockState::Dirty => Ok(()),
            // Invalid -> fetch then dirty; ReadOnly -> just dirty.
            _ => self.make_valid(rt, mgr, addr, BlockState::Dirty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::harness;

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
