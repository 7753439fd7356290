//! Batch-update: the pure write-invalidate protocol (paper Figure 6a).
//!
//! "On a kernel invocation the CPU invalidates all shared objects, whether or
//! not they are accessed by the accelerator. On method return, all shared
//! objects are transferred from accelerator memory to system memory and
//! marked as dirty." — §4.3
//!
//! No access detection is needed, so pages stay read-write and the protocol
//! never sees a fault. This "naive protocol mimics what programmers tend to
//! implement in the early stages of application implementation", and its cost
//! is exactly what Figures 7/8 show: every call/return moves everything.

use crate::config::{GmacConfig, Protocol};
use crate::error::{GmacError, GmacResult};
use crate::manager::Manager;
use crate::object::SharedObject;
use crate::protocol::CoherenceProtocol;
use crate::runtime::Runtime;
use crate::state::BlockState;
use crate::xfer::Purpose;
use hetsim::{CopyMode, DeviceId, Direction};
use softmmu::VAddr;

/// The batch-update protocol.
#[derive(Debug, Default)]
pub(crate) struct BatchUpdate {
    /// Annotation from the last release; bounds the acquire-side fetch.
    /// One protocol instance exists **per device shard** (see
    /// [`crate::shard::DeviceShard`]), so a single slot replaces the old
    /// cross-device `HashMap<DeviceId, _>` — overlapping calls on different
    /// accelerators live in different instances and cannot clobber each
    /// other's write sets. `None` means "no release yet / no annotation":
    /// the conservative fetch-everything acquire.
    last_writes: Option<Vec<VAddr>>,
}

impl BatchUpdate {
    /// Creates the protocol.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl CoherenceProtocol for BatchUpdate {
    fn kind(&self) -> Protocol {
        Protocol::Batch
    }

    fn block_size_for(&self, _config: &GmacConfig, size: u64) -> u64 {
        // Whole-object granularity.
        size
    }

    fn initial_state(&self) -> BlockState {
        // The CPU produces the initial contents; everything is transferred at
        // the first call anyway.
        BlockState::Dirty
    }

    fn on_alloc(&mut self, rt: &mut Runtime, mgr: &mut Manager, addr: VAddr) -> GmacResult<()> {
        // Batch never uses protection faults: keep pages read-write.
        let obj = mgr.find(addr).ok_or(GmacError::NotShared(addr))?;
        rt.protect_object(obj, BlockState::Dirty)?;
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
        self.last_writes = writes.map(<[VAddr]>::to_vec);
        // Plan a transfer of *all* objects to the accelerator, even
        // unmodified ones — unless the host copy is itself invalid
        // (back-to-back calls with no intervening sync: system memory was
        // invalidated at the previous call, so there is nothing to push).
        // Evicted objects own no device window: the host copy stays
        // authoritative (Dirty) until a call argument re-homes them.
        let mut plan = rt.plan(Direction::HostToDevice, CopyMode::Sync, Purpose::Release);
        for obj in mgr.iter().filter(|o| o.device() == dev && o.is_resident()) {
            if obj.state(0) != BlockState::Invalid {
                plan.request(obj, 0, obj.size());
            }
        }
        // Flush before invalidating: a failed flush leaves every state as it
        // was, so the acquire that follows a failed call fetches nothing the
        // host still owns.
        rt.execute(&plan)?;
        for addr in mgr.addrs() {
            let obj = mgr.find_mut(addr).expect("registered object");
            if obj.device() == dev && obj.is_resident() {
                // Pages stay read-write: batch performs no detection.
                obj.set_state(0, BlockState::Invalid);
            }
        }
        Ok(())
    }

    fn acquire(&mut self, rt: &mut Runtime, mgr: &mut Manager, dev: DeviceId) -> GmacResult<()> {
        // Plan the transfer of everything back (bounded by the write
        // annotation when the caller provided one) and mark it dirty,
        // implicitly invalidating the accelerator copy.
        let writes = self.last_writes.take();
        let mut plan = rt.plan(Direction::DeviceToHost, CopyMode::Sync, Purpose::Fetch);
        // Only objects the release invalidated come back. Evicted objects
        // were never pushed to the device by the matching release: nothing
        // to fetch, already Dirty on host.
        for obj in mgr.iter().filter(|o| o.device() == dev && o.is_resident()) {
            if obj.state(0) == BlockState::Invalid
                && crate::protocol::is_written(writes.as_deref(), obj.addr())
            {
                plan.request(obj, 0, obj.size());
            }
        }
        rt.execute(&plan)?;
        for addr in mgr.addrs() {
            let obj = mgr.find_mut(addr).expect("registered object");
            if obj.device() == dev && obj.is_resident() {
                obj.set_state(0, BlockState::Dirty);
            }
        }
        Ok(())
    }

    fn prepare_read(
        &mut self,
        _rt: &mut Runtime,
        _mgr: &mut Manager,
        _addr: VAddr,
        _offset: u64,
        _len: u64,
    ) -> GmacResult<()> {
        // Pages are always accessible under batch-update.
        Ok(())
    }

    fn memset_through(
        &mut self,
        rt: &mut Runtime,
        mgr: &mut Manager,
        addr: VAddr,
        offset: u64,
        len: u64,
        value: u8,
    ) -> GmacResult<()> {
        // Batch keeps the host copy authoritative and performs no access
        // detection: fill host memory directly (the naive programmer's
        // memset); everything moves at the next call anyway.
        let obj = mgr.find_mut(addr).ok_or(GmacError::NotShared(addr))?;
        Runtime::check_bounds(obj, offset, len)?;
        rt.vm.fill(obj.addr() + offset, value, len)?;
        rt.platform.cpu_touch(len);
        obj.set_state(0, BlockState::Dirty);
        Ok(())
    }

    fn prepare_write(
        &mut self,
        _rt: &mut Runtime,
        mgr: &mut Manager,
        addr: VAddr,
        _offset: u64,
        _len: u64,
    ) -> GmacResult<()> {
        // Writing makes the (single) block dirty again after a call.
        if let Some(obj) = mgr.find_mut(addr) {
            obj.set_state(0, BlockState::Dirty);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::harness;

    #[test]
    fn release_transfers_everything_even_clean_objects() {
        let (mut rt, mut mgr, mut p) = harness(Protocol::Batch, &[8192, 4096]);
        let before = rt.platform.transfers().h2d_bytes;
        p.release(&mut rt, &mut mgr, DeviceId(0), None).unwrap();
        let moved = rt.platform.transfers().h2d_bytes - before;
        assert_eq!(moved, 8192 + 4096, "all objects move, modified or not");
        for obj in mgr.iter() {
            assert_eq!(obj.state(0), BlockState::Invalid);
        }
    }

    #[test]
    fn acquire_fetches_everything_back_as_dirty() {
        let (mut rt, mut mgr, mut p) = harness(Protocol::Batch, &[8192]);
        p.release(&mut rt, &mut mgr, DeviceId(0), None).unwrap();
        let before = rt.platform.transfers().d2h_bytes;
        p.acquire(&mut rt, &mut mgr, DeviceId(0)).unwrap();
        assert_eq!(rt.platform.transfers().d2h_bytes - before, 8192);
        for obj in mgr.iter() {
            assert_eq!(obj.state(0), BlockState::Dirty);
        }
    }

    #[test]
    fn write_annotation_bounds_the_acquire_fetch() {
        let (mut rt, mut mgr, mut p) = harness(Protocol::Batch, &[8192, 4096]);
        let addrs = mgr.addrs();
        // Only the first object is written by the kernel.
        p.release(&mut rt, &mut mgr, DeviceId(0), Some(&addrs[..1]))
            .unwrap();
        let before = rt.platform.transfers().d2h_bytes;
        p.acquire(&mut rt, &mut mgr, DeviceId(0)).unwrap();
        assert_eq!(rt.platform.transfers().d2h_bytes - before, 8192);
    }

    #[test]
    fn never_faults_and_data_roundtrips() {
        let (mut rt, mut mgr, mut p) = harness(Protocol::Batch, &[8192]);
        let addr = mgr.addrs()[0];
        // CPU writes through the raw path (pages are RW; no faults occur).
        rt.vm
            .write_bytes(addr, &[0xAB; 8192])
            .expect("batch pages are writable");
        p.release(&mut rt, &mut mgr, DeviceId(0), None).unwrap();
        // Device received the data.
        let obj = mgr.find(addr).unwrap().clone();
        let dev_bytes = rt
            .platform
            .device(DeviceId(0))
            .unwrap()
            .mem()
            .slice(obj.dev_addr(), 8192)
            .unwrap()
            .to_vec();
        assert!(dev_bytes.iter().all(|&b| b == 0xAB));
        assert_eq!(rt.counters().faults(), 0);
        assert_eq!(
            rt.vm.faults_observed(),
            0,
            "batch never triggers protection faults"
        );
    }

    #[test]
    fn dirty_block_accounting() {
        let (mut rt, mut mgr, mut p) = harness(Protocol::Batch, &[4096, 4096]);
        assert_eq!(p.dirty_blocks(&mgr), 2, "fresh batch objects are dirty");
        p.release(&mut rt, &mut mgr, DeviceId(0), None).unwrap();
        assert_eq!(p.dirty_blocks(&mgr), 0);
    }
}
