//! Transfer plans: declarative range requests coalesced into DMA jobs.

use crate::object::SharedObject;
use hetsim::{CopyMode, DevAddr, DeviceId, Direction};
use softmmu::VAddr;

/// Why a plan moves data — drives counter attribution in the executor
/// (only eager evictions count toward `Counters::eager_evictions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// Release-side flush of dirty data at an `adsmCall` boundary.
    Release,
    /// Rolling-update eviction of the oldest dirty block.
    Eviction,
    /// Acquire-side / fault-side fetch of invalid data.
    Fetch,
    /// Flush of partially-covered dirty blocks ahead of a device-side fill.
    MemsetFlush,
}

/// One range of one shared object a protocol asked to move.
#[derive(Debug, Clone, Copy)]
struct PlannedRange {
    /// Object start in the unified address space.
    addr: VAddr,
    /// Hosting accelerator.
    dev: DeviceId,
    /// Object base in the device address space.
    dev_addr: DevAddr,
    /// Byte offset of the range within the object.
    offset: u64,
    /// Range length in bytes.
    len: u64,
    /// The object's protocol block size (used to recount blocks after
    /// merging).
    block_size: u64,
}

/// Protocol blocks overlapped by `[offset, offset+len)` under `block_size`
/// granularity (matches `SharedObject::blocks_overlapping` for in-bounds
/// ranges; the tail block's short length does not change the count).
fn blocks_spanned(offset: u64, len: u64, block_size: u64) -> u64 {
    if len == 0 {
        0
    } else {
        (offset + len - 1) / block_size - offset / block_size + 1
    }
}

/// One coalesced DMA engine reservation: a contiguous range of a single
/// object, carrying `blocks` protocol blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaJob {
    /// Object start in the unified address space.
    pub addr: VAddr,
    /// Hosting accelerator.
    pub dev: DeviceId,
    /// Object base in the device address space.
    pub dev_addr: DevAddr,
    /// Byte offset of the job's range within the object.
    pub offset: u64,
    /// Bytes to move.
    pub len: u64,
    /// Protocol blocks coalesced into this job.
    pub blocks: u64,
}

/// A batch of planned transfers in one direction, executed by
/// `Runtime::execute`.
#[derive(Debug)]
pub struct TransferPlan {
    dir: Direction,
    mode: CopyMode,
    purpose: Purpose,
    coalescing: bool,
    ranges: Vec<PlannedRange>,
}

impl TransferPlan {
    /// Creates an empty plan. `mode` is only meaningful host-to-device;
    /// device-to-host fetches are synchronous (the CPU needs the bytes to
    /// make progress).
    pub fn new(dir: Direction, mode: CopyMode, purpose: Purpose, coalescing: bool) -> Self {
        TransferPlan {
            dir,
            mode,
            purpose,
            coalescing,
            ranges: Vec::new(),
        }
    }

    /// Transfer direction.
    pub(crate) fn dir(&self) -> Direction {
        self.dir
    }

    /// Whether jobs block the host.
    pub(crate) fn mode(&self) -> CopyMode {
        self.mode
    }

    /// Why the plan moves data.
    pub(crate) fn purpose(&self) -> Purpose {
        self.purpose
    }

    /// Requests `[offset, offset+len)` of `obj`. The block count attributed
    /// to the range is the number of protocol blocks it overlaps.
    ///
    /// With coalescing **disabled** (the ablation baseline: "one DMA job per
    /// protocol block") a multi-block range is split into its per-block
    /// subranges, so protocols may request whole equal-state runs without
    /// changing the baseline's job shape. Object-granular protocols
    /// (batch/lazy) are untouched: their block size *is* the object size,
    /// so a whole-object request is a single block either way.
    pub fn request(&mut self, obj: &SharedObject, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        if !self.coalescing {
            let block_size = obj.block_size();
            let end = offset + len;
            let mut lo = offset;
            while lo < end {
                let block_end = (lo / block_size + 1) * block_size;
                let hi = block_end.min(end);
                self.push_range(obj, lo, hi - lo);
                lo = hi;
            }
            return;
        }
        self.push_range(obj, offset, len);
    }

    fn push_range(&mut self, obj: &SharedObject, offset: u64, len: u64) {
        self.ranges.push(PlannedRange {
            addr: obj.addr(),
            dev: obj.device(),
            dev_addr: obj.dev_addr(),
            offset,
            len,
            block_size: obj.block_size(),
        });
    }

    /// Requests exactly block `idx` of `obj`.
    pub(crate) fn request_block(&mut self, obj: &SharedObject, idx: usize) {
        let block = obj.block(idx);
        self.request(obj, block.offset, block.len);
    }

    /// Produces the job list: ranges sorted by (object, offset), with
    /// adjacent or overlapping ranges of the same object merged into single
    /// jobs when coalescing is enabled. With coalescing disabled every
    /// requested range becomes its own job (the ablation baseline).
    pub fn jobs(&self) -> Vec<DmaJob> {
        let mut ranges = self.ranges.clone();
        ranges.sort_by_key(|r| (r.addr, r.offset));
        let mut jobs: Vec<DmaJob> = Vec::with_capacity(ranges.len());
        for r in ranges {
            if self.coalescing {
                if let Some(last) = jobs.last_mut() {
                    if last.addr == r.addr && r.offset <= last.offset + last.len {
                        // Adjacent or overlapping: extend the previous job.
                        // Blocks are recounted over the merged extent so
                        // overlapping requests never double-count.
                        let end = (r.offset + r.len).max(last.offset + last.len);
                        last.len = end - last.offset;
                        last.blocks = blocks_spanned(last.offset, last.len, r.block_size);
                        continue;
                    }
                }
            }
            jobs.push(DmaJob {
                addr: r.addr,
                dev: r.dev,
                dev_addr: r.dev_addr,
                offset: r.offset,
                len: r.len,
                blocks: blocks_spanned(r.offset, r.len, r.block_size),
            });
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;
    use crate::state::BlockState;
    use softmmu::RegionId;

    fn obj(addr: u64, size: u64, block: u64) -> SharedObject {
        SharedObject::new(
            ObjectId(1),
            VAddr(addr),
            size,
            DeviceId(0),
            DevAddr(addr),
            RegionId(1),
            block,
            BlockState::ReadOnly,
        )
    }

    fn plan(coalescing: bool) -> TransferPlan {
        TransferPlan::new(
            Direction::HostToDevice,
            CopyMode::Sync,
            Purpose::Release,
            coalescing,
        )
    }

    #[test]
    fn adjacent_ranges_merge_into_one_job() {
        let o = obj(0x10_0000, 4 * 4096, 4096);
        let mut p = plan(true);
        for idx in 0..4 {
            p.request_block(&o, idx);
        }
        let jobs = p.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].offset, 0);
        assert_eq!(jobs[0].len, 4 * 4096);
        assert_eq!(jobs[0].blocks, 4);
    }

    #[test]
    fn coalescing_off_keeps_one_job_per_range() {
        let o = obj(0x10_0000, 4 * 4096, 4096);
        let mut p = plan(false);
        for idx in 0..4 {
            p.request_block(&o, idx);
        }
        let jobs = p.jobs();
        assert_eq!(jobs.len(), 4);
        assert!(jobs.iter().all(|j| j.len == 4096 && j.blocks == 1));
    }

    #[test]
    fn gaps_break_runs() {
        let o = obj(0x10_0000, 6 * 4096, 4096);
        let mut p = plan(true);
        // Blocks 0,1 then 3 then 5: two gaps -> three jobs.
        for idx in [0usize, 1, 3, 5] {
            p.request_block(&o, idx);
        }
        let jobs = p.jobs();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].len, 2 * 4096);
        assert_eq!(jobs[0].blocks, 2);
        assert_eq!(jobs[1].offset, 3 * 4096);
        assert_eq!(jobs[2].offset, 5 * 4096);
    }

    #[test]
    fn requests_sorted_before_merging() {
        let o = obj(0x10_0000, 4 * 4096, 4096);
        let mut p = plan(true);
        for idx in [2usize, 0, 1, 3] {
            p.request_block(&o, idx);
        }
        let jobs = p.jobs();
        assert_eq!(jobs.len(), 1, "out-of-order adjacent requests still merge");
        assert_eq!(jobs[0].blocks, 4);
    }

    #[test]
    fn different_objects_never_merge() {
        let a = obj(0x10_0000, 4096, 4096);
        let b = obj(0x10_1000, 4096, 4096); // numerically adjacent, distinct object
        let mut p = plan(true);
        p.request_block(&a, 0);
        p.request_block(&b, 0);
        assert_eq!(p.jobs().len(), 2);
    }

    #[test]
    fn overlapping_ranges_union() {
        let o = obj(0x10_0000, 4 * 4096, 4096);
        let mut p = plan(true);
        p.request(&o, 0, 6000);
        p.request(&o, 4096, 8192);
        let jobs = p.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].offset, 0);
        assert_eq!(jobs[0].len, 3 * 4096);
        assert_eq!(
            jobs[0].blocks, 3,
            "block 1 is shared by both requests but counted once"
        );
    }

    #[test]
    fn empty_and_zero_length_requests() {
        let o = obj(0x10_0000, 4096, 4096);
        let mut p = plan(true);
        assert!(p.ranges.is_empty());
        p.request(&o, 0, 0);
        assert!(p.ranges.is_empty(), "zero-length request is dropped");
        p.request_block(&o, 0);
        assert_eq!(p.ranges.len(), 1);
    }

    #[test]
    fn tail_block_counts_once() {
        let o = obj(0x10_0000, 2 * 4096 + 100, 4096);
        let mut p = plan(true);
        p.request(&o, 0, 2 * 4096 + 100);
        let jobs = p.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].blocks, 3);
        assert_eq!(jobs[0].len, 2 * 4096 + 100);
    }
}
