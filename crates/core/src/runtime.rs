//! The runtime kernel of GMAC: owns the simulated platform and the software
//! MMU, and executes the transfer plans the coherence protocols build.
//!
//! Protocols do not move data imperatively. They declare the block ranges
//! that must move in a [`TransferPlan`]; [`Runtime::execute`] coalesces the
//! ranges into [`DmaJob`](crate::xfer::plan::DmaJob)s, schedules them onto the device's
//! per-direction DMA engine timelines (synchronously or asynchronously) and
//! accounts jobs, bytes and coalesced blocks in the platform's extended
//! `TransferLedger`. Outstanding asynchronous jobs are joined explicitly
//! through [`Runtime::join_dma`] at `adsmCall` boundaries.

use crate::config::GmacConfig;
use crate::error::{GmacError, GmacResult};
use crate::object::SharedObject;
use crate::state::BlockState;
use crate::xfer::{DmaEngine, DmaQueue, Purpose, TransferPlan};
use hetsim::{Category, CopyMode, DeviceId, Direction, Nanos, Platform, TimePoint};
use softmmu::{AddressSpace, VAddr};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Largest staging buffer a [`Runtime`] keeps between transfer plans; a plan
/// that grew it further gives the memory back when it is done.
const STAGING_KEEP: usize = 1 << 20;

/// Event counters exposed for tests and the figure harness.
///
/// Block counters count *protocol blocks*, not DMA jobs: a coalesced flush
/// of four adjacent dirty blocks bumps `blocks_flushed` by four while the
/// platform's `TransferLedger` records a single job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Protection faults resolved as reads.
    pub faults_read: u64,
    /// Protection faults resolved as writes.
    pub faults_write: u64,
    /// Blocks fetched device-to-host.
    pub blocks_fetched: u64,
    /// Blocks flushed host-to-device.
    pub blocks_flushed: u64,
    /// Bytes fetched device-to-host through transfer plans.
    pub bytes_fetched: u64,
    /// Bytes flushed host-to-device through transfer plans.
    pub bytes_flushed: u64,
    /// Rolling-update evictions issued as asynchronous (eager) DMA.
    pub eager_evictions: u64,
    /// Pointer→object resolutions that had to search the manager (B-tree or
    /// linear scan). Wall-clock bookkeeping only: the virtual-time cost of a
    /// fault-handler lookup is charged per fault regardless.
    pub obj_lookups: u64,
    /// Pointer→object resolutions served by the shard's one-entry memo
    /// (no search; zero with [`crate::GmacConfig::tlb`] off).
    pub obj_memo_hits: u64,
    /// Software-TLB translations served without a radix-table walk.
    pub tlb_hits: u64,
    /// Software-TLB translations that walked the radix table (zero with the
    /// TLB disabled).
    pub tlb_misses: u64,
    /// Wall-clock nanoseconds this runtime spent blocked on the background
    /// DMA engine (joins before kernel launches, device reads, fills and
    /// frees). Wall-clock bookkeeping only — virtual time charges the DMA
    /// wait through the engine timelines regardless; zero with
    /// [`crate::GmacConfig::async_dma`] off.
    pub dma_wait_ns: u64,
    /// Queued background DMA jobs that had already retired when their
    /// device was next joined — jobs whose execution genuinely overlapped
    /// CPU progress. Jobs the engine landed inline on the submitting thread
    /// (solitary evictions, see `xfer/engine.rs`) overlapped
    /// nothing and are not counted. Wall-clock bookkeeping only; zero with
    /// [`crate::GmacConfig::async_dma`] off.
    pub jobs_overlapped: u64,
    /// Resident objects evicted from device memory back to host under
    /// allocation pressure (see [`crate::GmacConfig::evict`]).
    pub evictions: u64,
    /// Total size of evicted objects (device bytes released to the
    /// first-fit allocator by eviction).
    pub evicted_bytes: u64,
    /// Evicted objects re-fetched into device memory by a later
    /// `adsmCall`/access.
    pub refetches: u64,
    /// Total size of re-fetched objects (device bytes re-claimed).
    pub refetch_bytes: u64,
    /// Eviction candidates spared — pinned by a pending accelerator call,
    /// or DMA-busy and not needed once quiescent victims freed enough.
    pub pin_saves: u64,
    /// Evicted host-side images spilled on to the disk tier under simulated
    /// host pressure (see [`crate::GmacConfig::host_capacity`]).
    pub disk_spills: u64,
}

impl Counters {
    /// Total protection faults.
    pub fn faults(&self) -> u64 {
        self.faults_read + self.faults_write
    }

    /// Adds another counter set into this one (the per-shard → runtime-wide
    /// aggregation). Destructures exhaustively so a new counter field cannot
    /// be forgotten here.
    pub fn merge(&mut self, other: &Counters) {
        let Counters {
            faults_read,
            faults_write,
            blocks_fetched,
            blocks_flushed,
            bytes_fetched,
            bytes_flushed,
            eager_evictions,
            obj_lookups,
            obj_memo_hits,
            tlb_hits,
            tlb_misses,
            dma_wait_ns,
            jobs_overlapped,
            evictions,
            evicted_bytes,
            refetches,
            refetch_bytes,
            pin_saves,
            disk_spills,
        } = *other;
        self.faults_read += faults_read;
        self.faults_write += faults_write;
        self.blocks_fetched += blocks_fetched;
        self.blocks_flushed += blocks_flushed;
        self.bytes_fetched += bytes_fetched;
        self.bytes_flushed += bytes_flushed;
        self.eager_evictions += eager_evictions;
        self.obj_lookups += obj_lookups;
        self.obj_memo_hits += obj_memo_hits;
        self.tlb_hits += tlb_hits;
        self.tlb_misses += tlb_misses;
        self.dma_wait_ns += dma_wait_ns;
        self.jobs_overlapped += jobs_overlapped;
        self.evictions += evictions;
        self.evicted_bytes += evicted_bytes;
        self.refetches += refetches;
        self.refetch_bytes += refetch_bytes;
        self.pin_saves += pin_saves;
        self.disk_spills += disk_spills;
    }
}

/// Platform + MMU + configuration bundle threaded through the runtime.
///
/// Since the sharded redesign there is one `Runtime` **per device shard**:
/// each owns its slice of the host address space (the regions of objects
/// homed on its device), its own event counters and DMA queue, and a shared
/// handle on the thread-safe [`Platform`]. Protocols keep driving it exactly
/// as before — the platform's interior locks make concurrent shards safe.
#[derive(Debug)]
pub(crate) struct Runtime {
    pub(crate) platform: Arc<Platform>,
    pub(crate) vm: AddressSpace,
    pub(crate) config: GmacConfig,
    pub(crate) counters: Counters,
    pub(crate) queue: DmaQueue,
    /// Background DMA execution engine, shared across shards. `None` in
    /// standalone harnesses (and with [`GmacConfig::async_dma`] off): jobs
    /// then execute inline at issue, exactly as before the engine existed.
    pub(crate) engine: Option<Arc<DmaEngine>>,
    /// Reusable staging bytes for host ranges that cannot be lent in place
    /// (the arena backend, or a range that is not one host span): fetches,
    /// inline host-to-device landings and interposed file I/O. Queued jobs
    /// own their snapshot.
    pub(crate) staging: Vec<u8>,
    /// True when [`GmacConfig::mmap_backing`] was requested but the host
    /// reservation failed and this runtime fell back to the table-walk
    /// backend. Reported (never fatal): behaviour is identical, only the
    /// zero-instrumentation hit path is lost.
    pub(crate) backing_downgraded: bool,
}

impl Runtime {
    /// Creates a runtime owning a fresh platform handle (standalone
    /// harnesses and tests); transfers execute inline.
    #[cfg(test)]
    pub(crate) fn new(platform: Platform, config: GmacConfig) -> Self {
        Self::from_shared(Arc::new(platform), config, None)
    }

    /// Creates a runtime over an already-shared platform (one per device
    /// shard), submitting host-to-device byte landings to `engine` when one
    /// is given.
    pub(crate) fn from_shared(
        platform: Arc<Platform>,
        config: GmacConfig,
        engine: Option<Arc<DmaEngine>>,
    ) -> Self {
        // The mmap backing is a wall-clock-only optimisation: when the host
        // reservation fails (non-Linux, exhausted address space, forced in
        // tests via a bogus reserve) the runtime degrades gracefully to the
        // table-walk backend and reports it, rather than panicking.
        let (mut vm, backing_downgraded) = if config.mmap_backing {
            match AddressSpace::new_mmap(config.mmap_reserve) {
                Ok(vm) => (vm, false),
                Err(_) => (AddressSpace::new(), true),
            }
        } else {
            (AddressSpace::new(), false)
        };
        // The ablation toggle disables every access-fast-path cache,
        // including the softmmu TLB.
        vm.set_tlb_enabled(config.tlb);
        Runtime {
            platform,
            vm,
            config,
            counters: Counters::default(),
            queue: DmaQueue::new(),
            engine,
            staging: Vec::new(),
            backing_downgraded,
        }
    }

    /// True when this runtime's address space is mmap-backed (the
    /// zero-instrumentation hit path is available).
    pub(crate) fn mmap_active(&self) -> bool {
        self.vm.is_mmap_backed()
    }

    /// True when mmap backing was requested but the runtime fell back to
    /// the table-walk backend (see [`crate::GmacConfig::mmap_backing`]).
    pub(crate) fn backing_downgraded(&self) -> bool {
        self.backing_downgraded
    }

    /// Event counters (TLB hit/miss totals are pulled from this runtime's
    /// address space at snapshot time).
    pub(crate) fn counters(&self) -> Counters {
        let mut c = self.counters;
        c.tlb_hits = self.vm.tlb_hits();
        c.tlb_misses = self.vm.tlb_misses();
        c
    }

    /// Active configuration.
    pub(crate) fn config(&self) -> &GmacConfig {
        &self.config
    }

    // ----- transfer planning ------------------------------------------------

    /// Starts an empty transfer plan honouring the configured coalescing
    /// toggle. `mode` only matters host-to-device; fetches are synchronous.
    pub(crate) fn plan(&self, dir: Direction, mode: CopyMode, purpose: Purpose) -> TransferPlan {
        TransferPlan::new(dir, mode, purpose, self.config.coalescing)
    }

    /// Executes every job of `plan` on the simulated platform.
    ///
    /// Host-to-device jobs read the bytes from system memory (raw access —
    /// the runtime is "kernel mode"), lent in place from the host view where
    /// it is one span, and issue DMA in the plan's copy mode. With the
    /// background engine the virtual timeline is reserved here — every
    /// clock and ledger charge happens at issue, keeping virtual time
    /// byte-identical to the inline mode — while the wall-clock byte landing
    /// goes to [`DmaEngine::submit`]: queued to the device's worker with an
    /// owned snapshot (the snapshot is what pins the job against later CPU
    /// writes), or, for a solitary eviction on an idle queue, landed right
    /// here. Asynchronous completions are remembered in the [`DmaQueue`] for
    /// the next [`Self::join_dma`]. Device-to-host jobs are synchronous and
    /// land the bytes straight in system memory, after draining any queued
    /// landings for the object so they never read a stale device range.
    /// Returns the completion time of the last job, if any ran.
    ///
    /// # Errors
    /// Propagates platform/MMU failures.
    pub(crate) fn execute(&mut self, plan: &TransferPlan) -> GmacResult<Option<TimePoint>> {
        let mut last_end = None;
        for job in plan.jobs() {
            let host = job.addr + job.offset;
            let end = match plan.dir() {
                Direction::HostToDevice => {
                    let dst = job.dev_addr.add(job.offset);
                    let queued =
                        self.engine.is_some() && !DmaEngine::inline_candidate(plan.purpose());
                    // Lent in place where the host view allows; `submit`
                    // snapshots a job it queues.
                    let bytes = match self.vm.raw_span(host, job.len) {
                        Some(span) => Cow::Borrowed(span),
                        None if queued => Cow::Owned(self.vm.gather(host, job.len)?),
                        None => {
                            self.staging.clear();
                            self.vm.read_raw_into(host, job.len, &mut self.staging)?;
                            Cow::Borrowed(&self.staging[..])
                        }
                    };
                    let end = if let Some(engine) = &self.engine {
                        let end = self
                            .platform
                            .reserve_h2d(job.dev, dst, job.len, plan.mode())?;
                        engine.submit(job.dev, job.addr, dst, plan.purpose(), bytes);
                        end
                    } else {
                        self.platform.copy_h2d(job.dev, dst, &bytes, plan.mode())?
                    };
                    self.counters.blocks_flushed += job.blocks;
                    self.counters.bytes_flushed += job.len;
                    if plan.mode() == CopyMode::Async {
                        self.queue.note(job.dev, end);
                        if plan.purpose() == Purpose::Eviction {
                            self.counters.eager_evictions += 1;
                        }
                    }
                    end
                }
                Direction::DeviceToHost => {
                    self.join_object(job.dev, job.addr)?;
                    let src = job.dev_addr.add(job.offset);
                    let end = if let Some(span) = self.vm.raw_span_mut(host, job.len) {
                        self.platform.copy_d2h(job.dev, src, span, CopyMode::Sync)?
                    } else {
                        // `resize` keeps the buffer's capacity; the copy
                        // overwrites every byte of it.
                        self.staging.resize(job.len as usize, 0);
                        let end = self.platform.copy_d2h(
                            job.dev,
                            src,
                            &mut self.staging,
                            CopyMode::Sync,
                        )?;
                        self.vm.write_raw(host, &self.staging)?;
                        end
                    };
                    self.counters.blocks_fetched += job.blocks;
                    self.counters.bytes_fetched += job.len;
                    end
                }
            };
            self.platform
                .transfers_mut()
                .note_blocks(plan.dir(), job.blocks);
            last_end = Some(last_end.map_or(end, |t: TimePoint| t.max(end)));
        }
        if self.staging.capacity() > STAGING_KEEP {
            self.staging = Vec::new();
        }
        Ok(last_end)
    }

    /// Host bytes of `[addr, addr+len)` for a transfer to read: lent in
    /// place from the runtime view where the range is one host span, else
    /// staged in `staging` (the arena backend's path).
    ///
    /// # Errors
    /// [`softmmu::MmuError::Unmapped`] for holes.
    pub(crate) fn host_bytes<'a>(
        vm: &'a AddressSpace,
        staging: &'a mut Vec<u8>,
        addr: VAddr,
        len: u64,
    ) -> softmmu::MmuResult<&'a [u8]> {
        if let Some(span) = vm.raw_span(addr, len) {
            return Ok(span);
        }
        staging.clear();
        vm.read_raw_into(addr, len, staging)?;
        Ok(staging)
    }

    /// Joins all outstanding host-to-device DMA on `dev` — the explicit join
    /// point at `adsmCall`. Two waits happen here:
    ///
    /// * **virtual**: if asynchronous jobs were issued since the last join,
    ///   the host blocks until the device's H2D engine timeline drains,
    ///   charging the waited virtual time to `Copy` (unchanged semantics);
    /// * **wall-clock**: with the background engine enabled, genuinely waits
    ///   until every queued byte landing for `dev` has committed to device
    ///   memory, accounting the blocked time in [`Counters::dma_wait_ns`]
    ///   and the jobs that had already retired in
    ///   [`Counters::jobs_overlapped`].
    ///
    /// Since the engine refactor this is therefore a *real* join, not pure
    /// bookkeeping: after it returns, the device holds every flushed byte.
    /// A no-op when nothing is outstanding.
    ///
    /// # Errors
    /// Fails for unknown devices; surfaces worker-side platform failures.
    pub(crate) fn join_dma(&mut self, dev: DeviceId) -> GmacResult<()> {
        if self.queue.take(dev).is_some() {
            self.platform.join_dma(dev, Direction::HostToDevice)?;
        }
        if let Some(engine) = &self.engine {
            let t0 = Instant::now();
            let overlapped = engine.wait_device(dev)?;
            self.counters.dma_wait_ns += t0.elapsed().as_nanos() as u64;
            self.counters.jobs_overlapped += overlapped;
        }
        Ok(())
    }

    /// Wall-clock join of the background engine for one object: blocks until
    /// every queued byte landing owned by the object starting at `addr` on
    /// `dev` has committed. Charges nothing virtual — the object's timeline
    /// was reserved at issue. Used before device-memory reads, fills and
    /// frees; a no-op without the engine, and it reads no clock when nothing
    /// of the object is in flight (the per-fault case once small evictions
    /// land inline).
    ///
    /// # Errors
    /// Surfaces worker-side platform failures.
    pub(crate) fn join_object(&mut self, dev: DeviceId, addr: VAddr) -> GmacResult<()> {
        if let Some(engine) = &self.engine {
            self.counters.dma_wait_ns += engine.wait_object(dev, addr)?;
        }
        Ok(())
    }

    /// True when the background engine still holds queued or executing byte
    /// landings for the object starting at `addr` on `dev` — the eviction
    /// path's pin probe: such an object's device range must not be handed
    /// back to the allocator. `false` without the engine (inline jobs
    /// complete at issue).
    pub(crate) fn object_dma_busy(&self, dev: DeviceId, addr: VAddr) -> bool {
        self.engine
            .as_ref()
            .is_some_and(|engine| engine.object_busy(dev, addr))
    }

    // ----- protocol primitives ----------------------------------------------

    /// Sets the page protection of block `idx` of `obj` to match `state`.
    ///
    /// # Errors
    /// Propagates MMU failures.
    pub(crate) fn protect_block(
        &mut self,
        obj: &SharedObject,
        idx: usize,
        state: BlockState,
    ) -> GmacResult<()> {
        let block = obj.block(idx);
        self.vm
            .protect(obj.addr() + block.offset, block.len, state.protection())?;
        Ok(())
    }

    /// Sets the protection of the whole object to match `state`.
    ///
    /// # Errors
    /// Propagates MMU failures.
    pub(crate) fn protect_object(
        &mut self,
        obj: &SharedObject,
        state: BlockState,
    ) -> GmacResult<()> {
        self.vm
            .protect(obj.addr(), obj.size(), state.protection())?;
        Ok(())
    }

    /// Sets the protection of `[lo, hi)` of `obj` to match `state` — the
    /// run-length companion to [`Self::protect_block`]: one `mprotect` (and
    /// one TLB generation bump) per contiguous equal-state run instead of
    /// one per block. `lo` must be block-aligned (runs always are).
    ///
    /// # Errors
    /// Propagates MMU failures.
    pub(crate) fn protect_range(
        &mut self,
        obj: &SharedObject,
        lo: u64,
        hi: u64,
        state: BlockState,
    ) -> GmacResult<()> {
        if lo < hi {
            self.vm
                .protect(obj.addr() + lo, hi - lo, state.protection())?;
        }
        Ok(())
    }

    /// Device-side fill of an object range (`cudaMemset` path of the §4.4
    /// bulk-memory interposition).
    ///
    /// # Errors
    /// Propagates platform failures.
    pub(crate) fn dev_fill(
        &mut self,
        obj: &SharedObject,
        offset: u64,
        len: u64,
        value: u8,
    ) -> GmacResult<()> {
        // A queued flush of this object must land before the fill, or the
        // stale bytes would overwrite it (virtual time already orders the
        // two through the engine timelines).
        self.join_object(obj.device(), obj.addr())?;
        self.platform
            .dev_memset(obj.device(), obj.dev_addr().add(offset), value, len)?;
        Ok(())
    }

    /// Charges the cost of one protection-fault delivery plus the
    /// block-lookup walk of `steps` nodes (paper §5.2), and counts it.
    pub(crate) fn charge_signal(&mut self, steps: u64, write: bool) {
        let per_node = match self.config.lookup {
            crate::config::LookupKind::Tree => self.config.costs.lookup_tree_node,
            crate::config::LookupKind::Linear => self.config.costs.lookup_linear_entry,
        };
        let cost = self.platform.cpu().signal_cost + per_node * steps;
        self.platform.spend(Category::Signal, cost);
        if write {
            self.counters.faults_write += 1;
        } else {
            self.counters.faults_read += 1;
        }
    }

    /// Charges GMAC bookkeeping time to a ledger category.
    pub(crate) fn charge(&mut self, cat: Category, dur: Nanos) {
        self.platform.spend(cat, dur);
    }

    /// Validates that `[offset, offset+len)` lies inside `obj`.
    ///
    /// # Errors
    /// [`GmacError::OutOfObjectBounds`] when the range spills past the end.
    pub(crate) fn check_bounds(obj: &SharedObject, offset: u64, len: u64) -> GmacResult<()> {
        if offset
            .checked_add(len)
            .map(|end| end <= obj.size())
            .unwrap_or(false)
        {
            Ok(())
        } else {
            Err(GmacError::OutOfObjectBounds {
                base: obj.addr(),
                offset,
                len,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GmacConfig, LookupKind};
    use crate::object::ObjectId;
    use hetsim::DeviceId;
    use softmmu::Protection;

    fn setup(size: u64, block: u64) -> (Runtime, SharedObject) {
        setup_with(size, block, GmacConfig::default())
    }

    fn setup_with(size: u64, block: u64, config: GmacConfig) -> (Runtime, SharedObject) {
        let platform = Platform::desktop_g280();
        let mut rt = Runtime::new(platform, config);
        let dev_addr = rt.platform.dev_alloc(DeviceId(0), size).unwrap();
        let addr = VAddr(dev_addr.0);
        let region = rt.vm.map_fixed(addr, size, Protection::ReadWrite).unwrap();
        let obj = SharedObject::new(
            ObjectId(1),
            addr,
            size,
            DeviceId(0),
            dev_addr,
            region,
            block,
            BlockState::ReadOnly,
        );
        (rt, obj)
    }

    fn flush(rt: &mut Runtime, obj: &SharedObject, offset: u64, len: u64, mode: CopyMode) {
        let mut plan = rt.plan(Direction::HostToDevice, mode, Purpose::Release);
        plan.request(obj, offset, len);
        rt.execute(&plan).unwrap();
    }

    fn fetch(rt: &mut Runtime, obj: &SharedObject, offset: u64, len: u64) {
        let mut plan = rt.plan(Direction::DeviceToHost, CopyMode::Sync, Purpose::Fetch);
        plan.request(obj, offset, len);
        rt.execute(&plan).unwrap();
    }

    #[test]
    fn flush_and_fetch_roundtrip() {
        let (mut rt, obj) = setup(8192, 4096);
        rt.vm.write_raw(obj.addr(), &[42u8; 8192]).unwrap();
        flush(&mut rt, &obj, 0, 8192, CopyMode::Sync);
        // Clobber host, fetch back.
        rt.vm.write_raw(obj.addr(), &[0u8; 8192]).unwrap();
        fetch(&mut rt, &obj, 0, 8192);
        assert_eq!(rt.vm.gather(obj.addr(), 8192).unwrap(), vec![42u8; 8192]);
        // Block counters count blocks (two 4 KiB blocks each way), and the
        // coalesced range was one DMA job per direction.
        assert_eq!(rt.counters().blocks_flushed, 2);
        assert_eq!(rt.counters().blocks_fetched, 2);
        assert_eq!(rt.counters().bytes_flushed, 8192);
        assert_eq!(rt.counters().bytes_fetched, 8192);
        assert_eq!(rt.platform.transfers().h2d_count, 1);
        assert_eq!(rt.platform.transfers().d2h_count, 1);
        assert_eq!(rt.platform.transfers().h2d_blocks, 2);
    }

    #[test]
    fn partial_range_transfers() {
        let (mut rt, obj) = setup(8192, 4096);
        rt.vm.write_raw(obj.addr() + 4096, &[7u8; 4096]).unwrap();
        flush(&mut rt, &obj, 4096, 4096, CopyMode::Sync);
        let dev = rt.platform.device(DeviceId(0)).unwrap();
        let on_dev = dev
            .mem()
            .slice(obj.dev_addr().add(4096), 4096)
            .unwrap()
            .to_vec();
        assert_eq!(on_dev, vec![7u8; 4096]);
        // First half untouched on device.
        let first = dev.mem().slice(obj.dev_addr(), 4096).unwrap().to_vec();
        assert_eq!(first, vec![0u8; 4096]);
    }

    #[test]
    fn plan_coalesces_adjacent_blocks_into_one_job() {
        let (mut rt, obj) = setup(4 * 4096, 4096);
        let mut plan = rt.plan(Direction::HostToDevice, CopyMode::Sync, Purpose::Release);
        for idx in 0..4 {
            plan.request_block(&obj, idx);
        }
        rt.execute(&plan).unwrap();
        assert_eq!(rt.platform.transfers().h2d_count, 1, "one coalesced job");
        assert_eq!(rt.counters().blocks_flushed, 4);
        assert_eq!(rt.platform.transfers().h2d_bytes, 4 * 4096);
    }

    #[test]
    fn coalescing_disabled_issues_one_job_per_block() {
        let (mut rt, obj) = setup_with(4 * 4096, 4096, GmacConfig::default().coalescing(false));
        let mut plan = rt.plan(Direction::HostToDevice, CopyMode::Sync, Purpose::Release);
        for idx in 0..4 {
            plan.request_block(&obj, idx);
        }
        rt.execute(&plan).unwrap();
        assert_eq!(rt.platform.transfers().h2d_count, 4, "ablation baseline");
        assert_eq!(rt.counters().blocks_flushed, 4);
    }

    #[test]
    fn coalescing_saves_per_job_latency() {
        let run = |coalescing: bool| {
            let (mut rt, obj) =
                setup_with(8 * 4096, 4096, GmacConfig::default().coalescing(coalescing));
            let mut plan = rt.plan(Direction::HostToDevice, CopyMode::Sync, Purpose::Release);
            for idx in 0..8 {
                plan.request_block(&obj, idx);
            }
            rt.execute(&plan).unwrap();
            rt.platform.elapsed()
        };
        assert!(
            run(true) < run(false),
            "merged jobs pay the link latency once"
        );
    }

    #[test]
    fn protect_block_changes_page_permissions() {
        let (mut rt, obj) = setup(8192, 4096);
        rt.protect_block(&obj, 1, BlockState::Invalid).unwrap();
        assert_eq!(
            rt.vm.protection_at(obj.addr() + 4096),
            Some(Protection::None)
        );
        assert_eq!(rt.vm.protection_at(obj.addr()), Some(Protection::ReadWrite));
        rt.protect_object(&obj, BlockState::ReadOnly).unwrap();
        assert_eq!(rt.vm.protection_at(obj.addr()), Some(Protection::ReadOnly));
    }

    #[test]
    fn charge_signal_accounting() {
        let (mut rt, _obj) = setup(4096, 4096);
        let before = rt.platform.ledger().get(Category::Signal);
        rt.charge_signal(10, true);
        rt.charge_signal(10, false);
        assert!(rt.platform.ledger().get(Category::Signal) > before);
        assert_eq!(rt.counters().faults_write, 1);
        assert_eq!(rt.counters().faults_read, 1);
        assert_eq!(rt.counters().faults(), 2);
    }

    #[test]
    fn linear_lookup_charges_more_for_many_blocks() {
        let platform = Platform::desktop_g280();
        let mut rt_tree = Runtime::new(platform, GmacConfig::default());
        let platform = Platform::desktop_g280();
        let mut rt_lin = Runtime::new(platform, GmacConfig::default().lookup(LookupKind::Linear));
        rt_tree.charge_signal(14, true); // ~16k blocks in a tree
        rt_lin.charge_signal(8192, true); // same population, half-scan
        assert!(
            rt_lin.platform.ledger().get(Category::Signal)
                > rt_tree.platform.ledger().get(Category::Signal)
        );
    }

    #[test]
    fn bounds_check() {
        let (_rt, obj) = setup(8192, 4096);
        assert!(Runtime::check_bounds(&obj, 0, 8192).is_ok());
        assert!(Runtime::check_bounds(&obj, 8191, 1).is_ok());
        assert!(matches!(
            Runtime::check_bounds(&obj, 8191, 2),
            Err(GmacError::OutOfObjectBounds { .. })
        ));
        assert!(Runtime::check_bounds(&obj, u64::MAX, 2).is_err());
    }

    #[test]
    fn join_dma_waits_for_async_jobs() {
        let (mut rt, obj) = setup(8192, 4096);
        let mut plan = rt.plan(Direction::HostToDevice, CopyMode::Async, Purpose::Eviction);
        plan.request(&obj, 0, 4096);
        let end = rt.execute(&plan).unwrap().expect("one job ran");
        assert!(rt.platform.now() < end, "async job does not block the host");
        assert!(!rt.queue.is_idle(obj.device()));
        rt.join_dma(obj.device()).unwrap();
        assert!(rt.platform.now() >= end);
        assert!(rt.queue.is_idle(obj.device()));
        assert_eq!(rt.counters().eager_evictions, 1);
    }

    #[test]
    fn join_dma_without_pending_work_is_free() {
        let (mut rt, obj) = setup(4096, 4096);
        let t0 = rt.platform.now();
        rt.join_dma(obj.device()).unwrap();
        assert_eq!(rt.platform.now(), t0);
    }

    #[test]
    fn release_purpose_async_jobs_are_not_eager_evictions() {
        let (mut rt, obj) = setup(8192, 4096);
        let mut plan = rt.plan(Direction::HostToDevice, CopyMode::Async, Purpose::Release);
        plan.request(&obj, 0, 8192);
        rt.execute(&plan).unwrap();
        assert_eq!(rt.counters().eager_evictions, 0);
        assert_eq!(rt.counters().blocks_flushed, 2);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let (mut rt, _obj) = setup(4096, 4096);
        let plan = rt.plan(Direction::HostToDevice, CopyMode::Sync, Purpose::Release);
        assert_eq!(rt.execute(&plan).unwrap(), None);
        assert_eq!(rt.platform.transfers().total_jobs(), 0);
    }
}
