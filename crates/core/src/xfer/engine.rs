//! The background DMA execution engine: per-device worker threads that land
//! queued host-to-device bytes in device memory *after* the issuing shard
//! lock has been released.
//!
//! The split mirrors the paper's §5.3 rolling-update premise — dirty blocks
//! stream to the accelerator *while* the CPU keeps producing. Virtual time
//! models that overlap (DMA engine timelines are reserved at issue); the
//! engine decides where the wall-clock copy runs:
//!
//! ```text
//!  protocol release/evict/memset flush (shard lock held)
//!      │ plan + Platform::reserve_h2d  — all virtual charges
//!      ▼
//!  DmaEngine::submit ───── Purpose::Eviction and queue idle? ──────────────┐
//!      │ no (Release, MemsetFlush, or                                   yes │
//!      │ a busy queue): owned snapshot                                      │
//!      ▼                                                                    ▼
//!  per-device FIFO queue (engine mutex, leaf tier)     land() on the submitting
//!      │ worker thread pops, holding NO shard lock     thread, under the queue
//!      ▼                                               mutex, straight from the
//!  land(): Platform::commit_h2d — device mutex only ◄─ borrowed host view ─┘
//!      │
//!      ▼
//!  completion accounting (tickets, per-object counts, first-error slot)
//! ```
//!
//! **The inline branch.** A hand-off to the worker costs a snapshot copy, a
//! mutex + condvar wake-up and, when the submitter next reads the object, a
//! context switch to wait for the worker. A rolling-update eager eviction is
//! a solitary per-fault job, so it lands where it was submitted, at any
//! size, whenever the device's queue is idle (`completed == submitted`):
//! per-device FIFO order is untouched, and an eviction can never overtake
//! an older queued landing of the same range. Batched [`Purpose::Release`]
//! and [`Purpose::MemsetFlush`] jobs always queue with their snapshot. Both
//! branches go through the one `land` helper — same `commit_h2d` (with its
//! `CommitH2d` failpoint), same completion accounting, same first-error
//! slot. Queueing evictions measured slower with one CPU and with two (the
//! `overlap` binary; numbers in the README), so no size or CPU-count
//! selector exists.
//!
//! Because [`hetsim::Platform::reserve_h2d`] performs every clock and ledger
//! charge at submission, a run with the engine enabled is byte-identical in
//! digests, virtual times and fault counts to the inline ablation baseline
//! ([`crate::GmacConfig::async_dma`] = `false`); only wall-clock overlap
//! differs.
//!
//! **Lock tier:** the engine's queue mutexes sit *below* the shard mutexes
//! and *above* nothing — workers take only a queue mutex and then platform
//! leaf locks (one device mutex). Submitting or joining under a shard lock
//! is therefore safe, and a worker can never deadlock against a shard.

use crate::error::GmacResult;
use crate::xfer::Purpose;
use hetsim::{DevAddr, DeviceId, Platform, SimError};
use softmmu::VAddr;
use std::borrow::Cow;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One queued byte landing: the staging buffer gathered under the shard lock
/// plus its destination. The engine owns the staging bytes outright, so a
/// concurrent `free`/`realloc` of the source object can never invalidate a
/// job mid-flight — joins only gate the *device* range.
#[derive(Debug)]
struct WorkItem {
    /// Start address of the owning shared object (completion-table key).
    obj: VAddr,
    /// Destination in device memory.
    dst: DevAddr,
    /// Snapshot of the host bytes at issue time.
    bytes: Vec<u8>,
}

/// Mutable queue state of one device, behind the engine-tier mutex.
#[derive(Debug, Default)]
struct DeviceQueue {
    jobs: VecDeque<WorkItem>,
    /// Tickets issued (monotonic job count, queued and inline).
    submitted: u64,
    /// Tickets retired, in FIFO order (single worker per device; an inline
    /// landing only happens with nothing ahead of it).
    completed: u64,
    /// `completed` as of the last device-wide join, advanced by every inline
    /// landing since; the queued jobs retired past it finished while the
    /// CPU made progress — the structural overlap count.
    overlap_mark: u64,
    /// Jobs currently queued or executing, per owning object.
    inflight_per_object: HashMap<VAddr, u64>,
    /// Deepest the queue has ever been (jobs waiting + executing; inline
    /// landings never wait and are not counted).
    depth_high_water: u64,
    /// First failed landing (worker or inline), surfaced at the next join.
    error: Option<SimError>,
    shutdown: bool,
}

#[derive(Debug)]
struct DeviceState {
    queue: Mutex<DeviceQueue>,
    cv: Condvar,
}

/// Engine statistics for [`crate::Report`] (wall-clock bookkeeping only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EngineStats {
    /// Jobs handed to the engine since creation (queued and inline).
    pub submitted: u64,
    /// Jobs whose bytes have landed in device memory.
    pub completed: u64,
    /// Deepest any per-device queue has been. Counts queued jobs only: a job
    /// landed inline by its submitter never sat in a queue.
    pub depth_high_water: u64,
}

impl EngineStats {
    /// Jobs queued or executing right now.
    pub(crate) fn in_flight(&self) -> u64 {
        self.submitted - self.completed
    }
}

/// Per-device background workers draining queued DMA byte landings.
///
/// One engine is shared by every shard of a [`crate::Gmac`] runtime; each
/// device has its own FIFO queue and worker thread, so landings for
/// different accelerators proceed concurrently and landings for one device
/// retire in submission order (a later flush of the same range can never be
/// overtaken by an earlier one). Solitary eviction jobs skip the worker
/// when the queue is idle (see the module docs).
#[derive(Debug)]
pub(crate) struct DmaEngine {
    platform: Arc<Platform>,
    devices: Arc<Vec<DeviceState>>,
    workers: Vec<JoinHandle<()>>,
}

impl DmaEngine {
    /// Spawns one worker per platform device.
    pub(crate) fn new(platform: Arc<Platform>) -> Self {
        let devices: Arc<Vec<DeviceState>> = Arc::new(
            (0..platform.device_count())
                .map(|_| DeviceState {
                    queue: Mutex::new(DeviceQueue::default()),
                    cv: Condvar::new(),
                })
                .collect(),
        );
        let workers = (0..platform.device_count())
            .map(|i| {
                let devices = Arc::clone(&devices);
                let platform = Arc::clone(&platform);
                std::thread::Builder::new()
                    .name(format!("gmac-dma-{i}"))
                    .spawn(move || worker_loop(&platform, DeviceId(i), &devices[i]))
                    .expect("spawn DMA worker")
            })
            .collect();
        DmaEngine {
            platform,
            devices,
            workers,
        }
    }

    fn state(&self, dev: DeviceId) -> &DeviceState {
        &self.devices[dev.0]
    }

    /// The static half of the inline test: a solitary eviction job, of any
    /// size. The caller lends such a job's bytes in place instead of taking
    /// an owned snapshot; whether it really lands inline is decided in
    /// [`Self::submit`], which also needs the queue idle.
    pub(crate) fn inline_candidate(purpose: Purpose) -> bool {
        purpose == Purpose::Eviction
    }

    /// Hands a byte landing for `dev` to the engine. The caller has already
    /// reserved the virtual DMA timeline ([`hetsim::Platform::reserve_h2d`]).
    ///
    /// An [`Self::inline_candidate`] job submitted to an idle queue lands
    /// here, on the calling thread, under the queue mutex, from `bytes` as
    /// lent; everything else is queued for the worker with an owned
    /// snapshot of `bytes` (the snapshot is what pins a queued job against
    /// later CPU writes).
    pub(crate) fn submit(
        &self,
        dev: DeviceId,
        obj: VAddr,
        dst: DevAddr,
        purpose: Purpose,
        bytes: Cow<'_, [u8]>,
    ) {
        let state = self.state(dev);
        let mut q = lock_ok(&state.queue);
        let idle = q.completed == q.submitted;
        q.submitted += 1;
        if idle && Self::inline_candidate(purpose) {
            land(&self.platform, dev, state, Some(q), obj, dst, &bytes);
            return;
        }
        let bytes = bytes.into_owned();
        q.jobs.push_back(WorkItem { obj, dst, bytes });
        *q.inflight_per_object.entry(obj).or_insert(0) += 1;
        let depth = q.submitted - q.completed;
        q.depth_high_water = q.depth_high_water.max(depth);
        state.cv.notify_all();
    }

    /// Blocks (wall-clock) until every job submitted to `dev` has landed.
    /// Returns the number of queued jobs that had already retired since the
    /// last device join — jobs whose execution overlapped CPU progress
    /// (inline landings overlapped nothing and are not counted).
    ///
    /// # Errors
    /// Surfaces the first failed landing (worker or inline), if any.
    pub(crate) fn wait_device(&self, dev: DeviceId) -> GmacResult<u64> {
        let state = self.state(dev);
        let mut q = lock_ok(&state.queue);
        let overlapped = q.completed.saturating_sub(q.overlap_mark);
        while q.completed < q.submitted {
            q = state
                .cv
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        q.overlap_mark = q.completed;
        if let Some(e) = q.error.take() {
            return Err(e.into());
        }
        Ok(overlapped)
    }

    /// Blocks (wall-clock) until every job owned by the object starting at
    /// `obj` on `dev` has landed. Used before device-memory reads, fills and
    /// frees of that object; unrelated objects keep streaming. Returns the
    /// nanoseconds spent blocked — zero, without reading the clock, when
    /// nothing of the object was in flight.
    ///
    /// # Errors
    /// Surfaces the first failed landing (worker or inline), if any.
    pub(crate) fn wait_object(&self, dev: DeviceId, obj: VAddr) -> GmacResult<u64> {
        let state = self.state(dev);
        let mut q = lock_ok(&state.queue);
        let mut blocked_since = None;
        while q.inflight_per_object.contains_key(&obj) {
            blocked_since.get_or_insert_with(Instant::now);
            q = state
                .cv
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if let Some(e) = q.error.take() {
            return Err(e.into());
        }
        Ok(blocked_since.map_or(0, |t| t.elapsed().as_nanos() as u64))
    }

    /// True when the object starting at `obj` has jobs queued or executing
    /// on `dev`. The eviction path treats such objects as pinned: their
    /// device range must not be returned to the allocator while a staged
    /// byte landing still targets it.
    pub(crate) fn object_busy(&self, dev: DeviceId, obj: VAddr) -> bool {
        lock_ok(&self.state(dev).queue)
            .inflight_per_object
            .contains_key(&obj)
    }

    /// Aggregate statistics across all devices.
    pub(crate) fn stats(&self) -> EngineStats {
        let mut s = EngineStats::default();
        for state in self.devices.iter() {
            let q = lock_ok(&state.queue);
            s.submitted += q.submitted;
            s.completed += q.completed;
            s.depth_high_water = s.depth_high_water.max(q.depth_high_water);
        }
        s
    }
}

impl Drop for DmaEngine {
    /// Shuts down cleanly: workers drain whatever is queued, then exit.
    /// Dropping a `Gmac` with a non-empty queue therefore never deadlocks
    /// and never abandons a staged byte landing.
    fn drop(&mut self) {
        for state in self.devices.iter() {
            lock_ok(&state.queue).shutdown = true;
            state.cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(platform: &Platform, dev: DeviceId, state: &DeviceState) {
    loop {
        let item = {
            let mut q = lock_ok(&state.queue);
            loop {
                if let Some(item) = q.jobs.pop_front() {
                    break item;
                }
                if q.shutdown {
                    return;
                }
                q = state
                    .cv
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // The whole point of the queue: a queued DmaJob executes with no
        // shard mutex held (only the deliberate inline branch of `submit`
        // lands under one). Structural on a dedicated worker thread; assert
        // it so a refactor routing queued execution through a borrowed
        // caller thread trips immediately.
        debug_assert_eq!(
            crate::shard::shard_locks_held(),
            0,
            "DMA worker must not hold a shard lock while executing a job"
        );
        land(platform, dev, state, None, item.obj, item.dst, &item.bytes);
    }
}

/// Lands one job's bytes in device memory and retires its ticket: the one
/// commit and completion-accounting path. The worker passes `held: None` and
/// copies with the queue mutex released; the inline submitter passes the
/// guard it took for its idle check and keeps it across the copy, so nothing
/// can be queued behind a landing that is still in progress.
fn land<'a>(
    platform: &Platform,
    dev: DeviceId,
    state: &'a DeviceState,
    held: Option<MutexGuard<'a, DeviceQueue>>,
    obj: VAddr,
    dst: DevAddr,
    bytes: &[u8],
) {
    let queued = held.is_none();
    let result = platform.commit_h2d(dev, dst, bytes);
    let mut q = held.unwrap_or_else(|| lock_ok(&state.queue));
    q.completed += 1;
    if let Err(e) = result {
        q.error.get_or_insert(e);
    }
    if queued {
        if let Some(n) = q.inflight_per_object.get_mut(&obj) {
            *n -= 1;
            if *n == 0 {
                q.inflight_per_object.remove(&obj);
            }
        }
        state.cv.notify_all();
    } else {
        // Never queued, so nobody waits on it and it overlapped nothing.
        q.overlap_mark += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::CopyMode;

    const DEV: DeviceId = DeviceId(0);

    const OBJ: VAddr = VAddr(0x1000);

    fn platform() -> Arc<Platform> {
        Arc::new(Platform::desktop_g280())
    }

    /// Queues a release-purpose job (never inline, whatever its size).
    fn submit(engine: &DmaEngine, dst: DevAddr, bytes: Vec<u8>) {
        engine.submit(DEV, OBJ, dst, Purpose::Release, Cow::Owned(bytes));
    }

    fn evict(engine: &DmaEngine, dst: DevAddr, bytes: &[u8]) {
        engine.submit(DEV, OBJ, dst, Purpose::Eviction, Cow::Borrowed(bytes));
    }

    #[test]
    fn submitted_bytes_land_on_the_device() {
        let p = platform();
        let a = p.dev_alloc(DEV, 8192).unwrap();
        let engine = DmaEngine::new(Arc::clone(&p));
        p.reserve_h2d(DEV, a, 8192, CopyMode::Sync).unwrap();
        submit(&engine, a, vec![5u8; 8192]);
        engine.wait_device(DEV).unwrap();
        let dev = p.device(DEV).unwrap();
        assert_eq!(dev.mem().slice(a, 8192).unwrap(), &[5u8; 8192][..]);
        let s = engine.stats();
        assert_eq!((s.submitted, s.completed, s.in_flight()), (1, 1, 0));
        assert!(s.depth_high_water >= 1);
    }

    #[test]
    fn fifo_order_within_a_device() {
        // A later landing of the same range must win.
        let p = platform();
        let a = p.dev_alloc(DEV, 4096).unwrap();
        let engine = DmaEngine::new(Arc::clone(&p));
        for v in 1..=32u8 {
            submit(&engine, a, vec![v; 4096]);
        }
        engine.wait_device(DEV).unwrap();
        let dev = p.device(DEV).unwrap();
        assert_eq!(dev.mem().slice(a, 4096).unwrap(), &[32u8; 4096][..]);
    }

    #[test]
    fn wait_object_gates_only_that_object() {
        let p = platform();
        let a = p.dev_alloc(DEV, 4096).unwrap();
        let engine = DmaEngine::new(Arc::clone(&p));
        submit(&engine, a, vec![1u8; 4096]);
        engine.wait_object(DEV, OBJ).unwrap();
        // Never-submitted objects are trivially complete.
        engine.wait_object(DEV, VAddr(0x9000)).unwrap();
        engine.wait_device(DEV).unwrap();
    }

    #[test]
    fn overlap_counts_jobs_retired_between_joins() {
        let p = platform();
        let a = p.dev_alloc(DEV, 4096).unwrap();
        let engine = DmaEngine::new(Arc::clone(&p));
        submit(&engine, a, vec![1u8; 4096]);
        // Give the worker a chance to retire the job before the join; the
        // count is `>= 0` either way, and a second join with no new work
        // reports zero.
        engine.wait_device(DEV).unwrap();
        assert_eq!(engine.wait_device(DEV).unwrap(), 0);
        let q = lock_ok(&engine.state(DEV).queue);
        assert_eq!(q.completed, q.submitted, "nothing queued or executing");
    }

    #[test]
    fn drop_with_queued_jobs_drains_and_joins() {
        let p = platform();
        let a = p.dev_alloc(DEV, 4096).unwrap();
        let engine = DmaEngine::new(Arc::clone(&p));
        for v in 0..16u8 {
            submit(&engine, a, vec![v; 4096]);
        }
        drop(engine); // must not deadlock; drains the queue
        let dev = p.device(DEV).unwrap();
        assert_eq!(dev.mem().slice(a, 4096).unwrap(), &[15u8; 4096][..]);
    }

    #[test]
    fn worker_errors_surface_at_the_next_join() {
        let p = platform();
        let engine = DmaEngine::new(Arc::clone(&p));
        // Off-window destination: reserve_h2d would normally reject this at
        // issue; simulate a worker-side failure by submitting it directly.
        let cap = p.device(DEV).unwrap().mem().capacity();
        let base = p.device(DEV).unwrap().mem().base();
        submit(&engine, base.add(cap), vec![0u8; 64]);
        assert!(engine.wait_device(DEV).is_err());
        // The error is consumed; the engine keeps working afterwards.
        let a = p.dev_alloc(DEV, 64).unwrap();
        submit(&engine, a, vec![3u8; 64]);
        engine.wait_device(DEV).unwrap();
    }

    #[test]
    fn small_eviction_on_an_idle_queue_lands_inline() {
        const LEN: u64 = 32 * 1024;
        let p = platform();
        let a = p.dev_alloc(DEV, LEN).unwrap();
        let engine = DmaEngine::new(Arc::clone(&p));
        evict(&engine, a, &vec![7u8; LEN as usize]);
        // Landed before `submit` returned: nothing in flight, nothing to
        // wait for (zero blocked time means the clock was never read), the
        // queue was never used and nothing overlapped.
        let s = engine.stats();
        assert_eq!((s.submitted, s.completed, s.in_flight()), (1, 1, 0));
        assert_eq!(s.depth_high_water, 0, "inline landings are not queued");
        assert!(!engine.object_busy(DEV, OBJ));
        let dev = p.device(DEV).unwrap();
        assert!(dev.mem().slice(a, LEN).unwrap().iter().all(|&b| b == 7));
        drop(dev);
        assert_eq!(engine.wait_object(DEV, OBJ).unwrap(), 0);
        assert_eq!(engine.wait_device(DEV).unwrap(), 0, "no overlap counted");
    }

    #[test]
    fn release_jobs_queue_and_large_evictions_land_inline() {
        // `bulk_copy`'s block size.
        const LARGE: usize = 256 * 1024;
        let p = platform();
        let a = p.dev_alloc(DEV, LARGE as u64).unwrap();
        let engine = DmaEngine::new(Arc::clone(&p));
        submit(&engine, a, vec![1u8; 4096]);
        engine.wait_device(DEV).unwrap();
        assert_eq!(engine.stats().depth_high_water, 1, "the release queued");
        evict(&engine, a, &vec![2u8; LARGE]);
        let s = engine.stats();
        assert_eq!((s.in_flight(), s.depth_high_water), (0, 1), "landed inline");
        let dev = p.device(DEV).unwrap();
        assert!(dev
            .mem()
            .slice(a, LARGE as u64)
            .unwrap()
            .iter()
            .all(|&b| b == 2));
    }

    #[test]
    fn small_eviction_behind_a_queued_job_is_queued_and_lands_last() {
        // The held device guard keeps the worker from landing the first job,
        // so the queue is provably busy when the small eviction of the same
        // range arrives: it must take the queue (inlining it would let the
        // older landing overwrite it — and would self-deadlock on the guard
        // here, hence the watchdog).
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let p = platform();
            let a = p.dev_alloc(DEV, 8192).unwrap();
            let engine = DmaEngine::new(Arc::clone(&p));
            let guard = p.device(DEV).unwrap();
            submit(&engine, a, vec![1u8; 8192]);
            evict(&engine, a, &[2u8; 4096]);
            let s = engine.stats();
            assert_eq!(s.in_flight(), 2, "the eviction was queued, not inlined");
            assert_eq!(s.depth_high_water, 2);
            drop(guard);
            engine.wait_object(DEV, OBJ).unwrap();
            let dev = p.device(DEV).unwrap();
            assert_eq!(dev.mem().slice(a, 4096).unwrap(), &[2u8; 4096][..]);
            assert_eq!(
                dev.mem().slice(a.add(4096), 4096).unwrap(),
                &[1u8; 4096][..]
            );
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("eviction behind a busy queue was inlined, or the test thread panicked");
    }

    #[test]
    fn inline_commit_failure_uses_the_worker_error_slot() {
        let p = platform();
        let a = p.dev_alloc(DEV, 4096).unwrap();
        let engine = DmaEngine::new(Arc::clone(&p));
        p.arm_faults(hetsim::FaultPlan::new().fail_nth(hetsim::FaultOp::CommitH2d, 0));
        evict(&engine, a, &[9u8; 4096]);
        p.disarm_faults();
        assert_eq!(
            engine.stats().in_flight(),
            0,
            "a failed landing still retires"
        );
        assert!(
            engine.wait_object(DEV, OBJ).is_err(),
            "surfaced at the join"
        );
        engine.wait_device(DEV).unwrap(); // ... exactly once
        evict(&engine, a, &[3u8; 4096]);
        engine.wait_device(DEV).unwrap();
        let dev = p.device(DEV).unwrap();
        assert_eq!(dev.mem().slice(a, 4096).unwrap(), &[3u8; 4096][..]);
    }
}
