//! # The multi-tenant service layer
//!
//! A job-submission front-end over the [`Gmac`](crate::Gmac) runtime for the
//! deployment shape the paper's one-host-thread-per-context model never
//! exercises: **M client sessions, M ≫ devices**, sustained traffic. The
//! moving parts, front to back:
//!
//! ```text
//!   clients (M)            bounded fair queue        placer      devices (N)
//!   ┌─────────┐  submit   ┌───────────────────┐    ┌───────┐   ┌──────────┐
//!   │ client₀ │──────────▶│ lane₀ ▶▶▶         │    │ least │──▶│ worker₀  │
//!   │ client₁ │──────────▶│ lane₁ ▶▶          │───▶│ loaded│──▶│ worker₁  │
//!   │   ...   │  Admission│ ...   (DRR across │    │ (RR   │   │  ...     │
//!   │ clientₘ │◀──────────│ lanes, weighted   │    │ idle) │──▶│ workerₙ  │
//!   └─────────┘  rejected │ by priority)      │    └───────┘   └──────────┘
//!                         └───────────────────┘
//! ```
//!
//! * **[`queue`]** — one FIFO lane per client session, bounded overall
//!   ([`crate::GmacConfig::service_queue_depth`]), dequeued with
//!   deficit-weighted round robin so no priority class starves.
//! * **[`placer`]** — a placement thread routes each dequeued job to the
//!   least-loaded device (`(queued jobs, in-flight bytes)` per shard on the
//!   [`LoadBoard`]), falling back to round-robin when all devices are idle.
//! * **[`admission`]** — overflow is an explicit, immediate
//!   [`GmacError::Admission`] with a machine-readable retry-after hint —
//!   with the service on, [`GmacError::DeviceBusy`] never reaches a client:
//!   contention becomes *queueing*, not an error.
//! * **[`stats`]** — served bytes, queue wait and run time per priority
//!   class, surfaced through [`crate::Report`].
//!
//! One worker thread per device executes jobs on a device-pinned
//! [`Session`]; a device therefore never sees two sessions racing for its
//! pending-call slot, which is what structurally retires `DeviceBusy` from
//! the client-visible surface. Coordination (placement + admission) happens
//! entirely **off** the data path — clients that never touch the same shard
//! are never serialized by the service (the Golab CC-vs-DSM separation).
//!
//! # Lock order
//!
//! The service queue and lane mutexes sit **above** the whole runtime
//! hierarchy: `service queue → registry → shard → engine queues → platform
//! leaves`. Service threads take runtime locks only *through* public
//! session operations while holding no service lock, and submit paths take
//! service locks while holding no runtime lock.
//!
//! # Ablation
//!
//! [`crate::GmacConfig::service`]`(false)` degrades [`ServiceClient::submit`] to
//! inline execution on the calling thread — same placement, same
//! bookkeeping, no queue, no threads — and the `service` integration test
//! proves a serialized single-tenant run is **byte-identical** (digests and
//! per-category virtual-time ledgers) between the two modes and plain
//! direct execution.

pub(crate) mod admission;
pub(crate) mod placer;
pub(crate) mod queue;
pub(crate) mod stats;

pub use placer::LoadBoard;
pub(crate) use queue::JobMeta;
pub use queue::{JobFn, JobId, Priority};
pub(crate) use stats::ServiceStats;
pub use stats::{ClassSnapshot, ServiceSnapshot};

use crate::error::{GmacError, GmacResult};
use crate::gmac::{lock, Inner};
use crate::session::Session;
use queue::{FairQueue, QueuedJob};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Jobs a placed worker may hold beyond the one it is executing. Kept tiny
/// on purpose: the backlog must live in the *fair* queue (where DRR and
/// admission apply), not in per-device FIFOs that would lock in a stale
/// placement.
const LANE_SLACK: usize = 2;

/// Completion cell behind a [`Ticket`]: result slot + wakeup.
#[derive(Debug, Default)]
pub(crate) struct TicketCell {
    slot: Mutex<Option<GmacResult<u64>>>,
    done: Condvar,
}

impl TicketCell {
    fn fulfill(&self, result: GmacResult<u64>) {
        *lock(&self.slot) = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> GmacResult<u64> {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self
                .done
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn try_result(&self) -> Option<GmacResult<u64>> {
        lock(&self.slot).clone()
    }
}

/// Handle on one submitted job: wait for (or poll) its result.
///
/// Results are sticky — [`Ticket::wait`] and [`Ticket::try_result`] can be
/// called any number of times after completion.
#[derive(Debug, Clone)]
pub struct Ticket {
    id: JobId,
    priority: Priority,
    cell: Arc<TicketCell>,
}

impl Ticket {
    /// The job's identity.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The priority class the job was queued under.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Blocks until the job completes and returns its result.
    ///
    /// # Errors
    /// Whatever the job closure returned; [`GmacError::UnresolvedFault`] if
    /// the closure panicked.
    pub fn wait(&self) -> GmacResult<u64> {
        self.cell.wait()
    }

    /// Non-blocking probe: `None` while the job is still queued or running.
    pub fn try_result(&self) -> Option<GmacResult<u64>> {
        self.cell.try_result()
    }
}

/// One device's run queue: the placer pushes (bounded by [`LANE_SLACK`]),
/// the device worker pops.
#[derive(Debug, Default)]
struct ExecLane {
    state: Mutex<(VecDeque<QueuedJob>, bool)>,
    changed: Condvar,
}

impl ExecLane {
    /// Blocks while the lane is full; no-op delivery after close (the job
    /// is bounced back for the caller to fail the ticket).
    fn push(&self, job: QueuedJob) -> Result<(), QueuedJob> {
        let mut st = lock(&self.state);
        loop {
            if st.1 {
                return Err(job);
            }
            if st.0.len() <= LANE_SLACK {
                st.0.push_back(job);
                drop(st);
                self.changed.notify_all();
                return Ok(());
            }
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn pop(&self) -> Option<QueuedJob> {
        let mut st = lock(&self.state);
        loop {
            if let Some(job) = st.0.pop_front() {
                drop(st);
                self.changed.notify_all();
                return Some(job);
            }
            if st.1 {
                return None;
            }
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock(&self.state).1 = true;
        self.changed.notify_all();
    }
}

/// Shared state between the service handle, its clients and its threads.
#[derive(Debug)]
struct SvcShared {
    inner: Arc<Inner>,
    queue: FairQueue,
    board: Arc<LoadBoard>,
    stats: Arc<ServiceStats>,
    lanes: Vec<ExecLane>,
    next_job: AtomicU64,
    /// Queued mode (true) vs inline ablation mode (false).
    queued: bool,
}

impl SvcShared {
    fn next_job_id(&self) -> JobId {
        JobId(self.next_job.fetch_add(1, Ordering::Relaxed))
    }

    /// Runs one job on `session` and settles every ledger: board, stats,
    /// ticket. Shared verbatim between worker threads and inline mode so
    /// the two modes stay observably identical.
    fn execute(&self, session: &Session, job: QueuedJob, dev: hetsim::DeviceId) {
        let wait_ns = job.meta.enqueued.elapsed().as_nanos() as u64;
        self.board.note_started(dev, job.meta.cost);
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| (job.run)(session))).unwrap_or_else(|_| {
            Err(GmacError::UnresolvedFault(
                "service job panicked".to_string(),
            ))
        });
        // A panicking job can unwind past its fast-path accesses before any
        // gate settles them; flush this worker thread's deferred charges now
        // so the fairness accounting (and the clock the next job reads)
        // doesn't silently carry one tenant's time into another's job.
        crate::fasttime::flush(&self.inner.platform);
        // A job that leaves a call in flight would hand the *next* tenant's
        // job a busy device; settle it here so DeviceBusy stays structurally
        // impossible. (Well-behaved jobs sync themselves; this charges
        // nothing for them.)
        if session.has_pending_call() {
            let _ = session.sync();
        }
        let run_ns = started.elapsed().as_nanos() as u64;
        self.board.note_finished(dev, job.meta.cost);
        self.stats.note_completed(
            job.meta.priority,
            job.meta.cost,
            wait_ns,
            run_ns,
            result.is_ok(),
        );
        job.ticket.fulfill(result);
    }
}

/// The multi-tenant job-submission front-end (design notes in
/// `service/mod.rs`).
///
/// Created with [`crate::Gmac::service`]; hand out one [`ServiceClient`]
/// per tenant. Dropping the service closes admission, **drains** the
/// backlog (every accepted ticket is fulfilled) and joins its threads.
///
/// ```
/// use gmac::{Gmac, GmacConfig, Priority};
/// use hetsim::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gmac = Gmac::new(Platform::desktop_g280(), GmacConfig::default());
/// let service = gmac.service();
/// let client = service.client(Priority::Normal);
/// let ticket = client.submit(4096, |s| {
///     let buf = s.alloc_typed::<u32>(1024)?;
///     buf.write(0, 7)?;
///     let v = buf.read(0)?;
///     buf.free()?;
///     Ok(u64::from(v))
/// })?;
/// assert_eq!(ticket.wait()?, 7);
/// drop(service);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Service {
    shared: Arc<SvcShared>,
    placer: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    pub(crate) fn new(inner: Arc<Inner>) -> Self {
        let config = inner.config();
        let queued = config.service;
        let capacity = config.service_queue_depth;
        let device_count = inner.device_count();
        let shared = Arc::new(SvcShared {
            board: Arc::clone(&inner.loads),
            queue: FairQueue::new(capacity),
            stats: Arc::new(ServiceStats::default()),
            lanes: (0..device_count).map(|_| ExecLane::default()).collect(),
            next_job: AtomicU64::new(0),
            queued,
            inner,
        });
        shared.inner.register_service_stats(&shared.stats);
        let (placer, workers) = if queued {
            let workers = (0..device_count)
                .map(|i| {
                    let sh = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("gmac-svc-{i}"))
                        .spawn(move || {
                            let dev = hetsim::DeviceId(i);
                            let session =
                                crate::Gmac::from_state(Arc::clone(&sh.inner)).session_on(dev);
                            while let Some(job) = sh.lanes[i].pop() {
                                sh.execute(&session, job, dev);
                            }
                        })
                        .expect("spawn service worker")
                })
                .collect();
            let sh = Arc::clone(&shared);
            let placer = std::thread::Builder::new()
                .name("gmac-svc-placer".to_string())
                .spawn(move || {
                    while let Some(job) = sh.queue.pop() {
                        let dev = sh.board.place(None);
                        sh.board.note_placed(dev);
                        if let Err(job) = sh.lanes[dev.0].push(job) {
                            // Lane already closed (tear-down race): fail the
                            // ticket rather than strand its waiter.
                            sh.board.note_finished(dev, 0);
                            job.ticket.fulfill(Err(GmacError::Admission {
                                reason: crate::error::AdmissionReason::Shutdown,
                                retry_after: hetsim::Nanos::ZERO,
                            }));
                        }
                    }
                })
                .expect("spawn service placer");
            (Some(placer), workers)
        } else {
            (None, Vec::new())
        };
        Service {
            shared,
            placer,
            workers,
        }
    }

    /// Opens a tenant handle with its own session identity and fair-queue
    /// lane, submitting at `priority`.
    pub fn client(&self, priority: Priority) -> ServiceClient {
        ServiceClient {
            shared: Arc::clone(&self.shared),
            session: self.shared.inner.next_session_id(),
            priority,
        }
    }

    /// Whether jobs flow through the queue (`true`) or run inline on the
    /// submitting thread ([`crate::GmacConfig::service`] off).
    pub fn is_queued(&self) -> bool {
        self.shared.queued
    }

    /// Jobs currently waiting in the fair queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Deepest the fair queue has been.
    pub fn queue_high_water(&self) -> usize {
        self.shared.queue.high_water()
    }

    /// Configured queue capacity.
    pub fn capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Fairness-accounting snapshot.
    pub fn stats(&self) -> ServiceSnapshot {
        self.shared.stats.snapshot()
    }

    /// `(queued jobs, in-flight bytes)` per device, in id order.
    pub fn loads(&self) -> Vec<(u64, u64)> {
        self.shared.board.snapshot()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Stop admission, drain the fair queue through the placer, then
        // drain each lane through its worker. Every accepted ticket is
        // fulfilled before the threads are joined.
        self.shared.queue.close();
        if let Some(placer) = self.placer.take() {
            let _ = placer.join();
        }
        for lane in &self.shared.lanes {
            lane.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One tenant's handle on a [`Service`]: a session identity plus the
/// priority class its jobs are queued under. Cheap to clone and `Send` —
/// hand one to each client thread.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    shared: Arc<SvcShared>,
    session: crate::session::SessionId,
    priority: Priority,
}

impl ServiceClient {
    /// This client's priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Submits one job. `bytes_hint` is the job's approximate byte
    /// footprint — the currency admission and deficit-weighted fairness
    /// account in (0 is clamped to 1; jobs-as-units).
    ///
    /// With the service queued (the default), the call returns immediately
    /// with a [`Ticket`]; with [`crate::GmacConfig::service`] off the job
    /// runs inline and the returned ticket is already fulfilled.
    ///
    /// # Errors
    /// [`GmacError::Admission`] when the bounded queue is full (the error
    /// carries a retry-after hint) or the service is shutting down. The
    /// job's *own* errors surface through [`Ticket::wait`], not here.
    pub fn submit(
        &self,
        bytes_hint: u64,
        job: impl FnOnce(&Session) -> GmacResult<u64> + Send + 'static,
    ) -> GmacResult<Ticket> {
        self.submit_boxed(bytes_hint, Box::new(job))
    }

    /// [`Self::submit`] taking an already-boxed job (the form workload
    /// adapters produce).
    ///
    /// # Errors
    /// Same as [`Self::submit`].
    pub fn submit_boxed(&self, bytes_hint: u64, job: JobFn) -> GmacResult<Ticket> {
        let sh = &self.shared;
        let meta = JobMeta {
            id: sh.next_job_id(),
            session: self.session,
            priority: self.priority,
            cost: bytes_hint.max(1),
            enqueued: Instant::now(),
        };
        let cell = Arc::new(TicketCell::default());
        let ticket = Ticket {
            id: meta.id,
            priority: meta.priority,
            cell: Arc::clone(&cell),
        };
        let queued_job = QueuedJob {
            meta,
            run: job,
            ticket: cell,
        };
        if !sh.queued {
            // Inline ablation mode: same placement, same accounting, no
            // queue — the job runs to completion on this thread.
            let dev = sh.board.place(None);
            sh.board.note_placed(dev);
            sh.stats.note_submitted(self.priority);
            let session = crate::Gmac::from_state(Arc::clone(&sh.inner)).session_on(dev);
            sh.execute(&session, queued_job, dev);
            return Ok(ticket);
        }
        match sh.queue.push(queued_job) {
            Ok(()) => {
                sh.stats.note_submitted(self.priority);
                Ok(ticket)
            }
            Err((job, rejected)) => {
                drop(job);
                sh.stats.note_rejected(self.priority);
                let queued = match rejected {
                    queue::PushRejected::Full { queued, .. } => queued,
                    queue::PushRejected::Closed => 0,
                };
                let retry = admission::retry_after_hint(
                    queued,
                    sh.board.device_count(),
                    sh.stats.avg_run_ns(),
                );
                Err(queue::rejection_to_error(rejected, retry))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GmacConfig;
    use crate::Gmac;
    use hetsim::Platform;

    fn service_gmac(queued: bool, depth: usize) -> Gmac {
        Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default()
                .service(queued)
                .service_queue_depth(depth),
        )
    }

    #[test]
    fn roundtrip_through_the_queue() {
        let g = service_gmac(true, 64);
        let svc = g.service();
        let client = svc.client(Priority::Normal);
        let t = client
            .submit(4096, |s| {
                let b = s.alloc_typed::<u32>(16)?;
                b.write(3, 42)?;
                let v = b.read(3)?;
                b.free()?;
                Ok(u64::from(v))
            })
            .unwrap();
        assert_eq!(t.wait().unwrap(), 42);
        assert!(svc.is_queued());
        let snap = svc.stats();
        assert_eq!(snap.completed(), 1);
        assert_eq!(snap.classes[Priority::Normal.index()].served_bytes, 4096);
    }

    #[test]
    fn inline_mode_fulfills_before_returning() {
        let g = service_gmac(false, 64);
        let svc = g.service();
        assert!(!svc.is_queued());
        let t = svc.client(Priority::High).submit(0, |_s| Ok(99)).unwrap();
        assert_eq!(t.try_result().unwrap().unwrap(), 99);
        assert_eq!(t.wait().unwrap(), 99);
    }

    #[test]
    fn job_errors_surface_on_the_ticket_not_submit() {
        let g = service_gmac(true, 8);
        let svc = g.service();
        let t = svc
            .client(Priority::Low)
            .submit(1, |s| {
                s.load::<u32>(crate::SharedPtr::new(softmmu::VAddr(0x10)))
                    .map(u64::from)
            })
            .unwrap();
        assert!(matches!(t.wait(), Err(GmacError::NotShared(_))));
        let snap = svc.stats();
        assert_eq!(snap.classes[Priority::Low.index()].failed, 1);
    }

    #[test]
    fn panicking_job_fails_its_ticket_and_service_survives() {
        let g = service_gmac(true, 8);
        let svc = g.service();
        let c = svc.client(Priority::Normal);
        let t = c.submit(1, |_s| panic!("boom")).unwrap();
        assert!(matches!(t.wait(), Err(GmacError::UnresolvedFault(_))));
        // The worker survived the panic and still serves jobs.
        let t2 = c.submit(1, |_s| Ok(5)).unwrap();
        assert_eq!(t2.wait().unwrap(), 5);
    }

    #[test]
    fn drop_drains_accepted_tickets() {
        let g = service_gmac(true, 256);
        let svc = g.service();
        let c = svc.client(Priority::Normal);
        let tickets: Vec<Ticket> = (0..32)
            .map(|i| c.submit(1, move |_s| Ok(i)).unwrap())
            .collect();
        drop(svc);
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(t.wait().unwrap(), i as u64, "drained ticket {i}");
        }
    }

    #[test]
    fn overflow_rejects_with_retry_hint() {
        let g = service_gmac(true, 2);
        let svc = g.service();
        let c = svc.client(Priority::Normal);
        // A blocking job wedges the single worker; the lane absorbs a
        // couple more, then the fair queue (capacity 2) fills.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let blocker = c
            .submit(1, move |_s| {
                let (m, cv) = &*gate2;
                let mut open = lock(m);
                while !*open {
                    open = cv
                        .wait(open)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Ok(0)
            })
            .unwrap();
        let mut rejected = None;
        let mut accepted = vec![blocker];
        for i in 0..64 {
            match c.submit(1, move |_s| Ok(i)) {
                Ok(t) => accepted.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let err = rejected.expect("bounded queue must eventually reject");
        match &err {
            GmacError::Admission {
                reason: crate::error::AdmissionReason::QueueFull { queued, capacity },
                retry_after,
            } => {
                assert_eq!(*capacity, 2);
                assert_eq!(*queued, 2);
                assert!(retry_after.as_nanos() > 0, "retry hint must be non-zero");
            }
            other => panic!("expected Admission(QueueFull), got {other:?}"),
        }
        // Unblock and drain: every accepted ticket completes.
        {
            let (m, cv) = &*gate;
            *lock(m) = true;
            cv.notify_all();
        }
        for t in &accepted {
            t.wait().unwrap();
        }
        assert!(svc.stats().rejected() >= 1);
    }
}
