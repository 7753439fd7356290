//! Bounded multi-tenant job queue with deficit-weighted fair dequeue.
//!
//! Every client session owns one FIFO *lane*; the queue dequeues across
//! lanes with **deficit round robin** (DRR): each visit credits a lane with
//! `QUANTUM × weight(priority)` bytes of deficit, and a lane may only send
//! a job whose cost fits its accumulated deficit. High-priority lanes earn
//! credit faster, but every lane earns *some* credit per round, so no
//! priority class can starve another — the fairness half of the service
//! layer's contract (the admission half lives in
//! [`super::admission`]).
//!
//! The queue is the **only** bounded stage: once a job is dequeued it flows
//! through placement and execution without further rejection, so
//! [`PushRejected`] at this boundary is the single admission decision a
//! client ever sees.

use crate::error::{GmacError, GmacResult};
use crate::session::{Session, SessionId};
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// DRR credit per lane visit, scaled by the lane's priority weight. Chosen
/// near the protocols' block granularity so one visit typically admits one
/// block-sized job.
pub(crate) const QUANTUM: u64 = 64 * 1024;

/// Per-session priority class carried by every job the session submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background/batch traffic (weight 1).
    Low,
    /// Interactive default (weight 2).
    #[default]
    Normal,
    /// Latency-sensitive traffic (weight 4).
    High,
}

impl Priority {
    /// All classes, low to high.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// DRR weight: relative credit earned per round.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }

    /// Dense index for per-class accounting arrays.
    pub fn index(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Human-readable class label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The closure shape the service executes: a unit of work against a
/// (placed, device-pinned) session, returning an application result word —
/// workloads return their output digest.
pub type JobFn = Box<dyn FnOnce(&Session) -> GmacResult<u64> + Send + 'static>;

/// Monotonic job identity (per service instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub u64);

/// Bookkeeping attached to every queued job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobMeta {
    /// Job identity.
    pub id: JobId,
    /// Submitting client session.
    pub session: SessionId,
    /// The session's priority class.
    pub priority: Priority,
    /// Byte-footprint hint (admission/fairness currency; clamped ≥ 1).
    pub cost: u64,
    /// Wall-clock submit instant (wait-time accounting).
    pub enqueued: Instant,
}

/// One job flowing through the queue → placer → worker pipeline.
pub(crate) struct QueuedJob {
    pub(crate) meta: JobMeta,
    pub(crate) run: JobFn,
    pub(crate) ticket: std::sync::Arc<super::TicketCell>,
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("meta", &self.meta)
            .finish()
    }
}

/// Why a push was refused (converted to [`GmacError::Admission`] by the
/// admission layer, which adds the retry-after hint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRejected {
    /// The bounded queue is at capacity.
    Full {
        /// Jobs currently queued.
        queued: usize,
        /// Configured capacity ([`crate::GmacConfig::service_queue_depth`]).
        capacity: usize,
    },
    /// The service is shutting down.
    Closed,
}

/// One session's FIFO lane plus its DRR credit state.
#[derive(Debug, Default)]
struct Lane {
    jobs: VecDeque<QueuedJob>,
    /// Accumulated DRR credit (bytes): grows by `QUANTUM × weight` per ring
    /// visit, shrinks by each sent job's cost. Reset when the lane empties,
    /// so an idle session cannot bank credit.
    deficit: u64,
    weight: u64,
}

#[derive(Debug, Default)]
struct QueueState {
    lanes: HashMap<SessionId, Lane>,
    /// Active-lane ring: DRR visits lanes in this rotation.
    ring: VecDeque<SessionId>,
    len: usize,
    high_water: usize,
    closed: bool,
}

/// The bounded deficit-weighted fair queue between clients and the placer.
#[derive(Debug)]
pub(crate) struct FairQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    /// Signalled on push and on close.
    available: Condvar,
}

impl FairQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        FairQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
        }
    }

    /// Total capacity (jobs).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (racy snapshot).
    pub(crate) fn len(&self) -> usize {
        crate::gmac::lock(&self.state).len
    }

    /// Deepest the queue has been since creation.
    pub(crate) fn high_water(&self) -> usize {
        crate::gmac::lock(&self.state).high_water
    }

    /// Enqueues one job on its session's lane.
    pub(crate) fn push(&self, job: QueuedJob) -> Result<(), (QueuedJob, PushRejected)> {
        let mut st = crate::gmac::lock(&self.state);
        if st.closed {
            return Err((job, PushRejected::Closed));
        }
        if st.len >= self.capacity {
            return Err((
                job,
                PushRejected::Full {
                    queued: st.len,
                    capacity: self.capacity,
                },
            ));
        }
        let sid = job.meta.session;
        let weight = job.meta.priority.weight();
        let lane = st.lanes.entry(sid).or_default();
        lane.weight = weight;
        let was_empty = lane.jobs.is_empty();
        lane.jobs.push_back(job);
        if was_empty {
            st.ring.push_back(sid);
        }
        st.len += 1;
        st.high_water = st.high_water.max(st.len);
        drop(st);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the next job in DRR order, blocking while the queue is empty
    /// and open. Returns `None` once the queue is closed **and** drained —
    /// pending work is always served, never dropped.
    pub(crate) fn pop(&self) -> Option<QueuedJob> {
        let mut st = crate::gmac::lock(&self.state);
        loop {
            if st.len == 0 {
                if st.closed {
                    return None;
                }
                st = self
                    .available
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            // DRR scan: front lane sends if its credit covers its head job,
            // otherwise it earns one quantum and rotates to the back. Each
            // rotation strictly increases some lane's credit, so the scan
            // terminates (a lone expensive job accumulates credit across
            // rotations of a one-lane ring).
            loop {
                let sid = *st.ring.front().expect("non-empty queue has a ring");
                let lane = st.lanes.get_mut(&sid).expect("ring lane exists");
                if lane.jobs.is_empty() {
                    // Lane drained by a previous send: retire it (credit is
                    // not banked across idle periods).
                    st.lanes.remove(&sid);
                    st.ring.pop_front();
                    continue;
                }
                let cost = lane.jobs.front().expect("non-empty lane").meta.cost;
                if lane.deficit >= cost {
                    lane.deficit -= cost;
                    let job = lane.jobs.pop_front().expect("non-empty lane");
                    if lane.jobs.is_empty() {
                        st.lanes.remove(&sid);
                        st.ring.pop_front();
                    }
                    st.len -= 1;
                    return Some(job);
                }
                lane.deficit += QUANTUM * lane.weight;
                st.ring.rotate_left(1);
            }
        }
    }

    /// Closes the queue: further pushes fail with [`PushRejected::Closed`];
    /// `pop` drains the backlog and then returns `None`.
    pub(crate) fn close(&self) {
        crate::gmac::lock(&self.state).closed = true;
        self.available.notify_all();
    }
}

/// Maps a queue rejection to the public error, attaching the retry-after
/// hint computed by the admission layer.
pub(crate) fn rejection_to_error(rejected: PushRejected, retry_after: hetsim::Nanos) -> GmacError {
    let reason = match rejected {
        PushRejected::Full { queued, capacity } => {
            crate::error::AdmissionReason::QueueFull { queued, capacity }
        }
        PushRejected::Closed => crate::error::AdmissionReason::Shutdown,
    };
    GmacError::Admission {
        reason,
        retry_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn job(session: u64, priority: Priority, cost: u64, tag: u64) -> QueuedJob {
        QueuedJob {
            meta: JobMeta {
                id: JobId(tag),
                session: SessionId(session),
                priority,
                cost: cost.max(1),
                enqueued: Instant::now(),
            },
            run: Box::new(move |_s| Ok(tag)),
            ticket: Arc::new(super::super::TicketCell::default()),
        }
    }

    #[test]
    fn fifo_within_a_session() {
        let q = FairQueue::new(16);
        for i in 0..4 {
            q.push(job(1, Priority::Normal, 100, i)).unwrap();
        }
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().meta.id.0).collect();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn bounded_and_rejects_when_full() {
        let q = FairQueue::new(2);
        q.push(job(1, Priority::Normal, 1, 0)).unwrap();
        q.push(job(1, Priority::Normal, 1, 1)).unwrap();
        let (_, why) = q.push(job(1, Priority::Normal, 1, 2)).unwrap_err();
        assert_eq!(
            why,
            PushRejected::Full {
                queued: 2,
                capacity: 2
            }
        );
        assert_eq!(q.high_water(), 2);
        // Draining one slot readmits.
        q.pop().unwrap();
        q.push(job(1, Priority::Normal, 1, 3)).unwrap();
    }

    #[test]
    fn drr_interleaves_equal_weight_sessions() {
        let q = FairQueue::new(64);
        // Session 1 floods first; session 2 arrives after.
        for i in 0..8 {
            q.push(job(1, Priority::Normal, QUANTUM, i)).unwrap();
        }
        for i in 0..8 {
            q.push(job(2, Priority::Normal, QUANTUM, 100 + i)).unwrap();
        }
        let order: Vec<u64> = (0..16).map(|_| q.pop().unwrap().meta.session.0).collect();
        // Equal weights and equal costs: strict alternation after the first
        // full round (no session gets two slots while the other waits).
        let ones = order.iter().take(8).filter(|&&s| s == 1).count();
        assert!(
            (3..=5).contains(&ones),
            "first 8 dequeues must be roughly half per session, got {order:?}"
        );
    }

    #[test]
    fn weights_bias_throughput_without_starvation() {
        let q = FairQueue::new(256);
        for i in 0..40 {
            q.push(job(1, Priority::High, QUANTUM, i)).unwrap();
            q.push(job(2, Priority::Low, QUANTUM, 1000 + i)).unwrap();
        }
        // Dequeue half the backlog: high earns 4× the credit of low, so it
        // should get ~4× the slots — but low must still progress.
        let first: Vec<u64> = (0..40).map(|_| q.pop().unwrap().meta.session.0).collect();
        let high = first.iter().filter(|&&s| s == 1).count();
        let low = first.len() - high;
        assert!(low > 0, "low-priority lane must not starve: {first:?}");
        assert!(
            high > low,
            "high-priority lane must get more slots: {high} vs {low}"
        );
    }

    #[test]
    fn expensive_job_accumulates_credit_and_dequeues() {
        let q = FairQueue::new(4);
        // Cost ≫ one quantum: the lone lane must accumulate across
        // rotations rather than deadlock.
        q.push(job(1, Priority::Low, 64 * QUANTUM, 7)).unwrap();
        assert_eq!(q.pop().unwrap().meta.id.0, 7);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = FairQueue::new(8);
        q.push(job(1, Priority::Normal, 1, 0)).unwrap();
        q.close();
        let (_, why) = q.push(job(1, Priority::Normal, 1, 1)).unwrap_err();
        assert_eq!(why, PushRejected::Closed);
        assert!(q.pop().is_some(), "backlog is served after close");
        assert!(q.pop().is_none(), "then the queue ends");
    }

    #[test]
    fn priority_metadata() {
        assert_eq!(Priority::ALL.len(), 3);
        assert_eq!(Priority::High.weight(), 4);
        assert_eq!(Priority::Low.index(), 0);
        assert_eq!(Priority::Normal.to_string(), "normal");
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
