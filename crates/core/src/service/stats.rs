//! Fairness accounting for the service layer.
//!
//! Every job is attributed to its session's priority class; the service
//! records served bytes, queue wait and execution time per class so
//! operators can *see* whether deficit-weighted dequeue is honouring the
//! weights (the per-class rows surface in [`crate::Report`]). All cells are
//! relaxed atomics — accounting never serializes the data path.

use super::queue::Priority;
use std::sync::atomic::{AtomicU64, Ordering};

/// Accounting cells for one priority class.
#[derive(Debug, Default)]
struct ClassCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    served_bytes: AtomicU64,
    wait_ns: AtomicU64,
    run_ns: AtomicU64,
}

/// Live service accounting, shared between the service front-end, its
/// worker threads and the runtime report.
#[derive(Debug, Default)]
pub(crate) struct ServiceStats {
    classes: [ClassCells; 3],
}

impl ServiceStats {
    /// Records a job admitted to the queue.
    pub(crate) fn note_submitted(&self, class: Priority) {
        self.classes[class.index()]
            .submitted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job refused at admission.
    pub(crate) fn note_rejected(&self, class: Priority) {
        self.classes[class.index()]
            .rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed job: its byte footprint, queue wait and run time.
    pub(crate) fn note_completed(
        &self,
        class: Priority,
        bytes: u64,
        wait_ns: u64,
        run_ns: u64,
        ok: bool,
    ) {
        let c = &self.classes[class.index()];
        c.completed.fetch_add(1, Ordering::Relaxed);
        if !ok {
            c.failed.fetch_add(1, Ordering::Relaxed);
        }
        c.served_bytes.fetch_add(bytes, Ordering::Relaxed);
        c.wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        c.run_ns.fetch_add(run_ns, Ordering::Relaxed);
    }

    /// Mean wall-clock execution time over all completed jobs (ns); 0 with
    /// no completions. Feeds the admission layer's retry-after estimate.
    pub(crate) fn avg_run_ns(&self) -> u64 {
        let (mut jobs, mut ns) = (0u64, 0u64);
        for c in &self.classes {
            jobs += c.completed.load(Ordering::Relaxed);
            ns += c.run_ns.load(Ordering::Relaxed);
        }
        ns.checked_div(jobs).unwrap_or(0)
    }

    /// Point-in-time copy for reports.
    pub(crate) fn snapshot(&self) -> ServiceSnapshot {
        let class = |p: Priority| {
            let c = &self.classes[p.index()];
            ClassSnapshot {
                priority: p,
                submitted: c.submitted.load(Ordering::Relaxed),
                completed: c.completed.load(Ordering::Relaxed),
                rejected: c.rejected.load(Ordering::Relaxed),
                failed: c.failed.load(Ordering::Relaxed),
                served_bytes: c.served_bytes.load(Ordering::Relaxed),
                wait_ns: c.wait_ns.load(Ordering::Relaxed),
                run_ns: c.run_ns.load(Ordering::Relaxed),
            }
        };
        ServiceSnapshot {
            classes: [
                class(Priority::Low),
                class(Priority::Normal),
                class(Priority::High),
            ],
        }
    }
}

/// Frozen per-class accounting row.
#[derive(Debug, Clone, Copy)]
pub struct ClassSnapshot {
    /// The priority class this row describes.
    pub priority: Priority,
    /// Jobs admitted to the queue.
    pub submitted: u64,
    /// Jobs fully executed (including failed ones).
    pub completed: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Completed jobs whose closure returned an error.
    pub failed: u64,
    /// Sum of byte-footprint hints over completed jobs.
    pub served_bytes: u64,
    /// Total wall-clock queue wait (submit → execution start).
    pub wait_ns: u64,
    /// Total wall-clock execution time.
    pub run_ns: u64,
}

impl ClassSnapshot {
    /// Mean queue wait per completed job (ns).
    pub fn avg_wait_ns(&self) -> u64 {
        self.wait_ns.checked_div(self.completed).unwrap_or(0)
    }
}

/// Frozen accounting across all classes (low, normal, high order).
#[derive(Debug, Clone, Copy)]
pub struct ServiceSnapshot {
    /// Per-class rows, low to high.
    pub classes: [ClassSnapshot; 3],
}

impl ServiceSnapshot {
    /// Jobs admitted over all classes.
    pub fn submitted(&self) -> u64 {
        self.classes.iter().map(|c| c.submitted).sum()
    }

    /// Jobs completed over all classes.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Jobs rejected over all classes.
    pub fn rejected(&self) -> u64 {
        self.classes.iter().map(|c| c.rejected).sum()
    }

    /// Bytes served over all classes.
    pub fn served_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.served_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_lands_in_the_right_class() {
        let s = ServiceStats::default();
        s.note_submitted(Priority::High);
        s.note_submitted(Priority::Low);
        s.note_rejected(Priority::Low);
        s.note_completed(Priority::High, 4096, 1_000, 2_000, true);
        s.note_completed(Priority::High, 4096, 3_000, 4_000, false);
        let snap = s.snapshot();
        let high = snap.classes[Priority::High.index()];
        assert_eq!(high.submitted, 1);
        assert_eq!(high.completed, 2);
        assert_eq!(high.failed, 1);
        assert_eq!(high.served_bytes, 8192);
        assert_eq!(high.avg_wait_ns(), 2_000);
        let low = snap.classes[Priority::Low.index()];
        assert_eq!(low.rejected, 1);
        assert_eq!(low.completed, 0);
        assert_eq!(low.avg_wait_ns(), 0);
        assert_eq!(snap.submitted(), 2);
        assert_eq!(snap.completed(), 2);
        assert_eq!(snap.rejected(), 1);
        assert_eq!(snap.served_bytes(), 8192);
        assert_eq!(s.avg_run_ns(), 3_000);
    }
}
