//! Resource timelines: each hardware engine (DMA channel, GPU execution unit,
//! disk head) is modelled as a serial resource with a *busy-until* horizon.
//!
//! Work submitted at time `t` starts at `max(t, busy_until)` and occupies the
//! engine for its duration. The submitting CPU may either block until the
//! work finishes (synchronous) or continue immediately (asynchronous) — this
//! is what lets rolling-update's eager evictions overlap CPU compute with DMA
//! (paper §3.3, §5.2).

use crate::time::{Nanos, TimePoint};

/// A serial hardware resource with a busy-until timeline.
#[derive(Debug, Clone)]
pub struct Engine {
    name: &'static str,
    busy_until: TimePoint,
    total_busy: Nanos,
    jobs: u64,
}

/// The interval an engine reserved for one piece of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the engine begins the work.
    pub start: TimePoint,
    /// When the engine finishes the work.
    pub end: TimePoint,
}

impl Reservation {
    /// Length of the reserved interval.
    pub fn duration(&self) -> Nanos {
        self.end.since(self.start)
    }
}

impl Engine {
    /// Creates an idle engine.
    pub fn new(name: &'static str) -> Self {
        Engine {
            name,
            busy_until: TimePoint::ZERO,
            total_busy: Nanos::ZERO,
            jobs: 0,
        }
    }

    /// Engine name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Earliest instant at which new work could start.
    pub fn busy_until(&self) -> TimePoint {
        self.busy_until
    }

    /// Total time this engine has spent busy.
    pub fn total_busy(&self) -> Nanos {
        self.total_busy
    }

    /// Number of jobs executed.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Reserves the engine for `dur`, starting no earlier than `now`.
    pub fn reserve(&mut self, now: TimePoint, dur: Nanos) -> Reservation {
        let start = now.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.total_busy += dur;
        self.jobs += 1;
        Reservation { start, end }
    }

    /// Reserves the engine for `dur`, starting no earlier than both `now` and
    /// `after` (used for stream-ordered work that must wait on a predecessor).
    pub fn reserve_after(&mut self, now: TimePoint, after: TimePoint, dur: Nanos) -> Reservation {
        self.reserve(now.max(after), dur)
    }

    /// Resets the timeline (used when reusing a platform across experiment
    /// repetitions).
    pub fn reset(&mut self) {
        self.busy_until = TimePoint::ZERO;
        self.total_busy = Nanos::ZERO;
        self.jobs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> TimePoint {
        TimePoint::from_nanos(ns)
    }

    #[test]
    fn idle_engine_starts_immediately() {
        let mut e = Engine::new("dma");
        let r = e.reserve(t(100), Nanos::from_nanos(50));
        assert_eq!(r.start, t(100));
        assert_eq!(r.end, t(150));
        assert_eq!(r.duration(), Nanos::from_nanos(50));
        assert_eq!(e.busy_until(), t(150));
    }

    #[test]
    fn busy_engine_queues_work() {
        let mut e = Engine::new("dma");
        e.reserve(t(0), Nanos::from_nanos(100));
        // Submitted at t=10 while busy until t=100: starts at 100.
        let r = e.reserve(t(10), Nanos::from_nanos(30));
        assert_eq!(r.start, t(100));
        assert_eq!(r.end, t(130));
    }

    #[test]
    fn engine_becomes_idle_after_work_drains() {
        let mut e = Engine::new("gpu");
        e.reserve(t(0), Nanos::from_nanos(100));
        assert!(e.busy_until > t(50));
        assert!(e.busy_until <= t(100));
        assert!(e.busy_until <= t(200));
    }

    #[test]
    fn reserve_after_honours_dependency() {
        let mut e = Engine::new("gpu");
        // Engine idle, but the work depends on an event at t=500.
        let r = e.reserve_after(t(10), t(500), Nanos::from_nanos(20));
        assert_eq!(r.start, t(500));
        assert_eq!(r.end, t(520));
    }

    #[test]
    fn accounting_accumulates() {
        let mut e = Engine::new("dma");
        e.reserve(t(0), Nanos::from_nanos(10));
        e.reserve(t(0), Nanos::from_nanos(15));
        assert_eq!(e.total_busy(), Nanos::from_nanos(25));
        assert_eq!(e.jobs(), 2);
        e.reset();
        assert_eq!(e.total_busy(), Nanos::ZERO);
        assert_eq!(e.jobs(), 0);
        assert_eq!(e.busy_until(), TimePoint::ZERO);
    }

    #[test]
    fn back_to_back_work_is_contiguous() {
        let mut e = Engine::new("dma");
        let r1 = e.reserve(t(0), Nanos::from_nanos(40));
        let r2 = e.reserve(t(0), Nanos::from_nanos(40));
        assert_eq!(r1.end, r2.start, "no idle gap between queued jobs");
    }
}
