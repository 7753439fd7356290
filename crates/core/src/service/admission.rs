//! Admission control: the bounded-queue gate in front of the service.
//!
//! With the service layer on, resource pressure is expressed **here**, once,
//! at submit time — never as a surprise [`crate::GmacError::DeviceBusy`]
//! deep in a call path. A refused job gets an explicit
//! [`crate::GmacError::Admission`] carrying a machine-readable *retry-after*
//! hint, so well-behaved clients can back off instead of hammering the
//! queue.

use hetsim::Nanos;

/// Floor for the per-job drain estimate when the service has not completed
/// any job yet (a cold service still hands out a non-zero hint).
pub(crate) const MIN_JOB_DRAIN_NS: u64 = 1_000;

/// Retry-after estimate for a refused job: the time the current backlog
/// needs to drain across the device pool, using the observed mean job
/// execution time (floored by [`MIN_JOB_DRAIN_NS`] so the hint is never
/// zero).
///
/// The estimate is deliberately simple — queue length × mean service time ÷
/// devices — the classic M/M/c back-of-envelope; its job is to give the
/// client a plausible backoff, not a promise.
pub(crate) fn retry_after_hint(queued: usize, devices: usize, avg_run_ns: u64) -> Nanos {
    let per_job = avg_run_ns.max(MIN_JOB_DRAIN_NS);
    let backlog = (queued as u64).saturating_add(1);
    // The division can floor a small backlog on a wide device pool to zero;
    // a zero hint reads as "retry immediately" and defeats the backoff, so
    // the floor applies to the final figure too.
    Nanos::from_nanos(
        (per_job.saturating_mul(backlog) / devices.max(1) as u64).max(MIN_JOB_DRAIN_NS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_is_never_zero() {
        assert!(retry_after_hint(0, 1, 0).as_nanos() >= MIN_JOB_DRAIN_NS);
    }

    #[test]
    fn hint_scales_with_backlog_and_divides_by_devices() {
        let one_dev = retry_after_hint(100, 1, 10_000);
        let four_dev = retry_after_hint(100, 4, 10_000);
        assert_eq!(one_dev.as_nanos(), 101 * 10_000);
        assert_eq!(four_dev.as_nanos(), 101 * 10_000 / 4);
        assert!(retry_after_hint(200, 1, 10_000) > one_dev);
    }

    #[test]
    fn zero_devices_is_clamped() {
        // Defensive: a board is never empty, but the hint must not divide
        // by zero even if handed nonsense.
        assert!(retry_after_hint(5, 0, 1_000).as_nanos() > 0);
    }

    #[test]
    fn empty_history_on_wide_pool_keeps_the_floor() {
        // Cold service (no completed jobs → avg 0) on a pool wider than the
        // backlog: the division would round the hint to zero without the
        // final floor.
        let hint = retry_after_hint(0, 64, 0);
        assert_eq!(hint.as_nanos(), MIN_JOB_DRAIN_NS);
    }

    #[test]
    fn drained_queue_still_hints_nonzero() {
        // A refusal racing the queue draining to empty must still back the
        // client off: queued = 0 covers the in-flight job that triggered
        // the refusal.
        for devices in [1, 2, 8, 1024] {
            assert!(
                retry_after_hint(0, devices, 500).as_nanos() >= MIN_JOB_DRAIN_NS,
                "devices={devices}"
            );
        }
    }
}
