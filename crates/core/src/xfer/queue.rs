//! Per-device bookkeeping of in-flight asynchronous DMA: the explicit join
//! points that replace the old implicit `join_h2d` call.

use hetsim::{DeviceId, TimePoint};
use std::collections::BTreeMap;

/// Tracks, per accelerator, the completion horizon of asynchronous
/// host-to-device jobs issued through transfer plans. The runtime joins the
/// queue at `adsmCall` boundaries (and whenever a protocol needs DMA
/// drained) instead of protocols reaching into engine internals.
///
/// Since the shard redesign one queue lives inside each
/// [`crate::shard::DeviceShard`]'s runtime, so in practice it only ever
/// holds its own device's horizon — the map form is kept for standalone
/// harnesses that drive one `Runtime` across several devices.
#[derive(Debug, Default)]
pub(crate) struct DmaQueue {
    pending: BTreeMap<DeviceId, TimePoint>,
}

impl DmaQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records that an async job on `dev` completes at `end`.
    pub(crate) fn note(&mut self, dev: DeviceId, end: TimePoint) {
        let slot = self.pending.entry(dev).or_insert(end);
        *slot = (*slot).max(end);
    }

    /// True when no async DMA is outstanding on `dev`.
    #[cfg(test)]
    pub(crate) fn is_idle(&self, dev: DeviceId) -> bool {
        !self.pending.contains_key(&dev)
    }

    /// Clears and returns the horizon for `dev` (the caller is about to
    /// block on it).
    pub(crate) fn take(&mut self, dev: DeviceId) -> Option<TimePoint> {
        self.pending.remove(&dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> TimePoint {
        TimePoint::from_nanos(ns)
    }

    #[test]
    fn tracks_latest_horizon_per_device() {
        let mut q = DmaQueue::new();
        assert!(q.is_idle(DeviceId(0)));
        q.note(DeviceId(0), t(100));
        q.note(DeviceId(0), t(50)); // earlier completion does not regress
        q.note(DeviceId(1), t(300));
        assert_eq!(q.pending.get(&DeviceId(0)), Some(&t(100)));
        assert_eq!(q.pending.get(&DeviceId(1)), Some(&t(300)));
    }

    #[test]
    fn take_clears_the_device() {
        let mut q = DmaQueue::new();
        q.note(DeviceId(0), t(100));
        assert_eq!(q.take(DeviceId(0)), Some(t(100)));
        assert!(q.is_idle(DeviceId(0)));
        assert_eq!(q.take(DeviceId(0)), None);
    }
}
