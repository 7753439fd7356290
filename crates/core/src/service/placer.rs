//! Load-aware job placement across device shards.
//!
//! The placer extends the allocation scheduler's affinity story
//! ([`crate::sched`]) into *load-aware* placement: each device carries a
//! live `(queued jobs, in-flight bytes)` pair on the [`LoadBoard`], and a
//! job goes to the least-loaded device — falling back to plain round-robin
//! when every device is idle, so an unloaded system keeps the scheduler's
//! historical rotation behaviour. Coordination stays off the data path
//! (the Golab CC-vs-DSM argument): the board is a handful of relaxed
//! atomics, read without any lock, and sessions that never share a shard
//! are never serialized by placement.

use hetsim::DeviceId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Per-device load cell: jobs placed but not finished, bytes in flight,
/// resident device bytes.
#[derive(Debug, Default)]
struct DevLoad {
    /// Jobs placed on the device's run queue (or executing) right now.
    queued: AtomicU64,
    /// Byte-footprint hints of jobs currently executing on the device.
    inflight_bytes: AtomicU64,
    /// Shared-object bytes currently resident in the device's memory,
    /// maintained by the owning shard (alloc/evict/re-fetch/free). Breaks
    /// placement ties so new work prefers devices with free capacity —
    /// landing a job there avoids eviction churn on the full ones.
    resident: AtomicU64,
}

/// Lock-free per-device load table shared by the service placer, the
/// [`crate::SchedPolicy::LeastLoaded`] allocation policy and the report.
#[derive(Debug)]
pub struct LoadBoard {
    devs: Vec<DevLoad>,
    rr: AtomicUsize,
}

impl LoadBoard {
    /// Creates a board for `device_count` accelerators.
    pub fn new(device_count: usize) -> Self {
        LoadBoard {
            devs: (0..device_count.max(1))
                .map(|_| DevLoad::default())
                .collect(),
            rr: AtomicUsize::new(0),
        }
    }

    /// Number of devices tracked.
    pub(crate) fn device_count(&self) -> usize {
        self.devs.len()
    }

    /// `(queued jobs, in-flight bytes)` per device, in id order.
    pub(crate) fn snapshot(&self) -> Vec<(u64, u64)> {
        self.devs
            .iter()
            .map(|d| {
                (
                    d.queued.load(Ordering::Relaxed),
                    d.inflight_bytes.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Resident device bytes per device, in id order (see
    /// [`Self::add_resident`]).
    pub(crate) fn resident_snapshot(&self) -> Vec<u64> {
        self.devs
            .iter()
            .map(|d| d.resident.load(Ordering::Relaxed))
            .collect()
    }

    /// Chooses the device for the next job: a pinned session's affinity
    /// wins outright; otherwise the least-loaded device by
    /// `(queued jobs, in-flight bytes, resident bytes, id)` — or, when
    /// **every** device is idle (no queued jobs or in-flight bytes), plain
    /// round-robin so an unloaded service keeps rotating placements instead
    /// of piling everything on device 0.
    pub fn place(&self, affinity: Option<DeviceId>) -> DeviceId {
        if let Some(dev) = affinity {
            return dev;
        }
        let loads = self.snapshot();
        if loads.iter().all(|&(q, b)| q == 0 && b == 0) {
            return DeviceId(self.rr.fetch_add(1, Ordering::Relaxed) % self.devs.len());
        }
        let resident = self.resident_snapshot();
        let (idx, _) = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &(q, b))| (q, b, resident[i], i))
            .expect("at least one device");
        DeviceId(idx)
    }

    /// Records a job handed to `dev`'s run queue.
    pub(crate) fn note_placed(&self, dev: DeviceId) {
        self.devs[dev.0].queued.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job starting execution on `dev` with byte footprint `cost`.
    pub(crate) fn note_started(&self, dev: DeviceId, cost: u64) {
        self.devs[dev.0]
            .inflight_bytes
            .fetch_add(cost, Ordering::Relaxed);
    }

    /// Records a job finishing on `dev`.
    pub(crate) fn note_finished(&self, dev: DeviceId, cost: u64) {
        self.devs[dev.0].queued.fetch_sub(1, Ordering::Relaxed);
        self.devs[dev.0]
            .inflight_bytes
            .fetch_sub(cost, Ordering::Relaxed);
    }

    /// Records `bytes` of shared-object data becoming resident on `dev`
    /// (allocation or eviction re-fetch).
    pub(crate) fn add_resident(&self, dev: DeviceId, bytes: u64) {
        self.devs[dev.0]
            .resident
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` leaving `dev`'s memory (eviction or free).
    pub(crate) fn sub_resident(&self, dev: DeviceId, bytes: u64) {
        self.devs[dev.0]
            .resident
            .fetch_sub(bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_board_round_robins() {
        let b = LoadBoard::new(3);
        let seq: Vec<usize> = (0..6).map(|_| b.place(None).0).collect();
        assert_eq!(seq, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn affinity_overrides_load() {
        let b = LoadBoard::new(2);
        b.note_placed(DeviceId(1));
        assert_eq!(b.place(Some(DeviceId(1))), DeviceId(1));
    }

    #[test]
    fn loaded_board_picks_least_loaded() {
        let b = LoadBoard::new(3);
        b.note_placed(DeviceId(0));
        b.note_placed(DeviceId(0));
        b.note_placed(DeviceId(1));
        // Device 2 idle → least loaded, regardless of the rr counter.
        for _ in 0..4 {
            assert_eq!(b.place(None), DeviceId(2));
        }
    }

    #[test]
    fn inflight_bytes_break_queue_ties() {
        let b = LoadBoard::new(2);
        b.note_placed(DeviceId(0));
        b.note_placed(DeviceId(1));
        b.note_started(DeviceId(0), 1 << 20);
        b.note_started(DeviceId(1), 4 << 20);
        assert_eq!(b.place(None), DeviceId(0));
        // Finishing the big job flips the order back to id tiebreak.
        b.note_finished(DeviceId(1), 4 << 20);
        b.note_placed(DeviceId(0)); // dev0: 2 queued, dev1: 0 queued
        assert_eq!(b.place(None), DeviceId(1));
    }

    #[test]
    fn finish_returns_board_to_idle_rotation() {
        let b = LoadBoard::new(2);
        b.note_placed(DeviceId(0));
        b.note_started(DeviceId(0), 64);
        b.note_finished(DeviceId(0), 64);
        let seq: Vec<usize> = (0..4).map(|_| b.place(None).0).collect();
        assert_eq!(seq, [0, 1, 0, 1]);
    }

    #[test]
    fn resident_bytes_break_remaining_ties() {
        let b = LoadBoard::new(2);
        b.note_placed(DeviceId(0));
        b.note_placed(DeviceId(1));
        b.add_resident(DeviceId(0), 4 << 20);
        b.add_resident(DeviceId(1), 1 << 20);
        assert_eq!(
            b.place(None),
            DeviceId(1),
            "equal load: emptier memory wins"
        );
        b.sub_resident(DeviceId(0), 4 << 20);
        assert_eq!(b.place(None), DeviceId(0), "tie falls through to id order");
        assert_eq!(b.resident_snapshot(), vec![0, 1 << 20]);
    }

    #[test]
    fn resident_bytes_do_not_defeat_idle_rotation() {
        let b = LoadBoard::new(2);
        b.add_resident(DeviceId(0), 1 << 20);
        // No queued jobs or in-flight bytes: the board still round-robins.
        let seq: Vec<usize> = (0..4).map(|_| b.place(None).0).collect();
        assert_eq!(seq, [0, 1, 0, 1]);
    }

    #[test]
    fn snapshot_reports_pairs() {
        let b = LoadBoard::new(2);
        b.note_placed(DeviceId(1));
        b.note_started(DeviceId(1), 123);
        assert_eq!(b.snapshot(), vec![(0, 0), (1, 123)]);
    }
}
