//! Kernel/allocation scheduling across accelerators.
//!
//! The paper's kernel scheduler "selects the most appropriate accelerator for
//! execution of a given kernel" (§4.1) and defers detailed policies to
//! Jimenez et al. \[29\]. This module provides the three policies the
//! experiments need: pinning everything to one device (the single-GPU
//! platform of §5), round-robin placement for multi-accelerator tests, and
//! load-aware placement fed by the service layer's
//! [`LoadBoard`](crate::service::LoadBoard).

use hetsim::DeviceId;

/// Placement policy for new shared objects (kernels follow their data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// All allocations on one device.
    Fixed(DeviceId),
    /// Rotate allocations across all devices.
    RoundRobin,
    /// Route each allocation to the least-loaded device per the live
    /// `(queued jobs, in-flight bytes)` pairs on the service layer's
    /// [`LoadBoard`](crate::service::LoadBoard); degrades to round-robin
    /// when every device is idle (or no load data is supplied), so an
    /// unloaded system keeps rotating instead of piling onto device 0.
    LeastLoaded,
}

/// The allocation/kernel scheduler.
#[derive(Debug)]
pub(crate) struct Scheduler {
    policy: SchedPolicy,
    device_count: usize,
    next: usize,
}

impl Scheduler {
    /// Creates a scheduler for a platform with `device_count` accelerators.
    pub(crate) fn new(policy: SchedPolicy, device_count: usize) -> Self {
        assert!(device_count > 0, "scheduler needs at least one device");
        Scheduler {
            policy,
            device_count,
            next: 0,
        }
    }

    /// Active policy.
    pub(crate) fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Replaces the policy.
    pub(crate) fn set_policy(&mut self, policy: SchedPolicy) {
        self.policy = policy;
    }

    /// Round-robin rotation over every device.
    fn rotate(&mut self) -> DeviceId {
        let dev = DeviceId(self.next % self.device_count);
        self.next += 1;
        dev
    }

    /// Chooses the device for a new allocation (no load information:
    /// [`SchedPolicy::LeastLoaded`] degrades to round-robin).
    pub(crate) fn device_for_alloc(&mut self) -> DeviceId {
        self.device_for_alloc_loaded(&[])
    }

    /// Chooses the device for a new allocation given the live per-device
    /// `(queued jobs, in-flight bytes)` pairs (the service layer's
    /// [`LoadBoard`](crate::service::LoadBoard) snapshot, in id order).
    /// Only [`SchedPolicy::LeastLoaded`] consults the loads; a stale or
    /// missing snapshot (length mismatch, all idle) falls back to the
    /// round-robin rotation so placement keeps making progress.
    pub(crate) fn device_for_alloc_loaded(&mut self, loads: &[(u64, u64)]) -> DeviceId {
        match self.policy {
            SchedPolicy::Fixed(dev) => dev,
            SchedPolicy::RoundRobin => self.rotate(),
            SchedPolicy::LeastLoaded => {
                if loads.len() == self.device_count && loads.iter().any(|&(q, b)| q > 0 || b > 0) {
                    let (idx, _) = loads
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, &(q, b))| (q, b, i))
                        .expect("at least one device");
                    DeviceId(idx)
                } else {
                    self.rotate()
                }
            }
        }
    }

    /// Device used for kernels that reference no shared objects.
    pub(crate) fn default_device(&self) -> DeviceId {
        match self.policy {
            SchedPolicy::Fixed(dev) => dev,
            SchedPolicy::RoundRobin | SchedPolicy::LeastLoaded => DeviceId(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_always_same_device() {
        let mut s = Scheduler::new(SchedPolicy::Fixed(DeviceId(1)), 2);
        assert_eq!(s.device_for_alloc(), DeviceId(1));
        assert_eq!(s.device_for_alloc(), DeviceId(1));
        assert_eq!(s.default_device(), DeviceId(1));
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = Scheduler::new(SchedPolicy::RoundRobin, 3);
        let seq: Vec<_> = (0..6).map(|_| s.device_for_alloc().0).collect();
        assert_eq!(seq, [0, 1, 2, 0, 1, 2]);
        assert_eq!(s.default_device(), DeviceId(0));
    }

    #[test]
    fn least_loaded_picks_min_and_breaks_ties_by_bytes() {
        let mut s = Scheduler::new(SchedPolicy::LeastLoaded, 3);
        assert_eq!(
            s.device_for_alloc_loaded(&[(2, 0), (1, 500), (1, 100)]),
            DeviceId(2),
            "equal queue depth: fewer in-flight bytes wins"
        );
        assert_eq!(
            s.device_for_alloc_loaded(&[(0, 0), (3, 0), (1, 0)]),
            DeviceId(0)
        );
    }

    #[test]
    fn least_loaded_idles_into_round_robin() {
        let mut s = Scheduler::new(SchedPolicy::LeastLoaded, 3);
        let idle = [(0, 0); 3];
        let seq: Vec<_> = (0..6).map(|_| s.device_for_alloc_loaded(&idle).0).collect();
        assert_eq!(seq, [0, 1, 2, 0, 1, 2], "idle board keeps rotating");
        // Missing/mismatched load data also degrades to rotation.
        assert_eq!(s.device_for_alloc_loaded(&[(5, 5)]), DeviceId(0));
        assert_eq!(s.default_device(), DeviceId(0));
    }

    #[test]
    fn policy_can_change_at_runtime() {
        let mut s = Scheduler::new(SchedPolicy::Fixed(DeviceId(0)), 2);
        s.set_policy(SchedPolicy::RoundRobin);
        assert_eq!(s.policy(), SchedPolicy::RoundRobin);
        s.set_policy(SchedPolicy::LeastLoaded);
        assert_eq!(s.policy(), SchedPolicy::LeastLoaded);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        Scheduler::new(SchedPolicy::RoundRobin, 0);
    }
}
