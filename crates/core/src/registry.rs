//! The shared-object **registry**: the read-mostly routing layer of the
//! sharded runtime.
//!
//! The registry is the only structure that spans devices. It records, for
//! every live shared object, the claimed host virtual range and the device
//! the object is homed on — nothing else. Everything mutable per access
//! (block states, page protections, host frames, protocol bookkeeping) lives
//! inside that device's [`crate::shard::DeviceShard`], so the hot
//! translate/load/store paths only take this registry's `RwLock` **for
//! reading** before locking exactly one shard.
//!
//! The registry also owns the two address-space-wide decisions the per-shard
//! MMUs cannot make on their own:
//!
//! * **collision detection** for the unified-address `mmap` trick (paper
//!   §4.2): two devices' memory windows may overlap, and the second unified
//!   allocation at a taken host range must fail with
//!   [`crate::GmacError::AddressCollision`] exactly as under the old global
//!   MMU;
//! * **placement of `adsmSafeAlloc` ranges**: first fit over the gaps
//!   between live claims from [`MMAP_BASE`], one guard page after every
//!   claim. Freed ranges are reused, so a long alloc/free loop stays in a
//!   bounded range; without frees each claim lands one guard page past the
//!   previous one.

use hetsim::DeviceId;
use softmmu::{VAddr, PAGE_SIZE, VADDR_LIMIT};
use std::collections::BTreeMap;

/// Base of the area used by safe-alloc (anywhere) claims, far above every
/// simulated device window.
const MMAP_BASE: u64 = 0x7000_0000_0000;

/// One claimed host range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Claim {
    /// One past the last byte of the claim.
    pub(crate) end: u64,
    /// Device the object is homed on (which shard owns it).
    pub(crate) dev: DeviceId,
}

/// Address-range → home-device routing map (see module docs).
#[derive(Debug, Default)]
pub(crate) struct Registry {
    claims: BTreeMap<u64, Claim>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry::default()
    }

    /// The claim containing `addr`: `(object start, home device)`.
    pub(crate) fn route(&self, addr: VAddr) -> Option<(VAddr, DeviceId)> {
        self.route_full(addr).map(|(start, _, dev)| (start, dev))
    }

    /// [`Self::route`] plus the claim's end — what a route memo needs to
    /// answer interior-pointer hits without re-searching.
    pub(crate) fn route_full(&self, addr: VAddr) -> Option<(VAddr, u64, DeviceId)> {
        self.claims
            .range(..=addr.0)
            .next_back()
            .filter(|(&start, c)| addr.0 >= start && addr.0 < c.end)
            .map(|(&start, c)| (VAddr(start), c.end, c.dev))
    }

    /// True when `[addr, addr+len)` intersects an existing claim.
    fn overlaps(&self, addr: VAddr, len: u64) -> bool {
        let end = addr.0 + len;
        self.claims
            .range(..end)
            .next_back()
            .map(|(_, c)| c.end > addr.0)
            .unwrap_or(false)
    }

    /// Claims `[addr, addr+len)` for `dev` (the unified-address path). `len`
    /// must already be page-rounded. Returns `false` on collision.
    pub(crate) fn claim_fixed(&mut self, addr: VAddr, len: u64, dev: DeviceId) -> bool {
        if self.overlaps(addr, len) {
            return false;
        }
        self.claims.insert(
            addr.0,
            Claim {
                end: addr.0 + len,
                dev,
            },
        );
        true
    }

    /// Claims `len` bytes at a registry-chosen address (the safe-alloc
    /// path): the lowest address at or above [`MMAP_BASE`] that leaves a
    /// guard page after the claim before it and after itself. Returns `None`
    /// when the virtual space is exhausted.
    pub(crate) fn claim_anywhere(&mut self, len: u64, dev: DeviceId) -> Option<VAddr> {
        let len = VAddr(len).page_up().0;
        let mut addr = MMAP_BASE;
        // A claim straddling the base pushes the first candidate past it.
        if let Some((_, c)) = self.claims.range(..MMAP_BASE).next_back() {
            addr = addr.max(VAddr(c.end).page_up().0 + PAGE_SIZE);
        }
        for (&start, c) in self.claims.range(MMAP_BASE..) {
            if addr + len + PAGE_SIZE <= start {
                break;
            }
            addr = addr.max(VAddr(c.end).page_up().0 + PAGE_SIZE);
        }
        if addr + len > VADDR_LIMIT {
            return None;
        }
        self.claims.insert(
            addr,
            Claim {
                end: addr + len,
                dev,
            },
        );
        Some(VAddr(addr))
    }

    /// Releases the claim starting exactly at `start`.
    pub(crate) fn release(&mut self, start: VAddr) {
        self.claims.remove(&start.0);
    }

    /// Number of live claims (== live shared objects).
    pub(crate) fn len(&self) -> usize {
        self.claims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const D0: DeviceId = DeviceId(0);
    const D1: DeviceId = DeviceId(1);

    #[test]
    fn routes_by_interior_pointer() {
        let mut r = Registry::new();
        assert!(r.claim_fixed(VAddr(0x10_0000), 8192, D0));
        assert!(r.claim_fixed(VAddr(0x20_0000), 4096, D1));
        assert_eq!(r.route(VAddr(0x10_0000)), Some((VAddr(0x10_0000), D0)));
        assert_eq!(r.route(VAddr(0x10_1FFF)), Some((VAddr(0x10_0000), D0)));
        assert_eq!(r.route(VAddr(0x10_2000)), None);
        assert_eq!(r.route(VAddr(0x20_0800)), Some((VAddr(0x20_0000), D1)));
        assert_eq!(r.len(), 2);
        r.release(VAddr(0x10_0000));
        assert_eq!(r.route(VAddr(0x10_0000)), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn fixed_claims_collide_across_devices() {
        // The §4.2 multi-accelerator case: overlapping device windows mean
        // the second unified claim at the same host range must fail even
        // though it belongs to a different device.
        let mut r = Registry::new();
        assert!(r.claim_fixed(VAddr(0x2_0000_0000), 16384, D0));
        assert!(!r.claim_fixed(VAddr(0x2_0000_0000), 4096, D1));
        assert!(
            !r.claim_fixed(VAddr(0x1_FFFF_F000), 8192, D1),
            "tail overlap"
        );
        assert!(r.claim_fixed(VAddr(0x2_0000_4000), 4096, D1), "adjacent ok");
    }

    #[test]
    fn anywhere_claims_bump_with_guard_pages() {
        let mut r = Registry::new();
        let a = r.claim_anywhere(10 * PAGE_SIZE, D0).unwrap();
        let b = r.claim_anywhere(PAGE_SIZE, D1).unwrap();
        assert_eq!(a, VAddr(MMAP_BASE));
        assert!(
            b.0 >= a.0 + 10 * PAGE_SIZE + PAGE_SIZE,
            "guard page between"
        );
        assert_eq!(r.route(b), Some((b, D1)));
    }

    #[test]
    fn freed_anywhere_ranges_are_reused_first_fit() {
        let mut r = Registry::new();
        let a = r.claim_anywhere(2 * PAGE_SIZE, D0).unwrap();
        let b = r.claim_anywhere(PAGE_SIZE, D0).unwrap();
        let c = r.claim_anywhere(PAGE_SIZE, D0).unwrap();
        assert_eq!(b.0, a.0 + 3 * PAGE_SIZE);
        assert_eq!(c.0, b.0 + 2 * PAGE_SIZE);
        r.release(a);
        // Too big for the freed hole plus its guard page: goes past `c`.
        let d = r.claim_anywhere(3 * PAGE_SIZE, D0).unwrap();
        assert_eq!(d.0, c.0 + 2 * PAGE_SIZE);
        // Fits the hole with a guard page before `b`.
        assert_eq!(r.claim_anywhere(2 * PAGE_SIZE, D1), Some(a));
        assert_eq!(r.route(a), Some((a, D1)));
    }

    #[test]
    fn a_million_claim_release_cycles_stay_in_a_bounded_range() {
        let mut r = Registry::new();
        let live = r.claim_anywhere(PAGE_SIZE, D0).unwrap();
        let mut highest = 0;
        for i in 0..1_000_000u64 {
            let a = r.claim_anywhere((1 + i % 3) * PAGE_SIZE, D0).unwrap();
            highest = highest.max(a.0);
            r.release(a);
        }
        assert_eq!(live, VAddr(MMAP_BASE));
        assert_eq!(
            highest,
            MMAP_BASE + 2 * PAGE_SIZE,
            "every cycle reuses the hole"
        );
        assert_eq!(r.len(), 1);
    }

    proptest! {
        /// Anywhere claims never overlap each other and always leave a guard
        /// page between neighbours, under arbitrary claim/release mixes.
        #[test]
        fn anywhere_claims_are_disjoint_with_guard_pages(
            ops in proptest::collection::vec((1u64..100_000, any::<bool>()), 1..40),
        ) {
            let mut r = Registry::new();
            let mut live: Vec<VAddr> = Vec::new();
            for (len, release) in ops {
                if release && !live.is_empty() {
                    r.release(live.remove(len as usize % live.len()));
                    continue;
                }
                live.push(r.claim_anywhere(len, D0).unwrap());
                let ranges: Vec<(u64, u64)> = r.claims.iter().map(|(&s, c)| (s, c.end)).collect();
                for pair in ranges.windows(2) {
                    prop_assert!(pair[0].1 + PAGE_SIZE <= pair[1].0, "claims too close");
                }
            }
        }
    }
}
