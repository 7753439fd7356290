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
//! * **placement of `adsmSafeAlloc` ranges**: the bump-allocation policy
//!   (guard page between regions) mirrors `softmmu`'s `map_anywhere`, so
//!   addresses are identical to the pre-shard runtime's.

use hetsim::DeviceId;
use softmmu::{VAddr, PAGE_SIZE, VADDR_LIMIT};
use std::collections::BTreeMap;

/// Base of the area used by safe-alloc (anywhere) claims, matching
/// `softmmu`'s anonymous-mmap base so safe allocations land at the same
/// addresses as under the old single address space.
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
    mmap_cursor: u64,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            claims: BTreeMap::new(),
            mmap_cursor: MMAP_BASE,
        }
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
    /// path), bump-allocating with a guard page exactly like the MMU's
    /// anonymous mmap. Returns `None` when the virtual space is exhausted.
    pub(crate) fn claim_anywhere(&mut self, len: u64, dev: DeviceId) -> Option<VAddr> {
        let len_rounded = VAddr(len).page_up().0;
        let mut addr = VAddr(self.mmap_cursor);
        while self.overlaps(addr, len_rounded) {
            let next = self
                .claims
                .range(addr.0..)
                .next()
                .map(|(_, c)| VAddr(c.end).page_up() + PAGE_SIZE)?;
            addr = next;
        }
        if addr.0 + len_rounded > VADDR_LIMIT {
            return None;
        }
        self.claims.insert(
            addr.0,
            Claim {
                end: addr.0 + len_rounded,
                dev,
            },
        );
        self.mmap_cursor = (addr + len_rounded + PAGE_SIZE).0;
        Some(addr)
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
}
