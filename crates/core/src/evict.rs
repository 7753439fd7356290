//! Victim selection for device-memory-as-a-cache eviction.
//!
//! When an allocation does not fit in a device window, the shard evicts
//! cold resident objects back to host until the first-fit allocator has a
//! large-enough free block (see `DeviceShard::evict_until_fits`). This
//! module owns the *policy* half of that machinery: per-object last-touch
//! stamps fed by the access fast path (`DeviceShard::locate`) and call
//! boundaries, an exact-LRU and a clock/second-chance ordering over them
//! ([`crate::EvictPolicy`]), and the host-tier accounting that decides when
//! cold evicted images spill on to the disk tier
//! ([`crate::GmacConfig::host_capacity`]).
//!
//! Everything here is **wall-clock-only bookkeeping**: touching a stamp
//! charges nothing to virtual time, and the selection itself only runs on
//! the out-of-memory path — so with sufficient device capacity, runs with
//! eviction on and off are byte-identical in virtual time (the `evict`
//! ablation tests enforce this).
//!
//! State is indexed by the manager's **slab slot** (stable for an object's
//! lifetime, reused after removal — exactly the contract the shard's object
//! memo already relies on), so a touch is one `Vec` store on the hot path.

use crate::config::EvictPolicy;

/// Per-shard eviction bookkeeping: touch stamps, clock bits and the
/// host-tier image ledger, indexed by manager slab slot.
#[derive(Debug)]
pub(crate) struct EvictState {
    policy: EvictPolicy,
    /// Monotonic touch counter (wall-clock-only; never charged).
    tick: u64,
    /// Last-touch tick per slot (0 = never touched since insert).
    stamps: Vec<u64>,
    /// Clock reference bit per slot.
    referenced: Vec<bool>,
    /// Clock hand: next slot index the sweep starts from.
    hand: usize,
    /// Evicted image sizes per slot (`0` = not evicted or spilled away);
    /// an image is counted here while its only copy lives in *host* memory.
    host_images: Vec<u64>,
    /// Slots whose evicted image has been written behind to the disk tier.
    spilled: Vec<bool>,
    /// Total bytes of evicted images currently held in host memory.
    host_bytes: u64,
}

impl EvictState {
    /// Creates empty bookkeeping for the given policy.
    pub(crate) fn new(policy: EvictPolicy) -> Self {
        EvictState {
            policy,
            tick: 0,
            stamps: Vec::new(),
            referenced: Vec::new(),
            hand: 0,
            host_images: Vec::new(),
            spilled: Vec::new(),
            host_bytes: 0,
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.stamps.len() {
            self.stamps.resize(slot + 1, 0);
            self.referenced.resize(slot + 1, false);
            self.host_images.resize(slot + 1, 0);
            self.spilled.resize(slot + 1, false);
        }
    }

    /// Records an access to the object in `slot` — one `Vec` store plus a
    /// counter bump, cheap enough for the per-access fast path.
    pub(crate) fn touch(&mut self, slot: usize) {
        self.ensure(slot);
        self.tick += 1;
        self.stamps[slot] = self.tick;
        self.referenced[slot] = true;
    }

    /// Clears a slot on object insert/remove (slab slots are reused).
    pub(crate) fn forget(&mut self, slot: usize) {
        if slot < self.stamps.len() {
            self.stamps[slot] = 0;
            self.referenced[slot] = false;
            debug_assert_eq!(self.host_images[slot], 0, "forget of a live host image");
            debug_assert!(!self.spilled[slot], "forget of a spilled image");
        }
    }

    /// Orders candidate slots coldest-first per the configured policy.
    ///
    /// * **LRU**: ascending last-touch stamp (never-touched slots first).
    /// * **Clock**: sweep order from the hand; candidates whose reference
    ///   bit is set get a second chance — the bit is cleared and they sort
    ///   after every unreferenced candidate (stamp-ordered within each
    ///   class so exhaustive eviction stays deterministic). The hand
    ///   advances past the first victim.
    pub(crate) fn order(&mut self, candidates: &[usize]) -> Vec<usize> {
        candidates.iter().for_each(|&s| self.ensure(s));
        let mut order: Vec<usize> = candidates.to_vec();
        match self.policy {
            EvictPolicy::Lru => order.sort_by_key(|&s| (self.stamps[s], s)),
            EvictPolicy::Clock => {
                let n = self.stamps.len().max(1);
                let hand = self.hand;
                let sweep = |s: usize| (s + n - hand % n) % n;
                // Unreferenced candidates first, in sweep order; referenced
                // ones lose their bit and queue behind.
                order.sort_by_key(|&s| (self.referenced[s], sweep(s)));
                for &s in candidates {
                    self.referenced[s] = false;
                }
                if let Some(&first) = order.first() {
                    self.hand = (first + 1) % n;
                }
            }
        }
        order
    }

    // ----- host-tier image ledger ------------------------------------------

    /// Records an object's image landing in host memory at eviction.
    pub(crate) fn note_evicted(&mut self, slot: usize, bytes: u64) {
        self.ensure(slot);
        debug_assert_eq!(self.host_images[slot], 0, "double eviction");
        self.host_images[slot] = bytes;
        self.host_bytes += bytes;
    }

    /// Releases a slot's evicted image (re-fetch or free). Returns `true`
    /// when the image had been spilled to disk — the caller then prices the
    /// read-back (or removes the spill file on free).
    pub(crate) fn release_image(&mut self, slot: usize) -> bool {
        self.ensure(slot);
        let was_spilled = self.spilled[slot];
        if !was_spilled {
            self.host_bytes = self.host_bytes.saturating_sub(self.host_images[slot]);
        }
        self.host_images[slot] = 0;
        self.spilled[slot] = false;
        was_spilled
    }

    /// Slots whose images must spill to disk to bring the host ledger back
    /// under `budget`, coldest first. Marks them spilled and moves their
    /// bytes out of the host ledger; the caller performs (and prices) the
    /// write-behind file writes.
    pub(crate) fn overflow(&mut self, budget: u64) -> Vec<(usize, u64)> {
        let mut victims = Vec::new();
        if self.host_bytes <= budget {
            return victims;
        }
        let mut held: Vec<usize> = (0..self.host_images.len())
            .filter(|&s| self.host_images[s] > 0 && !self.spilled[s])
            .collect();
        held.sort_by_key(|&s| (self.stamps[s], s));
        for slot in held {
            if self.host_bytes <= budget {
                break;
            }
            let bytes = self.host_images[slot];
            self.spilled[slot] = true;
            self.host_bytes -= bytes;
            victims.push((slot, bytes));
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_orders_by_last_touch() {
        let mut e = EvictState::new(EvictPolicy::Lru);
        e.touch(0);
        e.touch(1);
        e.touch(2);
        e.touch(0); // 0 is now the warmest
        assert_eq!(e.order(&[0, 1, 2]), vec![1, 2, 0]);
        // Never-touched slots are the coldest of all.
        assert_eq!(e.order(&[0, 1, 5]), vec![5, 1, 0]);
    }

    #[test]
    fn clock_gives_referenced_slots_a_second_chance() {
        let mut e = EvictState::new(EvictPolicy::Clock);
        e.touch(0);
        e.touch(1);
        e.touch(2);
        // All referenced: the sweep clears every bit; sweep order from the
        // hand (0) decides.
        assert_eq!(e.order(&[0, 1, 2]), vec![0, 1, 2]);
        // Bits are now clear; re-touch 0 only. 0 gets the second chance and
        // sorts last; hand advanced past the previous first victim.
        e.touch(0);
        let order = e.order(&[0, 1, 2]);
        assert_eq!(*order.last().unwrap(), 0, "referenced slot evicts last");
        assert!(!order.is_empty() && order[0] != 0);
    }

    #[test]
    fn forget_resets_reused_slots() {
        let mut e = EvictState::new(EvictPolicy::Lru);
        e.touch(3);
        e.forget(3);
        // Slot 3 reads as never-touched again: coldest.
        e.touch(1);
        assert_eq!(e.order(&[1, 3]), vec![3, 1]);
    }

    #[test]
    fn host_ledger_tracks_evict_release_and_spill() {
        let mut e = EvictState::new(EvictPolicy::Lru);
        e.touch(0);
        e.touch(1);
        e.note_evicted(0, 4096);
        e.note_evicted(1, 8192);
        assert_eq!(e.host_bytes, 12288);
        // Over an 8 KiB budget: the coldest image (slot 0) spills first,
        // and spilling continues until the ledger fits.
        let spilled = e.overflow(8192);
        assert_eq!(spilled, vec![(0, 4096)]);
        assert!(e.spilled[0]);
        assert_eq!(e.host_bytes, 8192);
        // Releasing a spilled image reports it so the caller prices the
        // disk read-back; releasing a host image just shrinks the ledger.
        assert!(e.release_image(0));
        assert!(!e.release_image(1));
        assert_eq!(e.host_bytes, 0);
        assert!(!e.spilled[0]);
    }

    #[test]
    fn overflow_under_budget_spills_nothing() {
        let mut e = EvictState::new(EvictPolicy::Clock);
        e.note_evicted(2, 4096);
        assert!(e.overflow(4096).is_empty());
        assert_eq!(e.host_bytes, 4096);
    }
}
