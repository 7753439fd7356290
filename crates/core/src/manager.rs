//! The shared-memory manager: the registry of live shared objects.
//!
//! The paper's memory manager "keeps a list of the starting address and size
//! of allocated shared memory objects" and locates the faulting block in "a
//! balanced binary tree, which requires O(log2(n)) operations" (§5.2). Both
//! structures are implemented here — the ordered-tree registry (default) and
//! a linear scan (ablation baseline) — selected by
//! [`crate::config::LookupKind`].
//!
//! Since the shard redesign the runtime keeps **one manager per device
//! shard** (`DeviceShard`), holding only the objects homed
//! on that accelerator; cross-device routing happens in the runtime's
//! read-mostly registry before a shard (and its manager) is locked. The
//! fault-handler lookup-cost model (`Manager::lookup_steps`) therefore
//! walks the per-device tree — faults on one accelerator's objects pay for
//! that device's population, not the whole platform's.
//!
//! Objects live in a **slab** (`Vec<Option<SharedObject>>`) indexed by a
//! stable slot id; the tree/linear structures only map start addresses to
//! slots. [`Manager::locate`] performs the O(log n) search once, and
//! `Manager::by_slot` re-reaches the object in O(1) — the access-fast-path
//! memo in `DeviceShard` caches `(range, slot)` so tight
//! loops skip the search entirely. Slots are reused after removal, so a memo
//! must be invalidated whenever an object is inserted or removed.

use crate::config::LookupKind;
use crate::object::{ObjectId, SharedObject};
use softmmu::VAddr;
use std::collections::BTreeMap;

/// Registry of live shared objects, addressable by any interior pointer.
#[derive(Debug)]
pub struct Manager {
    kind: LookupKind,
    /// Slab of objects; `None` marks a free slot awaiting reuse.
    slots: Vec<Option<SharedObject>>,
    /// Free-slot indices for reuse.
    free: Vec<usize>,
    /// Tree variant: start address -> slot.
    tree: BTreeMap<u64, usize>,
    /// Linear variant: unsorted (start, slot) pairs.
    linear: Vec<(u64, usize)>,
    next_id: u64,
    total_blocks: usize,
}

impl Manager {
    /// Creates an empty registry using the given lookup structure.
    pub fn new(kind: LookupKind) -> Self {
        Manager {
            kind,
            slots: Vec::new(),
            free: Vec::new(),
            tree: BTreeMap::new(),
            linear: Vec::new(),
            next_id: 1,
            total_blocks: 0,
        }
    }

    /// Allocates the next object id.
    pub fn next_id(&mut self) -> ObjectId {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Registers an object, returning its slab slot (stable until the
    /// object is removed; see [`Self::by_slot`]).
    ///
    /// # Panics
    /// Panics if the object's range overlaps a registered object (the
    /// allocator guarantees disjointness; overlap is a runtime bug).
    pub fn insert(&mut self, obj: SharedObject) -> usize {
        assert!(!self.overlaps(&obj), "overlapping shared objects");
        self.total_blocks += obj.block_count();
        let start = obj.addr().0;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(obj);
                slot
            }
            None => {
                self.slots.push(Some(obj));
                self.slots.len() - 1
            }
        };
        match self.kind {
            LookupKind::Tree => {
                self.tree.insert(start, slot);
            }
            LookupKind::Linear => self.linear.push((start, slot)),
        }
        slot
    }

    /// True when `obj`'s range intersects any registered object. Checking
    /// only the new range's two endpoints would miss an existing object
    /// strictly contained inside it, so the tree variant also inspects the
    /// first entry starting at-or-after the new start, and the linear
    /// variant scans everything.
    fn overlaps(&self, obj: &SharedObject) -> bool {
        match self.kind {
            LookupKind::Tree => {
                // Neighbour below: contains the new start?
                if self.find(obj.addr()).is_some() {
                    return true;
                }
                // Neighbour at/above: starts before the new end?
                self.tree
                    .range(obj.addr().0..)
                    .next()
                    .is_some_and(|(&start, _)| start < obj.end().0)
            }
            LookupKind::Linear => self
                .iter()
                .any(|o| o.addr() < obj.end() && obj.addr() < o.end()),
        }
    }

    /// Removes the object containing `addr`, returning it.
    pub(crate) fn remove(&mut self, addr: VAddr) -> Option<SharedObject> {
        let slot = self.locate(addr)?;
        let start = self.slots[slot].as_ref()?.addr().0;
        match self.kind {
            LookupKind::Tree => {
                self.tree.remove(&start);
            }
            LookupKind::Linear => {
                let idx = self.linear.iter().position(|&(s, _)| s == start)?;
                self.linear.swap_remove(idx);
            }
        }
        let obj = self.slots[slot].take()?;
        self.free.push(slot);
        self.total_blocks -= obj.block_count();
        Some(obj)
    }

    /// Slab slot of the object containing `addr` — the O(log n) (tree) or
    /// O(n) (linear) search the fault-handler cost model charges for.
    /// [`Self::by_slot`] then reaches the object in O(1); the shard-level
    /// memo caches the result to skip this search in tight loops.
    pub fn locate(&self, addr: VAddr) -> Option<usize> {
        match self.kind {
            LookupKind::Tree => self
                .tree
                .range(..=addr.0)
                .next_back()
                .map(|(_, &slot)| slot)
                .filter(|&slot| self.slots[slot].as_ref().is_some_and(|o| o.contains(addr))),
            LookupKind::Linear => self
                .linear
                .iter()
                .find(|&&(_, slot)| self.slots[slot].as_ref().is_some_and(|o| o.contains(addr)))
                .map(|&(_, slot)| slot),
        }
    }

    /// Object in slab slot `slot`, if live. O(1).
    pub(crate) fn by_slot(&self, slot: usize) -> Option<&SharedObject> {
        self.slots.get(slot)?.as_ref()
    }

    /// Object in slab slot `slot`, mutable. O(1).
    pub(crate) fn by_slot_mut(&mut self, slot: usize) -> Option<&mut SharedObject> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// The object containing `addr`, if any.
    pub(crate) fn find(&self, addr: VAddr) -> Option<&SharedObject> {
        let slot = self.locate(addr)?;
        self.slots[slot].as_ref()
    }

    /// The object containing `addr`, mutable.
    pub(crate) fn find_mut(&mut self, addr: VAddr) -> Option<&mut SharedObject> {
        let slot = self.locate(addr)?;
        self.slots[slot].as_mut()
    }

    /// Number of live objects.
    pub(crate) fn len(&self) -> usize {
        match self.kind {
            LookupKind::Tree => self.tree.len(),
            LookupKind::Linear => self.linear.len(),
        }
    }

    /// Number of steps the configured lookup structure needs to locate a
    /// block among `total_blocks` entries.
    ///
    /// This models the *paper's* fault-handler walk and is charged to
    /// virtual time on every fault-equivalent, whether or not the wall-clock
    /// search was skipped by the shard memo — the fast path changes how fast
    /// the simulator runs, never what it simulates.
    pub(crate) fn lookup_steps(&self) -> u64 {
        let n = self.total_blocks.max(1) as u64;
        match self.kind {
            // Balanced-tree walk: ceil(log2(n + 1)).
            LookupKind::Tree => 64 - n.leading_zeros() as u64,
            // Expected half-scan.
            LookupKind::Linear => (n / 2).max(1),
        }
    }

    /// Iterates over all objects (address order for the tree variant).
    pub(crate) fn iter(&self) -> Box<dyn Iterator<Item = &SharedObject> + '_> {
        match self.kind {
            LookupKind::Tree => Box::new(
                self.tree
                    .values()
                    .filter_map(|&slot| self.slots[slot].as_ref()),
            ),
            LookupKind::Linear => Box::new(
                self.linear
                    .iter()
                    .filter_map(|&(_, slot)| self.slots[slot].as_ref()),
            ),
        }
    }

    /// Start addresses of all objects (snapshot, avoids borrow conflicts in
    /// protocol loops; address order for the tree variant). For mutation
    /// loops, iterate this snapshot and go through [`Self::find_mut`] — a
    /// slab-backed `iter_mut` would yield slot order, silently diverging
    /// from [`Self::iter`]'s address order.
    pub(crate) fn addrs(&self) -> Vec<VAddr> {
        self.iter().map(|o| o.addr()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;
    use crate::state::BlockState;
    use hetsim::{DevAddr, DeviceId};
    use softmmu::RegionId;

    fn obj(id: u64, addr: u64, size: u64) -> SharedObject {
        SharedObject::new(
            ObjectId(id),
            VAddr(addr),
            size,
            DeviceId(0),
            DevAddr(addr),
            RegionId(id),
            4096,
            BlockState::ReadOnly,
        )
    }

    fn both() -> [Manager; 2] {
        [
            Manager::new(LookupKind::Tree),
            Manager::new(LookupKind::Linear),
        ]
    }

    #[test]
    fn find_by_interior_pointer() {
        for mut m in both() {
            m.insert(obj(1, 0x10_0000, 8192));
            m.insert(obj(2, 0x20_0000, 4096));
            assert_eq!(m.find(VAddr(0x10_0000)).unwrap().id(), ObjectId(1));
            assert_eq!(m.find(VAddr(0x10_1FFF)).unwrap().id(), ObjectId(1));
            assert!(m.find(VAddr(0x10_2000)).is_none());
            assert_eq!(m.find(VAddr(0x20_0010)).unwrap().id(), ObjectId(2));
            assert!(m.find(VAddr(0x30_0000)).is_none());
            assert!(m.find(VAddr(0xF_FFFF)).is_none());
            assert_eq!(m.len(), 2);
        }
    }

    #[test]
    fn remove_by_interior_pointer() {
        for mut m in both() {
            m.insert(obj(1, 0x10_0000, 8192));
            let o = m.remove(VAddr(0x10_0100)).unwrap();
            assert_eq!(o.id(), ObjectId(1));
            assert_eq!(m.len(), 0);
            assert_eq!(m.total_blocks, 0);
            assert!(m.remove(VAddr(0x10_0000)).is_none());
        }
    }

    #[test]
    fn locate_and_by_slot_reach_the_same_object() {
        for mut m in both() {
            let s1 = m.insert(obj(1, 0x10_0000, 8192));
            let s2 = m.insert(obj(2, 0x20_0000, 4096));
            assert_ne!(s1, s2);
            assert_eq!(m.locate(VAddr(0x10_1000)), Some(s1));
            assert_eq!(m.by_slot(s1).unwrap().id(), ObjectId(1));
            assert_eq!(m.by_slot_mut(s2).unwrap().id(), ObjectId(2));
            assert_eq!(m.locate(VAddr(0x30_0000)), None);
            // Removal frees the slot; a stale slot id observes None.
            m.remove(VAddr(0x10_0000)).unwrap();
            assert!(m.by_slot(s1).is_none());
            assert_eq!(m.locate(VAddr(0x10_0000)), None);
            // The freed slot is reused by the next insert.
            let s3 = m.insert(obj(3, 0x40_0000, 4096));
            assert_eq!(s3, s1, "slab reuses freed slots");
        }
    }

    #[test]
    fn total_blocks_tracks_inserts_and_removes() {
        for mut m in both() {
            m.insert(obj(1, 0x10_0000, 16384)); // 4 blocks of 4 KiB
            m.insert(obj(2, 0x20_0000, 4096)); // 1 block
            assert_eq!(m.total_blocks, 5);
            m.remove(VAddr(0x10_0000));
            assert_eq!(m.total_blocks, 1);
        }
    }

    #[test]
    fn lookup_steps_models() {
        let mut t = Manager::new(LookupKind::Tree);
        let mut l = Manager::new(LookupKind::Linear);
        for i in 0..16 {
            t.insert(obj(i + 1, 0x10_0000 + i * 0x10_000, 16384));
            l.insert(obj(i + 1, 0x10_0000 + i * 0x10_000, 16384));
        }
        // 64 blocks total: tree walks ~log2(64)=6..7 steps, linear ~32.
        assert!(t.lookup_steps() <= 8);
        assert!(l.lookup_steps() >= 30);
    }

    #[test]
    fn insert_rejects_contained_and_partial_overlaps() {
        // Regression: an existing object strictly inside the new range used
        // to slip past the endpoint-only check.
        for kind in [LookupKind::Tree, LookupKind::Linear] {
            let contained = std::panic::catch_unwind(|| {
                let mut m = Manager::new(kind);
                m.insert(obj(1, 0x10_4000, 4096)); // small object in the middle
                m.insert(obj(2, 0x10_0000, 0x10_000)); // new range strictly contains it
            });
            assert!(contained.is_err(), "containment must panic ({kind:?})");

            let partial = std::panic::catch_unwind(|| {
                let mut m = Manager::new(kind);
                m.insert(obj(1, 0x10_0000, 8192));
                m.insert(obj(2, 0x10_1000, 8192)); // overlaps the tail
            });
            assert!(partial.is_err(), "partial overlap must panic ({kind:?})");

            let identical = std::panic::catch_unwind(|| {
                let mut m = Manager::new(kind);
                m.insert(obj(1, 0x10_0000, 4096));
                m.insert(obj(2, 0x10_0000, 4096));
            });
            assert!(identical.is_err(), "identical range must panic ({kind:?})");
        }
    }

    #[test]
    fn insert_accepts_touching_neighbours() {
        for mut m in both() {
            m.insert(obj(1, 0x10_0000, 4096));
            // End-exclusive: a neighbour starting exactly at the end is fine.
            m.insert(obj(2, 0x10_1000, 4096));
            m.insert(obj(3, 0xF_F000, 4096)); // and one ending exactly at the start
            assert_eq!(m.len(), 3);
        }
    }

    #[test]
    fn find_mut_allows_state_changes() {
        for mut m in both() {
            m.insert(obj(1, 0x10_0000, 4096));
            m.find_mut(VAddr(0x10_0000))
                .unwrap()
                .set_state(0, BlockState::Dirty);
            assert_eq!(
                m.find(VAddr(0x10_0000)).unwrap().state(0),
                BlockState::Dirty
            );
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut m = Manager::new(LookupKind::Tree);
        let a = m.next_id();
        let b = m.next_id();
        assert_ne!(a, b);
    }

    #[test]
    fn addrs_snapshot_sorted_for_tree() {
        let mut m = Manager::new(LookupKind::Tree);
        m.insert(obj(1, 0x30_0000, 4096));
        m.insert(obj(2, 0x10_0000, 4096));
        assert_eq!(m.addrs(), vec![VAddr(0x10_0000), VAddr(0x30_0000)]);
    }
}
