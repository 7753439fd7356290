//! A four-level radix page table, mirroring x86-64 long-mode paging over the
//! 48-bit simulated address space (9+9+9+9 index bits above the 12-bit page
//! offset).

use crate::addr::VPage;
use crate::frame::FrameId;
use crate::prot::Protection;
use crate::space::RegionId;

const FANOUT: usize = 512;
const LEVEL_BITS: u32 = 9;

/// A page-table entry: backing frame, permissions, owning region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pte {
    /// Backing physical frame.
    pub frame: FrameId,
    /// Current permissions (driven by the coherence protocol).
    pub prot: Protection,
    /// The mapped region this page belongs to.
    pub region: RegionId,
}

#[derive(Debug)]
struct Node<T> {
    children: Box<[Option<T>]>,
    live: usize,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            children: std::iter::repeat_with(|| None).take(FANOUT).collect(),
            live: 0,
        }
    }
}

type L1 = Node<Pte>;
type L2 = Node<Box<L1>>;
type L3 = Node<Box<L2>>;
type L4 = Node<Box<L3>>;

/// The radix page table.
#[derive(Debug)]
pub(crate) struct PageTable {
    root: L4,
    mapped: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

fn indices(page: VPage) -> [usize; 4] {
    let v = page.0;
    let mask = (1u64 << LEVEL_BITS) - 1;
    [
        ((v >> (3 * LEVEL_BITS)) & mask) as usize,
        ((v >> (2 * LEVEL_BITS)) & mask) as usize,
        ((v >> LEVEL_BITS) & mask) as usize,
        (v & mask) as usize,
    ]
}

impl PageTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        PageTable {
            root: Node::new(),
            mapped: 0,
        }
    }

    /// Number of mapped pages.
    pub(crate) fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Installs a mapping, returning the previous entry if one existed.
    pub(crate) fn map(&mut self, page: VPage, pte: Pte) -> Option<Pte> {
        let [i4, i3, i2, i1] = indices(page);
        let l3 = get_or_insert(&mut self.root, i4);
        let l2 = get_or_insert(l3, i3);
        let l1 = get_or_insert(l2, i2);
        let prev = l1.children[i1].replace(pte);
        if prev.is_none() {
            l1.live += 1;
            self.mapped += 1;
        }
        prev
    }

    /// Removes a mapping, returning it. Empty intermediate nodes are pruned.
    pub(crate) fn unmap(&mut self, page: VPage) -> Option<Pte> {
        let [i4, i3, i2, i1] = indices(page);
        let l3 = self.root.children[i4].as_mut()?;
        let l2 = l3.children[i3].as_mut()?;
        let l1 = l2.children[i2].as_mut()?;
        let prev = l1.children[i1].take()?;
        l1.live -= 1;
        self.mapped -= 1;
        // Prune empty subtrees so long-running simulations do not leak nodes.
        if l1.live == 0 {
            l2.children[i2] = None;
            l2.live -= 1;
            if l2.live == 0 {
                l3.children[i3] = None;
                l3.live -= 1;
                if l3.live == 0 {
                    self.root.children[i4] = None;
                    self.root.live -= 1;
                }
            }
        }
        Some(prev)
    }

    /// Walks the table for `page`.
    pub(crate) fn lookup(&self, page: VPage) -> Option<&Pte> {
        let [i4, i3, i2, i1] = indices(page);
        self.root.children[i4].as_ref()?.children[i3]
            .as_ref()?
            .children[i2]
            .as_ref()?
            .children[i1]
            .as_ref()
    }

    /// Walks the table for `page`, mutably.
    pub(crate) fn lookup_mut(&mut self, page: VPage) -> Option<&mut Pte> {
        let [i4, i3, i2, i1] = indices(page);
        self.root.children[i4].as_mut()?.children[i3]
            .as_mut()?
            .children[i2]
            .as_mut()?
            .children[i1]
            .as_mut()
    }

    /// Changes the protection of a mapped page; returns the old protection.
    pub(crate) fn protect(&mut self, page: VPage, prot: Protection) -> Option<Protection> {
        let pte = self.lookup_mut(page)?;
        let old = pte.prot;
        pte.prot = prot;
        Some(old)
    }
}

fn get_or_insert<T>(node: &mut Node<Box<Node<T>>>, idx: usize) -> &mut Node<T> {
    if node.children[idx].is_none() {
        node.children[idx] = Some(Box::new(Node::new()));
        node.live += 1;
    }
    node.children[idx].as_mut().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameArena;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn pte(arena: &mut FrameArena, prot: Protection) -> Pte {
        Pte {
            frame: arena.alloc(),
            prot,
            region: RegionId(1),
        }
    }

    #[test]
    fn map_lookup_unmap_roundtrip() {
        let mut t = PageTable::new();
        let mut a = FrameArena::new();
        let p = VPage(0x1_2345);
        let e = pte(&mut a, Protection::ReadOnly);
        assert!(t.map(p, e).is_none());
        assert_eq!(t.mapped_pages(), 1);
        assert_eq!(t.lookup(p), Some(&e));
        assert_eq!(t.unmap(p), Some(e));
        assert_eq!(t.lookup(p), None);
        assert_eq!(t.mapped_pages(), 0);
    }

    #[test]
    fn distant_pages_do_not_interfere() {
        let mut t = PageTable::new();
        let mut a = FrameArena::new();
        // Pages in very different parts of the 48-bit space.
        let pages = [
            VPage(0),
            VPage(0x7fff_ffff),
            VPage(1 << 35),
            VPage(0xF_FFFF_FFFF),
        ];
        for (i, &p) in pages.iter().enumerate() {
            let e = Pte {
                frame: a.alloc(),
                prot: Protection::ReadWrite,
                region: RegionId(i as u64),
            };
            t.map(p, e);
        }
        assert_eq!(t.mapped_pages(), 4);
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(t.lookup(p).unwrap().region, RegionId(i as u64));
        }
    }

    #[test]
    fn remap_returns_previous() {
        let mut t = PageTable::new();
        let mut a = FrameArena::new();
        let p = VPage(42);
        let e1 = pte(&mut a, Protection::None);
        let e2 = pte(&mut a, Protection::ReadWrite);
        t.map(p, e1);
        assert_eq!(t.map(p, e2), Some(e1));
        assert_eq!(t.mapped_pages(), 1, "remap does not double count");
    }

    #[test]
    fn protect_updates_in_place() {
        let mut t = PageTable::new();
        let mut a = FrameArena::new();
        let p = VPage(7);
        t.map(p, pte(&mut a, Protection::None));
        assert_eq!(t.protect(p, Protection::ReadWrite), Some(Protection::None));
        assert_eq!(t.lookup(p).unwrap().prot, Protection::ReadWrite);
        assert_eq!(t.protect(VPage(8), Protection::None), None, "unmapped page");
    }

    #[test]
    fn unmap_prunes_empty_subtrees() {
        let mut t = PageTable::new();
        let mut a = FrameArena::new();
        let p = VPage(0x123_4567);
        t.map(p, pte(&mut a, Protection::ReadOnly));
        t.unmap(p);
        // After pruning, the root has no children.
        assert_eq!(t.root.live, 0);
    }

    #[test]
    fn adjacent_pages_share_leaf() {
        let mut t = PageTable::new();
        let mut a = FrameArena::new();
        t.map(VPage(0x100), pte(&mut a, Protection::ReadOnly));
        t.map(VPage(0x101), pte(&mut a, Protection::ReadOnly));
        assert_eq!(t.root.live, 1, "one L3 subtree serves both pages");
        assert_eq!(t.mapped_pages(), 2);
    }

    #[derive(Debug, Clone)]
    enum TableOp {
        Map(u64, Protection),
        Unmap(u64),
        Protect(u64, Protection),
        Lookup(u64),
    }

    fn prot_strategy() -> impl Strategy<Value = Protection> {
        prop_oneof![
            Just(Protection::None),
            Just(Protection::ReadOnly),
            Just(Protection::ReadWrite),
        ]
    }

    fn table_op() -> impl Strategy<Value = TableOp> {
        // Confine pages to a small set so operations collide often.
        let page = 0u64..64;
        prop_oneof![
            (page.clone(), prot_strategy()).prop_map(|(p, pr)| TableOp::Map(p, pr)),
            page.clone().prop_map(TableOp::Unmap),
            (page.clone(), prot_strategy()).prop_map(|(p, pr)| TableOp::Protect(p, pr)),
            page.prop_map(TableOp::Lookup),
        ]
    }

    proptest! {
        /// The radix page table behaves exactly like a HashMap<page, pte>.
        #[test]
        fn page_table_matches_hashmap_model(ops in proptest::collection::vec(table_op(), 1..200)) {
            let mut table = PageTable::new();
            let mut model: HashMap<u64, Pte> = HashMap::new();
            let mut arena = FrameArena::new();

            for op in ops {
                match op {
                    TableOp::Map(p, prot) => {
                        let pte = Pte { frame: arena.alloc(), prot, region: RegionId(p) };
                        let got = table.map(VPage(p), pte);
                        let want = model.insert(p, pte);
                        prop_assert_eq!(got, want);
                    }
                    TableOp::Unmap(p) => {
                        prop_assert_eq!(table.unmap(VPage(p)), model.remove(&p));
                    }
                    TableOp::Protect(p, prot) => {
                        let got = table.protect(VPage(p), prot);
                        let want = model.get_mut(&p).map(|e| {
                            let old = e.prot;
                            e.prot = prot;
                            old
                        });
                        prop_assert_eq!(got, want);
                    }
                    TableOp::Lookup(p) => {
                        prop_assert_eq!(table.lookup(VPage(p)).copied(), model.get(&p).copied());
                    }
                }
                prop_assert_eq!(table.mapped_pages(), model.len() as u64);
            }
        }
    }
}
