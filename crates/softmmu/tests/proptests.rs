//! Property tests: the address space agrees with a flat reference buffer
//! under arbitrary write sequences.

use proptest::prelude::*;
use softmmu::{AccessKind, AddressSpace, MmuError, Protection, VAddr, PAGE_SIZE};

proptest! {
    /// Checked byte access agrees with a flat reference buffer, and never
    /// succeeds where protection forbids it.
    #[test]
    fn address_space_matches_flat_buffer(
        writes in proptest::collection::vec((0u64..16384, proptest::collection::vec(any::<u8>(), 1..128)), 1..40),
        ro_page in 0u64..4,
    ) {
        let mut vm = AddressSpace::new();
        let base = VAddr(0x2_0000_0000);
        vm.map_fixed(base, 4 * PAGE_SIZE, Protection::ReadWrite).unwrap();
        let mut reference = vec![0u8; 4 * PAGE_SIZE as usize];

        // One page is read-only; writes touching it must fail atomically.
        let ro_start = ro_page * PAGE_SIZE;
        vm.protect(base + ro_start, PAGE_SIZE, Protection::ReadOnly).unwrap();

        for (off, data) in writes {
            let off = off.min(4 * PAGE_SIZE - data.len() as u64);
            let touches_ro = off < ro_start + PAGE_SIZE && off + data.len() as u64 > ro_start;
            let res = vm.write_bytes(base + off, &data);
            if touches_ro {
                prop_assert!(matches!(res, Err(MmuError::Fault(f)) if f.kind == AccessKind::Write));
            } else {
                prop_assert!(res.is_ok());
                reference[off as usize..off as usize + data.len()].copy_from_slice(&data);
            }
        }

        // Full readback (reads allowed everywhere) matches the reference.
        let mut out = vec![0u8; 4 * PAGE_SIZE as usize];
        vm.read_bytes(base, &mut out).unwrap();
        prop_assert_eq!(out, reference);
    }
}
