//! Edge cases of the §4.4 `memset` interposition: partial-dirty-block
//! flush-before-fill, unaligned offsets and lengths, and fills spanning the
//! short tail block of an object.

use gmac::{Gmac, GmacConfig, Protocol, Session};
use hetsim::Platform;

const BLOCK: u64 = 16 * 1024;

fn session(protocol: Protocol) -> Session {
    Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default().protocol(protocol).block_size(BLOCK),
    )
    .session()
}

#[test]
fn partial_dirty_block_is_flushed_before_fill() {
    // Dirty bytes of a block that the fill only partially covers must
    // survive: the protocol flushes the block to the device before the
    // device-side fill lands, and a later read merges both.
    for protocol in Protocol::ALL {
        let c = session(protocol);
        let p = c.alloc(4 * BLOCK).unwrap();
        // Dirty the whole second block.
        c.store_slice::<u8>(p.byte_add(BLOCK), &vec![0xAA; BLOCK as usize])
            .unwrap();
        // Fill only the middle of that block.
        c.memset(p.byte_add(BLOCK + 1000), 0x55, 2000).unwrap();
        let out = c
            .load_slice::<u8>(p.byte_add(BLOCK), BLOCK as usize)
            .unwrap();
        assert!(
            out[..1000].iter().all(|&b| b == 0xAA),
            "{protocol}: prefix kept"
        );
        assert!(
            out[1000..3000].iter().all(|&b| b == 0x55),
            "{protocol}: fill landed"
        );
        assert!(
            out[3000..].iter().all(|&b| b == 0xAA),
            "{protocol}: suffix kept"
        );
    }
}

#[test]
fn unaligned_offset_and_len_spanning_block_boundary() {
    for protocol in Protocol::ALL {
        let c = session(protocol);
        let p = c.alloc(4 * BLOCK).unwrap();
        c.store_slice::<u8>(p, &vec![0x11; (4 * BLOCK) as usize])
            .unwrap();
        // Straddles the boundary between blocks 0 and 1 at odd offsets.
        let off = BLOCK - 333;
        let len = 777;
        c.memset(p.byte_add(off), 0x99, len).unwrap();
        let out = c.load_slice::<u8>(p, (4 * BLOCK) as usize).unwrap();
        let (off, len) = (off as usize, len as usize);
        assert!(
            out[..off].iter().all(|&b| b == 0x11),
            "{protocol}: before fill"
        );
        assert!(
            out[off..off + len].iter().all(|&b| b == 0x99),
            "{protocol}: fill"
        );
        assert!(
            out[off + len..].iter().all(|&b| b == 0x11),
            "{protocol}: after fill"
        );
    }
}

#[test]
fn fill_spanning_object_tail() {
    // Page-sized allocations keep the requested size, so a 2.5-block object
    // has a short tail block; a fill running to the very end must cover it.
    for protocol in Protocol::ALL {
        let c = session(protocol);
        let size = 2 * BLOCK + 8192; // page-multiple, short third block
        let p = c.alloc(size).unwrap();
        c.store_slice::<u8>(p, &vec![0x22; size as usize]).unwrap();
        c.memset(p.byte_add(BLOCK + 5), 0x77, size - BLOCK - 5)
            .unwrap();
        let out = c.load_slice::<u8>(p, size as usize).unwrap();
        let start = (BLOCK + 5) as usize;
        assert!(out[..start].iter().all(|&b| b == 0x22), "{protocol}");
        assert!(
            out[start..].iter().all(|&b| b == 0x77),
            "{protocol}: tail filled"
        );
    }
}

#[test]
fn fill_past_object_end_rejected_without_side_effects() {
    for protocol in Protocol::ALL {
        let c = session(protocol);
        let p = c.alloc(BLOCK).unwrap();
        c.store_slice::<u8>(p, &vec![0x33; BLOCK as usize]).unwrap();
        assert!(c.memset(p.byte_add(10), 0xFF, BLOCK).is_err(), "{protocol}");
        let out = c.load_slice::<u8>(p, BLOCK as usize).unwrap();
        assert!(
            out.iter().all(|&b| b == 0x33),
            "{protocol}: contents untouched"
        );
    }
}

#[test]
fn whole_object_fill_after_kernel_style_invalidation() {
    // memset over fully-invalid blocks must not fetch anything: the fill is
    // device-side and the blocks just flip to invalid.
    let c = session(Protocol::Rolling);
    let p = c.alloc(4 * BLOCK).unwrap();
    c.store_slice::<u8>(p, &vec![1u8; (4 * BLOCK) as usize])
        .unwrap();
    c.release_to_device().unwrap();
    let before = c.gmac().transfers().d2h_bytes;
    c.memset(p, 0x42, 4 * BLOCK).unwrap();
    assert_eq!(
        c.gmac().transfers().d2h_bytes,
        before,
        "no fetch for a full overwrite"
    );
    let out = c.load_slice::<u8>(p, (4 * BLOCK) as usize).unwrap();
    assert!(out.iter().all(|&b| b == 0x42));
}
