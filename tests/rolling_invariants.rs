//! Property tests of the rolling-update dirty-set invariant through the
//! public API: at no point may more blocks be dirty than the rolling size
//! (paper §4.3 — "this protocol only allows a fixed number of blocks to be
//! in the dirty state on the CPU").

use adsm::gmac::{Gmac, GmacConfig, Protocol};
use adsm::hetsim::Platform;
use proptest::prelude::*;

const BLOCK: u64 = 4096;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn dirty_set_never_exceeds_rolling_size(
        rolling_size in 1usize..6,
        writes in proptest::collection::vec((0u64..64, 1u64..2 * BLOCK), 1..120),
    ) {
        let ctx = Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(BLOCK)
                .rolling_size(rolling_size),
        )
        .session();
        let obj = ctx.alloc(64 * BLOCK).unwrap();
        for (block_idx, len) in writes {
            let off = block_idx * BLOCK;
            let len = len.min(64 * BLOCK - off);
            ctx.store_slice(obj.byte_add(off), &vec![0xABu8; len as usize]).unwrap();
            let dirty = ctx.dirty_block_count();
            prop_assert!(
                dirty <= rolling_size,
                "dirty {} exceeds rolling size {}",
                dirty,
                rolling_size
            );
        }
    }

    #[test]
    fn evicted_blocks_match_device_content(
        writes in proptest::collection::vec((0u64..16, any::<u8>()), 1..60),
    ) {
        // With rolling size 1, every second write evicts a block; the
        // evicted (read-only) block's device copy must equal the host copy.
        let ctx = Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(BLOCK)
                .rolling_size(1),
        )
        .session();
        let obj = ctx.alloc(16 * BLOCK).unwrap();
        let mut model = vec![0u8; (16 * BLOCK) as usize];
        for (block_idx, value) in writes {
            let off = (block_idx * BLOCK) as usize;
            ctx.store_slice(obj.byte_add(off as u64), &vec![value; BLOCK as usize]).unwrap();
            model[off..off + BLOCK as usize].fill(value);
        }
        // Force everything to the device, then read it all back.
        ctx.release_to_device()
            .unwrap();
        let got: Vec<u8> = ctx.load_slice(obj, (16 * BLOCK) as usize).unwrap();
        prop_assert_eq!(got, model);
    }
}

#[test]
fn adaptive_rolling_size_grows_with_allocations() {
    // Default config: rolling size += 2 per allocation. Five allocations
    // give a bound of 10 dirty blocks; an 11-block write pattern must evict.
    let ctx = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(BLOCK),
    )
    .session();
    let objs: Vec<_> = (0..5).map(|_| ctx.alloc(16 * BLOCK).unwrap()).collect();
    for (i, obj) in objs.iter().enumerate() {
        for b in 0..3u64 {
            ctx.store::<u8>(obj.byte_add(b * BLOCK), i as u8).unwrap();
        }
    }
    // 15 blocks dirtied; bound is 10.
    let dirty = ctx.dirty_block_count();
    assert!(dirty <= 10, "adaptive bound violated: {dirty}");
    assert!(dirty > 0);
}
