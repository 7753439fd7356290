//! The async-DMA ablation contract: `GmacConfig::async_dma(false)` runs the
//! exact same transfer plans inline, so the two modes must be
//! **byte-identical** in everything the simulation observes — across
//! randomly generated access sequences here, and across the workload suite
//! in the `toggles` suite. Only the wall-clock bookkeeping counters
//! (`dma_wait_ns`, `jobs_overlapped`) may differ.
//!
//! Also the engine's lifecycle hazards: freeing an object whose flush is
//! still in flight must join (or fail with `ObjectInUse` under a pending
//! call), never use-after-free; and dropping the runtime with a non-empty
//! queue must drain and join the workers, never deadlock.

use gmac::{Gmac, GmacConfig, GmacError, Param, Protocol};
use hetsim::{Category, LaunchDims, Platform};
use proptest::prelude::*;

#[test]
fn streaming_evictions_land_inline_and_only_release_jobs_queue() {
    // A Rolling write stream over 64 KiB blocks (the `overlap` benchmark's
    // geometry) with a two-block window: every first-write past the window
    // evicts the oldest dirty block. An eviction lands on the writing
    // thread whenever its device queue is idle, at any size, so between
    // calls nothing ever sits in the queue; a call's release flush (the two
    // adjacent window blocks, one coalesced job) is the only queued work,
    // and the call joins it before the next pass starts evicting.
    const BLOCK: u64 = 64 * 1024;
    const SIZE: usize = 32 * BLOCK as usize;
    let g = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(BLOCK)
            .rolling_size(2),
    );
    g.with_platform(|p| p.register_kernel(std::sync::Arc::new(gmac::testutil::NopKernel)));
    let s = g.session();
    let p = s.alloc(SIZE as u64).unwrap();
    let pattern: Vec<u8> = (0..SIZE).map(|i| (i / 251) as u8).collect();
    s.store_slice::<u8>(p, &pattern).unwrap();
    assert_eq!(g.counters().eager_evictions, 30, "the stream evicted");
    assert_eq!(g.report().dma_queue_high_water, 0, "no eviction was queued");
    for pass in 0..4u8 {
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .unwrap();
        s.sync().unwrap();
        s.store_slice::<u8>(p, &vec![pass; SIZE]).unwrap();
    }
    assert_eq!(g.counters().eager_evictions, 5 * 30);
    assert_eq!(
        g.report().dma_queue_high_water,
        1,
        "only one call's release job ever queued"
    );
    assert!(s.load_slice::<u8>(p, SIZE).unwrap().iter().all(|&b| b == 3));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..Default::default() })]
    fn random_sequences_identical_across_modes(
        proto_pick in 0u8..3,
        block_pow in 12u32..17,
        ops in proptest::collection::vec((0u64..60, 1u64..4097, 0u64..256), 1..16),
    ) {
        let protocol = match proto_pick {
            0 => Protocol::Batch,
            1 => Protocol::Lazy,
            _ => Protocol::Rolling,
        };
        const SIZE: u64 = 64 * 1024;
        let run = |async_dma: bool| -> (u64, hetsim::Nanos, u64, u64, u64) {
            let cfg = GmacConfig::default()
                .protocol(protocol)
                .block_size(1 << block_pow)
                .async_dma(async_dma);
            let g = Gmac::new(Platform::desktop_g280(), cfg);
            let s = g.session();
            let p = s.alloc(SIZE).expect("alloc");
            for &(off_kib, len, value) in &ops {
                let offset = off_kib * 1024;
                let len = len.min(SIZE - offset) as usize;
                s.store_slice::<u8>(p.byte_add(offset), &vec![value as u8; len])
                    .expect("store");
            }
            // Flush to the device (queues engine jobs in async mode), then
            // read everything back through the fault path.
            s.release_to_device()
                .expect("release");
            let bytes = s.load_slice::<u8>(p, SIZE as usize).expect("load");
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for b in bytes {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x100_0000_01b3);
            }
            let r = g.report();
            let c = r.counters;
            (digest, r.elapsed, c.faults_read + c.faults_write, c.bytes_flushed, c.bytes_fetched)
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(on, off);
    }
}

#[test]
fn modes_are_identical_on_both_sides_of_inline_max() {
    // One Rolling write / call / read / rewrite / call / read sequence at
    // `fault_storm`'s 4 KiB and `bulk_copy`'s 256 KiB blocks, whose
    // evictions both land inline: at either size the engine must be
    // indistinguishable from the `async_dma(false)` ablation in everything
    // the simulation observes.
    const BLOCKS: u64 = 16;
    for block in [4 * 1024, 256 * 1024] {
        let size = (BLOCKS * block) as usize;
        let run = |async_dma: bool| {
            let cfg = GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(block)
                .rolling_size(2)
                .async_dma(async_dma);
            let g = Gmac::new(Platform::desktop_g280(), cfg);
            g.with_platform(|p| p.register_kernel(std::sync::Arc::new(gmac::testutil::NopKernel)));
            let s = g.session();
            let p = s.alloc(size as u64).unwrap();
            let call = || {
                s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
                    .unwrap();
                s.sync().unwrap();
            };
            let pattern: Vec<u8> = (0..size).map(|i| (i / 97) as u8).collect();
            // 16 first-writes under a rolling size of 2: 14 eager evictions.
            s.store_slice::<u8>(p, &pattern).unwrap();
            call();
            // Everything Invalid: the read fetches what the evictions and
            // the release landed on the device.
            let first = s.load_slice::<u8>(p, size).unwrap();
            assert_eq!(first, pattern, "block {block}, async {async_dma}");
            // Scattered partial rewrites: a write fault, then an eviction of
            // the block dirtied two stores earlier, every other block.
            for b in (0..BLOCKS).step_by(2) {
                s.store::<u32>(p.byte_add(b * block + 8), 0xD1D1_0000 + b as u32)
                    .unwrap();
            }
            call();
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for b in s.load_slice::<u8>(p, size).unwrap() {
                digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            let ledger = g.ledger();
            let c = g.counters();
            let observed = (
                digest,
                g.elapsed(),
                Category::ALL.map(|cat| ledger.get(cat)),
                [c.faults_read, c.faults_write, c.eager_evictions],
                [c.blocks_fetched, c.blocks_flushed],
                [c.bytes_fetched, c.bytes_flushed],
                g.transfers(),
            );
            (observed, c.eager_evictions, g.report().dma_queue_high_water)
        };
        let (on, evictions, high_water) = run(true);
        let (off, _, _) = run(false);
        assert_eq!(evictions, 14 + 6, "block {block}: the evictions ran");
        assert_eq!(
            on, off,
            "block {block}: digest, virtual time, ledger categories, fault/eviction, \
             block and byte counts, TransferLedger"
        );
        // Inline landings never sit in the queue: only the release jobs do
        // (one, then two non-adjacent blocks).
        assert!(high_water <= 2, "block {block}: evictions land inline");
    }
}

#[test]
fn free_while_a_flush_is_in_flight_joins_and_succeeds() {
    // Rolling: the release queues flush jobs on the engine; the free must
    // join the object's jobs before unmapping so no worker lands bytes into
    // a recycled device range.
    let g = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(64 * 1024),
    );
    let s = g.session();
    let p = s.alloc(4 << 20).unwrap();
    s.store_slice::<u8>(p, &vec![0xA5; 4 << 20]).unwrap();
    s.release_to_device().unwrap();
    s.free(p).unwrap();
    // The device range is immediately reusable: a fresh object over the
    // same memory round-trips its own bytes.
    let q = s.alloc(4 << 20).unwrap();
    s.store_slice::<u8>(q, &vec![0x3C; 4 << 20]).unwrap();
    s.release_to_device().unwrap();
    let back = s.load_slice::<u8>(q, 4 << 20).unwrap();
    assert!(back.iter().all(|&b| b == 0x3C), "recycled range corrupted");
}

#[test]
fn free_under_a_pending_call_is_object_in_use() {
    let g = Gmac::new(Platform::desktop_g280(), GmacConfig::default());
    g.with_platform(|p| p.register_kernel(std::sync::Arc::new(gmac::testutil::NopKernel)));
    let s = g.session();
    let p = s.alloc(64 * 1024).unwrap();
    s.store_slice::<u8>(p, &[1u8; 1024]).unwrap();
    s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
        .unwrap();
    // In flight: never a use-after-free, always a clean error.
    assert!(matches!(s.free(p), Err(GmacError::ObjectInUse { .. })));
    s.sync().unwrap();
    s.free(p).unwrap();
}

#[test]
fn dropping_gmac_with_queued_jobs_drains_and_never_deadlocks() {
    // Watchdog pattern: the whole lifecycle runs on a helper thread; if
    // engine shutdown deadlocks (worker waiting on a notify that never
    // comes, or Drop joining a parked worker) the recv below times out
    // instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let g = Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(64 * 1024),
        );
        let s = g.session();
        let p = s.alloc(8 << 20).unwrap();
        s.store_slice::<u8>(p, &vec![7u8; 8 << 20]).unwrap();
        // Queue a burst of flush jobs and drop everything immediately:
        // session, shards, then the engine with whatever is still queued.
        s.release_to_device().unwrap();
        drop(s);
        drop(g);
        tx.send(()).unwrap();
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("engine shutdown deadlocked");
}
