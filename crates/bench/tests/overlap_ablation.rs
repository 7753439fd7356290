//! The wall-clock half of the async-DMA ablation contract (the virtual-time
//! half — byte-identical digests, ledgers and fault counts across the
//! toggle — lives in the core crate's `async_dma` integration test).
//!
//! Digest equality across modes is asserted unconditionally, and so is the
//! routing that decides the wall-clock outcome: eager evictions land on the
//! writing thread instead of queueing for the worker.

use gmac::{Gmac, GmacConfig, Protocol};
use gmac_bench::overlap::{run_all, Scale};
use hetsim::{DeviceId, Platform};

#[test]
fn overlap_modes_produce_identical_bytes() {
    // run_all asserts digest equality internally for every scenario.
    let results = run_all(Scale::quick());
    assert_eq!(results.len(), 2);
    for r in &results {
        assert!(r.async_on.wall_ns > 0 && r.async_off.wall_ns > 0, "timed");
        assert_eq!(
            r.async_off.jobs_overlapped, 0,
            "{}: inline mode must never overlap",
            r.name
        );
    }
}

#[test]
fn write_stream_evictions_never_queue() {
    // The write-stream scenario's geometry (Rolling, 64 KiB blocks) with no
    // release in the way: every eager eviction finds its device queue idle
    // and lands on the writing thread, so nothing ever sits in the queue and
    // nothing is left to overlap. Deterministic on any core count; the
    // wall-clock case for this routing (queued evictions measured slower on
    // one CPU and on two) is in the README's async-DMA section.
    let g = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(64 * 1024),
    );
    let s = g.session();
    let p = s.alloc(Scale::quick().chunk_bytes as u64).expect("alloc");
    for pass in 0..3u8 {
        s.store_slice::<u8>(p, &vec![pass; Scale::quick().chunk_bytes])
            .expect("store");
    }
    let r = g.report();
    assert!(r.counters.eager_evictions > 0, "the stream evicted");
    assert_eq!(r.dma_queue_high_water, 0, "no eviction was queued");
    s.with_parts(|rt, _, _| rt.join_dma(DeviceId(0)))
        .expect("join");
    assert_eq!(
        g.counters().jobs_overlapped,
        0,
        "inline landings overlap nothing"
    );
}
