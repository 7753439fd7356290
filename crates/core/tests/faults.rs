//! Fault-injection failpoints ([`hetsim::FaultPlan`]), exercised through the
//! full runtime: an injected device-memory or DMA failure must surface as a
//! precise [`SimError::FaultInjected`] diagnostic — naming the op, device and
//! ordinal — and must leave the runtime fully usable afterwards: no poisoned
//! locks, subsequent allocs/calls/syncs succeed, and Drop still drains the
//! background engine.

use gmac::{Gmac, GmacConfig, GmacError, Param, Protocol};
use hetsim::{FaultOp, FaultPlan, LaunchDims, Platform, SimError};
use std::sync::Arc;
use std::time::Duration;

fn nop_gmac(cfg: GmacConfig) -> Gmac {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(gmac::testutil::NopKernel));
    Gmac::new(platform, cfg)
}

fn assert_injected(err: GmacError, op: FaultOp) -> (usize, u64) {
    match err {
        GmacError::Sim(SimError::FaultInjected {
            op: got,
            device,
            nth,
        }) => {
            assert_eq!(got, op, "diagnostic names the failing op");
            (device, nth)
        }
        other => panic!("expected injected {op} fault, got {other:?}"),
    }
}

#[test]
fn dev_alloc_failpoint_fails_the_alloc_and_nothing_else() {
    let g = nop_gmac(GmacConfig::default());
    let s = g.session();
    // A successful alloc first: the failpoint keys on op ordinal, so this
    // also checks the counter starts before arming, not at process start.
    let warm = s.alloc(4096).unwrap();
    s.gmac()
        .with_platform(|p| p.arm_faults(FaultPlan::new().fail_nth(FaultOp::DevAlloc, 0)));
    let (device, nth) = assert_injected(s.alloc(4096).unwrap_err(), FaultOp::DevAlloc);
    assert_eq!(device, 0);
    assert_eq!(nth, 0);
    // The refused alloc left no half-created object behind.
    assert_eq!(g.object_count(), 1);
    s.gmac().with_platform(|p| p.disarm_faults());
    // Runtime fully usable: fresh alloc, kernel call, sync, data intact.
    let p = s.alloc(4096).unwrap();
    s.store::<u32>(p, 7).unwrap();
    s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
        .unwrap();
    s.sync().unwrap();
    assert_eq!(s.load::<u32>(p).unwrap(), 7);
    s.free(p).unwrap();
    s.free(warm).unwrap();
}

#[test]
fn reserve_failpoint_fails_the_issuing_op_before_any_worker_traffic() {
    // reserve_h2d runs inline on the issuing thread (the worker only
    // commits), so an injected reservation failure is a clean synchronous
    // error from the op that needed the transfer.
    let g = nop_gmac(
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(4096)
            .async_dma(true),
    );
    let s = g.session();
    let p = s.alloc(64 * 1024).unwrap();
    s.store::<u32>(p, 41).unwrap();
    s.gmac()
        .with_platform(|p| p.arm_faults(FaultPlan::new().fail_nth(FaultOp::ReserveH2d, 0)));
    let err = s
        .call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
        .unwrap_err();
    assert_injected(err, FaultOp::ReserveH2d);
    s.gmac().with_platform(|p| p.disarm_faults());
    // The failed call charged its release work but launched nothing; the
    // retry goes through and the data is whole.
    s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
        .unwrap();
    s.sync().unwrap();
    assert_eq!(s.load::<u32>(p).unwrap(), 41);
}

#[test]
fn mid_stream_commit_failure_surfaces_at_the_next_join_and_runtime_survives() {
    // The asynchronous path: the worker thread hits the injected commit
    // failure in the background; the error must be stashed and re-raised at
    // the next join — not lost, not panicking the worker — and after
    // disarming, the runtime (same device, same engine) keeps working.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let g = nop_gmac(
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(4096)
                .async_dma(true),
        );
        let s = g.session();
        let p = s.alloc(64 * 1024).unwrap();
        s.store_slice::<u8>(p, &[0xCD; 64 * 1024]).unwrap();
        s.gmac()
            .with_platform(|p| p.arm_faults(FaultPlan::new().fail_nth(FaultOp::CommitH2d, 0)));
        // The release submits the flush; the worker fails the commit. The
        // error surfaces at whichever join runs first — the launch's own
        // DMA barrier or the explicit sync — exactly once.
        let err = s
            .call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .err()
            .or_else(|| s.sync().err())
            .expect("injected commit failure was swallowed");
        let (device, nth) = assert_injected(err, FaultOp::CommitH2d);
        assert_eq!(device, 0);
        assert_eq!(nth, 0);
        s.gmac().with_platform(|p| p.disarm_faults());
        // First-error-at-next-join consumed the fault: the engine and the
        // shard stay live. Re-drive the same object end to end.
        s.store_slice::<u8>(p, &[0xEE; 64 * 1024]).unwrap();
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .unwrap();
        s.sync().unwrap();
        assert_eq!(s.load_slice::<u8>(p, 64 * 1024).unwrap(), [0xEE; 64 * 1024]);
        // A second object proves allocation paths weren't poisoned either.
        let q = s.alloc(8 * 1024).unwrap();
        s.store::<u32>(q, 9).unwrap();
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(q)])
            .unwrap();
        s.sync().unwrap();
        assert_eq!(s.load::<u32>(q).unwrap(), 9);
        drop(s);
        drop(g); // Drop drains the worker — must not deadlock or panic.
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("Drop wedged after an injected DMA failure");
}

#[test]
fn failed_eviction_keeps_its_victim_in_the_rolling_fifo() {
    // With a rolling size of 1 every first-write evicts the previous dirty
    // block. When that eviction's reservation fails the victim is still
    // Dirty and still counted, so it must stay the oldest FIFO entry — else
    // every later first-write finds only itself to evict, downgrades the
    // block it has just dirtied and fails as an unresolved fault. At 4 KiB
    // and at 256 KiB blocks: evictions of either size land inline.
    for block in [4096u64, 256 * 1024] {
        let g = nop_gmac(
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(block)
                .rolling_size(1),
        );
        let s = g.session();
        let p = s.alloc(16 * block).unwrap();
        s.store::<u32>(p, 1).unwrap();
        s.gmac()
            .with_platform(|p| p.arm_faults(FaultPlan::new().fail_nth(FaultOp::ReserveH2d, 0)));
        let err = s.store::<u32>(p.byte_add(block), 2).unwrap_err();
        assert_injected(err, FaultOp::ReserveH2d);
        s.gmac().with_platform(|p| p.disarm_faults());
        for b in 2..8u64 {
            s.store::<u32>(p.byte_add(b * block), b as u32)
                .unwrap_or_else(|e| panic!("block size {block}: first write to block {b}: {e}"));
            assert!(s.dirty_block_count() <= 1, "rolling bound holds again");
        }
        // Nothing was lost on the way: the kernel-side copy matches.
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .unwrap();
        s.sync().unwrap();
        let expect = [1, 0, 2, 3, 4, 5, 6, 7];
        for (b, want) in expect.into_iter().enumerate() {
            let got = s.load::<u32>(p.byte_add(b as u64 * block)).unwrap();
            // The failed store itself never landed; block 1 was dirtied (its
            // page made writable) but holds the allocation's zeroes.
            assert_eq!(got, want, "block size {block}: block {b}");
        }
    }
}

#[test]
fn inline_commit_failure_surfaces_once_at_the_next_join() {
    // Armed *before* the stores: the failing job is an eager eviction, which
    // the engine lands on the storing thread at 4 KiB and at 256 KiB alike.
    // The failure must take the same route as a worker's — stashed in the
    // device's first-error slot, raised exactly once by the next join,
    // runtime usable after.
    for block in [4096usize, 256 * 1024] {
        let size = 16 * block;
        let g = nop_gmac(
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(block as u64)
                .async_dma(true),
        );
        let s = g.session();
        let p = s.alloc(size as u64).unwrap();
        s.gmac()
            .with_platform(|p| p.arm_faults(FaultPlan::new().fail_nth(FaultOp::CommitH2d, 0)));
        // The stores themselves succeed: an eager eviction reports at a join.
        s.store_slice::<u8>(p, &vec![0xCD; size]).unwrap();
        let err = s
            .call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .err()
            .or_else(|| s.sync().err())
            .expect("injected inline commit failure was swallowed");
        let (device, nth) = assert_injected(err, FaultOp::CommitH2d);
        assert_eq!((device, nth), (0, 0), "block size {block}");
        s.gmac().with_platform(|p| p.disarm_faults());
        assert_eq!(g.report().dma_in_flight, 0);
        // Consumed: nothing left to raise, same object and engine keep working.
        s.store_slice::<u8>(p, &vec![0xEE; size]).unwrap();
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .unwrap();
        s.sync().unwrap();
        assert!(s
            .load_slice::<u8>(p, size)
            .unwrap()
            .iter()
            .all(|&b| b == 0xEE));
    }
}

#[test]
fn seeded_plans_inject_identically_across_runs() {
    // A seeded plan is a deterministic function of (seed, op ordinal): two
    // identical runs must fail the exact same ops, so a failure found by a
    // randomized soak reproduces from its seed alone.
    let run = |seed: u64| {
        let g = nop_gmac(
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(4096)
                .async_dma(true),
        );
        let s = g.session();
        let p = s.alloc(32 * 1024).unwrap();
        s.gmac().with_platform(|pl| {
            pl.arm_faults(FaultPlan::new().fail_seeded(FaultOp::CommitH2d, seed, 20_000))
        });
        let mut trace = Vec::new();
        for round in 0..10u32 {
            s.store::<u32>(p, round).unwrap();
            let outcome = s
                .call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
                .and_then(|()| s.sync());
            match outcome {
                Ok(()) => trace.push(None),
                Err(e) => {
                    let (device, nth) = assert_injected(e, FaultOp::CommitH2d);
                    trace.push(Some((device, nth)));
                }
            }
        }
        trace
    };
    let a = run(0xDECAF);
    let b = run(0xDECAF);
    assert_eq!(a, b, "same seed, same injected faults");
    assert!(
        a.iter().any(Option::is_some),
        "a ~30% rate over 10 rounds should fire at least once"
    );
    let c = run(0xBEEF);
    assert_ne!(a, c, "different seeds explore different schedules");
}
