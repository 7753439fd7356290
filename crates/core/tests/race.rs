//! The coherence race detector, end to end:
//!
//! 1. The ablation contract (`race_check(true)` on race-free runs is
//!    byte-identical to `race_check(false)`) is the `race_check` row of the
//!    `toggles` suite. The detector observes; it never perturbs.
//! 2. Each violation kind detected end to end with precise object+offset
//!    diagnostics, under every protocol, in error and sink mode.
//! 3. Composition with eviction (an object evicted and refetched mid-epoch
//!    neither false-positives nor loses a pending race) and async DMA
//!    (worker landings are runtime traffic, not program accesses).
//! 4. A proptest oracle over random session/kernel interleavings: injected
//!    illegal writes are always caught with the right object and offset;
//!    race-free interleavings are never flagged.
//! 5. A watchdogged multi-session stress run with the detector on, across
//!    all three protocols: zero false positives under real concurrency.

use gmac::{Gmac, GmacConfig, GmacError, Param, Protocol, RaceKind};
use hetsim::{DeviceId, GpuSpec, LaunchDims, Platform, DEFAULT_DEVICE_BASE};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn nop_gmac(cfg: GmacConfig) -> Gmac {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(gmac::testutil::NopKernel));
    Gmac::new(platform, cfg)
}

/// A G280-class platform with `mem` bytes of device memory (for eviction
/// pressure) and the nop kernel registered.
fn small_gmac(mem: u64, cfg: GmacConfig) -> Gmac {
    let platform = Platform::builder()
        .clear_devices()
        .add_device(GpuSpec::g280(), mem, DEFAULT_DEVICE_BASE)
        .build();
    platform.register_kernel(Arc::new(gmac::testutil::NopKernel));
    Gmac::new(platform, cfg)
}

fn with_watchdog<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let work = std::thread::spawn(f);
    let deadline = std::time::Instant::now() + limit;
    while !work.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog: race test exceeded {limit:?} — a session wedged"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    work.join().expect("race test thread panicked")
}

// ----- 2. each violation kind, precisely diagnosed -------------------------

const BS: u64 = 64 * 1024;

fn race_gmac(protocol: Protocol, report: bool) -> Gmac {
    nop_gmac(
        GmacConfig::default()
            .protocol(protocol)
            .block_size(BS)
            .race_check(true)
            .race_report(report),
    )
}

#[test]
fn cpu_write_mid_flight_is_detected_under_every_protocol() {
    for protocol in Protocol::ALL {
        let g = race_gmac(protocol, false);
        let s = g.session();
        let p = s.alloc(16 * BS).unwrap();
        s.store::<u32>(p, 1).unwrap();
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .unwrap();
        // The contract violation: a CPU write to an object a kernel in
        // flight may read. The diagnostic names the object, covers the
        // written byte, and identifies the device.
        let write_off = 2 * BS + 16;
        match s.store::<u32>(p.byte_add(write_off), 7) {
            Err(GmacError::RaceDetected {
                object,
                offset,
                len,
                device,
                kinds,
            }) => {
                assert_eq!(object, p.addr(), "{protocol}: object");
                assert!(
                    offset <= write_off && write_off < offset + len,
                    "{protocol}: [{offset}, {}) must cover byte {write_off}",
                    offset + len
                );
                assert_eq!(device, DeviceId(0), "{protocol}");
                assert!(
                    kinds.contains(&RaceKind::CpuWriteWhileKernelMayRead),
                    "{protocol}: kinds {kinds:?}"
                );
                assert!(
                    !kinds.contains(&RaceKind::CrossSessionWrite),
                    "{protocol}: own-session write is not cross-session"
                );
            }
            other => panic!("{protocol}: expected RaceDetected, got {other:?}"),
        }
        // After the sync boundary the same store is legal again.
        s.sync().unwrap();
        s.store::<u32>(p.byte_add(write_off), 7).unwrap();
        assert_eq!(g.race_stats().violations, 1, "{protocol}");
    }
}

#[test]
fn launch_over_foreign_unsynced_writes_is_detected_and_charges_nothing() {
    for protocol in Protocol::ALL {
        let g = race_gmac(protocol, false);
        let a = g.session();
        let b = g.session();
        let p = a.alloc(4 * BS).unwrap();
        a.store::<u32>(p, 42).unwrap();
        let before = g.elapsed();
        // B launches a kernel over A's never-synchronized CPU writes: the
        // kernel may read bytes A is still entitled to be writing.
        match b.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)]) {
            Err(GmacError::RaceDetected { object, kinds, .. }) => {
                assert_eq!(object, p.addr(), "{protocol}");
                assert!(
                    kinds.contains(&RaceKind::LaunchOverUnsyncedWrites),
                    "{protocol}: kinds {kinds:?}"
                );
                assert!(
                    kinds.contains(&RaceKind::CrossSessionWrite),
                    "{protocol}: the unsynced writer is a different session"
                );
            }
            other => panic!("{protocol}: expected RaceDetected, got {other:?}"),
        }
        assert_eq!(
            g.elapsed(),
            before,
            "{protocol}: a refused launch must charge nothing"
        );
        // A's own launch over its own writes stays legal, and the runtime
        // is fully usable after the refusal.
        a.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .unwrap();
        a.sync().unwrap();
        b.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .unwrap();
        b.sync().unwrap();
    }
}

#[test]
fn cross_session_write_to_call_referenced_object_is_flagged() {
    let g = race_gmac(Protocol::Rolling, false);
    let a = g.session();
    let b = g.session();
    let p = a.alloc(4 * BS).unwrap();
    a.store::<u32>(p, 1).unwrap();
    a.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
        .unwrap();
    match b.store::<u32>(p.byte_add(BS), 9) {
        Err(GmacError::RaceDetected { kinds, .. }) => {
            assert!(kinds.contains(&RaceKind::CpuWriteWhileKernelMayRead));
            assert!(
                kinds.contains(&RaceKind::CrossSessionWrite),
                "B is not the session that launched: {kinds:?}"
            );
        }
        other => panic!("expected RaceDetected, got {other:?}"),
    }
    a.sync().unwrap();
}

#[test]
fn sink_mode_records_diagnostics_without_erroring() {
    let g = race_gmac(Protocol::Rolling, true);
    let s = g.session();
    let p = s.alloc(4 * BS).unwrap();
    s.store::<u32>(p, 1).unwrap();
    s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
        .unwrap();
    // Same violation as the error-mode test — but the run continues.
    s.store::<u32>(p.byte_add(BS + 4), 7)
        .expect("sink mode never errors");
    s.sync().unwrap();
    let stats = g.race_stats();
    assert_eq!(stats.violations, 1);
    assert!(stats.writes_checked >= 2);
    assert!(stats.launches_checked >= 1);
    let violations = g.race_violations();
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    assert_eq!(v.object, p.addr());
    assert!(v.offset <= BS + 4 && BS + 4 < v.offset + v.len);
    assert!(v.kinds.contains(&RaceKind::CpuWriteWhileKernelMayRead));
    assert_eq!(v.session, s.id(), "diagnostic names the offending session");
    // The report renders the sunk violation.
    let text = g.report().to_string();
    assert!(text.contains("races:"), "{text}");
    assert!(text.contains("cpu-write-while-kernel-may-read"), "{text}");
    // The bytes did land (diagnostic, not transactional).
    assert_eq!(s.load::<u32>(p.byte_add(BS + 4)).unwrap(), 7);
}

// ----- 3. composition: eviction and async DMA ------------------------------

#[test]
fn evicted_and_refetched_object_mid_epoch_is_not_a_false_positive() {
    // Device fits ~2 of the 3 objects: allocating c evicts a mid-epoch,
    // and touching a again refetches it. Eviction's state churn and the
    // refetch DMA are runtime traffic — the detector must stay silent.
    let g = small_gmac(
        40 << 20,
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(BS)
            .race_check(true),
    );
    let s = g.session();
    let a = s.alloc(16 << 20).unwrap();
    s.store_slice::<u8>(a, &vec![0xAB; 16 << 20]).unwrap();
    let _b = s.alloc(16 << 20).unwrap();
    let _c = s.alloc(16 << 20).unwrap(); // evicts a (or b)
    assert!(s.gmac().counters().evictions >= 1, "pressure must evict");
    // Refetch + write + full call/sync cycle on the evicted object.
    s.store::<u32>(a, 5).unwrap();
    s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(a)])
        .unwrap();
    s.sync().unwrap();
    assert_eq!(s.load::<u32>(a).unwrap(), 5);
    assert_eq!(g.race_stats().violations, 0, "refetch is not an access");
}

#[test]
fn eviction_does_not_lose_a_pending_race() {
    // A's unsynced writes survive the object being evicted: when B then
    // launches over them, the stale-write race must still be caught even
    // though the object was evicted and refetched in between.
    let g = small_gmac(
        40 << 20,
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(BS)
            .race_check(true),
    );
    let a = g.session();
    let b = g.session();
    let x = a.alloc(16 << 20).unwrap();
    a.store::<u32>(x, 42).unwrap(); // A's unsynced write
    let _fill1 = a.alloc(16 << 20).unwrap();
    let _fill2 = a.alloc(16 << 20).unwrap(); // evicts x
    assert!(a.gmac().counters().evictions >= 1, "pressure must evict");
    match b.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(x)]) {
        Err(GmacError::RaceDetected { object, kinds, .. }) => {
            assert_eq!(object, x.addr());
            assert!(
                kinds.contains(&RaceKind::LaunchOverUnsyncedWrites),
                "{kinds:?}"
            );
        }
        other => panic!("eviction swallowed the race: {other:?}"),
    }
}

#[test]
fn async_dma_composes_with_race_check() {
    // Worker-thread landings are runtime traffic: with the engine on, a
    // race-free flow stays silent and virtual-time identical to inline
    // mode, and an injected race is still caught.
    let run = |async_dma: bool| {
        let g = nop_gmac(
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(4096)
                .async_dma(async_dma)
                .race_check(true),
        );
        let s = g.session();
        let p = s.alloc(4 << 20).unwrap();
        s.store_slice::<u8>(p, &vec![0x5A; 4 << 20]).unwrap();
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .unwrap();
        assert!(
            matches!(s.store::<u32>(p, 1), Err(GmacError::RaceDetected { .. })),
            "async_dma={async_dma}: injected race must be caught"
        );
        s.sync().unwrap();
        let bytes = s.load_slice::<u8>(p, 4 << 20).unwrap();
        (g.elapsed(), g.race_stats().violations, bytes)
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on, off, "engine on/off must agree byte for byte");
    assert_eq!(on.1, 1);
}

// ----- 4. proptest oracle ---------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..Default::default() })]
    fn injected_races_are_always_caught_and_race_free_runs_never_flagged(
        proto_pick in 0u8..3,
        block_pow in 12u32..15,
        rounds in proptest::collection::vec((0u64..16, any::<bool>(), any::<bool>()), 1..8),
    ) {
        let protocol = match proto_pick {
            0 => Protocol::Batch,
            1 => Protocol::Lazy,
            _ => Protocol::Rolling,
        };
        let bs = 1u64 << block_pow;
        let g = nop_gmac(
            GmacConfig::default()
                .protocol(protocol)
                .block_size(bs)
                .race_check(true),
        );
        let owner = g.session();
        let other = g.session();
        let p = owner.alloc(16 * bs).unwrap();
        let mut expected = 0u64;
        for &(block, inject, foreign) in &rounds {
            let off = block * bs + 4;
            // Race-free prologue: write before the launch, own session.
            owner.store::<u32>(p.byte_add(off), block as u32).expect("race-free write flagged");
            owner
                .call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
                .expect("race-free launch flagged");
            if inject {
                // The seeded illegal write: mid-flight, from the owning or a
                // foreign session. Must error with the right object+offset.
                let writer = if foreign { &other } else { &owner };
                match writer.store::<u32>(p.byte_add(off), 0xDEAD) {
                    Err(GmacError::RaceDetected { object, offset, len, kinds, .. }) => {
                        prop_assert_eq!(object, p.addr());
                        prop_assert!(
                            offset <= off && off < offset + len,
                            "[{}, {}) misses byte {}", offset, offset + len, off
                        );
                        prop_assert!(kinds.contains(&RaceKind::CpuWriteWhileKernelMayRead));
                        prop_assert_eq!(
                            kinds.contains(&RaceKind::CrossSessionWrite),
                            foreign,
                            "cross-session attribution"
                        );
                    }
                    other => return Err(TestCaseError::fail(format!(
                        "injected race not caught: {other:?}"
                    ))),
                }
                expected += 1;
            }
            owner.sync().expect("sync");
            if inject && foreign {
                // The foreign writer's stamp stays "unsynced" until that
                // session reaches its own release boundary; give it one so
                // the next round's launch is race-free again.
                other
                    .call("nop", LaunchDims::for_elements(1, 1), &[])
                    .expect("epoch-advance launch");
                other.sync().expect("epoch-advance sync");
            }
        }
        prop_assert_eq!(g.race_stats().violations, expected);
    }
}

// ----- 5. watchdogged multi-session stress ----------------------------------

#[test]
fn multi_session_stress_is_false_positive_free_under_every_protocol() {
    for protocol in Protocol::ALL {
        let violations = with_watchdog(Duration::from_secs(120), move || {
            let platform = Platform::desktop_multi_gpu(2);
            platform.register_kernel(Arc::new(gmac::testutil::NopKernel));
            let g = Gmac::new(
                platform,
                GmacConfig::default()
                    .protocol(protocol)
                    .block_size(BS)
                    .race_check(true)
                    .race_report(true), // sink mode: any false positive is recorded, none aborts
            );
            // Acquire/release boundaries are device-wide: a sibling
            // session's sync mid-round would be a *real* data race, not a
            // false positive. Serialize rounds per device so each
            // store→call→sync cycle is race-free, while sessions still
            // contend on the shared shard, manager, and detector state.
            let turnstiles: Arc<Vec<std::sync::Mutex<()>>> =
                Arc::new((0..2).map(|_| std::sync::Mutex::new(())).collect());
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let s = g.session_on(DeviceId(i % 2));
                    let turnstiles = Arc::clone(&turnstiles);
                    std::thread::spawn(move || {
                        let p = s.safe_alloc(4 * BS).unwrap();
                        for round in 0..25u32 {
                            let _turn = turnstiles[i % 2].lock().unwrap();
                            s.store::<u32>(p, round).unwrap();
                            s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
                                .unwrap();
                            s.sync().unwrap();
                            assert_eq!(s.load::<u32>(p).unwrap(), round);
                        }
                        s.free(p).unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            g.race_violations()
        });
        assert!(
            violations.is_empty(),
            "{protocol}: race-free stress flagged {violations:?}"
        );
    }
}
