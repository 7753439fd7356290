//! The memory-backing ablation contract: `GmacConfig::mmap_backing(false)`
//! swaps the real reserve/commit + `mprotect` byte store for the
//! instrumented table-walk frame arena, running the exact same coherence
//! machinery — so the two backends must be **byte-identical** in everything
//! the simulation observes (checked across the workload suite and a
//! bulk-path sequence by the `toggles` suite). Only wall-clock bookkeeping
//! (`tlb_hits`/`tlb_misses`, `obj_lookups`/`obj_memo_hits`, engine wait
//! counters) may differ — the whole point of the mmap backend is to make
//! the hit path *cheaper on the host*, never *different in the simulation*.
//!
//! Also covered: graceful degradation when the reservation fails, the
//! fast-path re-arm on coherence downgrades, zero-fill of fresh and
//! recycled allocations on both backends, and proof that typed reads on the
//! mmap backend bypass the instrumented lookup path entirely.

use gmac::{Gmac, GmacConfig, Protocol};
use hetsim::{Category, Platform};

#[test]
fn impossible_reservation_degrades_to_table_walk() {
    // u64::MAX cannot be chunk-rounded, let alone reserved: the runtime must
    // fall back to the frame arena, report the downgrade, and still work.
    let g = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default().mmap_reserve(u64::MAX),
    );
    let r = g.report();
    assert!(!r.mmap_backing, "reservation cannot have succeeded");
    assert!(r.backing_downgraded, "downgrade must be reported");
    assert!(r.to_string().contains("[downgraded: reservation failed]"));

    let s = g.session();
    let v = s.alloc_typed::<u32>(1024).unwrap();
    v.write_slice(&(0..1024).collect::<Vec<u32>>()).unwrap();
    assert_eq!(v.read(513).unwrap(), 513, "fallback backend works");
    v.free().unwrap();
}

#[test]
fn explicit_table_walk_is_not_a_downgrade() {
    let g = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default().mmap_backing(false),
    );
    let r = g.report();
    assert!(!r.mmap_backing);
    assert!(!r.backing_downgraded, "opting out is not a failure");
}

/// Regression: the fast path must *re-arm* when the protocol downgrades a
/// block. A write dirties a block (later writes are raw host stores); the
/// release flushes it to ReadOnly; the next write must take a counted fault
/// again on both backends — a stale Dirty mirror would skip it silently.
#[test]
fn downgraded_blocks_fault_again_on_next_access() {
    for mmap in [true, false] {
        let g = Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(4096)
                .mmap_backing(mmap),
        );
        let s = g.session();
        let v = s.alloc_typed::<u32>(4096).unwrap();
        v.write(0, 1).unwrap(); // faults the first block to Dirty
        let after_first = g.counters().faults_write;
        v.write(1, 2).unwrap(); // same Dirty block: no new fault
        assert_eq!(
            g.counters().faults_write,
            after_first,
            "mmap={mmap}: write on a Dirty block must not fault"
        );
        // Release downgrades the dirty block (flush to device, ReadOnly).
        s.release_to_device().unwrap();
        v.write(2, 3).unwrap(); // downgraded block: must fault again
        assert_eq!(
            g.counters().faults_write,
            after_first + 1,
            "mmap={mmap}: write on a downgraded block must fault"
        );
        assert_eq!(v.read(0).unwrap(), 1, "mmap={mmap}");
        assert_eq!(v.read(1).unwrap(), 2, "mmap={mmap}");
        assert_eq!(v.read(2).unwrap(), 3, "mmap={mmap}");
    }
}

/// Fresh allocations read zero on both backends — including addresses that
/// recycle a freed object's range, where the mmap backend must not leak the
/// previous tenant's bytes (hole-punch quarantine) and the arena backend
/// hands out zeroed frames.
#[test]
fn fresh_and_recycled_allocations_read_zero() {
    for mmap in [true, false] {
        let g = Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default().mmap_backing(mmap),
        );
        let s = g.session();
        let v = s.alloc_typed::<u64>(8192).unwrap();
        assert!(
            v.read_slice().unwrap().iter().all(|&x| x == 0),
            "mmap={mmap}: fresh allocation must read zero"
        );
        v.write_slice(&vec![0xDEAD_BEEF_DEAD_BEEFu64; 8192])
            .unwrap();
        let addr = v.ptr();
        v.free().unwrap();
        // First-fit: the next allocation reuses the same range.
        let w = s.alloc_typed::<u64>(8192).unwrap();
        assert_eq!(w.ptr().addr(), addr.addr(), "first-fit reuses the window");
        assert!(
            w.read_slice().unwrap().iter().all(|&x| x == 0),
            "mmap={mmap}: recycled range must not leak the old bytes"
        );
        w.free().unwrap();
    }
}

/// The tentpole's observable host-side effect: on the mmap backend, typed
/// scalar reads of an accessible block never enter the instrumented runtime
/// — `obj_lookups`/`obj_memo_hits` stay flat over thousands of accesses —
/// while virtual time still advances exactly like the checked path.
#[cfg(target_os = "linux")]
#[test]
fn typed_reads_bypass_the_instrumented_path_on_mmap() {
    let g = Gmac::new(Platform::desktop_g280(), GmacConfig::default());
    assert!(g.report().mmap_backing, "default backend on Linux");
    let s = g.session();
    let v = s.alloc_typed::<u32>(1024).unwrap();
    v.write(0, 7).unwrap(); // fault once: block becomes Dirty
    let warm = g.counters();
    let elapsed_before = g.elapsed();
    let mut acc = 0u64;
    for _ in 0..4096 {
        acc = acc.wrapping_add(v.read(0).unwrap() as u64);
        v.write(0, (acc & 0xFFFF) as u32).unwrap();
    }
    let cold = g.counters();
    assert_eq!(
        (cold.obj_lookups, cold.obj_memo_hits),
        (warm.obj_lookups, warm.obj_memo_hits),
        "fast-path accesses must never resolve the object"
    );
    assert_eq!(
        (cold.tlb_hits, cold.tlb_misses),
        (warm.tlb_hits, warm.tlb_misses),
        "fast-path accesses must never probe the software TLB"
    );
    assert_eq!(cold.faults_read, warm.faults_read);
    assert_eq!(cold.faults_write, warm.faults_write);
    assert!(
        g.elapsed() > elapsed_before,
        "deferred virtual time must still be charged"
    );

    // The same loop on the table-walk backend translates every access.
    let g2 = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default().mmap_backing(false),
    );
    let s2 = g2.session();
    let v2 = s2.alloc_typed::<u32>(1024).unwrap();
    v2.write(0, 7).unwrap();
    let warm2 = g2.counters();
    for _ in 0..16 {
        v2.read(0).unwrap();
    }
    let cold2 = g2.counters();
    assert!(
        cold2.tlb_hits + cold2.tlb_misses > warm2.tlb_hits + warm2.tlb_misses,
        "table-walk baseline translates through the instrumented MMU"
    );
}

/// Virtual time for a pure fast-path access loop matches the table-walk
/// backend exactly (the TLS-deferred accumulator settles to the same sum
/// the checked path charges per access).
#[test]
fn access_loop_virtual_time_is_identical_across_backends() {
    let run = |mmap: bool| {
        let g = Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(4096)
                .mmap_backing(mmap),
        );
        let s = g.session();
        let v = s.alloc_typed::<f32>(4096).unwrap();
        for i in 0..4096 {
            v.write(i, i as f32).unwrap();
        }
        let mut sum = 0.0f64;
        for i in 0..4096 {
            sum += v.read(i).unwrap() as f64;
        }
        v.free().unwrap();
        drop(s);
        (sum, g.elapsed(), g.ledger().get(Category::Cpu))
    };
    assert_eq!(run(true), run(false));
}
