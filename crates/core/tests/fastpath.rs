//! Access-fast-path regressions: the shard-level single-lookup guarantee of
//! `shared_write`, memo/TLB correctness across mutations, and a property
//! test that `GmacConfig::tlb(false)` (the slow-path ablation) is
//! byte-identical in everything but wall-clock.

use gmac::{Gmac, GmacConfig, Protocol};
use hetsim::Platform;
use proptest::prelude::*;

fn gmac_with(tlb: bool, protocol: Protocol, block: u64) -> Gmac {
    Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default()
            .protocol(protocol)
            .block_size(block)
            .tlb(tlb),
    )
}

#[test]
fn many_block_write_performs_one_object_lookup() {
    // Regression: `shared_write` used to re-`find` the object once per
    // touched block. It must resolve the object exactly once per call —
    // with the memo fast path on *or* off.
    for tlb in [true, false] {
        let g = gmac_with(tlb, Protocol::Rolling, 4096);
        let s = g.session();
        let p = s.alloc(64 * 4096).unwrap(); // 64 blocks
        let before = s.gmac().counters();
        s.store_slice::<u8>(p, &vec![7u8; 64 * 4096]).unwrap();
        let after = s.gmac().counters();
        let resolutions =
            (after.obj_lookups + after.obj_memo_hits) - (before.obj_lookups + before.obj_memo_hits);
        assert_eq!(
            resolutions, 1,
            "one pointer→object resolution for a 64-block write (tlb={tlb})"
        );
        if !tlb {
            assert_eq!(after.obj_memo_hits, 0, "memo disabled in ablation mode");
        }
        // All 64 first-touch faults are still charged individually.
        assert_eq!(after.faults_write - before.faults_write, 64);
    }
}

#[test]
fn repeated_access_hits_the_shard_memo() {
    let g = gmac_with(true, Protocol::Rolling, 4096);
    let s = g.session();
    let p = s.alloc(8 * 4096).unwrap();
    s.store_slice::<u8>(p, &vec![1u8; 8 * 4096]).unwrap(); // 1 lookup
    let mid = s.gmac().counters();
    s.store_slice::<u8>(p, &vec![2u8; 8 * 4096]).unwrap(); // memo hit
    s.load_slice::<u8>(p, 8 * 4096).unwrap(); // memo hits
    let after = s.gmac().counters();
    assert_eq!(after.obj_lookups, mid.obj_lookups, "no further searches");
    assert!(after.obj_memo_hits > mid.obj_memo_hits);
}

#[test]
fn memo_invalidated_by_free_and_realloc() {
    // A freed object's memo must not route a reused address range to the
    // stale slab slot.
    let g = gmac_with(true, Protocol::Rolling, 4096);
    let s = g.session();
    let a = s.alloc(4 * 4096).unwrap();
    s.store::<u32>(a, 7).unwrap(); // memo now points at `a`
    s.free(a).unwrap();
    assert!(s.load::<u32>(a).is_err(), "freed pointer rejected");
    // First-fit reuse: a new (smaller) object lands at the same base.
    let b = s.alloc(4096).unwrap();
    assert_eq!(b.addr(), a.addr());
    s.store::<u32>(b, 9).unwrap();
    assert_eq!(s.load::<u32>(b).unwrap(), 9);
    // The old object's tail range must not resolve through a stale memo.
    assert!(s.load::<u32>(a.byte_add(2 * 4096)).is_err());
    s.free(b).unwrap();
}

#[test]
fn eviction_during_write_does_not_strand_bytes() {
    // Rolling with a tiny rolling size: preparing later blocks of a write
    // evicts earlier-dirtied ones mid-call. Every written byte must still
    // reach the device at release time (the snapshot-refresh path in
    // `shared_write`).
    for tlb in [true, false] {
        let g = Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(4096)
                .rolling_size(1)
                .tlb(tlb),
        );
        let s = g.session();
        let p = s.alloc(6 * 4096).unwrap();
        // Pre-dirty blocks 4 and 5 (oldest in the FIFO), then write blocks
        // 0..4; each prepare evicts the oldest dirty block.
        s.store::<u8>(p.byte_add(4 * 4096), 0xA1).unwrap();
        s.store::<u8>(p.byte_add(5 * 4096), 0xA2).unwrap();
        let payload: Vec<u8> = (0..4 * 4096u32).map(|i| (i % 251) as u8).collect();
        s.store_slice::<u8>(p, &payload).unwrap();
        // Force everything to the device, then read it back through fetches.
        s.release_to_device().unwrap();
        assert_eq!(
            s.load_slice::<u8>(p, 4 * 4096).unwrap(),
            payload,
            "tlb={tlb}"
        );
        assert_eq!(s.load::<u8>(p.byte_add(4 * 4096)).unwrap(), 0xA1);
        assert_eq!(s.load::<u8>(p.byte_add(5 * 4096)).unwrap(), 0xA2);
    }
}

// ----- property test: tlb(false) ablation is byte-identical ----------------

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    FreeNth(usize),
    Store(usize, u64, u32),
    Load(usize, u64),
    StoreSlice(usize, u64, u8, u64),
    LoadSlice(usize, u64, u64),
    Memset(usize, u64, u8, u64),
    Release,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let off = 0u64..6 * 4096;
    prop_oneof![
        (1u64..6 * 4096).prop_map(Op::Alloc),
        (0usize..4).prop_map(Op::FreeNth),
        (0usize..4, off.clone(), any::<u32>()).prop_map(|(o, a, v)| Op::Store(o, a, v)),
        (0usize..4, off.clone()).prop_map(|(o, a)| Op::Load(o, a)),
        (0usize..4, off.clone(), any::<u8>(), 1u64..8192)
            .prop_map(|(o, a, v, n)| Op::StoreSlice(o, a, v, n)),
        (0usize..4, off.clone(), 1u64..8192).prop_map(|(o, a, n)| Op::LoadSlice(o, a, n)),
        (0usize..4, off, any::<u8>(), 1u64..8192).prop_map(|(o, a, v, n)| Op::Memset(o, a, v, n)),
        Just(Op::Release),
    ]
}

/// Applies one op, folding every observable result (loaded bytes + error
/// discriminants) into a digest.
fn apply(g: &Gmac, s: &gmac::Session, live: &mut Vec<gmac::SharedPtr>, op: &Op) -> (u64, Vec<u8>) {
    let mut err_code = 0u64;
    let mut data = Vec::new();
    match *op {
        Op::Alloc(size) => match s.alloc(size) {
            Ok(p) => live.push(p),
            Err(_) => err_code = 1,
        },
        Op::FreeNth(n) => {
            if n < live.len() {
                let p = live.remove(n);
                if s.free(p).is_err() {
                    err_code = 2;
                }
            }
        }
        Op::Store(n, off, v) => {
            if let Some(&p) = live.get(n) {
                match s.store::<u32>(p.byte_add(off), v) {
                    Ok(()) => {}
                    Err(_) => err_code = 3,
                }
            }
        }
        Op::Load(n, off) => {
            if let Some(&p) = live.get(n) {
                match s.load::<u32>(p.byte_add(off)) {
                    Ok(v) => data.extend_from_slice(&v.to_le_bytes()),
                    Err(_) => err_code = 4,
                }
            }
        }
        Op::StoreSlice(n, off, v, len) => {
            if let Some(&p) = live.get(n) {
                if s.store_slice::<u8>(p.byte_add(off), &vec![v; len as usize])
                    .is_err()
                {
                    err_code = 5;
                }
            }
        }
        Op::LoadSlice(n, off, len) => {
            if let Some(&p) = live.get(n) {
                match s.load_slice::<u8>(p.byte_add(off), len as usize) {
                    Ok(bytes) => data = bytes,
                    Err(_) => err_code = 6,
                }
            }
        }
        Op::Memset(n, off, v, len) => {
            if let Some(&p) = live.get(n) {
                if s.memset(p.byte_add(off), v, len).is_err() {
                    err_code = 7;
                }
            }
        }
        Op::Release => {
            s.release_to_device().unwrap();
        }
    }
    let _ = g;
    (err_code, data)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random alloc/protect(release)/access/free sequences: the fast path on
    /// and off produce identical data, errors, fault counts, virtual times
    /// and ledger totals. Protocol releases downgrade page protections, so a
    /// stale TLB entry that survived an mprotect would diverge here.
    #[test]
    fn tlb_ablation_is_byte_identical(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let fast = gmac_with(true, Protocol::Rolling, 4096);
        let slow = gmac_with(false, Protocol::Rolling, 4096);
        let fs = fast.session();
        let ss = slow.session();
        let mut fast_live = Vec::new();
        let mut slow_live = Vec::new();
        for op in &ops {
            let a = apply(&fast, &fs, &mut fast_live, op);
            let b = apply(&slow, &ss, &mut slow_live, op);
            prop_assert_eq!(a, b, "divergence on {:?}", op);
        }
        let (fc, sc) = (fast.counters(), slow.counters());
        prop_assert_eq!(fc.faults(), sc.faults());
        prop_assert_eq!(fc.blocks_fetched, sc.blocks_fetched);
        prop_assert_eq!(fc.blocks_flushed, sc.blocks_flushed);
        prop_assert_eq!(fc.bytes_fetched, sc.bytes_fetched);
        prop_assert_eq!(fc.bytes_flushed, sc.bytes_flushed);
        prop_assert_eq!(fast.elapsed(), slow.elapsed(), "virtual time identical");
        prop_assert_eq!(fast.ledger().total(), slow.ledger().total());
    }
}
