//! Device-memory-as-a-cache eviction, end to end:
//!
//! 1. Oversubscribed kernel sweeps complete byte-identical to an
//!    un-oversubscribed run on **all three protocols** — eviction then
//!    re-fetch loses nothing, whichever coherence protocol owns the blocks.
//! 2. The ablation toggle: when capacity suffices, [`GmacConfig::evict`] on
//!    vs. off is **byte-identical**, because the machinery only charges on
//!    the out-of-memory path (the `evict` row of the `toggles` suite).
//! 3. The no-unpinned-victim invariant under a watchdogged stress run: an
//!    object pinned by a pending call is never evicted, however hard the
//!    allocator squeezes.
//! 4. A property test that an oversubscribed device is *invisible to data*:
//!    random op sequences observe identical bytes and errors on a device
//!    4x too small and on one with room to spare.
//! 5. The PR-5 eviction-mid-write regression replayed with *real* victims:
//!    rolling eager eviction and whole-object device eviction interleave
//!    with a multi-block write, and every byte still lands.

use gmac::{Gmac, GmacConfig, Param, Protocol};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceMemory, GpuSpec, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, DEFAULT_DEVICE_BASE,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct Inc;

impl Kernel for Inc {
    fn name(&self) -> &str {
        "inc"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(1)?;
        let mut v = read_f32_slice(mem, args.ptr(0)?, n)?;
        for x in v.iter_mut() {
            *x += 1.0;
        }
        write_f32_slice(mem, args.ptr(0)?, &v)?;
        Ok(KernelProfile::new(n as f64, 8.0 * n as f64))
    }
}

/// A G280-class platform with `mem` bytes of device memory.
fn small_gmac(mem: u64, cfg: GmacConfig) -> Gmac {
    let platform = Platform::builder()
        .clear_devices()
        .add_device(GpuSpec::g280(), mem, DEFAULT_DEVICE_BASE)
        .build();
    platform.register_kernel(Arc::new(Inc));
    Gmac::new(platform, cfg)
}

/// Fails the test hard if `f` has not finished within `limit` — a wedged
/// eviction loop (victim never found, alloc retrying forever) must fail
/// loudly, not hang CI.
fn with_watchdog<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let work = std::thread::spawn(f);
    let deadline = std::time::Instant::now() + limit;
    while !work.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog: eviction test exceeded {limit:?} — alloc/evict loop wedged"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    work.join().expect("eviction test thread panicked")
}

#[test]
fn refetch_roundtrip_across_protocols() {
    // 6 x 1 MiB objects on a 2 MiB device: every sweep re-homes each object
    // and evicts colder ones. Two increment sweeps must leave every element
    // at seed + 2 on all three protocols.
    const OBJ: u64 = 1 << 20;
    const ELEMS: usize = (OBJ / 4) as usize;
    for protocol in Protocol::ALL {
        let g = small_gmac(2 << 20, GmacConfig::default().protocol(protocol));
        let s = g.session();
        let ptrs: Vec<_> = (0..6)
            .map(|i| {
                let p = s.alloc(OBJ).unwrap();
                let seed: Vec<f32> = (0..ELEMS).map(|e| ((e + i) % 251) as f32).collect();
                s.store_slice(p, &seed).unwrap();
                p
            })
            .collect();
        for _ in 0..2 {
            for &p in &ptrs {
                s.call(
                    "inc",
                    LaunchDims::for_elements(ELEMS as u64, 256),
                    &[Param::Shared(p), Param::U64(ELEMS as u64)],
                )
                .unwrap();
                s.sync().unwrap();
            }
        }
        for (i, &p) in ptrs.iter().enumerate() {
            let back = s.load_slice::<f32>(p, ELEMS).unwrap();
            for (e, v) in back.iter().enumerate() {
                assert_eq!(
                    *v,
                    ((e + i) % 251) as f32 + 2.0,
                    "{protocol}: object {i} elem {e}"
                );
            }
        }
        let c = g.counters();
        assert!(c.evictions > 0, "{protocol}: pressure never exercised");
        assert!(c.refetches > 0, "{protocol}: nothing re-homed");
    }
}

#[test]
fn pinned_objects_are_never_victims_under_stress() {
    with_watchdog(Duration::from_secs(120), || {
        // One hot object with a call pending, plus churn allocations that
        // overflow the device every round: the allocator must evict churn
        // objects, never the call's argument.
        const OBJ: u64 = 1 << 20;
        const ELEMS: u64 = OBJ / 4;
        let g = small_gmac(4 << 20, GmacConfig::default());
        let s = g.session();
        let a = s.alloc(OBJ).unwrap();
        let seed: Vec<f32> = (0..ELEMS as usize).map(|e| (e % 113) as f32).collect();
        s.store_slice(a, &seed).unwrap();
        let rounds = 20u32;
        for round in 0..rounds {
            s.call(
                "inc",
                LaunchDims::for_elements(ELEMS, 256),
                &[Param::Shared(a), Param::U64(ELEMS)],
            )
            .unwrap();
            // With the call still pending, churn past device capacity.
            let churn: Vec<_> = (0..4)
                .map(|_| {
                    let p = s.alloc(OBJ).unwrap();
                    s.store::<u32>(p, round).unwrap();
                    p
                })
                .collect();
            s.sync().unwrap();
            for p in churn {
                assert_eq!(s.load::<u32>(p).unwrap(), round);
                s.free(p).unwrap();
            }
        }
        let back = s.load_slice::<f32>(a, ELEMS as usize).unwrap();
        for (e, v) in back.iter().enumerate() {
            assert_eq!(*v, (e % 113) as f32 + rounds as f32, "elem {e}");
        }
        let c = g.counters();
        assert!(c.evictions > 0, "churn never overflowed the device");
        assert!(
            c.pin_saves > 0,
            "the pinned object was never even considered — pressure too low"
        );
    });
}

#[test]
fn eviction_mid_write_with_real_victims() {
    // The PR-5 regression (rolling eager eviction mid-write) replayed on a
    // device small enough that *whole-object* eviction also interleaves:
    // dirty the tail blocks, let a filler allocation evict the object, keep
    // writing it host-side, then re-home it through a kernel call. Every
    // byte — pre-eviction tail stores, post-eviction payload, untouched
    // zeros — must come back incremented exactly once.
    let g = small_gmac(
        2 << 20,
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(4096)
            .rolling_size(1),
    );
    let s = g.session();
    let p = s.alloc(6 * 4096).unwrap(); // 6 blocks, 6144 f32s
    let elems_per_block = 4096 / 4;
    // Tail stores: rolling_size(1) eagerly flushes the older one.
    s.store::<f32>(p.byte_add(4 * 4096), 41.0).unwrap();
    s.store::<f32>(p.byte_add(5 * 4096), 42.0).unwrap();
    // A filler the size of the whole device: `p` becomes a real victim.
    let filler = s.alloc(2 << 20).unwrap();
    assert_eq!(g.counters().evictions, 1, "the filler evicted p");
    // Keep writing the evicted object host-side (blocks 0..4).
    let payload: Vec<f32> = (0..4 * elems_per_block).map(|e| (e % 97) as f32).collect();
    s.store_slice(p, &payload).unwrap();
    // Re-home through a kernel call over the full object; the filler is the
    // only other resident object and gets evicted to make room.
    s.call(
        "inc",
        LaunchDims::for_elements(6 * elems_per_block as u64, 256),
        &[Param::Shared(p), Param::U64(6 * elems_per_block as u64)],
    )
    .unwrap();
    s.sync().unwrap();
    let back = s.load_slice::<f32>(p, 6 * elems_per_block).unwrap();
    for (e, v) in back.iter().take(4 * elems_per_block).enumerate() {
        assert_eq!(*v, (e % 97) as f32 + 1.0, "payload elem {e}");
    }
    assert_eq!(back[4 * elems_per_block], 42.0, "pre-eviction tail store");
    assert_eq!(back[5 * elems_per_block], 43.0, "pre-eviction tail store");
    for (e, v) in back.iter().enumerate().skip(4 * elems_per_block + 1) {
        if e == 5 * elems_per_block {
            continue;
        }
        assert_eq!(*v, 1.0, "untouched elem {e} incremented exactly once");
    }
    assert!(g.counters().refetches >= 1, "p was re-homed");
    s.free(filler).unwrap();
    s.free(p).unwrap();
}

// ----- property test: oversubscription is invisible to data -----------------

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    FreeNth(usize),
    StoreSlice(usize, u64, u8, u64),
    LoadSlice(usize, u64, u64),
    CallInc(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let off = 0u64..256 * 1024;
    prop_oneof![
        (4096u64..512 * 1024).prop_map(Op::Alloc),
        (0usize..6).prop_map(Op::FreeNth),
        (0usize..6, off.clone(), any::<u8>(), 1u64..16384)
            .prop_map(|(o, a, v, n)| Op::StoreSlice(o, a, v, n)),
        (0usize..6, off, 1u64..16384).prop_map(|(o, a, n)| Op::LoadSlice(o, a, n)),
        (0usize..6).prop_map(Op::CallInc),
    ]
}

/// Applies one op, folding every observable result (loaded bytes + error
/// discriminants) into a comparable value. Addresses may differ between the
/// two devices (the small one re-homes evicted claims), so observables are
/// data and errors only — never pointers.
fn apply(s: &gmac::Session, live: &mut Vec<gmac::SharedPtr>, op: &Op) -> (u64, Vec<u8>) {
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
        Op::StoreSlice(n, off, v, len) => {
            if let Some(&p) = live.get(n) {
                if s.store_slice::<u8>(p.byte_add(off), &vec![v; len as usize])
                    .is_err()
                {
                    err_code = 3;
                }
            }
        }
        Op::LoadSlice(n, off, len) => {
            if let Some(&p) = live.get(n) {
                match s.load_slice::<u8>(p.byte_add(off), len as usize) {
                    Ok(bytes) => data = bytes,
                    Err(_) => err_code = 4,
                }
            }
        }
        Op::CallInc(n) => {
            if let Some(&p) = live.get(n) {
                let elems = s.object_at(p).map(|o| o.size / 4).unwrap_or(0);
                match s
                    .call(
                        "inc",
                        LaunchDims::for_elements(elems, 256),
                        &[Param::Shared(p), Param::U64(elems)],
                    )
                    .and_then(|_| s.sync())
                {
                    Ok(()) => {}
                    Err(_) => err_code = 5,
                }
            }
        }
    }
    (err_code, data)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random alloc/store/call/load/free sequences observe identical bytes
    /// and errors on a 2 MiB device (evicting constantly once the working
    /// set exceeds it) and a 64 MiB device (never evicting).
    #[test]
    fn oversubscription_is_invisible_to_data(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let tight = small_gmac(2 << 20, GmacConfig::default());
        let roomy = small_gmac(64 << 20, GmacConfig::default());
        let ts = tight.session();
        let rs = roomy.session();
        let mut tight_live = Vec::new();
        let mut roomy_live = Vec::new();
        for op in &ops {
            let a = apply(&ts, &mut tight_live, op);
            let b = apply(&rs, &mut roomy_live, op);
            prop_assert_eq!(a, b, "divergence on {:?}", op);
        }
        // Final sweep: every surviving object dumps identical bytes.
        prop_assert_eq!(tight_live.len(), roomy_live.len());
        for (&tp, &rp) in tight_live.iter().zip(&roomy_live) {
            let size = ts.object_at(tp).unwrap().size as usize;
            prop_assert_eq!(
                ts.load_slice::<u8>(tp, size).unwrap(),
                rs.load_slice::<u8>(rp, size).unwrap()
            );
        }
        prop_assert_eq!(roomy.counters().evictions, 0, "the roomy device never evicts");
    }
}
