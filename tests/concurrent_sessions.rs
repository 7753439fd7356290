//! The acceptance test of the `Gmac`/`Session` API: two sessions on two
//! accelerators each hold an **un-synced kernel call at the same time**
//! (pending calls are tracked per device, not in one global slot), results
//! stay coherent with a sequential single-session run, and the `TimeLedger`
//! still partitions every elapsed nanosecond.

use adsm::gmac::{Gmac, GmacConfig, GmacError, Param, Protocol, Session};
use adsm::hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult,
};
use adsm::workloads::Digest;
use std::sync::Arc;

const N: usize = 128 * 1024;

/// `v[i] = v[i] * k + i % 17` — order-sensitive enough to catch a swapped
/// or clobbered buffer.
#[derive(Debug)]
struct Affine;

impl Kernel for Affine {
    fn name(&self) -> &str {
        "affine"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(1)?;
        let k = args.f64(2)? as f32;
        let mut v = read_f32_slice(mem, args.ptr(0)?, n)?;
        for (i, x) in v.iter_mut().enumerate() {
            *x = *x * k + (i % 17) as f32;
        }
        write_f32_slice(mem, args.ptr(0)?, &v)?;
        Ok(KernelProfile::new(2.0 * n as f64, 8.0 * n as f64))
    }
}

fn platform() -> Platform {
    let p = Platform::desktop_multi_gpu(2);
    p.register_kernel(Arc::new(Affine));
    p
}

fn input(dev: usize) -> Vec<f32> {
    (0..N).map(|i| ((i + dev * 31) % 100) as f32).collect()
}

/// Runs the per-device workload through `session` up to (not including) the
/// sync, returning the buffer pointer.
fn start_round(session: &Session, dev: usize, k: f64) -> adsm::gmac::SharedPtr {
    // Device windows overlap (§4.2): dev1 needs safe_alloc.
    let v = if dev == 0 {
        session.alloc((N * 4) as u64).unwrap()
    } else {
        session.safe_alloc((N * 4) as u64).unwrap()
    };
    session.store_slice(v, &input(dev)).unwrap();
    session
        .call(
            "affine",
            LaunchDims::for_elements(N as u64, 256),
            &[Param::Shared(v), Param::U64(N as u64), Param::F64(k)],
        )
        .unwrap();
    v
}

fn digest_of(session: &Session, v: adsm::gmac::SharedPtr) -> u64 {
    let out: Vec<f32> = session.load_slice(v, N).unwrap();
    let mut d = Digest::new();
    d.update_f32(&out);
    d.finish()
}

/// Sequential single-session reference: one call in flight at a time.
fn sequential_digests() -> (u64, u64) {
    let gmac = Gmac::new(platform(), GmacConfig::default());
    let s0 = gmac.session_on(DeviceId(0));
    let v0 = start_round(&s0, 0, 3.0);
    s0.sync().unwrap();
    let d0 = digest_of(&s0, v0);

    let s1 = gmac.session_on(DeviceId(1));
    let v1 = start_round(&s1, 1, 0.5);
    s1.sync().unwrap();
    let d1 = digest_of(&s1, v1);
    (d0, d1)
}

#[test]
fn two_sessions_hold_inflight_calls_simultaneously_with_coherent_results() {
    for protocol in Protocol::ALL {
        let gmac = Gmac::new(platform(), GmacConfig::default().protocol(protocol));
        let s0 = gmac.session_on(DeviceId(0));
        let s1 = gmac.session_on(DeviceId(1));

        let v0 = start_round(&s0, 0, 3.0);
        let v1 = start_round(&s1, 1, 0.5);

        // The tentpole property: BOTH calls are in flight before EITHER
        // session has synced.
        assert!(s0.has_pending_call(), "{protocol}: dev0 call in flight");
        assert!(s1.has_pending_call(), "{protocol}: dev1 call in flight");
        assert_eq!(
            gmac.pending_devices(),
            vec![DeviceId(0), DeviceId(1)],
            "{protocol}: one un-synced call per device"
        );

        s0.sync().unwrap();
        assert!(
            s1.has_pending_call(),
            "{protocol}: syncing session 0 must not join session 1's call"
        );
        s1.sync().unwrap();

        let (d0, d1) = (digest_of(&s0, v0), digest_of(&s1, v1));
        let (ref0, ref1) = sequential_digests();
        assert_eq!(d0, ref0, "{protocol}: dev0 result differs from sequential");
        assert_eq!(d1, ref1, "{protocol}: dev1 result differs from sequential");

        s0.free(v0).unwrap();
        s1.free(v1).unwrap();

        // TimeLedger sanity: every elapsed nanosecond is attributed to a
        // category, even with overlapping calls.
        let ledger = gmac.ledger();
        assert_eq!(
            ledger.total(),
            gmac.elapsed(),
            "{protocol}: ledger must partition elapsed time"
        );
        assert!(
            gmac.elapsed().as_nanos() > 0,
            "{protocol}: virtual time advanced"
        );
    }
}

#[test]
fn concurrent_round_from_two_host_threads() {
    // Same flow, but genuinely from two OS threads: proves `Session: Send`
    // and that the runtime's interior lock keeps the bookkeeping coherent.
    let gmac = Gmac::new(platform(), GmacConfig::default());
    let (ref0, ref1) = sequential_digests();
    let handles: Vec<_> = [(0usize, 3.0f64, ref0), (1usize, 0.5f64, ref1)]
        .into_iter()
        .map(|(dev, k, reference)| {
            let session = gmac.session_on(DeviceId(dev));
            std::thread::spawn(move || {
                let v = start_round(&session, dev, k);
                session.sync().unwrap();
                assert_eq!(digest_of(&session, v), reference, "thread for dev{dev}");
                session.free(v).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(gmac.object_count(), 0);
    assert_eq!(gmac.ledger().total(), gmac.elapsed());
}

#[test]
fn overlap_beats_forced_serialization_on_gpu_wait_time() {
    // With two calls in flight the second session's sync finds its kernel
    // already (partially) done behind the first: total GPU wait is below
    // the strictly-sequential run's.
    let run = |overlap: bool| {
        let gmac = Gmac::new(platform(), GmacConfig::default());
        let s0 = gmac.session_on(DeviceId(0));
        let s1 = gmac.session_on(DeviceId(1));
        if overlap {
            let _v0 = start_round(&s0, 0, 3.0);
            let _v1 = start_round(&s1, 1, 0.5);
            s0.sync().unwrap();
            s1.sync().unwrap();
        } else {
            let _v0 = start_round(&s0, 0, 3.0);
            s0.sync().unwrap();
            let _v1 = start_round(&s1, 1, 0.5);
            s1.sync().unwrap();
        }
        gmac.elapsed()
    };
    let overlapped = run(true);
    let serialized = run(false);
    assert!(
        overlapped < serialized,
        "two devices in flight must overlap: {overlapped} vs {serialized}"
    );
}

#[test]
fn foreign_session_cannot_sync_or_stack_on_a_busy_device() {
    let gmac = Gmac::new(platform(), GmacConfig::default());
    let s0 = gmac.session_on(DeviceId(0));
    let intruder = gmac.session_on(DeviceId(0));
    let v = start_round(&s0, 0, 2.0);

    // A different session cannot launch on the busy device...
    match intruder.call("affine", LaunchDims::for_elements(1, 1), &[]) {
        Err(GmacError::DeviceBusy { dev, owner, .. }) => {
            assert_eq!(dev, DeviceId(0));
            assert_eq!(owner, s0.id());
        }
        other => panic!("expected DeviceBusy, got {other:?}"),
    }
    // ...nor steal the sync.
    assert!(matches!(intruder.sync(), Err(GmacError::NothingToSync)));

    // And freeing the in-flight object is rejected cleanly for everyone.
    assert!(matches!(
        intruder.free(v),
        Err(GmacError::ObjectInUse { .. })
    ));
    s0.sync().unwrap();
    s0.free(v).unwrap();
}
