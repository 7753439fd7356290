//! End-to-end tests of the GMAC session API: the full adsmAlloc → CPU init
//! → adsmCall → adsmSync → CPU read cycle with a real kernel, under every
//! coherence protocol.

use gmac::{Gmac, GmacConfig, GmacError, Param, Protocol, SchedPolicy, Session};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult,
};
use std::sync::Arc;

/// c[i] = a[i] + b[i] — the paper's §5.2 micro-benchmark kernel.
#[derive(Debug)]
struct VecAdd;

impl Kernel for VecAdd {
    fn name(&self) -> &str {
        "vecadd"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(3)?;
        let a = read_f32_slice(mem, args.ptr(0)?, n)?;
        let b = read_f32_slice(mem, args.ptr(1)?, n)?;
        let c: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        write_f32_slice(mem, args.ptr(2)?, &c)?;
        Ok(KernelProfile::new(n as f64, n as f64 * 12.0))
    }
}

fn session(protocol: Protocol) -> Session {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(VecAdd));
    Gmac::new(
        platform,
        GmacConfig::default()
            .protocol(protocol)
            .block_size(64 * 1024),
    )
    .session()
}

const N: usize = 100_000;

#[test]
fn vecadd_cycle_is_correct_under_every_protocol() {
    for protocol in Protocol::ALL {
        let c = session(protocol);
        let bytes = (N * 4) as u64;
        let a = c.alloc(bytes).unwrap();
        let b = c.alloc(bytes).unwrap();
        let out = c.alloc(bytes).unwrap();

        // CPU initialises inputs through the shared pointers (no memcpy!).
        let av: Vec<f32> = (0..N).map(|i| i as f32).collect();
        let bv: Vec<f32> = (0..N).map(|i| (2 * i) as f32).collect();
        c.store_slice(a, &av).unwrap();
        c.store_slice(b, &bv).unwrap();

        // adsmCall + adsmSync.
        let params = [
            Param::Shared(a),
            Param::Shared(b),
            Param::Shared(out),
            Param::U64(N as u64),
        ];
        c.call("vecadd", LaunchDims::for_elements(N as u64, 256), &params)
            .unwrap();
        c.sync().unwrap();

        // CPU reads the result through the same pointer.
        let cv = c.load_slice::<f32>(out, N).unwrap();
        for i in (0..N).step_by(7919) {
            assert_eq!(cv[i], (3 * i) as f32, "{protocol} wrong at {i}");
        }
        c.free(a).unwrap();
        c.free(b).unwrap();
        c.free(out).unwrap();
        assert_eq!(c.gmac().object_count(), 0, "{protocol}");
    }
}

#[test]
fn iterative_kernel_reuses_device_data_cheaply() {
    // An iterative pattern (like pns/rpes): the CPU only reads a few bytes
    // between kernel calls. Lazy/rolling should transfer almost nothing
    // after the first call; batch moves everything every time.
    let mut transfer_totals = Vec::new();
    for protocol in [Protocol::Batch, Protocol::Lazy, Protocol::Rolling] {
        let c = session(protocol);
        let bytes = (N * 4) as u64;
        let a = c.alloc(bytes).unwrap();
        let b = c.alloc(bytes).unwrap();
        let out = c.alloc(bytes).unwrap();
        c.store_slice(a, &vec![1.0f32; N]).unwrap();
        c.store_slice(b, &vec![2.0f32; N]).unwrap();
        let params = [
            Param::Shared(a),
            Param::Shared(b),
            Param::Shared(out),
            Param::U64(N as u64),
        ];
        for _ in 0..10 {
            c.call("vecadd", LaunchDims::for_elements(N as u64, 256), &params)
                .unwrap();
            c.sync().unwrap();
            // CPU peeks at one element only.
            let v: f32 = c.load(out).unwrap();
            assert_eq!(v, 3.0);
        }
        transfer_totals.push((protocol, c.gmac().transfers().total_bytes()));
    }
    let batch = transfer_totals[0].1;
    let lazy = transfer_totals[1].1;
    let rolling = transfer_totals[2].1;
    assert!(
        batch > lazy * 3,
        "batch must move far more data (batch={batch}, lazy={lazy})"
    );
    assert!(
        rolling < lazy,
        "rolling fetches single blocks where lazy fetches objects (rolling={rolling}, lazy={lazy})"
    );
}

#[test]
fn write_annotation_avoids_transfer_back() {
    // Paper §4.3: annotating the kernel's write set lets read-only inputs
    // stay valid on the CPU across calls.
    let c = session(Protocol::Rolling);
    let bytes = (N * 4) as u64;
    let a = c.alloc(bytes).unwrap();
    let b = c.alloc(bytes).unwrap();
    let out = c.alloc(bytes).unwrap();
    c.store_slice(a, &vec![1.0f32; N]).unwrap();
    c.store_slice(b, &vec![2.0f32; N]).unwrap();
    let params = [
        Param::Shared(a),
        Param::Shared(b),
        Param::Shared(out),
        Param::U64(N as u64),
    ];
    c.call_annotated(
        "vecadd",
        LaunchDims::for_elements(N as u64, 256),
        &params,
        Some(&[out]),
    )
    .unwrap();
    c.sync().unwrap();
    let before = c.gmac().transfers().d2h_bytes;
    // Reading the *input* costs nothing: it was never invalidated.
    let _: Vec<f32> = c.load_slice(a, N).unwrap();
    assert_eq!(c.gmac().transfers().d2h_bytes, before);
    // Reading the output fetches it.
    let _: Vec<f32> = c.load_slice(out, N).unwrap();
    assert!(c.gmac().transfers().d2h_bytes > before);
}

#[test]
fn safe_alloc_translates_and_computes() {
    // Multi-GPU platforms expose overlapping device ranges; safe_alloc is
    // the paper's fallback. The kernel still works because the runtime
    // translates parameters.
    let platform = Platform::desktop_multi_gpu(2);
    platform.register_kernel(Arc::new(VecAdd));
    let c = Gmac::new(platform, GmacConfig::default()).session();
    let bytes = (N * 4) as u64;
    let a = c.safe_alloc(bytes).unwrap();
    let b = c.safe_alloc(bytes).unwrap();
    let out = c.safe_alloc(bytes).unwrap();
    // Host pointers differ from device addresses.
    assert_ne!(a.addr().0, c.translate(a).unwrap().0);
    c.store_slice(a, &vec![5.0f32; N]).unwrap();
    c.store_slice(b, &vec![7.0f32; N]).unwrap();
    let params = [
        Param::Shared(a),
        Param::Shared(b),
        Param::Shared(out),
        Param::U64(N as u64),
    ];
    c.call("vecadd", LaunchDims::for_elements(N as u64, 256), &params)
        .unwrap();
    c.sync().unwrap();
    assert_eq!(c.load::<f32>(out).unwrap(), 12.0);
}

#[test]
fn freed_safe_alloc_range_is_reused() {
    // `adsmSafeAlloc` places host ranges first-fit: a free returns the
    // range, so an alloc/free loop reuses one address instead of walking
    // the host reservation until it runs out.
    let c = session(Protocol::Rolling);
    let first = c.safe_alloc(8192).unwrap();
    c.store::<u32>(first, 7).unwrap();
    c.free(first).unwrap();
    for _ in 0..100 {
        let p = c.safe_alloc(8192).unwrap();
        assert_eq!(p, first, "freed range reused");
        // A reused range starts zeroed, like a fresh one.
        assert_eq!(c.load::<u32>(p).unwrap(), 0);
        c.store::<u32>(p, 7).unwrap();
        c.free(p).unwrap();
    }
}

#[test]
fn unified_alloc_collides_on_second_gpu_then_safe_alloc_recovers() {
    // Two G280s share the same memory window: the first unified allocation
    // takes the host range, an allocation on the *other* device at the same
    // device address must collide.
    let platform = Platform::desktop_multi_gpu(2);
    platform.register_kernel(Arc::new(VecAdd));
    let c = Gmac::new(platform, GmacConfig::default()).session();
    let _a = c.alloc_on(DeviceId(0), 1 << 20).unwrap();
    let err = c.alloc_on(DeviceId(1), 1 << 20).unwrap_err();
    assert!(matches!(err, GmacError::AddressCollision(_)));
    // safe_alloc works on the second device.
    let b = c.safe_alloc_on(DeviceId(1), 1 << 20).unwrap();
    assert_eq!(c.object_at(b).unwrap().device, 1);
}

#[test]
fn round_robin_spreads_objects() {
    let platform = Platform::desktop_multi_gpu(2);
    let gmac = Gmac::new(platform, GmacConfig::default());
    let c = gmac.session();
    gmac.set_sched_policy(SchedPolicy::RoundRobin);
    let a = c.alloc(4096).unwrap(); // dev 0, unified
    let b = c.safe_alloc(4096).unwrap(); // dev 1 via rotation
    assert_eq!(c.object_at(a).unwrap().device, 0);
    assert_eq!(c.object_at(b).unwrap().device, 1);
    // Mixing them in one kernel call is rejected.
    let err = c
        .call(
            "vecadd",
            LaunchDims::default(),
            &[Param::Shared(a), Param::Shared(b)],
        )
        .unwrap_err();
    assert!(matches!(err, GmacError::MixedDevices));
}

#[test]
fn sync_without_call_is_an_error() {
    let c = session(Protocol::Rolling);
    assert!(matches!(c.sync(), Err(GmacError::NothingToSync)));
    assert!(!c.has_pending_call());
}

#[test]
fn load_store_scalar_roundtrip_with_faults() {
    let c = session(Protocol::Rolling);
    let p = c.alloc(4096).unwrap();
    c.store::<f64>(p, 3.25).unwrap();
    assert_eq!(c.load::<f64>(p).unwrap(), 3.25);
    // The first store faulted (read-only -> dirty).
    assert!(c.gmac().counters().faults_write >= 1);
    // Freed pointers are rejected.
    c.free(p).unwrap();
    assert!(matches!(c.load::<f64>(p), Err(GmacError::NotShared(_))));
}

#[test]
fn signal_overhead_is_small_fraction_of_runtime() {
    // Paper Figure 10: signal handling stays below 2% of execution time.
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(VecAdd));
    let c = Gmac::new(platform, GmacConfig::default()).session(); // default 256 KiB blocks
    let n = 1_000_000usize;
    let bytes = (n * 4) as u64;
    let a = c.alloc(bytes).unwrap();
    let b = c.alloc(bytes).unwrap();
    let out = c.alloc(bytes).unwrap();
    c.store_slice(a, &vec![1.0f32; n]).unwrap();
    c.store_slice(b, &vec![2.0f32; n]).unwrap();
    let params = [
        Param::Shared(a),
        Param::Shared(b),
        Param::Shared(out),
        Param::U64(n as u64),
    ];
    c.call("vecadd", LaunchDims::for_elements(n as u64, 256), &params)
        .unwrap();
    c.sync().unwrap();
    let _ = c.load_slice::<f32>(out, n).unwrap();
    let signal = c.gmac().ledger().get(hetsim::Category::Signal).as_nanos() as f64;
    let total = c.gmac().ledger().total().as_nanos() as f64;
    assert!(signal / total < 0.02, "signal {signal} / total {total}");
}

#[test]
fn ledger_partitions_total_time() {
    // Fig 10 invariant: category totals account for all elapsed time.
    let c = session(Protocol::Rolling);
    let p = c.alloc(1 << 20).unwrap();
    c.store_slice(p, &vec![1.0f32; 1000]).unwrap();
    c.gmac().with_platform(|p| p.cpu_touch(1 << 20));
    let params = [
        Param::Shared(p),
        Param::Shared(p),
        Param::Shared(p),
        Param::U64(1000),
    ];
    c.call("vecadd", LaunchDims::for_elements(1000, 256), &params)
        .unwrap();
    c.sync().unwrap();
    let _ = c.load::<f32>(p).unwrap();
    assert_eq!(c.gmac().ledger().total(), c.gmac().elapsed());
}
