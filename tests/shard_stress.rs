//! Multi-shard stress test: 4 sessions × 2 devices hammering
//! alloc/call/sync/free/memcpy concurrently.
//!
//! Two sessions share each accelerator (so `DeviceBusy` back-off paths are
//! exercised alongside the happy path), every round also performs a
//! cross-device `memcpy` (the two-shard transaction) plus a free-while-
//! pending rejection, and each thread's output digest must equal the one a
//! sequential run of the same function produces — the shard locks may
//! reorder wall-clock execution but never change data. A watchdog bounds
//! the whole round so a lock-order bug shows up as a clean test failure
//! instead of a hung CI job.

use adsm::gmac::{Gmac, GmacConfig, GmacError, Param};
use adsm::hetsim::{DeviceId, LaunchDims, Platform};
use adsm::workloads::vecadd::VecAddKernel;
use adsm::workloads::Digest;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 4;
const DEVICES: usize = 2;
const N: usize = 32 * 1024;
const ROUNDS: usize = 6;
const WATCHDOG: Duration = Duration::from_secs(120);

fn platform() -> Platform {
    let p = Platform::desktop_multi_gpu(DEVICES);
    p.register_kernel(Arc::new(VecAddKernel));
    p
}

fn inputs(seed: usize) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..N).map(|i| ((i + seed * 97) % 5001) as f32).collect();
    let b: Vec<f32> = (0..N).map(|i| ((i * 3 + seed) % 4099) as f32).collect();
    (a, b)
}

/// One worker's full workload: `ROUNDS` vecadd rounds on its home device,
/// each with a free-while-pending rejection check and a cross-device
/// `memcpy` of the result through the *other* accelerator. Returns the
/// digest over everything the worker observed. Deterministic per worker, so
/// the same function doubles as the sequential reference.
fn worker_round(gmac: &Gmac, worker: usize) -> u64 {
    let home = DeviceId(worker % DEVICES);
    let away = DeviceId((worker + 1) % DEVICES);
    let session = gmac.session_on(home);
    let mut digest = Digest::new();
    for round in 0..ROUNDS {
        let (va, vb) = inputs(worker * 1000 + round);
        let a = session.safe_alloc_typed::<f32>(N).unwrap();
        let b = session.safe_alloc_typed::<f32>(N).unwrap();
        let c = session.safe_alloc_typed::<f32>(N).unwrap();
        let c_ptr = c.ptr();
        a.write_slice(&va).unwrap();
        b.write_slice(&vb).unwrap();
        let params = [
            Param::from(&a),
            Param::from(&b),
            Param::from(&c),
            Param::U64(N as u64),
        ];
        // Two sessions share each device: back off while the sibling's call
        // is in flight.
        loop {
            match session.call("vecadd", LaunchDims::for_elements(N as u64, 256), &params) {
                Ok(()) => break,
                Err(GmacError::DeviceBusy { dev, .. }) => {
                    assert_eq!(dev, home, "busy error must name the home device");
                    std::thread::yield_now();
                }
                Err(other) => panic!("worker {worker}: {other}"),
            }
        }
        // A free while our own call is pending must be refused, naming us as
        // the owner (and leaving the object alive for the raw path below).
        match c.free() {
            Err(GmacError::ObjectInUse { dev, owner, .. }) => {
                assert_eq!(dev, home);
                assert_eq!(owner, session.id());
            }
            other => panic!("worker {worker}: free while pending returned {other:?}"),
        }
        session.sync().unwrap();

        // Cross-device round trip: stage the result on the *other*
        // accelerator (a two-shard memcpy transaction), then read it back.
        let staged = session.safe_alloc_on(away, (N * 4) as u64).unwrap();
        session.memcpy(staged, c_ptr, (N * 4) as u64).unwrap();
        let out: Vec<f32> = session.load_slice(staged, N).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, va[i] + vb[i], "worker {worker} round {round} elem {i}");
        }
        digest.update_f32(&out);

        session.free(staged).unwrap();
        session.free(c_ptr).unwrap();
        // a and b free on drop.
    }
    digest.finish()
}

/// Sequential reference digests (one worker at a time on a fresh runtime).
fn sequential_digests() -> Vec<u64> {
    let gmac = Gmac::new(platform(), GmacConfig::default());
    (0..THREADS).map(|w| worker_round(&gmac, w)).collect()
}

#[test]
fn concurrent_sessions_match_sequential_digests_without_deadlock() {
    let reference = sequential_digests();

    let gmac = Gmac::new(platform(), GmacConfig::default());
    let (tx, rx) = mpsc::channel();
    for worker in 0..THREADS {
        let gmac = gmac.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let digest = worker_round(&gmac, worker);
            tx.send((worker, digest)).unwrap();
        });
    }
    drop(tx);

    let mut digests = vec![0u64; THREADS];
    for _ in 0..THREADS {
        // The watchdog: a deadlock (lock-order bug) fails here instead of
        // hanging the whole test run.
        let (worker, digest) = rx
            .recv_timeout(WATCHDOG)
            .expect("worker deadlocked or panicked");
        digests[worker] = digest;
    }

    assert_eq!(
        digests, reference,
        "concurrent shard execution must be data-equivalent to sequential"
    );
    assert_eq!(gmac.object_count(), 0, "every object freed");
    assert!(gmac.pending_devices().is_empty(), "every call synced");
    assert_eq!(
        gmac.ledger().total(),
        gmac.elapsed(),
        "the ledger partitions elapsed virtual time even under concurrency"
    );
}

/// A kernel that parks inside its launch until the test releases it —
/// holding device 0's execution lock the whole time.
#[derive(Debug)]
struct GateKernel {
    entered: Arc<std::sync::atomic::AtomicBool>,
    release: Arc<std::sync::atomic::AtomicBool>,
}

impl adsm::hetsim::Kernel for GateKernel {
    fn name(&self) -> &str {
        "gate"
    }
    fn execute(
        &self,
        _mem: &mut adsm::hetsim::DeviceMemory,
        _dims: LaunchDims,
        _args: adsm::hetsim::Args<'_>,
    ) -> adsm::hetsim::SimResult<adsm::hetsim::KernelProfile> {
        use std::sync::atomic::Ordering;
        self.entered.store(true, Ordering::SeqCst);
        while !self.release.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        Ok(adsm::hetsim::KernelProfile::new(1.0, 0.0))
    }
}

/// Structural witness of shard independence that needs no second CPU core:
/// while a kernel call is **blocked mid-launch on device 0** (holding that
/// shard's and that device's locks), a full alloc/store/load/free round on
/// device 1 completes. Under the old global `Mutex<State>` the device-1
/// round would deadlock behind the parked call.
#[test]
fn device1_operations_proceed_while_device0_call_is_parked() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let p = Platform::desktop_multi_gpu(DEVICES);
    p.register_kernel(Arc::new(GateKernel {
        entered: Arc::clone(&entered),
        release: Arc::clone(&release),
    }));
    let gmac = Gmac::new(p, GmacConfig::default());

    let (tx, rx) = mpsc::channel();
    {
        let gmac = gmac.clone();
        std::thread::spawn(move || {
            let s0 = gmac.session_on(DeviceId(0));
            s0.call("gate", LaunchDims::for_elements(1, 1), &[])
                .unwrap();
            s0.sync().unwrap();
            tx.send(()).unwrap();
        });
    }

    // Wait until the kernel is provably parked inside the device-0 call.
    let start = std::time::Instant::now();
    while !entered.load(Ordering::SeqCst) {
        assert!(start.elapsed() < WATCHDOG, "gate kernel never started");
        std::thread::yield_now();
    }

    // Device 1 is a different shard: this whole round must complete while
    // device 0 is still blocked.
    let s1 = gmac.session_on(DeviceId(1));
    let v = s1.safe_alloc(4096).unwrap();
    s1.store::<u32>(v, 0xC0FFEE).unwrap();
    assert_eq!(s1.load::<u32>(v).unwrap(), 0xC0FFEE);
    s1.free(v).unwrap();
    // (No shard-0 introspection here: the parked call legitimately holds
    // that shard's lock, which is exactly the point of this test.)
    assert!(
        entered.load(Ordering::SeqCst) && !release.load(Ordering::SeqCst),
        "device 0's call must still be parked in flight"
    );

    release.store(true, Ordering::SeqCst);
    rx.recv_timeout(WATCHDOG)
        .expect("parked call failed to finish after release");
}

/// Regression for the free/alloc reuse race: `free` must release the host
/// registry claim *before* the device range returns to the first-fit
/// allocator, otherwise a concurrent unified `alloc` can be handed the
/// just-freed device address and spuriously collide with the stale claim.
#[test]
fn unified_alloc_free_churn_never_spuriously_collides() {
    let gmac = Gmac::new(platform(), GmacConfig::default());
    let (tx, rx) = mpsc::channel();
    for worker in 0..THREADS {
        let gmac = gmac.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let session = gmac.session_on(DeviceId(0));
            for i in 0..200u32 {
                // Every live allocation holds a distinct device address, so
                // a unified claim can only collide against a *stale* claim
                // of a finished free — which must never happen.
                let p = session.alloc(8192).expect("spurious AddressCollision");
                session.store::<u32>(p, i).unwrap();
                assert_eq!(session.load::<u32>(p).unwrap(), i);
                session.free(p).unwrap();
            }
            tx.send(worker).unwrap();
        });
    }
    drop(tx);
    for _ in 0..THREADS {
        rx.recv_timeout(WATCHDOG).expect("churn worker died");
    }
    assert_eq!(gmac.object_count(), 0);
}
