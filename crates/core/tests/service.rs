//! The service-layer contract, end to end:
//!
//! 1. With [`GmacConfig::service`] on, [`GmacError::DeviceBusy`] **never**
//!    reaches a client — device contention becomes queueing (the one worker
//!    per device executes jobs serially through its own pinned session).
//! 2. Deficit-weighted fair dequeue starves no priority class, proven under
//!    a watchdogged stress run.
//! 3. Queue overflow rejects deterministically with a machine-readable
//!    [`AdmissionReason::QueueFull`] and a non-zero retry-after hint, and
//!    the queue readmits once drained.
//! 4. The ablation toggle: a serialized single-tenant run is
//!    **byte-identical** — digests, total virtual time, every per-category
//!    ledger entry, fault/transfer counters — across queued mode, inline
//!    mode ([`GmacConfig::service`]`(false)`) and direct (service-less)
//!    execution. The service is wall-clock-only machinery, like
//!    `tlb`/`async_dma`/`mmap_backing` before it.

use gmac::AdmissionReason;
use gmac::{Gmac, GmacConfig, GmacError, Priority};
use hetsim::{Category, DeviceId, Nanos, Platform};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use workloads::cp::Cp;
use workloads::stencil3d::Stencil3d;
use workloads::vecadd::VecAdd;
use workloads::Workload;

/// Fails the test hard if `f` has not finished within `limit` — a wedged
/// fair queue or a stuck worker must fail loudly, not hang CI.
fn with_watchdog<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let work = std::thread::spawn(move || {
        let r = f();
        flag.store(true, Ordering::Release);
        r
    });
    let deadline = std::time::Instant::now() + limit;
    while !done.load(Ordering::Acquire) {
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog: service test exceeded {limit:?} — queue or worker wedged"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    work.join().expect("service test thread panicked")
}

fn nop_gmac(cfg: GmacConfig) -> Gmac {
    let g = Gmac::new(Platform::desktop_g280(), cfg);
    g.with_platform(|p| p.register_kernel(Arc::new(gmac::testutil::NopKernel)));
    g
}

/// A gate the overflow tests use to wedge the (single) device worker.
type Gate = Arc<(Mutex<bool>, Condvar)>;

fn gate() -> Gate {
    Arc::new((Mutex::new(false), Condvar::new()))
}

fn wait_gate(g: &Gate) {
    let (m, cv) = &**g;
    let mut open = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    while !*open {
        open = cv
            .wait(open)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

fn open_gate(g: &Gate) {
    let (m, cv) = &**g;
    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
    cv.notify_all();
}

// ---------------------------------------------------------------------------
// 1. DeviceBusy never surfaces with the service on.
// ---------------------------------------------------------------------------

#[test]
fn device_busy_never_reaches_clients_through_the_service() {
    with_watchdog(Duration::from_secs(60), || {
        let g = nop_gmac(GmacConfig::default());
        let svc = g.service();
        // 8 tenants × 24 kernel-calling jobs, all contending for ONE
        // device. Without the service this workload is exactly the
        // DeviceBusy shape (see `shard_stress`); through it, contention
        // must become queueing.
        let clients: Vec<_> = Priority::ALL
            .iter()
            .cycle()
            .take(8)
            .map(|&p| svc.client(p))
            .collect();
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let tickets: Vec<_> = (0..24)
                        .map(|i| {
                            c.submit(4096, move |s| {
                                let b = s.alloc_typed::<u32>(256)?;
                                b.write(0, i)?;
                                s.call(
                                    "nop",
                                    hetsim::LaunchDims::for_elements(1, 1),
                                    &[gmac::Param::Shared(b.ptr())],
                                )?;
                                s.sync()?;
                                let v = b.read(0)?;
                                b.free()?;
                                Ok(u64::from(v))
                            })
                            .expect("default queue depth absorbs this backlog")
                        })
                        .collect();
                    for (i, t) in tickets.iter().enumerate() {
                        match t.wait() {
                            Ok(v) => assert_eq!(v, i as u64),
                            Err(GmacError::DeviceBusy { .. }) => {
                                panic!("DeviceBusy leaked through the service layer")
                            }
                            Err(other) => panic!("job failed: {other}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = svc.stats();
        assert_eq!(snap.completed(), 8 * 24);
        assert_eq!(snap.rejected(), 0);
        drop(svc);
    });
}

// ---------------------------------------------------------------------------
// 2. Fairness: no priority class starves.
// ---------------------------------------------------------------------------

#[test]
fn no_priority_class_starves_under_contention() {
    with_watchdog(Duration::from_secs(60), || {
        let g = nop_gmac(GmacConfig::default().service_queue_depth(2048));
        let svc = g.service();
        let blocker = svc.client(Priority::Normal);
        let high = svc.client(Priority::High);
        let low = svc.client(Priority::Low);

        // Wedge the single worker so the whole backlog queues up and the
        // DRR ring actually has to arbitrate between the classes.
        let g8 = gate();
        let g8w = Arc::clone(&g8);
        let wedge = blocker
            .submit(1, move |_s| {
                wait_gate(&g8w);
                Ok(0)
            })
            .unwrap();

        const PER_CLASS: usize = 120;
        let mut tickets = vec![wedge];
        for i in 0..PER_CLASS as u64 {
            tickets.push(high.submit(64 * 1024, move |_s| Ok(i)).unwrap());
            tickets.push(low.submit(64 * 1024, move |_s| Ok(i)).unwrap());
        }
        open_gate(&g8);
        for t in &tickets {
            t.wait().unwrap();
        }

        let snap = svc.stats();
        let h = snap.classes[Priority::High.index()];
        let l = snap.classes[Priority::Low.index()];
        assert_eq!(h.completed, PER_CLASS as u64, "high class fully served");
        assert_eq!(l.completed, PER_CLASS as u64, "low class fully served");
        assert_eq!(snap.rejected(), 0);
        assert_eq!(
            h.served_bytes, l.served_bytes,
            "equal per-class byte volume was submitted"
        );
        // The 4× DRR weight must actually bias service order: with both
        // classes backlogged behind the wedge, high-priority jobs cleared
        // the queue sooner on average.
        assert!(
            h.avg_wait_ns() <= l.avg_wait_ns(),
            "high class must not wait longer than low: {} vs {} ns",
            h.avg_wait_ns(),
            l.avg_wait_ns()
        );
        drop(svc);
    });
}

// ---------------------------------------------------------------------------
// 3. Deterministic overflow rejection.
// ---------------------------------------------------------------------------

#[test]
fn queue_overflow_rejects_deterministically_and_readmits() {
    with_watchdog(Duration::from_secs(60), || {
        let g = nop_gmac(GmacConfig::default().service_queue_depth(4));
        let svc = g.service();
        let c = svc.client(Priority::Normal);
        let g8 = gate();
        let g8w = Arc::clone(&g8);
        let started = gate();
        let started_w = Arc::clone(&started);
        let mut accepted = vec![c
            .submit(1, move |_s| {
                open_gate(&started_w);
                wait_gate(&g8w);
                Ok(0)
            })
            .unwrap()];
        // Park the placer before touching the fair queue: once the worker
        // holds the wedged job, the device lane takes LANE_SLACK + 1 = 3
        // jobs and the placer blocks holding a fourth. Submitting them one
        // at a time, each taken off the queue before the next, leaves the
        // placer provably unable to drain the queue below.
        wait_gate(&started);
        for i in 0..4u64 {
            accepted.push(c.submit(1, move |_s| Ok(i)).unwrap());
            while svc.queue_depth() > 0 {
                std::thread::yield_now();
            }
        }
        // Fill until the first rejection; from that point every further
        // submission must ALSO reject with the same queued/capacity shape
        // (the backlog cannot shrink while the worker is wedged).
        let mut first_rejection = None;
        for i in 0..64u64 {
            match c.submit(1, move |_s| Ok(i)) {
                Ok(t) => {
                    assert!(
                        first_rejection.is_none(),
                        "queue readmitted while provably still full"
                    );
                    accepted.push(t);
                }
                Err(e) => {
                    match &e {
                        GmacError::Admission {
                            reason: AdmissionReason::QueueFull { queued, capacity },
                            retry_after,
                        } => {
                            assert_eq!(*capacity, 4);
                            assert_eq!(*queued, 4, "rejection reports a full queue");
                            assert!(retry_after.as_nanos() > 0);
                        }
                        other => panic!("expected Admission(QueueFull), got {other:?}"),
                    }
                    first_rejection.get_or_insert(e);
                }
            }
        }
        first_rejection.expect("a 4-deep queue must reject within 64 submissions");
        assert_eq!(accepted.len(), 1 + 4 + 4, "admitted exactly the depth");
        assert!(svc.stats().rejected() >= 1);
        assert_eq!(svc.queue_high_water(), 4);

        // Drain and readmit: the rejection is back-pressure, not a wedge.
        open_gate(&g8);
        for t in &accepted {
            t.wait().unwrap();
        }
        let t = c.submit(1, |_s| Ok(7)).unwrap();
        assert_eq!(t.wait().unwrap(), 7);
        drop(svc);
    });
}

// ---------------------------------------------------------------------------
// 4. Ablation: queued / inline / direct are byte-identical.
// ---------------------------------------------------------------------------

/// One serialized single-tenant pass over three real workloads, returning
/// everything the simulation observes.
struct ModeResult {
    digests: Vec<u64>,
    elapsed: Nanos,
    ledger: Vec<(Category, Nanos)>,
    faults: (u64, u64),
    h2d_bytes: u64,
    d2h_bytes: u64,
    jobs: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Jobs flow through queue → placer → device worker.
    Queued,
    /// `GmacConfig::service(false)`: same submit API, inline execution.
    Inline,
    /// No service at all: plain sessions, the pre-service code path.
    Direct,
}

fn run_mode(mode: Mode) -> ModeResult {
    let vecadd = VecAdd::small();
    let cp = Cp::small();
    let stencil = Stencil3d::small();
    let mut platform = Platform::desktop_g280();
    for w in [&vecadd as &dyn Workload, &cp, &stencil] {
        w.register_kernels(&mut platform);
        w.prepare(&mut platform).unwrap();
    }
    let service_on = mode != Mode::Inline;
    let g = Gmac::new(platform, GmacConfig::default().service(service_on));
    let digests = match mode {
        Mode::Direct => {
            let s = g.session_on(DeviceId(0));
            vec![
                vecadd.run_gmac(&s).unwrap(),
                cp.run_gmac(&s).unwrap(),
                stencil.run_gmac(&s).unwrap(),
            ]
        }
        Mode::Queued | Mode::Inline => {
            let svc = g.service();
            assert_eq!(svc.is_queued(), mode == Mode::Queued);
            let client = svc.client(Priority::Normal);
            // Serialized single-tenant: wait for each ticket before the
            // next submit, so ordering matches the direct run exactly.
            let digests = [vecadd.job(), cp.job(), stencil.job()]
                .into_iter()
                .map(|job| job.submit(&client).unwrap().wait().unwrap())
                .collect();
            drop(svc);
            digests
        }
    };
    let counters = g.counters();
    let transfers = g.transfers();
    let platform = g.into_platform();
    let ledger = platform.ledger();
    ModeResult {
        digests,
        elapsed: platform.elapsed(),
        ledger: Category::ALL.iter().map(|&c| (c, ledger.get(c))).collect(),
        faults: (counters.faults_read, counters.faults_write),
        h2d_bytes: transfers.h2d_bytes,
        d2h_bytes: transfers.d2h_bytes,
        jobs: transfers.total_jobs(),
    }
}

#[test]
fn service_modes_are_byte_identical_on_a_serialized_run() {
    let queued = run_mode(Mode::Queued);
    let inline_ = run_mode(Mode::Inline);
    let direct = run_mode(Mode::Direct);
    for (name, other) in [("inline", &inline_), ("direct", &direct)] {
        assert_eq!(queued.digests, other.digests, "queued vs {name}: digests");
        assert_eq!(
            queued.elapsed, other.elapsed,
            "queued vs {name}: total virtual time"
        );
        for (&(cat, a), &(_, b)) in queued.ledger.iter().zip(&other.ledger) {
            assert_eq!(a, b, "queued vs {name}: ledger category {cat}");
        }
        assert_eq!(queued.faults, other.faults, "queued vs {name}: faults");
        assert_eq!(
            queued.h2d_bytes, other.h2d_bytes,
            "queued vs {name}: H2D traffic"
        );
        assert_eq!(
            queued.d2h_bytes, other.d2h_bytes,
            "queued vs {name}: D2H traffic"
        );
        assert_eq!(queued.jobs, other.jobs, "queued vs {name}: DMA job shape");
    }
}

// ---------------------------------------------------------------------------
// 5. A panicking job cannot corrupt the fairness clock.

/// A job that unwinds past its fast-path accesses leaves thread-local
/// deferred CPU charges behind; the worker must settle them before it picks
/// up the next job, or one tenant's time silently bills to another and the
/// fairness accounting drifts. Proven by ablation: a run whose middle job
/// panics after its writes lands on the **same virtual clock** as a run
/// whose middle job does the same writes and returns cleanly.
#[test]
fn panicking_job_settles_deferred_charges_before_the_worker_resumes() {
    let run = |panic_mid: bool| {
        with_watchdog(Duration::from_secs(60), move || {
            let g = nop_gmac(GmacConfig::default());
            let svc = g.service();
            let c = svc.client(Priority::Normal);
            let mid = c
                .submit(4096, move |s| {
                    let b = s.alloc_typed::<u32>(1024)?;
                    for i in 0..1024 {
                        b.write(i, i as u32)?; // fast-path: charges deferred in TLS
                    }
                    if panic_mid {
                        panic!("mid-job crash after fast-path writes");
                    }
                    b.free()?;
                    Ok(0)
                })
                .unwrap();
            let mid_result = mid.wait();
            // The follow-up job's accounting must be identical either way.
            let tail = c
                .submit(4096, |s| {
                    let b = s.alloc_typed::<u32>(256)?;
                    b.write(0, 7)?;
                    s.call(
                        "nop",
                        hetsim::LaunchDims::for_elements(1, 1),
                        &[gmac::Param::Shared(b.ptr())],
                    )?;
                    s.sync()?;
                    let v = b.read(0)?;
                    b.free()?;
                    Ok(u64::from(v))
                })
                .unwrap();
            assert_eq!(tail.wait().unwrap(), 7);
            let snap = svc.stats();
            let class = snap.classes[Priority::Normal.index()];
            (g.elapsed(), mid_result.is_ok(), class.failed)
        })
    };
    let clean = run(false);
    let panicked = run(true);
    assert!(clean.1, "control run's middle job succeeds");
    assert!(!panicked.1, "panicking job fails its ticket");
    assert_eq!(clean.2, 0, "control run records no failure");
    assert_eq!(panicked.2, 1, "panic is booked as a class failure");
    assert_eq!(
        clean.0, panicked.0,
        "the panicking run and the clean run must settle on the same \
         virtual clock — deferred fast-path charges from the unwound job \
         were either lost or double-billed"
    );
}
