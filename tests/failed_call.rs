//! A failed `adsmCall` is a call that returned: when the release, the DMA
//! join or the launch fails, the runtime runs the acquire side before it
//! surfaces the error. The device copy is then authoritative, no CPU write
//! made after the failure is lost, and every protocol agrees on every byte.
//!
//! The kernel adds 1 to each byte of its object and can fail at byte 100,
//! either with a typed error or by panicking. Each case runs under every
//! protocol, with device memory roomy (eviction off) and tight enough that
//! objects are evicted, with one session and with a second, innocent session
//! on the same device.

use adsm::gmac::{Gmac, GmacConfig, GmacError, Param, Protocol, Session, SharedPtr};
use adsm::hetsim::{
    Args, DeviceMemory, FaultOp, FaultPlan, GpuSpec, Kernel, KernelProfile, LaunchDims, Platform,
    SimError, SimResult, DEFAULT_DEVICE_BASE,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const OBJ: u64 = 64 << 10;
const FAIL_AT: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Failure {
    Error,
    Panic,
}

/// `bump(ptr, len, mode)`: adds 1 to each of `len` bytes; mode 1 fails with
/// a typed error at byte [`FAIL_AT`], mode 2 panics there.
#[derive(Debug)]
struct Bump;

impl Kernel for Bump {
    fn name(&self) -> &str {
        "bump"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let (ptr, len, mode) = (args.ptr(0)?, args.u64(1)?, args.u64(2)?);
        for (i, byte) in mem.slice_mut(ptr, len)?.iter_mut().enumerate() {
            if i as u64 == FAIL_AT {
                match mode {
                    1 => return Err(SimError::BadKernelArgs("bump failed".into())),
                    2 => panic!("bump panicked"),
                    _ => {}
                }
            }
            *byte = byte.wrapping_add(1);
        }
        Ok(KernelProfile::new(len as f64, 2.0 * len as f64))
    }
}

fn bump(s: &Session, p: SharedPtr, mode: u64) -> Result<(), GmacError> {
    s.call(
        "bump",
        LaunchDims::for_elements(OBJ, 256),
        &[Param::Shared(p), Param::U64(OBJ), Param::U64(mode)],
    )
}

/// Launches the failing call and checks it failed the requested way.
fn fail(s: &Session, p: SharedPtr, failure: Failure) {
    match failure {
        Failure::Error => assert!(bump(s, p, 1).is_err(), "the call must fail"),
        Failure::Panic => {
            let unwound = catch_unwind(AssertUnwindSafe(|| bump(s, p, 2)));
            assert!(unwound.is_err(), "the kernel must panic");
        }
    }
}

fn good_call(s: &Session, p: SharedPtr) {
    bump(s, p, 0).expect("good call");
    s.sync().expect("sync");
}

/// With eviction on, the device holds only two of the test's objects, so
/// every allocation past the second evicts one.
fn runtime(protocol: Protocol, evict: bool) -> Gmac {
    let mem = if evict { 2 * OBJ } else { 1 << 30 };
    let platform = Platform::builder()
        .clear_devices()
        .add_device(GpuSpec::g280(), mem, DEFAULT_DEVICE_BASE)
        .build();
    platform.register_kernel(Arc::new(Bump));
    let cfg = GmacConfig::default()
        .protocol(protocol)
        .block_size(4096)
        .evict(evict);
    Gmac::new(platform, cfg)
}

/// Every byte each scenario observed, for the cross-protocol comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    after_failure: Vec<u8>,
    end: Vec<Vec<u8>>,
}

fn run(protocol: Protocol, evict: bool, two_sessions: bool, failure: Failure) -> Observed {
    let case = format!("{protocol}, evict {evict}, two sessions {two_sessions}, {failure:?}");
    let gmac = runtime(protocol, evict);
    let a_side = gmac.session();
    let b_side = gmac.session();
    let cold = a_side.alloc(OBJ).unwrap();
    a_side.memset(cold, 3, OBJ).unwrap();
    let a = a_side.alloc(OBJ).unwrap();
    a_side.memset(a, 7, OBJ).unwrap();
    let b = two_sessions.then(|| {
        let b = b_side.alloc(OBJ).unwrap();
        b_side.memset(b, 1, OBJ).unwrap();
        b
    });

    fail(&a_side, a, failure);
    assert!(!a_side.has_pending_call(), "{case}: nothing pending");
    assert!(
        matches!(a_side.sync(), Err(GmacError::NothingToSync)),
        "{case}: nothing to sync"
    );
    let after_failure = a_side.load_slice::<u8>(a, OBJ as usize).unwrap();
    assert_eq!(
        after_failure[0], 8,
        "{case}: the device copy is authoritative"
    );
    assert_eq!(after_failure[FAIL_AT as usize], 7, "{case}");

    if let Some(b) = b {
        // The innocent session writes, calls and syncs its own object.
        b_side.store::<u8>(b, 40).unwrap();
        good_call(&b_side, b);
        assert_eq!(b_side.load::<u8>(b).unwrap(), 41, "{case}: B's write lost");
    } else {
        // A third object forces an eviction on the tight device.
        let ballast = a_side.alloc(OBJ).unwrap();
        a_side.memset(ballast, 9, OBJ).unwrap();
        a_side.free(ballast).unwrap();
    }

    a_side.store::<u8>(a.byte_add(8192), 50).unwrap();
    good_call(&a_side, a);
    assert_eq!(
        a_side.load::<u8>(a.byte_add(8192)).unwrap(),
        51,
        "{case}: the CPU write after the failure was lost"
    );

    // The runtime stays usable.
    let fresh = a_side.alloc(OBJ).unwrap();
    a_side.memset(fresh, 0, OBJ).unwrap();
    good_call(&a_side, fresh);
    assert_eq!(a_side.load::<u8>(fresh).unwrap(), 1, "{case}");
    a_side.free(fresh).unwrap();

    if evict {
        assert!(gmac.counters().evictions > 0, "{case}: nothing evicted");
    }
    let mut end = vec![a_side.load_slice::<u8>(cold, OBJ as usize).unwrap()];
    end.push(a_side.load_slice::<u8>(a, OBJ as usize).unwrap());
    if let Some(b) = b {
        end.push(b_side.load_slice::<u8>(b, OBJ as usize).unwrap());
    }
    Observed { after_failure, end }
}

fn check(evict: bool, two_sessions: bool, failure: Failure) {
    let runs: Vec<_> = Protocol::ALL
        .into_iter()
        .map(|p| (p, run(p, evict, two_sessions, failure)))
        .collect();
    let (first, reference) = &runs[0];
    for (p, observed) in &runs[1..] {
        assert!(
            observed == reference,
            "{p} and {first} disagree (evict {evict}, two sessions {two_sessions}, {failure:?})"
        );
    }
}

#[test]
fn failed_call_keeps_cpu_writes_one_session() {
    for evict in [false, true] {
        check(evict, false, Failure::Error);
    }
}

#[test]
fn failed_call_keeps_cpu_writes_two_sessions() {
    for evict in [false, true] {
        check(evict, true, Failure::Error);
    }
}

#[test]
fn panicking_kernel_keeps_cpu_writes_one_session() {
    for evict in [false, true] {
        check(evict, false, Failure::Panic);
    }
}

#[test]
fn panicking_kernel_keeps_cpu_writes_two_sessions() {
    for evict in [false, true] {
        check(evict, true, Failure::Panic);
    }
}

#[test]
fn failed_release_flush_keeps_cpu_writes() {
    // The release's first host-to-device transfer fails: the host copy is
    // still the only one holding the CPU's writes, so the acquire after the
    // failed call must not replace it with the device's stale bytes.
    for protocol in Protocol::ALL {
        let gmac = runtime(protocol, false);
        let s = gmac.session();
        let a = s.alloc(OBJ).unwrap();
        s.memset(a, 7, OBJ).unwrap();
        s.store::<u8>(a.byte_add(8192), 50).unwrap();
        let plan = FaultPlan::new().fail_nth(FaultOp::ReserveH2d, 0);
        gmac.with_platform(|p| p.arm_faults(plan));
        assert!(bump(&s, a, 0).is_err(), "{protocol}: the flush must fail");
        gmac.with_platform(|p| p.disarm_faults());
        assert_eq!(s.load::<u8>(a).unwrap(), 7, "{protocol}");
        assert_eq!(s.load::<u8>(a.byte_add(8192)).unwrap(), 50, "{protocol}");
        good_call(&s, a);
        assert_eq!(s.load::<u8>(a).unwrap(), 8, "{protocol}");
        assert_eq!(s.load::<u8>(a.byte_add(8192)).unwrap(), 51, "{protocol}");
    }
}
