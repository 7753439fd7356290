//! Multiple accelerators with overlapping memory windows: the §4.2 scenario
//! where the unified-address mmap trick *fails* and `adsmSafeAlloc` +
//! `adsmSafe` (translation) take over — driven through two per-device
//! [`Session`] handles whose kernel calls are in flight **simultaneously**.
//!
//! Run with: `cargo run --example multi_accel`
//!
//! [`Session`]: adsm::gmac::Session

use adsm::gmac::{Gmac, GmacConfig, GmacError, Param};
use adsm::hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult,
};
use std::sync::Arc;

#[derive(Debug)]
struct Scale;

impl Kernel for Scale {
    fn name(&self) -> &str {
        "scale"
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
        for x in v.iter_mut() {
            *x *= k;
        }
        write_f32_slice(mem, args.ptr(0)?, &v)?;
        Ok(KernelProfile::new(n as f64, 8.0 * n as f64))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 64 * 1024;

    // Two G280s whose device windows share the same base address — exactly
    // the situation the paper warns about: "calls to cudaMalloc() for
    // different GPUs are likely to return overlapping memory address ranges".
    let platform = Platform::desktop_multi_gpu(2);
    platform.register_kernel(Arc::new(Scale));
    let gmac = Gmac::new(platform, GmacConfig::default());

    // One session per accelerator: each carries its own affinity and its
    // own pending-call state.
    let s0 = gmac.session_on(DeviceId(0));
    let s1 = gmac.session_on(DeviceId(1));

    // Unified allocation works for the first device...
    let a = s0.alloc((N * 4) as u64)?;
    println!(
        "dev0 unified alloc : host {} == device {}",
        a,
        s0.translate(a)?
    );

    // ...but the same range on the second device collides:
    match s1.alloc((N * 4) as u64) {
        Err(GmacError::AddressCollision(addr)) => {
            println!("dev1 unified alloc : collision at {addr} (as §4.2 predicts)");
        }
        other => panic!("expected an address collision, got {other:?}"),
    }

    // adsmSafeAlloc recovers: CPU pointer != device address, the runtime
    // translates kernel parameters automatically (adsmSafe).
    let b = s1.safe_alloc((N * 4) as u64)?;
    println!(
        "dev1 safe alloc    : host {} -> device {}",
        b,
        s1.translate(b)?
    );

    // Both objects are fully usable; each session launches on its own
    // accelerator and the two kernels are in flight at the same time.
    s0.store_slice(a, &vec![2.0f32; N])?;
    s1.store_slice(b, &vec![10.0f32; N])?;

    s0.call(
        "scale",
        LaunchDims::for_elements(N as u64, 256),
        &[Param::Shared(a), Param::U64(N as u64), Param::F64(3.0)],
    )?;
    s1.call(
        "scale",
        LaunchDims::for_elements(N as u64, 256),
        &[Param::Shared(b), Param::U64(N as u64), Param::F64(0.5)],
    )?;
    assert!(s0.has_pending_call() && s1.has_pending_call());
    println!(
        "in flight          : gpus {:?} (two un-synced calls at once)",
        gmac.pending_devices()
    );
    s0.sync()?;
    s1.sync()?;

    let va: f32 = s0.load(a)?;
    let vb: f32 = s1.load(b)?;
    assert_eq!(va, 6.0);
    assert_eq!(vb, 5.0);
    println!("results            : a[0] = {va} (dev0), b[0] = {vb} (dev1)");
    println!();
    println!("the paper's fix for this case is accelerator virtual memory (§4.2);");
    println!("until then, adsmSafeAlloc/adsmSafe keep multi-GPU systems working.");
    Ok(())
}
