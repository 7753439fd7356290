//! Quickstart: the ADSM programming model in one page.
//!
//! Compare with the paper's Figure 3 (CUDA: double pointers, explicit
//! `cudaMemcpy`) vs Figure 4 (ADSM: one pointer, zero explicit transfers).
//! The runtime is a process-wide [`Gmac`]; each host thread talks to it
//! through a cheap [`Session`] handle, and typed `Shared<f32>` buffers
//! replace raw pointer arithmetic.
//!
//! Run with: `cargo run --example quickstart`
//!
//! [`Gmac`]: adsm::gmac::Gmac
//! [`Session`]: adsm::gmac::Session

use adsm::gmac::{Gmac, GmacConfig, Param, Protocol};
use adsm::hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceMemory, Kernel, KernelProfile, LaunchDims,
    Platform, SimResult,
};
use std::sync::Arc;

/// A SAXPY kernel: `y[i] = a * x[i] + y[i]`.
#[derive(Debug)]
struct Saxpy;

impl Kernel for Saxpy {
    fn name(&self) -> &str {
        "saxpy"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(2)?;
        let a = args.f64(3)? as f32;
        let x = read_f32_slice(mem, args.ptr(0)?, n)?;
        let mut y = read_f32_slice(mem, args.ptr(1)?, n)?;
        for (yi, xi) in y.iter_mut().zip(&x) {
            *yi += a * xi;
        }
        write_f32_slice(mem, args.ptr(1)?, &y)?;
        Ok(KernelProfile::new(2.0 * n as f64, 12.0 * n as f64))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 1 << 20;

    // A simulated desktop: Opteron host + NVIDIA G280 on PCIe 2.0 (the
    // paper's experimental platform).
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(Saxpy));

    // The shared GMAC runtime with the rolling-update protocol (the paper's
    // best), and this thread's session handle on it.
    let gmac = Gmac::new(platform, GmacConfig::default().protocol(Protocol::Rolling));
    let session = gmac.session();

    // adsmAlloc, typed: ONE buffer handle, valid on the CPU *and* the
    // accelerator, element count included.
    let x = session.alloc_typed::<f32>(N)?;
    let y = session.alloc_typed::<f32>(N)?;

    // The CPU initialises shared objects directly — no cudaMemcpy anywhere.
    x.write_slice(&vec![1.0f32; N])?;
    y.write_slice(&vec![2.0f32; N])?;

    // adsmCall + adsmSync: objects are released to the accelerator and
    // acquired back automatically (release consistency, §3.3).
    let params = [
        Param::from(&x),
        Param::from(&y),
        Param::U64(N as u64),
        Param::F64(3.0),
    ];
    session.call("saxpy", LaunchDims::for_elements(N as u64, 256), &params)?;
    session.sync()?;

    // Read the result through the same handle. The first touch of each
    // block faults, fetches, and the access retries — invisible here.
    let result = y.read(0)?;
    assert_eq!(result, 2.0 + 3.0 * 1.0);

    println!("saxpy({N} elements) done: y[0] = {result}");
    println!("virtual time      : {}", gmac.elapsed());
    println!(
        "transfers         : {} H2D, {} D2H",
        adsm::hetsim::fmt_bytes(gmac.transfers().h2d_bytes),
        adsm::hetsim::fmt_bytes(gmac.transfers().d2h_bytes)
    );
    println!("faults handled    : {}", gmac.counters().faults());
    println!("eager evictions   : {}", gmac.counters().eager_evictions);

    // Structured diagnostics (gmacProfile-style observability).
    println!();
    print!("{}", gmac.report());

    // adsmFree: explicit here; dropping the handles would free them too.
    x.free()?;
    y.free()?;
    Ok(())
}
