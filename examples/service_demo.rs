//! The service layer end to end: 256 client sessions with mixed priorities
//! fan in on a two-GPU platform through the job queue. The placer spreads
//! jobs by live load (queue depth + in-flight bytes per device), the
//! deficit-weighted fair queue arbitrates between priority classes, and a
//! too-small queue turns the overflow into machine-readable
//! [`GmacError::Admission`] rejections that clients absorb by retrying
//! after the hinted delay — `DeviceBusy` never reaches anyone.
//!
//! Run with: `cargo run --example service_demo`
//!
//! [`GmacError::Admission`]: adsm::gmac::GmacError::Admission

use adsm::gmac::{Gmac, GmacConfig, GmacError, Param, Priority};
use adsm::hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceMemory, Kernel, KernelProfile, LaunchDims,
    Platform, SimResult,
};
use std::sync::Arc;
use std::time::Duration;

/// `v[i] = 3 * v[i]` — just enough work to make placement visible.
#[derive(Debug)]
struct Triple;

impl Kernel for Triple {
    fn name(&self) -> &str {
        "triple"
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
            *x *= 3.0;
        }
        write_f32_slice(mem, args.ptr(0)?, &v)?;
        Ok(KernelProfile::new(n as f64, 8.0 * n as f64))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SESSIONS: usize = 256;
    const JOBS_PER_SESSION: usize = 3;
    const N: usize = 4 * 1024;

    // Two G280s with overlapping device windows (the §4.2 situation), so
    // the jobs use safe_alloc — placement must work on EITHER device.
    let platform = Platform::desktop_multi_gpu(2);
    platform.register_kernel(Arc::new(Triple));
    let gmac = Gmac::new(
        platform,
        // A deliberately small queue: with 256 clients the overflow path
        // (admission rejection + hinted retry) actually fires.
        GmacConfig::default().service_queue_depth(128),
    );

    let svc = gmac.service();
    println!(
        "service up: {} devices, queue depth {}, priorities Low/Normal/High\n",
        svc.loads().len(),
        svc.capacity()
    );

    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            // Mixed tenancy: every third client is high-priority, etc.
            let client = svc.client(Priority::ALL[i % Priority::ALL.len()]);
            std::thread::spawn(move || {
                let mut retries = 0u64;
                for j in 0..JOBS_PER_SESSION {
                    let seed = (i * JOBS_PER_SESSION + j) as f32;
                    let ticket = loop {
                        match client.submit((N * 4) as u64, move |s| {
                            let v = s.safe_alloc((N * 4) as u64)?;
                            s.store_slice(v, &vec![seed; N])?;
                            s.call(
                                "triple",
                                LaunchDims::for_elements(N as u64, 256),
                                &[Param::Shared(v), Param::U64(N as u64)],
                            )?;
                            s.sync()?;
                            let out: f32 = s.load(v)?;
                            s.free(v)?;
                            Ok(out.to_bits() as u64)
                        }) {
                            Ok(t) => break t,
                            Err(GmacError::Admission { retry_after, .. }) => {
                                // Back-pressure, not failure: wait the
                                // hinted delay and resubmit.
                                retries += 1;
                                std::thread::sleep(Duration::from_nanos(
                                    retry_after.as_nanos().clamp(100_000, 2_000_000),
                                ));
                            }
                            Err(e) => panic!("submit: {e}"),
                        }
                    };
                    let bits = ticket.wait().expect("job result");
                    assert_eq!(f32::from_bits(bits as u32), seed * 3.0);
                }
                retries
            })
        })
        .collect();

    let retries: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();

    let snap = svc.stats();
    println!(
        "all {} jobs done ({} admission rejections absorbed by retry)\n",
        snap.completed(),
        retries
    );
    for p in Priority::ALL {
        let c = snap.classes[p.index()];
        println!(
            "  {:?}\tjobs {}\tserved {} B\tavg wait {:.3} ms",
            p,
            c.completed,
            c.served_bytes,
            c.avg_wait_ns() as f64 / 1e6
        );
    }
    println!("\n{}", gmac.report());
    drop(svc);
    Ok(())
}
