//! The paper's first ADSM benefit (§3.1): "An application written following
//! a data-centric programming model will target both kinds of systems
//! efficiently" — discrete accelerators with private memory *and* low-cost
//! systems where CPU and accelerator share physical memory.
//!
//! The same unmodified application code runs on both simulated platforms;
//! only the platform handle changes.

use adsm::gmac::{Gmac, GmacConfig, Param, Protocol, SharedPtr};
use adsm::hetsim::{
    read_f32_slice, write_f32_slice, Args, Category, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult,
};
use std::sync::Arc;

const N: usize = 512 * 1024;

#[derive(Debug)]
struct Square;

impl Kernel for Square {
    fn name(&self) -> &str {
        "square"
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
            *x *= *x;
        }
        write_f32_slice(mem, args.ptr(0)?, &v)?;
        Ok(KernelProfile::new(n as f64, 8.0 * n as f64))
    }
}

/// The application: written once against the ADSM API, no platform detail.
fn app(gmac: &Gmac) -> u64 {
    let ctx = gmac.session();
    let v: SharedPtr = ctx.alloc((N * 4) as u64).unwrap();
    ctx.store_slice(v, &(0..N).map(|i| (i % 100) as f32).collect::<Vec<_>>())
        .unwrap();
    ctx.call(
        "square",
        LaunchDims::for_elements(N as u64, 256),
        &[Param::Shared(v), Param::U64(N as u64)],
    )
    .unwrap();
    ctx.sync().unwrap();
    let out: Vec<f32> = ctx.load_slice(v, N).unwrap();
    let mut digest = adsm::workloads::Digest::new();
    digest.update_f32(&out);
    digest.finish()
}

#[test]
fn same_code_runs_on_discrete_and_integrated_platforms() {
    let discrete = Platform::desktop_g280();
    discrete.register_kernel(Arc::new(Square));
    let fused = Platform::fused_apu();
    fused.register_kernel(Arc::new(Square));

    let g1 = Gmac::new(discrete, GmacConfig::default());
    let g2 = Gmac::new(fused, GmacConfig::default());
    let d1 = app(&g1);
    let d2 = app(&g2);

    // Identical results, unchanged source.
    assert_eq!(d1, d2);

    // The integrated platform's "transfers" cross shared DRAM: far cheaper
    // per byte-moved than PCIe DMA (no 12 us doorbell per block).
    let pcie_copy = g1.ledger().get(Category::Copy);
    let shared_copy = g2.ledger().get(Category::Copy);
    assert!(
        shared_copy < pcie_copy,
        "integrated copies ({shared_copy}) should be cheaper than PCIe ({pcie_copy})"
    );
}

#[test]
fn fused_platform_shape() {
    let p = Platform::fused_apu();
    assert_eq!(p.device_count(), 1);
    let dev = p.device(adsm::hetsim::DeviceId(0)).unwrap();
    assert_eq!(dev.link_h2d().name(), "Integrated shared memory");
    assert!(dev.spec().flops < 933e9, "integrated GPUs are weaker");
    assert_eq!(dev.mem().capacity(), 512 << 20);
}

#[test]
fn protocols_behave_identically_on_fused_platform() {
    for protocol in Protocol::ALL {
        let fused = Platform::fused_apu();
        fused.register_kernel(Arc::new(Square));
        let digest = app(&Gmac::new(fused, GmacConfig::default().protocol(protocol)));
        let mut reference = adsm::workloads::Digest::new();
        reference.update_f32(
            &(0..N)
                .map(|i| ((i % 100) * (i % 100)) as f32)
                .collect::<Vec<_>>(),
        );
        assert_eq!(digest, reference.finish(), "{protocol}");
    }
}
