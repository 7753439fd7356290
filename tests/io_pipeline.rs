//! End-to-end I/O pipeline across crates: disk → shared memory → kernel →
//! shared memory → disk, exercising the §4.4 interposition under every
//! protocol, including ranges that straddle block boundaries.

use adsm::gmac::{Gmac, GmacConfig, Param, Protocol};
use adsm::hetsim::{Args, DeviceMemory, Kernel, KernelProfile, LaunchDims, Platform, SimResult};
use std::sync::Arc;

/// Kernel: byte-wise `out[i] = in[i] XOR key`.
#[derive(Debug)]
struct XorKernel;

impl Kernel for XorKernel {
    fn name(&self) -> &str {
        "xor"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(2)?;
        let key = args.u64(3)? as u8;
        let input = mem.slice(args.ptr(0)?, n)?.to_vec();
        let output: Vec<u8> = input.iter().map(|b| b ^ key).collect();
        mem.write(args.ptr(1)?, &output)?;
        Ok(KernelProfile::new(n as f64, n as f64 * 2.0))
    }
}

fn pipeline(protocol: Protocol, size: u64, block: u64) {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(XorKernel));
    let data: Vec<u8> = (0..size).map(|i| (i % 241) as u8).collect();
    platform.fs_mut().create("input.bin", data.clone());

    let ctx = Gmac::new(
        platform,
        GmacConfig::default().protocol(protocol).block_size(block),
    )
    .session();
    let src = ctx.alloc(size).unwrap();
    let dst = ctx.alloc(size).unwrap();

    // Disk straight into shared memory.
    let n = ctx.read_file_to_shared("input.bin", 0, src, size).unwrap();
    assert_eq!(n, size);

    // Kernel transforms src into dst.
    let params = [
        Param::Shared(src),
        Param::Shared(dst),
        Param::U64(size),
        Param::U64(0x77),
    ];
    ctx.call("xor", LaunchDims::for_elements(size, 256), &params)
        .unwrap();
    ctx.sync().unwrap();

    // Shared memory straight back to disk.
    ctx.write_shared_to_file("output.bin", 0, dst, size)
        .unwrap();

    // Validate the file contents against the expected transform.
    let mut out = vec![0u8; size as usize];
    ctx.gmac()
        .with_platform(|p| p.fs_mut().read_at("output.bin", 0, &mut out))
        .unwrap();
    let expected: Vec<u8> = data.iter().map(|b| b ^ 0x77).collect();
    assert_eq!(out, expected, "{protocol} pipeline corrupted data");
}

#[test]
fn disk_kernel_disk_pipeline_all_protocols() {
    for protocol in Protocol::ALL {
        pipeline(protocol, 200_000, 16 * 1024);
    }
}

#[test]
fn pipeline_with_odd_sizes_and_tiny_blocks() {
    // Unaligned length, block smaller than a page would be rejected;
    // smallest legal block is one page.
    pipeline(Protocol::Rolling, 12_345, 4096);
    pipeline(Protocol::Lazy, 12_345, 4096);
}

#[test]
fn partial_file_reads_and_offsets() {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(XorKernel));
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 199) as u8).collect();
    platform.fs_mut().create("in.bin", data.clone());
    let ctx = Gmac::new(platform, GmacConfig::default().block_size(8192)).session();
    let obj = ctx.alloc(64 * 1024).unwrap();

    // Read a window from the middle of the file to an offset inside the
    // object (straddling several 8 KiB blocks).
    let n = ctx
        .read_file_to_shared("in.bin", 50_000, obj.byte_add(1000), 30_000)
        .unwrap();
    assert_eq!(n, 30_000);
    let got: Vec<u8> = ctx.load_slice(obj.byte_add(1000), 30_000).unwrap();
    assert_eq!(&got[..], &data[50_000..80_000]);

    // Write a window back at a file offset.
    ctx.write_shared_to_file("out.bin", 7, obj.byte_add(1000), 30_000)
        .unwrap();
    let mut out = vec![0u8; 30_007];
    ctx.gmac()
        .with_platform(|p| p.fs_mut().read_at("out.bin", 0, &mut out))
        .unwrap();
    assert_eq!(&out[7..], &data[50_000..80_000]);
    assert!(out[..7].iter().all(|&b| b == 0));
}

#[test]
fn shared_to_shared_memcpy_across_devices_is_host_mediated() {
    // Two devices: copying between objects on different accelerators goes
    // through system memory and stays correct.
    let platform = Platform::desktop_multi_gpu(2);
    platform.register_kernel(Arc::new(XorKernel));
    let ctx = Gmac::new(platform, GmacConfig::default()).session();
    let a = ctx.alloc_on(adsm::hetsim::DeviceId(0), 32 * 1024).unwrap();
    let b = ctx
        .safe_alloc_on(adsm::hetsim::DeviceId(1), 32 * 1024)
        .unwrap();
    ctx.store_slice(a, &vec![0x42u8; 32 * 1024]).unwrap();
    ctx.memcpy(b, a, 32 * 1024).unwrap();
    let got: Vec<u8> = ctx.load_slice(b, 32 * 1024).unwrap();
    assert!(got.iter().all(|&x| x == 0x42));
}
