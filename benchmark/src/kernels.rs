//! The benchmark's own accelerator kernels, plus a wrapper that times any
//! kernel body on the host (traced rounds only).

use crate::harness::Rng;
use hetsim::{Args, DeviceMemory, Kernel, KernelProfile, LaunchDims, Platform, SimResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host time spent inside kernel bodies, for `hetsim.kernel_host_share`.
/// Kernels registered (or re-registered) through it are timed by a
/// transparent wrapper; untraced rounds register them bare.
#[derive(Debug, Default)]
pub struct KernelShare {
    clock: Arc<AtomicU64>,
    base: u64,
}

impl KernelShare {
    /// Registers `kernel` on `platform`, behind the timing wrapper if `timed`.
    pub fn register(&self, platform: &Platform, kernel: Arc<dyn Kernel>, timed: bool) {
        platform.register_kernel(if timed {
            Arc::new(Timed {
                inner: kernel,
                clock: Arc::clone(&self.clock),
            })
        } else {
            kernel
        });
    }

    /// Puts the timing wrapper around already-registered kernels. Names that
    /// do not resolve are skipped (the share then under-reports, it never
    /// fails).
    pub fn wrap_named(&self, platform: &Platform, names: &[&str]) {
        for name in names {
            if let Ok(inner) = platform.kernel(name) {
                self.register(platform, inner, true);
            }
        }
    }

    /// Starts the measured window.
    pub fn mark(&mut self) {
        self.base = self.clock.load(Ordering::Relaxed);
    }

    /// Kernel-body time since [`Self::mark`] as a share of `busy_ns`.
    pub fn of(&self, busy_ns: u64) -> f64 {
        (self.clock.load(Ordering::Relaxed) - self.base) as f64 / busy_ns.max(1) as f64
    }
}

/// Times `inner`'s body; otherwise transparent.
struct Timed {
    inner: Arc<dyn Kernel>,
    clock: Arc<AtomicU64>,
}

impl Kernel for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let t = Instant::now();
        let r = self.inner.execute(mem, dims, args);
        // Relaxed: a statistic that publishes no other data.
        self.clock
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

fn read_u32(mem: &DeviceMemory, addr: hetsim::DevAddr) -> SimResult<u32> {
    let mut b = [0u8; 4];
    mem.read(addr, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_u32(mem: &mut DeviceMemory, addr: hetsim::DevAddr, v: u32) -> SimResult<()> {
    mem.write(addr, &v.to_le_bytes())
}

/// The word `fault_storm`'s kernel stamps into word 0 of `block` at op `op`.
pub fn stamp_word(op: u64, block: u64) -> u32 {
    (op.wrapping_mul(0x9e37_79b9)
        .wrapping_add(block.wrapping_mul(0x85eb_ca6b)) as u32)
        | 1
}

/// The word the CPU writes into word 1 of `block` during op `op`.
pub fn cpu_word(op: u64, block: u64) -> u32 {
    (op.wrapping_mul(0xc2b2_ae35)
        .wrapping_add(block.wrapping_mul(0x27d4_eb2f)) as u32)
        | 1
}

/// Stratum width of `fault_storm`'s sparse phase: one block is visited in
/// every run of this many blocks.
pub const SPARSE_STRIDE: u64 = 8;

/// The block the sparse phase visits in stratum `s` of the second half. The
/// offset is drawn from the seed but never the stratum's last block, so two
/// visited blocks are never adjacent and a visit fetches or flushes exactly
/// one block whatever the seed: virtual time does not depend on the draw.
pub fn sparse_block(seed: u64, s: u64, half: u64) -> u64 {
    let offset = Rng::new(seed ^ s.wrapping_mul(0x9e37_79b9_7f4a_7c15)).below(SPARSE_STRIDE - 1);
    half + s * SPARSE_STRIDE + offset
}

/// `fault_storm`'s kernel. Arguments: object, status object, block bytes,
/// blocks, op number, seed. It first checks that the CPU's writes of the
/// previous op arrived (word 1 of every block the CPU visits: the whole
/// first half and [`sparse_block`] of every stratum of the second), writing
/// the mismatch count to status[0], then stamps word 0 of every block.
#[derive(Debug)]
pub struct StormStamp;

pub const STORM_STAMP: &str = "bench_storm_stamp";

impl Kernel for StormStamp {
    fn name(&self) -> &str {
        STORM_STAMP
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let (obj, status) = (args.ptr(0)?, args.ptr(1)?);
        let (block_bytes, blocks, op, seed) =
            (args.u64(2)?, args.u64(3)?, args.u64(4)?, args.u64(5)?);
        let half = blocks / 2;
        let strata = half / SPARSE_STRIDE;
        let mut mismatches = 0u32;
        if op > 0 {
            let visited = (0..half).chain((0..strata).map(|s| sparse_block(seed, s, half)));
            for block in visited {
                let got = read_u32(mem, obj.add(block * block_bytes + 4))?;
                if got != cpu_word(op - 1, block) {
                    mismatches += 1;
                }
            }
        }
        write_u32(mem, status, mismatches)?;
        for block in 0..blocks {
            write_u32(mem, obj.add(block * block_bytes), stamp_word(op, block))?;
        }
        let touched = (blocks + half + strata) as f64 * 4.0;
        Ok(KernelProfile::new(touched / 4.0, touched))
    }
}

/// `bulk_copy`'s kernel: `v[i] = v[i] + c` (wrapping) over `n` u32 words.
#[derive(Debug)]
pub struct AddConst;

pub const ADD_CONST: &str = "bench_add_const";

impl Kernel for AddConst {
    fn name(&self) -> &str {
        ADD_CONST
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let (ptr, n, c) = (args.ptr(0)?, args.u64(1)?, args.u64(2)? as u32);
        for word in mem.slice_mut(ptr, n * 4)?.chunks_exact_mut(4) {
            let v = u32::from_le_bytes([word[0], word[1], word[2], word[3]]).wrapping_add(c);
            word.copy_from_slice(&v.to_le_bytes());
        }
        Ok(KernelProfile::new(n as f64, 8.0 * n as f64))
    }
}

/// `service_mix`'s kernel: `v[0] = v[0] * 3 + tag` — one word, so the job's
/// cost is the runtime's, not the kernel's.
#[derive(Debug)]
pub struct Tiny;

pub const TINY: &str = "bench_tiny";

/// Host model of [`Tiny`].
pub fn tiny_model(input: u32, tag: u64) -> u32 {
    input.wrapping_mul(3).wrapping_add(tag as u32)
}

impl Kernel for Tiny {
    fn name(&self) -> &str {
        TINY
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let (ptr, tag) = (args.ptr(0)?, args.u64(1)?);
        let v = tiny_model(read_u32(mem, ptr)?, tag);
        write_u32(mem, ptr, v)?;
        Ok(KernelProfile::new(2.0, 8.0))
    }
}
