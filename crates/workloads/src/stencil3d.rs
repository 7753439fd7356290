//! 3D-Stencil computation (paper §5.1, Figure 9).
//!
//! Iterative 7-point stencil over an `n×n×n` volume. Each time-step the CPU
//! *introduces a source* — writes a handful of cells at the emitter location,
//! touching a single memory block — then the accelerator computes the next
//! volume. Every few iterations the current volume is written to disk, which
//! requires transferring the complete volume back from accelerator memory.
//!
//! This is the workload where rolling-update beats lazy-update: source
//! introduction dirties one *block* instead of one *object*, so only that
//! block moves before the next kernel call.

use crate::common::{Digest, Workload, WorkloadResult};
use cudart::Cuda;
use gmac::{Param, Session};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, StreamId,
};
use std::sync::Arc;

/// 7-point stencil step: `next = 0.6*cur + 0.4*avg6(cur)` on interior cells.
#[derive(Debug)]
pub struct StencilKernel;

impl StencilKernel {
    fn reference(cur: &[f32], next: &mut [f32], n: usize) {
        let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
        next.copy_from_slice(cur);
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let sum = cur[idx(x - 1, y, z)]
                        + cur[idx(x + 1, y, z)]
                        + cur[idx(x, y - 1, z)]
                        + cur[idx(x, y + 1, z)]
                        + cur[idx(x, y, z - 1)]
                        + cur[idx(x, y, z + 1)];
                    next[idx(x, y, z)] = 0.6 * cur[idx(x, y, z)] + 0.4 * (sum / 6.0);
                }
            }
        }
    }
}

impl Kernel for StencilKernel {
    fn name(&self) -> &str {
        "stencil3d"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(2)? as usize;
        let cells = (n * n * n) as u64;
        let cur = read_f32_slice(mem, args.ptr(0)?, cells)?;
        let mut next = vec![0.0f32; cells as usize];
        Self::reference(&cur, &mut next, n);
        write_f32_slice(mem, args.ptr(1)?, &next)?;
        // ~9 flops per cell, one read + one write stream.
        Ok(KernelProfile::new(cells as f64 * 9.0, cells as f64 * 8.0))
    }
}

/// The 3D-stencil workload.
#[derive(Debug, Clone)]
pub struct Stencil3d {
    /// Volume edge length (paper sweeps 64..384).
    pub n: usize,
    /// Time steps.
    pub steps: usize,
    /// Dump the volume to disk every this many steps.
    pub dump_every: usize,
}

impl Default for Stencil3d {
    fn default() -> Self {
        Stencil3d {
            n: 128,
            steps: 16,
            dump_every: 16,
        }
    }
}

impl Stencil3d {
    /// Instance with a specific volume size (Figure 9 sweep).
    pub fn with_volume(n: usize) -> Self {
        Stencil3d {
            n,
            ..Self::default()
        }
    }

    /// Scaled-down instance for unit tests.
    pub fn small() -> Self {
        Stencil3d {
            n: 24,
            steps: 3,
            dump_every: 2,
        }
    }

    fn cells(&self) -> usize {
        self.n * self.n * self.n
    }

    fn bytes(&self) -> u64 {
        self.cells() as u64 * 4
    }

    /// Packages this instance as a service job (the two ping-pong volumes
    /// is the byte hint). The volume-dump files must already exist on the
    /// platform ([`crate::Workload::prepare`]).
    pub fn job(self) -> crate::common::JobSpec {
        let hint = self.bytes() * 2;
        crate::common::service_job(self, hint)
    }

    /// The source emitter: a small run of cells at the volume centre
    /// (values depend on the time-step so dumps differ per step).
    fn source_cells(&self, step: usize) -> Vec<(usize, f32)> {
        let n = self.n;
        let centre = (n / 2 * n + n / 2) * n + n / 2;
        (0..4).map(|k| (centre + k, 100.0 + step as f32)).collect()
    }
}

impl Workload for Stencil3d {
    fn name(&self) -> &'static str {
        "stencil3d"
    }

    fn description(&self) -> &'static str {
        "iterative 7-point 3D stencil with CPU source introduction and periodic volume dumps"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(StencilKernel));
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        let bytes = self.bytes();
        let mut digest = Digest::new();
        let d_a = cuda.malloc(p, bytes)?;
        let d_b = cuda.malloc(p, bytes)?;
        // Zero-initialise on device.
        cuda.memset(p, d_a, 0, bytes)?;
        let (mut cur, mut next) = (d_a, d_b);
        for step in 0..self.steps {
            // Source introduction: the programmer hand-copies the emitter
            // cells to the device, batching the contiguous run into one
            // gathered upload instead of one cudaMemcpy per cell.
            let cells = self.source_cells(step);
            let staged: Vec<(hetsim::DevAddr, [u8; 4])> = cells
                .iter()
                .map(|&(idx, v)| (cur.add(idx as u64 * 4), v.to_le_bytes()))
                .collect();
            let segments: Vec<(hetsim::DevAddr, &[u8])> = staged
                .iter()
                .map(|(dst, bytes)| (*dst, bytes.as_slice()))
                .collect();
            p.cpu_touch(4 * cells.len() as u64);
            cuda.memcpy_h2d_gather(p, &segments)?;
            let args = [
                hetsim::KernelArg::Ptr(cur),
                hetsim::KernelArg::Ptr(next),
                hetsim::KernelArg::U64(self.n as u64),
            ];
            cuda.launch(
                p,
                StreamId(0),
                "stencil3d",
                LaunchDims::for_elements(self.cells() as u64, 256),
                &args,
            )?;
            cuda.thread_synchronize(p)?;
            std::mem::swap(&mut cur, &mut next);
            if (step + 1) % self.dump_every == 0 {
                // Explicit transfer back, then write to disk.
                let mut host = vec![0u8; bytes as usize];
                cuda.memcpy_d2h(p, &mut host, cur)?;
                p.file_write("stencil-out.bin", 0, &host)?;
                digest.update(&host);
            }
        }
        cuda.free(p, d_a)?;
        cuda.free(p, d_b)?;
        Ok(digest.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        let bytes = self.bytes();
        let mut digest = Digest::new();
        let a = ctx.alloc(bytes)?;
        let b = ctx.alloc(bytes)?;
        ctx.memset(a, 0, bytes)?;
        ctx.memset(b, 0, bytes)?;
        let (mut cur, mut next) = (a, b);
        for step in 0..self.steps {
            // Source introduction through the shared pointer: dirties one
            // block (rolling) or the whole object (lazy).
            for (idx, v) in self.source_cells(step) {
                ctx.store::<f32>(cur.byte_add(idx as u64 * 4), v)?;
            }
            let params = [
                Param::Shared(cur),
                Param::Shared(next),
                Param::U64(self.n as u64),
            ];
            ctx.call(
                "stencil3d",
                LaunchDims::for_elements(self.cells() as u64, 256),
                &params,
            )?;
            ctx.sync()?;
            std::mem::swap(&mut cur, &mut next);
            if (step + 1) % self.dump_every == 0 {
                // Shared pointer goes straight to the I/O call (§4.4).
                ctx.write_shared_to_file("stencil-out.bin", 0, cur, bytes)?;
                let dump = ctx.load_slice::<u8>(cur, bytes as usize)?;
                digest.update(&dump);
            }
        }
        ctx.free(a)?;
        ctx.free(b)?;
        Ok(digest.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, Variant};
    use gmac::Protocol;

    #[test]
    fn reference_stencil_diffuses_source() {
        let n = 8;
        let mut cur = vec![0.0f32; n * n * n];
        let mut next = vec![0.0f32; n * n * n];
        let centre = (n / 2 * n + n / 2) * n + n / 2;
        cur[centre] = 100.0;
        StencilKernel::reference(&cur, &mut next, n);
        assert!(next[centre] < 100.0, "centre decays");
        assert!(next[centre - 1] > 0.0, "neighbours heat up");
        // Boundary cells copy through.
        assert_eq!(next[0], 0.0);
    }

    #[test]
    fn variants_agree_on_output() {
        let w = Stencil3d::small();
        let digests: Vec<u64> = [
            Variant::Cuda,
            Variant::Gmac(Protocol::Lazy),
            Variant::Gmac(Protocol::Rolling),
            Variant::Gmac(Protocol::Batch),
        ]
        .iter()
        .map(|&v| run_variant(&w, v).unwrap().digest)
        .collect();
        assert!(
            digests.windows(2).all(|d| d[0] == d[1]),
            "digests: {digests:?}"
        );
    }

    #[test]
    fn rolling_moves_less_data_than_lazy() {
        // The Figure 9 effect: source introduction dirties one block under
        // rolling-update but the whole volume under lazy-update.
        let w = Stencil3d {
            n: 48,
            steps: 8,
            dump_every: 8,
        };
        let cfg = gmac::GmacConfig::default().block_size(64 * 1024);
        let lazy = crate::common::run_variant_with(&w, Variant::Gmac(Protocol::Lazy), cfg.clone())
            .unwrap();
        let rolling =
            crate::common::run_variant_with(&w, Variant::Gmac(Protocol::Rolling), cfg).unwrap();
        assert!(
            rolling.transfers.h2d_bytes < lazy.transfers.h2d_bytes / 3,
            "rolling {} vs lazy {}",
            rolling.transfers.h2d_bytes,
            lazy.transfers.h2d_bytes
        );
        assert!(rolling.elapsed < lazy.elapsed);
    }
}
