//! Chunked streaming pipeline: process an input stream **larger than device
//! memory** through two chunk-sized device buffers (the paper's §2.2 second
//! motivation, turned into a full workload).
//!
//! The CUDA baseline is the hand-written double-buffering dance: async
//! uploads, per-slot events, explicit retire-before-reuse synchronisation.
//! The GMAC version is the same pipeline written naively — write a chunk,
//! call, sync, read — and relies on the runtime (rolling-update eager
//! flushes + the background DMA engine) to recover the overlap the CUDA
//! version codes by hand.
//!
//! The default instance streams 1.25 GiB of `f32` data through a platform
//! whose accelerator window is 1 GiB: the input provably never fits
//! resident, only the two in-flight chunks do. Inputs are generated
//! chunk-by-chunk from the element index (never materialised whole), so
//! host memory stays `O(chunk)` as well.

use crate::common::{Digest, Workload, WorkloadResult};
use cudart::{Cuda, Event};
use gmac::{Param, Session};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, StreamId,
};
use softmmu::{from_bytes, to_bytes};
use std::sync::Arc;

/// Scale factor of the in-place kernel (exact in `f32`).
const SCALE: f32 = 1.25;
/// Offset of the in-place kernel (exact in `f32`).
const OFFSET: f32 = 0.5;

/// `x[i] = x[i] * SCALE + OFFSET`, in place.
#[derive(Debug)]
pub struct StreamScaleKernel;

impl Kernel for StreamScaleKernel {
    fn name(&self) -> &str {
        "stream_scale"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let ptr = args.ptr(0)?;
        let n = args.u64(1)?;
        let x = read_f32_slice(mem, ptr, n)?;
        let y: Vec<f32> = x.iter().map(|v| v.mul_add(SCALE, OFFSET)).collect();
        write_f32_slice(mem, ptr, &y)?;
        // One FMA per element; read + write one word each.
        Ok(KernelProfile::new(n as f64, n as f64 * 8.0))
    }
}

/// The streaming-pipeline workload.
#[derive(Debug, Clone)]
pub struct StreamPipeline {
    /// Elements per chunk (one chunk = one device buffer's worth).
    pub chunk: usize,
    /// Number of chunks in the stream.
    pub chunks: usize,
}

impl Default for StreamPipeline {
    fn default() -> Self {
        // 8 MiB chunks x 160 = 1.25 GiB streamed through a 1 GiB device.
        StreamPipeline {
            chunk: 2 * 1024 * 1024,
            chunks: 160,
        }
    }
}

impl StreamPipeline {
    /// Scaled-down instance for unit tests (1.5 MiB total, 256 KiB chunks).
    pub fn small() -> Self {
        StreamPipeline {
            chunk: 64 * 1024,
            chunks: 6,
        }
    }

    /// Bytes per chunk.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk as u64 * 4
    }

    /// Total bytes streamed through the device.
    pub fn total_bytes(&self) -> u64 {
        self.chunk_bytes() * self.chunks as u64
    }

    /// Generates chunk `c` of the input from the global element index, so
    /// the full stream never exists in host memory at once.
    fn chunk_input(&self, c: usize) -> Vec<f32> {
        let base = c * self.chunk;
        (0..self.chunk)
            .map(|j| ((base + j) % 8191) as f32 * 0.125)
            .collect()
    }
}

impl Workload for StreamPipeline {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn description(&self) -> &'static str {
        "streams an input larger than device memory through two chunk buffers, double-buffered"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(StreamScaleKernel));
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        let bytes = self.chunk_bytes();
        let bufs = [cuda.malloc(p, bytes)?, cuda.malloc(p, bytes)?];
        let mut digest = Digest::new();
        let mut out = vec![0u8; bytes as usize];
        // Per-slot (chunk index, kernel-completion event) of the chunk
        // currently occupying that device buffer.
        let mut resident: [Option<(usize, Event)>; 2] = [None, None];
        let mut retire = |p: &mut Platform, slot: usize, ev: Event| -> WorkloadResult<()> {
            cuda.event_synchronize(p, ev);
            cuda.memcpy_d2h(p, &mut out, bufs[slot])?;
            p.cpu_touch(bytes);
            digest.update_f32(&from_bytes::<f32>(&out));
            Ok(())
        };
        for c in 0..self.chunks {
            let input = self.chunk_input(c);
            p.cpu_touch(bytes);
            let slot = c % 2;
            // The fiddly part the paper complains about: before reusing a
            // buffer, wait for its kernel and drain its output.
            if let Some((_, ev)) = resident[slot].take() {
                retire(p, slot, ev)?;
            }
            let up = cuda.memcpy_h2d_async(p, bufs[slot], &to_bytes(&input))?;
            // The kernel must consume landed data; the *other* slot's kernel
            // keeps running under this wait.
            cuda.event_synchronize(p, up);
            let args = [
                hetsim::KernelArg::Ptr(bufs[slot]),
                hetsim::KernelArg::U64(self.chunk as u64),
            ];
            let ev = cuda.launch(
                p,
                StreamId(0),
                "stream_scale",
                LaunchDims::for_elements(self.chunk as u64, 256),
                &args,
            )?;
            resident[slot] = Some((c, ev));
        }
        // Drain the tail in chunk order so the digest stays sequential.
        let mut tail: Vec<(usize, usize, Event)> = resident
            .iter()
            .enumerate()
            .filter_map(|(slot, r)| r.map(|(c, ev)| (c, slot, ev)))
            .collect();
        tail.sort_by_key(|&(c, _, _)| c);
        for (_, slot, ev) in tail {
            retire(p, slot, ev)?;
        }
        cuda.free(p, bufs[0])?;
        cuda.free(p, bufs[1])?;
        Ok(digest.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        // The same pipeline with none of the event bookkeeping: the runtime
        // flushes written blocks in the background and the implicit
        // release/acquire at call/sync provides the per-buffer ordering.
        let bufs = [
            ctx.alloc_typed::<f32>(self.chunk)?,
            ctx.alloc_typed::<f32>(self.chunk)?,
        ];
        let dims = LaunchDims::for_elements(self.chunk as u64, 256);
        let mut digest = Digest::new();
        for c in 0..self.chunks {
            let slot = c % 2;
            // Produce chunk c while chunk c-1's kernel is still in flight on
            // the other buffer.
            bufs[slot].write_slice(&self.chunk_input(c))?;
            if c >= 1 {
                ctx.sync()?;
                digest.update_f32(&bufs[1 - slot].read_slice()?);
            }
            let params = [Param::from(&bufs[slot]), Param::U64(self.chunk as u64)];
            // The write-set annotation matters here: without it, batch-update's
            // acquire at the next sync would fetch *both* buffers back and
            // clobber the chunk the CPU produced while the kernel ran.
            ctx.call_annotated("stream_scale", dims, &params, Some(&[bufs[slot].ptr()]))?;
        }
        ctx.sync()?;
        digest.update_f32(&bufs[(self.chunks - 1) % 2].read_slice()?);
        let [a, b] = bufs;
        a.free()?;
        b.free()?;
        Ok(digest.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, Variant};

    #[test]
    fn all_variants_agree_on_output() {
        let w = StreamPipeline::small();
        let digests: Vec<u64> = Variant::ALL
            .iter()
            .map(|&v| run_variant(&w, v).unwrap().digest)
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "digests: {digests:?}"
        );
    }

    #[test]
    fn device_footprint_is_two_chunks() {
        let w = StreamPipeline::small();
        let r = run_variant(&w, Variant::Gmac(gmac::Protocol::Rolling)).unwrap();
        // Every chunk goes up and comes back exactly once despite the
        // stream being arbitrarily longer than the two resident buffers.
        assert_eq!(r.transfers.h2d_bytes, w.total_bytes());
        assert_eq!(r.transfers.d2h_bytes, w.total_bytes());
    }

    #[test]
    fn default_instance_exceeds_device_memory() {
        let w = StreamPipeline::default();
        assert!(w.total_bytes() > 1 << 30, "stream must not fit resident");
    }
}
