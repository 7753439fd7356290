//! `sad` — Sum of Absolute Differences (paper Table 2).
//!
//! "Sum of absolute differences kernel, used in MPEG video encoders. Based on
//! the full-pixel motion estimation algorithm found in the JM reference
//! H.264 video encoder."
//!
//! Phase structure: frame pairs are read from disk, the accelerator computes
//! per-macroblock motion vectors, and the CPU consumes the vectors in a
//! scattered pattern (rolling-update fetches only the touched blocks).

use crate::common::{Digest, Prng, Workload, WorkloadResult};
use cudart::Cuda;
use gmac::{Param, Session};
use hetsim::{
    Args, DeviceId, DeviceMemory, Kernel, KernelProfile, LaunchDims, Platform, SimResult, StreamId,
};
use std::sync::Arc;

/// Macroblock edge in pixels.
pub const MB: usize = 16;
/// Motion search radius in pixels.
pub const SEARCH: i32 = 8;

/// Full-search motion estimation for every 16×16 macroblock.
#[derive(Debug)]
pub struct SadKernel;

impl SadKernel {
    /// Reference motion search shared by tests. Returns (dx, dy, sad) per
    /// macroblock, row-major, packed as u32 triples.
    pub fn reference(reference: &[u8], current: &[u8], w: usize, h: usize) -> Vec<u32> {
        let (mbx, mby) = (w / MB, h / MB);
        let mut out = Vec::with_capacity(mbx * mby * 3);
        for by in 0..mby {
            for bx in 0..mbx {
                let (mut best_dx, mut best_dy, mut best) = (0i32, 0i32, u32::MAX);
                for dy in -SEARCH..=SEARCH {
                    for dx in -SEARCH..=SEARCH {
                        let mut sad = 0u32;
                        for py in 0..MB {
                            for px in 0..MB {
                                let cx = bx * MB + px;
                                let cy = by * MB + py;
                                let rx = cx as i32 + dx;
                                let ry = cy as i32 + dy;
                                let r = if rx < 0 || ry < 0 || rx >= w as i32 || ry >= h as i32 {
                                    128
                                } else {
                                    reference[ry as usize * w + rx as usize]
                                };
                                sad += (current[cy * w + cx] as i32 - r as i32).unsigned_abs();
                            }
                        }
                        if sad < best {
                            best = sad;
                            best_dx = dx;
                            best_dy = dy;
                        }
                    }
                }
                out.push(best_dx as u32);
                out.push(best_dy as u32);
                out.push(best);
            }
        }
        out
    }
}

impl Kernel for SadKernel {
    fn name(&self) -> &str {
        "sad_motion"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let w = args.u64(3)? as usize;
        let h = args.u64(4)? as usize;
        let reference = mem.slice(args.ptr(0)?, (w * h) as u64)?.to_vec();
        let current = mem.slice(args.ptr(1)?, (w * h) as u64)?.to_vec();
        let mvs = SadKernel::reference(&reference, &current, w, h);
        let bytes: Vec<u8> = mvs.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.write(args.ptr(2)?, &bytes)?;
        let candidates = (2 * SEARCH + 1) as f64 * (2 * SEARCH + 1) as f64;
        let ops = (w * h) as f64 * candidates * 3.0;
        Ok(KernelProfile::new(ops, (w * h) as f64 * 2.0))
    }
}

/// The SAD workload.
#[derive(Debug, Clone)]
pub struct Sad {
    /// Frame width (multiple of 16).
    pub width: usize,
    /// Frame height (multiple of 16).
    pub height: usize,
    /// Number of frame pairs processed.
    pub frames: usize,
}

impl Default for Sad {
    fn default() -> Self {
        Sad {
            width: 640,
            height: 480,
            frames: 3,
        }
    }
}

impl Sad {
    /// Scaled-down instance for unit tests.
    pub fn small() -> Self {
        Sad {
            width: 64,
            height: 48,
            frames: 2,
        }
    }

    fn frame_bytes(&self) -> u64 {
        (self.width * self.height) as u64
    }

    fn mv_count(&self) -> usize {
        (self.width / MB) * (self.height / MB) * 3
    }

    fn mv_bytes(&self) -> u64 {
        self.mv_count() as u64 * 4
    }
}

impl Workload for Sad {
    fn name(&self) -> &'static str {
        "sad"
    }

    fn description(&self) -> &'static str {
        "H.264-style full-pixel motion estimation over disk-fed frame pairs"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(SadKernel));
    }

    fn prepare(&self, platform: &mut Platform) -> WorkloadResult<()> {
        let mut rng = Prng::new(0x5AD);
        // Synthetic video: smooth gradient plus moving blob per frame.
        for f in 0..=self.frames {
            let mut frame = vec![0u8; self.frame_bytes() as usize];
            let cx = 40 + f * 6;
            let cy = 30 + f * 4;
            for y in 0..self.height {
                for x in 0..self.width {
                    let base = ((x / 2 + y / 3) % 200) as i32;
                    let dx = x as i32 - cx as i32;
                    let dy = y as i32 - cy as i32;
                    let blob = if dx * dx + dy * dy < 220 { 50 } else { 0 };
                    let noise = (rng.next_u64() % 7) as i32;
                    frame[y * self.width + x] = (base + blob + noise).clamp(0, 255) as u8;
                }
            }
            platform.fs_mut().create(&format!("frame-{f}.raw"), frame);
        }
        Ok(())
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        let d_ref = cuda.malloc(p, self.frame_bytes())?;
        let d_cur = cuda.malloc(p, self.frame_bytes())?;
        let d_mv = cuda.malloc(p, self.mv_bytes())?;
        let mut digest = Digest::new();
        for f in 0..self.frames {
            let mut reference = vec![0u8; self.frame_bytes() as usize];
            let mut current = vec![0u8; self.frame_bytes() as usize];
            p.file_read(&format!("frame-{f}.raw"), 0, &mut reference)?;
            p.file_read(&format!("frame-{}.raw", f + 1), 0, &mut current)?;
            cuda.memcpy_h2d(p, d_ref, &reference)?;
            cuda.memcpy_h2d(p, d_cur, &current)?;
            let args = [
                hetsim::KernelArg::Ptr(d_ref),
                hetsim::KernelArg::Ptr(d_cur),
                hetsim::KernelArg::Ptr(d_mv),
                hetsim::KernelArg::U64(self.width as u64),
                hetsim::KernelArg::U64(self.height as u64),
            ];
            cuda.launch(
                p,
                StreamId(0),
                "sad_motion",
                LaunchDims::for_elements((self.mv_count() / 3) as u64, 64),
                &args,
            )?;
            cuda.thread_synchronize(p)?;
            let mut mvs = vec![0u8; self.mv_bytes() as usize];
            cuda.memcpy_d2h(p, &mut mvs, d_mv)?;
            // CPU samples every 7th macroblock's vector...
            let mut i = 0;
            while i < self.mv_count() {
                p.cpu_touch(12);
                digest.update(&mvs[i * 4..i * 4 + 12]);
                i += 7 * 3;
            }
            // ...then runs the encoder's motion-compensation pass.
            p.cpu_compute(
                (self.width * self.height) as f64 * 8.0,
                self.frame_bytes() as f64,
            );
        }
        cuda.free(p, d_ref)?;
        cuda.free(p, d_cur)?;
        cuda.free(p, d_mv)?;
        Ok(digest.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        let s_ref = ctx.alloc(self.frame_bytes())?;
        let s_cur = ctx.alloc(self.frame_bytes())?;
        let s_mv = ctx.alloc(self.mv_bytes())?;
        let mut digest = Digest::new();
        for f in 0..self.frames {
            // Frames flow from disk straight into shared memory.
            ctx.read_file_to_shared(&format!("frame-{f}.raw"), 0, s_ref, self.frame_bytes())?;
            ctx.read_file_to_shared(
                &format!("frame-{}.raw", f + 1),
                0,
                s_cur,
                self.frame_bytes(),
            )?;
            let params = [
                Param::Shared(s_ref),
                Param::Shared(s_cur),
                Param::Shared(s_mv),
                Param::U64(self.width as u64),
                Param::U64(self.height as u64),
            ];
            ctx.call(
                "sad_motion",
                LaunchDims::for_elements((self.mv_count() / 3) as u64, 64),
                &params,
            )?;
            ctx.sync()?;
            // Scattered consumption of the motion vectors.
            let mut i = 0;
            while i < self.mv_count() {
                let dx: u32 = ctx.load(s_mv.byte_add(i as u64 * 4))?;
                let dy: u32 = ctx.load(s_mv.byte_add(i as u64 * 4 + 4))?;
                let sad: u32 = ctx.load(s_mv.byte_add(i as u64 * 4 + 8))?;
                digest.update(&dx.to_le_bytes());
                digest.update(&dy.to_le_bytes());
                digest.update(&sad.to_le_bytes());
                i += 7 * 3;
            }
            // The encoder's motion-compensation pass on the CPU.
            ctx.gmac().with_platform(|p| {
                p.cpu_compute(
                    (self.width * self.height) as f64 * 8.0,
                    self.frame_bytes() as f64,
                )
            });
        }
        ctx.free(s_ref)?;
        ctx.free(s_cur)?;
        ctx.free(s_mv)?;
        Ok(digest.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, Variant};

    #[test]
    fn reference_finds_exact_shift() {
        // current = reference shifted by (2, 1): the motion search must
        // recover (-2, -1)-ish vectors with zero SAD away from borders.
        let (w, h) = (64, 48);
        let mut reference = vec![0u8; w * h];
        for y in 0..h {
            for x in 0..w {
                reference[y * w + x] = ((x * 7 + y * 13) % 251) as u8;
            }
        }
        let mut current = vec![0u8; w * h];
        for y in 0..h {
            for x in 0..w {
                let sx = (x as i32 - 2).rem_euclid(w as i32) as usize;
                let sy = (y as i32 - 1).rem_euclid(h as i32) as usize;
                current[y * w + x] = reference[sy * w + sx];
            }
        }
        let mvs = SadKernel::reference(&reference, &current, w, h);
        // Interior macroblock (1,1): vector (-2,-1), SAD 0.
        let mbx = w / MB;
        let idx = (mbx + 1) * 3;
        assert_eq!(mvs[idx] as i32, -2);
        assert_eq!(mvs[idx + 1] as i32, -1);
        assert_eq!(mvs[idx + 2], 0);
    }

    #[test]
    fn variants_agree() {
        let w = Sad::small();
        let digests: Vec<u64> = Variant::ALL
            .iter()
            .map(|&v| run_variant(&w, v).unwrap().digest)
            .collect();
        assert!(
            digests.windows(2).all(|d| d[0] == d[1]),
            "digests: {digests:?}"
        );
    }
}
