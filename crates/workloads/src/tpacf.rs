//! `tpacf` — Two-Point Angular Correlation Function (paper Table 2).
//!
//! "TPACF is an equation used here as a way to measure the probability of
//! finding an astronomical body at a given angular distance from another
//! astronomical body."
//!
//! The interesting behaviour is on the *input side*: "the tpacf code
//! initializes shared data structures in several passes" (§5.3). With a
//! small rolling size, a block is evicted between passes and must be
//! re-transferred (and partially re-fetched) when a later pass touches it
//! again — the pathological continuous-transfer regime of Figure 12. Once
//! the pass working-set fits in the rolling size, the thrashing stops
//! abruptly.

use crate::common::{Digest, Prng, Workload, WorkloadResult};
use cudart::Cuda;
use gmac::{Param, Session, SharedPtr};
use hetsim::{
    read_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile, LaunchDims, Platform,
    SimResult, StreamId,
};
use softmmu::to_bytes;
use std::sync::Arc;

/// Number of histogram bins.
pub const BINS: usize = 64;

/// Histograms angular separations between data points and a strided sample
/// of random points.
#[derive(Debug)]
pub struct TpacfKernel;

impl TpacfKernel {
    /// Reference histogram shared by tests. Points are (ra, dec) pairs in
    /// radians; `samples` random points (offset by the random-set index
    /// `set`) are compared against every data point.
    pub fn reference(data: &[f32], random: &[f32], samples: usize, set: usize) -> Vec<u32> {
        let nd = data.len() / 2;
        let nr = random.len() / 2;
        let stride = (nr / samples.max(1)).max(1);
        let mut bins = vec![0u32; BINS];
        for d in 0..nd {
            let (ra1, dec1) = (data[2 * d], data[2 * d + 1]);
            let mut r = set % stride.max(1);
            while r < nr {
                let (ra2, dec2) = (random[2 * r], random[2 * r + 1]);
                // cos(theta) via the spherical law of cosines.
                let cosang = dec1.sin() * dec2.sin() + dec1.cos() * dec2.cos() * (ra1 - ra2).cos();
                let bin = (((cosang.clamp(-1.0, 1.0) + 1.0) / 2.0) * (BINS as f32 - 1.0)) as usize;
                bins[bin.min(BINS - 1)] += 1;
                r += stride;
            }
        }
        bins
    }
}

impl Kernel for TpacfKernel {
    fn name(&self) -> &str {
        "tpacf_hist"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let nd = args.u64(3)?;
        let nr = args.u64(4)?;
        let samples = args.u64(5)? as usize;
        let set = args.u64(6)? as usize;
        let data = read_f32_slice(mem, args.ptr(0)?, nd * 2)?;
        let random = read_f32_slice(mem, args.ptr(1)?, nr * 2)?;
        let bins = Self::reference(&data, &random, samples, set);
        let bytes: Vec<u8> = bins.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.write(args.ptr(2)?, &bytes)?;
        let pairs = nd as f64 * samples as f64;
        Ok(KernelProfile::new(pairs * 12.0, (nd + nr) as f64 * 8.0))
    }
}

/// The TPACF workload.
#[derive(Debug, Clone)]
pub struct Tpacf {
    /// Data points.
    pub ndata: usize,
    /// Random points (the multi-pass-initialised structure).
    pub nrandom: usize,
    /// Random points sampled per data point in the kernel.
    pub samples: usize,
    /// Number of random sets correlated against (one kernel call each —
    /// the paper uses 100 random datasets; we scale down).
    pub sets: usize,
    /// Sliding-window lags (bytes) of the second and third initialisation
    /// passes — the §5.3 access pattern.
    pub pass_lags: [u64; 2],
    /// Chunk in which the initialisation streams advance.
    pub init_chunk: usize,
}

impl Default for Tpacf {
    fn default() -> Self {
        Tpacf {
            ndata: 64 * 1024,
            nrandom: 2 * 1024 * 1024,
            samples: 32,
            sets: 4,
            pass_lags: [512 << 10, 1 << 20],
            init_chunk: 32 * 1024,
        }
    }
}

impl Tpacf {
    /// Scaled-down instance for unit tests.
    pub fn small() -> Self {
        Tpacf {
            ndata: 512,
            nrandom: 8192,
            samples: 8,
            sets: 2,
            pass_lags: [8 * 1024, 16 * 1024],
            init_chunk: 4 * 1024,
        }
    }

    fn data_bytes(&self) -> u64 {
        self.ndata as u64 * 8
    }

    fn random_bytes(&self) -> u64 {
        self.nrandom as u64 * 8
    }

    fn bins_bytes(&self) -> u64 {
        (BINS * 4) as u64
    }

    fn data_points(&self) -> Vec<f32> {
        let mut rng = Prng::new(0x7ACF);
        (0..self.ndata * 2)
            .map(|_| rng.range_f32(-1.5, 1.5))
            .collect()
    }

    /// Raw pass-1 values for the random-point structure.
    fn pass1_value(i: usize) -> f32 {
        ((i % 9973) as f32) * 1e-4 - 0.5
    }

    /// Pass-2 transform (applied at lag `pass_lags[0]` behind pass 1).
    fn pass2(v: f32) -> f32 {
        v * 1.5 + 0.125
    }

    /// Pass-3 transform (applied at lag `pass_lags[1]` behind pass 1).
    fn pass3(v: f32) -> f32 {
        (v - 0.25) * 0.8
    }

    /// Reference result of the multi-pass initialisation (test oracle).
    #[cfg(test)]
    fn expected_random(&self) -> Vec<f32> {
        let n = self.nrandom * 2;
        let mut buf = vec![0.0f32; n];
        for (i, v) in buf.iter_mut().enumerate() {
            *v = Self::pass1_value(i);
        }
        for v in buf.iter_mut() {
            *v = Self::pass2(*v);
        }
        for v in buf.iter_mut() {
            *v = Self::pass3(*v);
        }
        buf
    }
}

impl Workload for Tpacf {
    fn name(&self) -> &'static str {
        "tpacf"
    }

    fn description(&self) -> &'static str {
        "two-point angular correlation histogram with multi-pass CPU initialisation"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(TpacfKernel));
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        let data = self.data_points();
        p.cpu_touch(self.data_bytes());
        // Multi-pass init over a private host buffer: each pass streams the
        // array once; the single explicit upload happens afterwards.
        let elems = self.nrandom * 2;
        let mut random = vec![0.0f32; elems];
        let chunk_elems = self.init_chunk / 4;
        let lag1 = (self.pass_lags[0] / 4) as usize;
        let lag2 = (self.pass_lags[1] / 4) as usize;
        let mut pos = 0usize;
        while pos < elems + lag2 {
            if pos < elems {
                let hi = (pos + chunk_elems).min(elems);
                for (i, v) in random.iter_mut().enumerate().take(hi).skip(pos) {
                    *v = Self::pass1_value(i);
                }
                p.cpu_touch(((hi - pos) * 4) as u64);
            }
            if pos >= lag1 && pos - lag1 < elems {
                let lo = pos - lag1;
                let hi = (lo + chunk_elems).min(elems);
                for v in &mut random[lo..hi] {
                    *v = Self::pass2(*v);
                }
                // Read-modify-write: the chunk streams through twice.
                p.cpu_touch(((hi - lo) * 8) as u64);
            }
            if pos >= lag2 && pos - lag2 < elems {
                let lo = pos - lag2;
                let hi = (lo + chunk_elems).min(elems);
                for v in &mut random[lo..hi] {
                    *v = Self::pass3(*v);
                }
                p.cpu_touch(((hi - lo) * 8) as u64);
            }
            pos += chunk_elems;
        }
        let d_data = cuda.malloc(p, self.data_bytes())?;
        let d_random = cuda.malloc(p, self.random_bytes())?;
        let d_bins = cuda.malloc(p, self.bins_bytes())?;
        cuda.memcpy_h2d(p, d_data, &to_bytes(&data))?;
        cuda.memcpy_h2d(p, d_random, &to_bytes(&random))?;
        let mut digest = Digest::new();
        // One kernel call per random set, accumulating histograms on the CPU.
        let mut accum = vec![0u64; BINS];
        for set in 0..self.sets as u64 {
            let args = [
                hetsim::KernelArg::Ptr(d_data),
                hetsim::KernelArg::Ptr(d_random),
                hetsim::KernelArg::Ptr(d_bins),
                hetsim::KernelArg::U64(self.ndata as u64),
                hetsim::KernelArg::U64(self.nrandom as u64),
                hetsim::KernelArg::U64(self.samples as u64),
                hetsim::KernelArg::U64(set),
            ];
            cuda.launch(
                p,
                StreamId(0),
                "tpacf_hist",
                LaunchDims::for_elements(self.ndata as u64, 128),
                &args,
            )?;
            cuda.thread_synchronize(p)?;
            let mut bins = vec![0u8; self.bins_bytes() as usize];
            cuda.memcpy_d2h(p, &mut bins, d_bins)?;
            p.cpu_touch(self.bins_bytes());
            for (slot, chunk) in accum.iter_mut().zip(bins.chunks_exact(4)) {
                *slot += u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) as u64;
            }
        }
        for d in [d_data, d_random, d_bins] {
            cuda.free(p, d)?;
        }
        for v in &accum {
            digest.update(&v.to_le_bytes());
        }
        Ok(digest.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        let data = self.data_points();
        let s_data = ctx.alloc(self.data_bytes())?;
        let s_random = ctx.alloc(self.random_bytes())?;
        let s_bins = ctx.alloc(self.bins_bytes())?;
        ctx.store_slice(s_data, &data)?;
        self.multi_pass_init(ctx, s_random)?;
        let mut digest = Digest::new();
        let mut accum = vec![0u64; BINS];
        for set in 0..self.sets as u64 {
            let params = [
                Param::Shared(s_data),
                Param::Shared(s_random),
                Param::Shared(s_bins),
                Param::U64(self.ndata as u64),
                Param::U64(self.nrandom as u64),
                Param::U64(self.samples as u64),
                Param::U64(set),
            ];
            ctx.call(
                "tpacf_hist",
                LaunchDims::for_elements(self.ndata as u64, 128),
                &params,
            )?;
            ctx.sync()?;
            let bins: Vec<u32> = ctx.load_slice(s_bins, BINS)?;
            for (slot, v) in accum.iter_mut().zip(&bins) {
                *slot += *v as u64;
            }
        }
        for s in [s_data, s_random, s_bins] {
            ctx.free(s)?;
        }
        for v in &accum {
            digest.update(&v.to_le_bytes());
        }
        Ok(digest.finish())
    }
}

impl Tpacf {
    /// The §5.3 initialisation pattern against shared memory: three write
    /// streams — pass 1 at the head, passes 2 and 3 trailing at fixed lags —
    /// so up to three distant blocks are dirtied in close succession. With a
    /// rolling size below the stream count the oldest block is evicted and
    /// immediately re-dirtied: continuous transfers (Figure 12).
    pub fn multi_pass_init(&self, ctx: &Session, s_random: SharedPtr) -> WorkloadResult<()> {
        let elems = self.nrandom * 2;
        let chunk_elems = self.init_chunk / 4;
        let lag1 = (self.pass_lags[0] / 4) as usize;
        let lag2 = (self.pass_lags[1] / 4) as usize;
        let mut pos = 0usize;
        while pos < elems + lag2 {
            if pos < elems {
                let hi = (pos + chunk_elems).min(elems);
                let vals: Vec<f32> = (pos..hi).map(Self::pass1_value).collect();
                ctx.store_slice(s_random.byte_add(pos as u64 * 4), &vals)?;
            }
            if pos >= lag1 && pos - lag1 < elems {
                let lo = pos - lag1;
                let hi = (lo + chunk_elems).min(elems);
                let mut vals: Vec<f32> =
                    ctx.load_slice(s_random.byte_add(lo as u64 * 4), hi - lo)?;
                for v in vals.iter_mut() {
                    *v = Self::pass2(*v);
                }
                ctx.store_slice(s_random.byte_add(lo as u64 * 4), &vals)?;
            }
            if pos >= lag2 && pos - lag2 < elems {
                let lo = pos - lag2;
                let hi = (lo + chunk_elems).min(elems);
                let mut vals: Vec<f32> =
                    ctx.load_slice(s_random.byte_add(lo as u64 * 4), hi - lo)?;
                for v in vals.iter_mut() {
                    *v = Self::pass3(*v);
                }
                ctx.store_slice(s_random.byte_add(lo as u64 * 4), &vals)?;
            }
            pos += chunk_elems;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, run_variant_with, Variant};
    use gmac::{GmacConfig, Protocol};

    #[test]
    fn reference_histogram_counts_all_pairs() {
        let data = vec![0.1f32, 0.2, -0.3, 0.4];
        let random: Vec<f32> = (0..64).map(|i| (i as f32) * 0.01).collect();
        let bins = TpacfKernel::reference(&data, &random, 8, 0);
        let total: u32 = bins.iter().sum();
        // 2 data points × 8 sampled random points.
        assert_eq!(total, 16);
    }

    #[test]
    fn multi_pass_init_matches_reference_buffer() {
        let w = Tpacf::small();
        let platform = Platform::desktop_g280();
        let ctx = gmac::Gmac::new(
            platform,
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(8 * 1024),
        )
        .session();
        let s = ctx.alloc(w.random_bytes()).unwrap();
        w.multi_pass_init(&ctx, s).unwrap();
        let got: Vec<f32> = ctx.load_slice(s, w.nrandom * 2).unwrap();
        assert_eq!(got, w.expected_random());
    }

    #[test]
    fn variants_agree() {
        let w = Tpacf::small();
        let digests: Vec<u64> = Variant::ALL
            .iter()
            .map(|&v| run_variant(&w, v).unwrap().digest)
            .collect();
        assert!(
            digests.windows(2).all(|d| d[0] == d[1]),
            "digests: {digests:?}"
        );
    }

    #[test]
    fn small_rolling_size_thrashes() {
        // The Figure 12 pathology: rolling size 1 re-transfers continuously;
        // rolling size 4 holds all three write streams.
        let w = Tpacf {
            ndata: 1024,
            nrandom: 128 * 1024,
            samples: 4,
            sets: 1,
            pass_lags: [256 * 1024, 512 * 1024],
            init_chunk: 16 * 1024,
        };
        let base = GmacConfig::default().block_size(64 * 1024);
        let r1 = run_variant_with(
            &w,
            Variant::Gmac(Protocol::Rolling),
            base.clone().rolling_size(1),
        )
        .unwrap();
        let r4 =
            run_variant_with(&w, Variant::Gmac(Protocol::Rolling), base.rolling_size(4)).unwrap();
        assert!(
            r1.transfers.h2d_bytes > 3 * r4.transfers.h2d_bytes,
            "rolling-1 {} vs rolling-4 {}",
            r1.transfers.h2d_bytes,
            r4.transfers.h2d_bytes
        );
        assert!(r1.elapsed > r4.elapsed);
    }
}
