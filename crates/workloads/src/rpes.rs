//! `rpes` — Rys Polynomial Equation Solver (paper Table 2).
//!
//! "Calculates 2-electron repulsion integrals which represent the Coulomb
//! interaction between electrons in molecules."
//!
//! Phase structure: iterative like pns — the shell-pair table and the
//! integral buffer stay resident on the accelerator across many batches —
//! but with a heavier kernel, so batch-update's full re-transfer hurts less
//! than on pns (18.61× vs 65.18× in Figure 7). Between batches the CPU
//! updates a small control block (quadrature weights) and polls a status
//! word.

use crate::common::{Digest, Prng, Workload, WorkloadResult};
use cudart::Cuda;
use gmac::{Param, Session};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, StreamId,
};
use softmmu::to_bytes;
use std::sync::Arc;

/// Control block length (f32 words).
pub const CTRL_WORDS: usize = 16;

/// How often the CPU polls the status word (periodic convergence check).
pub const POLL_EVERY: usize = 4;

/// Computes one batch of two-electron repulsion integrals using a Rys-like
/// quadrature over shell-pair parameters, modulated by the control block.
#[derive(Debug)]
pub struct RpesKernel;

impl RpesKernel {
    /// Reference computation shared by tests: integral batch `batch_idx`
    /// over `params` with control weights `ctrl`, writing `out` and
    /// returning the status value (sum of the first 16 integrals).
    pub fn reference(
        params: &[f32],
        ctrl: &[f32],
        out: &mut [f32],
        batch_idx: u64,
        per_batch: usize,
    ) -> f32 {
        let npairs = params.len() / 4;
        let nslots = out.len();
        let w_even = 0.651 + ctrl[(batch_idx as usize) % CTRL_WORDS] * 1e-3;
        let w_odd = 1.0 - w_even;
        for i in 0..per_batch {
            let slot = &mut out[i % nslots];
            let pair = (batch_idx as usize * 31 + i * 7) % npairs;
            let (a, b, c, d) = (
                params[4 * pair],
                params[4 * pair + 1],
                params[4 * pair + 2],
                params[4 * pair + 3],
            );
            // Two-point Rys-like quadrature of an exp-damped Coulomb kernel.
            let rho = (a * b) / (a + b + 1e-6);
            let t = rho * (c - d) * (c - d);
            let w0 = (-t).exp();
            let w1 = (-0.5 * t).exp();
            *slot = (w_even * w0 + w_odd * w1) / (rho + 1.0).sqrt();
        }
        out.iter().take(16).sum()
    }
}

impl Kernel for RpesKernel {
    fn name(&self) -> &str {
        "rpes_batch"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let npairs = args.u64(4)?;
        let per_batch = args.u64(5)? as usize;
        let batch_idx = args.u64(6)?;
        let nslots = args.u64(7)? as usize;
        let params = read_f32_slice(mem, args.ptr(0)?, npairs * 4)?;
        let ctrl = read_f32_slice(mem, args.ptr(1)?, CTRL_WORDS as u64)?;
        let mut out = read_f32_slice(mem, args.ptr(2)?, nslots as u64)?;
        let status = RpesKernel::reference(&params, &ctrl, &mut out, batch_idx, per_batch);
        write_f32_slice(mem, args.ptr(2)?, &out)?;
        write_f32_slice(mem, args.ptr(3)?, &[status])?;
        // ~30 flops per integral (exp + sqrt dominated).
        Ok(KernelProfile::new(
            per_batch as f64 * 30.0,
            per_batch as f64 * 8.0,
        ))
    }
}

/// The Rys-polynomial workload.
#[derive(Debug, Clone)]
pub struct Rpes {
    /// Shell pairs (4 parameters each).
    pub npairs: usize,
    /// Integrals computed per kernel batch.
    pub per_batch: usize,
    /// Integral accumulation slots (the resident output buffer).
    pub nslots: usize,
    /// Kernel iterations.
    pub steps: usize,
}

impl Default for Rpes {
    fn default() -> Self {
        // ~4 MB of shell parameters + ~4 MB of integral slots resident on
        // the accelerator, ~100 us kernels; calibrated so batch-update lands
        // near the paper's 18.6× slow-down with <2% signal overhead.
        Rpes {
            npairs: 262_144,
            per_batch: 3_300_000,
            nslots: 1_048_576,
            steps: 48,
        }
    }
}

impl Rpes {
    /// Scaled-down instance for unit tests.
    pub fn small() -> Self {
        Rpes {
            npairs: 1024,
            per_batch: 2048,
            nslots: 2048,
            steps: 4,
        }
    }

    fn params_bytes(&self) -> u64 {
        self.npairs as u64 * 16
    }

    fn out_bytes(&self) -> u64 {
        self.nslots as u64 * 4
    }

    fn ctrl_bytes(&self) -> u64 {
        (CTRL_WORDS * 4) as u64
    }

    fn initial_params(&self) -> Vec<f32> {
        let mut rng = Prng::new(0x6E5);
        (0..self.npairs * 4)
            .map(|_| rng.range_f32(0.1, 4.0))
            .collect()
    }

    fn ctrl_for_step(step: u64) -> Vec<f32> {
        (0..CTRL_WORDS)
            .map(|i| (step as f32) * 0.125 + i as f32 * 0.01)
            .collect()
    }
}

impl Workload for Rpes {
    fn name(&self) -> &'static str {
        "rpes"
    }

    fn description(&self) -> &'static str {
        "iterative 2-electron repulsion integral batches with small CPU control updates"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(RpesKernel));
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        let params = self.initial_params();
        p.cpu_touch(self.params_bytes());
        let d_params = cuda.malloc(p, self.params_bytes())?;
        let d_ctrl = cuda.malloc(p, self.ctrl_bytes())?;
        let d_out = cuda.malloc(p, self.out_bytes())?;
        let d_status = cuda.malloc(p, 4)?;
        cuda.memcpy_h2d(p, d_params, &to_bytes(&params))?;
        let mut digest = Digest::new();
        for step in 0..self.steps as u64 {
            // CPU refreshes the quadrature control block by hand.
            let ctrl = Self::ctrl_for_step(step);
            p.cpu_touch(self.ctrl_bytes());
            cuda.memcpy_h2d(p, d_ctrl, &to_bytes(&ctrl))?;
            let args = [
                hetsim::KernelArg::Ptr(d_params),
                hetsim::KernelArg::Ptr(d_ctrl),
                hetsim::KernelArg::Ptr(d_out),
                hetsim::KernelArg::Ptr(d_status),
                hetsim::KernelArg::U64(self.npairs as u64),
                hetsim::KernelArg::U64(self.per_batch as u64),
                hetsim::KernelArg::U64(step),
                hetsim::KernelArg::U64(self.nslots as u64),
            ];
            cuda.launch(
                p,
                StreamId(0),
                "rpes_batch",
                LaunchDims::for_elements(self.per_batch as u64, 128),
                &args,
            )?;
            cuda.thread_synchronize(p)?;
            if (step + 1) % POLL_EVERY as u64 == 0 {
                let mut probe = [0u8; 4];
                cuda.memcpy_d2h(p, &mut probe, d_status)?;
                digest.update(&probe);
            }
        }
        let mut out = vec![0u8; self.out_bytes() as usize];
        cuda.memcpy_d2h(p, &mut out, d_out)?;
        digest.update(&out);
        for d in [d_params, d_ctrl, d_out, d_status] {
            cuda.free(p, d)?;
        }
        Ok(digest.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        let params_v = self.initial_params();
        let s_params = ctx.alloc(self.params_bytes())?;
        let s_ctrl = ctx.alloc(self.ctrl_bytes())?;
        let s_out = ctx.alloc(self.out_bytes())?;
        let s_status = ctx.alloc(4)?;
        ctx.store_slice(s_params, &params_v)?;
        let mut digest = Digest::new();
        for step in 0..self.steps as u64 {
            // The same control refresh, as plain stores through the shared
            // pointer.
            let ctrl = Self::ctrl_for_step(step);
            ctx.store_slice(s_ctrl, &ctrl)?;
            let kparams = [
                Param::Shared(s_params),
                Param::Shared(s_ctrl),
                Param::Shared(s_out),
                Param::Shared(s_status),
                Param::U64(self.npairs as u64),
                Param::U64(self.per_batch as u64),
                Param::U64(step),
                Param::U64(self.nslots as u64),
            ];
            ctx.call(
                "rpes_batch",
                LaunchDims::for_elements(self.per_batch as u64, 128),
                &kparams,
            )?;
            ctx.sync()?;
            if (step + 1) % POLL_EVERY as u64 == 0 {
                let probe: f32 = ctx.load(s_status)?;
                digest.update(&probe.to_le_bytes());
            }
        }
        let out = ctx.load_slice::<u8>(s_out, self.out_bytes() as usize)?;
        digest.update(&out);
        for s in [s_params, s_ctrl, s_out, s_status] {
            ctx.free(s)?;
        }
        Ok(digest.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, Variant};
    use gmac::Protocol;

    #[test]
    fn reference_integrals_are_positive_and_damped() {
        let params = vec![1.0f32, 2.0, 0.5, 0.25, 3.0, 1.0, 2.0, 2.0];
        let ctrl = vec![0.0f32; CTRL_WORDS];
        let mut out = vec![0.0f32; 4];
        let status = RpesKernel::reference(&params, &ctrl, &mut out, 0, 4);
        for &v in &out {
            assert!(v > 0.0 && v < 1.0, "integral {v} out of expected range");
        }
        let expected: f32 = out.iter().take(16).sum();
        assert_eq!(status, expected);
    }

    #[test]
    fn variants_agree() {
        let w = Rpes::small();
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
    fn batch_is_slow_but_less_than_pns() {
        let w = Rpes {
            npairs: 65_536,
            per_batch: 65_536,
            nslots: 65_536,
            steps: 16,
        };
        let cuda = run_variant(&w, Variant::Cuda)
            .unwrap()
            .elapsed
            .as_secs_f64();
        let batch = run_variant(&w, Variant::Gmac(Protocol::Batch))
            .unwrap()
            .elapsed
            .as_secs_f64();
        let lazy = run_variant(&w, Variant::Gmac(Protocol::Lazy))
            .unwrap()
            .elapsed
            .as_secs_f64();
        assert!(batch / cuda > 3.0, "batch slowdown only {}", batch / cuda);
        assert!(lazy / cuda < 1.5, "lazy slowdown {}", lazy / cuda);
    }
}
