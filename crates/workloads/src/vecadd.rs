//! Vector addition micro-benchmark (paper §5.2, Figure 11): "a micro-
//! benchmark that adds up two 8 million element vectors".
//!
//! The CPU initialises the two inputs sequentially, the kernel adds them,
//! and the CPU reads the full result back — the canonical produce/compute/
//! consume cycle whose transfer behaviour Figure 11 sweeps over block sizes.

use crate::common::{Digest, Workload, WorkloadResult};
use cudart::Cuda;
use gmac::{Param, Session, SharedPtr};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, StreamId,
};
use softmmu::{from_bytes, to_bytes};
use std::sync::Arc;

/// `c[i] = a[i] + b[i]`.
#[derive(Debug)]
pub struct VecAddKernel;

impl Kernel for VecAddKernel {
    fn name(&self) -> &str {
        "vecadd"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(3)?;
        let a = read_f32_slice(mem, args.ptr(0)?, n)?;
        let b = read_f32_slice(mem, args.ptr(1)?, n)?;
        let c: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        write_f32_slice(mem, args.ptr(2)?, &c)?;
        // One add per element; 3 words of traffic per element.
        Ok(KernelProfile::new(n as f64, n as f64 * 12.0))
    }
}

/// The vector-addition workload.
#[derive(Debug, Clone)]
pub struct VecAdd {
    /// Elements per vector (paper: 8 million).
    pub n: usize,
}

impl Default for VecAdd {
    fn default() -> Self {
        VecAdd { n: 8 * 1024 * 1024 }
    }
}

impl VecAdd {
    /// Scaled-down instance for unit tests.
    pub fn small() -> Self {
        VecAdd { n: 64 * 1024 }
    }

    fn bytes(&self) -> u64 {
        self.n as u64 * 4
    }

    /// Packages this instance as a service job (three `n`-element vectors
    /// is the byte hint).
    pub fn job(self) -> crate::common::JobSpec {
        let hint = self.bytes() * 3;
        crate::common::service_job(self, hint)
    }

    fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..self.n).map(|i| (i % 9973) as f32 * 0.25).collect();
        let b: Vec<f32> = (0..self.n).map(|i| (i % 7919) as f32 * 0.5).collect();
        (a, b)
    }
}

impl Workload for VecAdd {
    fn name(&self) -> &'static str {
        "vecadd"
    }

    fn description(&self) -> &'static str {
        "adds two 8M-element vectors; CPU produces inputs and consumes the full output"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(VecAddKernel));
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        let (av, bv) = self.inputs();
        // Host init cost (the CPU really streams these bytes).
        p.cpu_touch(2 * self.bytes());
        // Explicit device management, as in the paper's Figure 3.
        let da = cuda.malloc(p, self.bytes())?;
        let db = cuda.malloc(p, self.bytes())?;
        let dc = cuda.malloc(p, self.bytes())?;
        cuda.memcpy_h2d(p, da, &to_bytes(&av))?;
        cuda.memcpy_h2d(p, db, &to_bytes(&bv))?;
        let args = [
            hetsim::KernelArg::Ptr(da),
            hetsim::KernelArg::Ptr(db),
            hetsim::KernelArg::Ptr(dc),
            hetsim::KernelArg::U64(self.n as u64),
        ];
        cuda.launch(
            p,
            StreamId(0),
            "vecadd",
            LaunchDims::for_elements(self.n as u64, 256),
            &args,
        )?;
        cuda.thread_synchronize(p)?;
        let mut out = vec![0u8; self.bytes() as usize];
        cuda.memcpy_d2h(p, &mut out, dc)?;
        // CPU consumes the result.
        p.cpu_touch(self.bytes());
        let cv: Vec<f32> = from_bytes(&out);
        cuda.free(p, da)?;
        cuda.free(p, db)?;
        cuda.free(p, dc)?;
        let mut d = Digest::new();
        d.update_f32(&cv);
        Ok(d.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        let (av, bv) = self.inputs();
        // Single typed allocation, single pointer — Figure 4. The element
        // count lives on the buffer; no byte math at the call site.
        let a = ctx.alloc_typed::<f32>(self.n)?;
        let b = ctx.alloc_typed::<f32>(self.n)?;
        let c = ctx.alloc_typed::<f32>(self.n)?;
        a.write_slice(&av)?;
        b.write_slice(&bv)?;
        let params = [
            Param::from(&a),
            Param::from(&b),
            Param::from(&c),
            Param::U64(self.n as u64),
        ];
        ctx.call(
            "vecadd",
            LaunchDims::for_elements(self.n as u64, 256),
            &params,
        )?;
        ctx.sync()?;
        let cv = c.read_slice()?;
        a.free()?;
        b.free()?;
        c.free()?;
        let mut d = Digest::new();
        d.update_f32(&cv);
        Ok(d.finish())
    }
}

/// Shared pointer triple used by the Figure 11 harness to drive a vecadd
/// round with externally-controlled block sizes.
#[derive(Debug, Clone, Copy)]
pub struct VecAddBuffers {
    /// Input a.
    pub a: SharedPtr,
    /// Input b.
    pub b: SharedPtr,
    /// Output c.
    pub c: SharedPtr,
}

/// Allocates the vecadd buffers in a context (Figure 11 helper).
///
/// # Errors
/// Propagates allocation failures.
pub fn alloc_buffers(ctx: &Session, n: usize) -> Result<VecAddBuffers, gmac::GmacError> {
    let bytes = n as u64 * 4;
    Ok(VecAddBuffers {
        a: ctx.alloc(bytes)?,
        b: ctx.alloc(bytes)?,
        c: ctx.alloc(bytes)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, Variant};

    #[test]
    fn all_variants_agree_on_output() {
        let w = VecAdd::small();
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
    fn gmac_lazy_time_is_close_to_cuda() {
        // Figure 7: lazy/rolling perform on par with hand-tuned CUDA.
        let w = VecAdd::small();
        let cuda = run_variant(&w, Variant::Cuda)
            .unwrap()
            .elapsed
            .as_secs_f64();
        let lazy = run_variant(&w, Variant::Gmac(gmac::Protocol::Lazy))
            .unwrap()
            .elapsed
            .as_secs_f64();
        let ratio = lazy / cuda;
        assert!(ratio < 1.5, "lazy/cuda = {ratio}");
    }

    #[test]
    fn transfers_match_expectation() {
        let w = VecAdd::small();
        let r = run_variant(&w, Variant::Gmac(gmac::Protocol::Lazy)).unwrap();
        // Two inputs up, one output down (page-rounded).
        assert_eq!(r.transfers.h2d_bytes, 2 * w.bytes());
        assert_eq!(r.transfers.d2h_bytes, w.bytes());
    }
}
