//! `mri-fhd` — Magnetic Resonance Imaging FHd (paper Table 2).
//!
//! "Computation of an image-specific matrix FHd, used in a 3D magnetic
//! resonance image reconstruction algorithm in non-Cartesian space."
//!
//! Like mri-q but the accumulation is weighted by the measured k-space data
//! (rho), so the inputs are larger — the most I/O-intensive benchmark in the
//! paper's Figure 10.

use crate::common::{Digest, Prng, Workload, WorkloadResult};
use cudart::Cuda;
use gmac::{Param, Session};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, StreamId,
};
use std::sync::Arc;

/// Accumulates `FHd(x) = Σ_k rho_k* · exp(i·2π·k·x)`.
#[derive(Debug)]
pub struct MriFhdKernel;

impl MriFhdKernel {
    /// Reference computation shared by tests: returns interleaved (rFH, iFH).
    pub fn reference(traj: &[f32], rho: &[f32], voxels: &[f32]) -> Vec<f32> {
        let k = traj.len() / 3;
        let x = voxels.len() / 3;
        let mut fhd = vec![0.0f32; 2 * x];
        for xi in 0..x {
            let (vx, vy, vz) = (voxels[3 * xi], voxels[3 * xi + 1], voxels[3 * xi + 2]);
            let (mut re, mut im) = (0.0f32, 0.0f32);
            for ki in 0..k {
                let (rr, ri) = (rho[2 * ki], rho[2 * ki + 1]);
                let angle = 2.0
                    * std::f32::consts::PI
                    * (traj[3 * ki] * vx + traj[3 * ki + 1] * vy + traj[3 * ki + 2] * vz);
                let (s, c) = angle.sin_cos();
                re += rr * c + ri * s;
                im += ri * c - rr * s;
            }
            fhd[2 * xi] = re;
            fhd[2 * xi + 1] = im;
        }
        fhd
    }
}

impl Kernel for MriFhdKernel {
    fn name(&self) -> &str {
        "mrifhd_computeFH"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let k = args.u64(4)?;
        let x = args.u64(5)?;
        let traj = read_f32_slice(mem, args.ptr(0)?, k * 3)?;
        let rho = read_f32_slice(mem, args.ptr(1)?, k * 2)?;
        let voxels = read_f32_slice(mem, args.ptr(2)?, x * 3)?;
        let fhd = Self::reference(&traj, &rho, &voxels);
        write_f32_slice(mem, args.ptr(3)?, &fhd)?;
        Ok(KernelProfile::new(
            (k * x) as f64 * 16.0,
            (x * 8 + k * 20) as f64,
        ))
    }
}

/// The mri-fhd workload.
#[derive(Debug, Clone)]
pub struct MriFhd {
    /// K-space samples.
    pub k: usize,
    /// Voxels.
    pub x: usize,
}

impl Default for MriFhd {
    fn default() -> Self {
        MriFhd { k: 1024, x: 16384 }
    }
}

impl MriFhd {
    /// Scaled-down instance for unit tests.
    pub fn small() -> Self {
        MriFhd { k: 32, x: 256 }
    }

    fn traj_bytes(&self) -> u64 {
        self.k as u64 * 12
    }

    fn rho_bytes(&self) -> u64 {
        self.k as u64 * 8
    }

    fn voxel_bytes(&self) -> u64 {
        self.x as u64 * 12
    }

    fn out_bytes(&self) -> u64 {
        self.x as u64 * 8
    }
}

impl Workload for MriFhd {
    fn name(&self) -> &'static str {
        "mri-fhd"
    }

    fn description(&self) -> &'static str {
        "FHd-matrix computation for non-Cartesian 3D MRI reconstruction (disk-fed inputs)"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(MriFhdKernel));
    }

    fn prepare(&self, platform: &mut Platform) -> WorkloadResult<()> {
        let mut rng = Prng::new(0xFD);
        let traj: Vec<f32> = (0..self.k * 3).map(|_| rng.range_f32(-0.5, 0.5)).collect();
        let rho: Vec<f32> = (0..self.k * 2).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let voxels: Vec<f32> = (0..self.x * 3)
            .map(|_| rng.range_f32(-16.0, 16.0))
            .collect();
        platform
            .fs_mut()
            .create("mrifhd-traj.bin", softmmu::to_bytes(&traj));
        platform
            .fs_mut()
            .create("mrifhd-rho.bin", softmmu::to_bytes(&rho));
        platform
            .fs_mut()
            .create("mrifhd-voxels.bin", softmmu::to_bytes(&voxels));
        Ok(())
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        let mut traj = vec![0u8; self.traj_bytes() as usize];
        let mut rho = vec![0u8; self.rho_bytes() as usize];
        let mut voxels = vec![0u8; self.voxel_bytes() as usize];
        p.file_read("mrifhd-traj.bin", 0, &mut traj)?;
        p.file_read("mrifhd-rho.bin", 0, &mut rho)?;
        p.file_read("mrifhd-voxels.bin", 0, &mut voxels)?;
        let d_traj = cuda.malloc(p, self.traj_bytes())?;
        let d_rho = cuda.malloc(p, self.rho_bytes())?;
        let d_vox = cuda.malloc(p, self.voxel_bytes())?;
        let d_out = cuda.malloc(p, self.out_bytes())?;
        cuda.memcpy_h2d(p, d_traj, &traj)?;
        cuda.memcpy_h2d(p, d_rho, &rho)?;
        cuda.memcpy_h2d(p, d_vox, &voxels)?;
        let args = [
            hetsim::KernelArg::Ptr(d_traj),
            hetsim::KernelArg::Ptr(d_rho),
            hetsim::KernelArg::Ptr(d_vox),
            hetsim::KernelArg::Ptr(d_out),
            hetsim::KernelArg::U64(self.k as u64),
            hetsim::KernelArg::U64(self.x as u64),
        ];
        cuda.launch(
            p,
            StreamId(0),
            "mrifhd_computeFH",
            LaunchDims::for_elements(self.x as u64, 256),
            &args,
        )?;
        cuda.thread_synchronize(p)?;
        let mut out = vec![0u8; self.out_bytes() as usize];
        cuda.memcpy_d2h(p, &mut out, d_out)?;
        p.cpu_touch(self.out_bytes());
        p.file_write("mrifhd-out.bin", 0, &out)?;
        for d in [d_traj, d_rho, d_vox, d_out] {
            cuda.free(p, d)?;
        }
        let mut digest = Digest::new();
        digest.update(&out);
        Ok(digest.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        let s_traj = ctx.alloc(self.traj_bytes())?;
        let s_rho = ctx.alloc(self.rho_bytes())?;
        let s_vox = ctx.alloc(self.voxel_bytes())?;
        let s_out = ctx.alloc(self.out_bytes())?;
        ctx.read_file_to_shared("mrifhd-traj.bin", 0, s_traj, self.traj_bytes())?;
        ctx.read_file_to_shared("mrifhd-rho.bin", 0, s_rho, self.rho_bytes())?;
        ctx.read_file_to_shared("mrifhd-voxels.bin", 0, s_vox, self.voxel_bytes())?;
        let params = [
            Param::Shared(s_traj),
            Param::Shared(s_rho),
            Param::Shared(s_vox),
            Param::Shared(s_out),
            Param::U64(self.k as u64),
            Param::U64(self.x as u64),
        ];
        ctx.call(
            "mrifhd_computeFH",
            LaunchDims::for_elements(self.x as u64, 256),
            &params,
        )?;
        ctx.sync()?;
        ctx.write_shared_to_file("mrifhd-out.bin", 0, s_out, self.out_bytes())?;
        let out = ctx.load_slice::<u8>(s_out, self.out_bytes() as usize)?;
        for s in [s_traj, s_rho, s_vox, s_out] {
            ctx.free(s)?;
        }
        let mut digest = Digest::new();
        digest.update(&out);
        Ok(digest.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, Variant};

    #[test]
    fn reference_fhd_zero_trajectory_sums_rho() {
        // Zero trajectory => angle 0 => re = Σ rr, im = Σ ri.
        let traj = vec![0.0f32; 6];
        let rho = vec![0.25f32, 0.5, 0.75, -0.5];
        let voxels = vec![1.0f32, 1.0, 1.0];
        let fhd = MriFhdKernel::reference(&traj, &rho, &voxels);
        assert!((fhd[0] - 1.0).abs() < 1e-6);
        assert!((fhd[1] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn variants_agree() {
        let w = MriFhd::small();
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
