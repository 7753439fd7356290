//! `mri-q` — Magnetic Resonance Imaging Q (paper Table 2).
//!
//! "Computation of a matrix Q, representing the scanner configuration, used
//! in a 3D magnetic resonance image reconstruction algorithm in non-Cartesian
//! space."
//!
//! Phase structure: large inputs (k-space trajectory and voxel coordinates)
//! are **read from disk**, the accelerator accumulates the Q matrix, the CPU
//! writes the result out. The paper's Figure 10 shows mri-q with high IORead
//! share — it "would benefit from hardware that supports peer DMA".

use crate::common::{Digest, Prng, Workload, WorkloadResult};
use cudart::Cuda;
use gmac::{Param, Session};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, StreamId,
};
use std::sync::Arc;

/// Accumulates `Q(x) = Σ_k |phi_k|² · exp(i·2π·k·x)` over all samples.
#[derive(Debug)]
pub struct MriQKernel;

impl MriQKernel {
    /// Reference computation shared by tests: returns interleaved (Qr, Qi).
    pub fn reference(traj: &[f32], phi: &[f32], voxels: &[f32]) -> Vec<f32> {
        let k = traj.len() / 3;
        let x = voxels.len() / 3;
        let mut q = vec![0.0f32; 2 * x];
        for xi in 0..x {
            let (vx, vy, vz) = (voxels[3 * xi], voxels[3 * xi + 1], voxels[3 * xi + 2]);
            let (mut qr, mut qi) = (0.0f32, 0.0f32);
            for ki in 0..k {
                let mag = phi[2 * ki] * phi[2 * ki] + phi[2 * ki + 1] * phi[2 * ki + 1];
                let angle = 2.0
                    * std::f32::consts::PI
                    * (traj[3 * ki] * vx + traj[3 * ki + 1] * vy + traj[3 * ki + 2] * vz);
                qr += mag * angle.cos();
                qi += mag * angle.sin();
            }
            q[2 * xi] = qr;
            q[2 * xi + 1] = qi;
        }
        q
    }
}

impl Kernel for MriQKernel {
    fn name(&self) -> &str {
        "mriq_computeQ"
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
        let phi = read_f32_slice(mem, args.ptr(1)?, k * 2)?;
        let voxels = read_f32_slice(mem, args.ptr(2)?, x * 3)?;
        let q = Self::reference(&traj, &phi, &voxels);
        write_f32_slice(mem, args.ptr(3)?, &q)?;
        // ~14 flops (incl. sincos) per sample-voxel pair.
        Ok(KernelProfile::new(
            (k * x) as f64 * 14.0,
            (x * 8 + k * 20) as f64,
        ))
    }
}

/// The mri-q workload.
#[derive(Debug, Clone)]
pub struct MriQ {
    /// K-space samples.
    pub k: usize,
    /// Voxels.
    pub x: usize,
}

impl Default for MriQ {
    fn default() -> Self {
        MriQ { k: 1024, x: 16384 }
    }
}

impl MriQ {
    /// Scaled-down instance for unit tests.
    pub fn small() -> Self {
        MriQ { k: 32, x: 256 }
    }

    fn traj_bytes(&self) -> u64 {
        self.k as u64 * 12
    }

    fn phi_bytes(&self) -> u64 {
        self.k as u64 * 8
    }

    fn voxel_bytes(&self) -> u64 {
        self.x as u64 * 12
    }

    fn q_bytes(&self) -> u64 {
        self.x as u64 * 8
    }
}

impl Workload for MriQ {
    fn name(&self) -> &'static str {
        "mri-q"
    }

    fn description(&self) -> &'static str {
        "Q-matrix computation for non-Cartesian 3D MRI reconstruction (disk-fed inputs)"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(MriQKernel));
    }

    fn prepare(&self, platform: &mut Platform) -> WorkloadResult<()> {
        let mut rng = Prng::new(0x3333);
        let traj: Vec<f32> = (0..self.k * 3).map(|_| rng.range_f32(-0.5, 0.5)).collect();
        let phi: Vec<f32> = (0..self.k * 2).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let voxels: Vec<f32> = (0..self.x * 3)
            .map(|_| rng.range_f32(-16.0, 16.0))
            .collect();
        platform
            .fs_mut()
            .create("mriq-traj.bin", softmmu::to_bytes(&traj));
        platform
            .fs_mut()
            .create("mriq-phi.bin", softmmu::to_bytes(&phi));
        platform
            .fs_mut()
            .create("mriq-voxels.bin", softmmu::to_bytes(&voxels));
        Ok(())
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        // Read inputs from disk into host buffers, then copy them over.
        let mut traj = vec![0u8; self.traj_bytes() as usize];
        let mut phi = vec![0u8; self.phi_bytes() as usize];
        let mut voxels = vec![0u8; self.voxel_bytes() as usize];
        p.file_read("mriq-traj.bin", 0, &mut traj)?;
        p.file_read("mriq-phi.bin", 0, &mut phi)?;
        p.file_read("mriq-voxels.bin", 0, &mut voxels)?;
        let d_traj = cuda.malloc(p, self.traj_bytes())?;
        let d_phi = cuda.malloc(p, self.phi_bytes())?;
        let d_vox = cuda.malloc(p, self.voxel_bytes())?;
        let d_q = cuda.malloc(p, self.q_bytes())?;
        cuda.memcpy_h2d(p, d_traj, &traj)?;
        cuda.memcpy_h2d(p, d_phi, &phi)?;
        cuda.memcpy_h2d(p, d_vox, &voxels)?;
        let args = [
            hetsim::KernelArg::Ptr(d_traj),
            hetsim::KernelArg::Ptr(d_phi),
            hetsim::KernelArg::Ptr(d_vox),
            hetsim::KernelArg::Ptr(d_q),
            hetsim::KernelArg::U64(self.k as u64),
            hetsim::KernelArg::U64(self.x as u64),
        ];
        cuda.launch(
            p,
            StreamId(0),
            "mriq_computeQ",
            LaunchDims::for_elements(self.x as u64, 256),
            &args,
        )?;
        cuda.thread_synchronize(p)?;
        let mut q = vec![0u8; self.q_bytes() as usize];
        cuda.memcpy_d2h(p, &mut q, d_q)?;
        p.cpu_touch(self.q_bytes());
        p.file_write("mriq-out.bin", 0, &q)?;
        for d in [d_traj, d_phi, d_vox, d_q] {
            cuda.free(p, d)?;
        }
        let mut digest = Digest::new();
        digest.update(&q);
        Ok(digest.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        // Shared pointers are passed straight to read(): the paper's
        // peer-DMA illusion (§3.1 benefit 3, §4.4).
        let s_traj = ctx.alloc(self.traj_bytes())?;
        let s_phi = ctx.alloc(self.phi_bytes())?;
        let s_vox = ctx.alloc(self.voxel_bytes())?;
        let s_q = ctx.alloc(self.q_bytes())?;
        ctx.read_file_to_shared("mriq-traj.bin", 0, s_traj, self.traj_bytes())?;
        ctx.read_file_to_shared("mriq-phi.bin", 0, s_phi, self.phi_bytes())?;
        ctx.read_file_to_shared("mriq-voxels.bin", 0, s_vox, self.voxel_bytes())?;
        let params = [
            Param::Shared(s_traj),
            Param::Shared(s_phi),
            Param::Shared(s_vox),
            Param::Shared(s_q),
            Param::U64(self.k as u64),
            Param::U64(self.x as u64),
        ];
        ctx.call(
            "mriq_computeQ",
            LaunchDims::for_elements(self.x as u64, 256),
            &params,
        )?;
        ctx.sync()?;
        ctx.write_shared_to_file("mriq-out.bin", 0, s_q, self.q_bytes())?;
        let q = ctx.load_slice::<u8>(s_q, self.q_bytes() as usize)?;
        for s in [s_traj, s_phi, s_vox, s_q] {
            ctx.free(s)?;
        }
        let mut digest = Digest::new();
        digest.update(&q);
        Ok(digest.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, Variant};

    #[test]
    fn reference_q_of_zero_trajectory_is_mag_sum() {
        // With k = 0 trajectory, every angle is zero: Qr = Σ|phi|², Qi = 0.
        let traj = vec![0.0f32; 6]; // two samples
        let phi = vec![1.0f32, 0.0, 0.5, 0.5]; // mags 1.0 and 0.5
        let voxels = vec![1.0f32, 2.0, 3.0];
        let q = MriQKernel::reference(&traj, &phi, &voxels);
        assert!((q[0] - 1.5).abs() < 1e-6);
        assert!(q[1].abs() < 1e-6);
    }

    #[test]
    fn variants_agree() {
        let w = MriQ::small();
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
    fn io_read_is_a_visible_fraction() {
        // Figure 10: mri benchmarks have high IORead activity.
        let w = MriQ::default();
        let r = run_variant(&w, Variant::Gmac(gmac::Protocol::Rolling)).unwrap();
        let io = r.ledger.get(hetsim::Category::IoRead).as_nanos() as f64;
        assert!(
            io / r.elapsed.as_nanos() as f64 > 0.05,
            "io fraction too small"
        );
    }
}
