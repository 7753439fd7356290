//! `cp` — Coulombic Potential (paper Table 2).
//!
//! "Computes the coulombic potential at each grid point over one plane in a
//! 3D grid in which point charges have been randomly distributed. Adapted
//! from 'cionize' benchmark in VMD."
//!
//! Phase structure: the CPU generates the atom set, the accelerator computes
//! the potential plane (compute-bound), the CPU consumes the plane and
//! writes it to disk.

use crate::common::{Digest, Prng, Workload, WorkloadResult};
use cudart::Cuda;
use gmac::{Param, Session};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceId, DeviceMemory, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, StreamId,
};
use softmmu::to_bytes;
use std::sync::Arc;

/// Computes the potential plane: `grid[j,i] = Σ_a q_a / dist(a, (i,j,z0))`.
#[derive(Debug)]
pub struct CpKernel;

impl CpKernel {
    /// Reference computation shared by tests.
    pub fn reference(atoms: &[f32], n: usize, z0: f32) -> Vec<f32> {
        let natoms = atoms.len() / 4;
        let mut grid = vec![0.0f32; n * n];
        let spacing = 0.1f32;
        for j in 0..n {
            for i in 0..n {
                let (gx, gy) = (i as f32 * spacing, j as f32 * spacing);
                let mut e = 0.0f32;
                for a in 0..natoms {
                    let dx = gx - atoms[4 * a];
                    let dy = gy - atoms[4 * a + 1];
                    let dz = z0 - atoms[4 * a + 2];
                    let q = atoms[4 * a + 3];
                    e += q / (dx * dx + dy * dy + dz * dz).sqrt().max(1e-6);
                }
                grid[j * n + i] = e;
            }
        }
        grid
    }
}

impl Kernel for CpKernel {
    fn name(&self) -> &str {
        "cp_energy"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let natoms = args.u64(2)? as usize;
        let n = args.u64(3)? as usize;
        let z0 = args.f64(4)? as f32;
        let atoms = read_f32_slice(mem, args.ptr(0)?, natoms as u64 * 4)?;
        let grid = Self::reference(&atoms, n, z0);
        write_f32_slice(mem, args.ptr(1)?, &grid)?;
        // ~9 flops per atom-cell interaction; atoms stay in shared memory so
        // traffic is one grid write stream.
        Ok(KernelProfile::new(
            (natoms * n * n) as f64 * 9.0,
            (n * n) as f64 * 4.0,
        ))
    }
}

/// The Coulombic-potential workload.
#[derive(Debug, Clone)]
pub struct Cp {
    /// Number of point charges.
    pub natoms: usize,
    /// Grid edge length (plane is `n × n`).
    pub n: usize,
}

impl Default for Cp {
    fn default() -> Self {
        Cp {
            natoms: 16384,
            n: 64,
        }
    }
}

impl Cp {
    /// Scaled-down instance for unit tests.
    pub fn small() -> Self {
        Cp { natoms: 64, n: 24 }
    }

    fn atoms(&self) -> Vec<f32> {
        let mut rng = Prng::new(0xC0);
        let extent = self.n as f32 * 0.1;
        (0..self.natoms)
            .flat_map(|_| {
                [
                    rng.range_f32(0.0, extent),
                    rng.range_f32(0.0, extent),
                    rng.range_f32(-2.0, 2.0),
                    rng.range_f32(-1.0, 1.0),
                ]
            })
            .collect()
    }

    fn atoms_bytes(&self) -> u64 {
        self.natoms as u64 * 16
    }

    fn grid_bytes(&self) -> u64 {
        (self.n * self.n) as u64 * 4
    }

    /// CPU cost of generating the atom set.
    fn charge_atom_generation(&self, p: &Platform) {
        p.cpu_compute(self.natoms as f64 * 24.0, self.atoms_bytes() as f64);
    }

    /// Packages this instance as a service job (atom set + potential grid
    /// is the byte hint).
    pub fn job(self) -> crate::common::JobSpec {
        let hint = self.atoms_bytes() + self.grid_bytes();
        crate::common::service_job(self, hint)
    }
}

const Z0: f64 = 0.55;

impl Workload for Cp {
    fn name(&self) -> &'static str {
        "cp"
    }

    fn description(&self) -> &'static str {
        "coulombic potential over one plane of a 3D grid with random point charges"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(Arc::new(CpKernel));
    }

    fn run_cuda(&self, p: &mut Platform) -> WorkloadResult<u64> {
        let cuda = Cuda::new(DeviceId(0));
        let atoms = self.atoms();
        self.charge_atom_generation(p);
        let d_atoms = cuda.malloc(p, self.atoms_bytes())?;
        let d_grid = cuda.malloc(p, self.grid_bytes())?;
        cuda.memcpy_h2d(p, d_atoms, &to_bytes(&atoms))?;
        let args = [
            hetsim::KernelArg::Ptr(d_atoms),
            hetsim::KernelArg::Ptr(d_grid),
            hetsim::KernelArg::U64(self.natoms as u64),
            hetsim::KernelArg::U64(self.n as u64),
            hetsim::KernelArg::F64(Z0),
        ];
        cuda.launch(
            p,
            StreamId(0),
            "cp_energy",
            LaunchDims::for_elements((self.n * self.n) as u64, 128),
            &args,
        )?;
        cuda.thread_synchronize(p)?;
        let mut out = vec![0u8; self.grid_bytes() as usize];
        cuda.memcpy_d2h(p, &mut out, d_grid)?;
        p.cpu_touch(self.grid_bytes());
        p.file_write("cp-out.bin", 0, &out)?;
        cuda.free(p, d_atoms)?;
        cuda.free(p, d_grid)?;
        let mut d = Digest::new();
        d.update(&out);
        Ok(d.finish())
    }

    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64> {
        let atoms = self.atoms();
        ctx.gmac().with_platform(|p| self.charge_atom_generation(p));
        let s_atoms = ctx.alloc(self.atoms_bytes())?;
        let s_grid = ctx.alloc(self.grid_bytes())?;
        ctx.store_slice(s_atoms, &atoms)?;
        let params = [
            Param::Shared(s_atoms),
            Param::Shared(s_grid),
            Param::U64(self.natoms as u64),
            Param::U64(self.n as u64),
            Param::F64(Z0),
        ];
        ctx.call(
            "cp_energy",
            LaunchDims::for_elements((self.n * self.n) as u64, 128),
            &params,
        )?;
        ctx.sync()?;
        // The shared pointer goes straight to the write() call — no explicit
        // transfer in sight.
        ctx.write_shared_to_file("cp-out.bin", 0, s_grid, self.grid_bytes())?;
        let out = ctx.load_slice::<u8>(s_grid, self.grid_bytes() as usize)?;
        ctx.free(s_atoms)?;
        ctx.free(s_grid)?;
        let mut d = Digest::new();
        d.update(&out);
        Ok(d.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_variant, Variant};

    #[test]
    fn reference_potential_is_symmetric_for_symmetric_atoms() {
        // One positive charge at the grid centre: potential falls off with
        // distance and is symmetric around the centre.
        let n = 16;
        let c = n as f32 * 0.1 / 2.0;
        let atoms = vec![c, c, 0.0, 1.0];
        let grid = CpKernel::reference(&atoms, n, 0.0);
        let centre = grid[n / 2 * n + n / 2];
        assert!(centre > grid[0], "potential peaks near the charge");
        // Symmetry: mirrored points match.
        let a = grid[2 * n + 3];
        let b = grid[(n - 1 - 2) * n + (n - 1 - 3)];
        let rel = (a - b).abs() / a.abs().max(1e-9);
        assert!(rel < 0.35, "rough mirror symmetry: {a} vs {b}");
    }

    #[test]
    fn variants_agree() {
        let w = Cp::small();
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
    fn compute_dominates_the_breakdown() {
        // cp is compute-bound: GPU time should dominate the Figure 10
        // break-down.
        let w = Cp::default();
        let r = run_variant(&w, Variant::Gmac(gmac::Protocol::Rolling)).unwrap();
        let gpu = r.ledger.get(hetsim::Category::Gpu);
        for (cat, t) in r.ledger.iter() {
            if cat != hetsim::Category::Gpu {
                assert!(gpu >= t, "{cat} ({t}) exceeds GPU time ({gpu})");
            }
        }
    }
}
