//! Oversubscription bench for device-memory-as-a-cache eviction
//! ([`GmacConfig::evict`]): a working set several times larger than device
//! memory cycles through kernel calls, forcing the shard to evict cold
//! objects to host (and optionally spill them on to the disk tier) and
//! re-fetch them on the next call that needs them.
//!
//! The headline check is **correctness under pressure**: every mode below —
//! oversubscribed LRU, oversubscribed clock, oversubscribed with a host
//! budget small enough to spill, and an un-oversubscribed reference — must
//! produce byte-identical output digests. On top of that the
//! un-oversubscribed reference must be identical *in virtual time* with
//! eviction on and off, proving the machinery is free until the device
//! actually runs out (the standard ablation discipline of this repo).
//! What the oversubscribed modes then measure is the *price* of pretending
//! the device is bigger than it is: extra D2H/H2D traffic and file I/O,
//! reported as a virtual-time slowdown over the reference.
//!
//! Used by the `evict` binary (which writes `results/BENCH_evict.json`).

use gmac::{EvictPolicy, Gmac, GmacConfig, Param};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceMemory, GpuSpec, Kernel, KernelProfile,
    LaunchDims, Platform, SimResult, DEFAULT_DEVICE_BASE,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Problem sizes for one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Device memory of the oversubscribed platform.
    pub device_mem: u64,
    /// Shared objects in the working set.
    pub objects: usize,
    /// Bytes per object.
    pub object_bytes: u64,
    /// Full sweeps of the working set (one kernel call per object each).
    pub rounds: usize,
    /// Best-of repeats for the wall-clock numbers.
    pub repeats: usize,
}

impl Scale {
    /// Full measurement scale: 320 MiB working set on a 64 MiB device
    /// (5x oversubscription).
    pub fn full() -> Self {
        Scale {
            device_mem: 64 << 20,
            objects: 20,
            object_bytes: 16 << 20,
            rounds: 3,
            repeats: 3,
        }
    }

    /// CI smoke scale (`--quick`): 64 MiB working set on a 16 MiB device
    /// (4x oversubscription).
    pub fn quick() -> Self {
        Scale {
            device_mem: 16 << 20,
            objects: 8,
            object_bytes: 8 << 20,
            rounds: 2,
            repeats: 1,
        }
    }

    /// Total working-set bytes.
    pub fn working_set(&self) -> u64 {
        self.objects as u64 * self.object_bytes
    }

    /// Working set over device memory.
    pub fn oversubscription(&self) -> f64 {
        self.working_set() as f64 / self.device_mem as f64
    }
}

/// One configuration under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Working set ≫ device memory, LRU victims (the headline).
    Oversub,
    /// Same pressure, clock/second-chance victims.
    OversubClock,
    /// Same pressure plus a host budget of half the working set, so cold
    /// evicted images spill to the disk tier and are read back.
    OversubSpill,
    /// Device big enough for the whole working set: nothing ever evicts.
    Reference,
    /// Reference capacity with eviction compiled out
    /// ([`GmacConfig::evict`] off) — must match [`Mode::Reference`] in
    /// virtual time exactly.
    ReferenceNoEvict,
}

impl Mode {
    /// All modes, headline first.
    pub const ALL: [Mode; 5] = [
        Mode::Oversub,
        Mode::OversubClock,
        Mode::OversubSpill,
        Mode::Reference,
        Mode::ReferenceNoEvict,
    ];

    /// JSON/row label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Oversub => "oversub_lru",
            Mode::OversubClock => "oversub_clock",
            Mode::OversubSpill => "oversub_spill",
            Mode::Reference => "reference",
            Mode::ReferenceNoEvict => "reference_no_evict",
        }
    }

    fn device_mem(self, scale: Scale) -> u64 {
        match self {
            Mode::Oversub | Mode::OversubClock | Mode::OversubSpill => scale.device_mem,
            // Working set plus slack: nothing ever needs evicting.
            Mode::Reference | Mode::ReferenceNoEvict => scale.working_set() * 2,
        }
    }

    fn config(self, scale: Scale) -> GmacConfig {
        let base = GmacConfig::default();
        match self {
            Mode::Oversub | Mode::Reference => base,
            Mode::OversubClock => base.evict_policy(EvictPolicy::Clock),
            Mode::OversubSpill => base.host_capacity(scale.working_set() / 2),
            Mode::ReferenceNoEvict => base.evict(false),
        }
    }
}

/// Result of one mode.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock nanoseconds for the whole workload.
    pub wall_ns: u64,
    /// Virtual nanoseconds on the simulated platform.
    pub virtual_ns: u64,
    /// FNV digest of every object's final bytes (must match across modes).
    pub digest: u64,
    /// Objects evicted device→host.
    pub evictions: u64,
    /// Evicted objects re-homed on a later call.
    pub refetches: u64,
    /// Bytes released by eviction.
    pub evicted_bytes: u64,
    /// Cold host images spilled to the disk tier.
    pub disk_spills: u64,
}

#[derive(Debug)]
struct Inc;

impl Kernel for Inc {
    fn name(&self) -> &str {
        "inc"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(1)?;
        let mut v = read_f32_slice(mem, args.ptr(0)?, n)?;
        for x in v.iter_mut() {
            *x += 1.0;
        }
        write_f32_slice(mem, args.ptr(0)?, &v)?;
        Ok(KernelProfile::new(n as f64, 8.0 * n as f64))
    }
}

/// Runs the workload once in one mode: allocate the whole working set,
/// seed a per-object pattern, sweep it `rounds` times with an increment
/// kernel (each call re-homes its object, evicting colder ones on the
/// small platform), then digest every object's final bytes from the host.
pub fn run_mode(mode: Mode, scale: Scale) -> Sample {
    let platform = Platform::builder()
        .clear_devices()
        .add_device(GpuSpec::g280(), mode.device_mem(scale), DEFAULT_DEVICE_BASE)
        .build();
    platform.register_kernel(Arc::new(Inc));
    let g = Gmac::new(platform, mode.config(scale));
    let s = g.session();
    let elems = (scale.object_bytes / 4) as usize;

    let ptrs: Vec<_> = (0..scale.objects)
        .map(|i| {
            let p = s.alloc(scale.object_bytes).expect("alloc");
            let data: Vec<f32> = (0..elems).map(|e| ((e + i) % 251) as f32).collect();
            s.store_slice(p, &data).expect("seed");
            p
        })
        .collect();

    let start = Instant::now();
    for _ in 0..scale.rounds {
        for &p in &ptrs {
            s.call(
                "inc",
                LaunchDims::for_elements(elems as u64, 256),
                &[Param::Shared(p), Param::U64(elems as u64)],
            )
            .expect("call");
            s.sync().expect("sync");
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (i, &p) in ptrs.iter().enumerate() {
        let back = s.load_slice::<f32>(p, elems).expect("read back");
        for (e, v) in back.iter().enumerate() {
            let expect = ((e + i) % 251) as f32 + scale.rounds as f32;
            assert_eq!(*v, expect, "object {i} elem {e} corrupted");
            for b in v.to_bits().to_le_bytes() {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    let c = g.counters();
    Sample {
        wall_ns,
        virtual_ns: g.report().elapsed.as_nanos(),
        digest,
        evictions: c.evictions,
        refetches: c.refetches,
        evicted_bytes: c.evicted_bytes,
        disk_spills: c.disk_spills,
    }
}

/// Best-of-`rounds`: lowest wall time; digests must agree between repeats.
pub fn best_of(rounds: usize, mut f: impl FnMut() -> Sample) -> Sample {
    let samples: Vec<Sample> = (0..rounds.max(1)).map(|_| f()).collect();
    assert!(
        samples.windows(2).all(|w| w[0].digest == w[1].digest),
        "repeats disagree on output bytes"
    );
    *samples
        .iter()
        .min_by_key(|s| s.wall_ns)
        .expect("at least one round")
}

/// Runs every mode and enforces the cross-mode invariants: all digests
/// identical; the oversubscribed modes actually evicted (and the spill mode
/// actually spilled); the reference never evicted; and eviction on vs. off
/// is virtual-time identical when capacity suffices.
pub fn run_all(scale: Scale) -> Vec<(Mode, Sample)> {
    let results: Vec<(Mode, Sample)> = Mode::ALL
        .iter()
        .map(|&m| (m, best_of(scale.repeats, || run_mode(m, scale))))
        .collect();
    let reference = results
        .iter()
        .find(|(m, _)| *m == Mode::Reference)
        .expect("reference mode ran")
        .1;
    for (mode, s) in &results {
        assert_eq!(
            s.digest,
            reference.digest,
            "{}: oversubscription changed the output bytes",
            mode.label()
        );
        match mode {
            Mode::Oversub | Mode::OversubClock | Mode::OversubSpill => {
                assert!(s.evictions > 0, "{}: no pressure exercised", mode.label());
                assert!(s.refetches > 0, "{}: nothing came back", mode.label());
            }
            Mode::Reference | Mode::ReferenceNoEvict => {
                assert_eq!(s.evictions, 0, "reference must not evict");
            }
        }
        if *mode == Mode::OversubSpill {
            assert!(s.disk_spills > 0, "spill mode never hit the disk tier");
        }
        if *mode == Mode::ReferenceNoEvict {
            assert_eq!(
                s.virtual_ns, reference.virtual_ns,
                "eviction machinery must be virtual-time-free until OOM"
            );
        }
    }
    results
}

/// Renders the results as the `BENCH_evict.json` document (hand-rolled: the
/// container has no serde). `scale` labels the measurement; the working-set
/// and device sizes pin the oversubscription factor the numbers were
/// produced under, and `slowdown` is each mode's virtual time over the
/// un-oversubscribed reference.
pub fn to_json(scale_name: &str, cores: usize, scale: Scale, results: &[(Mode, Sample)]) -> String {
    let reference_ns = results
        .iter()
        .find(|(m, _)| *m == Mode::Reference)
        .map_or(1, |(_, s)| s.virtual_ns.max(1));
    let mut out = format!(
        "{{\n  \"bench\": \"evict\",\n  \"scale\": \"{scale_name}\",\n  \"cores\": {cores},\n  \
         \"unit\": \"virtual_ns\",\n  \"working_set_bytes\": {},\n  \"device_mem_bytes\": {},\n  \
         \"oversubscription\": {:.2},\n  \"modes\": [\n",
        scale.working_set(),
        scale.device_mem,
        scale.oversubscription(),
    );
    for (i, (mode, s)) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"wall_ns\": {}, \"virtual_ns\": {}, \"slowdown\": {:.3}, \
             \"evictions\": {}, \"refetches\": {}, \"evicted_bytes\": {}, \"disk_spills\": {}, \
             \"digest\": \"{:#018x}\"}}",
            mode.label(),
            s.wall_ns,
            s.virtual_ns,
            s.virtual_ns as f64 / reference_ns as f64,
            s.evictions,
            s.refetches,
            s.evicted_bytes,
            s.disk_spills,
            s.digest,
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_oversubscribed() {
        assert!(Scale::full().oversubscription() >= 4.0);
        assert!(Scale::quick().oversubscription() >= 4.0);
    }

    #[test]
    fn json_shape_holds() {
        let s = Sample {
            wall_ns: 100,
            virtual_ns: 2_000,
            digest: 0xDEAD,
            evictions: 7,
            refetches: 6,
            evicted_bytes: 1 << 20,
            disk_spills: 2,
        };
        let j = to_json("quick", 8, Scale::quick(), &[(Mode::Oversub, s)]);
        assert!(j.contains("\"bench\": \"evict\""));
        assert!(j.contains("\"oversubscription\": 4.00"));
        assert!(j.contains("\"name\": \"oversub_lru\""));
        assert!(j.contains("\"evictions\": 7"));
        assert!(j.contains("\"disk_spills\": 2"));
        assert!(j.contains("\"digest\": \"0x000000000000dead\""));
    }
}
