//! Round driver shared by the workloads: set-up timing, the closed op loop,
//! per-round statistics and the run-level guards.
//!
//! One invocation = one workload = `rounds` rounds. A round builds a fresh
//! platform + runtime (timed as set-up, warm-up ops included) and then runs
//! whole ops back to back for `round_s` seconds. Every wall-clock metric is
//! computed per round and the run reports the median of the round values, so
//! a contention burst shorter than two rounds cannot move a run.

use crate::sys;
use crate::trace::Tracer;
use gmac::GmacConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer values of one traced round, keyed by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// CPU placement: the whole process runs on the highest allowed CPU.
///
/// The main thread is pinned before anything is spawned, so the runtime's
/// DMA and service threads inherit the one-CPU mask. Letting them float was
/// measured and rejected: on this 2-vCPU VM `fault_storm` runs 31 ms/op with
/// its DMA worker on the generator's CPU and 113 ms/op with it on the other
/// (every wake-up and every `mprotect` shoot-down becomes a cross-CPU
/// interrupt, which a VM turns into exits), and where the scheduler puts the
/// worker varies from round to round. One CPU also matches the 1-core
/// numbers in ROADMAP's perf trajectory, and keeps the other CPU free for
/// whatever else the host runs. The price: wall-clock gains from real
/// parallelism are not observable here (the ROADMAP already records them as
/// unmeasured); `cpu_ms_per_op` still shows work moved between threads.
#[derive(Debug, Clone)]
pub struct Pin {
    allowed: Vec<usize>,
}

impl Pin {
    /// Reads the allowed CPUs and pins the calling thread to the highest.
    /// Call once, first thing in `main`.
    pub fn apply() -> Self {
        let allowed = sys::allowed_cpus();
        if let Some(&cpu) = allowed.last() {
            sys::pin_current_thread(cpu);
        }
        Pin { allowed }
    }

    /// CPUs the process was allowed before pinning.
    pub fn allowed(&self) -> &[usize] {
        &self.allowed
    }

    pub fn cpu(&self) -> Option<usize> {
        self.allowed.last().copied()
    }
}

/// Bytes each runtime shard reserves for softmmu's mmap backing: one 1 GiB
/// chunk, the smallest softmmu hands out and enough for every workload (each
/// simulated device window is exactly one chunk).
///
/// The default is 64 GiB, which softmmu sets as a memfd's length with
/// `ftruncate`; a host that caps file sizes (`RLIMIT_FSIZE`) answers that
/// with `SIGXFSZ`, and the driver's first run died of it (exit 153). The
/// reservation is address space only (`PROT_NONE`, `MAP_NORESERVE`, sparse
/// file), so its size changes no measured cost; below a 1 GiB limit the
/// backing falls back and the run's guard refuses it.
pub const MMAP_RESERVE: u64 = 1 << 30;

/// The configuration every workload and probe starts from:
/// `GmacConfig::default()` with the host reservation cut to [`MMAP_RESERVE`].
pub fn gmac_config() -> GmacConfig {
    GmacConfig::default().mmap_reserve(MMAP_RESERVE)
}

/// What one op reports back to the loop.
#[derive(Debug, Clone, Copy)]
pub struct OpOut {
    /// Work units completed (the workload's stated unit).
    pub work: f64,
    /// hetsim virtual time the op consumed.
    pub sim_ns: u64,
    /// False when a call returned `Err` or a check failed.
    pub ok: bool,
}

/// A workload driven one whole op at a time by a single generator thread.
pub trait OpWorkload {
    /// Runs and verifies one op.
    fn op(&mut self, tr: &mut Tracer) -> OpOut;

    /// Ops to run during set-up so caches, lazy state and the first-touch
    /// faults are out of the measured window.
    fn warmup_ops(&self) -> usize;

    /// True when the loop may stop after the op just finished (workloads
    /// whose ops cycle through variants stop only on a cycle boundary, so
    /// every round averages whole cycles).
    fn at_boundary(&self) -> bool {
        true
    }

    /// Whether any runtime built so far fell back from the mmap backing.
    fn backing_downgraded(&self) -> bool;

    /// Per-layer values for a traced round: counts as per-op deltas over the
    /// `ops` measured ops, which took `busy_ns` of host time together.
    /// Called once, after the measured window.
    fn layer(&mut self, ops: u64, busy_ns: u64) -> Layer;

    /// Marks the start of the measured window (counter baselines).
    fn mark(&mut self);
}

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    pub window_s: f64,
    pub cpu_s: f64,
    pub sim_ns: u64,
    pub ops: u64,
    pub failed: u64,
    pub work: f64,
    pub lat_ns: Vec<u64>,
    pub calibration_ns: f64,
    pub backing_downgraded: bool,
    pub layer: Layer,
}

impl Round {
    pub fn work_per_s(&self) -> f64 {
        self.work / self.window_s
    }
    pub fn p50_ms(&self) -> f64 {
        quantile(&self.lat_ns, 0.50) / 1e6
    }
    pub fn p95_ms(&self) -> f64 {
        quantile(&self.lat_ns, 0.95) / 1e6
    }
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.ops.max(1) as f64
    }
    /// Divides ns by ops first: both are exact in an f64 and IEEE division
    /// rounds the true quotient, so rounds (and runs) that completed
    /// different numbers of identical ops print the very same digits.
    pub fn sim_ms_per_op(&self) -> f64 {
        self.sim_ns as f64 / self.ops.max(1) as f64 / 1e6
    }
}

/// Runs one round of an [`OpWorkload`]: `build` is the timed set-up.
pub fn run_round<W: OpWorkload>(
    build: impl FnOnce(&mut Tracer) -> Result<W, String>,
    round_s: f64,
    traced: bool,
) -> Result<(Round, Tracer), String> {
    let mut tr = Tracer::new(traced);
    // Before any runtime thread exists, so nothing competes with it.
    let calibration_ns = calibration_ns();
    let t0 = Instant::now();
    let mut w = build(&mut tr)?;
    let mut note = None;
    for i in 0..w.warmup_ops() {
        if !w.op(&mut tr).ok {
            note.get_or_insert(format!("warm-up op {i} failed"));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(n) = note {
        return Err(n);
    }
    tr.clear();

    let window = Duration::from_secs_f64(round_s);
    let mut lat_ns = Vec::with_capacity(4096);
    let (mut ops, mut failed, mut work, mut sim_ns) = (0u64, 0u64, 0.0f64, 0u64);
    w.mark();
    let cpu0 = sys::process_cpu_ns();
    let start = Instant::now();
    loop {
        tr.set_op(ops);
        let t = Instant::now();
        let open = tr.begin("op");
        let out = w.op(&mut tr);
        tr.end(open, 1);
        lat_ns.push(t.elapsed().as_nanos() as u64);
        ops += 1;
        work += out.work;
        sim_ns += out.sim_ns;
        if !out.ok {
            failed += 1;
        }
        if start.elapsed() >= window && w.at_boundary() {
            break;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    let layer = if traced {
        w.layer(ops, lat_ns.iter().sum())
    } else {
        Layer::new()
    };
    let round = Round {
        traced,
        setup_s,
        window_s,
        cpu_s,
        sim_ns,
        ops,
        failed,
        work,
        lat_ns,
        calibration_ns,
        backing_downgraded: w.backing_downgraded(),
        layer,
    };
    Ok((round, tr))
}

/// Linear-interpolated quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac
}

/// Median of a small set of floats (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fixed memcpy + ALU loop that touches no repo code. Run once per round,
/// it lets a reader tell machine drift from a code change: when this number
/// moved with `work_per_s`, the machine moved.
pub fn calibration_ns() -> f64 {
    const BYTES: usize = 2 << 20;
    let src = vec![0x5au8; BYTES];
    // Filled, not zeroed: a zeroed vector's pages are first touched (and
    // faulted in) by the timed copy.
    let mut dst = vec![1u8; BYTES];
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for round in 0..4u8 {
        dst.copy_from_slice(&src);
        dst[round as usize] = round;
        for _ in 0..250_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(&dst);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

/// Smallest observed gap between two `Instant::now()` calls.
pub fn timer_floor_ns() -> f64 {
    let mut best = u64::MAX;
    for _ in 0..2000 {
        let a = Instant::now();
        let b = Instant::now();
        best = best.min((b - a).as_nanos() as u64);
    }
    best as f64
}

/// splitmix64: the benchmark's only source of randomness, seeded by `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant at these n.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}
