//! Race-detector overhead bench: wall-clock ns/op for the access and
//! call/sync patterns with [`GmacConfig::race_check`] **off vs on**.
//!
//! Virtual-time results are byte-identical between the two modes on
//! race-free runs (asserted across the workload suite by the `race_check`
//! row of the core crate's `toggles` test suite); this harness measures
//! and records the **host** wall-clock cost of the detector's hooks:
//!
//! * `scalar_loop` — element-wise fast-path accesses. The detector's
//!   write hook only fires on the slow path, so the hit path must stay a
//!   raw host access; any overhead here is fast-path regression.
//! * `store_loop` — slow-path scalar stores (`Session::store`), the
//!   choke point where every program write is stamped and checked.
//! * `launch_sync` — a call/sync round trip per op: launch check, epoch
//!   advance and block downgrades, the per-boundary cost.
//!
//! Used by the `race` binary (which writes `results/BENCH_race.json`).

use gmac::{Gmac, GmacConfig, Param, Protocol, Session};
use hetsim::{LaunchDims, Platform};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

fn session(race_check: bool) -> (Gmac, Session) {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(gmac::testutil::NopKernel));
    let gmac = Gmac::new(
        platform,
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(4096)
            .race_check(race_check),
    );
    let session = gmac.session();
    (gmac, session)
}

/// Problem sizes for one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Elements touched by the scalar and store loops (per pass).
    pub scalar_elems: usize,
    /// Scalar- and store-loop passes.
    pub scalar_passes: usize,
    /// Blocks of the object each call/sync round trip passes.
    pub storm_blocks: usize,
    /// Call/sync round trips (at least 8).
    pub storm_rounds: usize,
}

impl Scale {
    /// Full measurement scale.
    pub fn full() -> Self {
        Scale {
            scalar_elems: 64 * 1024,
            scalar_passes: 12,
            storm_blocks: 512,
            storm_rounds: 24,
        }
    }

    /// CI smoke scale (`--quick`).
    pub fn quick() -> Self {
        Scale {
            scalar_elems: 16 * 1024,
            scalar_passes: 3,
            storm_blocks: 128,
            storm_rounds: 4,
        }
    }
}

/// Wall-clock result of one scenario in one mode.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operations performed.
    pub ops: u64,
    /// Total wall-clock nanoseconds.
    pub wall_ns: u64,
}

impl Sample {
    /// Nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops.max(1) as f64
    }
}

/// Best-of-`rounds` measurement: returns the sample with the lowest
/// ns/op — the standard minimum-noise estimator for microbenchmarks (OS
/// scheduling and cache pollution only ever add time).
pub fn best_of(rounds: usize, mut f: impl FnMut() -> Sample) -> Sample {
    (0..rounds.max(1))
        .map(|_| f())
        .min_by(|a, b| a.ns_per_op().total_cmp(&b.ns_per_op()))
        .expect("at least one round")
}

/// Element-wise fast-path loop: the detector must not instrument the hit
/// path, so off/on should measure equal within noise.
pub fn scalar_loop(race_check: bool, scale: Scale) -> Sample {
    let (_g, s) = session(race_check);
    let v = s.alloc_typed::<u32>(scale.scalar_elems).expect("alloc");
    for i in 0..scale.scalar_elems {
        v.write(i, i as u32).expect("warm write");
    }
    let start = Instant::now();
    let mut acc = 0u32;
    for _ in 0..scale.scalar_passes {
        for i in 0..scale.scalar_elems {
            v.write(i, acc).expect("write");
            acc = acc.wrapping_add(v.read(i).expect("read"));
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(acc);
    Sample {
        ops: (scale.scalar_passes * scale.scalar_elems * 2) as u64,
        wall_ns,
    }
}

/// Slow-path scalar stores: every op runs the full shard write path, which
/// with the detector on includes one stamp-and-check per store. This is the
/// per-access overhead headline.
pub fn store_loop(race_check: bool, scale: Scale) -> Sample {
    let (_g, s) = session(race_check);
    let p = s.alloc(4 * scale.scalar_elems as u64).expect("alloc");
    s.store::<u32>(p, 0).expect("warm store");
    let start = Instant::now();
    for pass in 0..scale.scalar_passes {
        for i in 0..scale.scalar_elems {
            s.store::<u32>(p.byte_add(4 * i as u64), pass as u32)
                .expect("store");
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    Sample {
        ops: (scale.scalar_passes * scale.scalar_elems) as u64,
        wall_ns,
    }
}

/// Call/sync round trips over a multi-block object: each op pays the launch
/// check, the epoch advance and the per-block downgrade walk.
pub fn launch_sync(race_check: bool, scale: Scale) -> Sample {
    let (_g, s) = session(race_check);
    let p = s.alloc(scale.storm_blocks as u64 * 4096).expect("alloc");
    s.store::<u32>(p, 1).expect("warm store");
    let rounds = scale.storm_rounds.max(8);
    let start = Instant::now();
    for _ in 0..rounds {
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::Shared(p)])
            .expect("call");
        s.sync().expect("sync");
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    Sample {
        ops: rounds as u64,
        wall_ns,
    }
}

/// One scenario measured with the detector off and on.
#[derive(Debug, Clone, Copy)]
pub struct RaceResult {
    /// Scenario name (`scalar_loop`, `store_loop`, `launch_sync`).
    pub name: &'static str,
    /// `race_check(false)` — the production default.
    pub off: Sample,
    /// `race_check(true)`.
    pub on: Sample,
}

impl RaceResult {
    /// Wall-clock overhead factor of the detector (on / off; 1.0 = free).
    pub fn overhead(&self) -> f64 {
        self.on.ns_per_op() / self.off.ns_per_op().max(f64::MIN_POSITIVE)
    }
}

/// Runs all scenarios off and on (best of three rounds each).
pub fn run_all(scale: Scale) -> Vec<RaceResult> {
    let mut results = Vec::new();
    for (name, f) in [
        ("scalar_loop", scalar_loop as fn(bool, Scale) -> Sample),
        ("store_loop", store_loop as fn(bool, Scale) -> Sample),
        ("launch_sync", launch_sync as fn(bool, Scale) -> Sample),
    ] {
        let off = best_of(3, || f(false, scale));
        let on = best_of(3, || f(true, scale));
        results.push(RaceResult { name, off, on });
    }
    results
}

/// Renders the results as the `BENCH_race.json` document (hand-rolled: the
/// container has no serde). `scale` labels the measurement so a CI
/// `--quick` artifact is never mistaken for a full-scale trajectory point.
pub fn to_json(scale: &str, results: &[RaceResult]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"race\",\n  \"scale\": \"{scale}\",\n  \"unit\": \"ns/op\",\n  \
         \"scenarios\": [\n"
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"ops\": {}, \"off_ns_per_op\": {:.2}, \
             \"on_ns_per_op\": {:.2}, \"overhead\": {:.3}}}",
            r.name,
            r.off.ops,
            r.off.ns_per_op(),
            r.on.ns_per_op(),
            r.overhead(),
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
