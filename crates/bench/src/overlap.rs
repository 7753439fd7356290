//! Shared harness for the transfer-overlap ablation: the same streaming
//! scenarios timed in **wall-clock** nanoseconds with
//! [`GmacConfig::async_dma`] on (background per-device DMA workers land the
//! bytes) vs. off (inline execution on the issuing thread, under the shard
//! lock). Virtual-time results are byte-identical between modes — the
//! `async_dma` integration test enforces that across the workload suite —
//! so the only thing measured here is how much of the transfer cost the
//! engine hides behind CPU work.
//!
//! Eager evictions land on the writing thread whenever their device queue
//! is idle, so only release flushes reach the worker. Measured at full
//! scale on 2 vCPUs (unpinned, four runs each): with 64 KiB evictions
//! queued, `write_stream` took 172–204 ms on against 62–69 ms off; with
//! them landing inline it takes 31–43 ms on and 30–41 ms off, and
//! `stream_pipeline` 1.08–1.23 s on (1.59–1.86 s before).
//!
//! Used by the `overlap` binary (which writes `results/BENCH_overlap.json`).

use gmac::{Gmac, GmacConfig, Protocol};
use hetsim::{DeviceId, Platform};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::stream::StreamPipeline;
use workloads::{run_variant_with, Variant};

/// Problem sizes for one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bytes written (and flushed) per write-stream pass.
    pub chunk_bytes: usize,
    /// Write-stream passes.
    pub passes: usize,
    /// Elements per streaming-pipeline chunk.
    pub pipe_chunk: usize,
    /// Streaming-pipeline chunks.
    pub pipe_chunks: usize,
}

impl Scale {
    /// Full measurement scale.
    pub fn full() -> Self {
        Scale {
            chunk_bytes: 8 << 20,
            passes: 24,
            pipe_chunk: 2 * 1024 * 1024,
            pipe_chunks: 24,
        }
    }

    /// CI smoke scale (`--quick`).
    pub fn quick() -> Self {
        Scale {
            chunk_bytes: 2 << 20,
            passes: 6,
            pipe_chunk: 512 * 1024,
            pipe_chunks: 8,
        }
    }
}

/// Wall-clock result of one scenario in one mode.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Total wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Output digest (must match across modes).
    pub digest: u64,
    /// Jobs the engine retired between joins (0 in inline mode).
    pub jobs_overlapped: u64,
}

/// One scenario measured in both modes.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioResult {
    /// Scenario name (`write_stream`, `stream_pipeline`).
    pub name: &'static str,
    /// Background engine on.
    pub async_on: Sample,
    /// Inline ablation.
    pub async_off: Sample,
}

impl ScenarioResult {
    /// Wall-clock ratio on/off: < 1 means the engine hid transfer time.
    pub fn ratio(&self) -> f64 {
        self.async_on.wall_ns as f64 / (self.async_off.wall_ns as f64).max(f64::MIN_POSITIVE)
    }
}

/// Write-streaming: the CPU repeatedly rewrites a rolling-protocol object,
/// whose eager evictions flush blocks as the write sweeps forward, then
/// releases it. Evictions land on the writing thread from the host view;
/// the release queues its flush jobs for the worker. The final release +
/// join is inside the timed region — a real pipeline pays it too.
pub fn write_stream(async_dma: bool, scale: Scale) -> Sample {
    let g = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .block_size(64 * 1024)
            .async_dma(async_dma),
    );
    let s = g.session();
    let p = s.alloc(scale.chunk_bytes as u64).expect("alloc");
    let data = vec![0xA5u8; scale.chunk_bytes];
    // Warm pass: resolve first-touch faults outside the measurement.
    s.store_slice::<u8>(p, &data).expect("warm store");
    let start = Instant::now();
    for _ in 0..scale.passes {
        s.store_slice::<u8>(p, &data).expect("store");
        s.with_parts(|rt, mgr, proto| proto.release(rt, mgr, DeviceId(0), None))
            .expect("release");
    }
    s.with_parts(|rt, _, _| rt.join_dma(DeviceId(0)))
        .expect("join");
    let wall_ns = start.elapsed().as_nanos() as u64;
    // Digest the bytes that actually landed on the device.
    let back = s.load_slice::<u8>(p, scale.chunk_bytes).expect("read back");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for b in back {
        digest ^= b as u64;
        digest = digest.wrapping_mul(0x100_0000_01b3);
    }
    let jobs_overlapped = g.counters().jobs_overlapped;
    Sample {
        wall_ns,
        digest,
        jobs_overlapped,
    }
}

/// The end-to-end double-buffered streaming pipeline (the workload the
/// engine was built for), timed wall-clock through `run_variant_with`.
pub fn stream_pipeline(async_dma: bool, scale: Scale) -> Sample {
    let w = StreamPipeline {
        chunk: scale.pipe_chunk,
        chunks: scale.pipe_chunks,
    };
    let cfg = GmacConfig::default().async_dma(async_dma);
    let start = Instant::now();
    let r = run_variant_with(&w, Variant::Gmac(Protocol::Rolling), cfg).expect("pipeline run");
    let wall_ns = start.elapsed().as_nanos() as u64;
    Sample {
        wall_ns,
        digest: r.digest,
        jobs_overlapped: r.counters.map_or(0, |c| c.jobs_overlapped),
    }
}

/// Best-of-`rounds`: lowest wall time (minimum-noise estimator).
pub fn best_of(rounds: usize, mut f: impl FnMut() -> Sample) -> Sample {
    (0..rounds.max(1))
        .map(|_| f())
        .min_by_key(|s| s.wall_ns)
        .expect("at least one round")
}

/// Runs both scenarios in both modes (best of three rounds each) and
/// asserts the modes produced identical output bytes.
pub fn run_all(scale: Scale) -> Vec<ScenarioResult> {
    let mut results = Vec::new();
    for (name, f) in [
        ("write_stream", write_stream as fn(bool, Scale) -> Sample),
        (
            "stream_pipeline",
            stream_pipeline as fn(bool, Scale) -> Sample,
        ),
    ] {
        let async_on = best_of(3, || f(true, scale));
        let async_off = best_of(3, || f(false, scale));
        assert_eq!(
            async_on.digest, async_off.digest,
            "{name}: async ablation changed the output bytes"
        );
        results.push(ScenarioResult {
            name,
            async_on,
            async_off,
        });
    }
    results
}

/// Renders the results as the `BENCH_overlap.json` document (hand-rolled:
/// the container has no serde). `scale` labels the measurement and `cores`
/// records the parallelism the ratio was measured under — on a single core
/// no overlap is physically possible and the ratio hovers near 1.
pub fn to_json(scale: &str, cores: usize, results: &[ScenarioResult]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"overlap\",\n  \"scale\": \"{scale}\",\n  \"cores\": {cores},\n  \"unit\": \"wall_ns\",\n  \"scenarios\": [\n"
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"async_on_wall_ns\": {}, \"async_off_wall_ns\": {}, \"ratio\": {:.3}, \"jobs_overlapped\": {}}}",
            r.name,
            r.async_on.wall_ns,
            r.async_off.wall_ns,
            r.ratio(),
            r.async_on.jobs_overlapped,
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
