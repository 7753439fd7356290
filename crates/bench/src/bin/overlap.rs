//! Transfer-overlap ablation: wall-clock time for the streaming scenarios
//! with the background DMA engine ([`gmac::GmacConfig::async_dma`]) on vs.
//! off.
//!
//! Virtual-time results are byte-identical between modes (asserted by the
//! `async_dma` integration test across the workload suite); this binary
//! measures the wall-clock overlap the engine buys and records it in
//! `results/BENCH_overlap.json` (with the core count). Eager evictions
//! land on the writing thread, so only release flushes can overlap; on
//! 2 vCPUs the on/off ratio measured 1.03–1.12 for `write_stream` and
//! 0.97–1.23 for `stream_pipeline` (see the library docs).
//!
//! Usage: `overlap [--quick]`

use gmac_bench::overlap::{run_all, to_json, Scale};
use gmac_bench::TextTable;
use std::io::Write as _;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "transfer-overlap ablation ({} scale, {cores} cores): wall-clock, async_dma on vs off\n",
        if quick { "quick" } else { "full" }
    );

    // Warm-up run (allocator, worker spawn, code paths) outside the numbers.
    run_all(Scale::quick());
    let results = run_all(scale);

    let mut table = TextTable::new(["scenario", "async on", "async off", "ratio", "overlapped"]);
    for r in &results {
        table.row([
            r.name.to_string(),
            gmac_bench::fmt_secs(r.async_on.wall_ns as f64 / 1e9),
            gmac_bench::fmt_secs(r.async_off.wall_ns as f64 / 1e9),
            gmac_bench::fmt_ratio(r.ratio()),
            r.async_on.jobs_overlapped.to_string(),
        ]);
    }
    gmac_bench::emit("overlap", &table.render());
    if cores < 2 {
        println!("note: single core — overlap cannot manifest in wall-clock time here");
    }

    let json = to_json(if quick { "quick" } else { "full" }, cores, &results);
    if std::fs::create_dir_all("results").is_ok() {
        if let Ok(mut f) = std::fs::File::create("results/BENCH_overlap.json") {
            let _ = f.write_all(json.as_bytes());
            println!("wrote results/BENCH_overlap.json");
        }
    }
}
