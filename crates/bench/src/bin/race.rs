//! Race-detector overhead ablation: wall-clock ns/op for the fast-path
//! scalar loop, the slow-path store loop and the call/sync round trip with
//! [`gmac::GmacConfig::race_check`] off vs on.
//!
//! Virtual-time results are byte-identical between the two modes on
//! race-free runs (asserted across the workload suite by the `race_check`
//! row of the core crate's `toggles` test suite); this binary measures and
//! records the host wall-clock difference, seeding the repository's
//! performance trajectory in `results/BENCH_race.json`.
//!
//! Usage: `race [--quick]`

use gmac_bench::race::{run_all, to_json, Scale};
use gmac_bench::TextTable;
use std::io::Write as _;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    println!(
        "race-detector overhead ablation ({} scale): wall-clock ns/op\n",
        if quick { "quick" } else { "full" },
    );

    // Warm-up run (allocator, mappings, code paths) outside the numbers.
    run_all(Scale::quick());
    let results = run_all(scale);

    let mut table = TextTable::new(["scenario", "ops", "race off", "race on", "overhead"]);
    for r in &results {
        table.row([
            r.name.to_string(),
            r.off.ops.to_string(),
            format!("{:.1} ns/op", r.off.ns_per_op()),
            format!("{:.1} ns/op", r.on.ns_per_op()),
            gmac_bench::fmt_ratio(r.overhead()),
        ]);
    }
    gmac_bench::emit("race", &table.render());

    let json = to_json(if quick { "quick" } else { "full" }, &results);
    if std::fs::create_dir_all("results").is_ok() {
        if let Ok(mut f) = std::fs::File::create("results/BENCH_race.json") {
            let _ = f.write_all(json.as_bytes());
            println!("wrote results/BENCH_race.json");
        }
    }
}
