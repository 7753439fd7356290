//! The repo benchmark: `adsm-benchmark --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` beside this package.

mod counts;
mod harness;
mod kernels;
mod probes;
mod report;
mod sys;
mod trace;
mod workloads;

use harness::{median, Layer, Pin, Round};
use std::process::ExitCode;
use trace::Tracer;

/// Rounds of an untraced run; `--seconds` is split evenly over them.
const ROUNDS: usize = 5;
/// Traced rounds of a traced run (plus one untraced reference round).
const TRACED_ROUNDS: usize = 2;
/// Fewest latency samples a round may yield: p95 needs ten beyond it.
const MIN_SAMPLES: usize = 200;
const SPAN_FILE_CAP: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
    min_samples: usize,
}

fn usage() -> String {
    format!(
        "usage: adsm-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--rounds N] [--min-samples N]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: (ROUNDS * 4) as f64,
        trace: false,
        rounds: ROUNDS,
        min_samples: MIN_SAMPLES,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--rounds" => args.rounds = value.parse().map_err(|_| bad("a whole number"))?,
            "--min-samples" => {
                args.min_samples = value.parse().map_err(|_| bad("a whole number"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) || args.rounds == 0 {
        return Err("--seconds must be in (0, 600] and --rounds at least 1".into());
    }
    Ok(args)
}

/// Host facts every run records, as one JSON object.
fn host_json(pin: &Pin, args: &Args, round_s: f64, samples: &[usize]) -> String {
    // As they were before the pin narrowed them.
    let nproc = pin.allowed().len();
    let allowed = pin
        .allowed()
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let git_rev = std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let pinned = pin.cpu().map_or("null".to_string(), |c| c.to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"rounds\": {}, \"round_s\": {round_s}, \
         \"samples_per_round\": {samples:?}, \"nproc\": {nproc}, \"cpus_allowed_list\": {}, \
         \"pinned_cpu\": {pinned}, \"aslr_off\": {}, \"mmap_reserve\": {}, \"git_rev\": {}, \
         \"page_size\": {}}}",
        report::json_str(&args.workload),
        args.seed,
        args.trace,
        samples.len(),
        report::json_str(&allowed),
        sys::aslr_off(),
        harness::MMAP_RESERVE,
        report::json_str(&git_rev),
        softmmu::PAGE_SIZE,
    )
}

fn run(args: &Args, fsize_limit: u64) -> Result<ExitCode, String> {
    let pin = Pin::apply();
    let round_s = args.seconds / ROUNDS as f64;
    // A traced run: traced, untraced reference, traced. The reference round
    // runs the same code with spans off, for `bench.trace_overhead`.
    let plan: Vec<bool> = if args.trace {
        let traced = TRACED_ROUNDS.min(args.rounds);
        let mut plan = vec![true; traced];
        plan.insert(1.min(traced), false);
        plan
    } else {
        vec![false; args.rounds]
    };

    let mut rounds: Vec<Round> = Vec::new();
    let mut spans: Option<Tracer> = None;
    for &traced in &plan {
        let (round, tr) = workloads::run_round(&args.workload, args.seed, round_s, traced)?;
        eprintln!(
            "round {}: traced={} setup {:.3} s, {} ops in {:.3} s, {} failed, {} samples, \
             p50 {:.3} ms, p95 {:.3} ms, calibration {:.3} ms",
            rounds.len(),
            traced,
            round.setup_s,
            round.ops,
            round.window_s,
            round.failed,
            round.lat_ns.len(),
            round.p50_ms(),
            round.p95_ms(),
            round.calibration_ns / 1e6,
        );
        if traced {
            spans = Some(tr);
        }
        rounds.push(round);
    }

    // Guards: a run that fails one of these measured something else than it
    // claims, so it prints no result.
    if rounds.iter().any(|r| r.backing_downgraded) {
        return Err(format!(
            "Report::backing_downgraded is set: the mmap backing fell back (it needs a {} byte \
             memfd; this host's file-size limit is {fsize_limit} bytes)",
            harness::MMAP_RESERVE
        ));
    }
    let samples: Vec<usize> = rounds.iter().map(|r| r.lat_ns.len()).collect();
    if let Some(n) = samples.iter().find(|&&n| n < args.min_samples) {
        return Err(format!(
            "a round yielded {n} latency samples, fewer than {}",
            args.min_samples
        ));
    }
    // Exact comparison of sim_ns/ops as fractions: rounds complete different
    // numbers of ops, and a float quotient would differ in its last digit.
    let per_op_differs = |r: &Round| {
        r.sim_ns as u128 * rounds[0].ops as u128 != rounds[0].sim_ns as u128 * r.ops as u128
    };
    if workloads::single_generator(&args.workload) && rounds.iter().any(per_op_differs) {
        let sims: Vec<f64> = rounds.iter().map(Round::sim_ms_per_op).collect();
        return Err(format!(
            "virtual time per op differs between rounds: {sims:?}"
        ));
    }

    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let correct = failed == 0;
    println!("{}", host_json(&pin, args, round_s, &samples));

    let measured: Vec<&Round> = rounds.iter().filter(|r| r.traced == args.trace).collect();
    let med = |f: fn(&Round) -> f64| median(&measured.iter().map(|r| f(r)).collect::<Vec<_>>());
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let mut e2e = Layer::new();
    e2e.insert("work_per_s", med(Round::work_per_s));
    e2e.insert("p50_ms", med(Round::p50_ms));
    e2e.insert("p95_ms", med(Round::p95_ms));
    e2e.insert("cpu_ms_per_op", med(Round::cpu_ms_per_op));
    e2e.insert("sim_ms_per_op", med(Round::sim_ms_per_op));
    e2e.insert("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0));
    e2e.insert("setup_s", median(&setups));
    if let Some((name, _)) = e2e.iter().find(|(_, v)| v.is_nan() || **v <= 0.0) {
        return Err(format!("end-to-end metric {name} is not positive"));
    }

    let metrics = if args.trace {
        let layer = per_layer(&args.workload, &rounds, spans.as_ref(), e2e["work_per_s"]);
        print_table(
            &report::END_TO_END,
            &e2e,
            "   (traced run: not for comparison)",
        );
        print_table(&report::PER_LAYER, &layer, "");
        report::metrics_json(&report::PER_LAYER, &layer)
    } else {
        print_table(&report::END_TO_END, &e2e, "");
        report::metrics_json(&report::END_TO_END, &e2e)
    };
    eprintln!("attempted {attempted}, failed {failed}");
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The readable metric table on standard error.
fn print_table(table: &[(&str, &str)], values: &Layer, note: &str) {
    for (name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:<44} {value:>18.6} {unit}{note}");
    }
}

/// Per-layer values of a traced run: the median over the traced rounds of
/// what each round counted, the spans of the last traced round, the probes.
fn per_layer(workload: &str, rounds: &[Round], spans: Option<&Tracer>, work_per_s: f64) -> Layer {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let mut layer = Layer::new();
    for name in traced.iter().flat_map(|r| r.layer.keys()) {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layer.get(name).copied())
            .collect();
        layer.insert(name, median(&values));
    }
    if let Some(tr) = spans {
        let agg = tr.aggregate();
        report::spans_into_layer(&agg, &mut layer);
        if let Some(op) = agg.get("op") {
            layer.insert(
                "bench.op_self_share",
                op.self_ns as f64 / op.total_ns.max(1) as f64,
            );
        }
        // `run.sh` points this inside the package; spans are dropped, not
        // scattered, when the binary is run from somewhere else.
        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_default();
        let dir = std::path::Path::new(&dir);
        if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("trace-{workload}.json"));
            if let Err(e) = tr.write_chrome(&path, SPAN_FILE_CAP) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
    }
    let reference: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(Round::work_per_s)
        .collect();
    layer.insert(
        "bench.trace_overhead",
        work_per_s / median(&reference).max(f64::MIN_POSITIVE),
    );
    let window_ns: f64 = traced.iter().map(|r| r.window_s * 1e9).sum();
    let sim_us: f64 = traced.iter().map(|r| r.sim_ns as f64 / 1e3).sum();
    layer.insert("hetsim.host_ns_per_sim_us", window_ns / sim_us.max(1.0));
    layer.extend(probes::run_all());
    let calibrations: Vec<f64> = rounds.iter().map(|r| r.calibration_ns).collect();
    layer.insert("bench.calibration_ns", median(&calibrations));
    layer
}

fn main() -> ExitCode {
    // Address-space randomization puts `access_mix` into a ~10 % slower mode
    // on roughly one run in ten (40 runs each way: 3 slow with it, none
    // without), so the benchmark runs with it off.
    sys::rerun_without_aslr();
    let fsize_limit = sys::file_size_limit();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args, fsize_limit) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("adsm-benchmark: {}: {e}", args.workload);
            ExitCode::from(3)
        }
    }
}
