//! The five workloads. Four are driven one whole op at a time by the shared
//! loop in `harness`; `service_mix` keeps a window of jobs in flight and so
//! brings its own loop.

mod access_mix;
mod bulk_copy;
mod fault_storm;
mod paper_suite;
mod service_mix;

use crate::harness::{self, Round};
use crate::trace::Tracer;

pub const NAMES: [&str; 5] = [
    "paper_suite",
    "access_mix",
    "fault_storm",
    "bulk_copy",
    "service_mix",
];

/// Whether one thread issues every virtual-time charge in program order, so
/// virtual time per op must repeat exactly. `service_mix`'s two device
/// workers charge hetsim's atomic clock concurrently.
pub fn single_generator(workload: &str) -> bool {
    workload != "service_mix"
}

/// Runs one round of `workload`: timed set-up, then `round_s` seconds of ops.
pub fn run_round(
    workload: &str,
    seed: u64,
    round_s: f64,
    traced: bool,
) -> Result<(Round, Tracer), String> {
    match workload {
        "paper_suite" => harness::run_round(paper_suite::PaperSuite::build, round_s, traced),
        "access_mix" => {
            harness::run_round(|tr| access_mix::AccessMix::build(seed, tr), round_s, traced)
        }
        "fault_storm" => harness::run_round(
            |tr| fault_storm::FaultStorm::build(seed, tr),
            round_s,
            traced,
        ),
        "bulk_copy" => {
            harness::run_round(|tr| bulk_copy::BulkCopy::build(seed, tr), round_s, traced)
        }
        "service_mix" => service_mix::run_round(seed, round_s, traced),
        other => Err(format!("unknown workload {other}")),
    }
}
