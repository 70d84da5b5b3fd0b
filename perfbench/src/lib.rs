//! The SMAPPIC benchmark: simulation rate per stepper on three platform
//! workloads, jobs/hour on a saturated fleet, and a per-layer split timed
//! from outside the program. See `README.md` for the metrics and why
//! each workload exists.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod gen;
pub mod layers;
pub mod measure;
pub mod platform;
pub mod report;

use gen::{PlatformWorkload, Workload};
use measure::Tracer;
use report::Outcome;

/// Runs `workload` for `seconds` of measurement: the end-to-end metrics
/// untraced, or the per-layer metrics with spans recorded into `tr`.
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool, tr: &mut Tracer) -> Outcome {
    measure::settle_allocator();
    match (workload, traced) {
        (Workload::FleetSaturated, false) => fleet::run(seed, seconds),
        (Workload::FleetSaturated, true) => fleet::run_traced(seed, seconds, tr),
        (w, false) => platform::run(PlatformWorkload::new(w, seed), seconds),
        (w, true) => platform::run_traced(PlatformWorkload::new(w, seed), seconds, tr),
    }
}
