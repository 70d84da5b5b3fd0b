//! The three platform workloads: fresh trials of a fixed simulated length
//! under the fast-serial (`Platform::run`) and parallel
//! (`Platform::run_parallel`) steppers, each checked against the
//! per-cycle reference stepper.

use std::time::{Duration, Instant};

use smappic_core::Platform;
use smappic_service::digest_platform;

use crate::gen::PlatformWorkload;
use crate::layers::{self, Counters, EpochCall, ServiceCalls};
use crate::measure::{median, peak_rss_mb, percentile, timed, Tracer};
use crate::report::Outcome;

/// Simulated cycles in one job-sized slice before rounding up to the
/// preemption grain: four of the fleet's ~8.1k-cycle jobs. Shorter
/// slices (2-4 ms) let millisecond host interruptions set the p98.
const JOB_CYCLES: u64 = 32_768;

/// Timed slices per trial.
const SLICES: u64 = 16;

/// Untimed slices at the start of every trial: the rack takes about 50k
/// cycles to fill its caches and sparse DRAM pages, and those slow slices
/// would otherwise sit right at the p98 of the job walls.
const WARMUP_SLICES: u64 = 2;

/// Each stepper runs at least this many trials, however short the window.
const MIN_TRIALS: usize = 3;

/// Stated input size of a platform workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Cycles per slice: the smallest preemption-grain multiple of at
    /// least [`JOB_CYCLES`], so slicing keeps the epoch schedule intact.
    pub slice: u64,
    /// Untimed warm-up cycles at the start of a trial.
    pub warmup: u64,
    /// Timed cycles per trial: [`SLICES`] slices.
    pub timed: u64,
    /// Cycles per trial: warm-up plus timed.
    pub trial: u64,
}

impl Plan {
    /// The plan for `w`, from its configuration's preemption grain.
    pub fn new(w: &PlatformWorkload) -> Self {
        let grain = Platform::new(w.config()).preemption_grain();
        let slice = grain * JOB_CYCLES.div_ceil(grain);
        let (warmup, timed) = (slice * WARMUP_SLICES, slice * SLICES);
        Self { slice, warmup, timed, trial: warmup + timed }
    }
}

/// Which stepper a trial drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stepper {
    Serial,
    Parallel,
}

/// One trial: build + install (timed as set-up), the untimed warm-up,
/// then the timed slices.
struct Trial {
    setup_s: f64,
    run_s: f64,
    slices_s: Vec<f64>,
    check: Result<(), String>,
}

fn trial(w: &PlatformWorkload, plan: Plan, stepper: Stepper, oracle: u64) -> Trial {
    let (mut p, setup_s) = timed(|| w.build(plan.trial));
    let advance = |p: &mut Platform, cycles| match stepper {
        Stepper::Serial => p.run(cycles),
        Stepper::Parallel => p.run_parallel(cycles),
    };
    advance(&mut p, plan.warmup);
    let mut slices_s = Vec::with_capacity(SLICES as usize);
    for _ in 0..SLICES {
        let ((), s) = timed(|| advance(&mut p, plan.slice));
        slices_s.push(s);
    }
    let what = format!("{stepper:?} trial");
    let check = layers::load_guard(&p).and_then(|()| layers::verify(&p, plan.trial, oracle, &what));
    Trial { setup_s, run_s: slices_s.iter().sum(), slices_s, check }
}

/// The reference run every trial is checked against: the per-cycle
/// stepper with the fast path off. Returns its digest and the wall
/// seconds of its timed window (the warm-up runs first, untimed).
fn reference(w: &PlatformWorkload, plan: Plan, out: &mut Outcome) -> (u64, f64) {
    let mut r = w.build(plan.trial);
    r.set_fast_path(false);
    r.run(plan.warmup);
    let ((), secs) = timed(|| r.run(plan.timed));
    let check = layers::load_guard(&r).and_then(|()| {
        if r.now() == plan.trial {
            Ok(())
        } else {
            Err(format!("reference stopped at cycle {}", r.now()))
        }
    });
    out.check(check);
    (digest_platform(&r), secs)
}

/// Serial and parallel trials, alternating, for `window`.
#[derive(Default)]
struct Trials {
    setup_s: Vec<f64>,
    serial_s: Vec<f64>,
    parallel_s: Vec<f64>,
    serial_slices_s: Vec<f64>,
    /// Each serial trial's p98 slice wall (nearest rank over its
    /// [`SLICES`] slices, so its slowest slice).
    serial_tail_s: Vec<f64>,
    /// `VmHWM` after the first serial and parallel trial.
    rss_mb: Option<f64>,
}

impl Trials {
    fn push(&mut self, stepper: Stepper, r: Trial, out: &mut Outcome) {
        self.setup_s.push(r.setup_s);
        match stepper {
            Stepper::Serial => {
                self.serial_s.push(r.run_s);
                self.serial_tail_s.push(percentile(&r.slices_s, 98.0));
                self.serial_slices_s.extend(&r.slices_s);
            }
            Stepper::Parallel => self.parallel_s.push(r.run_s),
        }
        out.check(r.check);
    }

    fn run(
        w: &PlatformWorkload,
        plan: Plan,
        oracle: u64,
        window: Duration,
        out: &mut Outcome,
    ) -> Self {
        let mut t = Self::default();
        let start = Instant::now();
        while start.elapsed() < window || t.serial_s.len() < MIN_TRIALS {
            for stepper in [Stepper::Serial, Stepper::Parallel] {
                t.push(stepper, trial(w, plan, stepper, oracle), out);
            }
            // One trial of each stepper's footprint. Later trials only add
            // allocator retention, which grows by chance: now and then a
            // parallel worker's malloc arena keeps another 4 MiB.
            if t.rss_mb.is_none() {
                t.rss_mb = peak_rss_mb();
            }
        }
        t
    }

    fn mcps(plan: Plan, secs: &[f64]) -> f64 {
        plan.timed as f64 / median(secs) / 1e6
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(w: PlatformWorkload, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::new(&w);
    let (oracle, _) = reference(&w, plan, &mut out);
    let t = Trials::run(&w, plan, oracle, Duration::from_secs(seconds), &mut out);
    out.set("sim_mcps", Trials::mcps(plan, &t.serial_s));
    out.set("sim_mcps_parallel", Trials::mcps(plan, &t.parallel_s));
    out.set("jobs_per_hour", 3600.0 * SLICES as f64 / median(&t.serial_s));
    out.set("job_wall_p50_ms", percentile(&t.serial_slices_s, 50.0) * 1e3);
    // Every slice does the same work, so a p98 pooled over the run is set
    // by how many of its slices a host neighbour happened to slow down.
    // The median over trials of each trial's own tail is not.
    out.set("job_wall_p98_ms", median(&t.serial_tail_s) * 1e3);
    out.set("setup_s", median(&t.setup_s));
    if let Some(mb) = t.rss_mb {
        out.set("peak_rss_mb", mb);
    }
    out.note("job_cycles", plan.slice);
    out.note("trial_cycles", plan.trial);
    out.note("warmup_cycles", plan.warmup);
    out.note("job_wall_samples", t.serial_slices_s.len());
    out.note("trials_serial", t.serial_s.len());
    out.note("trials_parallel", t.parallel_s.len());
    out.note("setups", t.setup_s.len());
    out.note("simulated_cycles", plan.trial * (t.serial_s.len() + t.parallel_s.len() + 1) as u64);
    out
}

/// The traced run: every per-layer metric, plus the tracing overhead
/// against an untraced phase of the same run.
pub fn run_traced(w: PlatformWorkload, seconds: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::new(&w);
    let build = || w.build(plan.trial);
    let (oracle, ref_s) = reference(&w, plan, &mut out);
    let ref_mcps = plan.timed as f64 / ref_s / 1e6;

    // Untraced and traced trials interleave, so host drift between them
    // cannot masquerade as tracing overhead. A traced trial records one
    // span per epoch-granular stepper call.
    let budget = Duration::from_secs(seconds) * 2 / 3;
    let mut untraced = Trials::default();
    let (mut traced_serial, mut traced_parallel) = (Vec::new(), Vec::new());
    let mut last_serial = None;
    let mut window = Counters::default();
    let start = Instant::now();
    let mut req = 0u32;
    while start.elapsed() < budget || traced_serial.len() < MIN_TRIALS {
        for (stepper, call) in
            [(Stepper::Serial, EpochCall::Serial), (Stepper::Parallel, EpochCall::Parallel)]
        {
            untraced.push(stepper, trial(&w, plan, stepper, oracle), &mut out);
            req += 1;
            let root = tr.begin(
                if call == EpochCall::Serial { "trial.serial" } else { "trial.parallel" },
                req,
                0,
            );
            let mut p = tr.span("setup", req, root, build);
            tr.span("warmup", req, root, || match call {
                EpochCall::Serial => p.run(plan.warmup),
                EpochCall::Parallel => p.run_parallel(plan.warmup),
            });
            let warm = Counters::at(&p);
            let secs = layers::run_by_epochs(tr, req, root, &mut p, plan.timed, call);
            tr.end(root);
            out.check(layers::load_guard(&p).and_then(|()| {
                layers::verify(&p, plan.trial, oracle, &format!("traced {call:?} trial"))
            }));
            match call {
                EpochCall::Serial => {
                    traced_serial.push(secs);
                    window = Counters::at(&p).since(&warm);
                    last_serial = Some(p);
                }
                EpochCall::Parallel => traced_parallel.push(secs),
            }
        }
    }
    let serial_mcps = Trials::mcps(plan, &untraced.serial_s);
    let parallel_mcps = Trials::mcps(plan, &untraced.parallel_s);
    let p = last_serial.expect("at least one traced serial trial ran");

    let (s50, s99) = layers::epoch_percentiles(tr, EpochCall::Serial.span());
    let (p50, p99) = layers::epoch_percentiles(tr, EpochCall::Parallel.span());
    out.set("core.serial_epoch_us_p50", s50);
    out.set("core.serial_epoch_us_p99", s99);
    out.set("core.parallel_epoch_us_p50", p50);
    out.set("core.parallel_epoch_us_p99", p99);
    out.set("core.reference_mcps", ref_mcps);
    out.set("core.fast_over_reference", serial_mcps / ref_mcps);
    out.set("core.stats_us", layers::stats_us(&p, 21));
    let traced_mcps = Trials::mcps(plan, &traced_serial);
    let traced_par_mcps = Trials::mcps(plan, &traced_parallel);
    out.set("trace.overhead_pct", 100.0 * (serial_mcps - traced_mcps) / serial_mcps);
    out.set(
        "trace.overhead_parallel_pct",
        100.0 * (parallel_mcps - traced_par_mcps) / parallel_mcps,
    );

    // Counts over the timed window only, after the warm-up.
    window.record(&mut out, median(&untraced.serial_s));
    match layers::functional_mips(w.seed) {
        Ok(mips) => out.set("isa.functional_mips", mips),
        Err(e) => out.check(Err(e)),
    }
    req += 1;
    let snap = layers::snapshot_layer(tr, req, &p, &build, &mut out);
    out.check(snap);
    let service = service_calls(tr, req + 1, &p, &build, plan, oracle, &mut out);
    out.check(service);
    // No scheduler runs on a platform workload.
    for k in [
        "sched.preemptions",
        "sched.dispatches",
        "sched.quanta",
        "sched.wait_us_p50",
        "sched.run_us_p50",
    ] {
        out.set(k, 0.0);
    }

    out.note("job_cycles", plan.slice);
    out.note("trial_cycles", plan.trial);
    out.note("warmup_cycles", plan.warmup);
    out.note("trials_untraced", untraced.serial_s.len() + untraced.parallel_s.len());
    out.note("trials_traced", traced_serial.len() + traced_parallel.len());
    // Reference, every trial, and the `run_preemptible` trial.
    let runs = 2
        + untraced.serial_s.len()
        + untraced.parallel_s.len()
        + traced_serial.len()
        + traced_parallel.len();
    out.note("simulated_cycles", plan.trial * runs as u64);
    out.note("untraced_sim_mcps", serial_mcps);
    out.note("traced_sim_mcps", traced_mcps);
    out.note("untraced_sim_mcps_parallel", parallel_mcps);
    out.note("traced_sim_mcps_parallel", traced_par_mcps);
    out
}

/// The service's fixed-cost calls on this workload's own platform: a
/// `run_preemptible` trial on a fresh build, then park, resume into a
/// twin, digest and watchdog signature on the finished platform, five
/// times each. No spec text exists here, so `service.parse_us` is 0.
fn service_calls(
    tr: &mut Tracer,
    req: u32,
    p: &Platform,
    build: &dyn Fn() -> Platform,
    plan: Plan,
    oracle: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut calls = ServiceCalls::default();
    let id = tr.begin("service.build", req, 0);
    let mut fresh = build();
    calls.build.push(tr.end(id));
    let id = tr.begin("service.run_preemptible", req, 0);
    let spent = fresh.run_preemptible(plan.trial, false, |_, _| false);
    calls.run.push((tr.end(id), spent));
    layers::verify(&fresh, plan.trial, oracle, "run_preemptible trial")?;
    for _ in 0..5 {
        layers::park_and_resume(tr, req, 0, None, p, build, &mut calls)?;
        layers::watchdog(tr, req, 0, p, &mut calls);
        layers::digest(tr, req, 0, p, &mut calls);
    }
    calls.record(out);
    Ok(())
}
