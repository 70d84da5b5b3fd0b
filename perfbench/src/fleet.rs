//! The saturated fleet: the whole seeded fleet submitted at once to
//! `Scheduler::run_fleet` on a 2-worker pool, repeated for the window.

use std::time::{Duration, Instant};

use smappic_core::Platform;
use smappic_service::{FleetResult, JobExit, JobReport, JobSpec, Scheduler, StepperSpec};
use smappic_sim::{Histogram, SimRng};

use crate::gen::{fleet_scheduler, fleet_specs, FLEET_JOBS, FLEET_REJECTIONS, FLEET_WORKERS};
use crate::layers::{self, Counters, EpochCall, Parked, ServiceCalls};
use crate::measure::{median, peak_rss_mb, percentile, tail_pct, timed, Tracer};
use crate::report::Outcome;

/// Fleets run at least this many times, however short the window.
const MIN_FLEETS: usize = 2;
/// Completed jobs rerun one at a time under `Scheduler::serial()` after
/// every fleet (`sim_mcps`, and the serial-rerun digest check), in
/// batches of [`SERIAL_BATCH`] timed separately.
const SERIAL_SAMPLE: usize = 96;
const SERIAL_BATCH: usize = 24;
/// Completed jobs rerun once on the per-cycle reference stepper.
const REFERENCE_SAMPLE: usize = 8;
/// Completed jobs the traced run replays through the service's calls.
const REPLAY_SAMPLE: usize = 64;
/// Replayed jobs the traced run also steps epoch by epoch.
const EPOCH_SAMPLE: usize = 16;

/// The fleet as the service receives it: the seeded specs rendered to
/// `smappic-jobspec v1` text and parsed back, plus the scheduler. Timed
/// once into `times`.
fn setup(seed: u64, times: &mut Vec<f64>) -> Result<(Vec<JobSpec>, Scheduler), String> {
    let ((generated, parsed, sched), secs) = timed(|| {
        let generated = fleet_specs(seed);
        let parsed: Result<Vec<JobSpec>, String> =
            generated.iter().map(|s| JobSpec::from_text(&s.to_text())).collect();
        (generated, parsed, Scheduler::new(fleet_scheduler()))
    });
    times.push(secs);
    let parsed = parsed.map_err(|e| format!("fleet spec text does not parse: {e}"))?;
    if parsed != generated {
        return Err("fleet spec text round trip changed a spec".into());
    }
    Ok((parsed, sched))
}

/// Checks one fleet's accounting and per-job outcomes; counts every
/// submitted job as an operation. `baseline` holds the first fleet's
/// digests, which every later fleet must reproduce job for job.
fn check_fleet(fleet: &FleetResult, baseline: Option<&[u64]>, out: &mut Outcome) {
    let m = &fleet.metrics;
    let rejected =
        (m.counter("sched.rejected.queue_full"), m.counter("sched.rejected.cycle_quota"));
    let completed = fleet.reports.iter().filter(|r| r.is_completed()).count();
    let refused = fleet.reports.iter().filter(|r| r.is_rejected()).count();
    if fleet.reports.len() != FLEET_JOBS || completed + refused != FLEET_JOBS {
        out.check(Err(format!(
            "fleet accounting: {} reports, {completed} completed + {refused} rejected != {FLEET_JOBS}",
            fleet.reports.len()
        )));
    }
    if rejected != FLEET_REJECTIONS {
        out.check(Err(format!(
            "fleet rejections {rejected:?} != {FLEET_REJECTIONS:?} (queue_full, cycle_quota)"
        )));
    }
    for r in &fleet.reports {
        let check = match &r.exit {
            JobExit::Panicked { message } => Err(format!("{}: panicked: {message}", r.name)),
            JobExit::Livelocked { stalled_since, .. } => {
                Err(format!("{}: livelocked since cycle {stalled_since}", r.name))
            }
            _ => match baseline {
                Some(b) if b[r.job] != r.digest => Err(format!(
                    "{}: digest {:#x} != first fleet's {:#x}",
                    r.name, r.digest, b[r.job]
                )),
                _ => Ok(()),
            },
        };
        out.check(check);
    }
}

/// `k` completed reports, drawn by a seeded shuffle.
fn sample(reports: &[JobReport], k: usize, seed: u64) -> Vec<&JobReport> {
    let mut done: Vec<&JobReport> = reports.iter().filter(|r| r.is_completed()).collect();
    SimRng::new(seed).shuffle(&mut done);
    done.truncate(k);
    done
}

/// Reruns `sample` one job at a time under `Scheduler::serial()` with
/// `stepper`; each rerun is an operation whose digest must match the
/// pool's. Returns the simulated Mcycles per wall second of the rerun.
fn rerun(specs: &[JobSpec], sample: &[&JobReport], stepper: StepperSpec, out: &mut Outcome) -> f64 {
    let rerun_specs: Vec<JobSpec> =
        sample.iter().map(|r| JobSpec { stepper, ..specs[r.job].clone() }).collect();
    let (reports, wall) = timed(|| Scheduler::serial().run(&rerun_specs));
    let mut cycles = 0u64;
    for (pooled, again) in sample.iter().zip(&reports) {
        cycles += again.cycles;
        out.check(if again.is_completed() && again.digest == pooled.digest {
            Ok(())
        } else {
            Err(format!(
                "{}: {stepper:?} rerun {:?} digest {:#x} != pool's {:#x}",
                pooled.name, again.exit, again.digest, pooled.digest
            ))
        });
    }
    cycles as f64 / wall / 1e6
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let (mut jph, mut pool_mcps, mut serial_mcps, mut walls_ms) = (vec![], vec![], vec![], vec![]);
    let (mut preemptions, mut fleet_walls, mut tails_ms) = (vec![], vec![], vec![]);
    let mut baseline: Option<Vec<u64>> = None;
    let mut serial_sample: Vec<JobReport> = Vec::new();
    let mut rss_mb = None;
    let mut simulated = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) || jph.len() < MIN_FLEETS {
        let (specs, sched) = match setup(seed, &mut setup_s) {
            Ok(built) => built,
            Err(e) => {
                out.check(Err(e));
                break;
            }
        };
        let (fleet, wall) = timed(|| sched.run_fleet(&specs));
        check_fleet(&fleet, baseline.as_deref(), &mut out);
        let done: Vec<&JobReport> = fleet.reports.iter().filter(|r| r.is_completed()).collect();
        let cycles: u64 = done.iter().map(|r| r.cycles).sum();
        simulated += cycles;
        jph.push(done.len() as f64 / wall * 3600.0);
        pool_mcps.push(cycles as f64 / wall / 1e6);
        let fleet_ms: Vec<f64> = done.iter().map(|r| r.wall_secs * 1e3).collect();
        tails_ms.push(percentile(&fleet_ms, tail_pct(fleet_ms.len(), 98.0)));
        walls_ms.extend(fleet_ms);
        preemptions.push(fleet.metrics.counter("sched.preemptions"));
        fleet_walls.push(wall);
        if baseline.is_none() {
            // One fleet's footprint; later fleets in this process only add
            // allocator retention from the ones before.
            rss_mb = peak_rss_mb();
            baseline = Some(fleet.reports.iter().map(|r| r.digest).collect());
            let oracle = sample(&fleet.reports, REFERENCE_SAMPLE, seed ^ 0x0AC1E);
            rerun(&specs, &oracle, StepperSpec::Reference, &mut out);
            serial_sample =
                sample(&fleet.reports, SERIAL_SAMPLE, seed ^ 0x9A7).into_iter().cloned().collect();
        }
        // Set-ups between the batches too: one sample per point, so the
        // median mixes whichever host CPU each point ran on.
        let refs: Vec<&JobReport> = serial_sample.iter().collect();
        for batch in refs.chunks(SERIAL_BATCH) {
            serial_mcps.push(rerun(&specs, batch, StepperSpec::Serial, &mut out));
            if let Err(e) = setup(seed, &mut setup_s) {
                out.check(Err(e));
            }
        }
        simulated += refs.iter().map(|r| r.cycles).sum::<u64>();
    }
    let n = walls_ms.len();
    let p98 = tail_pct(n / jph.len().max(1), 98.0);
    out.set("sim_mcps", median(&serial_mcps));
    out.set("sim_mcps_parallel", median(&pool_mcps));
    out.set("jobs_per_hour", median(&jph));
    out.set("job_wall_p50_ms", percentile(&walls_ms, 50.0));
    // Median over fleets of each fleet's own p98, like the platform
    // workloads' median over trials.
    out.set("job_wall_p98_ms", median(&tails_ms));
    out.set("setup_s", median(&setup_s));
    if let Some(mb) = rss_mb {
        out.set("peak_rss_mb", mb);
    }
    out.note("fleets", jph.len());
    out.note("fleet_jobs", FLEET_JOBS);
    out.note("fleet_workers", FLEET_WORKERS);
    out.note("rejected_queue_full", FLEET_REJECTIONS.0);
    out.note("rejected_cycle_quota", FLEET_REJECTIONS.1);
    out.note("fleet_wall_s", format!("{fleet_walls:?}"));
    out.note("preemptions", format!("{preemptions:?}"));
    out.note("job_wall_samples", n);
    out.note("job_wall_tail_pct", p98);
    out.note("serial_sample_jobs", serial_sample.len());
    out.note("reference_sample_jobs", REFERENCE_SAMPLE);
    out.note("setups", setup_s.len());
    out.note("simulated_cycles", simulated);
    out
}

/// Replays one completed job through the calls the scheduler makes for
/// it, parking and resuming at every quantum boundary as a preempted job
/// would; checks the replay reproduces the pool's digest and cycles.
fn replay(
    tr: &mut Tracer,
    req: u32,
    spec: &JobSpec,
    report: &JobReport,
    calls: &mut ServiceCalls,
) -> Result<(), String> {
    let root = tr.begin("service.job", req, 0);
    let text = spec.to_text();
    let id = tr.begin("service.parse", req, root);
    let parsed = JobSpec::from_text(&text);
    calls.parse.push(tr.end(id));
    let parsed = parsed.map_err(|e| format!("{}: spec text does not parse: {e}", spec.name))?;
    if parsed != *spec {
        return Err(format!("{}: spec text round trip changed the spec", spec.name));
    }
    let build = || parsed.build();
    let id = tr.begin("service.build", req, root);
    let mut p = build();
    calls.build.push(tr.end(id));
    layers::watchdog(tr, req, root, &p, calls);
    let grain = p.preemption_grain();
    let quantum = grain * fleet_scheduler().quantum.div_ceil(grain).max(1);
    let mut spent = 0u64;
    let mut prev: Option<Parked> = None;
    loop {
        let slice = quantum.min(parsed.budget - spent);
        let id = tr.begin("service.run_preemptible", req, root);
        let ran = p.run_preemptible(slice, false, |_, _| false);
        calls.run.push((tr.end(id), ran));
        spent += ran;
        if p.is_idle() || spent >= parsed.budget {
            break;
        }
        layers::watchdog(tr, req, root, &p, calls);
        let (twin, parked) =
            layers::park_and_resume(tr, req, root, prev.as_ref(), &p, &build, calls)?;
        p = twin;
        prev = Some(parked);
    }
    let digest = layers::digest(tr, req, root, &p, calls);
    tr.end(root);
    if digest != report.digest || spent != report.cycles {
        return Err(format!(
            "{}: replay digest {digest:#x} after {spent} cycles != pool's {:#x} after {}",
            spec.name, report.digest, report.cycles
        ));
    }
    Ok(())
}

/// One sampled job stepped five ways: wall seconds of the serial,
/// parallel and reference steppers untraced, and of the traced
/// epoch-granular serial and parallel loops, plus the platform the traced
/// serial loop finished.
struct EpochRun {
    serial_s: f64,
    parallel_s: f64,
    reference_s: f64,
    traced_serial_s: f64,
    traced_parallel_s: f64,
    platform: Platform,
}

/// Runs [`EpochRun`]'s five steppers on fresh builds of `spec`; each must
/// reproduce the pool's digest.
fn epoch_run(
    tr: &mut Tracer,
    req: u32,
    spec: &JobSpec,
    report: &JobReport,
    out: &mut Outcome,
) -> EpochRun {
    let cycles = report.cycles;
    let run = |f: &mut dyn FnMut(&mut Platform) -> f64, what: &str, out: &mut Outcome| {
        let mut p = spec.build();
        let secs = f(&mut p);
        out.check(layers::verify(&p, cycles, report.digest, &format!("{} {what}", spec.name)));
        (p, secs)
    };
    let (_, serial_s) = run(&mut |p| timed(|| p.run(cycles)).1, "serial", out);
    let (_, parallel_s) = run(&mut |p| timed(|| p.run_parallel(cycles)).1, "parallel", out);
    let (_, reference_s) = run(
        &mut |p| {
            p.set_fast_path(false);
            timed(|| p.run(cycles)).1
        },
        "reference",
        out,
    );
    let root = tr.begin("trial.serial", req, 0);
    let (platform, traced_serial_s) = run(
        &mut |p| layers::run_by_epochs(tr, req, root, p, cycles, EpochCall::Serial),
        "traced serial",
        out,
    );
    tr.end(root);
    let root = tr.begin("trial.parallel", req, 0);
    let (_, traced_parallel_s) = run(
        &mut |p| layers::run_by_epochs(tr, req, root, p, cycles, EpochCall::Parallel),
        "traced parallel",
        out,
    );
    tr.end(root);
    EpochRun { serial_s, parallel_s, reference_s, traced_serial_s, traced_parallel_s, platform }
}

/// The traced run: one fleet for the scheduler's own metrics, then a
/// seeded sample of its completed jobs replayed through the service's
/// calls and stepped epoch by epoch.
pub fn run_traced(seed: u64, seconds: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (specs, sched) = match setup(seed, &mut Vec::new()) {
        Ok(built) => built,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    let fleet = sched.run_fleet(&specs);
    check_fleet(&fleet, None, &mut out);
    let m = &fleet.metrics;
    out.set("sched.preemptions", m.counter("sched.preemptions") as f64);
    out.set("sched.dispatches", m.counter("sched.dispatches") as f64);
    out.set("sched.quanta", m.counter("sched.quanta") as f64);
    let (mut wait, mut run_us) = (Histogram::new(), Histogram::new());
    for (name, h) in m.histograms() {
        if name.starts_with("sched.tenant.") && name.ends_with(".wait_us") {
            wait.merge(h);
        } else if name.starts_with("sched.tenant.") && name.ends_with(".run_us") {
            run_us.merge(h);
        }
    }
    // Log2-bucket upper bounds: the resolution the scheduler records at.
    out.set("sched.wait_us_p50", wait.percentile(50.0) as f64);
    out.set("sched.run_us_p50", run_us.percentile(50.0) as f64);

    let replayed = sample(&fleet.reports, REPLAY_SAMPLE, seed ^ 0x4E91A7);
    let phase = Duration::from_secs(seconds.div_ceil(3));
    let mut calls = ServiceCalls::default();
    let mut req = 0u32;
    let mut passes = 0u64;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < phase {
        for r in &replayed {
            req += 1;
            out.check(replay(tr, req, &specs[r.job], r, &mut calls));
        }
        passes += 1;
    }
    calls.record(&mut out);
    let (raw, stored) = fleet
        .reports
        .iter()
        .fold((0u64, 0u64), |(a, b), r| (a + r.park_raw_bytes, b + r.park_stored_bytes));
    out.set("service.park_ratio", if raw == 0 { 0.0 } else { stored as f64 / raw as f64 });

    let mut counters = Counters::default();
    let (mut serial_s, mut parallel_s, mut reference_s) = (0.0, 0.0, 0.0);
    let (mut traced_serial_s, mut traced_parallel_s) = (0.0, 0.0);
    let mut last = None;
    let mut epoch_passes = 0u64;
    let start = Instant::now();
    while epoch_passes == 0 || start.elapsed() < phase {
        for r in replayed.iter().take(EPOCH_SAMPLE) {
            req += 1;
            let e = epoch_run(tr, req, &specs[r.job], r, &mut out);
            serial_s += e.serial_s;
            parallel_s += e.parallel_s;
            reference_s += e.reference_s;
            traced_serial_s += e.traced_serial_s;
            traced_parallel_s += e.traced_parallel_s;
            if epoch_passes == 0 {
                counters.add(&Counters::at(&e.platform));
            }
            last = Some((e.platform, r));
        }
        epoch_passes += 1;
    }
    let cycles = counters.cycles() as f64 * epoch_passes as f64;
    let (s50, s99) = layers::epoch_percentiles(tr, EpochCall::Serial.span());
    let (p50, p99) = layers::epoch_percentiles(tr, EpochCall::Parallel.span());
    out.set("core.serial_epoch_us_p50", s50);
    out.set("core.serial_epoch_us_p99", s99);
    out.set("core.parallel_epoch_us_p50", p50);
    out.set("core.parallel_epoch_us_p99", p99);
    out.set("core.reference_mcps", cycles / reference_s / 1e6);
    out.set("core.fast_over_reference", reference_s / serial_s);
    out.set("trace.overhead_pct", 100.0 * (traced_serial_s - serial_s) / traced_serial_s);
    out.set(
        "trace.overhead_parallel_pct",
        100.0 * (traced_parallel_s - parallel_s) / traced_parallel_s,
    );
    counters.record(&mut out, serial_s / epoch_passes as f64);

    let (p, r) = last.expect("at least one job was stepped");
    out.set("core.stats_us", layers::stats_us(&p, 21));
    let spec = specs[r.job].clone();
    req += 1;
    let snap = layers::snapshot_layer(tr, req, &p, &|| spec.build(), &mut out);
    out.check(snap);
    match layers::functional_mips(seed) {
        Ok(mips) => out.set("isa.functional_mips", mips),
        Err(e) => out.check(Err(e)),
    }
    let fleet_cycles: u64 = fleet.reports.iter().map(|r| r.cycles).sum();
    let replay_cycles: u64 = replayed.iter().map(|r| r.cycles).sum();
    // Five stepper runs per epoch-sampled job per pass.
    let simulated = fleet_cycles + replay_cycles * passes + 5 * counters.cycles() * epoch_passes;
    out.note("simulated_cycles", simulated);
    out.note("replayed_jobs", replayed.len());
    out.note("replay_passes", passes);
    out.note("epoch_sample_jobs", EPOCH_SAMPLE.min(replayed.len()));
    out.note("epoch_passes", epoch_passes);
    out.note("fleet_preemptions", m.counter("sched.preemptions"));
    out.note("untraced_sim_mcps", cycles / serial_s / 1e6);
    out.note("traced_sim_mcps", cycles / traced_serial_s / 1e6);
    out.note("untraced_sim_mcps_parallel", cycles / parallel_s / 1e6);
    out.note("traced_sim_mcps_parallel", cycles / traced_parallel_s / 1e6);
    out
}
