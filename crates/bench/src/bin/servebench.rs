//! servebench — the multi-tenant service throughput bench and the
//! repo's one batch front end.
//!
//! The paper's pitch is prototyping as a cloud *service*, so the number
//! that matters at the service layer is jobs/hour across a worker pool,
//! not the latency of one platform. This bench builds a deterministic
//! fleet of prototyping jobs, runs it twice — serial job-at-a-time
//! (one worker, no preemption) and pooled (N workers, work stealing,
//! cooperative preemption) — cross-checks that both runs produce
//! identical per-job digests (scheduling must never leak into results),
//! and records jobs/hour + aggregate simulated cyc/s into
//! `BENCH_SIMPERF.json` under the `service` key (sibling sections are
//! preserved, same as `simperf --scale`).
//!
//! Honesty policy (matching simperf): the pool-beats-serial assertion is
//! made only when the host has at least 4 hardware threads; below that
//! the numbers are recorded and the claim explicitly refused.
//!
//! Modes:
//! - default: the fleet bench described above
//!   (`--jobs N --workers N --quantum C --report PATH`)
//! - `--sweep`: print the design-space sweep table (subsumes the old
//!   `sweep` bin, now retired)
//! - `--fleet-scale N`: the saturation bench — a 1000+-job (default
//!   1200) mixed-tenant fleet with priorities, quotas, deadlines, and a
//!   bounded pending queue, run through `run_fleet` with preemption and
//!   an elastic pool. Records queue metrics and per-tenant quota
//!   accounting into the `fleet` section of `BENCH_SIMPERF.json` and
//!   cross-checks a sample of completed jobs against serial reruns
//! - `--job-scale N`: multiply every job's workload size (the
//!   crash-recovery harness uses it to keep a killable run in flight)
//! - `--pool-only`: skip the serial baseline and the BENCH json merge —
//!   just run the pool and write reports (what the CI crash-recovery
//!   step kills and resumes)
//! - `--ckpt-dir PATH [--ckpt-every N]`: spill every job's state to
//!   per-job directories under PATH every N quanta (crash recovery)
//! - `--resume`: recover the fleet from `--ckpt-dir` instead of starting
//!   from scratch — terminal jobs return from their disk markers,
//!   mid-flight jobs restore their spilled images

use std::time::Instant;

use smappic_bench::{arg_usize, design_sweep, jobs_per_hour, write_sections};
use smappic_service::{
    CheckpointPolicy, ElasticPolicy, JobSpec, PreemptMode, Scheduler, SchedulerConfig, StepperSpec,
    TenantQuota, TopoSpec, WorkloadSpec,
};

fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// A deterministic mixed-tenant fleet: contention-heavy and bursty trace
/// jobs on star and Ethernet topologies plus bucket sorts — every spec a
/// pure function of its index, so two servebench runs build identical
/// fleets. `scale` multiplies the workload sizes (the crash-recovery
/// harness uses it to keep a killable run in flight for a few seconds).
fn fleet(jobs: usize, scale: usize) -> Vec<JobSpec> {
    let ops_scale = scale as u64;
    (0..jobs)
        .map(|i| {
            let mut spec = match i % 4 {
                0 => JobSpec {
                    fpgas: 2,
                    tiles: 2,
                    workload: WorkloadSpec::AmoHeavy {
                        ops: 700 * ops_scale,
                        seed: 0x5E_00 + i as u64,
                    },
                    ..JobSpec::small("fleet", WorkloadSpec::AmoHeavy { ops: 0, seed: 0 })
                },
                1 => JobSpec {
                    fpgas: 2,
                    nodes: 2,
                    tiles: 2,
                    workload: WorkloadSpec::Bursty {
                        ops: 350 * ops_scale,
                        seed: 0x5E_10 + i as u64,
                    },
                    ..JobSpec::small("fleet", WorkloadSpec::AmoHeavy { ops: 0, seed: 0 })
                },
                2 => JobSpec {
                    fpgas: 4,
                    tiles: 2,
                    topology: TopoSpec::Ethernet { group_size: 2 },
                    workload: WorkloadSpec::Bursty {
                        ops: 250 * ops_scale,
                        seed: 0x5E_20 + i as u64,
                    },
                    ..JobSpec::small("fleet", WorkloadSpec::AmoHeavy { ops: 0, seed: 0 })
                },
                _ => JobSpec {
                    fpgas: 2,
                    tiles: 4,
                    workload: WorkloadSpec::Sort { keys: 2_048 * scale, threads: 4 },
                    ..JobSpec::small("fleet", WorkloadSpec::AmoHeavy { ops: 0, seed: 0 })
                },
            };
            spec.name = format!("fleet-{i}");
            spec.stepper = StepperSpec::Serial;
            spec.budget = 20_000_000u64.saturating_mul(scale as u64);
            spec
        })
        .collect()
}

fn main() {
    if std::env::args().any(|a| a == "--sweep") {
        print!("{}", design_sweep());
        return;
    }
    if std::env::args().any(|a| a == "--fleet-scale") {
        saturation(arg_usize("--fleet-scale", 1_200));
        return;
    }

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = arg_usize("--jobs", 8);
    let workers = arg_usize("--workers", host_threads.min(jobs.max(1)));
    let quantum = arg_usize("--quantum", 200_000) as u64;
    let pool_only = std::env::args().any(|a| a == "--pool-only");
    let resume = std::env::args().any(|a| a == "--resume");
    let checkpoint = arg_str("--ckpt-dir").map(|dir| CheckpointPolicy {
        every_quanta: arg_usize("--ckpt-every", 1) as u64,
        dir: dir.into(),
    });
    assert!(checkpoint.is_some() || !resume, "--resume requires --ckpt-dir");
    let specs = fleet(jobs, arg_usize("--job-scale", 1));
    println!("servebench: {jobs} jobs, pool of {workers} workers, {host_threads} host threads");

    let pool = Scheduler::new(SchedulerConfig {
        workers,
        quantum,
        preempt: PreemptMode::WhenContended,
        checkpoint,
        ..SchedulerConfig::default()
    });

    if pool_only {
        // The crash-recovery harness runs this mode twice: once killed
        // mid-flight, once with --resume. No baseline, no BENCH merge —
        // the reports (and their digests) are the whole output.
        let t0 = Instant::now();
        let reports = if resume { pool.resume(&specs) } else { pool.run(&specs) };
        let wall = t0.elapsed().as_secs_f64();
        for r in &reports {
            assert!(r.is_completed(), "fleet job {} must complete: {:?}", r.name, r.exit);
        }
        println!("  pool-only: {} jobs reported in {wall:.2}s", reports.len());
        write_reports(&reports);
        return;
    }

    let t0 = Instant::now();
    let serial_reports = Scheduler::serial().run(&specs);
    let serial_wall = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let pool_reports = if resume { pool.resume(&specs) } else { pool.run(&specs) };
    let pool_wall = t1.elapsed().as_secs_f64();

    // Determinism cross-check: scheduling must never leak into results.
    let mut total_cycles = 0u64;
    let mut preemptions = 0u64;
    let mut migrations = 0u64;
    for (s, p) in serial_reports.iter().zip(&pool_reports) {
        assert!(
            s.is_completed() && p.is_completed(),
            "fleet jobs must complete: {} -> {:?} / {:?}",
            s.name,
            s.exit,
            p.exit
        );
        assert_eq!(
            s.digest, p.digest,
            "job {} digest differs between serial and pooled runs",
            s.name
        );
        assert_eq!(s.cycles, p.cycles, "job {} cycle count differs", s.name);
        total_cycles += p.cycles;
        preemptions += p.preemptions;
        migrations += p.migrations;
    }

    let serial_jph = jobs_per_hour(jobs, serial_wall);
    let pool_jph = jobs_per_hour(jobs, pool_wall);
    let agg_cps = if pool_wall > 0.0 { total_cycles as f64 / pool_wall } else { 0.0 };
    let speedup = if pool_wall > 0.0 { serial_wall / pool_wall } else { 0.0 };
    println!(
        "  serial: {serial_wall:>7.2}s  ({serial_jph:>8.0} jobs/hour)\n  \
         pool:   {pool_wall:>7.2}s  ({pool_jph:>8.0} jobs/hour, {agg_cps:>11.0} agg cyc/s, \
         {preemptions} preemptions, {migrations} migrations)\n  \
         pool speedup: {speedup:.2}x"
    );

    // Honesty policy: assert the pool win only when the host can
    // actually express it.
    let speedup_asserted = host_threads >= 4 && workers >= 2;
    if speedup_asserted {
        assert!(
            speedup > 1.0,
            "expected pool-of-{workers} throughput to beat serial job-at-a-time on \
             {host_threads} host threads, measured {speedup:.2}x"
        );
        println!("  pool throughput beats serial ({speedup:.2}x > 1.0x), asserted");
    } else {
        println!(
            "  host has {host_threads} thread(s) / pool has {workers} worker(s): \
             throughput recorded, win not asserted (needs host_threads >= 4)"
        );
    }

    let value = format!(
        concat!(
            "{{\n",
            "    \"host_threads\": {},\n",
            "    \"workers\": {},\n",
            "    \"jobs\": {},\n",
            "    \"serial_wall_secs\": {:.3},\n",
            "    \"pool_wall_secs\": {:.3},\n",
            "    \"serial_jobs_per_hour\": {:.1},\n",
            "    \"pool_jobs_per_hour\": {:.1},\n",
            "    \"agg_cyc_per_sec\": {:.0},\n",
            "    \"preemptions\": {},\n",
            "    \"migrations\": {},\n",
            "    \"pool_speedup\": {:.3},\n",
            "    \"speedup_asserted\": {}\n",
            "  }}"
        ),
        host_threads,
        workers,
        jobs,
        serial_wall,
        pool_wall,
        serial_jph,
        pool_jph,
        agg_cps,
        preemptions,
        migrations,
        speedup,
        speedup_asserted
    );
    write_sections("BENCH_SIMPERF.json", &[("service", &value)]);
    println!("merged service section into BENCH_SIMPERF.json");

    write_reports(&pool_reports);
}

/// The four tenants of the saturation fleet, in priority order:
/// interactive debug sessions outrank CI runs outrank batch sweeps
/// outrank best-effort scavengers.
const TENANTS: [(&str, u8); 4] = [("interactive", 6), ("ci", 4), ("batch", 2), ("best-effort", 0)];

/// A deterministic 1000+-job mixed-tenant fleet of *tiny* jobs: the
/// point is scheduler pressure (admission, quotas, aging, preemption),
/// not simulation depth, so every job is a short contention kernel.
/// Pure function of the index — two runs build identical fleets.
fn saturation_fleet(jobs: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| {
            let (tenant, priority) = TENANTS[i % TENANTS.len()];
            let mut spec = JobSpec::small(
                &format!("sat-{i}"),
                WorkloadSpec::AmoHeavy { ops: 15 + (i as u64 % 5) * 5, seed: 0xA7_00 + i as u64 },
            );
            spec.tenant = tenant.to_string();
            spec.priority = priority;
            spec.budget = 400_000;
            // Interactive jobs carry deadlines (they are latency-facing);
            // everyone else is throughput-facing.
            if tenant == "interactive" {
                spec.deadline_cycles = Some(spec.budget);
            }
            spec
        })
        .collect()
}

/// `--fleet-scale N`: drive an oversubscribed mixed-tenant fleet through
/// the full policy stack and record what the scheduler did about it.
fn saturation(jobs: usize) {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_workers = arg_usize("--workers", host_threads.clamp(2, 8));
    let max_pending = arg_usize("--max-pending", jobs * 3 / 4);
    let specs = saturation_fleet(jobs);
    // Quotas: the latency tenant is capped in flight (it outranks
    // everyone, so an uncapped burst would monopolize the pool); the
    // batch tenant gets a cycle budget sized to admit only part of its
    // share, so both rejection reasons are exercised.
    let batch_budget = (jobs as u64 / TENANTS.len() as u64 / 2) * 400_000;
    let cfg = SchedulerConfig {
        workers: max_workers,
        // Small quantum relative to job length: jobs span several slices,
        // so outranked preemption and the aging clock actually engage.
        quantum: 5_000,
        preempt: PreemptMode::WhenOutranked,
        max_pending,
        quotas: vec![
            TenantQuota::in_flight("interactive", max_workers.div_ceil(2)),
            TenantQuota {
                tenant: "batch".into(),
                max_in_flight: max_workers,
                cycle_budget: Some(batch_budget),
            },
        ],
        elastic: Some(ElasticPolicy::range(2.min(max_workers), max_workers)),
        ..SchedulerConfig::default()
    };
    println!(
        "servebench --fleet-scale: {jobs} jobs, 4 tenants, pool 2..={max_workers} (elastic), \
         pending queue capped at {max_pending}"
    );

    let t0 = Instant::now();
    let fleet = Scheduler::new(cfg).run_fleet(&specs);
    let wall = t0.elapsed().as_secs_f64();
    let m = &fleet.metrics;

    // Accounting must close: every submission reports exactly once, as
    // either a terminal run or a typed rejection, and the bounded queue
    // bound actually held.
    assert_eq!(fleet.reports.len(), jobs, "one report per submission");
    let completed = fleet.reports.iter().filter(|r| r.is_completed()).count();
    let rejected = fleet.reports.iter().filter(|r| r.is_rejected()).count();
    assert_eq!(completed + rejected, jobs, "every job is completed or rejected");
    assert_eq!(rejected as u64, m.counter("sched.rejected"), "metrics agree with reports");
    assert!(
        m.counter("sched.queue.peak_depth") <= max_pending as u64,
        "pending queue bound must hold"
    );
    let deadline_missed = fleet.reports.iter().filter(|r| r.deadline_missed).count();

    // Determinism spot-check: a sample of pooled results must match
    // isolated serial reruns of the same specs.
    let sample: Vec<JobSpec> = fleet
        .reports
        .iter()
        .filter(|r| r.is_completed())
        .step_by((completed / 6).max(1))
        .take(6)
        .map(|r| specs[r.job].clone())
        .collect();
    for (serial, pooled) in Scheduler::serial()
        .run(&sample)
        .iter()
        .zip(fleet.reports.iter().filter(|r| r.is_completed()).step_by((completed / 6).max(1)))
    {
        assert_eq!(
            serial.digest, pooled.digest,
            "job {}: saturation pool digest differs from a serial rerun",
            pooled.name
        );
    }

    let jph = jobs_per_hour(completed, wall);
    let depth = m.histogram("sched.queue.depth");
    let (depth_p50, depth_p99) = depth.map_or((0, 0), |h| (h.percentile(50.0), h.percentile(99.0)));
    println!(
        "  {completed} completed + {rejected} rejected ({} queue_full, {} cycle_quota) \
         in {wall:.2}s ({jph:.0} jobs/hour)\n  \
         queue depth peak {} (p50 {depth_p50}, p99 {depth_p99}), {} preemptions, \
         {} grow / {} shrink, {deadline_missed} deadlines missed",
        m.counter("sched.rejected.queue_full"),
        m.counter("sched.rejected.cycle_quota"),
        m.counter("sched.queue.peak_depth"),
        m.counter("sched.preemptions"),
        m.counter("sched.elastic.grow"),
        m.counter("sched.elastic.shrink"),
    );

    let mut tenants_json = String::from("{\n");
    for (i, (tenant, _)) in TENANTS.iter().enumerate() {
        let k = |s: &str| m.counter(&format!("sched.tenant.{tenant}.{s}"));
        let wait_p99 = m
            .histogram(&format!("sched.tenant.{tenant}.wait_us"))
            .map_or(0, |h| h.percentile(99.0));
        tenants_json.push_str(&format!(
            "      \"{tenant}\": {{\"admitted\": {}, \"rejected\": {}, \
             \"reserved_cycles\": {}, \"spent_cycles\": {}, \"peak_in_flight\": {}, \
             \"wait_us_p99\": {wait_p99}}}{}\n",
            k("admitted"),
            k("rejected"),
            k("reserved_cycles"),
            k("spent_cycles"),
            k("peak_in_flight"),
            if i + 1 < TENANTS.len() { "," } else { "" },
        ));
    }
    tenants_json.push_str("    }");
    let value = format!(
        concat!(
            "{{\n",
            "    \"jobs\": {},\n",
            "    \"completed\": {},\n",
            "    \"rejected\": {},\n",
            "    \"rejected_queue_full\": {},\n",
            "    \"rejected_cycle_quota\": {},\n",
            "    \"deadline_missed\": {},\n",
            "    \"max_pending\": {},\n",
            "    \"wall_secs\": {:.3},\n",
            "    \"jobs_per_hour\": {:.1},\n",
            "    \"queue_peak_depth\": {},\n",
            "    \"queue_depth_p50\": {},\n",
            "    \"queue_depth_p99\": {},\n",
            "    \"preemptions\": {},\n",
            "    \"migrations\": {},\n",
            "    \"elastic_grow\": {},\n",
            "    \"elastic_shrink\": {},\n",
            "    \"workers_max\": {},\n",
            "    \"tenants\": {}\n",
            "  }}"
        ),
        jobs,
        completed,
        rejected,
        m.counter("sched.rejected.queue_full"),
        m.counter("sched.rejected.cycle_quota"),
        deadline_missed,
        max_pending,
        wall,
        jph,
        m.counter("sched.queue.peak_depth"),
        depth_p50,
        depth_p99,
        m.counter("sched.preemptions"),
        m.counter("sched.migrations"),
        m.counter("sched.elastic.grow"),
        m.counter("sched.elastic.shrink"),
        max_workers,
        tenants_json,
    );
    write_sections("BENCH_SIMPERF.json", &[("fleet", &value)]);
    println!("merged fleet section into BENCH_SIMPERF.json");

    write_reports(&fleet.reports);
}

/// Writes the per-job JSON reports to `--report PATH`, when given.
fn write_reports(reports: &[smappic_service::JobReport]) {
    if let Some(path) = arg_str("--report") {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create report dir");
        }
        let entries: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        std::fs::write(&path, format!("[\n{}\n]\n", entries.join(",\n")))
            .expect("write job reports");
        println!("wrote per-job reports to {path}");
    }
}
