//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Prints progress and provenance, then as its last stdout line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics (end-to-end
//! with `--trace 0`, per-layer with `--trace 1`). Exits 1 when any
//! correctness check failed, 2 on a usage error. The full record,
//! including the spans of a traced run, goes to
//! `DIR/<workload>-seed<N>-trace<T>.json` (default `perfbench/out`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use smappic_perfbench::gen::Workload;
use smappic_perfbench::measure::Tracer;
use smappic_perfbench::report::{json_str, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: perfbench --workload amo_saturated|ariane_compute|rack_eth16|fleet_saturated \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.clamp(1, 600),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, out })
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git work tree.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(r) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|t| {
            t.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len() - r.len()].trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    eprintln!(
        "perfbench: {name} seed {} for {} s, trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    let started = Instant::now();
    let mut tr = Tracer::new();
    let mut outcome =
        smappic_perfbench::run(args.workload, args.seed, args.seconds, args.trace, &mut tr);
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    outcome.note_str("workload", name);
    outcome.note("seed", args.seed);
    outcome.note("seconds", args.seconds);
    outcome.note("trace", args.trace as u8);
    outcome.note("host_threads", threads);
    outcome.note_str("git_rev", &git_rev());
    outcome.note("wall_s", started.elapsed().as_secs_f64());
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let missing = outcome.missing(catalogue);
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {missing:?}");
    }
    eprintln!(
        "perfbench: {} of {} operations failed ({:.3}%)",
        outcome.failed,
        outcome.attempted,
        100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let result = outcome.result_json(catalogue);
    let provenance = outcome.provenance_json();

    let mut record = format!("{{\"provenance\": {provenance},\n\"result\": {result}");
    if args.trace {
        record.push_str(",\n\"spans\": [");
        for (i, s) in tr.spans().iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                record,
                "{sep}{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.request,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        record.push(']');
    }
    record.push_str("}\n");
    let path = args.out.join(format!("{name}-seed{}-trace{}.json", args.seed, args.trace as u8));
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    println!("provenance: {provenance}");
    println!("{result}");
    if outcome.correct() && missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
