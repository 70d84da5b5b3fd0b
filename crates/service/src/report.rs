//! Per-job result artifacts.

use smappic_core::HostPerf;
use smappic_sim::{SnapError, Snapshot};

/// Why the scheduler's admission control refused a job. Admission is a
/// pure function of the submitted fleet and the [`crate::SchedulerConfig`]
/// in submission order, so the same fleet is rejected identically on
/// every run (including [`crate::Scheduler::resume`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded pending queue was already holding `limit` admitted
    /// jobs ([`crate::SchedulerConfig::max_pending`]).
    QueueFull {
        /// The configured queue bound.
        limit: usize,
    },
    /// Admitting the job would overcommit its tenant's aggregate cycle
    /// budget ([`crate::TenantQuota::cycle_budget`]). The full spec
    /// budget is reserved up front, so the quota can never be exceeded
    /// mid-flight.
    CycleQuota {
        /// The tenant whose quota ran out.
        tenant: String,
        /// Cycles the job asked for (its spec budget).
        needed: u64,
        /// Cycles the tenant had left before this job.
        remaining: u64,
    },
}

impl RejectReason {
    /// One-line human-readable rendering (used in report markers).
    pub fn describe(&self) -> String {
        match self {
            RejectReason::QueueFull { limit } => format!("pending queue full ({limit} jobs)"),
            RejectReason::CycleQuota { tenant, needed, remaining } => {
                format!("tenant {tenant} cycle quota exhausted ({needed} needed, {remaining} left)")
            }
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobExit {
    /// The job ran to architectural quiescence (`idle == true`) or
    /// exhausted its cycle budget (`idle == false`).
    Completed {
        /// True when the platform quiesced before the budget ran out.
        idle: bool,
    },
    /// The job panicked; the scheduler isolated the failure to this
    /// report and the worker kept serving other jobs.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The per-job Watchdog saw the progress signature freeze past its
    /// stall limit.
    Livelocked {
        /// Last cycle at which the job made architectural progress.
        stalled_since: u64,
        /// Cycle at which the watchdog declared livelock.
        detected_at: u64,
    },
    /// Admission control refused the job before it ran a single cycle.
    Rejected {
        /// The structured reason the tenant can act on.
        reason: RejectReason,
    },
}

/// The artifact a tenant gets back for one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Submission index (stable across runs of the same fleet).
    pub job: usize,
    /// The spec's name.
    pub name: String,
    /// The tenant the job was accounted to.
    pub tenant: String,
    /// The spec's submitted (base) priority.
    pub priority: u8,
    /// Terminal status.
    pub exit: JobExit,
    /// Simulated cycles actually executed.
    pub cycles: u64,
    /// True when the spec carried a `deadline_cycles` and the job's
    /// terminal cycle count overran it (never set for rejected jobs —
    /// they executed nothing).
    pub deadline_missed: bool,
    /// Host wall-clock seconds spent executing (summed across segments,
    /// excluding time parked in queues).
    pub wall_secs: f64,
    /// Times the job was preempted and parked as a snapshot.
    pub preemptions: u64,
    /// Resumes that landed on a different worker than the one that
    /// parked the job.
    pub migrations: u64,
    /// Worker ids that executed segments of this job, in order (repeats
    /// collapsed).
    pub workers: Vec<usize>,
    /// Host fast-path diagnostics accumulated across all segments.
    pub host_perf: HostPerf,
    /// Fingerprint of the job's architectural outcome (final cycle +
    /// platform statistics + architectural metrics). A pure function of
    /// the [`crate::JobSpec`]: identical regardless of worker count,
    /// preemption pattern, or steal order. Zero for panicked and
    /// rejected jobs (no platform outcome exists).
    pub digest: u64,
    /// Raw payload size ([`Snapshot::payload_bytes`]) of the final image;
    /// 0 when neither snapshots nor checkpoints were requested (measuring
    /// costs a full snapshot walk).
    pub snapshot_bytes: u64,
    /// Compressed stream frame size of the same image; 0 when not
    /// measured.
    pub compressed_bytes: u64,
    /// Cumulative raw payload bytes of the full image at each preemption
    /// park.
    pub park_raw_bytes: u64,
    /// Cumulative bytes the scheduler actually held for this job while
    /// parked (compressed base image + compressed delta).
    pub park_stored_bytes: u64,
    /// Final image as compressed stream bytes, when the scheduler was
    /// asked to keep it ([`crate::SchedulerConfig::capture_final_snapshots`]).
    pub(crate) final_snapshot_z: Option<Vec<u8>>,
    /// Perfetto trace path, when the spec asked for a trace and the
    /// scheduler was given an artifact directory.
    pub trace_path: Option<String>,
}

impl JobReport {
    /// True for [`JobExit::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self.exit, JobExit::Completed { .. })
    }

    /// True for [`JobExit::Rejected`].
    pub fn is_rejected(&self) -> bool {
        matches!(self.exit, JobExit::Rejected { .. })
    }

    /// The final snapshot as an uncompressed stream frame
    /// ([`Snapshot::to_bytes`]), decompressed from the compressed frame
    /// the scheduler stores. `Ok(None)` when the scheduler was not asked
    /// to keep final snapshots; `Err` when the stored stream is corrupted
    /// (a torn artifact degrades into a typed error instead of panicking
    /// the reader).
    pub fn final_snapshot(&self) -> Result<Option<Vec<u8>>, SnapError> {
        let Some(z) = self.final_snapshot_z.as_ref() else { return Ok(None) };
        Ok(Some(Snapshot::from_stream_bytes(z)?.to_bytes()))
    }

    /// Compressed size of the final image over its raw size; 1.0 when
    /// sizes were not measured.
    pub fn compression_ratio(&self) -> f64 {
        if self.snapshot_bytes > 0 {
            self.compressed_bytes as f64 / self.snapshot_bytes as f64
        } else {
            1.0
        }
    }

    /// Simulated cycles per host wall-clock second; 0 when no time was
    /// measured.
    pub fn cyc_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cycles as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Renders the report as a JSON object (hand-rolled — the workspace
    /// carries no serde). Snapshot bytes are summarized by size, not
    /// inlined.
    pub fn to_json(&self) -> String {
        let exit = match &self.exit {
            JobExit::Completed { idle } => {
                format!("{{\"kind\": \"completed\", \"idle\": {idle}}}")
            }
            JobExit::Panicked { message } => {
                format!("{{\"kind\": \"panicked\", \"message\": \"{}\"}}", escape(message))
            }
            JobExit::Livelocked { stalled_since, detected_at } => format!(
                "{{\"kind\": \"livelocked\", \"stalled_since\": {stalled_since}, \
                 \"detected_at\": {detected_at}}}"
            ),
            JobExit::Rejected { reason } => {
                format!(
                    "{{\"kind\": \"rejected\", \"reason\": \"{}\"}}",
                    escape(&reason.describe())
                )
            }
        };
        let workers: Vec<String> = self.workers.iter().map(usize::to_string).collect();
        let trace = match &self.trace_path {
            Some(p) => format!("\"{}\"", escape(p)),
            None => "null".into(),
        };
        format!(
            "{{\n  \"job\": {},\n  \"name\": \"{}\",\n  \"tenant\": \"{}\",\n  \
             \"priority\": {},\n  \"exit\": {},\n  \"cycles\": {},\n  \
             \"deadline_missed\": {},\n  \
             \"wall_secs\": {:.6},\n  \"cyc_per_sec\": {:.1},\n  \"preemptions\": {},\n  \
             \"migrations\": {},\n  \"workers\": [{}],\n  \"digest\": \"{:#018x}\",\n  \
             \"block_cache_hit_rate\": {:.4},\n  \"snapshot_bytes\": {},\n  \
             \"compressed_bytes\": {},\n  \"compression_ratio\": {:.4},\n  \
             \"park_raw_bytes\": {},\n  \"park_stored_bytes\": {},\n  \"trace\": {}\n}}",
            self.job,
            escape(&self.name),
            escape(&self.tenant),
            self.priority,
            exit,
            self.cycles,
            self.deadline_missed,
            self.wall_secs,
            self.cyc_per_sec(),
            self.preemptions,
            self.migrations,
            workers.join(", "),
            self.digest,
            self.host_perf.block_cache_hit_rate(),
            self.snapshot_bytes,
            self.compressed_bytes,
            self.compression_ratio(),
            self.park_raw_bytes,
            self.park_stored_bytes,
            trace,
        )
    }
}

/// JSON string escaping. Backslash and quote get their two-character
/// forms; every other control character below 0x20 (tab, CR, NUL, ANSI
/// escapes in panic payloads, ...) becomes a `\u00XX` sequence — JSON
/// forbids them raw, so anything less renders an invalid document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> JobReport {
        JobReport {
            job: 3,
            name: "t".into(),
            tenant: "acme".into(),
            priority: 5,
            exit: JobExit::Completed { idle: true },
            cycles: 1000,
            deadline_missed: false,
            wall_secs: 0.5,
            preemptions: 2,
            migrations: 1,
            workers: vec![0, 1],
            host_perf: HostPerf::default(),
            digest: 0xABCD,
            snapshot_bytes: 4000,
            compressed_bytes: 1000,
            park_raw_bytes: 0,
            park_stored_bytes: 0,
            final_snapshot_z: None,
            trace_path: None,
        }
    }

    #[test]
    fn json_renders_every_exit_kind() {
        let mut r = report();
        assert!(r.to_json().contains("\"completed\""));
        assert!(r.to_json().contains("\"tenant\": \"acme\""));
        assert!(r.to_json().contains("\"compression_ratio\": 0.2500"));
        assert!((r.cyc_per_sec() - 2000.0).abs() < 1e-9);
        assert!(r.final_snapshot().expect("no stored snapshot is fine").is_none());
        r.exit = JobExit::Panicked { message: "boom \"quote\"".into() };
        assert!(r.to_json().contains("\\\"quote\\\""));
        r.exit = JobExit::Livelocked { stalled_since: 5, detected_at: 9 };
        assert!(r.to_json().contains("\"livelocked\""));
        r.exit = JobExit::Rejected { reason: RejectReason::QueueFull { limit: 8 } };
        assert!(r.to_json().contains("\"rejected\""));
        assert!(r.to_json().contains("pending queue full (8 jobs)"));
    }

    #[test]
    fn escape_handles_all_control_characters() {
        // The exact payload class the old escape() mangled: a panic
        // message carrying tab + CR (plus an exotic control char).
        let mut r = report();
        r.exit = JobExit::Panicked { message: "tab\there\rcr \x07bell \x1besc".into() };
        let json = r.to_json();
        assert!(json.contains("tab\\there\\rcr \\u0007bell \\u001besc"));
        for c in json.chars() {
            assert!(
                c as u32 >= 0x20 || c == '\n',
                "rendered JSON must not contain raw control char {:#04x}",
                c as u32
            );
        }
        r.name = "a\tb".into();
        assert!(r.to_json().contains("\"a\\tb\""));
    }

    #[test]
    fn corrupted_final_snapshot_is_a_typed_error_not_a_panic() {
        let mut r = report();
        r.final_snapshot_z = Some(vec![0xDE, 0xAD, 0xBE, 0xEF]);
        assert!(r.final_snapshot().is_err(), "garbage stream bytes must surface as Err");
    }
}
