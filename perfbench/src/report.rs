//! The metric catalogue and the result record every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (tracing off): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_mcps", "Mcycles/s"),
    ("sim_mcps_parallel", "Mcycles/s"),
    ("jobs_per_hour", "1/h"),
    ("job_wall_p50_ms", "ms"),
    ("job_wall_p98_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run): `(name, unit)`. Counts are per 1k
/// simulated cycles (`/kcycle`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.epochs", "1/kcycle"),
    ("core.epoch_width_mean", "cycles"),
    ("core.serial_epoch_us_p50", "us"),
    ("core.serial_epoch_us_p99", "us"),
    ("core.parallel_epoch_us_p50", "us"),
    ("core.parallel_epoch_us_p99", "us"),
    ("core.reference_mcps", "Mcycles/s"),
    ("core.fast_over_reference", "ratio"),
    ("core.tile_skip_frac", "ratio"),
    ("core.chipset_skip_frac", "ratio"),
    ("core.stats_us", "us"),
    ("isa.block_hit_rate", "ratio"),
    ("isa.block_misses", "1/kcycle"),
    ("isa.functional_mips", "Minstr/s"),
    ("tile.retired_per_cycle", "1/cycle"),
    ("tile.host_ns_per_instr", "ns"),
    ("noc.flits", "1/kcycle"),
    ("noc.delivered", "1/kcycle"),
    ("noc.host_ns_per_flit", "ns"),
    ("coherence.bpc_miss", "1/kcycle"),
    ("coherence.bpc_hit", "1/kcycle"),
    ("coherence.llc_miss", "1/kcycle"),
    ("coherence.llc_hit", "1/kcycle"),
    ("coherence.llc_amo", "1/kcycle"),
    ("coherence.recall_nack", "1/kcycle"),
    ("mem.dram_req", "1/kcycle"),
    ("axi.xbar_req", "1/kcycle"),
    ("axi.shell_out_req", "1/kcycle"),
    ("axi.shell_guard_retry", "1/kcycle"),
    ("sim.port_pushes", "1/kcycle"),
    ("sim.port_stalls", "1/kcycle"),
    ("sim.eth_frames", "1/kcycle"),
    ("snap.raw_kb", "KiB"),
    ("snap.stream_kb", "KiB"),
    ("snap.encode_ms", "ms"),
    ("snap.decode_ms", "ms"),
    ("codec.compress_mbps", "MB/s"),
    ("codec.decompress_mbps", "MB/s"),
    ("service.parse_us", "us"),
    ("service.build_us", "us"),
    ("service.run_us_per_kcycle", "us"),
    ("service.park_encode_us", "us"),
    ("service.restore_decode_us", "us"),
    ("service.digest_us", "us"),
    ("service.watchdog_us", "us"),
    ("service.park_ratio", "ratio"),
    ("sched.preemptions", "count"),
    ("sched.dispatches", "count"),
    ("sched.quanta", "count"),
    ("sched.wait_us_p50", "us"),
    ("sched.run_us_p50", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_parallel_pct", "%"),
];

/// The outcome of one benchmark run: attempted and failed operations,
/// the measured metrics and the provenance.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, fleet jobs, replays).
    pub attempted: u64,
    /// Operations whose correctness check failed.
    pub failed: u64,
    /// Why each failed operation failed.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run provenance and side counts, as `key -> JSON value`.
    pub provenance: BTreeMap<String, String>,
}

impl Outcome {
    /// Counts one operation; records `err` as its failure when present.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a numeric provenance entry; a list prints as a JSON array,
    /// anything that is not a finite number as a string.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        let v = value.to_string();
        let raw = v.starts_with('[') || v.parse::<f64>().is_ok_and(f64::is_finite);
        self.provenance.insert(key.to_string(), if raw { v } else { json_str(&v) });
    }

    /// Records a provenance entry as a JSON string.
    pub fn note_str(&mut self, key: &str, value: &str) {
        self.provenance.insert(key.to_string(), json_str(value));
    }

    /// True when every operation passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Catalogue metrics this outcome lacks or holds as a non-finite
    /// value (a benchmark bug, not a failed operation).
    pub fn missing(&self, catalogue: &'static [(&'static str, &'static str)]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|(n, _)| !self.metrics.get(n).is_some_and(|v| v.is_finite()))
            .map(|(n, _)| *n)
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `catalogue` by name and unit. A failed run, or one missing a
    /// metric, reports no numbers at all.
    pub fn result_json(&self, catalogue: &'static [(&'static str, &'static str)]) -> String {
        let correct = self.correct() && self.missing(catalogue).is_empty();
        let mut metrics = String::new();
        if correct {
            for (i, (name, unit)) in catalogue.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let v = self.metrics[name];
                let _ =
                    write!(metrics, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }

    /// Provenance as a JSON object.
    pub fn provenance_json(&self) -> String {
        let body: Vec<String> =
            self.provenance.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_every_metric_or_none() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        for (n, _) in END_TO_END {
            o.set(n, 1.25);
        }
        let line = o.result_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        o.check(Err("digest mismatch".into()));
        let line = o.result_json(END_TO_END);
        assert_eq!(line, "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {}}");
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
