//! Simulator-throughput benchmark: the plain reference interpreter vs the
//! fast path (decoded basic-block ISS + per-component event scheduling),
//! and the serial vs epoch-parallel steppers — reported as simulated
//! cycles per wall-clock second.
//!
//! Four configurations are measured:
//!
//! * `gng_style_2x2x2` — the seed benchmark: a 2x2x2 prototype (2 FPGAs,
//!   2 nodes each, 2 tiles per node) under a GNG-style trace that fires a
//!   cross-FPGA atomic every ~10 cycles. Deliberately memory-saturated, so
//!   it bounds the fast path's worst case (components rarely sleep).
//! * `full_mesh_4x1x2` — the 4-FPGA full-mesh shape under the same load.
//! * `bursty_2x2x2` — the same 2x2x2 shape with realistic compute bursts
//!   (100-500 cycles) between synchronization atomics, the duty cycle of
//!   an actual parallel kernel. This is where per-component scheduling
//!   pays: tiles sleep through bursts, the mesh drains, the chipset idles.
//! * `ariane_2x2x2` — every tile runs a real RV64 Ariane core in a tight
//!   arithmetic loop, exercising the decoded basic-block cache.
//!
//! Every config is measured three ways, on fresh, identical platforms:
//! reference serial (`set_fast_path(false)`: decode every instruction,
//! tick every component every cycle), fast serial, and fast parallel. The
//! benchmark doubles as a differential check — all three runs must agree
//! on cycle count, statistics, and architectural metrics, or no number is
//! produced at all.
//!
//! Results land in `BENCH_SIMPERF.json` (hand-rolled JSON; the workspace
//! has no serde). `speedup_asserted` is true only when the host has at
//! least 4 hardware threads — one per FPGA worker of the 4-FPGA config —
//! and in that case the run refuses to complete unless the parallel
//! stepper actually beats fast-serial there. On smaller hosts the numbers
//! are still recorded but the claim is never asserted.
//!
//! Usage: `cargo run --release -p smappic-bench --bin simperf`
//! (`--cycles N` overrides the per-run simulated cycle count;
//! `--floor FILE` additionally checks every measured fast-serial rate
//! against the committed per-config floors in FILE, failing the run on a
//! regression of more than 20%, and every fast-over-reference ratio
//! against FILE's per-config `min_fast_speedup` — the CI perf-smoke
//! gate).
//!
//! # Scale mode
//!
//! `simperf --scale [--cycles N]` measures rack-scale throughput and host
//! memory instead: a PCIe star at 4 FPGAs, then switched-Ethernet racks at
//! 16 and 64 FPGAs with sparse guest DRAM, and the same 64-FPGA rack with
//! dense (eagerly committed) DRAM as the memory baseline. Peak RSS must be
//! measured per configuration, so each one runs in a fresh child process
//! (`--scale-child`, re-exec'd from the parent) that reports its own
//! `VmHWM` from `/proc/self/status`. Results merge into
//! `BENCH_SIMPERF.json` under a `scale` key (the perf runs are preserved),
//! and the run fails unless the sparse 64-FPGA rack peaks below 25% of the
//! dense one — the acceptance bar for page-granular guest DRAM.

use std::time::Instant;

use smappic_core::{Config, HostPerf, Platform, Topology, DRAM_BASE};
use smappic_isa::assemble;
use smappic_sim::{EthParams, MetricsRegistry, SimRng};
use smappic_tile::{ArianeConfig, ArianeCore, TraceCore, TraceOp};

/// The workload each tile of a config runs.
#[derive(Clone, Copy)]
enum Load {
    /// Atomic on a shared counter every ~10 cycles: memory-saturated.
    AmoHeavy,
    /// 100-500-cycle compute bursts between shared atomics: realistic
    /// parallel-kernel duty cycle.
    Bursty,
    /// A real Ariane core running a taus88 arithmetic loop.
    Ariane,
}

/// Builds a platform with the measurement workload installed. Trace
/// programs are long enough that no engine finishes inside the measured
/// window, keeping the load steady; everything is seeded deterministically
/// so the reference, fast, and parallel platforms are identical twins.
fn workload_platform(load: Load, fpgas: usize, nodes: usize, tiles: usize) -> Platform {
    let cfg = Config::new(fpgas, nodes, tiles);
    let total = cfg.total_tiles();
    let per_node = tiles;
    let counter = DRAM_BASE + 0xA000;
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(0x51AB);
    for g in 0..total {
        let (node, tile) = (g / per_node, (g % per_node) as u16);
        let private = DRAM_BASE + 0x40_0000 + g as u64 * 4096;
        match load {
            Load::AmoHeavy => {
                let mut ops = Vec::new();
                for i in 0..50_000u64 {
                    ops.push(TraceOp::Compute(rng.gen_range(20) + 1));
                    ops.push(TraceOp::AmoAdd(counter, 1));
                    if rng.chance(0.5) {
                        ops.push(TraceOp::StoreVal(private + (i % 16) * 64, i));
                    }
                }
                p.set_engine(node, tile, Box::new(TraceCore::new(format!("w{g}"), ops)));
            }
            Load::Bursty => {
                let mut ops = Vec::new();
                for i in 0..8_000u64 {
                    ops.push(TraceOp::Compute(rng.gen_range(400) + 100));
                    ops.push(TraceOp::AmoAdd(counter, 1));
                    if rng.chance(0.25) {
                        ops.push(TraceOp::StoreVal(private + (i % 16) * 64, i));
                    }
                }
                p.set_engine(node, tile, Box::new(TraceCore::new(format!("w{g}"), ops)));
            }
            Load::Ariane => {
                // Per-tile code so every core fetches from its own lines.
                let base = DRAM_BASE + 0x100_0000 + g as u64 * 0x1_0000;
                let img = assemble(&ariane_kernel(), base).expect("simperf kernel assembles");
                p.load_image(&img);
                let map = p.addr_map(node);
                p.set_engine(
                    node,
                    tile,
                    Box::new(ArianeCore::new(ArianeConfig::new(g as u64, base, map))),
                );
            }
        }
    }
    p
}

/// The Ariane measurement kernel: a taus88 generator stepped in a tight
/// loop — straight-line ALU work between short backward branches, the
/// shape the decoded basic-block cache is built for. The trip count is
/// effectively infinite for the measured window.
fn ariane_kernel() -> String {
    r#"
        li   s3, 0x12345678
        li   s4, 0x9abcdef0
        li   s5, 0x13579bdf
        li   a1, 0x7fffffff
    step:
        slliw t0, s3, 13
        xor   t0, t0, s3
        srliw t0, t0, 19
        andi  t1, s3, -2
        slliw t1, t1, 12
        xor   s3, t1, t0
        slliw t0, s4, 2
        xor   t0, t0, s4
        srliw t0, t0, 25
        andi  t1, s4, -8
        slliw t1, t1, 4
        xor   s4, t1, t0
        slliw t0, s5, 3
        xor   t0, t0, s5
        srliw t0, t0, 11
        andi  t1, s5, -16
        slliw t1, t1, 17
        xor   s5, t1, t0
        addi  a1, a1, -1
        bnez  a1, step
        li   a7, 93
        li   a0, 0
        ecall
    "#
    .to_string()
}

struct Measurement {
    label: &'static str,
    config: String,
    cycles: u64,
    reference_secs: f64,
    serial_secs: f64,
    parallel_secs: f64,
    perf: HostPerf,
    metrics_text: String,
    ports: PortSummary,
}

/// Roll-up of the flow-control layer's meters for one run: how many ports
/// saw traffic, aggregate pushes/stalls, and the hottest port on each of
/// the two congestion axes (deepest high-watermark, most stalled).
struct PortSummary {
    ports_active: usize,
    pushes: u64,
    stalls: u64,
    deepest: (String, u64),
    most_stalled: (String, u64),
}

/// Summarizes every `port.<name>.{pushes,stalls,peak}` counter in `m`.
/// Counter iteration is sorted, so ties resolve to the lexicographically
/// first port and the summary is deterministic.
fn port_summary(m: &MetricsRegistry) -> PortSummary {
    let mut s = PortSummary {
        ports_active: 0,
        pushes: 0,
        stalls: 0,
        deepest: (String::new(), 0),
        most_stalled: (String::new(), 0),
    };
    for (k, v) in m.counters().iter() {
        let Some(base) = k.strip_prefix("port.") else { continue };
        if let Some(name) = base.strip_suffix(".peak") {
            if v > 0 {
                s.ports_active += 1;
            }
            if v > s.deepest.1 {
                s.deepest = (name.to_owned(), v);
            }
        } else if let Some(name) = base.strip_suffix(".stalls") {
            s.stalls += v;
            if v > s.most_stalled.1 {
                s.most_stalled = (name.to_owned(), v);
            }
        } else if base.ends_with(".pushes") {
            s.pushes += v;
        }
    }
    s
}

impl Measurement {
    fn reference_rate(&self) -> f64 {
        self.cycles as f64 / self.reference_secs
    }
    fn serial_rate(&self) -> f64 {
        self.cycles as f64 / self.serial_secs
    }
    fn parallel_rate(&self) -> f64 {
        self.cycles as f64 / self.parallel_secs
    }
    /// Fast serial over plain reference: what the tentpole bought.
    fn fast_speedup(&self) -> f64 {
        self.reference_secs / self.serial_secs
    }
    /// Fast parallel over fast serial: what the worker threads buy.
    fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs
    }
}

/// Timing trials per stepper; the fastest wall time wins. Shared hosts
/// jitter individual runs by 10-20%, and the minimum is the standard
/// low-noise estimator for a deterministic workload.
const TRIALS: usize = 3;

fn measure(
    label: &'static str,
    load: Load,
    (fpgas, nodes, tiles): (usize, usize, usize),
    cycles: u64,
) -> Measurement {
    let mut reference_secs = f64::INFINITY;
    let mut serial_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    let mut triple = None;
    for _ in 0..TRIALS {
        // Fresh twin platforms per trial: a run mutates the platform, and
        // the differential check below wants a matched set. Every trial
        // computes the same thing, so keeping any set works.
        let mut reference = workload_platform(load, fpgas, nodes, tiles);
        reference.set_fast_path(false);
        let mut fast = workload_platform(load, fpgas, nodes, tiles);
        let mut parallel = workload_platform(load, fpgas, nodes, tiles);

        let t = Instant::now();
        reference.run(cycles);
        reference_secs = reference_secs.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        fast.run(cycles);
        serial_secs = serial_secs.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        parallel.run_parallel(cycles);
        parallel_secs = parallel_secs.min(t.elapsed().as_secs_f64());

        triple = Some((reference, fast, parallel));
    }
    let (reference, fast, parallel) = triple.expect("at least one trial ran");

    // The benchmark doubles as a differential check: a fast-but-wrong
    // stepper must not produce a number at all. Reference ≡ fast-serial ≡
    // fast-parallel, on cycle count, statistics, and architectural
    // metrics.
    assert_eq!(fast.now(), reference.now(), "{label}: cycle counts diverged (fast vs reference)");
    assert_eq!(fast.now(), parallel.now(), "{label}: cycle counts diverged (serial vs parallel)");
    assert_eq!(
        fast.stats().to_string(),
        reference.stats().to_string(),
        "{label}: statistics diverged between fast path and reference"
    );
    assert_eq!(
        fast.stats().to_string(),
        parallel.stats().to_string(),
        "{label}: statistics diverged between serial and parallel"
    );
    let arch = fast.metrics().architectural();
    assert_eq!(
        arch,
        reference.metrics().architectural(),
        "{label}: architectural metrics diverged between fast path and reference"
    );
    assert_eq!(
        arch,
        parallel.metrics().architectural(),
        "{label}: architectural metrics diverged between serial and parallel"
    );

    let ports = port_summary(&arch);
    let m = Measurement {
        label,
        config: format!("{fpgas}x{nodes}x{tiles}"),
        cycles,
        reference_secs,
        serial_secs,
        parallel_secs,
        perf: fast.host_perf(),
        metrics_text: arch.snapshot_text(),
        ports,
    };
    println!(
        "{label:<18} {:>8} cycles | ref {:>10.0} cyc/s | fast {:>10.0} cyc/s ({:.2}x) | par {:>10.0} cyc/s ({:.2}x)",
        m.cycles,
        m.reference_rate(),
        m.serial_rate(),
        m.fast_speedup(),
        m.parallel_rate(),
        m.speedup()
    );
    println!(
        "  fast path: block cache {:.1}% hit ({} hits / {} misses) | skipped ticks: {} tile, {} chipset",
        m.perf.block_cache_hit_rate() * 100.0,
        m.perf.block_cache_hits,
        m.perf.block_cache_misses,
        m.perf.skipped_tile_cycles,
        m.perf.skipped_chipset_cycles,
    );
    println!(
        "  ports: {} active | {} pushes | {} stalls | deepest {} (peak {}) | most stalled {} ({})",
        m.ports.ports_active,
        m.ports.pushes,
        m.ports.stalls,
        m.ports.deepest.0,
        m.ports.deepest.1,
        if m.ports.most_stalled.1 > 0 { m.ports.most_stalled.0.as_str() } else { "none" },
        m.ports.most_stalled.1,
    );
    m
}

fn json_entry(m: &Measurement) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{}\",\n",
            "      \"config\": \"{}\",\n",
            "      \"simulated_cycles\": {},\n",
            "      \"reference_secs\": {:.6},\n",
            "      \"serial_secs\": {:.6},\n",
            "      \"parallel_secs\": {:.6},\n",
            "      \"reference_cycles_per_sec\": {:.1},\n",
            "      \"serial_cycles_per_sec\": {:.1},\n",
            "      \"parallel_cycles_per_sec\": {:.1},\n",
            "      \"fast_speedup\": {:.4},\n",
            "      \"speedup\": {:.4},\n",
            "      \"block_cache_hit_rate\": {:.6},\n",
            "      \"block_cache_hits\": {},\n",
            "      \"block_cache_misses\": {},\n",
            "      \"skipped_tile_cycles\": {},\n",
            "      \"skipped_chipset_cycles\": {},\n",
            "      \"port_layer\": {{\n",
            "        \"ports_active\": {},\n",
            "        \"pushes\": {},\n",
            "        \"stalls\": {},\n",
            "        \"deepest_port\": \"{}\",\n",
            "        \"deepest_peak\": {},\n",
            "        \"most_stalled_port\": \"{}\",\n",
            "        \"most_stalled_stalls\": {}\n",
            "      }}\n",
            "    }}"
        ),
        m.label,
        m.config,
        m.cycles,
        m.reference_secs,
        m.serial_secs,
        m.parallel_secs,
        m.reference_rate(),
        m.serial_rate(),
        m.parallel_rate(),
        m.fast_speedup(),
        m.speedup(),
        m.perf.block_cache_hit_rate(),
        m.perf.block_cache_hits,
        m.perf.block_cache_misses,
        m.perf.skipped_tile_cycles,
        m.perf.skipped_chipset_cycles,
        m.ports.ports_active,
        m.ports.pushes,
        m.ports.stalls,
        m.ports.deepest.0,
        m.ports.deepest.1,
        m.ports.most_stalled.0,
        m.ports.most_stalled.1,
    )
}

/// Value of a `--flag value` string argument, if present.
fn arg_str(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Extracts `"label": <number>` from the `"section": { ... }` object of a
/// floor file without a JSON parser (the workspace has none). The floor
/// format keeps each config on its own line inside flat sections
/// precisely so this scan is unambiguous.
fn floor_for(text: &str, section: &str, label: &str) -> Option<f64> {
    let head = format!("\"{section}\":");
    let body = &text[text.find(&head)? + head.len()..];
    let body = &body[..body.find('}')?];
    let key = format!("\"{label}\":");
    let rest = &body[body.find(&key)? + key.len()..];
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == 'e' || *c == '-')
        .collect();
    num.parse().ok()
}

/// The CI perf-smoke gate, two checks per measured config:
///
/// - `floors`: the fast-serial rate must reach at least 80% of its floor
///   (a >20% serial-throughput regression fails the run). Floors are
///   deliberately conservative — captured well below the reference
///   machine's numbers — so host-speed variance does not trip the gate,
///   while a real fast-path regression still does.
/// - `min_fast_speedup`: fast serial over the plain reference, both timed
///   on this host in this run, must reach the committed ratio. A ratio
///   cancels host speed, so it can be tight: it says the fast path must
///   never again lose to the reference it shortcuts.
fn check_floor(path: &str, runs: &[Measurement]) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read floor file {path}: {e}"));
    let mut checked = 0;
    for m in runs {
        if let Some(floor) = floor_for(&text, "floors", m.label) {
            let min = floor * 0.8;
            let measured = m.serial_rate();
            assert!(
                measured >= min,
                "perf regression: {} fast-serial {measured:.0} cyc/s fell below 80% of the \
                 committed floor {floor:.0} cyc/s (minimum {min:.0})",
                m.label
            );
            println!("floor ok: {} {measured:.0} cyc/s >= 80% of {floor:.0}", m.label);
            checked += 1;
        }
        if let Some(min) = floor_for(&text, "min_fast_speedup", m.label) {
            let measured = m.fast_speedup();
            assert!(
                measured >= min,
                "perf regression: {} fast serial is only {measured:.2}x the reference, below \
                 the committed minimum {min:.2}x",
                m.label
            );
            println!("speedup ok: {} fast serial {measured:.2}x reference >= {min:.2}x", m.label);
            checked += 1;
        }
    }
    assert!(checked > 0, "floor file {path} names none of the measured configs");
}

// ---------------------------------------------------------------------------
// Scale mode: rack-scale throughput and peak-RSS measurements.
// ---------------------------------------------------------------------------

/// One rack configuration of the scale sweep.
struct ScaleConfig {
    label: &'static str,
    fpgas: usize,
    /// `"star"` (PCIe, `Config::new`) or `"eth"` (`Config::rack`).
    topo: &'static str,
    dense: bool,
}

const SCALE_CONFIGS: &[ScaleConfig] = &[
    ScaleConfig { label: "pcie_star_4", fpgas: 4, topo: "star", dense: false },
    ScaleConfig { label: "eth_16_sparse", fpgas: 16, topo: "eth", dense: false },
    ScaleConfig { label: "eth_64_sparse", fpgas: 64, topo: "eth", dense: false },
    ScaleConfig { label: "eth_64_dense", fpgas: 64, topo: "eth", dense: true },
];

/// Keep the dense baseline affordable: 16 MiB of guest DRAM per node puts
/// the 64-FPGA dense rack at a 1 GiB committed floor, while the sparse
/// rack touches a handful of pages per node.
const SCALE_BYTES_PER_NODE: u64 = 16 << 20;

/// Builds the scale workload: one core per FPGA hammering a shared
/// counter homed on node 0 (all traffic crosses the interconnect) with
/// private stores confined to a few pages, so sparse backing stays small.
fn scale_workload(sc: &ScaleConfig) -> Platform {
    let mut cfg = match sc.topo {
        "star" => Config::new(sc.fpgas, 1, 1),
        _ => Config::rack(sc.fpgas, 1, 1, Topology::Ethernet(EthParams::default())),
    };
    cfg.params.bytes_per_node = SCALE_BYTES_PER_NODE;
    cfg.params.dram_dense = sc.dense;
    let total = cfg.total_tiles();
    let counter = DRAM_BASE + 0xA000;
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(0x5CA1E);
    for g in 0..total {
        let private = DRAM_BASE + g as u64 * SCALE_BYTES_PER_NODE + 0x4_0000;
        let mut ops = Vec::new();
        for i in 0..20_000u64 {
            ops.push(TraceOp::Compute(rng.gen_range(20) + 1));
            ops.push(TraceOp::AmoAdd(counter, 1));
            if rng.chance(0.5) {
                ops.push(TraceOp::StoreVal(private + (i % 16) * 64, i));
            }
        }
        let map = p.addr_map(g);
        p.set_engine(g, 0, Box::new(TraceCore::with_addr_map(format!("s{g}"), ops, map)));
    }
    p
}

/// Peak resident set of this process in KiB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
        }
    }
    0
}

/// `--scale-child <label>`: runs one configuration in this process and
/// prints a single machine-readable result line for the parent. A fresh
/// process per measurement is what makes `VmHWM` attributable to one
/// configuration.
fn scale_child(label: &str, cycles: u64) {
    let sc = SCALE_CONFIGS
        .iter()
        .find(|c| c.label == label)
        .unwrap_or_else(|| panic!("unknown scale config {label}"));
    let mut p = scale_workload(sc);
    let t = Instant::now();
    p.run(cycles);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(p.now(), cycles, "{label}: run fell short");
    let frames = p.stats().get("eth.frames");
    if sc.topo == "eth" {
        assert!(frames > 0, "{label}: rack never used its fabric");
    }
    let pages: usize = (0..p.config().total_nodes())
        .map(|n| p.node(n).chipset().memctl().dram().resident_pages())
        .sum();
    println!(
        "SCALE {label} fpgas={} cycles={cycles} secs={secs:.6} rss_kb={} dram_pages={pages} eth_frames={frames}",
        sc.fpgas,
        peak_rss_kb(),
    );
}

struct ScaleResult {
    label: String,
    fpgas: u64,
    cycles: u64,
    secs: f64,
    rss_kb: u64,
    dram_pages: u64,
    eth_frames: u64,
}

/// `--scale`: re-exec one child per configuration, collect the result
/// lines, enforce the sparse-vs-dense RSS bar, and merge a `scale`
/// section into `BENCH_SIMPERF.json`.
fn scale_main(cycles: u64) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut results = Vec::new();
    for sc in SCALE_CONFIGS {
        let out = std::process::Command::new(&exe)
            .args(["--scale-child", sc.label, "--cycles", &cycles.to_string()])
            .output()
            .unwrap_or_else(|e| panic!("spawn scale child {}: {e}", sc.label));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "scale child {} failed:\n{stdout}\n{}",
            sc.label,
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout
            .lines()
            .find(|l| l.starts_with("SCALE "))
            .unwrap_or_else(|| panic!("no result line from {}:\n{stdout}", sc.label));
        let mut r = ScaleResult {
            label: sc.label.to_string(),
            fpgas: 0,
            cycles: 0,
            secs: 0.0,
            rss_kb: 0,
            dram_pages: 0,
            eth_frames: 0,
        };
        for field in line.split_whitespace().skip(2) {
            let (k, v) = field.split_once('=').expect("k=v field");
            match k {
                "fpgas" => r.fpgas = v.parse().unwrap(),
                "cycles" => r.cycles = v.parse().unwrap(),
                "secs" => r.secs = v.parse().unwrap(),
                "rss_kb" => r.rss_kb = v.parse().unwrap(),
                "dram_pages" => r.dram_pages = v.parse().unwrap(),
                "eth_frames" => r.eth_frames = v.parse().unwrap(),
                other => panic!("unknown field {other}"),
            }
        }
        println!(
            "{:<14} {:>3} FPGAs | {:>9.0} cyc/s | peak RSS {:>8} KiB | {:>7} DRAM pages | {:>8} frames",
            r.label,
            r.fpgas,
            r.cycles as f64 / r.secs,
            r.rss_kb,
            r.dram_pages,
            r.eth_frames
        );
        results.push(r);
    }

    let sparse = results.iter().find(|r| r.label == "eth_64_sparse").expect("sparse result");
    let dense = results.iter().find(|r| r.label == "eth_64_dense").expect("dense result");
    let ratio = sparse.rss_kb as f64 / dense.rss_kb.max(1) as f64;
    let rss_measured = sparse.rss_kb > 0 && dense.rss_kb > 0;
    if rss_measured {
        println!(
            "\n64-FPGA sparse peaks at {:.1}% of dense ({} vs {} KiB)",
            ratio * 100.0,
            sparse.rss_kb,
            dense.rss_kb
        );
        assert!(
            ratio < 0.25,
            "sparse DRAM must keep the 64-FPGA rack below 25% of the dense baseline's peak RSS, \
             measured {:.1}%",
            ratio * 100.0
        );
    } else {
        println!("\nno /proc/self/status: RSS recorded as 0, ratio not asserted");
    }

    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"label\": \"{}\",\n",
                    "        \"fpgas\": {},\n",
                    "        \"simulated_cycles\": {},\n",
                    "        \"secs\": {:.6},\n",
                    "        \"cycles_per_sec\": {:.1},\n",
                    "        \"peak_rss_kb\": {},\n",
                    "        \"resident_dram_pages\": {},\n",
                    "        \"eth_frames\": {}\n",
                    "      }}"
                ),
                r.label,
                r.fpgas,
                r.cycles,
                r.secs,
                r.cycles as f64 / r.secs,
                r.rss_kb,
                r.dram_pages,
                r.eth_frames
            )
        })
        .collect();
    let scale_value = format!(
        concat!(
            "{{\n",
            "    \"bytes_per_node\": {},\n",
            "    \"sparse_over_dense_rss\": {:.4},\n",
            "    \"rss_asserted\": {},\n",
            "    \"configs\": [\n{}\n    ]\n",
            "  }}"
        ),
        SCALE_BYTES_PER_NODE,
        ratio,
        rss_measured,
        entries.join(",\n")
    );

    write_sections("BENCH_SIMPERF.json", &[("scale", &scale_value)]);
    println!("merged scale section into BENCH_SIMPERF.json");
}

// The JSON section-merge helper lives in the bench lib, shared with
// `servebench` and `checkpoint`.
use smappic_bench::write_sections;

fn main() {
    if let Some(label) = arg_str("--scale-child") {
        scale_child(&label, smappic_bench::arg_usize("--cycles", 20_000) as u64);
        return;
    }
    if std::env::args().any(|a| a == "--scale") {
        scale_main(smappic_bench::arg_usize("--cycles", 20_000) as u64);
        return;
    }

    let cycles = smappic_bench::arg_usize("--cycles", 400_000) as u64;
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("simperf: {cycles} simulated cycles per run, {host_threads} host threads\n");

    let runs = [
        measure("gng_style_2x2x2", Load::AmoHeavy, (2, 2, 2), cycles),
        measure("full_mesh_4x1x2", Load::AmoHeavy, (4, 1, 2), cycles),
        measure("bursty_2x2x2", Load::Bursty, (2, 2, 2), cycles),
        measure("ariane_2x2x2", Load::Ariane, (2, 2, 2), cycles),
    ];

    // The parallel-speedup claim needs one hardware thread per FPGA worker
    // of the 4-FPGA config; below that the parallel path is measured but
    // the claim must never be asserted (or recorded as asserted).
    let speedup_asserted = host_threads >= 4;
    if speedup_asserted {
        let s = runs[1].speedup();
        assert!(
            s > 1.0,
            "expected a parallel speedup on the 4-FPGA config with {host_threads} host threads, \
             measured {s:.2}x"
        );
        println!("\n4-FPGA parallel speedup {s:.2}x > 1.0x, asserted");
    } else {
        println!(
            "\nhost has {host_threads} thread(s) < 4: parallel speedup recorded, not asserted"
        );
    }

    if let Some(floor_path) = arg_str("--floor") {
        check_floor(&floor_path, &runs);
    }

    let entries: Vec<String> = runs.iter().map(json_entry).collect();
    let runs_value = format!("[\n{}\n  ]", entries.join(",\n"));
    // Only the perf sections are rewritten; `--scale`, `servebench`, and
    // `checkpoint scale64` sections survive.
    write_sections(
        "BENCH_SIMPERF.json",
        &[
            ("bench", "\"simperf\""),
            ("host_threads", &host_threads.to_string()),
            ("speedup_asserted", &speedup_asserted.to_string()),
            ("runs", &runs_value),
        ],
    );
    println!("wrote BENCH_SIMPERF.json");

    // The observability layer's text exporter, on the first run's metrics
    // (identical across all three twins, asserted above).
    println!("\nmetrics ({}):\n{}", runs[0].config, runs[0].metrics_text);
}
