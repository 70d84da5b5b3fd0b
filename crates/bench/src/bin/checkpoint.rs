//! Cross-process checkpoint/restore driver (the CI `checkpoint` job).
//!
//! Invocations of the *same binary* in *separate processes* prove the
//! snapshot layer end to end — no shared address space, only the wire
//! format on disk:
//!
//! ```sh
//! checkpoint save  snap.bin ref.txt    # run to the cut, write the
//!                                      # uncompressed stream frame,
//!                                      # finish, record
//! checkpoint resume snap.bin ref.txt   # fresh process: rebuild, restore,
//!                                      # finish, compare against ref.txt
//! checkpoint stream-save   s.strm ref  # same cut, but streamed to disk
//!                                      # as a compressed stream frame
//!                                      # (bounded memory)
//! checkpoint stream-resume s.strm ref  # restore via the streaming
//!                                      # source, finish, compare
//! checkpoint scale64                   # 64-FPGA Ethernet rack: gate the
//!                                      # compressed image below 40% of
//!                                      # raw and the file-sink peak RSS
//!                                      # below the in-memory path's;
//!                                      # record both in BENCH_SIMPERF.json
//! ```
//!
//! `save`/`stream-save` run a 2-FPGA contention workload to the cut
//! cycle, serialize the platform, then keep running to the end and write
//! everything observable (cycle, stats, architectural metrics) to the
//! reference file. The resume modes rebuild the identical platform from
//! scratch, restore, run the remaining cycles under the *epoch-parallel*
//! stepper (a resumed run may switch steppers), and exit non-zero unless
//! their observation matches the reference byte for byte.
//!
//! `scale64` spawns itself twice (`scale64-child mem` / `scale64-child
//! file <path>`) so each serialization path's peak RSS (`VmHWM`) is
//! attributable to one process.

use std::io::{BufReader, BufWriter};

use smappic_bench::write_sections;
use smappic_core::{Config, Platform, Topology, DRAM_BASE};
use smappic_sim::{EthParams, Snapshot, StreamSink};
use smappic_tile::{TraceCore, TraceOp};

/// Cycle at which the save modes checkpoint.
const CUT: u64 = 15_000;
/// Total simulated cycles for both the reference and the resumed run.
const TOTAL: u64 = 40_000;

/// The canonical 2-FPGA workload (2x1x2): every tile hammers one shared
/// counter homed on node 0, so live traffic crosses the PCIe fabric at
/// the cut. Deterministic, so both processes build identical platforms.
fn build() -> Platform {
    let cfg = Config::new(2, 1, 2);
    let tiles = cfg.tiles_per_node;
    let total = cfg.total_tiles();
    let counter = DRAM_BASE + 0x9000;
    let mut p = Platform::new(cfg);
    for g in 0..total {
        let (node, tile) = (g / tiles, (g % tiles) as u16);
        let private = DRAM_BASE + 0x20_0000 + g as u64 * 4096;
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(TraceOp::Compute(2 + (g as u64 % 7)));
            ops.push(TraceOp::AmoAdd(counter, 1));
            ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
        }
        p.set_engine(node, tile, Box::new(TraceCore::new(format!("t{g}"), ops)));
    }
    p
}

/// Everything observable about a finished run, as comparable text.
fn observe(p: &Platform) -> String {
    format!(
        "cycle {}\n--- stats ---\n{}\n--- metrics ---\n{}",
        p.now(),
        p.stats(),
        p.metrics().architectural().snapshot_text()
    )
}

fn check_reference(p: &Platform, ref_path: &str) {
    let got = observe(p);
    let expected = std::fs::read_to_string(ref_path).expect("read reference");
    if got != expected {
        eprintln!("MISMATCH: resumed run diverged from the uninterrupted reference");
        for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
            if g != e {
                eprintln!("first differing line {}:\n  resumed:   {g}\n  reference: {e}", i + 1);
                break;
            }
        }
        std::process::exit(1);
    }
    println!("resumed run matches the uninterrupted reference ({TOTAL} cycles)");
}

/// The scale subject: a 64-FPGA switched-Ethernet rack with ~1 MiB of
/// DRAM content per FPGA (compressible but not trivial), no engines —
/// the point is the serialized image, not the workload.
fn build_rack() -> Platform {
    let cfg = Config::rack(64, 1, 1, Topology::Ethernet(EthParams::default()));
    let mut p = Platform::new(cfg);
    let mut page = [0u8; 4096];
    for pg in 0..16 * 1024u64 {
        for (i, b) in page.iter_mut().enumerate() {
            *b = ((pg as usize * 7 + i / 16) & 0xFF) as u8;
        }
        page[..8].copy_from_slice(&pg.to_le_bytes());
        p.write_mem(DRAM_BASE + pg * 4096, &page);
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

/// Spawns this binary as `scale64-child <args...>` and returns the
/// child's reported peak RSS in KiB.
fn child_rss(args: &[&str]) -> u64 {
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .arg("scale64-child")
        .args(args)
        .output()
        .expect("spawn scale64 child");
    assert!(
        out.status.success(),
        "scale64 child {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_kb ").and_then(|v| v.trim().parse().ok()))
        .expect("child reports peak_rss_kb")
}

fn scale64() {
    let p = build_rack();

    // One compressed walk measures both sizes: the sink counts the raw
    // payload it was handed and the buffer holds the compressed frame.
    let mut z = Vec::new();
    let mut sink = StreamSink::new(&mut z, true);
    p.snapshot_to(&mut sink).expect("compressed walk");
    let raw = sink.raw_bytes();
    let compressed = z.len() as u64;
    let ratio = compressed as f64 / raw as f64;
    println!(
        "scale64: raw {} B, compressed stream {} B ({:.1}% of raw)",
        raw,
        compressed,
        ratio * 100.0
    );
    assert!(
        compressed * 100 < raw * 40,
        "64-FPGA compressed snapshot must stay below 40% of raw: {compressed} B vs {raw} B"
    );
    drop(p);

    // Peak-RSS comparison in child processes so each path's high-water
    // mark is attributable: in-memory wire bytes vs streaming file sink.
    let file_path =
        std::env::temp_dir().join(format!("smappic-scale64-{}.strm", std::process::id()));
    let mem_rss = child_rss(&["mem"]);
    let file_rss = child_rss(&["file", &file_path.to_string_lossy()]);
    let _ = std::fs::remove_file(&file_path);
    println!("scale64: peak RSS in-memory {mem_rss} KiB, file-backed sink {file_rss} KiB");
    assert!(
        file_rss < mem_rss,
        "streaming to a file sink must peak below the in-memory wire path \
         ({file_rss} KiB vs {mem_rss} KiB)"
    );

    let value = format!(
        concat!(
            "{{\n",
            "    \"fpgas\": 64,\n",
            "    \"raw_bytes\": {},\n",
            "    \"compressed_bytes\": {},\n",
            "    \"compression_ratio\": {:.4},\n",
            "    \"mem_peak_rss_kb\": {},\n",
            "    \"file_peak_rss_kb\": {}\n",
            "  }}"
        ),
        raw, compressed, ratio, mem_rss, file_rss
    );
    write_sections("BENCH_SIMPERF.json", &[("snapshot", &value)]);
    println!("merged snapshot section into BENCH_SIMPERF.json");
}

fn scale64_child(args: &[String]) {
    let p = build_rack();
    match args {
        [kind] if kind == "mem" => {
            // The in-memory path: one owned Snapshot plus its full
            // uncompressed frame live simultaneously.
            let snap = p.snapshot();
            let wire = snap.to_bytes();
            println!("mem path: {} wire bytes", wire.len());
        }
        [kind, path] if kind == "file" => {
            // The bounded-memory path: sections stream to disk as the
            // walk flushes them; no full image ever materializes.
            let file = std::fs::File::create(path).expect("create stream file");
            let mut sink = StreamSink::new(BufWriter::new(file), true);
            p.snapshot_to(&mut sink).expect("stream to file");
            println!("file path: {} stored bytes", sink.stored_bytes());
        }
        _ => {
            eprintln!("usage: checkpoint scale64-child <mem | file PATH>");
            std::process::exit(2);
        }
    }
    println!("peak_rss_kb {}", peak_rss_kb());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match &args[..] {
        [_, m, snap_path, ref_path] if m == "save" => {
            let mut p = build();
            p.run(CUT);
            let snap = p.snapshot();
            let wire = snap.to_bytes();
            std::fs::write(snap_path, &wire).expect("write snapshot");
            println!(
                "saved {}: cycle {}, {} sections, {} bytes",
                snap_path,
                snap.cycle,
                snap.sections().len(),
                wire.len()
            );
            p.run(TOTAL - CUT);
            std::fs::write(ref_path, observe(&p)).expect("write reference");
            println!("reference run finished at cycle {}", p.now());
        }
        [_, m, snap_path, ref_path] if m == "resume" => {
            let wire = std::fs::read(snap_path).expect("read snapshot");
            let snap = Snapshot::from_stream_bytes(&wire).unwrap_or_else(|e| {
                eprintln!("snapshot failed to parse: {e}");
                std::process::exit(1);
            });
            let mut p = build();
            if let Err(e) = p.restore(&snap) {
                eprintln!("restore failed: {e}");
                std::process::exit(1);
            }
            println!("restored {} at cycle {}", snap_path, p.now());
            p.run_parallel(TOTAL - p.now());
            check_reference(&p, ref_path);
        }
        [_, m, snap_path, ref_path] if m == "stream-save" => {
            let mut p = build();
            p.run(CUT);
            let file = std::fs::File::create(snap_path).expect("create stream file");
            let mut sink = StreamSink::new(BufWriter::new(file), true);
            p.snapshot_to(&mut sink).expect("stream snapshot");
            println!(
                "streamed {}: cycle {}, {} raw -> {} stored bytes",
                snap_path,
                p.now(),
                sink.raw_bytes(),
                sink.stored_bytes()
            );
            p.run(TOTAL - CUT);
            std::fs::write(ref_path, observe(&p)).expect("write reference");
            println!("reference run finished at cycle {}", p.now());
        }
        [_, m, snap_path, ref_path] if m == "stream-resume" => {
            let file = std::fs::File::open(snap_path).expect("open stream file");
            let mut p = build();
            if let Err(e) = p.restore_from(BufReader::new(file)) {
                eprintln!("streaming restore failed: {e}");
                std::process::exit(1);
            }
            println!("restored {} at cycle {}", snap_path, p.now());
            p.run_parallel(TOTAL - p.now());
            check_reference(&p, ref_path);
        }
        [_, m] if m == "scale64" => scale64(),
        [_, m, rest @ ..] if m == "scale64-child" => scale64_child(rest),
        _ => {
            eprintln!(
                "usage: checkpoint <save|resume|stream-save|stream-resume> \
                 <snapshot-file> <reference-file>\n       checkpoint scale64"
            );
            std::process::exit(2);
        }
    }
}
