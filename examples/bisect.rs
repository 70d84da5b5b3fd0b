//! Checkpointing and bisecting a run: snapshot a 2-FPGA workload
//! mid-flight, restore it bit-exactly, then hunt down the first point of
//! divergence between two "equivalent" configurations with the bisector.
//!
//! ```sh
//! cargo run --release --example bisect
//! ```

use smappic::platform::{bisect_first_divergence, Config, Platform, Stepper, DRAM_BASE};
use smappic::sim::Snapshot;
use smappic::tile::{TraceCore, TraceOp};

/// A deterministic 2-FPGA contention workload: every tile hammers one
/// shared counter homed on node 0, so traffic crosses the PCIe fabric.
fn build(cfg: Config) -> Platform {
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

fn main() {
    // --- Part 1: checkpoint/restore ------------------------------------
    let cfg = Config::new(2, 1, 2);
    println!("== checkpointing a {} prototype ==", cfg.notation());

    let mut live = build(cfg.clone());
    live.run(15_000);
    let snap = live.snapshot();
    let wire = snap.to_bytes();
    println!(
        "snapshot at cycle {}: {} sections, {} bytes on the wire",
        snap.cycle,
        snap.sections().len(),
        wire.len()
    );

    // The wire form is what a checkpoint file holds; a fresh process
    // rebuilds the platform from the same Config and restores into it.
    let snap = Snapshot::from_stream_bytes(&wire).expect("wire round-trip");
    let mut resumed = build(cfg.clone());
    resumed.restore(&snap).expect("restore into a fresh platform");

    live.run(25_000);
    resumed.run(25_000);
    assert_eq!(live.stats().to_string(), resumed.stats().to_string());
    assert_eq!(
        live.metrics().architectural().snapshot_text(),
        resumed.metrics().architectural().snapshot_text()
    );
    println!("restored run is bit-identical to the uninterrupted one\n");

    // --- Part 2: bisecting a divergence --------------------------------
    // Two configurations someone might believe equivalent: identical but
    // for one cycle of DRAM latency. Where do they first disagree?
    println!("== bisecting two 'equivalent' configurations ==");
    let mut slow_cfg = cfg.clone();
    slow_cfg.params.dram_latency += 1;

    let mut a = build(cfg.clone());
    let mut b = build(slow_cfg);
    let report = bisect_first_divergence(
        &mut a,
        Stepper::Serial,
        &mut b,
        Stepper::EpochParallel,
        40_000,
        2_000,
    )
    .expect("clean restores")
    .expect("the perturbed twin must diverge");
    println!("{report}");
    println!("(both platforms are parked at cycle {} for post-mortem inspection)", a.now());

    // And the control: identical twins, one serial, one epoch-parallel —
    // the bisector certifies the steppers bit-identical over the window.
    let mut c = build(cfg.clone());
    let mut d = build(cfg);
    let clean = bisect_first_divergence(
        &mut c,
        Stepper::Serial,
        &mut d,
        Stepper::EpochParallel,
        40_000,
        2_000,
    )
    .expect("clean restores");
    assert!(clean.is_none(), "steppers must agree");
    println!("control pair (serial vs epoch-parallel twins): no divergence — ok");
}
