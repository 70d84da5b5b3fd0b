//! Differential tests for the host fast path (decoded basic-block ISS +
//! per-component event scheduling): every run here is executed twice, once
//! with the fast path on and once in reference mode (decode every
//! instruction, tick every component every cycle), and the two must be
//! bit-identical — same cycle count, statistics, architectural metrics,
//! and architectural snapshot sections.
//!
//! The programs target exactly the places where a decoded-block cache can
//! go wrong: self-modifying stores into a hot block (with and without
//! `fence.i`), a block straddling a page boundary, MMIO reads inside a
//! replayed block, and exceptions raised mid-block — and where the busy
//! tile path can: egress and ejection on compute-bound tiles, and
//! interrupts reaching a core that never sleeps.

use smappic::platform::{Config, Platform, CLINT_BASE, DRAM_BASE};
use smappic::tile::{ArianeConfig, ArianeCore, TraceCore, TraceOp};

/// CLINT mtime register: `CLINT_BASE` (0x6100_0000) + 0xBFF8.
const MTIME: u64 = 0x6100_BFF8;

/// Builds a single-tile platform running `src` on an Ariane core.
fn ariane_platform(src: &str) -> Platform {
    let mut p = Platform::new(Config::new(1, 1, 1));
    let base = DRAM_BASE + 0x1_0000;
    let img = smappic::isa::assemble(src, base).expect("test kernel assembles");
    p.load_image(&img);
    let map = p.addr_map(0);
    p.set_engine(0, 0, Box::new(ArianeCore::new(ArianeConfig::new(0, base, map))));
    p
}

fn ariane_core(p: &Platform) -> &ArianeCore {
    p.node(0).tile(0).engine().as_any().downcast_ref::<ArianeCore>().expect("ariane installed")
}

/// Runs `src` for `cycles` with the fast path on and off; asserts the two
/// runs are bit-identical and returns the (shared) exit code.
fn run_both(src: &str, cycles: u64, label: &str) -> Option<u64> {
    let mut fast = ariane_platform(src);
    let mut reference = ariane_platform(src);
    reference.set_fast_path(false);
    fast.run(cycles);
    reference.run(cycles);
    assert_bit_identical(&fast, &reference, label);
    let (f, r) = (ariane_core(&fast), ariane_core(&reference));
    assert_eq!(f.exit_code(), r.exit_code(), "{label}: exit codes diverged");
    assert_eq!(f.hart().pc(), r.hart().pc(), "{label}: pc diverged");
    let perf = fast.host_perf();
    assert!(perf.block_cache_hits > 0, "{label}: fast run never hit the block cache (vacuous)");
    assert_eq!(
        reference.host_perf().block_cache_hits,
        0,
        "{label}: reference run must not use the block cache"
    );
    f.exit_code()
}

/// Full observable equality: simulated time, every stats counter, the
/// architectural metrics registry, and every architectural snapshot
/// section (host-side stepper diagnostics excluded — the two runs
/// legitimately schedule differently).
fn assert_bit_identical(a: &Platform, b: &Platform, label: &str) {
    assert_eq!(a.now(), b.now(), "{label}: cycle counts diverged");
    assert_eq!(a.stats().to_string(), b.stats().to_string(), "{label}: statistics diverged");
    let (ma, mb) = (a.metrics().architectural(), b.metrics().architectural());
    assert_eq!(ma, mb, "{label}: architectural metrics diverged");
    if let Some(section) = a.snapshot().first_divergence(&b.snapshot()) {
        panic!("{label}: architectural snapshots diverged at {section}");
    }
}

#[test]
fn smc_store_with_fencei_replaces_the_cached_block() {
    // Two passes over a hot loop; between them the program overwrites the
    // loop's first instruction (addi a0,a0,1 -> addi a0,a0,2) and issues
    // fence.i. Pass one adds 40, pass two must add 80.
    let exit = run_both(
        r#"
            li   a0, 0
            li   s2, 0
            la   s0, hot
        again:
            li   t0, 40
        hot:
            addi a0, a0, 1
            addi t0, t0, -1
            bnez t0, hot
            addi s2, s2, 1
            li   t1, 2
            bge  s2, t1, done
            li   t1, 0x00250513      # addi a0, a0, 2
            sw   t1, 0(s0)
            fence.i
            j    again
        done:
            li   a7, 93
            ecall
        "#,
        60_000,
        "smc+fence.i",
    );
    assert_eq!(exit, Some(120), "patched instruction must take effect after fence.i");
}

#[test]
fn smc_store_without_fencei_stays_bit_identical() {
    // Same self-modifying store, no fence.i: the store invalidates the
    // decoded block (it mirrors the L1I), but the stale L1I itself is the
    // modeled behaviour — whatever instruction stream the reference
    // interpreter sees, the fast path must see the same one.
    let exit = run_both(
        r#"
            li   a0, 0
            li   s2, 0
            la   s0, hot
        again:
            li   t0, 40
        hot:
            addi a0, a0, 1
            addi t0, t0, -1
            bnez t0, hot
            addi s2, s2, 1
            li   t1, 2
            bge  s2, t1, done
            li   t1, 0x00250513      # addi a0, a0, 2
            sw   t1, 0(s0)
            j    again
        done:
            li   a7, 93
            ecall
        "#,
        60_000,
        "smc, no fence.i",
    );
    assert!(exit.is_some(), "program must still exit");
}

#[test]
fn block_straddling_a_page_boundary_is_invalidated_across_it() {
    // `hot` sits 8 bytes before a 4 KiB page boundary, so its decoded
    // block spans two pages. The program warms it, then patches the
    // instruction on the *second* page (hot+8): the range invalidation
    // must catch a block whose start lies on the previous page.
    let exit = run_both(
        r#"
            j    main
            .zero 4084
        hot:                         # base+4088: last 8 bytes of page 0
            addi a0, a0, 1
            addi a0, a0, 10
            addi a0, a0, 100         # base+4096: first slot of page 1
            jr   ra
        main:
            li   a0, 0
            li   s1, 10
            la   s0, hot
        warm:
            jalr ra, 0(s0)
            addi s1, s1, -1
            bnez s1, warm            # a0 = 10 * 111 = 1110
            li   t1, 0x0C850513      # addi a0, a0, 200
            sw   t1, 8(s0)
            fence.i
            li   s1, 10
        rerun:
            jalr ra, 0(s0)
            addi s1, s1, -1
            bnez s1, rerun           # a0 += 10 * 211 = 2110
            li   a7, 93
            ecall
        "#,
        120_000,
        "page-straddling block",
    );
    assert_eq!(exit, Some(3220), "patch on the second page must invalidate the straddling block");
}

#[test]
fn mmio_read_inside_a_hot_block_stays_bit_identical() {
    // The hot loop reads CLINT mtime (an MMIO access that suspends the
    // block mid-replay and whose value is the guest clock itself). The
    // accumulated sum is exquisitely sensitive to any clock skew the
    // scheduler's sleep/warp machinery might introduce: one elided mtime
    // tick and the exit codes diverge.
    let exit = run_both(
        &format!(
            r#"
            li   s0, {MTIME:#x}
            li   t0, 30
            li   a0, 0
        poll:
            ld   t1, 0(s0)
            add  a0, a0, t1
            addi t0, t0, -1
            bnez t0, poll
            li   a7, 93
            ecall
        "#
        ),
        60_000,
        "mmio in block",
    );
    assert!(exit.is_some(), "mtime loop must exit");
    assert_ne!(exit, Some(0), "mtime must be advancing");
}

#[test]
fn exception_mid_block_vectors_and_resumes_bit_identically() {
    // Every loop iteration raises a load-misaligned exception from the
    // middle of the hot block; the handler skips the faulting instruction
    // and execution resumes inside the same block. 20 iterations of
    // (+3, trap, +5) must leave a0 = 160 in both modes.
    let exit = run_both(
        r#"
            la   t0, handler
            csrw mtvec, t0
            li   a0, 0
            li   s1, 20
            li   s2, 0x2001          # misaligned for ld
        loop:
            addi a0, a0, 3
            ld   t2, 0(s2)           # traps every iteration
            addi a0, a0, 5
            addi s1, s1, -1
            bnez s1, loop
            li   a7, 93
            ecall
        handler:
            csrr t3, mepc
            addi t3, t3, 4
            csrw mepc, t3
            mret
        "#,
        60_000,
        "exception mid-block",
    );
    assert_eq!(exit, Some(160), "handler must skip exactly the faulting load each iteration");
}

#[test]
fn unhandled_exception_mid_block_halts_identically() {
    // Same fault with no trap vector installed: the core must halt, at
    // the same cycle and with the same architectural state, under both
    // decode modes.
    let exit = run_both(
        r#"
            li   a0, 0
            li   s1, 20
            li   s2, 0x2001
        loop:
            addi a0, a0, 3
            addi s1, s1, -1
            bnez s1, loop
            ld   t2, 0(s2)           # first fault halts the core
            li   a7, 93
            ecall
        "#,
        60_000,
        "unhandled exception",
    );
    assert_eq!(exit, Some(u64::MAX - 2), "unhandled trap must halt with the trap exit code");
}

/// Builds a 2-FPGA TraceCore contention platform (cross-FPGA atomics with
/// interleaved compute), deterministic so twins are identical.
fn contention_platform() -> Platform {
    let cfg = Config::new(2, 1, 2);
    let total = cfg.total_tiles();
    let counter = DRAM_BASE + 0x9000;
    let mut p = Platform::new(cfg);
    for g in 0..total {
        let (node, tile) = (g / 2, (g % 2) as u16);
        let mut ops = Vec::new();
        let private = DRAM_BASE + 0x20_0000 + g as u64 * 4096;
        for i in 0..400u64 {
            ops.push(TraceOp::Compute((g as u64 * 7 + i * 13) % 90 + 10));
            ops.push(TraceOp::AmoAdd(counter, 1));
            if i % 3 == 0 {
                ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
            }
        }
        p.set_engine(node, tile, Box::new(TraceCore::new(format!("c{g}"), ops)));
    }
    p
}

#[test]
fn snapshot_restore_with_fast_path_stays_bit_exact() {
    // The block cache and every sleep/warp schedule are *derived* state:
    // a snapshot taken mid-run with the fast path on, restored into a
    // fresh platform, must continue bit-exactly — against both the
    // uninterrupted fast run and an uninterrupted reference-mode run.
    let mut live = contention_platform();
    live.run(30_000);
    let snap = live.snapshot();

    let mut restored = contention_platform();
    restored.restore(&snap).expect("clean restore");
    assert_bit_identical(&live, &restored, "post-restore");

    live.run(30_000);
    restored.run(30_000);
    assert_bit_identical(&live, &restored, "restored fast run");

    let mut reference = contention_platform();
    reference.set_fast_path(false);
    reference.run(60_000);
    assert_bit_identical(&live, &reference, "fast vs reference after restore");

    // And a cross-mode restore: the same snapshot read back into a
    // reference-mode platform must land on the same state again.
    let mut ref_restored = contention_platform();
    ref_restored.set_fast_path(false);
    ref_restored.restore(&snap).expect("clean restore into reference mode");
    ref_restored.run(30_000);
    assert_bit_identical(&live, &ref_restored, "reference continuation of a fast snapshot");
}

#[test]
fn fast_serial_fast_parallel_and_reference_agree() {
    // The satellite matrix in one place: fast-serial ≡ fast-parallel ≡
    // reference-serial on a cross-FPGA contention workload.
    let mut fast_serial = contention_platform();
    let mut fast_parallel = contention_platform();
    let mut reference = contention_platform();
    reference.set_fast_path(false);
    fast_serial.run(120_000);
    fast_parallel.run_parallel(120_000);
    reference.run(120_000);
    assert_bit_identical(&fast_serial, &fast_parallel, "fast serial vs fast parallel");
    assert_bit_identical(&fast_serial, &reference, "fast serial vs reference serial");
    let perf = fast_serial.host_perf();
    assert!(
        perf.skipped_tile_cycles > 0,
        "contention workload must let the scheduler elide some tile ticks"
    );
}

/// A compute hart of the busy-tile platform: a xorshift ALU loop that
/// polls `flag` every 64 rounds and counts the changes it sees in s9.
/// Hart 0 also takes interrupts: software (IPI) ones, cleared through its
/// MSIP register and counted in s10, and a periodic timer, re-armed 4000
/// cycles ahead and counted in s11.
fn busy_compute_hart(hart: u64, flag: u64) -> String {
    let irqs = if hart == 0 {
        r#"
            li   t1, 0xBFF8
            add  t1, t1, s1
            ld   t2, 0(t1)           # mtime
            li   t3, 1500
            add  t2, t2, t3
            li   t4, 0x4000
            add  t4, t4, s1
            sd   t2, 0(t4)           # mtimecmp[0] = mtime + 1500
            li   t1, 0x88            # MSIE | MTIE
            csrw mie, t1
            li   t1, 8               # mstatus.MIE
            csrs mstatus, t1
        "#
    } else {
        ""
    };
    format!(
        r#"
            la   t0, handler
            csrw mtvec, t0
            li   s0, {flag:#x}
            li   s1, {clint:#x}
            li   s8, 0
            li   s9, 0
            li   s10, 0
            li   s11, 0
            li   a0, {seed}
            {irqs}
        poll:
            li   t2, 64
        alu:
            slli t3, a0, 13
            xor  a0, a0, t3
            srli t3, a0, 7
            xor  a0, a0, t3
            slli t3, a0, 17
            xor  a0, a0, t3
            addi t2, t2, -1
            bnez t2, alu
            ld   t4, 0(s0)
            beq  t4, s8, poll
            mv   s8, t4
            addi s9, s9, 1
            j    poll
        handler:
            csrr t5, mcause
            andi t5, t5, 0xff
            li   t6, 7
            beq  t5, t6, timer
            sw   zero, {msip}(s1)    # clear our MSIP
            addi s10, s10, 1
            mret
        timer:
            li   t6, 0xBFF8
            add  t6, t6, s1
            ld   t5, 0(t6)
            li   t6, 4000
            add  t5, t5, t6
            li   t6, 0x4000
            add  t6, t6, s1
            sd   t5, 0(t6)           # mtimecmp[0] = mtime + 4000
            addi s11, s11, 1
            mret
        "#,
        clint = CLINT_BASE,
        seed = 0x1234_5678 + hart * 0x9E37,
        msip = 4 * hart,
    )
}

/// The busy-tile platform: one node of four Ariane tiles. Harts 0-2 run
/// [`busy_compute_hart`]; hart 3 bumps the shared flag every ~1500 cycles
/// and raises an IPI at hart 0 on every other bump.
fn busy_tile_platform() -> Platform {
    let mut p = Platform::new(Config::new(1, 1, 4));
    let flag = DRAM_BASE + 0x20_0000;
    let writer = format!(
        r#"
            li   s0, {flag:#x}
            li   s1, {clint:#x}
            li   s2, 0
        bump:
            li   t0, 500
        spin:
            addi t0, t0, -1
            bnez t0, spin
            addi s2, s2, 1
            sd   s2, 0(s0)
            andi t1, s2, 1
            beqz t1, bump
            li   t2, 1
            sw   t2, 0(s1)           # MSIP[hart 0]
            j    bump
        "#,
        clint = CLINT_BASE,
    );
    let sources = [
        busy_compute_hart(0, flag),
        busy_compute_hart(1, flag),
        busy_compute_hart(2, flag),
        writer,
    ];
    for (hart, src) in sources.iter().enumerate() {
        let base = DRAM_BASE + 0x1_0000 * (hart as u64 + 1);
        let img = smappic::isa::assemble(src, base).expect("busy-tile kernel assembles");
        p.load_image(&img);
        let map = p.addr_map(0);
        let core = ArianeCore::new(ArianeConfig::new(hart as u64, base, map));
        p.set_engine(0, hart as u16, Box::new(core));
    }
    p
}

#[test]
fn busy_tiles_with_shared_polling_ipis_and_timers_stay_bit_identical() {
    // Every tile is compute-bound, so it almost never sleeps: this drives
    // the busy tile path (quiet caches skipped, empty pumps elided) through egress
    // from busy tiles, ejection into busy tiles and interrupts reaching a
    // core that never stops. Compare the twins every 5k cycles.
    let mut fast = busy_tile_platform();
    let mut reference = busy_tile_platform();
    reference.set_fast_path(false);
    for step in 1..=12 {
        fast.run(5_000);
        reference.run(5_000);
        assert_bit_identical(&fast, &reference, &format!("busy tiles @ {}k", step * 5));
    }
    let core = |t: u16| {
        fast.node(0).tile(t).engine().as_any().downcast_ref::<ArianeCore>().expect("ariane")
    };
    for t in 0..4 {
        assert_eq!(core(t).exit_code(), None, "tile {t} must still be running");
    }
    let hart0 = core(0).hart();
    assert!(hart0.reg(26) > 0, "hart 0 never took an IPI");
    assert!(hart0.reg(27) > 0, "no timer interrupt fired");
    for t in 0..3 {
        assert!(core(t).hart().reg(25) > 0, "tile {t} never saw the shared flag change");
    }
    let perf = fast.host_perf();
    assert!(perf.block_cache_hits > 0, "fast run never hit the block cache (vacuous)");
    // Tiles sleep only while a core waits on memory: the busy path runs
    // on all but a few percent of tile-cycles.
    assert!(perf.skipped_tile_cycles < 4 * 60_000 / 10, "tiles must be busy, not asleep");
}
