//! Per-layer measurement shared by every workload's traced run: the
//! epoch-granular stepper calls, the counters each layer exposes, the
//! snapshot/codec layer, and the service's fixed-cost calls. Everything
//! here goes through public calls only; spans are recorded around them.

use std::time::Instant;

use smappic_core::Platform;
use smappic_isa::{assemble, run_functional, Hart, RunError, VecBus};
use smappic_service::digest_platform;
use smappic_sim::{codec, SimRng, SnapDelta, Snapshot, Stats, StreamSink};
use smappic_tile::{ArianeCore, TraceCore};

use crate::gen::{taus88_kernel, TAUS88_TRIP_INSTRS};
use crate::measure::{median, percentile, timed, Tracer};
use crate::report::Outcome;

/// Steady-load guard: no trace core may have finished and no Ariane
/// core may have exited, or the timed window partly measured an idle
/// platform instead of the load.
pub fn load_guard(p: &Platform) -> Result<(), String> {
    for g in 0..p.config().total_nodes() {
        let node = p.node(g);
        for t in 0..node.tile_count() {
            let engine = node.tile(t as u16).engine().as_any();
            if let Some(c) = engine.downcast_ref::<TraceCore>().and_then(TraceCore::finished_at) {
                return Err(format!("node {g} tile {t}: trace finished at cycle {c}"));
            }
            if let Some(code) = engine.downcast_ref::<ArianeCore>().and_then(ArianeCore::exit_code)
            {
                return Err(format!("node {g} tile {t}: Ariane core exited with code {code}"));
            }
        }
    }
    Ok(())
}

/// Checks a finished run against the oracle digest and cycle count.
pub fn verify(p: &Platform, cycles: u64, oracle: u64, what: &str) -> Result<(), String> {
    if p.now() != cycles {
        return Err(format!("{what}: stopped at cycle {} instead of {cycles}", p.now()));
    }
    let d = digest_platform(p);
    if d != oracle {
        return Err(format!("{what}: architectural digest {d:#x} != reference {oracle:#x}"));
    }
    Ok(())
}

/// Which epoch-granular stepper call a traced trial drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochCall {
    /// `Platform::run(w)` once per natural epoch width `w`.
    Serial,
    /// `Platform::step_epoch()`.
    Parallel,
}

impl EpochCall {
    /// Span name of one call.
    pub fn span(self) -> &'static str {
        match self {
            Self::Serial => "core.run_epoch",
            Self::Parallel => "core.step_epoch",
        }
    }
}

/// The natural epoch width the epoch drivers use: the global lookahead
/// on an Ethernet rack, the PCIe lookahead on a star, one cycle without
/// either.
pub fn epoch_width(p: &Platform) -> u64 {
    match p.grouped_lookaheads() {
        (0, _) => p.lookahead().max(1),
        (_, global) => global,
    }
}

/// Advances `p` by `cycles` one epoch-granular call at a time, one span
/// per call under `parent`; returns the loop's wall seconds.
pub fn run_by_epochs(
    tr: &mut Tracer,
    req: u32,
    parent: u32,
    p: &mut Platform,
    cycles: u64,
    call: EpochCall,
) -> f64 {
    let w = epoch_width(p);
    let end = p.now() + cycles;
    let t = Instant::now();
    while p.now() < end {
        let id = tr.begin(call.span(), req, parent);
        match call {
            EpochCall::Serial => p.run(w.min(end - p.now())),
            EpochCall::Parallel => {
                p.step_epoch();
            }
        }
        tr.end(id);
    }
    t.elapsed().as_secs_f64()
}

/// Layer counters over a span of simulated cycles: taken from a platform
/// with [`Counters::at`], differenced with [`Counters::since`] and summed
/// over platforms with [`Counters::add`].
#[derive(Debug, Default, Clone)]
pub struct Counters {
    cycles: u64,
    stats: Stats,
    port_pushes: u64,
    port_stalls: u64,
    epochs: u64,
    epoch_cycles: u64,
    tile_cycles: u64,
    chipset_cycles: u64,
    skipped_tile: u64,
    skipped_chipset: u64,
    block_hits: u64,
    block_misses: u64,
    retired: u64,
}

impl Counters {
    /// Everything `p` has counted since reset.
    pub fn at(p: &Platform) -> Self {
        let cycles = p.now();
        let cfg = p.config();
        let m = p.metrics();
        let hp = p.host_perf();
        let mut c = Self {
            cycles,
            stats: p.stats(),
            tile_cycles: cycles * cfg.total_tiles() as u64,
            chipset_cycles: cycles * cfg.total_nodes() as u64,
            skipped_tile: hp.skipped_tile_cycles,
            skipped_chipset: hp.skipped_chipset_cycles,
            block_hits: hp.block_cache_hits,
            block_misses: hp.block_cache_misses,
            ..Self::default()
        };
        for (k, v) in m.counters().iter() {
            if let Some(port) = k.strip_prefix("port.") {
                if port.ends_with(".pushes") {
                    c.port_pushes += v;
                } else if port.ends_with(".stalls") {
                    c.port_stalls += v;
                }
            }
        }
        if let Some(h) = m.histogram("host.epoch_width") {
            c.epochs = h.count();
            c.epoch_cycles = h.sum() as u64;
        }
        for g in 0..cfg.total_nodes() {
            let node = p.node(g);
            for t in 0..node.tile_count() {
                let e = node.tile(t as u16).engine();
                // Retired instructions (`minstret`) for Ariane cores,
                // retired trace ops for trace cores.
                c.retired += match e.as_any().downcast_ref::<ArianeCore>() {
                    Some(a) => a.hart().csrs().minstret,
                    None => e.progress(),
                };
            }
        }
        c
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(&self, earlier: &Self) -> Self {
        let mut stats = Stats::new();
        for (k, v) in self.stats.iter() {
            stats.add(k, v - earlier.stats.get(k));
        }
        Self {
            cycles: self.cycles - earlier.cycles,
            stats,
            port_pushes: self.port_pushes - earlier.port_pushes,
            port_stalls: self.port_stalls - earlier.port_stalls,
            epochs: self.epochs - earlier.epochs,
            epoch_cycles: self.epoch_cycles - earlier.epoch_cycles,
            tile_cycles: self.tile_cycles - earlier.tile_cycles,
            chipset_cycles: self.chipset_cycles - earlier.chipset_cycles,
            skipped_tile: self.skipped_tile - earlier.skipped_tile,
            skipped_chipset: self.skipped_chipset - earlier.skipped_chipset,
            block_hits: self.block_hits - earlier.block_hits,
            block_misses: self.block_misses - earlier.block_misses,
            retired: self.retired - earlier.retired,
        }
    }

    /// Sums `other` into `self`.
    pub fn add(&mut self, other: &Self) {
        self.cycles += other.cycles;
        self.stats.merge(&other.stats);
        self.port_pushes += other.port_pushes;
        self.port_stalls += other.port_stalls;
        self.epochs += other.epochs;
        self.epoch_cycles += other.epoch_cycles;
        self.tile_cycles += other.tile_cycles;
        self.chipset_cycles += other.chipset_cycles;
        self.skipped_tile += other.skipped_tile;
        self.skipped_chipset += other.skipped_chipset;
        self.block_hits += other.block_hits;
        self.block_misses += other.block_misses;
        self.retired += other.retired;
    }

    /// Simulated cycles covered.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    fn per_k(&self, v: u64) -> f64 {
        v as f64 * 1000.0 / self.cycles.max(1) as f64
    }

    /// `a / b`, or 0 when the layer did no work (`b == 0`).
    fn ratio(a: u64, b: u64) -> f64 {
        Self::ratio_f(a as f64, b)
    }

    fn ratio_f(a: f64, b: u64) -> f64 {
        if b == 0 {
            0.0
        } else {
            a / b as f64
        }
    }

    /// Records the count metrics, plus the host-time-per-work metrics
    /// given the fast-serial wall seconds those cycles took.
    pub fn record(&self, out: &mut Outcome, serial_secs: f64) {
        let s = |k: &str| self.stats.get(k);
        out.set("core.epochs", self.per_k(self.epochs));
        out.set("core.epoch_width_mean", Self::ratio(self.epoch_cycles, self.epochs));
        out.set("core.tile_skip_frac", Self::ratio(self.skipped_tile, self.tile_cycles));
        out.set("core.chipset_skip_frac", Self::ratio(self.skipped_chipset, self.chipset_cycles));
        out.set(
            "isa.block_hit_rate",
            Self::ratio(self.block_hits, self.block_hits + self.block_misses),
        );
        out.set("isa.block_misses", self.per_k(self.block_misses));
        out.set("tile.retired_per_cycle", Self::ratio(self.retired, self.tile_cycles));
        out.set("tile.host_ns_per_instr", Self::ratio_f(serial_secs * 1e9, self.retired));
        out.set("noc.flits", self.per_k(s("noc.flits")));
        out.set("noc.delivered", self.per_k(s("noc.delivered")));
        out.set("noc.host_ns_per_flit", Self::ratio_f(serial_secs * 1e9, s("noc.flits")));
        out.set("coherence.bpc_miss", self.per_k(s("bpc.miss")));
        out.set("coherence.bpc_hit", self.per_k(s("bpc.hit")));
        out.set("coherence.llc_miss", self.per_k(s("llc.miss")));
        out.set("coherence.llc_hit", self.per_k(s("llc.hit")));
        out.set("coherence.llc_amo", self.per_k(s("llc.amo")));
        out.set("coherence.recall_nack", self.per_k(s("bpc.recall_nack") + s("llc.recall_nack")));
        out.set("mem.dram_req", self.per_k(s("dram.req")));
        out.set("axi.xbar_req", self.per_k(s("xbar.req")));
        out.set("axi.shell_out_req", self.per_k(s("shell.out_req")));
        out.set("axi.shell_guard_retry", self.per_k(s("shell.guard_retry")));
        out.set("sim.port_pushes", self.per_k(self.port_pushes));
        out.set("sim.port_stalls", self.per_k(self.port_stalls));
        out.set("sim.eth_frames", self.per_k(s("eth.frames")));
        out.note("counted_cycles", self.cycles);
    }
}

/// `core.stats_us`: one `stats()` plus `metrics().architectural()`, the
/// pair every digest and report pays; median of `reps` calls.
pub fn stats_us(p: &Platform, reps: usize) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let ((s, m), secs) = timed(|| (p.stats(), p.metrics().architectural()));
            std::hint::black_box((s, m));
            secs * 1e6
        })
        .collect();
    median(&v)
}

/// `isa.functional_mips`: bare `run_functional` over the taus88 kernel,
/// the ceiling a tile's ISS could reach. Median of three runs.
pub fn functional_mips(seed: u64) -> Result<f64, String> {
    const FUEL: u64 = 10_000_000;
    const BASE: u64 = 0x1000;
    let mut rng = SimRng::new(seed);
    let img = assemble(&taus88_kernel(&mut rng, FUEL / TAUS88_TRIP_INSTRS + 1), BASE)
        .map_err(|e| format!("taus88 kernel: {e:?}"))?;
    let mut rates = Vec::new();
    for _ in 0..3 {
        let mut bus = VecBus::new(0x1_0000);
        bus.load_image(&img);
        let mut hart = Hart::new(0, BASE);
        let (r, secs) = timed(|| run_functional(&mut hart, &mut bus, FUEL));
        if r != Err(RunError::OutOfFuel) {
            return Err(format!("functional taus88 stopped early: {r:?}"));
        }
        rates.push(FUEL as f64 / secs / 1e6);
    }
    Ok(median(&rates))
}

/// The snapshot layer at the end of a run: raw and compressed-stream
/// sizes, `snapshot_to` and `restore_from` wall time into a fresh twin
/// from `build`, and the codec's rates on this platform's own image.
/// The restored twin must digest identically.
pub fn snapshot_layer(
    tr: &mut Tracer,
    req: u32,
    p: &Platform,
    build: &dyn Fn() -> Platform,
    out: &mut Outcome,
) -> Result<(), String> {
    let raw = p.snapshot().to_bytes();
    let want = digest_platform(p);
    let (mut enc, mut dec, mut comp, mut decomp) = (vec![], vec![], vec![], vec![]);
    let mut stream = Vec::new();
    for _ in 0..3 {
        stream.clear();
        let id = tr.begin("snap.snapshot_to", req, 0);
        let mut sink = StreamSink::new(&mut stream, true);
        let r = p.snapshot_to(&mut sink);
        enc.push(tr.end(id) / 1e3);
        r.map_err(|e| format!("snapshot_to: {e}"))?;
        let mut twin = build();
        let id = tr.begin("snap.restore_from", req, 0);
        let r = twin.restore_from(&stream[..]);
        dec.push(tr.end(id) / 1e3);
        r.map_err(|e| format!("restore_from: {e}"))?;
        if digest_platform(&twin) != want {
            return Err("restore_from produced a different platform".into());
        }
        let id = tr.begin("codec.compress", req, 0);
        let z = codec::compress(&raw);
        comp.push(raw.len() as f64 / tr.end(id));
        let id = tr.begin("codec.decompress", req, 0);
        let back = codec::decompress(&z);
        decomp.push(raw.len() as f64 / tr.end(id));
        if back.as_deref() != Ok(&raw[..]) {
            return Err("codec round trip changed the snapshot bytes".into());
        }
    }
    out.set("snap.raw_kb", raw.len() as f64 / 1024.0);
    out.set("snap.stream_kb", stream.len() as f64 / 1024.0);
    out.set("snap.encode_ms", median(&enc));
    out.set("snap.decode_ms", median(&dec));
    // bytes per microsecond == MB/s
    out.set("codec.compress_mbps", median(&comp));
    out.set("codec.decompress_mbps", median(&decomp));
    Ok(())
}

/// A parked job as the scheduler holds it: a compressed full stream and,
/// when it pays, a compressed delta against it.
#[derive(Debug)]
pub struct Parked {
    base: Vec<u8>,
    delta: Option<Vec<u8>>,
}

impl Parked {
    /// Bytes held while parked.
    pub fn stored_bytes(&self) -> u64 {
        (self.base.len() + self.delta.as_ref().map_or(0, Vec::len)) as u64
    }
}

/// The scheduler's park path through public calls: snapshot, raw wire
/// size, then a compressed delta against the previous park's base when
/// it is at most half the base, else a fresh compressed stream. Returns
/// the parked state and the raw snapshot size.
pub fn park(prev: Option<&Parked>, p: &Platform) -> (Parked, u64) {
    let snap = p.snapshot();
    let raw = snap.to_bytes().len() as u64;
    if let Some(prev) = prev {
        if let Ok(base) = Snapshot::from_stream_bytes(&prev.base) {
            if let Ok(d) = SnapDelta::between(&base, &snap) {
                let dz = codec::compress(&d.to_bytes());
                if dz.len().saturating_mul(2) <= prev.base.len() {
                    return (Parked { base: prev.base.clone(), delta: Some(dz) }, raw);
                }
            }
        }
    }
    (Parked { base: snap.to_stream_bytes(true), delta: None }, raw)
}

/// The scheduler's resume path through public calls: decode the base
/// stream, decompress and apply the delta, restore into `p`.
pub fn unpark(parked: &Parked, p: &mut Platform) -> Result<(), String> {
    let base = Snapshot::from_stream_bytes(&parked.base).map_err(|e| format!("base: {e}"))?;
    let snap = match &parked.delta {
        Some(dz) => {
            let raw = codec::decompress(dz).map_err(|e| format!("delta codec: {e:?}"))?;
            let d = SnapDelta::from_bytes(&raw).map_err(|e| format!("delta: {e}"))?;
            base.apply_delta(&d).map_err(|e| format!("apply_delta: {e}"))?
        }
        None => base,
    };
    p.restore(&snap).map_err(|e| format!("restore: {e}"))
}

/// Per-call timings of the service's fixed-cost path, in microseconds.
#[derive(Debug, Default)]
pub struct ServiceCalls {
    /// `JobSpec::from_text`.
    pub parse: Vec<f64>,
    /// `JobSpec::build` (or the workload's own build).
    pub build: Vec<f64>,
    /// `run_preemptible` wall and the cycles it advanced.
    pub run: Vec<(f64, u64)>,
    /// Park path ([`park`]).
    pub park: Vec<f64>,
    /// Resume path ([`unpark`]).
    pub restore: Vec<f64>,
    /// `digest_platform`.
    pub digest: Vec<f64>,
    /// `progress_signature`.
    pub watchdog: Vec<f64>,
    /// Raw snapshot bytes over all parks.
    pub raw_bytes: u64,
    /// Bytes held over all parks.
    pub stored_bytes: u64,
}

impl ServiceCalls {
    /// Records the `service.*` metrics (`service.parse_us` is 0 when no
    /// spec text was parsed).
    pub fn record(&self, out: &mut Outcome) {
        let (us, cycles) = self.run.iter().fold((0.0, 0u64), |(u, c), &(us, cy)| (u + us, c + cy));
        out.set("service.parse_us", median(&self.parse));
        out.set("service.build_us", median(&self.build));
        out.set("service.run_us_per_kcycle", us * 1000.0 / cycles.max(1) as f64);
        out.set("service.park_encode_us", median(&self.park));
        out.set("service.restore_decode_us", median(&self.restore));
        out.set("service.digest_us", median(&self.digest));
        out.set("service.watchdog_us", median(&self.watchdog));
        out.set(
            "service.park_ratio",
            if self.raw_bytes == 0 {
                0.0
            } else {
                self.stored_bytes as f64 / self.raw_bytes as f64
            },
        );
    }
}

/// Parks `p` (after `prev`), resumes it into a fresh twin from `build`
/// and checks the twin digests identically; the park/restore/build
/// calls are timed into `calls` and recorded as spans.
pub fn park_and_resume(
    tr: &mut Tracer,
    req: u32,
    parent: u32,
    prev: Option<&Parked>,
    p: &Platform,
    build: &dyn Fn() -> Platform,
    calls: &mut ServiceCalls,
) -> Result<(Platform, Parked), String> {
    let id = tr.begin("service.park_encode", req, parent);
    let (parked, raw) = park(prev, p);
    calls.park.push(tr.end(id));
    calls.raw_bytes += raw;
    calls.stored_bytes += parked.stored_bytes();
    let id = tr.begin("service.build", req, parent);
    let mut twin = build();
    calls.build.push(tr.end(id));
    let id = tr.begin("service.restore_decode", req, parent);
    let r = unpark(&parked, &mut twin);
    calls.restore.push(tr.end(id));
    r?;
    if twin.now() != p.now() || digest_platform(&twin) != digest_platform(p) {
        return Err(format!("park/resume at cycle {} changed the platform", p.now()));
    }
    Ok((twin, parked))
}

/// Times `progress_signature`, the watchdog's per-quantum sample.
pub fn watchdog(tr: &mut Tracer, req: u32, parent: u32, p: &Platform, calls: &mut ServiceCalls) {
    let id = tr.begin("service.watchdog", req, parent);
    std::hint::black_box(p.progress_signature());
    calls.watchdog.push(tr.end(id));
}

/// Times `digest_platform` and returns the digest.
pub fn digest(
    tr: &mut Tracer,
    req: u32,
    parent: u32,
    p: &Platform,
    calls: &mut ServiceCalls,
) -> u64 {
    let id = tr.begin("service.digest", req, parent);
    let d = digest_platform(p);
    calls.digest.push(tr.end(id));
    d
}

/// Nearest-rank p50/p99 of the spans named `name`, in microseconds.
pub fn epoch_percentiles(tr: &Tracer, name: &str) -> (f64, f64) {
    let v = tr.us_of(name);
    (percentile(&v, 50.0), percentile(&v, 99.0))
}
