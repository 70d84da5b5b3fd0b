//! Seeded input generators. Every trace op, Ariane seed value and
//! `JobSpec` is a pure function of the workload seed; the simulator only
//! ever sees the generated inputs.

use smappic_core::{Config, Platform, Topology, DRAM_BASE};
use smappic_isa::assemble;
use smappic_service::{
    ElasticPolicy, JobSpec, PreemptMode, SchedulerConfig, TenantQuota, WorkloadSpec,
};
use smappic_sim::{EthParams, SimRng};
use smappic_tile::{ArianeConfig, ArianeCore, TraceCore, TraceOp};

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 FPGAs x 2 nodes x 2 tiles on a PCIe star; every tile fires an
    /// atomic on one shared counter every ~10 cycles plus private stores.
    AmoSaturated,
    /// The same shape with a real RV64 Ariane core per tile running the
    /// taus88 ALU loop.
    ArianeCompute,
    /// 16 FPGAs x 1 node x 1 tile on the switched Ethernet leaf/spine
    /// fabric (two groups of 8), sparse DRAM, AMO load homed on node 0.
    RackEth16,
    /// 1200 tiny AMO jobs from 4 tenants through `Scheduler::run_fleet`
    /// on a 2-worker pool.
    FleetSaturated,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] =
        [Self::AmoSaturated, Self::ArianeCompute, Self::RackEth16, Self::FleetSaturated];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::AmoSaturated => "amo_saturated",
            Self::ArianeCompute => "ariane_compute",
            Self::RackEth16 => "rack_eth16",
            Self::FleetSaturated => "fleet_saturated",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Salt mixed into the seed so workloads sharing a seed still draw
    /// independent streams.
    fn salt(self) -> u64 {
        match self {
            Self::AmoSaturated => 0xA40_5A7,
            Self::ArianeCompute => 0x00A6_1A7E,
            Self::RackEth16 => 0x7AC_E716,
            Self::FleetSaturated => 0x000F_1EE7,
        }
    }
}

/// Guest DRAM per node on the rack: keeps sparse backing small while
/// every node still homes its own private lines.
const RACK_BYTES_PER_NODE: u64 = 16 << 20;

/// Shared counter every AMO workload hammers (homed on node 0).
const COUNTER: u64 = DRAM_BASE + 0xA000;

/// A platform workload: a topology plus the per-tile load, generated
/// from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct PlatformWorkload {
    /// Which platform workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
}

impl PlatformWorkload {
    /// # Panics
    ///
    /// On [`Workload::FleetSaturated`], which is not a platform workload.
    pub fn new(workload: Workload, seed: u64) -> Self {
        assert!(workload != Workload::FleetSaturated, "the fleet is not a platform workload");
        Self { workload, seed }
    }

    /// The platform configuration (no engines installed).
    pub fn config(&self) -> Config {
        match self.workload {
            Workload::RackEth16 => {
                let mut cfg = Config::rack(16, 1, 1, Topology::Ethernet(EthParams::default()));
                cfg.params.bytes_per_node = RACK_BYTES_PER_NODE;
                cfg
            }
            _ => Config::new(2, 2, 2),
        }
    }

    /// Builds the platform and installs the load, sized so that no engine
    /// can finish within `cycles` simulated cycles (the steady-load guard
    /// checks that none did).
    pub fn build(&self, cycles: u64) -> Platform {
        let cfg = self.config();
        let total = cfg.total_tiles();
        let tiles = cfg.tiles_per_node;
        let mut p = Platform::new(cfg);
        let mut rng = SimRng::new(self.seed ^ self.workload.salt());
        for g in 0..total {
            let (node, tile) = (g / tiles, (g % tiles) as u16);
            let map = p.addr_map(node);
            match self.workload {
                Workload::AmoSaturated => {
                    let private = DRAM_BASE + 0x40_0000 + g as u64 * 4096;
                    let ops = amo_trace(&mut rng, cycles, private);
                    p.set_engine(
                        node,
                        tile,
                        Box::new(TraceCore::with_addr_map(format!("w{g}"), ops, map)),
                    );
                }
                Workload::RackEth16 => {
                    let private = DRAM_BASE + g as u64 * RACK_BYTES_PER_NODE + 0x4_0000;
                    let ops = amo_trace(&mut rng, cycles, private);
                    p.set_engine(
                        node,
                        tile,
                        Box::new(TraceCore::with_addr_map(format!("r{g}"), ops, map)),
                    );
                }
                Workload::ArianeCompute => {
                    // Per-tile code so every core fetches from its own lines.
                    let base = DRAM_BASE + 0x100_0000 + g as u64 * 0x1_0000;
                    let img = assemble(&taus88_kernel(&mut rng, cycles), base)
                        .expect("the taus88 kernel assembles");
                    p.load_image(&img);
                    let core = ArianeCore::new(ArianeConfig::new(g as u64, base, map));
                    p.set_engine(node, tile, Box::new(core));
                }
                Workload::FleetSaturated => unreachable!("rejected in new()"),
            }
        }
        p
    }
}

/// One AMO-heavy trace: compute 1-20 cycles, an atomic add on the shared
/// counter, and a private store half of the time. A group takes well over
/// 8 cycles (the atomic alone crosses the mesh), so `cycles / 8` groups
/// cannot drain inside `cycles`.
fn amo_trace(rng: &mut SimRng, cycles: u64, private: u64) -> Vec<TraceOp> {
    let groups = cycles / 8 + 16;
    let mut ops = Vec::with_capacity(groups as usize * 3);
    for i in 0..groups {
        ops.push(TraceOp::Compute(rng.gen_range(20) + 1));
        ops.push(TraceOp::AmoAdd(COUNTER, 1));
        if rng.chance(0.5) {
            ops.push(TraceOp::StoreVal(private + (i % 16) * 64, i));
        }
    }
    ops
}

/// The taus88 generator stepped in a tight loop: straight-line ALU work
/// between short backward branches, the shape the decoded basic-block
/// cache is built for. The three state words come from `rng`; the trip
/// count is `cycles`, and each trip retires 20 instructions at no more
/// than one per cycle, so the loop cannot exit inside `cycles`.
pub fn taus88_kernel(rng: &mut SimRng, cycles: u64) -> String {
    // taus88 needs s1 > 1, s2 > 7, s3 > 15; keep them 31-bit so `li`
    // stays a two-instruction sequence.
    let s = |rng: &mut SimRng, min: u64| (rng.next_u64() & 0x7fff_ffff).max(min + 1);
    let (s3, s4, s5) = (s(rng, 1), s(rng, 7), s(rng, 15));
    let trips = cycles.clamp(1, 0x7fff_ffff);
    format!(
        r#"
        li   s3, {s3}
        li   s4, {s4}
        li   s5, {s5}
        li   a1, {trips}
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
    )
}

/// Instructions one taus88 loop trip retires.
pub const TAUS88_TRIP_INSTRS: u64 = 20;

/// The fleet's tenants in priority order: interactive debug sessions
/// outrank CI runs outrank batch sweeps outrank best-effort scavengers.
pub const TENANTS: [(&str, u8); 4] =
    [("interactive", 6), ("ci", 4), ("batch", 2), ("best-effort", 0)];

/// Jobs submitted per fleet.
pub const FLEET_JOBS: usize = 1200;

/// Per-job cycle budget (also what admission reserves).
const FLEET_JOB_BUDGET: u64 = 400_000;

/// The saturated fleet: [`FLEET_JOBS`] tiny AMO contention jobs, tenant
/// and priority by index, trace length and trace seed drawn from `seed`.
pub fn fleet_specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = SimRng::new(seed ^ Workload::FleetSaturated.salt());
    (0..FLEET_JOBS)
        .map(|i| {
            let (tenant, priority) = TENANTS[i % TENANTS.len()];
            let ops = 15 + rng.gen_range(5) * 5;
            let mut spec = JobSpec::small(
                &format!("sat-{i}"),
                WorkloadSpec::AmoHeavy { ops, seed: rng.next_u64() },
            );
            spec.tenant = tenant.to_string();
            spec.priority = priority;
            spec.budget = FLEET_JOB_BUDGET;
            // Interactive jobs are latency-facing and carry deadlines.
            if tenant == "interactive" {
                spec.deadline_cycles = Some(spec.budget);
            }
            spec
        })
        .collect()
}

/// Fleet admission outcome the policy fixes: `(queue_full, cycle_quota)`
/// rejections at [`FLEET_JOBS`] submissions.
pub const FLEET_REJECTIONS: (u64, u64) = (150, 150);

/// Pool size of the fleet.
pub const FLEET_WORKERS: usize = 2;

/// The `servebench --fleet-scale` scheduler shape at a 2-worker pool:
/// bounded queue at 3/4 of the fleet, interactive tenant capped in
/// flight, batch tenant on a cycle budget admitting half its jobs,
/// `WhenOutranked` preemption, 5k-cycle quanta.
pub fn fleet_scheduler() -> SchedulerConfig {
    let per_tenant = (FLEET_JOBS / TENANTS.len()) as u64;
    SchedulerConfig {
        workers: FLEET_WORKERS,
        quantum: 5_000,
        preempt: PreemptMode::WhenOutranked,
        max_pending: FLEET_JOBS * 3 / 4,
        quotas: vec![
            TenantQuota::in_flight("interactive", FLEET_WORKERS.div_ceil(2)),
            TenantQuota {
                tenant: "batch".into(),
                max_in_flight: FLEET_WORKERS,
                cycle_budget: Some(per_tenant / 2 * FLEET_JOB_BUDGET),
            },
        ],
        elastic: Some(ElasticPolicy::range(FLEET_WORKERS, FLEET_WORKERS)),
        ..SchedulerConfig::default()
    }
}
