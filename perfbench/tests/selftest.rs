//! The benchmark's own checks: inputs are pure functions of the seed,
//! every workload's architectural digest repeats exactly, and the metric
//! catalogue matches `BENCHMARK.json`.

use smappic_perfbench::gen::{fleet_specs, PlatformWorkload, Workload};
use smappic_perfbench::layers::load_guard;
use smappic_perfbench::platform::Plan;
use smappic_perfbench::report::{END_TO_END, PER_LAYER};
use smappic_service::{digest_platform, Scheduler};

const PLATFORM: [Workload; 3] =
    [Workload::AmoSaturated, Workload::ArianeCompute, Workload::RackEth16];

#[test]
fn fleet_specs_are_a_pure_function_of_the_seed() {
    let text = |seed| fleet_specs(seed).iter().map(|s| s.to_text()).collect::<Vec<_>>();
    assert_eq!(text(7), text(7));
    assert_ne!(text(7), text(8));
    let digests = |seed| {
        fleet_specs(seed)
            .iter()
            .take(8)
            .map(|s| (s.digest(), s.build().config_digest()))
            .collect::<Vec<_>>()
    };
    assert_eq!(digests(7), digests(7));
}

#[test]
fn platform_inputs_are_a_pure_function_of_the_seed() {
    for w in PLATFORM {
        let build = |seed| {
            PlatformWorkload::new(w, seed).build(Plan::new(&PlatformWorkload::new(w, seed)).trial)
        };
        let (a, b, c) = (build(3), build(3), build(4));
        assert_eq!(a.config_digest(), b.config_digest(), "{w:?}");
        assert_eq!(
            a.snapshot().to_bytes(),
            b.snapshot().to_bytes(),
            "{w:?}: same seed, same image"
        );
        assert_eq!(
            a.config_digest(),
            c.config_digest(),
            "{w:?}: the seed changes the load, not the shape"
        );
        if w == Workload::ArianeCompute {
            // The seed lives in the kernel image (taus88 state words).
            assert_ne!(a.snapshot().to_bytes(), c.snapshot().to_bytes());
        }
    }
}

/// Two fresh runs of each platform workload end in the same
/// architectural digest, under either stepper, with the load still
/// running; a different seed gives a different run.
#[test]
fn platform_digests_repeat_exactly() {
    for w in PLATFORM {
        let plan = Plan::new(&PlatformWorkload::new(w, 5));
        let cycles = plan.slice * 2;
        let run = |seed, parallel: bool| {
            let mut p = PlatformWorkload::new(w, seed).build(plan.trial);
            if parallel {
                p.run_parallel(cycles);
            } else {
                p.run(cycles);
            }
            load_guard(&p).expect("the load outlives the run");
            digest_platform(&p)
        };
        let first = run(5, false);
        assert_eq!(first, run(5, false), "{w:?}: serial rerun");
        assert_eq!(first, run(5, true), "{w:?}: parallel stepper");
        if w != Workload::ArianeCompute {
            assert_ne!(first, run(6, false), "{w:?}: the seed must reach the load");
        }
    }
}

#[test]
fn fleet_job_digests_repeat_exactly() {
    let specs: Vec<_> = fleet_specs(9).into_iter().take(6).collect();
    let a = Scheduler::serial().run(&specs);
    let b = Scheduler::serial().run(&specs);
    for (x, y) in a.iter().zip(&b) {
        assert!(x.is_completed(), "{}: {:?}", x.name, x.exit);
        assert_eq!((x.digest, x.cycles), (y.digest, y.cycles), "{}", x.name);
    }
}

/// Every metric and workload the program reports is declared in
/// `BENCHMARK.json`, and nothing else is.
#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let names = json.matches("\"name\":").count();
    assert_eq!(names, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
    let has = |n: &str| json.contains(&format!("\"name\": \"{n}\""));
    for w in Workload::ALL {
        assert!(has(w.name()), "workload {}", w.name());
    }
    for (n, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(has(n), "metric {n}");
        assert!(json.contains(&format!("\"name\": \"{n}\", \"unit\": \"{unit}\"")), "unit of {n}");
    }
}
