//! The benchmark's own checks: its names match `BENCHMARK.json`, a wrong
//! reference digest fails the run, the seed reaches the builder, and the
//! host-speed probe leaves the simulation alone.

use gdisim_perfbench::{
    digest, parse_args, per_layer_names, run, run_pass, Command, Config, Mode, Outcome, Plan,
    References, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED,
};
use gdisim_types::SimDuration;

/// A ten-minute plan; `churn-ckpt` checkpoints every two minutes.
fn short(workload: Workload) -> Plan {
    Plan {
        workload,
        span: SimDuration::from_mins(10),
        checkpoint_every: (workload == Workload::ChurnCkpt).then(|| SimDuration::from_mins(2)),
    }
}

/// The digests of `plan` at the pinned seeds, as the code computes them.
fn references(plan: &Plan) -> References {
    let mut refs = References::default();
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let pass = run_pass(plan, seed, Mode::Plain).expect("pass runs");
        refs.set(plan, seed, digest(pass.sim.report()));
    }
    refs
}

fn run_short(plan: Plan, seed: u64, trace: bool, refs: &References) -> (Outcome, String) {
    let cfg = Config {
        plan,
        seed,
        seconds: 1e-3,
        trace,
    };
    let mut out = Vec::new();
    let outcome = run(&cfg, refs, &mut out).expect("run completes");
    (outcome, String::from_utf8(out).expect("utf-8 output"))
}

fn names(v: &serde::Value, key: &str) -> Vec<(String, String)> {
    let list = v
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .and_then(|(_, l)| l.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
    list.iter()
        .map(|item| {
            let field = |f: &str| {
                item.as_object()
                    .and_then(|o| o.iter().find(|(k, _)| k == f))
                    .and_then(|(_, v)| v.as_str())
                    .map_or(String::new(), str::to_string)
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");

    let workloads: Vec<String> = names(&json, "workloads").into_iter().map(|n| n.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for w in &workloads {
        assert_eq!(Workload::from_name(w).map(Workload::name), Some(w.as_str()));
    }

    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names(&json, "end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names(&json, "per_layer"), per_layer);

    // Every workload reports exactly those metrics, traced or not.
    for w in Workload::ALL {
        let plan = short(w);
        let refs = references(&plan);
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let (outcome, _) = run_short(plan, 3, trace, &refs);
            assert!(outcome.correct, "{}: {:?}", w.name(), outcome.errors);
            let got: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, expected, "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn wrong_reference_digest_fails_the_run() {
    let plan = short(Workload::ChurnCkpt);
    let good = references(&plan);
    let (outcome, _) = run_short(plan, 5, false, &good);
    assert!(outcome.correct, "{:?}", outcome.errors);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);

    let mut bad = good.clone();
    bad.set(&plan, DEFAULT_SEED, "0:0000000000000000".into());
    let (outcome, out) = run_short(plan, 5, false, &bad);
    assert!(!outcome.correct);
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, outcome.attempted);
    let ok = outcome.metrics.iter().find(|m| m.name == "ops_ok_ratio");
    assert_eq!(ok.map(|m| m.value), Some(0.0));
    assert!(out.contains("CHECK FAILED"), "{out}");
    assert!(outcome.to_json().contains("\"correct\": false"));

    // A reference for another span does not count as a match either.
    let longer = Plan {
        span: SimDuration::from_mins(12),
        ..plan
    };
    let (outcome, _) = run_short(longer, 5, false, &good);
    assert!(!outcome.correct);
}

#[test]
fn seed_reaches_the_scenario_builder() {
    let args: Vec<String> = [
        "--workload",
        "multimaster",
        "--seed",
        "7",
        "--seconds",
        "2",
        "--trace",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let Ok(Command::Run(cfg)) = parse_args(&args) else {
        panic!("arguments parse");
    };
    assert_eq!(cfg.seed, 7);
    assert_eq!(cfg.plan, Plan::standard(Workload::Multimaster));

    for w in Workload::ALL {
        let plan = short(w);
        let d = |seed| digest(run_pass(&plan, seed, Mode::Plain).unwrap().sim.report());
        let seven = d(7);
        assert_eq!(seven, d(7), "{}: same seed, same report", w.name());
        assert_ne!(seven, d(8), "{}: the seed changes the report", w.name());
    }

    // The seed given to `run` is the one its timed passes build with.
    let plan = short(Workload::Consolidation);
    let (outcome, out) = run_short(plan, 7, false, &references(&plan));
    assert!(outcome.correct, "{:?}", outcome.errors);
    let expected = digest(run_pass(&plan, 7, Mode::Plain).unwrap().sim.report());
    assert!(out.contains(&format!("digest {expected}")), "{out}");
}

#[test]
fn probe_leaves_the_simulation_alone() {
    for w in Workload::ALL {
        let plan = short(w);
        let plain = run_pass(&plan, 3, Mode::Plain).unwrap();
        let probed = run_pass(&plan, 3, Mode::Probed).unwrap();
        assert_eq!(
            digest(plain.sim.report()),
            digest(probed.sim.report()),
            "{}",
            w.name()
        );
        assert_eq!(
            plain.checkpoints.encode.len(),
            probed.checkpoints.encode.len()
        );
        assert!(plain.probe.is_zero());
        assert!(!probed.probe.is_zero());
    }
}
