//! Sharded-engine equivalence and determinism tests.
//!
//! The sharded engine (one shard per data center, conservative WAN
//! lookahead, deterministic window mailboxes — see DESIGN.md §4.6)
//! makes two promises these tests pin:
//!
//! * **one shard is the serial engine** — a one-shard run executes
//!   the full window machinery (barriers, empty mailboxes) and is
//!   bit-identical to plain [`Simulation::run_until`] across the
//!   validation, consolidated, faulted and churned scenarios, down to
//!   the message-level hop trace;
//! * **multi-shard runs are byte-deterministic** — for a fixed seed
//!   and shard count the merged report and every per-shard hop trace
//!   are byte-identical run-to-run *regardless of worker count*,
//!   because mailboxes are drained in canonical `(src, seq)` order at
//!   every window barrier.
//!
//! Activity tests keep the suite honest: multi-shard consolidated runs
//! actually migrate flights through the mailboxes, and no run ever
//! observes a sequence gap.

use gdisim_core::scenarios::validation::{ExperimentPeriods, EXPERIMENTS};
use gdisim_core::scenarios::{churned, consolidated, faulted, validation};
use gdisim_core::{
    ChurnModel, ChurnProcess, Report, ShardConfigError, ShardedSimulation, Simulation,
};
use gdisim_types::SimTime;
use gdisim_workload::RetryPolicy;
use proptest::prelude::*;

/// Which scenario (plus installs) a case runs.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    Validation,
    Consolidated,
    Faulted,
    Churned,
}

const ALL_SCENARIOS: [Scenario; 4] = [
    Scenario::Validation,
    Scenario::Consolidated,
    Scenario::Faulted,
    Scenario::Churned,
];

/// A hot churn model (mirrors the churn-equivalence suite) so sharded
/// runs see evictions, retries and repairs within a short horizon.
fn hot_churn_model() -> ChurnModel {
    ChurnModel {
        seed: 11,
        servers: Some(ChurnProcess {
            mtbf_secs: 120.0,
            mttr_secs: 20.0,
            fail_shape: Some(1.5),
            repair_shape: None,
        }),
        wan_links: Some(ChurnProcess {
            mtbf_secs: 240.0,
            mttr_secs: 15.0,
            fail_shape: None,
            repair_shape: None,
        }),
        domains: vec![],
        in_flight: Some(gdisim_core::InFlightPolicy::Drop),
        retry: Some(RetryPolicy {
            timeout_secs: 30.0,
            max_retries: 3,
            backoff_base_secs: 1.0,
            backoff_factor: 2.0,
            backoff_cap_secs: 10.0,
        }),
        slo_target: Some(0.99),
    }
}

fn build(scenario: Scenario, seed: u64) -> Simulation {
    match scenario {
        Scenario::Validation => {
            let periods = ExperimentPeriods {
                light: 15,
                average: 36,
                heavy: 60,
            };
            validation::build(periods, seed)
        }
        Scenario::Consolidated => consolidated::build(seed),
        Scenario::Faulted => {
            let mut sim = faulted::build(seed);
            sim.set_fault_plan(faulted::demo_fault_plan())
                .expect("demo plan matches the faulted topology");
            sim
        }
        Scenario::Churned => {
            let mut sim = churned::build(seed);
            sim.set_churn_model(hot_churn_model())
                .expect("hot model matches the churned topology");
            sim
        }
    }
}

/// Everything a run observes — response histories, utilization series,
/// client series, availability, counters, and the rendered hop traces
/// with their drop counters.
type Signature = (
    Vec<(String, Vec<(SimTime, f64)>)>,
    Vec<(String, Vec<f64>)>,
    Vec<f64>,
    Vec<(SimTime, u64, u64)>,
    Vec<u64>,
    Vec<Vec<String>>,
    Vec<u64>,
);

/// [`Signature`] minus the trace/drop tail, which the runners append.
type ReportSignature = (
    Vec<(String, Vec<(SimTime, f64)>)>,
    Vec<(String, Vec<f64>)>,
    Vec<f64>,
    Vec<(SimTime, u64, u64)>,
    Vec<u64>,
);

fn report_signature(report: &Report) -> ReportSignature {
    let responses: Vec<_> = report
        .responses
        .history_keys()
        .map(|k| (format!("{k:?}"), report.responses.history(k).to_vec()))
        .collect();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for ((dc, tier), s) in &report.tier_cpu {
        series.push((format!("cpu {dc}/{tier}"), s.values().to_vec()));
    }
    for ((dc, tier), s) in &report.tier_disk {
        series.push((format!("disk {dc}/{tier}"), s.values().to_vec()));
    }
    for ((dc, tier), s) in &report.tier_memory {
        series.push((format!("mem {dc}/{tier}"), s.values().to_vec()));
    }
    for (label, s) in &report.wan_util {
        series.push((format!("wan {label}"), s.values().to_vec()));
    }
    for (dc, s) in &report.client_link_util {
        series.push((format!("client {dc}"), s.values().to_vec()));
    }
    let f = &report.faults;
    let r = &report.resilience;
    let c = &report.churn;
    let counters = vec![
        f.failed_operations,
        f.retried_operations,
        f.abandoned_operations,
        f.dropped_messages,
        f.skipped_events,
        r.hedges_launched,
        r.hedge_wins,
        r.hedges_cancelled,
        r.breaker_trips,
        r.breaker_rejections,
        r.shed_operations,
        c.incidents,
        c.repairs,
        c.refused_incidents,
        report.responses.total_recorded(),
    ];
    (
        responses,
        series,
        report.concurrent_clients.values().to_vec(),
        report.availability_counts.clone(),
        counters,
    )
}

fn render_trace(trace: &gdisim_core::TraceLog) -> Vec<String> {
    trace
        .events()
        .iter()
        .map(|(t, e)| format!("{t:?} {e:?}"))
        .collect()
}

fn run_serial(scenario: Scenario, seed: u64, horizon_secs: u64) -> Signature {
    let mut sim = build(scenario, seed);
    sim.enable_trace(50_000);
    sim.run_until(SimTime::from_secs(horizon_secs));
    let (responses, series, clients, avail, counters) = report_signature(sim.report());
    let trace = sim.trace().expect("trace enabled");
    (
        responses,
        series,
        clients,
        avail,
        counters,
        vec![render_trace(trace)],
        vec![trace.dropped()],
    )
}

fn run_sharded(
    scenario: Scenario,
    seed: u64,
    horizon_secs: u64,
    shards: usize,
    workers: usize,
) -> Signature {
    let base = build(scenario, seed);
    let mut sim = ShardedSimulation::new(base, shards, None, Some(workers))
        .expect("valid shard configuration");
    for shard in sim.shard_sims_mut() {
        shard.enable_trace(50_000);
    }
    sim.run_until(SimTime::from_secs(horizon_secs));
    assert_eq!(sim.ordering_violations(), 0, "mailbox sequence gap");
    let report = sim.report();
    let (responses, series, clients, avail, counters) = report_signature(&report);
    let traces: Vec<Vec<String>> = sim
        .shard_sims()
        .map(|s| render_trace(s.trace().expect("trace enabled")))
        .collect();
    let dropped: Vec<u64> = sim
        .shard_sims()
        .map(|s| s.trace().expect("trace enabled").dropped())
        .collect();
    (responses, series, clients, avail, counters, traces, dropped)
}

fn assert_signatures_match(a: &Signature, b: &Signature) {
    assert_eq!(a.0, b.0, "responses diverged");
    assert_eq!(a.1, b.1, "utilization diverged");
    assert_eq!(a.2, b.2, "clients diverged");
    assert_eq!(a.3, b.3, "availability counts diverged");
    assert_eq!(a.4, b.4, "counters diverged");
    assert_eq!(a.5, b.5, "hop traces diverged");
    assert_eq!(a.6, b.6, "trace drop counts diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A one-shard sharded run — full window machinery, empty
    /// mailboxes — is bit-identical to the serial engine, for random
    /// seeds and horizons, across all four scenarios, down to the hop
    /// trace.
    #[test]
    fn one_shard_is_bit_identical_to_serial(
        seed in 0u64..1_000,
        horizon_secs in 60u64..120,
        scenario in 0usize..4,
    ) {
        let scenario = ALL_SCENARIOS[scenario];
        let serial = run_serial(scenario, seed, horizon_secs);
        let sharded = run_sharded(scenario, seed, horizon_secs, 1, 1);
        prop_assert_eq!(&serial.0, &sharded.0, "responses diverged");
        prop_assert_eq!(&serial.1, &sharded.1, "utilization diverged");
        prop_assert_eq!(&serial.2, &sharded.2, "clients diverged");
        prop_assert_eq!(&serial.3, &sharded.3, "availability diverged");
        prop_assert_eq!(&serial.4, &sharded.4, "counters diverged");
        prop_assert_eq!(&serial.5, &sharded.5, "hop traces diverged");
        prop_assert_eq!(&serial.6, &sharded.6, "trace drops diverged");
    }

    /// Multi-shard runs are byte-deterministic for a fixed seed and
    /// shard count: worker counts 1, 2 and 4 all produce identical
    /// merged reports and per-shard hop traces.
    #[test]
    fn multi_shard_runs_are_worker_count_invariant(
        seed in 0u64..1_000,
        scenario in 1usize..4,
    ) {
        let scenario = ALL_SCENARIOS[scenario];
        let w1 = run_sharded(scenario, seed, 90, 2, 1);
        let w2 = run_sharded(scenario, seed, 90, 2, 2);
        prop_assert_eq!(&w1.0, &w2.0, "responses diverged");
        prop_assert_eq!(&w1.1, &w2.1, "utilization diverged");
        prop_assert_eq!(&w1.2, &w2.2, "clients diverged");
        prop_assert_eq!(&w1.3, &w2.3, "availability diverged");
        prop_assert_eq!(&w1.4, &w2.4, "counters diverged");
        prop_assert_eq!(&w1.5, &w2.5, "hop traces diverged");
        prop_assert_eq!(&w1.6, &w2.6, "trace drops diverged");
    }
}

/// Same-seed multi-shard runs are byte-identical across repeats and
/// worker counts on the six-DC consolidated scenario at four shards.
#[test]
fn consolidated_four_shards_byte_deterministic() {
    let a = run_sharded(Scenario::Consolidated, 42, 120, 4, 2);
    let b = run_sharded(Scenario::Consolidated, 42, 120, 4, 2);
    let c = run_sharded(Scenario::Consolidated, 42, 120, 4, 4);
    assert_signatures_match(&a, &b);
    assert_signatures_match(&a, &c);
}

/// The determinism tests are not vacuous: multi-shard consolidated
/// runs actually migrate flights through the window mailboxes.
#[test]
fn multi_shard_runs_actually_exchange_mail() {
    let base = build(Scenario::Consolidated, 42);
    let mut sim = ShardedSimulation::new(base, 4, None, Some(2)).expect("valid config");
    sim.run_until(SimTime::from_secs(120));
    let stats = sim.stats();
    let sent: u64 = stats.iter().map(|s| s.mail_sent).sum();
    let received: u64 = stats.iter().map(|s| s.mail_received).sum();
    assert!(sent > 0, "no cross-shard flight was ever exported");
    assert_eq!(
        stats.iter().map(|s| s.ordering_violations).sum::<u64>(),
        0,
        "mailbox sequence gap"
    );
    // All mail that was sent before the final window got delivered.
    assert!(received > 0, "mail sent but never delivered");
    assert!(stats.iter().all(|s| s.windows > 0), "a shard never stepped");
}

/// The lookahead window is derived from the topology's minimum WAN
/// latency: consolidated has a 30 ms minimum at dt = 10 ms, so three
/// ticks; the single-DC validation topology defaults to one tick.
#[test]
fn lookahead_window_derived_from_min_wan_latency() {
    let sim = ShardedSimulation::new(build(Scenario::Consolidated, 1), 4, None, None)
        .expect("valid config");
    assert_eq!(sim.window_ticks(), 3);
    assert_eq!(sim.shards(), 4);
    let sim = ShardedSimulation::new(
        build(Scenario::Validation, 1),
        8, // clamped to the single DC
        None,
        None,
    )
    .expect("valid config");
    assert_eq!(sim.window_ticks(), 1);
    assert_eq!(sim.shards(), 1);
}

/// Invalid shard configurations surface as typed errors, not panics.
#[test]
fn invalid_configurations_are_typed_errors() {
    assert_eq!(
        ShardedSimulation::new(build(Scenario::Validation, 1), 0, None, None).err(),
        Some(ShardConfigError::ZeroShards)
    );
    assert_eq!(
        ShardedSimulation::new(build(Scenario::Validation, 1), 1, Some(0), None).err(),
        Some(ShardConfigError::ZeroLookahead)
    );
    assert_eq!(
        ShardedSimulation::new(build(Scenario::Validation, 1), 1, None, Some(0)).err(),
        Some(ShardConfigError::ZeroWorkers)
    );
}

/// Keep the pinned experiment table in scope: the first validation
/// experiment is the 15-36-60 configuration the one-shard identity
/// test exercises.
#[test]
fn validation_experiment_table_unchanged() {
    assert_eq!(EXPERIMENTS[0].light, 15);
    assert_eq!(EXPERIMENTS[0].average, 36);
    assert_eq!(EXPERIMENTS[0].heavy, 60);
}
