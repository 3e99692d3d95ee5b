//! Causal operation tracing must be a pure observer: enabling
//! `--trace-ops` at *any* sampling rate must not perturb the simulation
//! by a single bit, on every executor family and on the sharded engine.
//! (The observer non-interference proptest in `observability.rs` also
//! covers the span recorder among random observer subsets.) Alongside
//! the equivalence tests, well-formedness checks pin the
//! span model itself: every span is parented (halves under attempts,
//! attempts under operations), no span runs backwards in time, the
//! deterministic sampler admits exactly the exported roots, and the
//! latency attribution of every completed operation sums *exactly* to
//! its end-to-end response time.

mod common;

use common::{build_scenario, executor_for, RATES};
use gdisim_core::{OpTraceRecorder, Report, ShardedSimulation};
use gdisim_obs::{attribute, sample, HalfSpan, OpRecord, OpStatus};
use gdisim_types::SimTime;
use proptest::prelude::*;

/// Everything a run observes: response histories, utilization series,
/// the client series, and the fault/resilience/churn counters.
type Signature = (
    Vec<(String, Vec<(SimTime, f64)>)>,
    Vec<(String, Vec<f64>)>,
    Vec<f64>,
    Vec<u64>,
);

fn signature(report: &Report) -> Signature {
    let responses: Vec<_> = report
        .responses
        .history_keys()
        .map(|k| (format!("{k:?}"), report.responses.history(k).to_vec()))
        .collect();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for ((dc, tier), s) in &report.tier_cpu {
        series.push((format!("cpu {dc}/{tier}"), s.values().to_vec()));
    }
    for ((dc, tier), s) in &report.tier_memory {
        series.push((format!("mem {dc}/{tier}"), s.values().to_vec()));
    }
    for (label, s) in &report.wan_util {
        series.push((format!("wan {label}"), s.values().to_vec()));
    }
    let f = &report.faults;
    let r = &report.resilience;
    let c = &report.churn;
    let counters = vec![
        f.failed_operations,
        f.retried_operations,
        f.abandoned_operations,
        f.dropped_messages,
        r.hedges_launched,
        r.hedge_wins,
        r.hedges_cancelled,
        r.breaker_trips,
        r.breaker_rejections,
        r.shed_operations,
        c.incidents,
        c.repairs,
        report.responses.total_recorded(),
    ];
    (
        responses,
        series,
        report.concurrent_clients.values().to_vec(),
        counters,
    )
}

fn run_serial(
    scenario: usize,
    seed: u64,
    executor: usize,
    horizon_secs: u64,
    rate: Option<f64>,
) -> Signature {
    let mut sim = build_scenario(scenario, seed);
    sim.set_executor(executor_for(executor));
    if let Some(rate) = rate {
        sim.enable_optrace(rate);
    }
    sim.run_until(SimTime::from_secs(horizon_secs));
    signature(sim.report())
}

fn run_sharded(scenario: usize, seed: u64, horizon_secs: u64, rate: Option<f64>) -> Signature {
    let base = build_scenario(scenario, seed);
    let mut sim =
        ShardedSimulation::new(base, 4, None, Some(2)).expect("valid shard configuration");
    if let Some(rate) = rate {
        for shard in sim.shard_sims_mut() {
            shard.enable_optrace(rate);
        }
    }
    sim.run_until(SimTime::from_secs(horizon_secs));
    assert_eq!(sim.ordering_violations(), 0, "mailbox sequence gap");
    signature(&sim.report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For random seeds, horizons and executors, a run with operation
    /// tracing on — at any rate — observes exactly what an untraced run
    /// observes, on both scenario families.
    #[test]
    fn traced_and_untraced_runs_are_bit_identical(
        seed in 0u64..1_000,
        horizon_secs in 90u64..150,
        executor in 0usize..3,
        scenario in 0usize..2,
        rate_idx in 0usize..3,
    ) {
        let bare = run_serial(scenario, seed, executor, horizon_secs, None);
        let traced = run_serial(scenario, seed, executor, horizon_secs, Some(RATES[rate_idx]));
        prop_assert_eq!(&bare.0, &traced.0, "responses diverged under tracing");
        prop_assert_eq!(&bare.1, &traced.1, "utilization diverged under tracing");
        prop_assert_eq!(&bare.2, &traced.2, "clients diverged under tracing");
        prop_assert_eq!(&bare.3, &traced.3, "counters diverged under tracing");
    }
}

/// The sharded engine makes the same promise: tracing on a 4-shard run
/// (span context migrating through the window mailboxes) changes
/// nothing observable, at every rate.
#[test]
fn sharded_traced_runs_are_bit_identical_to_untraced() {
    for scenario in 0..2 {
        let bare = run_sharded(scenario, 42, 120, None);
        for rate in RATES {
            let traced = run_sharded(scenario, 42, 120, Some(rate));
            assert_eq!(bare, traced, "scenario {scenario} diverged at rate {rate}");
        }
    }
}

/// Structural checks over one half's spans: parented under its attempt
/// (launched no earlier), monotone in time, hop segments covered by
/// their message envelope and never exceeding measured residence.
fn assert_half_wellformed(root: u64, half: &HalfSpan) {
    if let Some(ended) = half.ended_us {
        assert!(
            ended >= half.launched_us,
            "op {root}: half {} ended before launch",
            half.instance
        );
    }
    for msg in &half.msgs {
        assert!(
            msg.enq_us >= half.launched_us,
            "op {root}: message enqueued before its half launched"
        );
        if let Some(done) = msg.done_us {
            assert!(done >= msg.enq_us, "op {root}: message ran backwards");
        }
        for seg in &msg.segs {
            assert!(seg.done_us >= seg.enq_us, "op {root}: hop ran backwards");
            assert!(
                seg.service_us + seg.wan_us <= seg.total_us(),
                "op {root}: nominal segments exceed measured residence"
            );
            assert!(
                seg.enq_us >= msg.enq_us,
                "op {root}: hop enqueued before its message"
            );
        }
    }
}

/// Every exported record is a well-formed span tree and every completed
/// record's attribution components sum exactly to its response time.
fn assert_records_wellformed(recorder: &OpTraceRecorder, records: &[&OpRecord]) {
    for rec in records {
        assert!(
            sample(recorder.seed(), rec.root, recorder.rate()),
            "op {}: exported but not admitted by the sampler",
            rec.root
        );
        assert!(!rec.attempts.is_empty(), "op {}: no attempts", rec.root);
        for (i, att) in rec.attempts.iter().enumerate() {
            assert_eq!(
                att.attempt as usize, i,
                "op {}: attempt numbering is not dense",
                rec.root
            );
            assert!(
                ["closed", "open", "half-open"].contains(&att.breaker),
                "op {}: unknown breaker label {:?}",
                rec.root,
                att.breaker
            );
            assert!(
                att.primary.launched_us >= rec.started_us,
                "op {}: attempt launched before the operation",
                rec.root
            );
            assert_half_wellformed(rec.root, &att.primary);
            if let Some(twin) = &att.twin {
                assert_eq!(twin.role, "twin");
                assert!(
                    twin.launched_us >= att.primary.launched_us,
                    "op {}: twin launched before its primary",
                    rec.root
                );
                assert_half_wellformed(rec.root, twin);
            }
        }
        if rec.status == OpStatus::Completed {
            let settled = rec.settled_us.expect("completed records settle");
            assert!(
                settled >= rec.started_us,
                "op {}: negative response",
                rec.root
            );
            let comps = attribute(rec).expect("completed records attribute");
            assert_eq!(
                comps.component_sum_us(),
                comps.response_us,
                "op {}: queue+service+wan+backoff+hedge != response",
                rec.root
            );
            assert_eq!(comps.response_us, settled - rec.started_us);
        }
    }
}

/// Full-rate tracing of the compressed faulted run: well-formed span
/// trees, exact attribution, and non-vacuously retry-annotated.
#[test]
fn faulted_span_trees_are_wellformed_with_exact_attribution() {
    let mut sim = build_scenario(0, 42);
    sim.enable_optrace(1.0);
    sim.run_until(SimTime::from_secs(150));
    let recorder = sim.optrace().expect("tracing enabled");
    let records = recorder.export_records();
    assert!(!records.is_empty(), "no operations sampled");
    assert_records_wellformed(recorder, &records);
    assert!(
        records.iter().any(|r| r.attempts.len() > 1),
        "no retry-annotated operation despite the staged outage"
    );
    let causes: Vec<_> = records
        .iter()
        .flat_map(|r| &r.attempts)
        .filter_map(|a| a.primary.cause)
        .collect();
    assert!(
        !causes.is_empty(),
        "no failure cause annotated despite the staged outage"
    );
}

/// Full-rate tracing of the churned run under the demo resilience
/// bundle: well-formed, exact, and non-vacuously hedge-annotated.
#[test]
fn churned_span_trees_are_wellformed_and_hedge_annotated() {
    let mut sim = build_scenario(1, 42);
    sim.enable_optrace(1.0);
    sim.run_until(SimTime::from_secs(240));
    let recorder = sim.optrace().expect("tracing enabled");
    let records = recorder.export_records();
    assert!(!records.is_empty(), "no operations sampled");
    assert_records_wellformed(recorder, &records);
    assert!(
        records
            .iter()
            .any(|r| r.attempts.iter().any(|a| a.twin.is_some())),
        "no hedge-annotated operation despite the demo hedge policy"
    );
}

/// Sparse sampling admits exactly the roots the counter-based sampler
/// says it should — the exported set at rate 0.37 is the sampler-
/// filtered subset of the full-rate export.
#[test]
fn sparse_sampling_is_the_deterministic_subset_of_full_rate() {
    let collect = |rate: f64| -> (u64, Vec<u64>) {
        let mut sim = build_scenario(0, 42);
        sim.enable_optrace(rate);
        sim.run_until(SimTime::from_secs(120));
        let rec = sim.optrace().expect("tracing enabled");
        let mut roots: Vec<u64> = rec.export_records().iter().map(|r| r.root).collect();
        roots.sort_unstable();
        (rec.seed(), roots)
    };
    let (seed, full) = collect(1.0);
    let (_, sparse) = collect(0.37);
    let expected: Vec<u64> = full
        .iter()
        .copied()
        .filter(|&root| sample(seed, root, 0.37))
        .collect();
    assert_eq!(sparse, expected, "sparse export is not the sampler subset");
    assert!(!sparse.is_empty(), "rate 0.37 sampled nothing");
    assert!(sparse.len() < full.len(), "rate 0.37 sampled everything");
}

/// On the sharded engine every cross-shard operation stitches into one
/// record at its home shard: hop segments from foreign shards arrive
/// with the completion mail, and the merged export attributes exactly.
#[test]
fn sharded_export_stitches_cross_shard_spans() {
    let base = build_scenario(0, 42);
    let mut sim =
        ShardedSimulation::new(base, 4, None, Some(2)).expect("valid shard configuration");
    for shard in sim.shard_sims_mut() {
        shard.enable_optrace(1.0);
    }
    sim.run_until(SimTime::from_secs(120));
    let recorders: Vec<&OpTraceRecorder> = sim.shard_sims().filter_map(|s| s.optrace()).collect();
    assert!(recorders.len() > 1, "expected a multi-shard run");
    let mut total = 0usize;
    let mut remote = 0usize;
    for rec in &recorders {
        let records = rec.export_records();
        assert_records_wellformed(rec, &records);
        total += records.len();
        remote += records
            .iter()
            .filter(|r| {
                r.attempts
                    .iter()
                    .flat_map(|a| a.twin.iter().chain(std::iter::once(&a.primary)))
                    .any(|h| h.msgs.iter().any(|m| m.remote))
            })
            .count();
    }
    assert!(total > 0, "no operations sampled across shards");
    assert!(
        remote > 0,
        "no operation ever crossed a shard boundary — stitching untested"
    );
}
