//! Cancellation equivalence: the cancellation analogue of
//! `wheel_equivalence.rs`. An attempt that settles before its deadline
//! leaves a dead entry in the timeout calendar, which the settle drops
//! off the calendar's head; retries launch and fault plans run dry. None
//! of it may be visible to the simulation: each phase-1 drain runs once
//! the head of its own queue is due, which is exactly when its own pop
//! loop would find work, so dropping a dead entry early only skips a
//! drain that would have been a no-op.
//!
//! The scenario here is deliberately cancellation-heavy: a short
//! per-attempt timeout with `InFlightPolicy::Drop` on a link that fails
//! and recovers in quick cycles, so operations constantly complete
//! before their (armed) timeouts, time out for real, retry and complete
//! again — thousands of dead deadlines per run. Gated runs are compared
//! bit-for-bit against `set_always_poll(true)` runs across all three
//! executors, down to the message-level hop trace.

mod common;

use common::{build_cancellation_heavy as build, executor_for};
use gdisim_types::SimTime;
use proptest::prelude::*;

/// Everything a run observes — response histories, utilization series,
/// client series, fault counters, and the rendered message-level trace
/// (hops, launches, completions, failures, fault applications) with its
/// drop counters.
type Signature = (
    Vec<(String, Vec<(SimTime, f64)>)>,
    Vec<(String, Vec<f64>)>,
    Vec<f64>,
    (u64, u64, u64, u64, u64),
    Vec<String>,
    u64,
);

fn run(seed: u64, executor: usize, horizon_secs: u64, poll: bool) -> Signature {
    let mut sim = build(seed);
    sim.set_executor(executor_for(executor));
    sim.enable_trace(20_000);
    if poll {
        sim.set_always_poll(true);
    }
    sim.run_until(SimTime::from_secs(horizon_secs));
    let report = sim.report();
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
    for (label, s) in &report.wan_util {
        series.push((format!("wan {label}"), s.values().to_vec()));
    }
    let trace = sim.trace().expect("trace enabled");
    let hops: Vec<String> = trace
        .events()
        .iter()
        .map(|(t, e)| format!("{t:?} {e:?}"))
        .collect();
    let dropped = trace.dropped();
    let f = &report.faults;
    (
        responses,
        series,
        report.concurrent_clients.values().to_vec(),
        (
            f.failed_operations,
            f.retried_operations,
            f.abandoned_operations,
            f.dropped_messages,
            f.skipped_events,
        ),
        hops,
        dropped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random seeds, horizons and executors, a gated run of the churn scenario is bit-identical to a
    /// polled run — responses, utilization, client counts, fault
    /// counters and the full message-level hop trace.
    #[test]
    fn cancellation_enabled_runs_match_polled_runs(
        seed in 0u64..1_000,
        horizon_secs in 90u64..150,
        executor in 0usize..3,
    ) {
        let wheel = run(seed, executor, horizon_secs, false);
        let poll = run(seed, executor, horizon_secs, true);
        prop_assert_eq!(&wheel.0, &poll.0, "responses diverged");
        prop_assert_eq!(&wheel.1, &poll.1, "utilization diverged");
        prop_assert_eq!(&wheel.2, &poll.2, "clients diverged");
        prop_assert_eq!(wheel.3, poll.3, "fault counters diverged");
        prop_assert_eq!(&wheel.4, &poll.4, "hop traces diverged");
        prop_assert_eq!(wheel.5, poll.5, "trace drop counts diverged");
    }
}

/// The equivalence above is not vacuous: a deterministic churn run under
/// the gated loop actually times out, retries, completes — and drops
/// dead deadlines.
#[test]
fn churn_scenario_actually_cancels_gates() {
    let mut sim = build(42);
    sim.enable_profiler(0);
    sim.run_until(SimTime::from_secs(120));
    let f = &sim.report().faults;
    assert!(f.failed_operations > 0, "no operations failed");
    assert!(f.retried_operations > 0, "no retries launched");
    assert!(f.dropped_messages > 0, "no in-flight messages dropped");
    let p = sim.profiler().expect("profiler enabled");
    let cancelled: u64 = (0..gdisim_obs::NUM_CLASSES)
        .map(|c| p.drain_stats(c).cancelled)
        .sum();
    assert!(
        cancelled > 0,
        "churn run dropped no dead deadlines — the path never engaged"
    );
    // Dropping must happen where it matters: the timeout class, where
    // every completion leaves the completed attempt's deadline dead.
    let timeouts = p
        .drain_stats(gdisim_core::EventClass::Timeouts.index())
        .cancelled;
    assert!(timeouts > 0, "no dead timeout entries were dropped");
}
