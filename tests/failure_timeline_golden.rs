//! Golden pins for every way a run fails and restores infrastructure:
//! the staged fault plan, the stochastic churn model, directly
//! scheduled health changes, and a fault plan and churn model together.
//! Two more cases pin the phase-1 drains at their extremes: a
//! series-only validation run, where the traffic scan runs only when a
//! series launch is due, and a cancellation-heavy run whose timeout and
//! retry calendars churn constantly (with its mid-run engine bytes,
//! which carry the calendars' contents). A last case pins a validation
//! run's mid-run engine bytes, which carry its shared SANs' queues.
//!
//! Each case pins two FNV-1a 64 digests: one of the snap encoding of
//! the final [`Report`](gdisim_core::Report), one of the JSONL export
//! of the message-level trace (every hop, fault and churn record). The
//! equivalence suites compare the engine with itself; these digests
//! compare it with the recorded output of earlier builds, so a change
//! to how incidents are scheduled or applied that shifts any result by
//! one byte fails here. Regenerate a pin only for a deliberate model
//! change, and say so where the change is recorded.

mod common;

use common::digest;
use gdisim_core::scenarios::{churned, faulted, validation};
use gdisim_core::{FaultAction, FaultTarget, Simulation};
use gdisim_types::{SimTime, TierKind};

/// Runs `sim` with a 100 000-event trace (as `gdisim run` does) to
/// `minutes` and returns the `(report, trace)` digests.
fn run(mut sim: Simulation, minutes: u64) -> (Simulation, String, String) {
    sim.enable_trace(100_000);
    sim.run_until(SimTime::from_secs(minutes * 60));
    finish(sim)
}

/// The `(report, trace)` digests of a traced run.
fn finish(sim: Simulation) -> (Simulation, String, String) {
    let report = digest(&gdisim_snap::to_bytes(sim.report()));
    let mut jsonl = Vec::new();
    sim.trace()
        .expect("trace enabled")
        .write_jsonl(&mut jsonl)
        .expect("in-memory write");
    (sim, report, digest(&jsonl))
}

fn assert_pinned(case: &str, got: (&str, &str), want: (&str, &str)) {
    assert_eq!(
        got, want,
        "{case}: (report, trace) digests moved off their golden pins"
    );
}

/// (a) The staged WAN outage of `gdisim run --scenario faulted --faults demo`.
#[test]
fn fault_plan_run_matches_golden() {
    let mut sim = faulted::build(42);
    sim.set_fault_plan(faulted::demo_fault_plan())
        .expect("demo plan fits the faulted topology");
    let (sim, report, trace) = run(sim, 20);
    assert!(sim.report().faults.failed_operations > 0, "outage inert");
    assert_pinned(
        "faulted + demo plan",
        (&report, &trace),
        ("21493:b3694eb0cb3edfb1", "2103095:c0e778589786f8fa"),
    );
}

/// (b) The churned scenario under the demo churn model and resilience
/// policies, as `gdisim run --scenario churned` installs them.
#[test]
fn churn_model_run_matches_golden() {
    let mut sim = churned::build(42);
    sim.set_churn_model(churned::demo_churn_model())
        .expect("demo churn model fits the churned topology");
    sim.set_resilience(churned::demo_resilience())
        .expect("demo resilience installs");
    let (sim, report, trace) = run(sim, 20);
    assert!(sim.report().churn.incidents > 0, "churn inert");
    assert_pinned(
        "churned + demo model",
        (&report, &trace),
        ("26013:c3451dcabea850cf", "3270533:163547e591733ee9"),
    );
}

/// (c) Health changes scheduled through `Simulation::schedule_health`:
/// a WAN link and a server fail and come back, and failing the App
/// tier's other server while the first is down is refused (a tier's
/// last healthy server cannot fail), which must land in
/// `health_errors` rather than stop the run.
#[test]
fn health_schedule_run_matches_golden() {
    let mut sim = faulted::build(42);
    let link = || FaultTarget::WanLink {
        label: faulted::PRIMARY_LINK.into(),
    };
    let app = |server| FaultTarget::Server {
        site: "NA".into(),
        tier: TierKind::App,
        server,
    };
    let (fail, recover) = (FaultAction::Fail, FaultAction::Recover);
    sim.schedule_health(link(), fail, SimTime::from_secs(300));
    sim.schedule_health(app(0), fail, SimTime::from_secs(360));
    sim.schedule_health(app(1), fail, SimTime::from_secs(480));
    sim.schedule_health(link(), recover, SimTime::from_secs(720));
    sim.schedule_health(app(0), recover, SimTime::from_secs(840));
    let (sim, report, trace) = run(sim, 20);
    let errors = &sim.report().health_errors;
    assert_eq!(errors.len(), 1, "exactly the refused failure: {errors:?}");
    assert_eq!(errors[0].at, SimTime::from_secs(480));
    assert_pinned(
        "faulted + health schedule",
        (&report, &trace),
        ("22885:468ee14fc517a84d", "2581567:3869735681787a8c"),
    );
}

/// (d) A fault plan and a churn model on one run, as `gdisim run
/// --scenario faulted --faults demo --churn demo --paranoid`: the two
/// sources overlap, most churn incidents are refused, and the degraded
/// window is the union of both sources' outages.
#[test]
fn fault_plan_with_churn_run_matches_golden() {
    let mut sim = faulted::build(42);
    sim.set_fault_plan(faulted::demo_fault_plan())
        .expect("demo plan fits the faulted topology");
    sim.set_churn_model(churned::demo_churn_model())
        .expect("demo churn model fits the faulted topology");
    sim.set_paranoid(true);
    let (sim, report, trace) = run(sim, 20);
    let r = sim.report();
    assert_eq!(r.churn.incidents, 2, "applied churn incidents");
    assert_eq!(r.churn.refused_incidents, 6, "refused churn incidents");
    assert_eq!(r.faults.skipped_events, 0, "every plan event applied");
    // Both churn incidents fall inside the plan's outage, so the union
    // is one window, opened by the plan and still open at 20:00 (the
    // step that recovers both links is the first one past the horizon).
    assert_eq!(r.degraded_since, Some(faulted::OUTAGE_START));
    assert!(r.degraded_windows.is_empty(), "{:?}", r.degraded_windows);
    let audit = sim.audit_state().expect("paranoid audit on");
    assert!(audit.checks > 0, "auditor never ran");
    assert_eq!(audit.violations, 0, "invariant violations");
    assert_pinned(
        "faulted + demo plan + demo churn",
        (&report, &trace),
        ("22173:114622c44da082a0", "2102947:ee51030e4d06227c"),
    );
}

/// (e) The first validation experiment: periodic series sources only,
/// so no source needs a per-step visit and the traffic scan runs only
/// at series launches.
#[test]
fn series_only_validation_run_matches_golden() {
    let (sim, report, trace) = run(validation::build(validation::EXPERIMENTS[0], 42), 20);
    assert!(sim.report().responses.total_recorded() > 0, "no series ran");
    assert_pinned(
        "validation experiment 1",
        (&report, &trace),
        ("69112:b42d7bf0b2f2fab6", "3485828:a412e26b876b8c3c"),
    );
}

/// (f) The cancellation-heavy run of the polling-equivalence suites:
/// short timeouts, `InFlightPolicy::Drop` and six link flaps. The
/// mid-run engine bytes are pinned too: they hold the timeout calendar,
/// whose contents depend on when settled attempts' entries are dropped.
#[test]
fn cancellation_heavy_run_matches_golden() {
    let mut sim = common::build_cancellation_heavy(42);
    sim.enable_trace(100_000);
    sim.run_until(SimTime::from_secs(45));
    let mid = digest(&gdisim_snap::to_bytes(&sim));
    sim.run_until(SimTime::from_secs(120));
    let (sim, report, trace) = finish(sim);
    let f = &sim.report().faults;
    assert!(
        f.failed_operations > 0 && f.retried_operations > 0,
        "plan inert"
    );
    assert_eq!(
        mid, "49844:cefac37145b729ae",
        "cancellation-heavy: mid-run engine bytes moved"
    );
    assert_pinned(
        "cancellation-heavy plan",
        (&report, &trace),
        ("3285:c41c48d90e54603b", "344900:2a59f3a1fb38c2ef"),
    );
}

/// (g) The mid-run engine bytes of the heaviest validation experiment,
/// whose database and file tiers each share one SAN. At 11:15
/// simulated the two SANs hold requests at the switch, the array
/// controller and the loop, so the bytes carry every kind of entry of
/// the SAN's per-job front-stage map.
#[test]
fn validation_mid_run_engine_bytes_match_golden() {
    let mut sim = validation::build(validation::EXPERIMENTS[2], 42);
    sim.run_until(SimTime::from_secs(675));
    assert_eq!(
        digest(&gdisim_snap::to_bytes(&sim)),
        "118543:63f505283f85d9a4",
        "validation experiment 3: mid-run engine bytes moved"
    );
}
