//! A committed `GDISNAP` v2 checkpoint, read back by today's code.
//!
//! `fixtures/churned_600s.gdisnap` is the serial checkpoint of the
//! churned scenario (seed 42) under the demo churn model and demo
//! resilience policies, with the invariant auditor on and no trace log,
//! taken at 10:00 simulated. It holds every runtime the engine
//! serializes: pending incidents, timeout and hedge calendars, breaker
//! states, the auditor's tallies. The checks below prove the file still
//! decodes, re-encodes to the same bytes, resumes to the pinned report,
//! and is what a fresh run writes today, so neither the format nor the
//! state it carries can drift without a failing test.

mod common;

use common::digest;
use gdisim_core::scenarios::churned;
use gdisim_core::{Simulation, Snapshot, SnapshotPayload};
use gdisim_types::SimTime;

const FIXTURE: &[u8] = include_bytes!("fixtures/churned_600s.gdisnap");
const SEED: u64 = 42;
const TAKEN_AT: SimTime = SimTime::from_secs(600);

/// The run the fixture was taken from, before its first step.
fn fixture_run() -> Simulation {
    let mut sim = churned::build(SEED);
    sim.set_churn_model(churned::demo_churn_model())
        .expect("demo churn model fits the churned topology");
    sim.set_resilience(churned::demo_resilience())
        .expect("demo resilience installs");
    sim.set_paranoid(true);
    sim
}

fn decode_fixture() -> Simulation {
    let snap = Snapshot::from_bytes(FIXTURE).expect("fixture decodes");
    assert_eq!(snap.meta.scenario, "churned");
    assert_eq!(snap.meta.seed, SEED);
    assert_eq!(snap.meta.shards, 1);
    assert_eq!(snap.meta.now, TAKEN_AT);
    let SnapshotPayload::Serial(sim) = snap.payload else {
        panic!("fixture is a serial checkpoint");
    };
    *sim
}

#[test]
fn fixture_re_encodes_byte_for_byte() {
    let sim = decode_fixture();
    assert!(sim.trace().is_none(), "fixture carries no trace log");
    assert!(sim.audit_state().is_some(), "fixture carries the auditor");
    let again = Snapshot::serial("churned", SEED, sim).to_bytes();
    assert!(
        again == FIXTURE,
        "re-encoding the fixture changed its bytes"
    );
}

#[test]
fn fixture_resumes_to_the_pinned_report() {
    let mut sim = decode_fixture();
    sim.run_until(SimTime::from_secs(20 * 60));
    let audit = sim.audit_state().expect("auditor restored");
    assert_eq!(audit.violations, 0, "{:?}", audit.recorded);
    assert!(sim.report().churn.incidents > 0, "churn inert");
    // The same pin as the uninterrupted churn case of
    // `failure_timeline_golden.rs`: resuming loses nothing.
    assert_eq!(
        digest(&gdisim_snap::to_bytes(sim.report())),
        "26013:c3451dcabea850cf",
        "resumed report moved off its golden pin"
    );
}

#[test]
fn fresh_run_writes_the_fixture() {
    let mut sim = fixture_run();
    sim.run_until(TAKEN_AT);
    let bytes = Snapshot::serial("churned", SEED, sim).to_bytes();
    assert!(
        bytes == FIXTURE,
        "a fresh run no longer writes the fixture's bytes"
    );
}
