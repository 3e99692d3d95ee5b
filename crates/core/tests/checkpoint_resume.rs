//! Resume equivalence: a run restored from a checkpoint must be
//! bit-identical to the uninterrupted run — same report, same hop
//! traces, same RNG positions. The comparison is done on the snap
//! encoding of the *final* state, which covers all of those at once:
//! two engines encode to the same bytes iff every serialized field
//! (flight table, counters, trace log, churn/fault/resilience
//! runtimes, mailboxes) is equal.

mod common;

use gdisim_core::{ShardedSimulation, Snapshot, SnapshotPayload};
use gdisim_ports::Executor;
use gdisim_snap::Snap;
use gdisim_types::SimTime;
use proptest::prelude::*;

/// Snap-encodes a report for comparison (`Report` carries float time
/// series and deliberately has no `PartialEq`; its canonical encoding
/// is the equality we actually guarantee).
fn report_bytes(report: &gdisim_core::Report) -> Vec<u8> {
    let mut w = gdisim_snap::SnapWriter::new();
    report.save(&mut w);
    w.into_bytes()
}

/// The first whole-window boundary at or past `secs` seconds. Sharded
/// checkpoints and barriers live on the window grid; deriving every
/// stop this way keeps the interrupted and uninterrupted grids equal.
fn aligned(window: gdisim_types::SimDuration, secs: u64) -> SimTime {
    SimTime::ZERO + window * (secs * 1_000_000).div_ceil(window.as_micros())
}

/// Snap-encodes a finished serial engine for byte comparison.
fn encode_serial(scenario: &str, seed: u64, sim: gdisim_core::Simulation) -> Vec<u8> {
    Snapshot::serial(scenario, seed, sim).to_bytes()
}

/// Runs `scenario` twice to `horizon_secs`: once uninterrupted, once
/// checkpointed at `ckpt_secs` through the full byte codec and resumed.
/// Both final states must encode identically.
fn assert_resume_equivalent(scenario: &str, seed: u64, ckpt_secs: u64, horizon_secs: u64) {
    assert!(ckpt_secs > 0 && ckpt_secs < horizon_secs);
    let horizon = SimTime::from_secs(horizon_secs);

    let mut uninterrupted = common::build(scenario, seed);
    uninterrupted.enable_trace(100_000);
    uninterrupted.run_until(horizon);
    let want = encode_serial(scenario, seed, uninterrupted);

    let mut first_leg = common::build(scenario, seed);
    first_leg.enable_trace(100_000);
    first_leg.run_until(SimTime::from_secs(ckpt_secs));
    let ckpt = encode_serial(scenario, seed, first_leg);

    let snap = Snapshot::from_bytes(&ckpt).expect("checkpoint decodes");
    assert_eq!(snap.meta.scenario, scenario);
    assert_eq!(snap.meta.seed, seed);
    assert_eq!(snap.meta.now, SimTime::from_secs(ckpt_secs));
    let SnapshotPayload::Serial(mut resumed) = snap.payload else {
        panic!("serial checkpoint must decode to a serial payload");
    };
    // Deliberately no enable_trace: the log rides in the checkpoint and
    // re-enabling would truncate it.
    resumed.run_until(horizon);
    let got = encode_serial(scenario, seed, *resumed);

    assert_eq!(
        want, got,
        "{scenario} seed {seed}: resume from t={ckpt_secs}s diverged from the uninterrupted run"
    );
}

#[test]
fn serial_resume_is_bit_identical_on_every_scenario() {
    for scenario in common::SCENARIOS {
        assert_resume_equivalent(scenario, 42, 120, 300);
    }
}

/// The arrival scan's per-site draw state is derived from the curves,
/// not carried by checkpoints. Resuming consolidation at 00:05 GMT, while
/// AS (GMT+8) is mid-ramp (its λ changes every step) and AUS (GMT+10)
/// sits on its plateau (its λ repeats), must still give the
/// uninterrupted report.
#[test]
fn consolidation_resumed_mid_ramp_keeps_the_uninterrupted_report() {
    let horizon = SimTime::from_secs(600);
    let mut uninterrupted = common::build("consolidated", 7);
    uninterrupted.run_until(horizon);

    let mut first_leg = common::build("consolidated", 7);
    first_leg.run_until(SimTime::from_secs(300));
    let ckpt = encode_serial("consolidated", 7, first_leg);
    let SnapshotPayload::Serial(mut resumed) = Snapshot::from_bytes(&ckpt)
        .expect("checkpoint decodes")
        .payload
    else {
        panic!("serial checkpoint must decode to a serial payload");
    };
    resumed.run_until(horizon);

    assert_eq!(
        report_bytes(uninterrupted.report()),
        report_bytes(resumed.report())
    );
    assert_eq!(
        encode_serial("consolidated", 7, uninterrupted),
        encode_serial("consolidated", 7, *resumed)
    );
}

#[test]
fn resume_inside_a_fault_plan_outage_under_churn_is_bit_identical() {
    // Checkpointed at 16 min, inside the plan's partition and after
    // churn incidents fired, with plan recoveries (20 min) and further
    // churn transitions still queued: the restored incident queue must
    // replay exactly.
    assert_resume_equivalent("faulted-churn", 42, 960, 1500);
}

#[test]
fn resume_survives_back_to_back_checkpoints() {
    // Checkpoint, resume, checkpoint again, resume again — chained
    // restores must not drift either.
    let (scenario, seed) = ("churned", 7);
    let horizon = SimTime::from_secs(360);

    let mut uninterrupted = common::build(scenario, seed);
    uninterrupted.enable_trace(100_000);
    uninterrupted.run_until(horizon);
    let want = encode_serial(scenario, seed, uninterrupted);

    let mut sim = common::build(scenario, seed);
    sim.enable_trace(100_000);
    let mut boxed = Box::new(sim);
    for stop in [90u64, 180, 270] {
        boxed.run_until(SimTime::from_secs(stop));
        let bytes = encode_serial(scenario, seed, *boxed);
        let SnapshotPayload::Serial(restored) = Snapshot::from_bytes(&bytes)
            .expect("checkpoint decodes")
            .payload
        else {
            panic!("serial payload expected");
        };
        boxed = restored;
    }
    boxed.run_until(horizon);
    let got = encode_serial(scenario, seed, *boxed);
    assert_eq!(want, got, "three chained resumes diverged");
}

#[test]
fn resume_is_executor_independent() {
    // A checkpoint taken under one executor and resumed under another
    // must still match: the executor is pure mechanism and is
    // deliberately not serialized.
    let (scenario, seed) = ("churned", 11);
    let horizon = SimTime::from_secs(300);

    let mut sg = common::build(scenario, seed);
    sg.enable_trace(100_000);
    sg.set_executor(Executor::scatter_gather(2));
    sg.run_until(horizon);
    let want = encode_serial(scenario, seed, sg);

    let mut serial = common::build(scenario, seed);
    serial.enable_trace(100_000);
    serial.run_until(SimTime::from_secs(120));
    let bytes = encode_serial(scenario, seed, serial);
    let SnapshotPayload::Serial(mut resumed) = Snapshot::from_bytes(&bytes)
        .expect("checkpoint decodes")
        .payload
    else {
        panic!("serial payload expected");
    };
    resumed.set_executor(Executor::hdispatch(2, 8));
    resumed.run_until(horizon);
    let got = encode_serial(scenario, seed, *resumed);

    assert_eq!(
        want, got,
        "scatter-gather full run vs serial-then-h-dispatch resume diverged"
    );
}

#[test]
fn sharded_resume_is_bit_identical() {
    let (scenario, seed) = ("churned", 5);

    let mut uninterrupted = ShardedSimulation::new(common::build(scenario, seed), 2, None, None)
        .expect("2-way sharding");
    for shard in uninterrupted.shard_sims_mut() {
        shard.enable_trace(100_000);
    }
    // Sharded checkpoints only land on whole-window boundaries; derive
    // every stop from the window so the grids line up.
    let window = uninterrupted.dt() * uninterrupted.window_ticks();
    let horizon = aligned(window, 240);
    let ckpt_at = aligned(window, 90);
    uninterrupted.run_until(horizon);
    let want = Snapshot::sharded(scenario, seed, uninterrupted).to_bytes();

    let mut first_leg = ShardedSimulation::new(common::build(scenario, seed), 2, None, None)
        .expect("2-way sharding");
    for shard in first_leg.shard_sims_mut() {
        shard.enable_trace(100_000);
    }
    first_leg.run_until(ckpt_at);
    assert_eq!(
        first_leg.now(),
        ckpt_at,
        "run_until must stop on the window grid"
    );
    let bytes = Snapshot::sharded(scenario, seed, first_leg).to_bytes();

    let snap = Snapshot::from_bytes(&bytes).expect("checkpoint decodes");
    assert_eq!(snap.meta.shards, 2);
    assert_eq!(snap.meta.now, ckpt_at);
    let SnapshotPayload::Sharded(mut resumed) = snap.payload else {
        panic!("sharded checkpoint must decode to a sharded payload");
    };
    assert_eq!(resumed.shards(), 2);
    resumed.run_until(horizon);
    let got = Snapshot::sharded(scenario, seed, *resumed).to_bytes();

    assert_eq!(
        want, got,
        "sharded resume diverged from the uninterrupted run"
    );
}

#[test]
fn sharded_resume_preserves_the_merged_report() {
    // Same property as `sharded_resume_is_bit_identical`, but on the
    // faulted scenario and compared at the merged-report level — the
    // artifact users actually consume after a restart.
    let (scenario, seed) = ("faulted", 13);

    let mut uninterrupted = ShardedSimulation::new(common::build(scenario, seed), 2, None, None)
        .expect("2-way sharding");
    let window = uninterrupted.dt() * uninterrupted.window_ticks();
    let horizon = aligned(window, 180);
    uninterrupted.run_until(horizon);
    let want = report_bytes(&uninterrupted.report());

    let mut sharded = ShardedSimulation::new(common::build(scenario, seed), 2, None, None)
        .expect("2-way sharding");
    sharded.run_until(aligned(window, 60));
    let bytes = Snapshot::sharded(scenario, seed, sharded).to_bytes();
    let SnapshotPayload::Sharded(mut resumed) = Snapshot::from_bytes(&bytes)
        .expect("checkpoint decodes")
        .payload
    else {
        panic!("sharded payload expected");
    };
    resumed.run_until(horizon);

    assert_eq!(
        want,
        report_bytes(&resumed.report()),
        "resumed sharded merged report diverged from the uninterrupted run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The pinning property: any scenario, any seed, any checkpoint
    /// instant — the resumed run is indistinguishable from the
    /// uninterrupted one.
    #[test]
    fn resume_equivalence_holds_everywhere(
        scenario_idx in 0usize..common::SCENARIOS.len(),
        seed in 1u64..10_000,
        ckpt_tenths in 1u64..10,
    ) {
        let horizon_secs = 300;
        let ckpt_secs = horizon_secs * ckpt_tenths / 10;
        assert_resume_equivalent(
            common::SCENARIOS[scenario_idx],
            seed,
            ckpt_secs,
            horizon_secs,
        );
    }
}
