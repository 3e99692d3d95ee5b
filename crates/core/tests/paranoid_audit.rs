//! The invariant auditor must run clean on every shipped scenario:
//! `--paranoid` is only useful as a tripwire if a healthy engine
//! reports exactly zero violations.

mod common;

use gdisim_core::observe::merged_audit;
use gdisim_core::ShardedSimulation;
use gdisim_types::SimTime;

#[test]
fn paranoid_serial_runs_clean_on_every_scenario() {
    for scenario in common::SCENARIOS {
        let mut sim = common::build(scenario, 7);
        sim.set_paranoid(true);
        sim.run_until(SimTime::from_secs(300));
        let audit = sim.audit_state().expect("set_paranoid arms the auditor");
        assert!(audit.checks > 0, "{scenario}: the auditor never ran");
        assert_eq!(
            audit.violations, 0,
            "{scenario}: paranoid run found violations: {:#?}",
            audit.recorded
        );
    }
}

#[test]
fn paranoid_sharded_runs_clean() {
    let mut sharded =
        ShardedSimulation::new(common::build("churned", 7), 2, None, None).expect("2-way sharding");
    for shard in sharded.shard_sims_mut() {
        shard.set_paranoid(true);
    }
    sharded.run_until(SimTime::from_secs(300));
    let audit = merged_audit(sharded.shard_sims().filter_map(|s| s.observers()))
        .expect("set_paranoid arms every shard's auditor");
    assert!(audit.checks > 0, "no shard ever audited");
    assert_eq!(
        audit.violations, 0,
        "sharded paranoid run found violations: {:#?}",
        audit.recorded
    );
}

/// The converse of active-set completeness: a member that holds no work
/// is one retirement missed, and the auditor must say so. The work is
/// evicted behind the engine's back — through the checkpoint, which
/// encodes the infrastructure first — so no step names the emptied
/// agents as retirement candidates. The eviction lands one step before
/// a collection: an emptied member is retired properly once fresh work
/// through it completes, so a later audit could find it busy or gone.
#[test]
fn a_member_left_idle_is_reported() {
    use gdisim_core::audit::InvariantViolation;
    use gdisim_infra::Infrastructure;
    use gdisim_snap::{Snap, SnapReader};

    let mut sim = common::build("consolidated", 7);
    sim.set_paranoid(true);
    let collection = SimTime::from_secs(180);
    sim.run_until(SimTime(collection.as_micros() - sim.dt().as_micros()));
    assert_eq!(sim.audit_state().map(|a| a.violations), Some(0));
    let bytes = gdisim_snap::to_bytes(&sim);
    let mut r = SnapReader::new(&bytes);
    let mut infra = Infrastructure::load(&mut r).expect("the infrastructure decodes");
    let rest = &bytes[bytes.len() - r.remaining()..];
    let mut members = Vec::new();
    infra.active().snapshot_into(&mut members);
    assert!(!members.is_empty(), "nothing active before the collection");
    let mut evicted = Vec::new();
    for &agent in &members {
        infra.evict_agent(gdisim_types::AgentId(agent), &mut evicted);
    }
    let mut patched = gdisim_snap::to_bytes(&infra);
    patched.extend_from_slice(rest);
    let mut sim: gdisim_core::Simulation =
        gdisim_snap::from_bytes(&patched).expect("the patched engine decodes");
    sim.run_until(collection);
    let audit = sim
        .audit_state()
        .expect("the auditor rides in the checkpoint");
    let idle: Vec<u32> = audit
        .recorded
        .iter()
        .filter_map(|v| match v {
            InvariantViolation::IdleActiveMember { agent, .. } => Some(*agent),
            _ => None,
        })
        .collect();
    assert!(
        !idle.is_empty(),
        "no idle member reported: {:#?}",
        audit.recorded
    );
    assert!(
        idle.iter().all(|a| members.contains(a)),
        "{idle:?} ⊄ {members:?}"
    );
}

#[test]
fn paranoid_survives_a_resume() {
    // The audit tallies themselves are not checkpointed (they are
    // diagnostics, not simulation state) — but a resumed engine with
    // the auditor re-armed must still run clean.
    use gdisim_core::{Snapshot, SnapshotPayload};
    let (scenario, seed) = ("churned", 21);
    let mut sim = common::build(scenario, seed);
    sim.run_until(SimTime::from_secs(150));
    let bytes = Snapshot::serial(scenario, seed, sim).to_bytes();
    let SnapshotPayload::Serial(mut resumed) = Snapshot::from_bytes(&bytes)
        .expect("checkpoint decodes")
        .payload
    else {
        panic!("serial payload expected");
    };
    resumed.set_paranoid(true);
    resumed.run_until(SimTime::from_secs(450));
    let audit = resumed.audit_state().expect("auditor armed after resume");
    assert!(audit.checks > 0);
    assert_eq!(
        audit.violations, 0,
        "resumed paranoid run found violations: {:#?}",
        audit.recorded
    );
}

/// The diurnal zero-arrival bounds are derived state that is never
/// serialized: a restored engine, one given a new source after its
/// first step and one whose step changed after its sources were added
/// must each carry bounds equal to a fresh derivation.
#[test]
fn zero_bounds_stay_fresh_across_restore_new_sources_and_dt() {
    use gdisim_core::scenarios::consolidated;
    use gdisim_core::{Snapshot, SnapshotPayload};
    use gdisim_types::SimDuration;
    let audited = |mut sim: gdisim_core::Simulation, until: u64, what: &str| {
        sim.set_paranoid(true);
        sim.run_until(SimTime::from_secs(until));
        let audit = sim.audit_state().expect("auditor armed");
        assert!(audit.checks > 0, "{what}: the auditor never ran");
        assert_eq!(
            audit.violations, 0,
            "{what}: paranoid run found violations: {:#?}",
            audit.recorded
        );
    };

    let mut sim = common::build("consolidated", 5);
    sim.run_until(SimTime::from_secs(120));
    let bytes = Snapshot::serial("consolidated", 5, sim).to_bytes();
    let SnapshotPayload::Serial(resumed) = Snapshot::from_bytes(&bytes)
        .expect("checkpoint decodes")
        .payload
    else {
        panic!("serial payload expected");
    };
    audited(*resumed, 300, "restored");

    let mut sim = common::build("consolidated", 5);
    sim.step();
    let late = consolidated::workloads().remove(1);
    sim.add_diurnal(late)
        .expect("the application is registered");
    audited(sim, 180, "source added after the first step");

    let mut sim = common::build("consolidated", 5);
    sim.set_dt(SimDuration::from_millis(20));
    audited(sim, 180, "step changed after the sources");
}
